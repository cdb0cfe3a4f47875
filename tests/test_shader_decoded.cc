/**
 * @file
 * Tests for the pre-decoded shader execution path (shader/decoded.hh):
 * decode caching and invalidation, the register clear plan / arena
 * reuse, batched quad execution, and a full-ISA differential that pins
 * the pre-decoded interpreter bit-exactly to the legacy field-by-field
 * reference, including opcodes no current workload emits (DST, LIT,
 * XPD, ...), so operand-arity mismatches between the decoders cannot
 * hide, and float special values (NaN, signed zero, infinities), so
 * the shared ALU core's MIN/MAX and guard semantics stay pinned.
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "shader/decoded.hh"
#include "shader/interp.hh"

using namespace wc3d;
using namespace wc3d::shader;

namespace {

/** Deterministic input/constant values, nothing degenerate. */
Vec4
v4(int seed)
{
    auto f = [seed](int k) {
        return 0.125f + 0.375f * static_cast<float>((seed * 7 + k * 3) % 9) -
               1.0f * static_cast<float>((seed + k) % 2);
    };
    return {f(0), f(1), f(2), f(3)};
}

/** Stub texture handler with a coordinate-dependent result. */
class HashTexture : public TextureSampleHandler
{
  public:
    void
    sampleQuad(int sampler, const Vec4 coords[4], float lod_bias,
               Vec4 out[4]) override
    {
        ++calls;
        for (int l = 0; l < 4; ++l) {
            const Vec4 &c = coords[l];
            out[l] = {c.x * 0.5f + static_cast<float>(sampler),
                      c.y * 0.25f + lod_bias, c.z, 1.0f};
        }
    }

    int calls = 0;
};

/** |s| — there is no builder shorthand for the absolute modifier. */
SrcOperand
absolute(SrcOperand s)
{
    s.absolute = true;
    return s;
}

/** An output-file source read (legal; no shorthand constructor). */
SrcOperand
srcOutput(int index)
{
    SrcOperand s;
    s.file = RegFile::Output;
    s.index = static_cast<std::uint8_t>(index);
    return s;
}

/** Emit an opcode that has no builder shorthand (DST, LIT). */
void
emitRaw(Program &p, Opcode op, DstOperand d, SrcOperand a,
        SrcOperand b = srcTemp(0))
{
    Instruction in;
    in.op = op;
    in.dst = d;
    in.src[0] = a;
    in.src[1] = b;
    p.emit(in);
}

/** Every non-texture opcode with representative operand modifiers. */
Program
fullIsaAluProgram()
{
    Program p(ProgramKind::Fragment, "full_isa");
    p.mov(dstTemp(0), srcInput(0));
    p.add(dstTemp(1), srcInput(0), srcInput(1));
    p.sub(dstTemp(2), srcTemp(1), negate(srcInput(2)));
    p.mul(dstTemp(3), srcTemp(2), srcConst(0));
    p.mad(dstTemp(4), srcTemp(3), srcConst(1), srcTemp(0));
    p.dp3(dstTemp(5), srcTemp(4), srcInput(1));
    p.dp4(dstTemp(6), srcTemp(4), absolute(srcInput(0)));
    p.rcp(dstTemp(7, kMaskX), srcTemp(6, packSwizzle(1, 1, 1, 1)));
    p.rsq(dstTemp(7, kMaskY), absolute(srcTemp(6)));
    p.minOp(dstTemp(8), srcTemp(4), srcConst(0));
    p.maxOp(dstTemp(9), srcTemp(4), negate(srcConst(1)));
    p.slt(dstTemp(10), srcTemp(8), srcTemp(9));
    p.sge(dstTemp(11), srcTemp(8), srcTemp(9));
    p.frc(dstTemp(12), srcTemp(4));
    p.flr(dstTemp(13), srcTemp(4));
    p.absOp(dstTemp(14), srcTemp(2));
    p.ex2(dstTemp(15, kMaskX), srcTemp(12, packSwizzle(0, 0, 0, 0)));
    p.lg2(dstTemp(15, kMaskY), absolute(srcTemp(3, packSwizzle(2, 2, 2, 2))));
    p.pow(dstTemp(15, kMaskZ), absolute(srcTemp(1)),
          srcConst(0, packSwizzle(3, 3, 3, 3)));
    p.lrp(dstTemp(15, kMaskW), srcTemp(12), srcTemp(8), srcTemp(9));
    p.cmp(dstOutput(1), srcTemp(2), srcTemp(8), srcTemp(9));
    p.nrm(dstTemp(1), srcTemp(4));
    p.xpd(dstTemp(2), srcInput(0), srcInput(1));
    emitRaw(p, Opcode::DST, dstTemp(3), srcTemp(14), srcConst(1));
    emitRaw(p, Opcode::LIT, dstTemp(4),
            srcTemp(5, packSwizzle(0, 1, 2, 3)));
    p.add(saturate(dstOutput(0)), srcTemp(15), srcTemp(4));
    p.mul(dstOutput(0, kMaskX | kMaskZ), srcOutput(0), srcTemp(13));
    p.setConstant(0, {0.75f, -0.5f, 1.25f, 2.0f});
    p.setConstant(1, {-1.5f, 0.25f, 3.0f, 0.5f});
    return p;
}

/** Bit pattern of a float: NaNs and zero signs compare exactly. */
std::uint32_t
bits(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof u);
    return u;
}

/** Compare every register of two lanes bit-exactly. */
void
expectLanesIdentical(const LaneState &a, const LaneState &b,
                     const char *what)
{
    for (int i = 0; i < kMaxTemps; ++i)
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(bits(a.temps[i][k]), bits(b.temps[i][k]))
                << what << ": temp " << i << "." << k << " ("
                << a.temps[i][k] << " vs " << b.temps[i][k] << ")";
    for (int i = 0; i < kMaxOutputs; ++i)
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(bits(a.outputs[i][k]), bits(b.outputs[i][k]))
                << what << ": output " << i << "." << k << " ("
                << a.outputs[i][k] << " vs " << b.outputs[i][k] << ")";
    EXPECT_EQ(a.killed, b.killed) << what;
}

} // namespace

TEST(Decoded, FullIsaMatchesLegacyBitExactly)
{
    Program p = fullIsaAluProgram();
    Interpreter legacy, decoded;
    LaneState ref, hot;
    for (int i = 0; i < 3; ++i) {
        ref.inputs[i] = v4(i + 1);
        hot.inputs[i] = v4(i + 1);
    }
    legacy.runLegacy(p, ref);
    decoded.run(p, hot);
    expectLanesIdentical(ref, hot, "full ISA");
    EXPECT_EQ(legacy.stats().instructionsExecuted,
              decoded.stats().instructionsExecuted);
    EXPECT_EQ(legacy.stats().programsRun, decoded.stats().programsRun);
}

TEST(Decoded, SpecialValuesMatchLegacy)
{
    // MIN/MAX NaN propagation and zero signs (alucore.hh's minf/maxf),
    // RCP/RSQ zero guards, FLR/FRC on negatives and infinities, SLT on
    // NaN, saturation of NaN: the inputs where two executors can drift
    // apart without any finite-input differential noticing.
    Program p(ProgramKind::Fragment, "special");
    p.minOp(dstTemp(0), srcInput(0), srcInput(1));
    p.maxOp(dstTemp(1), srcInput(0), srcInput(1));
    p.rcp(dstTemp(2, kMaskX), srcInput(0, packSwizzle(0, 0, 0, 0)));
    p.rsq(dstTemp(2, kMaskY), srcInput(0, packSwizzle(1, 1, 1, 1)));
    p.flr(dstTemp(3), srcInput(0));
    p.frc(dstTemp(4), srcInput(0));
    p.slt(dstTemp(5), srcInput(0), srcInput(1));
    p.add(saturate(dstOutput(0)), srcInput(0), srcInput(1));
    p.mul(dstOutput(1), srcInput(1), srcTemp(0));

    const float qnan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const Vec4 specials[] = {
        {qnan, -0.0f, inf, -inf},
        {0.0f, qnan, -1.5f, 2.25f},
        {-0.0f, 0.0f, qnan, -3.75f},
        {inf, -inf, 0.5f, qnan},
    };

    for (std::size_t i = 0; i + 1 < std::size(specials); ++i) {
        SCOPED_TRACE(i);
        LaneState ref, hot;
        ref.inputs[0] = hot.inputs[0] = specials[i];
        ref.inputs[1] = hot.inputs[1] = specials[i + 1];
        Interpreter legacy, decoded;
        legacy.runLegacy(p, ref);
        decoded.run(p, hot);
        expectLanesIdentical(ref, hot, "special values");
    }

    // The rule itself, not just agreement: pick a when the strict
    // ordered compare holds or b is NaN, else b. So min/max(+0, -0)
    // are -0, and a NaN on either side yields the other operand.
    LaneState lane;
    lane.inputs[0] = specials[1]; // {+0, NaN, -1.5, 2.25}
    lane.inputs[1] = specials[2]; // {-0, +0, NaN, -3.75}
    Interpreter decoded;
    decoded.run(p, lane);
    const float want_min[4] = {-0.0f, 0.0f, -1.5f, -3.75f};
    const float want_max[4] = {-0.0f, 0.0f, -1.5f, 2.25f};
    for (int k = 0; k < 4; ++k) {
        EXPECT_EQ(bits(lane.temps[0][k]), bits(want_min[k])) << "min." << k;
        EXPECT_EQ(bits(lane.temps[1][k]), bits(want_max[k])) << "max." << k;
    }
}

TEST(Decoded, ArityMatchesOpcodeInfo)
{
    // The decoded executor selects operand loads at compile time; the
    // decode itself must agree with OpcodeInfo on every opcode's arity,
    // or a second/third source would silently read garbage.
    Program p = fullIsaAluProgram();
    const DecodedProgram &dec = p.decoded();
    ASSERT_EQ(dec.ops().size(), p.code().size());
    for (std::size_t i = 0; i < dec.ops().size(); ++i) {
        const Instruction &in = p.code()[i];
        const DecodedOp &op = dec.ops()[i];
        EXPECT_EQ(op.op, in.op);
        const OpcodeInfo &info = opcodeInfo(in.op);
        for (int s = 0; s < info.numSrcs; ++s) {
            EXPECT_EQ(op.src[s].file,
                      static_cast<std::uint8_t>(in.src[s].file))
                << opcodeName(in.op) << " src " << s;
            EXPECT_EQ(op.src[s].index, in.src[s].index)
                << opcodeName(in.op) << " src " << s;
        }
    }
}

TEST(Decoded, KillMatchesLegacy)
{
    Program p(ProgramKind::Fragment, "kil");
    p.sub(dstTemp(0), srcInput(0), srcConst(0));
    p.kil(srcTemp(0, packSwizzle(3, 3, 3, 3)));
    p.mov(dstOutput(0), srcInput(1));
    p.setConstant(0, {0.0f, 0.0f, 0.0f, 0.5f});

    for (float alpha : {0.25f, 0.75f}) {
        Interpreter legacy, decoded;
        LaneState ref, hot;
        ref.inputs[0] = hot.inputs[0] = {1, 1, 1, alpha};
        ref.inputs[1] = hot.inputs[1] = v4(9);
        legacy.runLegacy(p, ref);
        decoded.run(p, hot);
        expectLanesIdentical(ref, hot, "kil lane");
        EXPECT_EQ(ref.killed, alpha < 0.5f);
        EXPECT_EQ(legacy.stats().killsTaken,
                  decoded.stats().killsTaken);
    }
}

TEST(Decoded, QuadTextureMatchesLegacy)
{
    Program p(ProgramKind::Fragment, "tex");
    p.tex(dstTemp(0), srcInput(0), 0);
    p.txp(dstTemp(1), srcInput(1), 1);
    p.txb(dstTemp(2), srcInput(2), 2);
    p.mad(dstOutput(0), srcTemp(0), srcTemp(1), srcTemp(2));

    QuadState ref, hot;
    for (int l = 0; l < 4; ++l) {
        ref.covered[l] = hot.covered[l] = (l != 2);
        for (int i = 0; i < 3; ++i) {
            ref.lanes[l].inputs[i] = v4(l * 3 + i + 1);
            ref.lanes[l].inputs[i].w = 1.0f + 0.25f * static_cast<float>(l);
            hot.lanes[l].inputs[i] = ref.lanes[l].inputs[i];
        }
    }
    HashTexture tex_ref, tex_hot;
    Interpreter legacy, decoded;
    legacy.runQuadLegacy(p, ref, &tex_ref);
    decoded.runQuad(p, hot, &tex_hot);
    for (int l = 0; l < 4; ++l)
        expectLanesIdentical(ref.lanes[l], hot.lanes[l], "tex quad lane");
    EXPECT_EQ(tex_ref.calls, tex_hot.calls);
    EXPECT_EQ(legacy.stats().instructionsExecuted,
              decoded.stats().instructionsExecuted);
    EXPECT_EQ(legacy.stats().textureInstructions,
              decoded.stats().textureInstructions);
    EXPECT_EQ(legacy.stats().programsRun, decoded.stats().programsRun);
}

TEST(Decoded, PrepareLaneEqualsFreshState)
{
    // Arena reuse: run the program on a dirty lane reset through the
    // clear plan and on a genuinely fresh lane; results must match
    // bit-exactly even though the program reads temps before writing
    // them and leaves some outputs untouched.
    Program p(ProgramKind::Fragment, "clearplan");
    p.add(dstTemp(0), srcTemp(1), srcInput(0)); // t1 read before write
    p.mov(dstTemp(1), srcInput(0));
    p.add(dstOutput(0, kMaskX | kMaskY), srcTemp(0), srcTemp(1));
    // o0.zw never written, o1 never written: both must read as zero
    // downstream, whatever the previous occupant of the arena left.

    const DecodedProgram &dec = p.decoded();
    EXPECT_TRUE(dec.tempClearMask() & (1u << 1));
    EXPECT_TRUE(dec.inputReadMask() & (1u << 0));

    Interpreter interp;
    LaneState fresh;
    fresh.inputs[0] = v4(4);
    interp.run(p, fresh);

    LaneState dirty;
    for (int i = 0; i < kMaxTemps; ++i)
        dirty.temps[i] = {9, 9, 9, 9};
    for (int i = 0; i < kMaxOutputs; ++i)
        dirty.outputs[i] = {7, 7, 7, 7};
    dirty.killed = true;
    dec.prepareLane(dirty);
    dirty.inputs[0] = v4(4);
    interp.run(p, dirty);

    // Observable state: every output (downstream consumers read them
    // all) and the temps the program touches. Temps the program never
    // references may legitimately keep stale arena contents.
    for (int i = 0; i < kMaxOutputs; ++i)
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(fresh.outputs[i][k], dirty.outputs[i][k])
                << "output " << i << "." << k;
    for (int i : {0, 1})
        for (int k = 0; k < 4; ++k)
            EXPECT_EQ(fresh.temps[i][k], dirty.temps[i][k])
                << "temp " << i << "." << k;
    EXPECT_FALSE(dirty.killed);
}

TEST(Decoded, CacheInvalidatedByEmit)
{
    Program p(ProgramKind::Fragment, "cache");
    p.mov(dstOutput(0), srcInput(0));
    const DecodedProgram *first = &p.decoded();
    EXPECT_EQ(first->ops().size(), 1u);
    EXPECT_FALSE(first->hasTexture());
    // Stable across repeated calls with no emit in between.
    EXPECT_EQ(first, &p.decoded());

    p.tex(dstOutput(0), srcInput(0), 0);
    const DecodedProgram &second = p.decoded();
    EXPECT_EQ(second.ops().size(), 2u);
    EXPECT_TRUE(second.hasTexture());
}

TEST(Decoded, TextureInstructionCountTracksEmit)
{
    Program p(ProgramKind::Fragment, "texcount");
    EXPECT_EQ(p.textureInstructionCount(), 0);
    p.tex(dstTemp(0), srcInput(0), 0);
    p.mov(dstOutput(0), srcTemp(0));
    EXPECT_EQ(p.textureInstructionCount(), 1);
    p.txb(dstTemp(1), srcInput(1), 1);
    p.txp(dstTemp(2), srcInput(2), 2);
    EXPECT_EQ(p.textureInstructionCount(), 3);
    EXPECT_EQ(p.aluInstructionCount(), 1);
    EXPECT_EQ(p.instructionCount(), 4);
}
