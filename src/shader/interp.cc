#include "shader/interp.hh"

#include <cmath>

#include "common/log.hh"
#include "shader/alucore.hh"
#include "shader/decoded.hh"

namespace wc3d::shader {

namespace {

// ---------------------------------------------------------------------------
// Pre-decoded execution. Register files are resolved at decode time
// into direct table indices; swizzle/negate/abs/saturate/write-mask pay
// only when the flag byte says they apply. Semantics (including float
// special cases) live in aluResult(), which the test-only reference
// interpreter (tests/shader_reference.hh) shares.
// ---------------------------------------------------------------------------

/** Per-lane register tables, indexed by the RegFile value baked into
 *  DecodedSrc::file / DecodedOp::dstFile. */
struct RegTables
{
    const Vec4 *read[4];
    Vec4 *write[4];
};

WC3D_FORCE_INLINE RegTables
laneTables(LaneState &lane, const Vec4 *constants)
{
    return {{lane.inputs, lane.temps, constants, lane.outputs},
            {nullptr, lane.temps, nullptr, lane.outputs}};
}

WC3D_FORCE_INLINE Vec4
loadSrc(const RegTables &t, const DecodedSrc &src)
{
    const Vec4 &reg = t.read[src.file][src.index];
    if (src.flags == 0) [[likely]]
        return reg;
    Vec4 v = {reg[src.comps[0]], reg[src.comps[1]], reg[src.comps[2]],
              reg[src.comps[3]]};
    if (src.flags & kSrcAbsolute) {
        v = {std::fabs(v.x), std::fabs(v.y), std::fabs(v.z),
             std::fabs(v.w)};
    }
    if (src.flags & kSrcNegate)
        v = v * -1.0f;
    return v;
}

WC3D_FORCE_INLINE void
storeDst(const RegTables &t, const DecodedOp &op, Vec4 value)
{
    Vec4 &reg = t.write[op.dstFile][op.dstIndex];
    if (op.dstFlags == 0) [[likely]] {
        reg = value;
        return;
    }
    if (op.dstFlags & kDstSaturate) {
        value = {clampf(value.x, 0.0f, 1.0f), clampf(value.y, 0.0f, 1.0f),
                 clampf(value.z, 0.0f, 1.0f), clampf(value.w, 0.0f, 1.0f)};
    }
    if (!(op.dstFlags & kDstPartial)) {
        reg = value;
        return;
    }
    if (op.writeMask & kMaskX)
        reg.x = value.x;
    if (op.writeMask & kMaskY)
        reg.y = value.y;
    if (op.writeMask & kMaskZ)
        reg.z = value.z;
    if (op.writeMask & kMaskW)
        reg.w = value.w;
}

constexpr bool
isTexOp(Opcode op)
{
    return op == Opcode::TEX || op == Opcode::TXP || op == Opcode::TXB;
}

/**
 * Execute one decoded ALU op across @p N lanes. The opcode is a
 * template parameter so the aluResult() switch constant-folds into each
 * specialized body: the interpreter pays one dispatch per instruction
 * per quad rather than one per lane, and unused operand loads compile
 * out entirely.
 */
template <Opcode Op, int N>
WC3D_FORCE_INLINE void
execAluLanes(const DecodedOp &op, const RegTables *t)
{
    for (int l = 0; l < N; ++l) {
        Vec4 a, b, c;
        a = loadSrc(t[l], op.src[0]);
        if constexpr (arityFor(Op) >= 2)
            b = loadSrc(t[l], op.src[1]);
        if constexpr (arityFor(Op) >= 3)
            c = loadSrc(t[l], op.src[2]);
        storeDst(t[l], op, aluResult(Op, a, b, c));
    }
}

/** Single dispatch point for decoded ALU ops (KIL/texture excluded). */
template <int N>
inline void
dispatchAlu(const DecodedOp &op, const RegTables *t)
{
    switch (op.op) {
#define WC3D_ALU_CASE(OP)                                                \
      case Opcode::OP:                                                   \
        execAluLanes<Opcode::OP, N>(op, t);                              \
        break;
      WC3D_ALU_CASE(MOV)
      WC3D_ALU_CASE(ADD)
      WC3D_ALU_CASE(SUB)
      WC3D_ALU_CASE(MUL)
      WC3D_ALU_CASE(MAD)
      WC3D_ALU_CASE(DP3)
      WC3D_ALU_CASE(DP4)
      WC3D_ALU_CASE(RCP)
      WC3D_ALU_CASE(RSQ)
      WC3D_ALU_CASE(MIN)
      WC3D_ALU_CASE(MAX)
      WC3D_ALU_CASE(SLT)
      WC3D_ALU_CASE(SGE)
      WC3D_ALU_CASE(FRC)
      WC3D_ALU_CASE(FLR)
      WC3D_ALU_CASE(ABS)
      WC3D_ALU_CASE(EX2)
      WC3D_ALU_CASE(LG2)
      WC3D_ALU_CASE(POW)
      WC3D_ALU_CASE(LRP)
      WC3D_ALU_CASE(CMP)
      WC3D_ALU_CASE(NRM)
      WC3D_ALU_CASE(XPD)
      WC3D_ALU_CASE(DST)
      WC3D_ALU_CASE(LIT)
#undef WC3D_ALU_CASE
      default:
        panic("shader: ALU dispatcher got non-ALU opcode %s",
              opcodeName(op.op));
    }
}

/** Evaluate a decoded KIL condition on one lane. */
WC3D_FORCE_INLINE bool
execKill(const DecodedOp &op, const RegTables &t)
{
    Vec4 k = loadSrc(t, op.src[0]);
    return k.x < 0.0f || k.y < 0.0f || k.z < 0.0f || k.w < 0.0f;
}

} // namespace

void
run(const Program &program, LaneState &lane)
{
    const DecodedProgram &dec = program.decoded();
    WC3D_ASSERT(!dec.hasTexture() &&
                "texture sampling requires quad execution");
    const RegTables t = laneTables(lane, program.constants().data());
    for (const DecodedOp &op : dec.ops()) {
        if (op.op == Opcode::KIL) [[unlikely]] {
            if (execKill(op, t))
                lane.killed = true;
        } else {
            dispatchAlu<1>(op, &t);
        }
    }
}

void
runQuad(const Program &program, QuadState &quad,
        TextureSampleHandler *tex_handler)
{
    const DecodedProgram &dec = program.decoded();
    const Vec4 *constants = program.constants().data();
    const RegTables t[4] = {
        laneTables(quad.lanes[0], constants),
        laneTables(quad.lanes[1], constants),
        laneTables(quad.lanes[2], constants),
        laneTables(quad.lanes[3], constants),
    };
    for (const DecodedOp &op : dec.ops()) {
        if (isTexOp(op.op)) [[unlikely]] {
            WC3D_ASSERT(tex_handler &&
                        "texture instruction without a sampler handler");
            Vec4 coords[4];
            float lod_bias = 0.0f;
            for (int l = 0; l < 4; ++l) {
                Vec4 c = loadSrc(t[l], op.src[0]);
                if (op.op == Opcode::TXP && c.w != 0.0f) {
                    c = {c.x / c.w, c.y / c.w, c.z / c.w, 1.0f};
                } else if (op.op == Opcode::TXB) {
                    // Per-quad bias comes from the first lane's w.
                    if (l == 0)
                        lod_bias = c.w;
                }
                coords[l] = c;
            }
            Vec4 out[4];
            tex_handler->sampleQuad(op.sampler, coords, lod_bias, out);
            for (int l = 0; l < 4; ++l)
                storeDst(t[l], op, out[l]);
        } else if (op.op == Opcode::KIL) [[unlikely]] {
            for (int l = 0; l < 4; ++l) {
                if (execKill(op, t[l]))
                    quad.lanes[l].killed = true;
            }
        } else {
            dispatchAlu<4>(op, t);
        }
    }
}

} // namespace wc3d::shader
