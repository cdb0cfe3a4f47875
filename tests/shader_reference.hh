/**
 * @file
 * Test-only reference for shader::run/runQuad: the original
 * field-by-field interpreter. It decodes each shader::Instruction's
 * operands on every execution and computes results through the shared
 * ALU core (shader/alucore.hh). The production interpreter runs the
 * pre-decoded form and must reproduce its register bits, kill flags and
 * texture calls exactly; the differential tests in
 * test_shader_decoded.cc and test_shader_fuzz.cc check that.
 */

#ifndef WC3D_TESTS_SHADER_REFERENCE_HH
#define WC3D_TESTS_SHADER_REFERENCE_HH

#include <cmath>

#include "shader/alucore.hh"
#include "shader/interp.hh"

namespace wc3d::test {

class ReferenceInterpreter
{
  public:
    /** Run @p program on a single lane (no texture instructions). */
    void
    run(const shader::Program &program, shader::LaneState &lane)
    {
        const Vec4 *constants = program.constants().data();
        for (const shader::Instruction &in : program.code()) {
            WC3D_ASSERT(!shader::opcodeInfo(in.op).isTexture &&
                        "texture sampling requires quad execution");
            if (execAlu(in, lane, constants))
                lane.killed = true;
        }
    }

    /** Run @p program on a quad in lockstep. */
    void
    runQuad(const shader::Program &program, shader::QuadState &quad,
            shader::TextureSampleHandler *tex_handler)
    {
        using shader::Opcode;
        const Vec4 *constants = program.constants().data();
        for (const shader::Instruction &in : program.code()) {
            const shader::OpcodeInfo &info = shader::opcodeInfo(in.op);
            if (info.isTexture) {
                WC3D_ASSERT(tex_handler &&
                            "texture instruction without a sampler handler");
                Vec4 coords[4];
                float lod_bias = 0.0f;
                for (int l = 0; l < 4; ++l) {
                    Vec4 c = readSrc(quad.lanes[l], constants, in.src[0]);
                    if (in.op == Opcode::TXP && c.w != 0.0f) {
                        c = {c.x / c.w, c.y / c.w, c.z / c.w, 1.0f};
                    } else if (in.op == Opcode::TXB) {
                        // Per-quad bias comes from the first lane's w.
                        if (l == 0)
                            lod_bias = c.w;
                    }
                    coords[l] = c;
                }
                Vec4 out[4];
                tex_handler->sampleQuad(in.sampler, coords, lod_bias, out);
                for (int l = 0; l < 4; ++l)
                    writeDst(quad.lanes[l], in.dst, out[l]);
            } else {
                for (int l = 0; l < 4; ++l) {
                    if (execAlu(in, quad.lanes[l], constants))
                        quad.lanes[l].killed = true;
                }
            }
        }
    }

  private:
    static Vec4
    applySwizzle(Vec4 v, std::uint8_t swizzle)
    {
        return {v[shader::swizzleComp(swizzle, 0)],
                v[shader::swizzleComp(swizzle, 1)],
                v[shader::swizzleComp(swizzle, 2)],
                v[shader::swizzleComp(swizzle, 3)]};
    }

    static Vec4
    readSrc(const shader::LaneState &lane, const Vec4 *constants,
            const shader::SrcOperand &src)
    {
        using shader::RegFile;
        Vec4 v;
        switch (src.file) {
          case RegFile::Input:
            v = lane.inputs[src.index];
            break;
          case RegFile::Temp:
            v = lane.temps[src.index];
            break;
          case RegFile::Const:
            v = constants[src.index];
            break;
          case RegFile::Output:
            v = lane.outputs[src.index];
            break;
        }
        v = applySwizzle(v, src.swizzle);
        if (src.absolute) {
            v = {std::fabs(v.x), std::fabs(v.y), std::fabs(v.z),
                 std::fabs(v.w)};
        }
        if (src.negate)
            v = v * -1.0f;
        return v;
    }

    static void
    writeDst(shader::LaneState &lane, const shader::DstOperand &dst,
             Vec4 value)
    {
        using shader::RegFile;
        Vec4 *reg = nullptr;
        switch (dst.file) {
          case RegFile::Temp:
            reg = &lane.temps[dst.index];
            break;
          case RegFile::Output:
            reg = &lane.outputs[dst.index];
            break;
          case RegFile::Input:
          case RegFile::Const:
            panic("shader: write to read-only register file");
        }
        if (dst.saturate) {
            value = {clampf(value.x, 0.0f, 1.0f), clampf(value.y, 0.0f, 1.0f),
                     clampf(value.z, 0.0f, 1.0f),
                     clampf(value.w, 0.0f, 1.0f)};
        }
        if (dst.writeMask & shader::kMaskX)
            reg->x = value.x;
        if (dst.writeMask & shader::kMaskY)
            reg->y = value.y;
        if (dst.writeMask & shader::kMaskZ)
            reg->z = value.z;
        if (dst.writeMask & shader::kMaskW)
            reg->w = value.w;
    }

    /** Execute a non-texture instruction on one lane; returns the kill
     *  flag. */
    static bool
    execAlu(const shader::Instruction &in, shader::LaneState &lane,
            const Vec4 *constants)
    {
        Vec4 a, b, c;
        const shader::OpcodeInfo &info = shader::opcodeInfo(in.op);
        if (info.numSrcs >= 1)
            a = readSrc(lane, constants, in.src[0]);
        if (info.numSrcs >= 2)
            b = readSrc(lane, constants, in.src[1]);
        if (info.numSrcs >= 3)
            c = readSrc(lane, constants, in.src[2]);

        if (in.op == shader::Opcode::KIL)
            return a.x < 0.0f || a.y < 0.0f || a.z < 0.0f || a.w < 0.0f;

        writeDst(lane, in.dst, shader::aluResult(in.op, a, b, c));
        return false;
    }
};

} // namespace wc3d::test

#endif // WC3D_TESTS_SHADER_REFERENCE_HH
