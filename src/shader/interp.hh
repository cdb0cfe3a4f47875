/**
 * @file
 * Shader interpreter. Vertices execute one lane at a time; fragments
 * execute as 2x2 quads in lockstep, which is what lets the texture unit
 * compute level-of-detail from coordinate differences between quad lanes
 * (the mechanism behind the paper's bilinear/aniso accounting) and what
 * makes quads "the working unit of the subsequent GPU pipeline stages".
 *
 * The interpreter is two free functions that keep no state and count
 * nothing: a program's dynamic instruction count is its static length
 * (one decoded op per instruction, no branches), so the GPU simulator
 * charges Program::instructionCount() and textureInstructionCount() per
 * shaded fragment where it shades the quad.
 *
 * run() and runQuad() execute the program's pre-decoded form
 * (shader/decoded.hh), triggering the decode lazily on first use. The
 * original field-by-field interpreter over shader::Instruction lives on
 * in tests/shader_reference.hh as the bit-exact reference this one is
 * tested against.
 */

#ifndef WC3D_SHADER_INTERP_HH
#define WC3D_SHADER_INTERP_HH

#include "common/vecmath.hh"
#include "shader/program.hh"

namespace wc3d::shader {

/**
 * Receiver of texture sampling requests issued by TEX/TXP/TXB.
 * Implemented by the texture unit; tests use stub handlers.
 */
class TextureSampleHandler
{
  public:
    virtual ~TextureSampleHandler() = default;

    /**
     * Sample texture @p sampler for a whole quad.
     *
     * @param sampler  texture unit index
     * @param coords   four per-lane texture coordinates (projection for
     *                 TXP already applied)
     * @param lod_bias per-quad LOD bias (TXB), 0 otherwise
     * @param out      four per-lane sampled colours to fill in
     */
    virtual void sampleQuad(int sampler, const Vec4 coords[4],
                            float lod_bias, Vec4 out[4]) = 0;
};

/** Register state for one shader lane. */
struct LaneState
{
    Vec4 inputs[kMaxInputs];
    Vec4 temps[kMaxTemps];
    Vec4 outputs[kMaxOutputs];
    bool killed = false;
};

/** Register state for a 2x2 fragment quad (lane order: x-major). All
 *  four lanes execute, covered or not: helper lanes feed the texture
 *  unit's derivatives, and the caller discards their results. */
struct QuadState
{
    LaneState lanes[4];
};

/**
 * Run @p program on a single lane (vertex shading).
 * Texture instructions are not allowed in single-lane mode.
 */
void run(const Program &program, LaneState &lane);

/**
 * Run @p program on a quad in lockstep. TEX/TXP/TXB issue one
 * sampleQuad() per instruction to @p tex_handler (which may be null
 * only if the program has no texture instructions).
 */
void runQuad(const Program &program, QuadState &quad,
             TextureSampleHandler *tex_handler);

} // namespace wc3d::shader

#endif // WC3D_SHADER_INTERP_HH
