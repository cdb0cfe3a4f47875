/**
 * @file
 * Shader interpreter. Vertices execute one lane at a time; fragments
 * execute as 2x2 quads in lockstep, which is what lets the texture unit
 * compute level-of-detail from coordinate differences between quad lanes
 * (the mechanism behind the paper's bilinear/aniso accounting) and what
 * makes quads "the working unit of the subsequent GPU pipeline stages".
 */

#ifndef WC3D_SHADER_INTERP_HH
#define WC3D_SHADER_INTERP_HH

#include <cstddef>
#include <cstdint>

#include "common/vecmath.hh"
#include "shader/program.hh"

namespace wc3d::shader {

class DecodedProgram;

namespace jit {
class JitProgram;
}

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

/** Register state for a 2x2 fragment quad (lane order: x-major). */
struct QuadState
{
    LaneState lanes[4];
    /** Rasterizer coverage per lane; uncovered (helper) lanes still
     *  execute but their results are discarded downstream. */
    bool covered[4] = {false, false, false, false};
};

/** Dynamic execution statistics accumulated by an Interpreter. */
struct InterpStats
{
    std::uint64_t programsRun = 0;       ///< lane-invocations completed
    std::uint64_t instructionsExecuted = 0;
    std::uint64_t textureInstructions = 0;
    std::uint64_t killsTaken = 0;        ///< lanes killed by KIL

    std::uint64_t
    aluInstructions() const
    {
        return instructionsExecuted - textureInstructions;
    }
};

/**
 * Executes shader programs. Stateless between runs apart from the
 * accumulated statistics.
 *
 * run()/runQuad()/runQuads() execute the program's native x86-64 JIT
 * kernel when one is available (shader/jit/jit.hh; enabled by default
 * on x86-64 hosts, WC3D_JIT=0 to disable) and otherwise the program's
 * pre-decoded form (shader/decoded.hh), triggering the compile/decode
 * lazily on first use. Both produce bit-identical register state and
 * statistics; the decoded path is the JIT's differential oracle. The
 * runLegacy()/runQuadLegacy() entry points execute the original
 * field-by-field interpreter over shader::Instruction; they are kept as
 * the bit-exact reference for differential tests and as the baseline
 * in the bench_interp microbenchmark.
 */
class Interpreter
{
  public:
    /**
     * Run @p program on a single lane (vertex shading).
     * Texture instructions are not allowed in single-lane mode.
     */
    void run(const Program &program, LaneState &lane);

    /**
     * Run @p program on a quad in lockstep. TEX/TXP/TXB issue one
     * sampleQuad() per instruction to @p tex_handler (which may be null
     * only if the program has no texture instructions).
     *
     * Instruction statistics are charged for covered lanes only: helper
     * lanes execute for derivative correctness but the paper's
     * instruction counts are per shaded fragment.
     */
    void runQuad(const Program &program, QuadState &quad,
                 TextureSampleHandler *tex_handler);

    /**
     * Run @p program on @p count quads back to back, amortizing the
     * decode lookup and per-entry setup over the whole batch. Exactly
     * equivalent to calling runQuad() on each quad in index order
     * (including the order of sampleQuad() calls and all statistics).
     */
    void runQuads(const Program &program, QuadState *quads,
                  std::size_t count, TextureSampleHandler *tex_handler);

    /** Reference single-lane interpreter (pre-decode-free). */
    void runLegacy(const Program &program, LaneState &lane);

    /** Reference quad interpreter (pre-decode-free). */
    void runQuadLegacy(const Program &program, QuadState &quad,
                       TextureSampleHandler *tex_handler);

    const InterpStats &stats() const { return _stats; }
    void resetStats() { _stats = InterpStats(); }

  private:
    void runQuadDecoded(const Program &program, const DecodedProgram &dec,
                        QuadState &quad, TextureSampleHandler *tex_handler);
    void runQuadsJit(const Program &program, const jit::JitProgram &jp,
                     QuadState *quads, std::size_t count,
                     TextureSampleHandler *tex_handler);

    InterpStats _stats;
};

} // namespace wc3d::shader

#endif // WC3D_SHADER_INTERP_HH
