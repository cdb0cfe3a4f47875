/**
 * @file
 * Shader-interpreter microbenchmark: the three executors (legacy
 * field-by-field reference, pre-decoded interpreter, native JIT) on the
 * three profiles the simulated games stress.
 *
 *  - Vertex:   ut2004/primeval's vertex program (Table IV, 23
 *              instructions), one lane per iteration.
 *  - Fragment: the ALU body of a doom3/trdemo2-sized fragment program
 *              (Table XII, 13 instructions, no texture slots), one
 *              256-quad batch per iteration.
 *  - Texture:  the same program with 4 texture lookups against a
 *              constant-cost sampler stub, so the interpreter's work
 *              around sampling is measured, not the sampler.
 *
 * The programs are the ones workloads/shadersynth emits for the games,
 * and the inputs come from a fixed-seed xorshift, so every run executes
 * the same float stream. JIT cases are skipped with a message on hosts
 * that cannot run the JIT. A microbench ratio says nothing about a
 * timedemo on its own; bench/e2e is the end-to-end measurement.
 *
 *     build/bench/bench_interp [--benchmark_filter=Fragment]
 */

#include <cstdio>
#include <vector>

#include "bench_common.hh"
#include "common/log.hh"
#include "shader/assemble.hh"
#include "shader/decoded.hh"
#include "shader/interp.hh"
#include "shader/jit/jit.hh"
#include "workloads/shadersynth.hh"

using namespace wc3d;

namespace {

enum class Executor
{
    Legacy,
    Decoded,
    Jit,
};

/** Fixed-seed generator for reproducible bench inputs. */
struct XorShift
{
    std::uint64_t s = 0x9e3779b97f4a7c15ull;

    float
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return static_cast<float>((s >> 40) & 0xffff) / 65536.0f;
    }

    Vec4
    nextVec4(float lo, float hi)
    {
        float span = hi - lo;
        return {lo + span * next(), lo + span * next(),
                lo + span * next(), lo + span * next()};
    }
};

/** Assemble a synthesized program, aborting the bench on failure. */
shader::Program
synthProgram(const std::string &text, shader::ProgramKind kind)
{
    shader::AssembleResult res = shader::assemble(text, kind);
    WC3D_ASSERT(res.ok && "interpreter bench program failed to assemble");
    return res.program;
}

shader::Program
vertexProgram()
{
    shader::Program p = synthProgram(workloads::synthVertexProgram(23),
                                     shader::ProgramKind::Vertex);
    p.setConstant(0, {1.0f, 0.0f, 0.0f, 0.2f});
    p.setConstant(1, {0.0f, 1.0f, 0.0f, -0.1f});
    p.setConstant(2, {0.0f, 0.0f, 1.0f, 0.4f});
    p.setConstant(3, {0.0f, 0.0f, 0.1f, 1.0f});
    return p;
}

shader::Program
fragmentProgram(int tex_instructions)
{
    workloads::FragmentSpec spec;
    spec.totalInstructions = 13;
    spec.texInstructions = tex_instructions;
    if (tex_instructions > 0)
        spec.uvScale = 1.5f;
    return synthProgram(workloads::synthFragmentProgram(spec),
                        shader::ProgramKind::Fragment);
}

/** Constant-cost texture stub (see the file comment). */
class StubTexture : public shader::TextureSampleHandler
{
  public:
    void
    sampleQuad(int sampler, const Vec4 coords[4], float lod_bias,
               Vec4 out[4]) override
    {
        float s = static_cast<float>(sampler) + lod_bias;
        for (int l = 0; l < 4; ++l)
            out[l] = {coords[l].x, coords[l].y, s, 1.0f};
    }
};

/**
 * Pin the executor behind Interpreter::run()/runQuads() for one case:
 * run() dispatches to the JIT whenever it is enabled, so the decoded
 * case must turn it off. @return false (and skip the case) when the
 * JIT is asked for on a host that cannot run it.
 */
bool
selectExecutor(benchmark::State &state, Executor exec)
{
    if (exec == Executor::Jit && !shader::jit::available()) {
        state.SkipWithError("shader JIT unavailable on this host");
        return false;
    }
    shader::jit::setEnabled(exec == Executor::Jit);
    return true;
}

/** Per-vertex shading as the simulator runs it: fresh zeroed LaneState
 *  for legacy, one arena lane reset through prepareLane() otherwise.
 *  Synth vertex inputs: v0 position, v1 normal, v2 uv, v3 colour. */
void
Vertex(benchmark::State &state, Executor exec)
{
    if (!selectExecutor(state, exec))
        return;
    shader::Program program = vertexProgram();
    const shader::DecodedProgram &dec = program.decoded();
    shader::Interpreter interp;
    XorShift rng{0xabcdef01ull};
    Vec4 inputs[4] = {rng.nextVec4(-10.0f, 10.0f), rng.nextVec4(-1.0f, 1.0f),
                      rng.nextVec4(0.0f, 4.0f), rng.nextVec4(0.0f, 1.0f)};
    inputs[0].w = 1.0f;
    shader::LaneState arena;
    for (auto _ : state) {
        if (exec == Executor::Legacy) {
            shader::LaneState lane;
            for (int i = 0; i < 4; ++i)
                lane.inputs[i] = inputs[i];
            interp.runLegacy(program, lane);
            benchmark::DoNotOptimize(lane.outputs[0]);
        } else {
            dec.prepareLane(arena);
            for (int i = 0; i < 4; ++i)
                arena.inputs[i] = inputs[i];
            interp.run(program, arena);
            benchmark::DoNotOptimize(arena.outputs[0]);
        }
    }
    state.SetItemsProcessed(state.iterations());
    shader::jit::resetFromEnv();
}

constexpr std::size_t kQuadBatchSize = 256;

/** Fixed-seed per-quad varyings: 4 lanes x (v0 uv, v1 colour), the
 *  synth fragment contract. */
struct QuadSeed
{
    Vec4 in[4][2];
};

/** Per-quad shading: a fresh zeroed QuadState per quad for legacy; an
 *  arena reset through prepareLane() and one batched runQuads() entry
 *  otherwise. */
void
runQuadCase(benchmark::State &state, Executor exec,
            const shader::Program &program,
            shader::TextureSampleHandler *tex)
{
    if (!selectExecutor(state, exec))
        return;
    const shader::DecodedProgram &dec = program.decoded();
    shader::Interpreter interp;
    std::vector<QuadSeed> seeds(kQuadBatchSize);
    XorShift rng{0x5eed5eedull};
    for (QuadSeed &q : seeds) {
        for (int l = 0; l < 4; ++l) {
            q.in[l][0] = rng.nextVec4(0.0f, 4.0f);
            q.in[l][1] = rng.nextVec4(0.0f, 1.0f);
        }
    }
    std::vector<shader::QuadState> arena(kQuadBatchSize);
    for (shader::QuadState &qs : arena) {
        for (int l = 0; l < 4; ++l)
            qs.covered[l] = true;
    }
    for (auto _ : state) {
        if (exec == Executor::Legacy) {
            for (const QuadSeed &seed : seeds) {
                shader::QuadState qs;
                for (int l = 0; l < 4; ++l) {
                    qs.covered[l] = true;
                    for (int i = 0; i < 2; ++i)
                        qs.lanes[l].inputs[i] = seed.in[l][i];
                }
                interp.runQuadLegacy(program, qs, tex);
                benchmark::DoNotOptimize(qs.lanes[0].outputs[0]);
            }
        } else {
            for (std::size_t q = 0; q < seeds.size(); ++q) {
                for (int l = 0; l < 4; ++l) {
                    dec.prepareLane(arena[q].lanes[l]);
                    for (int i = 0; i < 2; ++i)
                        arena[q].lanes[l].inputs[i] = seeds[q].in[l][i];
                }
            }
            interp.runQuads(program, arena.data(), arena.size(), tex);
            benchmark::DoNotOptimize(arena[0].lanes[0].outputs[0]);
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kQuadBatchSize));
    shader::jit::resetFromEnv();
}

void
Fragment(benchmark::State &state, Executor exec)
{
    runQuadCase(state, exec, fragmentProgram(0), nullptr);
}

void
Texture(benchmark::State &state, Executor exec)
{
    StubTexture tex;
    runQuadCase(state, exec, fragmentProgram(4), &tex);
}

void
printHeader()
{
    std::printf("shader JIT: %s\n", shader::jit::available()
                                        ? "available"
                                        : "unavailable (JIT cases skip)");
}

} // namespace

BENCHMARK_CAPTURE(Vertex, legacy, Executor::Legacy);
BENCHMARK_CAPTURE(Vertex, decoded, Executor::Decoded);
BENCHMARK_CAPTURE(Vertex, jit, Executor::Jit);
BENCHMARK_CAPTURE(Fragment, legacy, Executor::Legacy);
BENCHMARK_CAPTURE(Fragment, decoded, Executor::Decoded);
BENCHMARK_CAPTURE(Fragment, jit, Executor::Jit);
BENCHMARK_CAPTURE(Texture, legacy, Executor::Legacy);
BENCHMARK_CAPTURE(Texture, decoded, Executor::Decoded);
BENCHMARK_CAPTURE(Texture, jit, Executor::Jit);

WC3D_BENCH_MAIN(printHeader)
