/**
 * @file
 * Simulation-speed benchmark: wall-clock performance of the simulator
 * itself (not statistic extraction).
 *
 * Two sections, both persisted into WC3D_BENCH_JSON (default
 * BENCH_speed.json):
 *
 * 1. "speed_simulation" — cold-cache thread-count sweep (1, 2, 4, N)
 *    of the heaviest simulated game, measuring pure scaling of the
 *    parallel engine. The engine is deterministic (statistics are
 *    bit-identical at every thread count — tests/test_parallel.cc), so
 *    the sweep times the same work at every point.
 *
 * 2. "hotpath" — single-thread speed of the per-draw inner loops.
 *    (a) Fixed single-thread cold-cache timedemos of the three
 *    simulated games, measured separately because their bottlenecks
 *    differ: ut2004/primeval is vertex-shading-heavy, doom3/trdemo2
 *    fragment-shading-heavy and quake4/demo4 texture-heavy. (b)
 *    Interpreter micro-benchmarks comparing the pre-decoded execution
 *    paths (run/runQuads, shader/decoded.hh) against the retained
 *    legacy reference (runLegacy/runQuadLegacy) on representative
 *    synthetic programs. The resulting decoded-vs-legacy speedup is a
 *    ratio of two measurements from the same binary on the same host,
 *    so it is machine-independent; examples/bench_gate.cpp gates on it.
 *    On x86-64 hosts a third timing runs the same programs through the
 *    native shader JIT (shader/jit/); the jit-vs-decoded ratio lands in
 *    the same "interp" block (jit_seconds / speedup_vs_decoded) and is
 *    gated by WC3D_GATE_MIN_JIT_SPEEDUP.
 *
 * All wall times use bench::stableSeconds (warm-up + min-of-3; see
 * bench_common.hh). Environment: WC3D_SPEED_FRAMES (default 2) and
 * WC3D_SPEED_RES ("WxH", default 512x384) size the simulation runs;
 * WC3D_BENCH_WARMUP / WC3D_BENCH_REPS tune measurement hygiene.
 */

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/log.hh"
#include "common/threadpool.hh"
#include "shader/assemble.hh"
#include "shader/decoded.hh"
#include "shader/interp.hh"
#include "shader/jit/jit.hh"
#include "workloads/shadersynth.hh"

using namespace wc3d;
using namespace wc3d::core;

namespace {

/** The game timed by the thread sweep (heaviest shading of the three). */
constexpr const char *kSweepGameId = "doom3/trdemo2";

int
speedFrames()
{
    return envInt("WC3D_SPEED_FRAMES", 2);
}

void
speedResolution(int &width, int &height)
{
    std::string res = envString("WC3D_SPEED_RES", "512x384");
    width = 512;
    height = 384;
    std::sscanf(res.c_str(), "%dx%d", &width, &height);
}

/** Thread counts to sweep: 1, 2, 4 and N (deduplicated, ascending). */
std::vector<int>
sweepThreadCounts()
{
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    std::vector<int> counts = {1, 2, 4, std::max(hw, 1)};
    std::sort(counts.begin(), counts.end());
    counts.erase(std::unique(counts.begin(), counts.end()),
                 counts.end());
    return counts;
}

/** One cold-cache simulation of @p game at @p threads; min-of-3 seconds. */
double
coldRunSeconds(const char *game, int threads)
{
    int width, height;
    speedResolution(width, height);
    ThreadPool::setGlobalThreads(threads);
    double seconds = bench::stableSeconds([&] {
        MicroRun run = runMicroarch(game, speedFrames(), width, height,
                                    /*allow_cache=*/false);
        benchmark::DoNotOptimize(run.counters.rasterFragments);
    });
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
    return seconds;
}

/** One sweep point, measured once per process and reused everywhere. */
struct SweepPoint
{
    int threads = 1;
    double seconds = 0.0;
};

const std::vector<SweepPoint> &
sweepResults()
{
    static const std::vector<SweepPoint> kResults = [] {
        std::vector<SweepPoint> points;
        for (int threads : sweepThreadCounts())
            points.push_back({threads,
                              coldRunSeconds(kSweepGameId, threads)});
        return points;
    }();
    return kResults;
}

void
SimulationSpeed(benchmark::State &state)
{
    // Reports the memoized sweep measurement (already warm-up +
    // min-of-3); re-simulating per benchmark phase would multiply the
    // binary's cost without adding information.
    int threads = static_cast<int>(state.range(0));
    double base = 0.0;
    double seconds = 0.0;
    for (const SweepPoint &p : sweepResults()) {
        if (p.threads == 1)
            base = p.seconds;
        if (p.threads == threads)
            seconds = p.seconds;
    }
    for (auto _ : state)
        state.SetIterationTime(seconds);
    state.counters["threads"] = threads;
    state.counters["frames_per_sec"] =
        seconds > 0.0 ? speedFrames() / seconds : 0.0;
    state.counters["speedup_vs_1t"] = seconds > 0.0 ? base / seconds : 0.0;
}

/** Previously recorded sweep seconds for @p threads (0 when absent). */
double
previousSweepSeconds(const json::Value &doc, int threads)
{
    const json::Value *speed = doc.find("speed_simulation");
    const json::Value *sweep = speed ? speed->find("sweep") : nullptr;
    if (!sweep || !sweep->isArray())
        return 0.0;
    for (const json::Value &entry : sweep->items()) {
        const json::Value *t = entry.find("threads");
        const json::Value *s = entry.find("seconds");
        if (t && s && t->asI64() == threads)
            return s->asDouble();
    }
    return 0.0;
}

void
printSweep()
{
    int width, height;
    speedResolution(width, height);
    json::Value doc = bench::loadBenchJson();
    std::printf("\n=== Simulation speed (%s, %d frames at %dx%d, "
                "cold cache) ===\n",
                kSweepGameId, speedFrames(), width, height);
    std::printf("%8s %12s %12s %10s %12s\n", "threads", "seconds",
                "frames/sec", "speedup", "previous");
    double base = 0.0;
    json::Value sweep = json::Value::array();
    for (const SweepPoint &point : sweepResults()) {
        double seconds = point.seconds;
        if (point.threads == 1)
            base = seconds;
        double prev = previousSweepSeconds(doc, point.threads);
        if (prev > 0.0) {
            std::printf("%8d %12.3f %12.3f %9.2fx %11.3fs\n",
                        point.threads, seconds,
                        seconds > 0.0 ? speedFrames() / seconds : 0.0,
                        seconds > 0.0 && base > 0.0 ? base / seconds
                                                    : 0.0,
                        prev);
        } else {
            std::printf("%8d %12.3f %12.3f %9.2fx %12s\n",
                        point.threads, seconds,
                        seconds > 0.0 ? speedFrames() / seconds : 0.0,
                        seconds > 0.0 && base > 0.0 ? base / seconds
                                                    : 0.0,
                        "-");
        }
        json::Value entry = json::Value::object();
        entry.set("threads", json::Value::number(point.threads));
        entry.set("seconds", json::Value::number(seconds));
        entry.set("frames_per_sec",
                  json::Value::number(
                      seconds > 0.0 ? speedFrames() / seconds : 0.0));
        // Hardware threads of the measuring host, recorded per entry so
        // the parallel-speedup gate can tell a genuine scaling
        // regression from a sweep taken on a small machine (where >1
        // simulation threads merely time-slice one core).
        int host_threads = static_cast<int>(
            std::max(1u, std::thread::hardware_concurrency()));
        entry.set("host_threads", json::Value::number(host_threads));
        // A sweep point asking for more simulation threads than the
        // host has cores never measures real scaling — the workers just
        // time-slice. Mark it so downstream gates can skip it.
        if (point.threads > host_threads)
            entry.set("oversubscribed", json::Value::boolean(true));
        sweep.push(std::move(entry));
    }
    json::Value speed = json::Value::object();
    speed.set("game", json::Value::str(kSweepGameId));
    speed.set("frames", json::Value::number(speedFrames()));
    speed.set("width", json::Value::number(width));
    speed.set("height", json::Value::number(height));
    speed.set("sweep", std::move(sweep));
    doc.set("speed_simulation", std::move(speed));
    doc.set("host", bench::hostFingerprint());
    bench::storeBenchJson(doc);
    std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Hot-path section (a): single-thread timedemos per workload profile.
// ---------------------------------------------------------------------

struct HotGame
{
    const char *id;
    const char *profile; ///< which hot loop dominates this timedemo
};

constexpr HotGame kHotGames[] = {
    {"ut2004/primeval", "vertex"},
    {"doom3/trdemo2", "fragment"},
    {"quake4/demo4", "texture"},
};

const std::vector<double> &
hotTimedemoResults()
{
    static const std::vector<double> kSeconds = [] {
        std::vector<double> seconds;
        for (const HotGame &game : kHotGames)
            seconds.push_back(coldRunSeconds(game.id, 1));
        return seconds;
    }();
    return kSeconds;
}

// ---------------------------------------------------------------------
// Hot-path section (b): decoded-vs-legacy interpreter micro-benchmarks.
//
// The measured programs are the *exact* programs the workload
// synthesizer (workloads/shadersynth.cc) emits for the simulated
// games, at the instruction counts the games report: what the
// simulator's inner loops actually execute, not hand-tuned stand-ins.
// Inputs come from a fixed-seed xorshift so every run executes the
// identical float stream.
// ---------------------------------------------------------------------

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
    WC3D_ASSERT(res.ok && "hot-path bench program failed to assemble");
    return res.program;
}

/**
 * The vertex program the workload synthesizer emits at ut2004/primeval's
 * static count (Table IV: 23 instructions), with an MVP bound.
 */
shader::Program
hotVertexProgram()
{
    shader::Program p = synthProgram(workloads::synthVertexProgram(23),
                                     shader::ProgramKind::Vertex);
    p.setConstant(0, {1.0f, 0.0f, 0.0f, 0.2f});
    p.setConstant(1, {0.0f, 1.0f, 0.0f, -0.1f});
    p.setConstant(2, {0.0f, 0.0f, 1.0f, 0.4f});
    p.setConstant(3, {0.0f, 0.0f, 0.1f, 1.0f});
    return p;
}

/**
 * The ALU body of a doom3/trdemo2-sized fragment program (Table XII:
 * ~13 instructions) with the texture slots left out, isolating the
 * quad ALU hot loop.
 */
shader::Program
hotFragmentProgram()
{
    workloads::FragmentSpec spec;
    spec.totalInstructions = 13;
    spec.texInstructions = 0;
    return synthProgram(workloads::synthFragmentProgram(spec),
                        shader::ProgramKind::Fragment);
}

/**
 * A doom3/trdemo2-mix fragment program (13 instructions, 4 texture
 * lookups): the interpreter's work *around* sampling dominates, the
 * sampler itself is stubbed.
 */
shader::Program
hotTextureProgram()
{
    workloads::FragmentSpec spec;
    spec.totalInstructions = 13;
    spec.texInstructions = 4;
    spec.uvScale = 1.5f;
    return synthProgram(workloads::synthFragmentProgram(spec),
                        shader::ProgramKind::Fragment);
}

/**
 * Constant-cost texture stub: the micro-benchmark measures interpreter
 * overhead around sampling, not the sampler itself (the timedemos
 * above cover the real texture unit).
 */
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

/** One legacy/decoded/JIT measurement triple. jitSeconds stays 0 on
 *  hosts where the JIT is unavailable. */
struct InterpBenchResult
{
    double decodedSeconds = 0.0;
    double legacySeconds = 0.0;
    double jitSeconds = 0.0;

    double
    speedup() const
    {
        return decodedSeconds > 0.0 ? legacySeconds / decodedSeconds
                                    : 0.0;
    }

    double
    jitSpeedup() const
    {
        return jitSeconds > 0.0 ? decodedSeconds / jitSeconds : 0.0;
    }
};

/** Lane runs per vertex measurement / batch passes per quad one. */
constexpr int kVertexLaneRuns = 60000;
constexpr int kQuadBatchSize = 256;
constexpr int kFragmentBatchPasses = 120;
constexpr int kTextureBatchPasses = 90;

/**
 * Vertex hot path, per-vertex shading step as the simulator executes
 * it. Legacy shape (the seed's): construct a fresh zero-initialized
 * LaneState per vertex, write the attributes, interpret field-by-field.
 * Overhauled shape: one arena LaneState reset through the decode-time
 * clear plan (DecodedProgram::prepareLane), pre-decoded interpretation.
 */
InterpBenchResult
measureVertexInterp()
{
    shader::Program program = hotVertexProgram();
    const shader::DecodedProgram &dec = program.decoded();
    shader::Interpreter interp;
    // Synth vertex register contract: v0 position, v1 normal, v2 uv,
    // v3 colour.
    XorShift rng{0xabcdef01ull};
    Vec4 position = rng.nextVec4(-10.0f, 10.0f);
    position.w = 1.0f;
    Vec4 normal = rng.nextVec4(-1.0f, 1.0f);
    Vec4 texcoord = rng.nextVec4(0.0f, 4.0f);
    Vec4 colour = rng.nextVec4(0.0f, 1.0f);
    InterpBenchResult r;
    r.legacySeconds = bench::stableSeconds([&] {
        for (int i = 0; i < kVertexLaneRuns; ++i) {
            shader::LaneState lane;
            lane.inputs[0] = position;
            lane.inputs[1] = normal;
            lane.inputs[2] = texcoord;
            lane.inputs[3] = colour;
            interp.runLegacy(program, lane);
            benchmark::DoNotOptimize(lane.outputs[0]);
        }
    });
    // run() dispatches to the JIT whenever it is enabled, so the
    // decoded timing must pin it off — otherwise decoded and JIT would
    // time the identical native kernel and the ratio would read 1.0.
    shader::jit::setEnabled(false);
    r.decodedSeconds = bench::stableSeconds([&] {
        shader::LaneState lane;
        for (int i = 0; i < kVertexLaneRuns; ++i) {
            dec.prepareLane(lane);
            lane.inputs[0] = position;
            lane.inputs[1] = normal;
            lane.inputs[2] = texcoord;
            lane.inputs[3] = colour;
            interp.run(program, lane);
            benchmark::DoNotOptimize(lane.outputs[0]);
        }
    });
    if (shader::jit::available()) {
        shader::jit::setEnabled(true);
        r.jitSeconds = bench::stableSeconds([&] {
            shader::LaneState lane;
            for (int i = 0; i < kVertexLaneRuns; ++i) {
                dec.prepareLane(lane);
                lane.inputs[0] = position;
                lane.inputs[1] = normal;
                lane.inputs[2] = texcoord;
                lane.inputs[3] = colour;
                interp.run(program, lane);
                benchmark::DoNotOptimize(lane.outputs[0]);
            }
        });
    }
    shader::jit::resetFromEnv();
    return r;
}

/** Fixed-seed per-quad varyings (4 lanes x 2 fragment input slots:
 *  v0 uv, v1 interpolated colour — the synth fragment contract). */
struct QuadSeed
{
    Vec4 in[4][2];
};

std::vector<QuadSeed>
makeQuadSeeds(std::uint64_t seed)
{
    std::vector<QuadSeed> seeds(kQuadBatchSize);
    XorShift rng{seed};
    for (QuadSeed &q : seeds) {
        for (int l = 0; l < 4; ++l) {
            q.in[l][0] = rng.nextVec4(0.0f, 4.0f); // uv
            q.in[l][1] = rng.nextVec4(0.0f, 1.0f); // colour
        }
    }
    return seeds;
}

/**
 * Fragment hot path, per-quad shading step. Legacy shape (the seed's):
 * fresh zero-initialized QuadState per quad (~2.6 KB), write the
 * varyings, one field-decoded interpreter entry per quad. Overhauled
 * shape: QuadStates reset through the decode-time clear plan, varyings
 * written, then one batched pre-decoded runQuads() entry for the whole
 * arena. The simulator's tile workers reuse one QuadState and shade
 * each quad through runQuad(), so this measures the interpreter's
 * per-quad cost without the per-entry overhead.
 */
InterpBenchResult
measureQuadInterp(const shader::Program &program, int passes,
                  shader::TextureSampleHandler *tex)
{
    const shader::DecodedProgram &dec = program.decoded();
    shader::Interpreter interp;
    std::vector<QuadSeed> seeds = makeQuadSeeds(0x5eed5eedull);
    InterpBenchResult r;
    r.legacySeconds = bench::stableSeconds([&] {
        for (int pass = 0; pass < passes; ++pass) {
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
        }
    });
    // The arena persists across draws in the simulator, so its
    // allocation sits outside the timed region.
    std::vector<shader::QuadState> arena(kQuadBatchSize);
    for (shader::QuadState &qs : arena) {
        for (int l = 0; l < 4; ++l)
            qs.covered[l] = true;
    }
    auto quadPass = [&] {
        for (int pass = 0; pass < passes; ++pass) {
            for (std::size_t q = 0; q < seeds.size(); ++q) {
                shader::QuadState &qs = arena[q];
                for (int l = 0; l < 4; ++l) {
                    dec.prepareLane(qs.lanes[l]);
                    for (int i = 0; i < 2; ++i)
                        qs.lanes[l].inputs[i] = seeds[q].in[l][i];
                }
            }
            interp.runQuads(program, arena.data(), arena.size(), tex);
            benchmark::DoNotOptimize(arena[0].lanes[0].outputs[0]);
        }
    };
    // Pin the JIT off for the decoded timing (see measureVertexInterp).
    shader::jit::setEnabled(false);
    r.decodedSeconds = bench::stableSeconds(quadPass);
    if (shader::jit::available()) {
        shader::jit::setEnabled(true);
        r.jitSeconds = bench::stableSeconds(quadPass);
    }
    shader::jit::resetFromEnv();
    return r;
}

/** The three micro-bench results, computed once per process. */
const std::vector<InterpBenchResult> &
hotInterpResults()
{
    static const std::vector<InterpBenchResult> kResults = [] {
        StubTexture tex;
        std::vector<InterpBenchResult> results;
        results.push_back(measureVertexInterp());
        results.push_back(measureQuadInterp(hotFragmentProgram(),
                                            kFragmentBatchPasses,
                                            nullptr));
        results.push_back(measureQuadInterp(hotTextureProgram(),
                                            kTextureBatchPasses, &tex));
        return results;
    }();
    return kResults;
}

/** Previously recorded timedemo seconds for @p id (0 when absent). */
double
previousTimedemoSeconds(const json::Value &doc, const char *id)
{
    const json::Value *hot = doc.find("hotpath");
    const json::Value *demos = hot ? hot->find("timedemos") : nullptr;
    if (!demos || !demos->isArray())
        return 0.0;
    for (const json::Value &entry : demos->items()) {
        const json::Value *game = entry.find("id");
        const json::Value *s = entry.find("seconds");
        if (game && s && game->asString() == id)
            return s->asDouble();
    }
    return 0.0;
}

void
printHotPath()
{
    int width, height;
    speedResolution(width, height);
    json::Value doc = bench::loadBenchJson();

    std::printf("\n=== Hot path: single-thread timedemos "
                "(%d frames at %dx%d, cold cache) ===\n",
                speedFrames(), width, height);
    std::printf("%-18s %-10s %12s %12s %12s\n", "game", "profile",
                "seconds", "frames/sec", "previous");
    const std::vector<double> &demo_seconds = hotTimedemoResults();
    json::Value demos = json::Value::array();
    for (std::size_t i = 0; i < std::size(kHotGames); ++i) {
        const HotGame &game = kHotGames[i];
        double seconds = demo_seconds[i];
        double prev = previousTimedemoSeconds(doc, game.id);
        if (prev > 0.0) {
            std::printf("%-18s %-10s %12.3f %12.3f %11.3fs\n", game.id,
                        game.profile, seconds,
                        seconds > 0.0 ? speedFrames() / seconds : 0.0,
                        prev);
        } else {
            std::printf("%-18s %-10s %12.3f %12.3f %12s\n", game.id,
                        game.profile, seconds,
                        seconds > 0.0 ? speedFrames() / seconds : 0.0,
                        "-");
        }
        json::Value entry = json::Value::object();
        entry.set("id", json::Value::str(game.id));
        entry.set("profile", json::Value::str(game.profile));
        entry.set("seconds", json::Value::number(seconds));
        entry.set("frames_per_sec",
                  json::Value::number(
                      seconds > 0.0 ? speedFrames() / seconds : 0.0));
        demos.push(std::move(entry));
    }

    std::printf("\n=== Hot path: interpreter, legacy vs decoded vs jit "
                "(jit %s) ===\n",
                shader::jit::available() ? "available" : "unavailable");
    std::printf("%-10s %14s %14s %10s %12s %12s\n", "profile",
                "legacy (s)", "decoded (s)", "speedup", "jit (s)",
                "jit speedup");
    const std::vector<InterpBenchResult> &interp = hotInterpResults();
    json::Value interp_doc = json::Value::object();
    interp_doc.set("jit_available",
                   json::Value::boolean(shader::jit::available()));
    for (std::size_t i = 0; i < std::size(kHotGames); ++i) {
        const InterpBenchResult &r = interp[i];
        if (r.jitSeconds > 0.0) {
            std::printf("%-10s %14.4f %14.4f %9.2fx %12.4f %11.2fx\n",
                        kHotGames[i].profile, r.legacySeconds,
                        r.decodedSeconds, r.speedup(), r.jitSeconds,
                        r.jitSpeedup());
        } else {
            std::printf("%-10s %14.4f %14.4f %9.2fx %12s %12s\n",
                        kHotGames[i].profile, r.legacySeconds,
                        r.decodedSeconds, r.speedup(), "-", "-");
        }
        json::Value entry = json::Value::object();
        entry.set("legacy_seconds",
                  json::Value::number(r.legacySeconds));
        entry.set("decoded_seconds",
                  json::Value::number(r.decodedSeconds));
        entry.set("speedup", json::Value::number(r.speedup()));
        if (r.jitSeconds > 0.0) {
            entry.set("jit_seconds", json::Value::number(r.jitSeconds));
            entry.set("speedup_vs_decoded",
                      json::Value::number(r.jitSpeedup()));
        }
        interp_doc.set(kHotGames[i].profile, std::move(entry));
    }

    json::Value hot = json::Value::object();
    hot.set("frames", json::Value::number(speedFrames()));
    hot.set("width", json::Value::number(width));
    hot.set("height", json::Value::number(height));
    hot.set("timedemos", std::move(demos));
    hot.set("interp", std::move(interp_doc));
    doc.set("hotpath", std::move(hot));
    doc.set("host", bench::hostFingerprint());
    bench::storeBenchJson(doc);
    std::fflush(stdout);
}

void
printSpeed()
{
    printSweep();
    printHotPath();
}

void
HotPathTimedemo(benchmark::State &state)
{
    auto idx = static_cast<std::size_t>(state.range(0));
    double seconds = hotTimedemoResults()[idx];
    for (auto _ : state)
        state.SetIterationTime(seconds);
    state.SetLabel(kHotGames[idx].id);
    state.counters["frames_per_sec"] =
        seconds > 0.0 ? speedFrames() / seconds : 0.0;
}

void
HotPathInterp(benchmark::State &state)
{
    auto idx = static_cast<std::size_t>(state.range(0));
    const InterpBenchResult &r = hotInterpResults()[idx];
    for (auto _ : state)
        state.SetIterationTime(r.decodedSeconds);
    state.SetLabel(kHotGames[idx].profile);
    state.counters["legacy_seconds"] = r.legacySeconds;
    state.counters["speedup_vs_legacy"] = r.speedup();
    state.counters["jit_seconds"] = r.jitSeconds;
    state.counters["jit_speedup_vs_decoded"] = r.jitSpeedup();
}

} // namespace

BENCHMARK(SimulationSpeed)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(std::max(1u, std::thread::hardware_concurrency()))
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

BENCHMARK(HotPathTimedemo)
    ->DenseRange(0, 2)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

BENCHMARK(HotPathInterp)
    ->DenseRange(0, 2)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

WC3D_BENCH_MAIN(printSpeed)
