/**
 * @file
 * End-to-end benchmark: wall-clock of what a user runs, with every
 * simulated statistic checked against committed digests, and a traced
 * rep that breaks the time down by layer.
 *
 * The benchmark drives the simulator only through public functions:
 * workloads::Timedemo::setup / renderFrame on an api::Device, with a
 * gpu::GpuSimulator as the draw sink (the sequence of
 * core::runMicroarch, without its disk run cache). Each (workload, rep)
 * runs in a fresh child process, so modelled caches, heap, JIT code and
 * peak RSS are per run and every run is cold, as every user run is.
 * Reps go round-robin across the selected workloads, one child at a
 * time (closed loop), so host drift hits all workloads alike.
 *
 * Correctness: each demo's statistics are hashed (FNV-1a-64 over
 * core::encodeMicroRun, or over the ApiStats aggregates and series for
 * API-level runs). Every rep must match digests.json where it has the
 * demo's key (it holds the profiles' own scenes), all reps must agree,
 * and doom3-xga-1t must equal doom3-xga-4t (thread bit-identity).
 *
 * --trace DIR adds one rep per workload with a timing DrawSink and the
 * program's prof spans on, writes DIR/<workload>.trace.json, derives
 * span self-times from it, and runs the unit probes, whose input
 * streams come from --seed. --scene-seed S replaces every profile's
 * seed, which changes the work itself. See README.md for the metrics,
 * their bounds and the workloads they should move.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <poll.h>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "../bench_common.hh"
#include "common/fs.hh"
#include "common/json.hh"
#include "common/prof.hh"
#include "common/strutil.hh"
#include "common/threadpool.hh"
#include "core/runner.hh"
#include "gpu/simulator.hh"
#include "memory/cache.hh"
#include "texture/texcache.hh"
#include "workloads/games.hh"

extern char **environ;

using namespace wc3d;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** A child that runs longer than this is killed and counted failed. */
constexpr int kChildTimeoutSeconds = 300;

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/**
 * One benchmark workload. Why each exists (README.md has the table):
 * doom3-xga-1t is the headline single-thread number, dominated by tile
 * work; doom3-xga-4t is the same input where the serial merge dominates
 * and must hash identically; all12-qvga-4t spreads the same layers over
 * twelve shader/texture mixes with 10x less pixel work per draw;
 * api12-600f bypasses the simulator entirely.
 */
struct Workload
{
    const char *name;
    bool allDemos; ///< the twelve timedemos, else doom3/trdemo2 alone
    bool apiOnly;  ///< API level: no draw sink attached
    int threads;
    int frames;    ///< per demo
    int width;
    int height;
};

constexpr Workload kWorkloads[] = {
    {"doom3-xga-1t", false, false, 1, 1, 1024, 768},
    {"doom3-xga-4t", false, false, 4, 1, 1024, 768},
    {"all12-qvga-4t", true, false, 4, 1, 320, 240},
    {"api12-600f", true, true, 1, 600, 0, 0},
};

/** --smoke: the same workloads shrunk to seconds in total. */
Workload
smokeVariant(Workload w)
{
    w.frames = w.apiOnly ? 10 : 1;
    if (!w.apiOnly) {
        w.width = 64;
        w.height = 48;
    }
    return w;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

std::vector<std::string>
demoIds(const Workload &w)
{
    if (w.allDemos)
        return workloads::allTimedemoIds();
    return {"doom3/trdemo2"};
}

/** Digest key of one demo under @p w: everything its statistics
 *  depend on (the thread count deliberately excluded). */
std::string
digestKey(const Workload &w, const std::string &id, std::uint64_t scene_seed)
{
    std::string key =
        w.apiOnly ? format("%s api %df", id.c_str(), w.frames)
                  : format("%s %df %dx%d", id.c_str(), w.frames, w.width,
                           w.height);
    if (scene_seed != 0)
        key += format(" seed %llu", static_cast<unsigned long long>(scene_seed));
    return key;
}

std::string
describe(const Workload &w)
{
    std::string demos = w.allDemos ? "all 12 timedemos" : "doom3/trdemo2";
    if (w.apiOnly) {
        return format("%s, %d frames each, API level, %d thread",
                      demos.c_str(), w.frames, w.threads);
    }
    return format("%s, %d frame%s each at %dx%d, %d thread%s",
                  demos.c_str(), w.frames, w.frames == 1 ? "" : "s",
                  w.width, w.height, w.threads, w.threads == 1 ? "" : "s");
}

// ---------------------------------------------------------------------
// Statistic digests
// ---------------------------------------------------------------------

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    return format("%016llx", static_cast<unsigned long long>(v));
}

/** Canonical text of an API-level run: the aggregates plus the series. */
std::string
encodeApiStats(const api::ApiStats &s)
{
    std::string out = format(
        "frames=%llu\nbatches=%llu\nindices=%llu\nindexBytes=%llu\n"
        "stateCalls=%llu\n",
        static_cast<unsigned long long>(s.frames()),
        static_cast<unsigned long long>(s.batches()),
        static_cast<unsigned long long>(s.indices()),
        static_cast<unsigned long long>(s.indexBytes()),
        static_cast<unsigned long long>(s.stateCalls()));
    for (geom::PrimitiveType t :
         {geom::PrimitiveType::TriangleList, geom::PrimitiveType::TriangleStrip,
          geom::PrimitiveType::TriangleFan}) {
        out += format("prims%d=%llu\n", static_cast<int>(t),
                      static_cast<unsigned long long>(s.primitivesOfType(t)));
    }
    out += format("vsAvg=%.17g\nfsAvg=%.17g\nfsTexAvg=%.17g\n",
                  s.avgVertexShaderInstructions(),
                  s.avgFragmentInstructions(),
                  s.avgFragmentTexInstructions());
    out += s.series().toCsv();
    return out;
}

// ---------------------------------------------------------------------
// Child: one (workload, rep) run
// ---------------------------------------------------------------------

template <typename Fn>
void
timed(double &total, Fn &&fn)
{
    auto start = Clock::now();
    fn();
    total += secondsSince(start);
}

/** Forwards every call to the simulator and times it from outside. */
class TimingSink : public api::DrawSink
{
  public:
    explicit TimingSink(api::DrawSink &inner) : _inner(inner) {}

    void
    vertexBufferCreated(std::uint32_t id,
                        const api::VertexBufferData &data) override
    {
        timed(resourceS, [&] { _inner.vertexBufferCreated(id, data); });
    }
    void
    indexBufferCreated(std::uint32_t id,
                       const api::IndexBufferData &data) override
    {
        timed(resourceS, [&] { _inner.indexBufferCreated(id, data); });
    }
    void
    textureCreated(std::uint32_t id, tex::Texture2D &texture) override
    {
        timed(resourceS, [&] { _inner.textureCreated(id, texture); });
    }
    void
    programCreated(std::uint32_t id, const shader::Program &program) override
    {
        timed(resourceS, [&] { _inner.programCreated(id, program); });
    }
    void
    clear(const api::ClearCmd &cmd) override
    {
        timed(clearS, [&] { _inner.clear(cmd); });
    }
    void
    draw(const api::DrawCall &call) override
    {
        double d = 0.0;
        timed(d, [&] { _inner.draw(call); });
        drawTimes.push_back(d);
    }
    void
    endFrame() override
    {
        timed(endFrameS, [&] { _inner.endFrame(); });
    }

    double
    total() const
    {
        double draws = 0.0;
        for (double d : drawTimes)
            draws += d;
        return resourceS + clearS + endFrameS + draws;
    }

    double resourceS = 0.0;
    double clearS = 0.0;
    double endFrameS = 0.0;
    std::vector<double> drawTimes;

  private:
    api::DrawSink &_inner;
};

/** Simulated counts summed over a workload's demos. */
struct Counts
{
    gpu::PipelineCounters pipe;
    memsys::CacheStats z, color, texL0, texL1;
    std::uint64_t batches = 0;
    std::uint64_t stateCalls = 0;

    static void
    add(memsys::CacheStats &into, const memsys::CacheStats &s)
    {
        into.accesses += s.accesses;
        into.hits += s.hits;
        into.misses += s.misses;
        into.writebacks += s.writebacks;
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Nearest-rank quantile of @p v (sorted in place); 0 when empty. */
double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/** One demo wired as core::runMicroarch wires it: a fresh simulator
 *  (none at API level), the timing sink in front of it when traced,
 *  the device and the timedemo. */
struct DemoStack
{
    std::unique_ptr<gpu::GpuSimulator> sim;
    std::unique_ptr<TimingSink> timing;
    std::unique_ptr<api::Device> device;
    std::unique_ptr<workloads::Timedemo> demo;

    DemoStack(const Workload &w, const workloads::GameProfile &profile,
              bool traced)
    {
        if (!w.apiOnly) {
            gpu::GpuConfig config;
            config.width = w.width;
            config.height = w.height;
            sim = std::make_unique<gpu::GpuSimulator>(config);
            if (traced)
                timing = std::make_unique<TimingSink>(*sim);
        }
        device = std::make_unique<api::Device>(profile.apiKind);
        if (timing)
            device->setSink(timing.get());
        else
            device->setSink(sim.get());
        demo = std::make_unique<workloads::Timedemo>(profile);
    }
};

/**
 * Run workload @p w once in this process and print one JSON line:
 * times, per-demo digests and, when @p trace_path is set, the sink
 * timings and simulated counts of the traced rep. A non-zero
 * @p scene_seed replaces every profile's own seed.
 */
int
childMain(const Workload &w, std::uint64_t scene_seed,
          const std::string &trace_path)
{
    const bool traced = !trace_path.empty();
    ::unsetenv("WC3D_TRACE_OUT"); // tracing follows --trace only
    prof::setEnabled(traced);
    ThreadPool::setGlobalThreads(w.threads);

    double setup_s = 0.0, frame_s = 0.0, sink_frame_s = 0.0;
    std::vector<double> draw_times;
    double resource_s = 0.0, clear_s = 0.0, end_frame_s = 0.0;
    Counts counts;
    json::Value demos = json::Value::array();

    auto ids = demoIds(w);
    // One ~0.5 s set-up is too short to time on its own: a single-demo
    // workload sets up three fresh stacks, counts the median and
    // renders with the last.
    const int setups = ids.size() == 1 ? 3 : 1;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const std::string &id = ids[i];
        workloads::GameProfile profile = workloads::gameProfile(id);
        if (scene_seed != 0)
            profile.seed = scene_seed;
        prof::ScopedProcess process(static_cast<int>(i) + 1, id);

        std::unique_ptr<DemoStack> stack;
        std::vector<double> setup_samples;
        for (int s = 0; s < setups; ++s) {
            stack.reset();
            stack = std::make_unique<DemoStack>(w, profile, traced);
            double t = 0.0;
            timed(t, [&] {
                WC3D_PROF_SCOPE("timedemo.setup");
                stack->demo->setup(*stack->device);
            });
            setup_samples.push_back(t);
        }
        setup_s += quantile(setup_samples, 0.5);

        gpu::GpuSimulator *sim = stack->sim.get();
        TimingSink *timing = stack->timing.get();
        api::Device &device = *stack->device;
        double sink_before = timing ? timing->total() : 0.0;
        timed(frame_s, [&] {
            for (int f = 0; f < w.frames; ++f) {
                WC3D_PROF_SCOPE("frame", format("%d", f));
                stack->demo->renderFrame(device, f);
            }
        });

        std::string text;
        if (sim) {
            core::MicroRun run;
            run.id = id;
            run.frames = w.frames;
            run.width = w.width;
            run.height = w.height;
            run.counters = sim->counters();
            run.zCache = sim->zCacheStats();
            run.colorCache = sim->colorCacheStats();
            run.texL0 = sim->texL0Stats();
            run.texL1 = sim->texL1Stats();
            run.series = sim->frameSeries();
            text = core::encodeMicroRun(run);
            counts.pipe.add(run.counters);
            Counts::add(counts.z, run.zCache);
            Counts::add(counts.color, run.colorCache);
            Counts::add(counts.texL0, run.texL0);
            Counts::add(counts.texL1, run.texL1);
        } else {
            text = encodeApiStats(device.stats());
        }
        counts.batches += device.stats().batches();
        counts.stateCalls += device.stats().stateCalls();

        if (timing) {
            sink_frame_s += timing->total() - sink_before;
            resource_s += timing->resourceS;
            clear_s += timing->clearS;
            end_frame_s += timing->endFrameS;
            draw_times.insert(draw_times.end(), timing->drawTimes.begin(),
                              timing->drawTimes.end());
        }

        json::Value demo_doc = json::Value::object();
        demo_doc.set("key", json::Value::str(digestKey(w, id, scene_seed)));
        demo_doc.set("id", json::Value::str(id));
        demo_doc.set("digest", json::Value::str(hex64(fnv1a64(text))));
        demos.push(std::move(demo_doc));
    }

    json::Value out = json::Value::object();
    out.set("setup_s", json::Value::number(setup_s));
    out.set("frame_s", json::Value::number(frame_s));
    out.set("frames", json::Value::number(
                          static_cast<int>(ids.size()) * w.frames));
    out.set("demos", std::move(demos));

    if (traced) {
        std::string error;
        if (!prof::writeChromeTrace(trace_path, &error)) {
            std::fprintf(stderr, "bench_e2e: %s\n", error.c_str());
            return 1;
        }
        const gpu::PipelineCounters &c = counts.pipe;
        double draw_s = 0.0;
        for (double d : draw_times)
            draw_s += d;
        std::size_t draw_count = draw_times.size();
        double p50 = quantile(draw_times, 0.50);
        double p98 = quantile(draw_times, 0.98);
        auto num = [](double v) { return json::Value::number(v); };
        auto u64 = [](std::uint64_t v) { return json::Value::number(v); };
        json::Value l = json::Value::object();
        l.set("workloads.frame_self_s", num(frame_s - sink_frame_s));
        l.set("gpu.draw_s", num(draw_s));
        l.set("gpu.draw_count", u64(draw_count));
        l.set("gpu.draw_p50_ms", num(p50 * 1e3));
        l.set("gpu.draw_p98_ms", num(p98 * 1e3));
        l.set("gpu.clear_s", num(clear_s));
        l.set("gpu.end_frame_s", num(end_frame_s));
        l.set("gpu.resource_s", num(resource_s));
        l.set("geom.indices", u64(c.indices));
        l.set("geom.vertex_cache_hit_rate",
              num(ratio(c.vertexCacheHits,
                        c.vertexCacheHits + c.vertexCacheMisses)));
        l.set("geom.triangles_traversed", u64(c.trianglesTraversed));
        l.set("raster.quads", u64(c.rasterQuads));
        l.set("raster.hz_removed_share",
              num(ratio(c.quadsRemovedHz, c.rasterQuads)));
        l.set("fragment.shaded_quads", u64(c.shadedQuads));
        l.set("fragment.shaded_share",
              num(ratio(c.shadedQuads, c.rasterQuads)));
        l.set("shader.vertex_instr", u64(c.vertexInstructions));
        l.set("shader.fragment_instr", u64(c.fragmentInstructions));
        l.set("texture.requests", u64(c.textureRequests));
        l.set("texture.bilinears", u64(c.bilinearSamples));
        l.set("memory.texl0_accesses", u64(counts.texL0.accesses));
        l.set("memory.texl0_hit_rate", num(counts.texL0.hitRate()));
        l.set("memory.texl1_hit_rate", num(counts.texL1.hitRate()));
        l.set("memory.zcache_hit_rate", num(counts.z.hitRate()));
        l.set("memory.ccache_hit_rate", num(counts.color.hitRate()));
        l.set("memory.traffic_bytes", u64(c.traffic.total()));
        l.set("api.batches", u64(counts.batches));
        l.set("api.state_calls", u64(counts.stateCalls));
        // Inputs of the derived per-event host times.
        l.set("memory.cache_accesses",
              u64(counts.z.accesses + counts.color.accesses +
                  counts.texL0.accesses + counts.texL1.accesses));
        out.set("layers", std::move(l));
    }
    std::printf("%s\n", out.serialize().c_str());
    std::fflush(stdout);
    return 0;
}

// ---------------------------------------------------------------------
// Parent: spawning children
// ---------------------------------------------------------------------

struct ChildResult
{
    bool ok = false;
    std::string error;
    json::Value doc;
    double peakRssMb = 0.0;
};

/** Run this binary with @p args, wait for it, parse its last line. */
ChildResult
runChild(const std::vector<std::string> &args)
{
    ChildResult result;
    int fds[2];
    if (::pipe(fds) != 0) {
        result.error = format("pipe: %s", std::strerror(errno));
        return result;
    }
    std::vector<char *> argv;
    std::string self = "/proc/self/exe";
    argv.push_back(self.data());
    std::vector<std::string> storage = args;
    for (std::string &a : storage)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    pid_t pid = ::fork();
    if (pid < 0) {
        result.error = format("fork: %s", std::strerror(errno));
        ::close(fds[0]);
        ::close(fds[1]);
        return result;
    }
    if (pid == 0) {
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[0]);
        ::close(fds[1]);
        ::execv(self.c_str(), argv.data());
        ::_exit(127);
    }
    ::close(fds[1]);

    std::string output;
    bool timed_out = false;
    auto deadline = Clock::now() + std::chrono::seconds(kChildTimeoutSeconds);
    char buf[4096];
    for (;;) {
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
        if (left <= 0) {
            timed_out = true;
            ::kill(pid, SIGKILL);
            break;
        }
        pollfd pfd{fds[0], POLLIN, 0};
        int r = ::poll(&pfd, 1, static_cast<int>(left));
        if (r < 0 && errno != EINTR)
            break;
        if (r <= 0)
            continue;
        ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        output.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);

    int status = 0;
    rusage usage{};
    while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    result.peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    if (timed_out) {
        result.error = format("timed out after %d s", kChildTimeoutSeconds);
        return result;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        result.error = WIFSIGNALED(status)
                           ? format("killed by signal %d", WTERMSIG(status))
                           : format("exit code %d", WEXITSTATUS(status));
        return result;
    }
    std::string last = trim(output);
    std::size_t nl = last.find_last_of('\n');
    if (nl != std::string::npos)
        last = last.substr(nl + 1);
    std::string error;
    if (!json::parse(last, result.doc, &error)) {
        result.error = "unparsable child output: " + error;
        return result;
    }
    result.ok = true;
    return result;
}

// ---------------------------------------------------------------------
// Parent: trace analysis
// ---------------------------------------------------------------------

struct SpanTotals
{
    double selfS = 0.0;  ///< duration minus directly nested spans
    double totalS = 0.0; ///< inclusive duration
    std::uint64_t count = 0;
};

/**
 * Self-times per span name ("frame:3" counts as "frame"), summed over
 * every (pid, tid) lane. Within a lane spans come from one thread's
 * begin/end stack, so they nest; a span's self time is its duration
 * minus the durations of the spans directly inside it.
 */
bool
spanTotals(const std::string &path, std::map<std::string, SpanTotals> &out,
           std::string *error)
{
    json::Value doc;
    if (!json::parseFile(path, doc, error))
        return false;
    const json::Value *events = doc.find("traceEvents");
    if (!events || !events->isArray()) {
        *error = path + ": no traceEvents array";
        return false;
    }
    struct Span
    {
        double start, end;
        std::string name;
        double children = 0.0;
    };
    std::map<std::pair<std::int64_t, std::int64_t>, std::vector<Span>> lanes;
    for (const json::Value &ev : events->items()) {
        const json::Value *ph = ev.find("ph");
        if (!ph || ph->asString() != "X")
            continue;
        const json::Value *name = ev.find("name");
        const json::Value *pid = ev.find("pid");
        const json::Value *tid = ev.find("tid");
        const json::Value *ts = ev.find("ts");
        const json::Value *dur = ev.find("dur");
        if (!name || !pid || !tid || !ts || !dur) {
            *error = path + ": malformed complete event";
            return false;
        }
        std::string base = name->asString();
        base = base.substr(0, base.find(':'));
        double start = ts->asDouble() * 1e-6;
        lanes[{pid->asI64(), tid->asI64()}].push_back(
            {start, start + dur->asDouble() * 1e-6, std::move(base)});
    }
    for (auto &kv : lanes) {
        std::vector<Span> &spans = kv.second;
        std::sort(spans.begin(), spans.end(),
                  [](const Span &a, const Span &b) {
                      if (a.start != b.start)
                          return a.start < b.start;
                      return a.end > b.end; // parents first
                  });
        std::vector<std::size_t> stack;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            while (!stack.empty() && spans[stack.back()].end <= spans[i].start)
                stack.pop_back();
            if (!stack.empty())
                spans[stack.back()].children += spans[i].end - spans[i].start;
            stack.push_back(i);
        }
        for (const Span &s : spans) {
            SpanTotals &t = out[s.name];
            t.totalS += s.end - s.start;
            t.selfS += s.end - s.start - s.children;
            ++t.count;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// Parent: unit probes (public functions timed from outside)
// ---------------------------------------------------------------------

struct XorShift
{
    std::uint64_t s;

    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }

    /** Uniform in [0, 1). */
    float
    unit()
    {
        return static_cast<float>(next() >> 40) / 16777216.0f;
    }
};

constexpr int kProbeRepeats = 5;

template <typename Fn>
double
medianSeconds(Fn &&fn)
{
    std::vector<double> samples;
    for (int r = 0; r < kProbeRepeats; ++r) {
        double s = 0.0;
        timed(s, fn);
        samples.push_back(s);
    }
    return quantile(samples, 0.5);
}

/** ns per CacheModel::access over a uniform stream on twice the
 *  cache's capacity (about half the accesses hit). */
double
probeCacheAccessNs(int ways, int sets, int line, std::uint64_t seed)
{
    memsys::CacheModel cache(ways, sets, line);
    XorShift rng{seed * 0x9e3779b97f4a7c15ull | 1};
    const std::uint64_t lines = static_cast<std::uint64_t>(ways) * sets * 2;
    std::vector<std::uint64_t> stream(1 << 18);
    for (std::uint64_t &a : stream)
        a = (rng.next() % lines) * static_cast<std::uint64_t>(line);
    double s = medianSeconds([&] {
        std::uint64_t hits = 0;
        for (std::uint64_t a : stream)
            hits += cache.access(a, false).hit;
        benchmark::DoNotOptimize(hits);
    });
    return s * 1e9 / static_cast<double>(stream.size());
}

api::TextureSpec
probeTextureSpec(std::uint64_t seed)
{
    api::TextureSpec spec;
    spec.kind = api::TextureSpec::Kind::Noise;
    spec.size = 256;
    spec.seed = seed;
    spec.format = tex::TexFormat::DXT1;
    return spec;
}

/** ns per TextureUnit::sampleQuad, anisotropic 16x on 256^2 DXT1, with
 *  random quads whose footprint is 16x longer along u than along v. */
double
probeSampleQuadNs(std::uint64_t seed)
{
    tex::Texture2D texture = probeTextureSpec(seed | 1).build("probe");
    memsys::MemoryController memory;
    texture.bindMemory(memory);
    tex::TextureUnit unit(tex::TexCacheConfig{}, &memory);
    tex::SamplerState state;
    state.filter = tex::TexFilter::Anisotropic;
    state.maxAniso = 16;
    unit.bind(0, &texture, state);

    XorShift rng{seed * 0xbf58476d1ce4e5b9ull | 1};
    struct Quad
    {
        Vec4 coords[4];
    };
    std::vector<Quad> quads(1 << 13);
    for (Quad &q : quads) {
        float u = rng.unit(), v = rng.unit();
        float dv = (0.5f + 1.5f * rng.unit()) / 256.0f;
        float du = 16.0f * dv;
        q.coords[0] = {u, v, 0.0f, 1.0f};
        q.coords[1] = {u + du, v, 0.0f, 1.0f};
        q.coords[2] = {u, v + dv, 0.0f, 1.0f};
        q.coords[3] = {u + du, v + dv, 0.0f, 1.0f};
    }
    double s = medianSeconds([&] {
        Vec4 out[4];
        for (const Quad &q : quads) {
            unit.sampleQuad(0, q.coords, 0.0f, out);
            benchmark::DoNotOptimize(out);
        }
    });
    return s * 1e9 / static_cast<double>(quads.size());
}

/** ms per TextureSpec::build of a 256^2 noise DXT1 texture. */
double
probeTextureBuildMs(std::uint64_t seed)
{
    std::uint64_t n = 0;
    double s = medianSeconds([&] {
        tex::Texture2D t = probeTextureSpec(seed + n++).build("probe");
        benchmark::DoNotOptimize(t.storageBytes());
    });
    return s * 1e3;
}

// ---------------------------------------------------------------------
// Parent: metrics, digests, report
// ---------------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"frames_per_s", "frames/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"workloads.frame_self_s", "s"},
    {"gpu.draw_s", "s"},
    {"gpu.draw_count", "count"},
    {"gpu.draw_p50_ms", "ms"},
    {"gpu.draw_p98_ms", "ms"},
    {"gpu.clear_s", "s"},
    {"gpu.end_frame_s", "s"},
    {"gpu.resource_s", "s"},
    {"geom.vertex_s", "s"},
    {"raster.bin_s", "s"},
    {"gpu.draw_self_s", "s"},
    {"common.pool_task_count", "count"},
    {"raster.tile_busy_s", "s"},
    {"raster.tile_count", "count"},
    {"raster.merge_s", "s"},
    {"raster.merge_share", "fraction"},
    {"shader.jit_compile_s", "s"},
    {"memory.writeback_s", "s"},
    {"raster.tile_ns_per_quad", "ns"},
    {"raster.merge_ns_per_access", "ns"},
    {"geom.indices", "count"},
    {"geom.vertex_cache_hit_rate", "fraction"},
    {"geom.triangles_traversed", "count"},
    {"raster.quads", "count"},
    {"raster.hz_removed_share", "fraction"},
    {"fragment.shaded_quads", "count"},
    {"fragment.shaded_share", "fraction"},
    {"shader.vertex_instr", "count"},
    {"shader.fragment_instr", "count"},
    {"texture.requests", "count"},
    {"texture.bilinears", "count"},
    {"memory.texl0_accesses", "count"},
    {"memory.texl0_hit_rate", "fraction"},
    {"memory.texl1_hit_rate", "fraction"},
    {"memory.zcache_hit_rate", "fraction"},
    {"memory.ccache_hit_rate", "fraction"},
    {"memory.traffic_bytes", "bytes"},
    {"api.batches", "count"},
    {"api.state_calls", "count"},
    {"trace.overhead", "ratio"},
    {"memory.cache_access_ns.l0", "ns"},
    {"memory.cache_access_ns.l1", "ns"},
    {"texture.sample_quad_ns", "ns"},
    {"api.texture_build_ms", "ms"},
};

/** Everything the parent accumulates for one workload. */
struct WorkloadRun
{
    Workload w;
    std::vector<double> wall, setup, fps, rss, frameS;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::map<std::string, std::string> digests; ///< key -> first rep's
    std::map<std::string, double> layers;       ///< traced rep

    void
    fail(std::uint64_t runs, const std::string &why)
    {
        failed += runs;
        failures.push_back(why);
        std::fprintf(stderr, "bench_e2e: %s: FAIL: %s\n", w.name, why.c_str());
    }

    /** A child that reported nothing fails every demo it would run. */
    void
    childFailed(const std::string &why)
    {
        attempted += demoIds(w).size();
        fail(demoIds(w).size(), why);
    }
};

struct Options
{
    std::vector<std::string> workloads;
    int reps = 3;
    double seconds = 0.0;
    std::uint64_t seed = 0;      ///< unit-probe streams
    std::uint64_t sceneSeed = 0; ///< 0: each profile's own seed
    std::string traceDir;
    std::string outPath;
    std::string digestsPath = WC3D_E2E_DIR "/digests.json";
    bool smoke = false;
};

/** Load the expected digests (key -> hex) of @p path into @p out. */
bool
loadExpectedDigests(const std::string &path,
                    std::map<std::string, std::string> &out)
{
    json::Value doc;
    std::string error;
    const json::Value *digests = nullptr;
    if (json::parseFile(path, doc, &error))
        digests = doc.find("digests");
    if (!digests || !digests->isObject()) {
        std::fprintf(stderr, "bench_e2e: no expected digests in %s %s\n",
                     path.c_str(), error.c_str());
        return false;
    }
    for (const auto &kv : digests->members())
        out[kv.first] = kv.second.asString();
    return true;
}

/**
 * Check one rep's per-demo digests against the committed digest of the
 * same key (when there is one) and against the workload's first rep.
 * Counts (demo, rep) runs attempted and failed.
 */
void
checkDigests(WorkloadRun &run, const json::Value &doc,
             const std::map<std::string, std::string> &expected,
             const char *rep_label)
{
    const json::Value *demos = doc.find("demos");
    std::size_t n = demos ? demos->size() : 0;
    std::size_t want = demoIds(run.w).size();
    run.attempted += want;
    if (n != want) {
        run.fail(want, format("%s: %zu of %zu demos reported", rep_label, n,
                              want));
        return;
    }
    for (const json::Value &demo : demos->items()) {
        std::string key = demo.find("key")->asString();
        std::string digest = demo.find("digest")->asString();
        std::string id = demo.find("id")->asString();
        auto exp = expected.find(key);
        auto first = run.digests.find(key);
        if (first == run.digests.end()) {
            run.digests[key] = digest;
            if (exp == expected.end()) {
                std::fprintf(stderr,
                             "bench_e2e: %s: no committed digest for '%s'\n",
                             run.w.name, key.c_str());
            }
        } else if (first->second != digest) {
            run.fail(1, format("%s: %s digest %s disagrees with the first "
                               "rep's %s",
                               rep_label, id.c_str(), digest.c_str(),
                               first->second.c_str()));
            continue;
        }
        if (exp != expected.end() && exp->second != digest) {
            run.fail(1, format("%s: %s digest %s != expected %s ('%s')",
                               rep_label, id.c_str(), digest.c_str(),
                               exp->second.c_str(), key.c_str()));
        }
    }
}

double
medianOf(std::vector<double> v)
{
    return quantile(v, 0.5);
}

void
addSpanLayers(WorkloadRun &run, const std::map<std::string, SpanTotals> &t)
{
    auto self = [&t](const char *name) {
        auto it = t.find(name);
        return it == t.end() ? 0.0 : it->second.selfS;
    };
    auto count = [&t](const char *name) {
        auto it = t.find(name);
        return it == t.end() ? 0.0 : static_cast<double>(it->second.count);
    };
    auto total = [&t](const char *name) {
        auto it = t.find(name);
        return it == t.end() ? 0.0 : it->second.totalS;
    };
    std::map<std::string, double> &l = run.layers;
    l["geom.vertex_s"] = self("geom.vertex");
    l["raster.bin_s"] = self("raster.bin");
    l["gpu.draw_self_s"] = self("gpu.draw");
    l["common.pool_task_count"] = count("pool.task");
    l["raster.tile_busy_s"] = self("raster.tile");
    l["raster.tile_count"] = count("raster.tile");
    l["raster.merge_s"] = self("raster.merge");
    l["raster.merge_share"] = ratio(total("raster.merge"), total("gpu.draw"));
    l["shader.jit_compile_s"] = self("shader.jit.compile");
    l["memory.writeback_s"] = self("memory.writeback");
    l["raster.tile_ns_per_quad"] =
        ratio(self("raster.tile") * 1e9, l["raster.quads"]);
    l["raster.merge_ns_per_access"] =
        ratio(self("raster.merge") * 1e9, l["memory.cache_accesses"]);
}

/** Print the table of one workload and return its results entry. */
json::Value
reportWorkload(WorkloadRun &run, bool traced, unsigned hw)
{
    const Workload &w = run.w;
    bool oversubscribed = static_cast<unsigned>(w.threads) > hw;
    std::printf("\n== %s: %s (n=%zu)%s\n", w.name, describe(w).c_str(),
                run.wall.size(),
                oversubscribed ? " [oversubscribed]" : "");
    json::Value wd = json::Value::object();
    wd.set("name", json::Value::str(w.name));
    wd.set("description", json::Value::str(describe(w)));
    wd.set("threads", json::Value::number(w.threads));
    wd.set("oversubscribed", json::Value::boolean(oversubscribed));
    json::Value metrics = json::Value::object();
    const std::vector<double> *series[] = {&run.wall, &run.setup,
                                           &run.fps, &run.rss};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
        std::vector<double> v = *series[i];
        double med = medianOf(v);
        double lo = v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
        double hi = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
        std::printf("  %-14s %12.4f %-8s (min %.4f, max %.4f, n=%zu)\n",
                    kEndToEnd[i].name, med, kEndToEnd[i].unit, lo, hi,
                    v.size());
        json::Value m = json::Value::object();
        m.set("value", json::Value::number(med));
        m.set("unit", json::Value::str(kEndToEnd[i].unit));
        m.set("n", json::Value::number(static_cast<int>(v.size())));
        m.set("min", json::Value::number(lo));
        m.set("max", json::Value::number(hi));
        json::Value samples = json::Value::array();
        for (double x : *series[i])
            samples.push(json::Value::number(x));
        m.set("samples", std::move(samples));
        metrics.set(kEndToEnd[i].name, std::move(m));
    }
    double fail_frac = ratio(static_cast<double>(run.failed),
                             static_cast<double>(run.attempted));
    std::printf("  %-14s %12.4f %-8s (%llu of %llu demo runs)\n",
                "fail_frac", fail_frac, "fraction",
                static_cast<unsigned long long>(run.failed),
                static_cast<unsigned long long>(run.attempted));
    json::Value ff = json::Value::object();
    ff.set("value", json::Value::number(fail_frac));
    ff.set("unit", json::Value::str("fraction"));
    metrics.set("fail_frac", std::move(ff));
    wd.set("metrics", std::move(metrics));
    wd.set("attempted", json::Value::number(run.attempted));
    wd.set("failed", json::Value::number(run.failed));
    json::Value failures = json::Value::array();
    for (const std::string &f : run.failures)
        failures.push(json::Value::str(f));
    wd.set("failures", std::move(failures));
    json::Value digests = json::Value::object();
    for (const auto &kv : run.digests)
        digests.set(kv.first, json::Value::str(kv.second));
    wd.set("digests", std::move(digests));

    if (traced) {
        std::printf("  per layer (traced rep):\n");
        json::Value layers = json::Value::object();
        for (const MetricDef &def : kPerLayer) {
            double v = run.layers.count(def.name) ? run.layers[def.name]
                                                  : 0.0;
            std::printf("    %-28s %16.6g %s\n", def.name, v, def.unit);
            json::Value m = json::Value::object();
            m.set("value", json::Value::number(v));
            m.set("unit", json::Value::str(def.unit));
            layers.set(def.name, std::move(m));
        }
        wd.set("per_layer", std::move(layers));
    }
    for (const std::string &f : run.failures)
        std::printf("  FAIL %s\n", f.c_str());
    return wd;
}

/** Run @p run's traced rep (child @p args writing @p path) and fill
 *  its per-layer metrics, probes excepted. */
void
tracedRep(WorkloadRun &run, const std::vector<std::string> &args,
          const std::string &path,
          const std::map<std::string, std::string> &expected)
{
    ChildResult child = runChild(args);
    if (!child.ok) {
        run.childFailed("traced rep: child " + child.error);
        return;
    }
    checkDigests(run, child.doc, expected, "traced rep");
    for (const auto &kv : child.doc.find("layers")->members())
        run.layers[kv.first] = kv.second.asDouble();
    std::map<std::string, SpanTotals> totals;
    std::string error;
    if (!spanTotals(path, totals, &error)) {
        run.fail(demoIds(run.w).size(), "trace analysis: " + error);
        return;
    }
    addSpanLayers(run, totals);
    double traced_frame = child.doc.find("frame_s")->asDouble();
    run.layers["trace.overhead"] = ratio(traced_frame, medianOf(run.frameS));
}

/** @return process-exit status: 0 when no run failed. */
int
parentMain(const Options &opt)
{
    std::vector<WorkloadRun> runs;
    for (const std::string &name : opt.workloads) {
        WorkloadRun run;
        run.w = *findWorkload(name);
        if (opt.smoke)
            run.w = smokeVariant(run.w);
        runs.push_back(std::move(run));
    }
    std::map<std::string, std::string> expected;
    if (!loadExpectedDigests(opt.digestsPath, expected))
        return 2;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

    auto childArgs = [&opt](const WorkloadRun &run) {
        std::vector<std::string> args = {"--child", run.w.name,
                                         "--scene-seed",
                                         std::to_string(opt.sceneSeed)};
        if (opt.smoke)
            args.push_back("--smoke");
        return args;
    };

    // Timed reps: round-robin, closed loop, until both --reps rounds
    // are done and --seconds have passed.
    auto start = Clock::now();
    for (int rep = 0; rep < opt.reps || secondsSince(start) < opt.seconds;
         ++rep) {
        for (WorkloadRun &run : runs) {
            std::string label = format("rep %d", rep + 1);
            ChildResult child = runChild(childArgs(run));
            if (!child.ok) {
                run.childFailed(label + ": child " + child.error);
                continue;
            }
            const json::Value &d = child.doc;
            double setup = d.find("setup_s")->asDouble();
            double frame = d.find("frame_s")->asDouble();
            double frames = d.find("frames")->asDouble();
            run.setup.push_back(setup);
            run.frameS.push_back(frame);
            run.wall.push_back(setup + frame);
            run.fps.push_back(ratio(frames, frame));
            run.rss.push_back(child.peakRssMb);
            checkDigests(run, d, expected, label.c_str());
        }
    }

    // Thread bit-identity: the 4-thread doom3 run must hash like the
    // 1-thread one.
    const WorkloadRun *one = nullptr;
    WorkloadRun *four = nullptr;
    for (WorkloadRun &run : runs) {
        if (std::string(run.w.name) == "doom3-xga-1t")
            one = &run;
        if (std::string(run.w.name) == "doom3-xga-4t")
            four = &run;
    }
    if (one && four) {
        for (const auto &kv : four->digests) {
            auto it = one->digests.find(kv.first);
            if (it != one->digests.end() && it->second != kv.second) {
                four->fail(1, format("digest %s differs from doom3-xga-1t's "
                                     "%s ('%s')",
                                     kv.second.c_str(), it->second.c_str(),
                                     kv.first.c_str()));
            }
        }
    }

    // Traced rep (one per workload) and unit probes.
    if (!opt.traceDir.empty()) {
        if (!makeDirs(opt.traceDir)) {
            std::fprintf(stderr, "bench_e2e: cannot create %s\n",
                         opt.traceDir.c_str());
            return 2;
        }
        for (WorkloadRun &run : runs) {
            std::string path =
                opt.traceDir + "/" + run.w.name + ".trace.json";
            std::vector<std::string> args = childArgs(run);
            args.push_back("--trace-file");
            args.push_back(path);
            tracedRep(run, args, path, expected);
        }
        double l0 = probeCacheAccessNs(64, 1, 64, opt.seed);
        double l1 = probeCacheAccessNs(16, 16, 64, opt.seed);
        double sample = probeSampleQuadNs(opt.seed);
        double build = probeTextureBuildMs(opt.seed);
        for (WorkloadRun &run : runs) {
            run.layers["memory.cache_access_ns.l0"] = l0;
            run.layers["memory.cache_access_ns.l1"] = l1;
            run.layers["texture.sample_quad_ns"] = sample;
            run.layers["api.texture_build_ms"] = build;
        }
    }

    // Report: stdout table plus the results document.
    json::Value doc = json::Value::object();
    doc.set("schema", json::Value::str("wc3d-bench-e2e-v1"));
    doc.set("seed", json::Value::number(opt.seed));
    doc.set("scene_seed", json::Value::number(opt.sceneSeed));
    doc.set("smoke", json::Value::boolean(opt.smoke));
    doc.set("host", bench::hostFingerprint());
    json::Value env = json::Value::object();
    for (char **e = environ; *e; ++e) {
        std::string kv = *e;
        std::size_t eq = kv.find('=');
        if (startsWith(kv, "WC3D_") && eq != std::string::npos)
            env.set(kv.substr(0, eq), json::Value::str(kv.substr(eq + 1)));
    }
    doc.set("env", std::move(env));
    json::Value all_digests = json::Value::object();
    json::Value wl_docs = json::Value::array();
    std::uint64_t total_failed = 0;
    for (WorkloadRun &run : runs) {
        json::Value wd = reportWorkload(run, !opt.traceDir.empty(), hw);
        for (const auto &kv : run.digests)
            all_digests.set(kv.first, json::Value::str(kv.second));
        total_failed += run.failed;
        wl_docs.push(std::move(wd));
    }
    doc.set("workloads", std::move(wl_docs));
    doc.set("digests", std::move(all_digests));
    std::fflush(stdout);

    if (!opt.outPath.empty()) {
        std::string error;
        if (!json::writeFileAtomic(opt.outPath, doc.serialize(1) + "\n",
                                   &error)) {
            std::fprintf(stderr, "bench_e2e: %s\n", error.c_str());
            return 2;
        }
    }
    return total_failed == 0 ? 0 : 1;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: bench_e2e [--workload NAME]... [--reps N] "
                 "[--seconds S] [--seed S] [--scene-seed S]\n"
                 "                 [--trace DIR] [--out FILE] "
                 "[--digests FILE] [--smoke]\n"
                 "workloads:");
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
}

bool
parseNumber(const char *text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0' && std::isfinite(out) && out >= 0.0;
}

bool
parseSeed(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text, &end, 10);
    return std::isdigit(static_cast<unsigned char>(*text)) && *end == '\0' &&
           errno == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string child, trace_file;
    bool reps_given = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool has_value = i + 1 < argc;
        double num = 0.0;
        if (a == "--smoke") {
            opt.smoke = true;
        } else if (!has_value) {
            usage();
            return 2;
        } else if (a == "--workload") {
            opt.workloads.push_back(argv[++i]);
        } else if (a == "--reps" && parseNumber(argv[i + 1], num) &&
                   num >= 1 && num <= 1000) {
            opt.reps = static_cast<int>(num);
            reps_given = true;
            ++i;
        } else if (a == "--seconds" && parseNumber(argv[i + 1], num) &&
                   num <= 86400) {
            opt.seconds = num;
            ++i;
        } else if (a == "--seed" && parseSeed(argv[i + 1], opt.seed)) {
            ++i;
        } else if (a == "--scene-seed" &&
                   parseSeed(argv[i + 1], opt.sceneSeed)) {
            ++i;
        } else if (a == "--trace") {
            opt.traceDir = argv[++i];
        } else if (a == "--out") {
            opt.outPath = argv[++i];
        } else if (a == "--digests") {
            opt.digestsPath = argv[++i];
        } else if (a == "--child") {
            child = argv[++i];
        } else if (a == "--trace-file") {
            trace_file = argv[++i];
        } else {
            usage();
            return 2;
        }
    }
    if (opt.workloads.empty() && child.empty()) {
        for (const Workload &w : kWorkloads)
            opt.workloads.push_back(w.name);
    }
    for (const std::string &name :
         child.empty() ? opt.workloads : std::vector<std::string>{child}) {
        if (!findWorkload(name)) {
            std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                         name.c_str());
            usage();
            return 2;
        }
    }
    if (opt.smoke && !reps_given)
        opt.reps = 1;

    if (!child.empty()) {
        Workload w = *findWorkload(child);
        return childMain(opt.smoke ? smokeVariant(w) : w, opt.sceneSeed,
                         trace_file);
    }
    return parentMain(opt);
}
