#include "core/runner.hh"

#include <algorithm>
#include <chrono>

#include "common/env.hh"
#include "common/prof.hh"
#include "common/strutil.hh"
#include "workloads/games.hh"

namespace wc3d::core {

namespace {

/** Stable Chrome-trace pid of a timedemo (0 = the tool itself). */
int
tracePid(const std::string &id)
{
    auto ids = workloads::allTimedemoIds();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] == id)
            return static_cast<int>(i) + 1;
    }
    return 0;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void
putFields(std::string &out, const std::vector<RecordField> &fields)
{
    for (const auto &[key, value] : fields)
        out += key + "=" + value.serialize() + "\n";
}

void
putSeries(std::string &out, const stats::FrameSeries &series)
{
    out += "series-csv:\n";
    out += series.toCsv();
    out += "#end\n"; // a cut-off document never equals a whole one
}

} // namespace

int
defaultMicroFrames()
{
    return envInt("WC3D_FRAMES", 4, 1);
}

int
defaultApiFrames()
{
    return envInt("WC3D_API_FRAMES", 300, 1);
}

ApiRun
runApiLevel(const std::string &id, int frames)
{
    prof::ScopedProcess process(tracePid(id), id);
    WC3D_PROF_SCOPE("run.api", id);
    auto start = std::chrono::steady_clock::now();

    ApiRun run;
    run.id = id;
    run.frames = frames;
    api::Device device(workloads::gameProfile(id).apiKind);
    auto demo = workloads::makeTimedemo(id);
    demo->run(device, frames);
    run.stats = device.stats();
    run.seconds = secondsSince(start);
    return run;
}

std::vector<RecordField>
apiStatsFields(const api::ApiStats &s)
{
    auto count = [](std::uint64_t v) { return json::Value::number(v); };
    return {
        {"frames", count(s.frames())},
        {"batches", count(s.batches())},
        {"indices", count(s.indices())},
        {"indexBytes", count(s.indexBytes())},
        {"stateCalls", count(s.stateCalls())},
        {"primsTL",
         count(s.primitivesOfType(geom::PrimitiveType::TriangleList))},
        {"primsTS",
         count(s.primitivesOfType(geom::PrimitiveType::TriangleStrip))},
        {"primsTF",
         count(s.primitivesOfType(geom::PrimitiveType::TriangleFan))},
        {"vsInstrAvg", json::Value::number(s.avgVertexShaderInstructions())},
        {"fsInstrAvg", json::Value::number(s.avgFragmentInstructions())},
        {"fsTexInstrAvg",
         json::Value::number(s.avgFragmentTexInstructions())},
    };
}

std::vector<RecordField>
microRunFields(const MicroRun &run)
{
    std::vector<RecordField> out;
    for (const gpu::CounterField &f : gpu::kCounterFields)
        out.emplace_back(f.key, json::Value::number(run.counters.*f.member));
    const memsys::TrafficSnapshot &t = run.counters.traffic;
    for (int i = 0; i < memsys::kNumClients; ++i) {
        out.emplace_back(format("read%d", i),
                         json::Value::number(t.readBytes[i]));
        out.emplace_back(format("write%d", i),
                         json::Value::number(t.writeBytes[i]));
    }
    const std::pair<const char *, const memsys::CacheStats *> caches[] = {
        {"zc", &run.zCache},
        {"cc", &run.colorCache},
        {"t0", &run.texL0},
        {"t1", &run.texL1}};
    for (const auto &[prefix, c] : caches) {
        const std::pair<const char *, std::uint64_t> stats[] = {
            {"accesses", c->accesses},
            {"hits", c->hits},
            {"misses", c->misses},
            {"writebacks", c->writebacks}};
        for (const auto &[name, value] : stats)
            out.emplace_back(format("%s.%s", prefix, name),
                             json::Value::number(value));
    }
    return out;
}

std::string
encodeApiRun(const ApiRun &run)
{
    std::string out = "wc3d-apirun-v1\n";
    out += format("id=%s\n", run.id.c_str());
    putFields(out, apiStatsFields(run.stats));
    putSeries(out, run.stats.series());
    return out;
}

std::string
encodeMicroRun(const MicroRun &run)
{
    std::string out = "wc3d-microrun-v1\n";
    out += format("id=%s\n", run.id.c_str());
    putFields(out, {{"frames", json::Value::number(run.frames)},
                    {"width", json::Value::number(run.width)},
                    {"height", json::Value::number(run.height)}});
    putFields(out, microRunFields(run));
    putSeries(out, run.series);
    return out;
}

std::vector<std::string>
diffRecords(const std::string &a, const std::string &b,
            const std::string &a_name, const std::string &b_name)
{
    std::vector<std::string> out;
    if (a == b)
        return out;
    const std::vector<std::string> la = split(a, '\n');
    const std::vector<std::string> lb = split(b, '\n');
    for (std::size_t i = 0; i < std::max(la.size(), lb.size()); ++i) {
        const std::string x = i < la.size() ? la[i] : "<missing>";
        const std::string y = i < lb.size() ? lb[i] : "<missing>";
        if (x == y)
            continue;
        std::size_t eq = x.find('=');
        if (eq != std::string::npos &&
            y.compare(0, eq + 1, x, 0, eq + 1) == 0) {
            out.push_back(format("%s: %s=%s %s=%s",
                                 x.substr(0, eq).c_str(), a_name.c_str(),
                                 x.c_str() + eq + 1, b_name.c_str(),
                                 y.c_str() + eq + 1));
        } else {
            out.push_back(format("line %zu: %s '%s' %s '%s'", i + 1,
                                 a_name.c_str(), x.c_str(),
                                 b_name.c_str(), y.c_str()));
        }
    }
    return out;
}

MicroRun
collectMicroRun(const std::string &id, int frames,
                const gpu::GpuSimulator &sim)
{
    MicroRun run;
    run.id = id;
    run.frames = frames;
    run.width = sim.config().width;
    run.height = sim.config().height;
    run.counters = sim.counters();
    run.zCache = sim.zCacheStats();
    run.colorCache = sim.colorCacheStats();
    run.texL0 = sim.texL0Stats();
    run.texL1 = sim.texL1Stats();
    run.series = sim.frameSeries();
    return run;
}

MicroRun
runMicroarch(const std::string &id, int frames, int width, int height)
{
    prof::ScopedProcess process(tracePid(id), id);
    WC3D_PROF_SCOPE("run.sim", id);
    auto start = std::chrono::steady_clock::now();

    gpu::GpuConfig config;
    config.width = width;
    config.height = height;
    gpu::GpuSimulator sim(config);
    api::Device device(workloads::gameProfile(id).apiKind);
    device.setSink(&sim);
    auto demo = workloads::makeTimedemo(id);
    demo->run(device, frames);

    MicroRun run = collectMicroRun(id, frames, sim);
    run.seconds = secondsSince(start);
    return run;
}

} // namespace wc3d::core
