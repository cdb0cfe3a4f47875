#include "core/runner.hh"

#include <chrono>

#include "common/env.hh"
#include "common/log.hh"
#include "common/prof.hh"
#include "common/strutil.hh"
#include "common/threadpool.hh"
#include "core/runmeta.hh"
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
put(std::string &out, const char *key, std::uint64_t v)
{
    out += format("%s=%llu\n", key, static_cast<unsigned long long>(v));
}

void
putCache(std::string &out, const char *prefix,
         const memsys::CacheStats &s)
{
    out += format("%s.accesses=%llu\n%s.hits=%llu\n%s.misses=%llu\n"
                  "%s.writebacks=%llu\n",
                  prefix, static_cast<unsigned long long>(s.accesses),
                  prefix, static_cast<unsigned long long>(s.hits),
                  prefix, static_cast<unsigned long long>(s.misses),
                  prefix,
                  static_cast<unsigned long long>(s.writebacks));
}

} // namespace

int
defaultMicroFrames()
{
    return envInt("WC3D_FRAMES", 4);
}

int
defaultApiFrames()
{
    return envInt("WC3D_API_FRAMES", 300);
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

    RunMeta::global().noteApiRun(run, secondsSince(start));
    RunMeta::global().writeIfRequested();
    return run;
}

std::string
encodeMicroRun(const MicroRun &run)
{
    std::string out = "wc3d-microrun-v1\n";
    out += format("id=%s\n", run.id.c_str());
    put(out, "frames", static_cast<std::uint64_t>(run.frames));
    put(out, "width", static_cast<std::uint64_t>(run.width));
    put(out, "height", static_cast<std::uint64_t>(run.height));

    const gpu::PipelineCounters &c = run.counters;
    put(out, "indices", c.indices);
    put(out, "vcacheHits", c.vertexCacheHits);
    put(out, "vcacheMisses", c.vertexCacheMisses);
    put(out, "triAssembled", c.trianglesAssembled);
    put(out, "triClipped", c.trianglesClipped);
    put(out, "triCulled", c.trianglesCulled);
    put(out, "triTraversed", c.trianglesTraversed);
    put(out, "rasterQuads", c.rasterQuads);
    put(out, "rasterFullQuads", c.rasterFullQuads);
    put(out, "rasterFragments", c.rasterFragments);
    put(out, "quadsHz", c.quadsRemovedHz);
    put(out, "quadsZst", c.quadsRemovedZStencil);
    put(out, "quadsAlpha", c.quadsRemovedAlpha);
    put(out, "quadsMask", c.quadsRemovedColorMask);
    put(out, "quadsBlend", c.quadsBlended);
    put(out, "zstQuads", c.zStencilQuads);
    put(out, "zstFullQuads", c.zStencilFullQuads);
    put(out, "zstFragments", c.zStencilFragments);
    put(out, "shadedQuads", c.shadedQuads);
    put(out, "shadedFragments", c.shadedFragments);
    put(out, "blendedFragments", c.blendedFragments);
    put(out, "vsInstr", c.vertexInstructions);
    put(out, "fsInstr", c.fragmentInstructions);
    put(out, "fsTexInstr", c.fragmentTexInstructions);
    put(out, "texRequests", c.textureRequests);
    put(out, "bilinears", c.bilinearSamples);
    for (int i = 0; i < memsys::kNumClients; ++i) {
        out += format("read%d=%llu\nwrite%d=%llu\n", i,
                      static_cast<unsigned long long>(
                          c.traffic.readBytes[i]),
                      i,
                      static_cast<unsigned long long>(
                          c.traffic.writeBytes[i]));
    }
    putCache(out, "zc", run.zCache);
    putCache(out, "cc", run.colorCache);
    putCache(out, "t0", run.texL0);
    putCache(out, "t1", run.texL1);
    out += "series-csv:\n";
    out += run.series.toCsv();
    out += "#end\n"; // a cut-off document never equals a whole one
    return out;
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
    inform("simulating %s for %d frames at %dx%d", id.c_str(), frames,
           width, height);
    demo->run(device, frames);

    MicroRun run;
    run.id = id;
    run.frames = frames;
    run.width = width;
    run.height = height;
    run.counters = sim.counters();
    run.zCache = sim.zCacheStats();
    run.colorCache = sim.colorCacheStats();
    run.texL0 = sim.texL0Stats();
    run.texL1 = sim.texL1Stats();
    run.series = sim.frameSeries();

    RunMeta::global().noteMicroRun(run, secondsSince(start));
    RunMeta::global().writeIfRequested();
    return run;
}

std::vector<MicroRun>
runSimulatedGames(int frames)
{
    // Independent (game, frames) runs fan out onto the global pool;
    // results land at their id's index, so ordering matches the serial
    // loop. Each run's simulator is confined to the thread executing
    // its task (nested shading parallelism shards only pure work), so
    // per-run statistics are untouched by the fan-out.
    auto ids = workloads::simulatedTimedemoIds();
    std::vector<MicroRun> runs(ids.size());
    {
        PhaseTimer phase("micro_runs");
        WC3D_PROF_SCOPE("run.fanout.micro");
        TaskGroup group;
        for (std::size_t i = 0; i < ids.size(); ++i) {
            group.run([&runs, &ids, i, frames] {
                runs[i] = runMicroarch(ids[i], frames);
            });
        }
        group.wait();
    }
    // Re-export so the manifest includes this phase's wall clock.
    RunMeta::global().writeIfRequested();
    return runs;
}

std::vector<ApiRun>
runAllGamesApi(int frames)
{
    auto ids = workloads::allTimedemoIds();
    std::vector<ApiRun> runs(ids.size());
    {
        PhaseTimer phase("api_runs");
        WC3D_PROF_SCOPE("run.fanout.api");
        TaskGroup group;
        for (std::size_t i = 0; i < ids.size(); ++i) {
            group.run([&runs, &ids, i, frames] {
                runs[i] = runApiLevel(ids[i], frames);
            });
        }
        group.wait();
    }
    RunMeta::global().writeIfRequested();
    return runs;
}

} // namespace wc3d::core
