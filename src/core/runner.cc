#include "core/runner.hh"

#include <cctype>
#include <cstdio>
#include <map>
#include <unistd.h>

#include <chrono>

#include "common/env.hh"
#include "common/fs.hh"
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

/** Bump when the simulator or workloads change behaviour. */
constexpr int kCacheSchema = 5;

/** Trailing marker proving a cache file was written out completely. */
constexpr const char *kEndMarker = "#end";

std::string
sanitize(const std::string &id)
{
    std::string out = id;
    for (char &c : out) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return out;
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

/** Parse an encodeMicroRun() document (validates the header and the
 *  #end truncation marker). @return false on malformed input. */
bool
decodeMicroRun(MicroRun &run, const std::string &content)
{
    auto lines = split(content, '\n');
    if (lines.empty() || lines[0] != "wc3d-microrun-v1")
        return false;

    // Reject truncated files: a complete save ends with the marker.
    bool complete = false;
    for (auto it = lines.rbegin(); it != lines.rend(); ++it) {
        if (trim(*it).empty())
            continue;
        complete = *it == kEndMarker;
        break;
    }
    if (!complete)
        return false;

    std::map<std::string, std::string> kv;
    std::size_t series_start = lines.size();
    for (std::size_t i = 1; i < lines.size(); ++i) {
        if (lines[i] == "series-csv:") {
            series_start = i + 1;
            break;
        }
        auto eq = lines[i].find('=');
        if (eq != std::string::npos)
            kv[lines[i].substr(0, eq)] = lines[i].substr(eq + 1);
    }

    auto get = [&kv](const char *key) -> std::uint64_t {
        auto it = kv.find(key);
        return it != kv.end() ? std::strtoull(it->second.c_str(),
                                              nullptr, 10)
                              : 0;
    };

    run.id = kv.count("id") ? kv["id"] : "";
    run.frames = static_cast<int>(get("frames"));
    run.width = static_cast<int>(get("width"));
    run.height = static_cast<int>(get("height"));

    gpu::PipelineCounters &c = run.counters;
    c.indices = get("indices");
    c.vertexCacheHits = get("vcacheHits");
    c.vertexCacheMisses = get("vcacheMisses");
    c.trianglesAssembled = get("triAssembled");
    c.trianglesClipped = get("triClipped");
    c.trianglesCulled = get("triCulled");
    c.trianglesTraversed = get("triTraversed");
    c.rasterQuads = get("rasterQuads");
    c.rasterFullQuads = get("rasterFullQuads");
    c.rasterFragments = get("rasterFragments");
    c.quadsRemovedHz = get("quadsHz");
    c.quadsRemovedZStencil = get("quadsZst");
    c.quadsRemovedAlpha = get("quadsAlpha");
    c.quadsRemovedColorMask = get("quadsMask");
    c.quadsBlended = get("quadsBlend");
    c.zStencilQuads = get("zstQuads");
    c.zStencilFullQuads = get("zstFullQuads");
    c.zStencilFragments = get("zstFragments");
    c.shadedQuads = get("shadedQuads");
    c.shadedFragments = get("shadedFragments");
    c.blendedFragments = get("blendedFragments");
    c.vertexInstructions = get("vsInstr");
    c.fragmentInstructions = get("fsInstr");
    c.fragmentTexInstructions = get("fsTexInstr");
    c.textureRequests = get("texRequests");
    c.bilinearSamples = get("bilinears");
    for (int i = 0; i < memsys::kNumClients; ++i) {
        c.traffic.readBytes[i] = get(format("read%d", i).c_str());
        c.traffic.writeBytes[i] = get(format("write%d", i).c_str());
    }
    auto get_cache = [&](const char *prefix, memsys::CacheStats &s) {
        s.accesses = get(format("%s.accesses", prefix).c_str());
        s.hits = get(format("%s.hits", prefix).c_str());
        s.misses = get(format("%s.misses", prefix).c_str());
        s.writebacks = get(format("%s.writebacks", prefix).c_str());
    };
    get_cache("zc", run.zCache);
    get_cache("cc", run.colorCache);
    get_cache("t0", run.texL0);
    get_cache("t1", run.texL1);

    // Series CSV: header then one row per frame.
    if (series_start < lines.size()) {
        auto headers = split(lines[series_start], ',');
        for (std::size_t r = series_start + 1; r < lines.size(); ++r) {
            if (lines[r] == kEndMarker)
                break;
            if (trim(lines[r]).empty())
                continue;
            auto cells = split(lines[r], ',');
            for (std::size_t col = 1;
                 col < cells.size() && col < headers.size(); ++col) {
                run.series.record(headers[col],
                                  std::strtod(cells[col].c_str(),
                                              nullptr));
            }
            run.series.endFrame();
        }
    }
    return true;
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
cachePath(const std::string &id, int frames, int width, int height)
{
    std::string dir = envString("WC3D_CACHE_DIR", ".wc3d-cache");
    // Tile size, thread count and shader executor do NOT key the cache:
    // results are bit-identical across all of them by construction.
    return format("%s/%s_f%d_%dx%d_v%d.txt", dir.c_str(),
                  sanitize(id).c_str(), frames, width, height,
                  kCacheSchema);
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
    out += kEndMarker;
    out += '\n';
    return out;
}

bool
saveMicroRun(const MicroRun &run, const std::string &path)
{
    std::string out = encodeMicroRun(run);

    // Durable temp-write + fsync + rename through the faultio shim so
    // concurrent readers never see a torn file and a short write or
    // ENOSPC can never rename a partial temp file into the cache. The
    // pid-suffixed temp keeps simultaneous writers (parallel fan-out,
    // several processes sharing one cache dir) off each other's temp
    // files; whoever renames last wins with identical content.
    std::string error;
    if (!atomicWriteFile(path, out, &error)) {
        warn("run cache write failed: %s", error.c_str());
        return false;
    }
    return true;
}

bool
loadMicroRun(MicroRun &run, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    std::string content;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        content.append(buf, n);
    std::fclose(f);
    return decodeMicroRun(run, content);
}

MicroRun
runMicroarch(const std::string &id, int frames, int width, int height,
             bool allow_cache)
{
    prof::ScopedProcess process(tracePid(id), id);
    WC3D_PROF_SCOPE("run.sim", id);
    auto start = std::chrono::steady_clock::now();

    bool cache_enabled =
        allow_cache && envInt("WC3D_NO_CACHE", 0) == 0;
    std::string path = cachePath(id, frames, width, height);

    // Lock-free double check: the atomic write-then-rename in
    // saveMicroRun means a load either sees a complete file or none,
    // so concurrent runners (threads or processes) need no lock — at
    // worst both simulate and one rename wins with identical content.
    MicroRun run;
    {
        WC3D_PROF_SCOPE("run.cache.load");
        if (cache_enabled && loadMicroRun(run, path) && run.id == id &&
            run.frames == frames && run.width == width &&
            run.height == height) {
            RunMeta::global().noteCacheLookup(true);
            RunMeta::global().noteMicroRun(run, secondsSince(start),
                                           /*from_cache=*/true);
            RunMeta::global().writeIfRequested();
            return run;
        }
    }
    RunMeta::global().noteCacheLookup(false);

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

    run = MicroRun();
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

    if (cache_enabled) {
        WC3D_PROF_SCOPE("run.cache.save");
        std::string dir = envString("WC3D_CACHE_DIR", ".wc3d-cache");
        if (!makeDirs(dir))
            warn("could not create run cache dir '%s'", dir.c_str());
        else
            saveMicroRun(run, path); // warns with the faultio reason
    }
    RunMeta::global().noteMicroRun(run, secondsSince(start),
                                   /*from_cache=*/false);
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
