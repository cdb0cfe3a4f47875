#include "core/replay.hh"

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <unistd.h>

#include "api/trace.hh"
#include "common/prof.hh"
#include "common/strutil.hh"
#include "workloads/games.hh"

namespace wc3d::core {

namespace {

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

/** Everything one run produces; the diff compares two of these. */
struct RunSnapshot
{
    api::ApiStats api;
    gpu::PipelineCounters counters;
    memsys::CacheStats zCache;
    memsys::CacheStats colorCache;
    memsys::CacheStats texL0;
    memsys::CacheStats texL1;
    std::string apiSeriesCsv;
    std::string gpuSeriesCsv;
};

void
diffU64(std::vector<std::string> &out, const char *name,
        std::uint64_t live, std::uint64_t replay)
{
    if (live != replay) {
        out.push_back(format(
            "%s: live=%llu replay=%llu", name,
            static_cast<unsigned long long>(live),
            static_cast<unsigned long long>(replay)));
    }
}

void
diffF64(std::vector<std::string> &out, const char *name, double live,
        double replay)
{
    // Both sides compute from identical integer aggregates, so even
    // derived doubles must match bit for bit.
    if (live != replay)
        out.push_back(format("%s: live=%.17g replay=%.17g", name, live,
                             replay));
}

void
diffCache(std::vector<std::string> &out, const char *prefix,
          const memsys::CacheStats &live, const memsys::CacheStats &replay)
{
    diffU64(out, format("%s.accesses", prefix).c_str(), live.accesses,
            replay.accesses);
    diffU64(out, format("%s.hits", prefix).c_str(), live.hits,
            replay.hits);
    diffU64(out, format("%s.misses", prefix).c_str(), live.misses,
            replay.misses);
    diffU64(out, format("%s.writebacks", prefix).c_str(),
            live.writebacks, replay.writebacks);
}

void
diffCsv(std::vector<std::string> &out, const char *name,
        const std::string &live, const std::string &replay)
{
    if (live == replay)
        return;
    auto a = split(live, '\n');
    auto b = split(replay, '\n');
    std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] != b[i]) {
            out.push_back(format("%s line %zu: live='%s' replay='%s'",
                                 name, i, a[i].c_str(), b[i].c_str()));
            return;
        }
    }
    out.push_back(format("%s: live has %zu lines, replay has %zu",
                         name, a.size(), b.size()));
}

void
diffApiStats(std::vector<std::string> &out, const api::ApiStats &live,
             const api::ApiStats &replay)
{
    diffU64(out, "api.frames", live.frames(), replay.frames());
    diffU64(out, "api.batches", live.batches(), replay.batches());
    diffU64(out, "api.indices", live.indices(), replay.indices());
    diffU64(out, "api.indexBytes", live.indexBytes(),
            replay.indexBytes());
    diffU64(out, "api.stateCalls", live.stateCalls(),
            replay.stateCalls());
    const geom::PrimitiveType kinds[] = {
        geom::PrimitiveType::TriangleList,
        geom::PrimitiveType::TriangleStrip,
        geom::PrimitiveType::TriangleFan};
    const char *kind_names[] = {"api.primsTL", "api.primsTS",
                                "api.primsTF"};
    for (int i = 0; i < 3; ++i)
        diffU64(out, kind_names[i], live.primitivesOfType(kinds[i]),
                replay.primitivesOfType(kinds[i]));
    diffF64(out, "api.avgVsInstructions",
            live.avgVertexShaderInstructions(),
            replay.avgVertexShaderInstructions());
    diffF64(out, "api.avgFsInstructions",
            live.avgFragmentInstructions(),
            replay.avgFragmentInstructions());
    diffF64(out, "api.avgFsTexInstructions",
            live.avgFragmentTexInstructions(),
            replay.avgFragmentTexInstructions());
}

void
diffCounters(std::vector<std::string> &out,
             const gpu::PipelineCounters &a,
             const gpu::PipelineCounters &b)
{
    diffU64(out, "gpu.indices", a.indices, b.indices);
    diffU64(out, "gpu.vertexCacheHits", a.vertexCacheHits,
            b.vertexCacheHits);
    diffU64(out, "gpu.vertexCacheMisses", a.vertexCacheMisses,
            b.vertexCacheMisses);
    diffU64(out, "gpu.trianglesAssembled", a.trianglesAssembled,
            b.trianglesAssembled);
    diffU64(out, "gpu.trianglesClipped", a.trianglesClipped,
            b.trianglesClipped);
    diffU64(out, "gpu.trianglesCulled", a.trianglesCulled,
            b.trianglesCulled);
    diffU64(out, "gpu.trianglesTraversed", a.trianglesTraversed,
            b.trianglesTraversed);
    diffU64(out, "gpu.rasterQuads", a.rasterQuads, b.rasterQuads);
    diffU64(out, "gpu.rasterFullQuads", a.rasterFullQuads,
            b.rasterFullQuads);
    diffU64(out, "gpu.rasterFragments", a.rasterFragments,
            b.rasterFragments);
    diffU64(out, "gpu.quadsRemovedHz", a.quadsRemovedHz,
            b.quadsRemovedHz);
    diffU64(out, "gpu.quadsRemovedZStencil", a.quadsRemovedZStencil,
            b.quadsRemovedZStencil);
    diffU64(out, "gpu.quadsRemovedAlpha", a.quadsRemovedAlpha,
            b.quadsRemovedAlpha);
    diffU64(out, "gpu.quadsRemovedColorMask", a.quadsRemovedColorMask,
            b.quadsRemovedColorMask);
    diffU64(out, "gpu.quadsBlended", a.quadsBlended, b.quadsBlended);
    diffU64(out, "gpu.zStencilQuads", a.zStencilQuads,
            b.zStencilQuads);
    diffU64(out, "gpu.zStencilFullQuads", a.zStencilFullQuads,
            b.zStencilFullQuads);
    diffU64(out, "gpu.zStencilFragments", a.zStencilFragments,
            b.zStencilFragments);
    diffU64(out, "gpu.shadedQuads", a.shadedQuads, b.shadedQuads);
    diffU64(out, "gpu.shadedFragments", a.shadedFragments,
            b.shadedFragments);
    diffU64(out, "gpu.blendedFragments", a.blendedFragments,
            b.blendedFragments);
    diffU64(out, "gpu.vertexInstructions", a.vertexInstructions,
            b.vertexInstructions);
    diffU64(out, "gpu.fragmentInstructions", a.fragmentInstructions,
            b.fragmentInstructions);
    diffU64(out, "gpu.fragmentTexInstructions",
            a.fragmentTexInstructions, b.fragmentTexInstructions);
    diffU64(out, "gpu.textureRequests", a.textureRequests,
            b.textureRequests);
    diffU64(out, "gpu.bilinearSamples", a.bilinearSamples,
            b.bilinearSamples);
    for (int i = 0; i < memsys::kNumClients; ++i) {
        diffU64(out, format("gpu.readBytes[%d]", i).c_str(),
                a.traffic.readBytes[i], b.traffic.readBytes[i]);
        diffU64(out, format("gpu.writeBytes[%d]", i).c_str(),
                a.traffic.writeBytes[i], b.traffic.writeBytes[i]);
    }
}

} // namespace

std::string
ReplayReport::firstDivergence() const
{
    if (!traceError.empty())
        return traceError;
    return divergences.empty() ? std::string() : divergences.front();
}

ReplayReport
replayAndDiff(const std::string &id, int frames, int width, int height,
              const std::string &trace_path, bool keep_trace)
{
    ReplayReport report;
    report.id = id;
    report.frames = frames;

    std::string path = trace_path;
    if (path.empty()) {
        std::error_code ec;
        std::filesystem::path dir =
            std::filesystem::temp_directory_path(ec);
        if (ec) {
            report.traceError =
                "no temporary directory: " + ec.message();
            return report;
        }
        path = (dir / format("wc3d-replay-%d-%s-f%d.wc3dtrc",
                             static_cast<int>(::getpid()),
                             sanitize(id).c_str(), frames))
                   .string();
    }

    gpu::GpuConfig config;
    config.width = width;
    config.height = height;

    auto snapshot = [&](api::Device &device, gpu::GpuSimulator &sim) {
        RunSnapshot s;
        s.api = device.stats();
        s.counters = sim.counters();
        s.zCache = sim.zCacheStats();
        s.colorCache = sim.colorCacheStats();
        s.texL0 = sim.texL0Stats();
        s.texL1 = sim.texL1Stats();
        s.apiSeriesCsv = device.stats().series().toCsv();
        s.gpuSeriesCsv = sim.frameSeries().toCsv();
        return s;
    };

    // Live run, recording the trace while feeding the simulator.
    RunSnapshot live;
    {
        WC3D_PROF_SCOPE("replay.record", id);
        gpu::GpuSimulator sim(config);
        api::Device device(workloads::gameProfile(id).apiKind);
        device.setSink(&sim);
        api::TraceWriter writer(path);
        if (!writer.ok()) {
            report.traceError =
                "trace write: " + writer.error()->describe();
            return report;
        }
        device.setRecorder(&writer);
        auto demo = workloads::makeTimedemo(id);
        demo->run(device, frames);
        device.setRecorder(nullptr);
        report.commandsRecorded = writer.commandsWritten();
        if (!writer.close()) {
            report.traceError =
                "trace write: " + writer.error()->describe();
            return report;
        }
        live = snapshot(device, sim);
    }

    // Replay through a fresh device + simulator.
    RunSnapshot replayed;
    {
        WC3D_PROF_SCOPE("replay.play", id);
        gpu::GpuSimulator sim(config);
        api::Device device(workloads::gameProfile(id).apiKind);
        device.setSink(&sim);
        api::TraceReader reader(path);
        report.commandsReplayed = api::playTrace(reader, device);
        if (reader.error()) {
            report.traceError =
                "trace read: " + reader.error()->describe();
            if (!keep_trace)
                std::remove(path.c_str());
            return report;
        }
        replayed = snapshot(device, sim);
    }
    if (!keep_trace)
        std::remove(path.c_str());

    diffU64(report.divergences, "commandsReplayed",
            report.commandsRecorded, report.commandsReplayed);
    diffApiStats(report.divergences, live.api, replayed.api);
    diffCounters(report.divergences, live.counters, replayed.counters);
    diffCache(report.divergences, "zCache", live.zCache,
              replayed.zCache);
    diffCache(report.divergences, "colorCache", live.colorCache,
              replayed.colorCache);
    diffCache(report.divergences, "texL0", live.texL0, replayed.texL0);
    diffCache(report.divergences, "texL1", live.texL1, replayed.texL1);
    diffCsv(report.divergences, "api series", live.apiSeriesCsv,
            replayed.apiSeriesCsv);
    diffCsv(report.divergences, "gpu series", live.gpuSeriesCsv,
            replayed.gpuSeriesCsv);
    return report;
}

} // namespace wc3d::core
