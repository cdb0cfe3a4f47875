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

/** One side's record: the command count, its API run and its
 *  simulated run, each through the runner's encoder. */
struct SideRecord
{
    std::string api;
    std::string micro;
};

SideRecord
recordOf(const std::string &id, int frames, std::uint64_t commands,
         const api::Device &device, const gpu::GpuSimulator &sim)
{
    return {format("commands=%llu\n",
                   static_cast<unsigned long long>(commands)) +
                encodeApiRun(ApiRun{id, frames, device.stats()}),
            encodeMicroRun(collectMicroRun(id, frames, sim))};
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

    // Live run, recording the trace while feeding the simulator.
    SideRecord live;
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
        live = recordOf(id, frames, report.commandsRecorded, device, sim);
    }

    // Replay through a fresh device + simulator.
    SideRecord replayed;
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
        replayed =
            recordOf(id, frames, report.commandsReplayed, device, sim);
    }
    if (!keep_trace)
        std::remove(path.c_str());

    // API-level lines carry an "api " prefix; the simulated run's
    // lines are named by their golden keys.
    for (const std::string &d :
         diffRecords(live.api, replayed.api, "live", "replay"))
        report.divergences.push_back("api " + d);
    for (const std::string &d :
         diffRecords(live.micro, replayed.micro, "live", "replay"))
        report.divergences.push_back(d);
    return report;
}

} // namespace wc3d::core
