/**
 * @file
 * Experiment runners: execute a synthetic timedemo at the API level
 * (statistics only) or through the full GPU simulator. Workloads and
 * the simulator are deterministic, so a run's results depend only on
 * (id, frames, resolution); a run also carries its own wall clock,
 * which its encoding leaves out. The runners keep no state between
 * calls: core::fullReport fans them out and builds the run manifest
 * (core/runmeta) from the runs they return.
 *
 * Environment knobs (a value below 1 warns and keeps the default):
 *  - WC3D_FRAMES:     frames for microarchitectural runs (default 4)
 *  - WC3D_API_FRAMES: frames for API-level runs (default 300)
 *  - WC3D_THREADS:    simulation threads (default: hardware
 *                     concurrency; 1 = fully sequential). Independent
 *                     games fan out across the pool and each run
 *                     shards its shading work; all statistics are
 *                     bit-identical for any thread count (see
 *                     DESIGN.md "Threading model").
 */

#ifndef WC3D_CORE_RUNNER_HH
#define WC3D_CORE_RUNNER_HH

#include <string>
#include <utility>
#include <vector>

#include "api/apistats.hh"
#include "common/json.hh"
#include "gpu/pipeline.hh"
#include "gpu/simulator.hh"
#include "memory/cache.hh"
#include "stats/series.hh"

namespace wc3d::core {

/** Default frame counts (env-overridable). */
int defaultMicroFrames();
int defaultApiFrames();

/** Result of an API-level (no simulator) run. */
struct ApiRun
{
    std::string id;
    int frames = 0;
    api::ApiStats stats;
    double seconds = 0.0; ///< wall clock of the run; not encoded
};

/**
 * Run timedemo @p id for @p frames frames with no GPU sink.
 * API-level statistics only.
 */
ApiRun runApiLevel(const std::string &id, int frames);

/** Result of a full-pipeline run. */
struct MicroRun
{
    std::string id;
    int frames = 0;
    int width = 0;
    int height = 0;
    gpu::PipelineCounters counters;
    memsys::CacheStats zCache;
    memsys::CacheStats colorCache;
    memsys::CacheStats texL0;
    memsys::CacheStats texL1;
    stats::FrameSeries series;
    double seconds = 0.0; ///< wall clock of the run; not encoded

    /** Framebuffer pixels per frame. */
    std::uint64_t
    pixels() const
    {
        return static_cast<std::uint64_t>(width) * height;
    }

    /** Total pixels over the whole run (overdraw denominators). */
    std::uint64_t
    totalPixels() const
    {
        return pixels() * static_cast<std::uint64_t>(frames);
    }

    /** Average memory traffic per frame in bytes. */
    double
    bytesPerFrame() const
    {
        return frames
            ? static_cast<double>(counters.traffic.total()) / frames
            : 0.0;
    }
};

/** Run timedemo @p id through the full GPU simulator. */
MicroRun runMicroarch(const std::string &id, int frames,
                      int width = 1024, int height = 768);

/** The record of the simulation @p sim after @p frames frames of
 *  timedemo @p id. */
MicroRun collectMicroRun(const std::string &id, int frames,
                         const gpu::GpuSimulator &sim);

/** One statistic of a run record: its key and exact value (a count,
 *  or a double for the ApiStats shader averages). */
using RecordField = std::pair<std::string, json::Value>;

/** The ApiStats aggregates in record order: frames, batches, indices,
 *  indexBytes, stateCalls, primitives per topology (primsTL, primsTS,
 *  primsTF) and the shader averages (vsInstrAvg, fsInstrAvg,
 *  fsTexInstrAvg). */
std::vector<RecordField> apiStatsFields(const api::ApiStats &s);

/** Every counter of @p run in record order: gpu::kCounterFields, the
 *  per-client traffic as read<i>/write<i>, then the four caches as
 *  zc.*, cc.*, t0.* and t1.* (accesses, hits, misses, writebacks). */
std::vector<RecordField> microRunFields(const MicroRun &run);

/** Serialize every statistic of @p run to text, one key=value line per
 *  field and then the per-frame series. Two runs are bit-identical
 *  exactly when their encodings are equal. */
std::string encodeApiRun(const ApiRun &run);

/** The same text for a simulated run: id, frames, width, height,
 *  microRunFields and the series. The goldens and the end-to-end
 *  benchmark digest compare these texts. */
std::string encodeMicroRun(const MicroRun &run);

/**
 * The lines where two encoded records differ, in order: "key:
 * <a_name>=X <b_name>=Y" for a key=value line, "line N: <a_name> 'text'
 * <b_name> 'text'" for any other (a series row, a missing line). Empty
 * exactly when @p a == @p b.
 */
std::vector<std::string> diffRecords(const std::string &a,
                                     const std::string &b,
                                     const std::string &a_name,
                                     const std::string &b_name);

} // namespace wc3d::core

#endif // WC3D_CORE_RUNNER_HH
