/**
 * @file
 * Experiment runners: execute a synthetic timedemo at the API level
 * (statistics only) or through the full GPU simulator. Workloads and
 * the simulator are deterministic, so a run's results depend only on
 * (id, frames, resolution).
 *
 * Environment knobs:
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
#include <vector>

#include "api/apistats.hh"
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

/** Convenience: microarch runs for the three simulated OGL games. */
std::vector<MicroRun> runSimulatedGames(int frames);

/** Convenience: API runs for all twelve games. */
std::vector<ApiRun> runAllGamesApi(int frames);

/** Serialize every statistic of @p run to text. Two runs are
 *  bit-identical exactly when their encodings are equal, so the
 *  goldens and the end-to-end benchmark digest compare these. */
std::string encodeMicroRun(const MicroRun &run);

} // namespace wc3d::core

#endif // WC3D_CORE_RUNNER_HH
