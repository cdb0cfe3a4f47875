/**
 * @file
 * The run manifest: one machine-readable document per report.
 *
 * metricsDocument() is a pure function of the runs a report made and
 * the wall clock of its run sets; core::fullReport returns it as
 * `metrics.json`, one more of its files, written once beside
 * `results.csv`. The document (schema wc3d-metrics-v2) holds host,
 * config (frames, threads, git describe of the source tree), phase
 * wall-clocks and one record per run, the API runs first and then the
 * simulated ones, each in the order given. A record's `api` or
 * `counters` object is the run's field list (core::apiStatsFields /
 * core::microRunFields), so its keys and values are the lines of
 * encodeApiRun / encodeMicroRun and of the goldens. obs_lint validates
 * this artifact and prints its phase breakdown;
 * tests/test_observability.cc validates its schema.
 */

#ifndef WC3D_CORE_RUNMETA_HH
#define WC3D_CORE_RUNMETA_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "core/runner.hh"

namespace wc3d::core {

/** The wall clock of one timed run set (one call). */
struct RunPhase
{
    std::string name;
    double seconds = 0.0;
};

/**
 * The wc3d-metrics-v2 document of @p api_runs, then @p micro_runs, and
 * the phase clock @p phases. config.apiFrames / microFrames are the
 * frames of the first run of each kind (0 when there is none).
 */
json::Value metricsDocument(const std::vector<ApiRun> &api_runs,
                            const std::vector<MicroRun> &micro_runs,
                            const std::vector<RunPhase> &phases);

/**
 * Structural validation of a parsed metrics document: schema tag, host
 * and config blocks, and runs whose `api` / `counters` fields are all
 * numeric.
 */
bool validateMetrics(const json::Value &doc, std::string *error);

/** One row of a manifest's `phases` with its share of their total. */
struct PhaseShare
{
    std::string name;
    double seconds = 0.0;
    std::uint64_t calls = 0;
    double fraction = 0.0;
};

/**
 * The `phases` of metrics document @p doc, descending by seconds.
 * Rows without a name or seconds are skipped; empty when the document
 * carries no phase clock.
 */
std::vector<PhaseShare> phaseBreakdown(const json::Value &doc);

} // namespace wc3d::core

#endif // WC3D_CORE_RUNMETA_HH
