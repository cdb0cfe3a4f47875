/**
 * @file
 * Run manifest and machine-readable metrics export.
 *
 * Every runner entry point (runApiLevel, runMicroarch and their
 * fan-out wrappers) reports its results to the process-global RunMeta
 * collector, which keeps one record per run and the wall clock per
 * phase. When WC3D_METRICS_OUT=<file> is set, each completed run
 * atomically rewrites that file with one canonical JSON document
 * (schema wc3d-metrics-v2): host, config (frames, threads, git
 * describe of the source tree), phase wall-clocks and one record per
 * run. A record's `api` or `counters` object is the run's field list
 * (core::apiStatsFields / core::microRunFields), so its keys and values
 * are the lines of encodeApiRun / encodeMicroRun and of the goldens.
 * obs_lint validates this artifact and prints its phase breakdown;
 * tests/test_observability.cc validates its schema.
 */

#ifndef WC3D_CORE_RUNMETA_HH
#define WC3D_CORE_RUNMETA_HH

#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/runner.hh"

namespace wc3d::core {

/** Process-global collector behind WC3D_METRICS_OUT. */
class RunMeta
{
  public:
    static RunMeta &global();

    /** Record a completed API-level run (replaces a same-id record). */
    void noteApiRun(const ApiRun &run, double seconds);

    /** Record a completed microarchitectural run. */
    void noteMicroRun(const MicroRun &run, double seconds);

    /** Accumulate @p seconds of wall clock under phase @p name. */
    void notePhase(const std::string &name, double seconds);

    /** The full metrics document. */
    json::Value toJson() const;

    /**
     * Serialize to @p path (durable atomic write, pretty-printed).
     * Short writes and ENOSPC come back as structured errors via the
     * faultio-checked helper; an existing manifest is never truncated.
     */
    bool write(const std::string &path,
               std::string *error = nullptr) const;

    /**
     * Write to the WC3D_METRICS_OUT path when that knob is set.
     * @return true when a document was written.
     */
    bool writeIfRequested() const;

    /** Drop all recorded runs and phases (tests). */
    void reset();

  private:
    RunMeta() = default;

    /** Store @p record under @p key, replacing a same-key record. */
    void noteRun(const std::string &key, json::Value record);

    mutable std::mutex _mutex;
    std::vector<std::pair<std::string, json::Value>> _runs; // key -> record
    std::vector<std::string> _phaseOrder;
    std::vector<double> _phaseSeconds;
    std::vector<std::uint64_t> _phaseCalls;
};

/** The WC3D_METRICS_OUT path ("" when unset). */
std::string metricsPath();

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

/** RAII wall-clock accumulator for one RunMeta phase. */
class PhaseTimer
{
  public:
    explicit PhaseTimer(std::string name);
    ~PhaseTimer();

    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    std::string _name;
    double _start;
};

} // namespace wc3d::core

#endif // WC3D_CORE_RUNMETA_HH
