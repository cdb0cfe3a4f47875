/**
 * @file
 * Run manifest and machine-readable metrics export.
 *
 * Every runner entry point (runApiLevel, runMicroarch and their
 * fan-out wrappers) reports its results to the process-global RunMeta
 * collector: per-run statistics land in a stats::Registry under
 * hierarchical names ("sim.<id>.indices", "api.<id>.batches",
 * "sim.<id>.series.<name>") and wall-clock per phase accumulates
 * alongside. When WC3D_METRICS_OUT=<file> is set, each completed run
 * atomically rewrites that file with one canonical JSON document:
 * config (frames, threads, git describe), phase wall-clocks, one record per run (full
 * PipelineCounters / ApiStats / cache models) and a complete dump of
 * the registry. obs_lint validates this artifact and prints its phase
 * breakdown; tests/test_observability.cc validates its schema.
 */

#ifndef WC3D_CORE_RUNMETA_HH
#define WC3D_CORE_RUNMETA_HH

#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/runner.hh"
#include "stats/registry.hh"

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

    /** @name Registry snapshot (copies; safe against concurrent runs) */
    /// @{
    std::vector<std::string> counterNames() const;
    std::vector<std::string> distributionNames() const;
    std::uint64_t counterValue(const std::string &name) const;
    /// @}

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

    /** Drop all recorded runs, phases and registry entries (tests). */
    void reset();

  private:
    RunMeta() = default;

    mutable std::mutex _mutex;
    stats::Registry _registry;
    std::vector<std::pair<std::string, json::Value>> _runs; // key -> record
    std::vector<std::string> _phaseOrder;
    std::vector<double> _phaseSeconds;
    std::vector<std::uint64_t> _phaseCalls;
};

/** The WC3D_METRICS_OUT path ("" when unset). */
std::string metricsPath();

/**
 * Structural validation of a parsed metrics document: schema tag,
 * config/runs/registry sections, every registry counter numeric.
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
