/**
 * @file
 * Differential trace replay checking: the correctness tool backing the
 * paper's methodology claim that a recorded timedemo "replays exactly
 * the same input several times". A workload is run live (recording a
 * trace as it goes), the trace is replayed into a fresh Device + GPU
 * simulator, and both sides' run records — the command count and
 * encodeApiRun / encodeMicroRun texts, which hold the full ApiStats,
 * all PipelineCounters, the four cache models and both per-frame series
 * — are diffed line by line with core::diffRecords. A divergence names
 * the record key that differs; any trace IO failure surfaces its
 * TraceError.
 *
 * Exposed as the `wc3d-verify` example binary and the Replay.* ctest
 * targets (see DESIGN.md "Trace format & validation").
 */

#ifndef WC3D_CORE_REPLAY_HH
#define WC3D_CORE_REPLAY_HH

#include <string>
#include <vector>

#include "core/runner.hh"

namespace wc3d::core {

/** Outcome of one record→replay→diff cycle. */
struct ReplayReport
{
    std::string id;
    int frames = 0;
    std::uint64_t commandsRecorded = 0;
    std::uint64_t commandsReplayed = 0;

    /** Trace IO/validation failure ("" when the trace round-tripped). */
    std::string traceError;

    /**
     * Record lines that differ between the live and replayed run, in
     * record order: "key: live=X replay=Y" with the golden key of a
     * simulator counter, "api key: live=X replay=Y" for the command
     * count and ApiStats. Empty when the replay is bit-identical.
     */
    std::vector<std::string> divergences;

    /** Bit-identical replay with no trace errors. */
    bool ok() const { return traceError.empty() && divergences.empty(); }

    /** The first divergent counter (or the trace error), "" when ok. */
    std::string firstDivergence() const;
};

/**
 * Record timedemo @p id for @p frames frames while simulating it,
 * replay the trace through a fresh Device + simulator, and diff every
 * statistic. @p trace_path names the intermediate trace file; when
 * empty a pid-suffixed file in the system temporary directory is used.
 * The trace file is removed afterwards unless @p keep_trace.
 */
ReplayReport replayAndDiff(const std::string &id, int frames,
                           int width = 320, int height = 240,
                           const std::string &trace_path = "",
                           bool keep_trace = false);

} // namespace wc3d::core

#endif // WC3D_CORE_REPLAY_HH
