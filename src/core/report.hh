/**
 * @file
 * Whole-paper characterization report: runs the workloads once and
 * renders every reproduced table and figure summary in paper order,
 * plus the files that go with them (one results CSV with a record per
 * table cell, the run manifest and the figure series). The
 * timedemo_report example is its command line; EXPERIMENTS.md is
 * regenerated from its output.
 */

#ifndef WC3D_CORE_REPORT_HH
#define WC3D_CORE_REPORT_HH

#include <string>
#include <vector>

namespace wc3d::core {

/** Options for a full report. */
struct ReportOptions
{
    int apiFrames = 0;    ///< 0: defaultApiFrames()
    int microFrames = 0;  ///< 0: defaultMicroFrames()
    int figureFrames = 0; ///< 0: defaultFigureFrames()
    bool includeMicroarch = true;
};

/** Frames of the API-level figure series (WC3D_FIG_FRAMES, 600). */
int defaultFigureFrames();

/** One output file, named relative to the report's directory. */
struct ReportFile
{
    std::string name;
    std::string content;
};

/** Everything one reproduce run produces. */
struct Report
{
    /** Every table and figure summary, as printed. */
    std::string text;
    /**
     * "results.csv" (table,row,column,value: one record per data cell,
     * the row named by the cell in its first column), "metrics.json"
     * (the run manifest of the table runs, core/runmeta), then
     * "<id>_api.csv" per figure game and "<id>_micro.csv" per simulated
     * game, '/' in ids written as '_'.
     */
    std::vector<ReportFile> files;
};

/**
 * Run the figure set, the API-level set and (unless disabled) the
 * microarchitectural set once each, in that order, and render them.
 * Each set fans out on the global pool and is timed as one phase of
 * the manifest (figure_runs, api_runs, micro_runs).
 */
Report fullReport(const ReportOptions &options = ReportOptions{});

/**
 * Durably write every file of @p report into directory @p dir, creating
 * it with its parents. @return false at the first failure, with
 * @p error naming the path and the reason.
 */
bool writeReportFiles(const Report &report, const std::string &dir,
                      std::string *error);

/** Render the characterization of a single timedemo. */
std::string gameReport(const std::string &id,
                       const ReportOptions &options = ReportOptions{});

/** Hierarchical Z off / max-only / min-max on doom3/trdemo2. */
std::string hzAblationReport();

/** Post-transform vertex cache size sweep on ut2004/primeval. */
std::string vertexCacheAblationReport();

} // namespace wc3d::core

#endif // WC3D_CORE_REPORT_HH
