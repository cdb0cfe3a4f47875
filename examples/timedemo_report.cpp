/**
 * @file
 * Reproduces the paper: every table and figure summary on stdout, and
 * the results CSV (one record per table cell), the run manifest
 * (metrics.json) and the figure series CSVs in one directory.
 *
 *     ./timedemo_report                  # everything; files in wc3d-results/
 *     ./timedemo_report --out DIR        # the same, files in DIR
 *     ./timedemo_report --ablation hz    # or vertex-cache
 *     ./timedemo_report doom3/trdemo2    # one game
 *     ./timedemo_report --list           # available timedemo ids
 *
 * WC3D_FRAMES / WC3D_API_FRAMES / WC3D_FIG_FRAMES control run lengths.
 * A file that cannot be written ends the run with its reason and exit
 * status 1.
 */

#include <cstdio>
#include <string>

#include "common/fs.hh"
#include "core/report.hh"
#include "workloads/games.hh"

using namespace wc3d;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: timedemo_report [--out DIR]\n"
                 "       timedemo_report --ablation hz|vertex-cache\n"
                 "       timedemo_report <timedemo id> | --list\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_dir;
    std::string ablation;
    std::string id;
    bool list = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list")
            list = true;
        else if (arg == "--out" && i + 1 < argc)
            out_dir = argv[++i];
        else if (arg == "--ablation" && i + 1 < argc)
            ablation = argv[++i];
        else if (arg.rfind("-", 0) != 0 && id.empty())
            id = arg;
        else
            return usage();
    }
    if (list + !ablation.empty() + !id.empty() + !out_dir.empty() > 1)
        return usage();

    if (list) {
        std::printf("available timedemos:\n");
        for (const auto &demo : workloads::allTimedemoIds()) {
            bool simulated = false;
            for (const auto &s : workloads::simulatedTimedemoIds())
                simulated |= s == demo;
            std::printf("  %-28s %s\n", demo.c_str(),
                        simulated ? "(simulated at uarch level)" : "");
        }
        return 0;
    }

    if (ablation == "hz") {
        std::fputs(core::hzAblationReport().c_str(), stdout);
        return 0;
    }
    if (ablation == "vertex-cache") {
        std::fputs(core::vertexCacheAblationReport().c_str(), stdout);
        return 0;
    }
    if (!ablation.empty()) {
        std::fprintf(stderr, "unknown ablation '%s' (hz, vertex-cache)\n",
                     ablation.c_str());
        return 2;
    }

    if (!id.empty()) {
        if (!workloads::isTimedemoId(id)) {
            std::fprintf(stderr,
                         "unknown timedemo '%s' (try --list)\n",
                         id.c_str());
            return 1;
        }
        std::fputs(core::gameReport(id).c_str(), stdout);
        return 0;
    }

    if (out_dir.empty())
        out_dir = "wc3d-results";
    // Fail before the runs, not after them.
    if (!makeDirs(out_dir)) {
        std::fprintf(stderr, "cannot create output directory '%s'\n",
                     out_dir.c_str());
        return 1;
    }
    core::Report report = core::fullReport();
    std::fputs(report.text.c_str(), stdout);
    std::fflush(stdout);
    std::string error;
    if (!core::writeReportFiles(report, out_dir, &error)) {
        std::fprintf(stderr, "writing results failed: %s\n",
                     error.c_str());
        return 1;
    }
    std::printf("results.csv, metrics.json and %zu figure series "
                "written to %s/\n",
                report.files.size() - 2, out_dir.c_str());
    return 0;
}
