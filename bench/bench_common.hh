/**
 * @file
 * Shared infrastructure for the per-table/per-figure bench binaries.
 *
 * Each binary reproduces one table or figure of the paper: it prints
 * the reproduced table to stdout (the deliverable), then registers
 * google-benchmark cases whose user counters carry the same values so
 * the numbers appear in machine-readable benchmark output too. The
 * timed region measures statistic extraction; the heavy simulation runs
 * once per (game, frames, resolution) and is memoized on disk by
 * core::runMicroarch, so a full bench sweep costs one simulation per
 * game in total.
 *
 * Environment: WC3D_FRAMES (microarch), WC3D_API_FRAMES (API tables),
 * WC3D_FIG_FRAMES (figure series), WC3D_NO_CACHE, WC3D_CACHE_DIR,
 * WC3D_FIG_DIR (CSV output directory, default "wc3d-figures").
 */

#ifndef WC3D_BENCH_COMMON_HH
#define WC3D_BENCH_COMMON_HH

#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>
#include <sys/stat.h>

#include <benchmark/benchmark.h>

#include "common/env.hh"
#include "common/json.hh"
#include "core/apilevel.hh"
#include "core/buses.hh"
#include "core/microarch.hh"
#include "core/runner.hh"
#include "workloads/games.hh"

namespace wc3d::bench {

/** API-level runs of all twelve games, computed once per process. */
inline const std::vector<core::ApiRun> &
sharedApiRuns()
{
    static const std::vector<core::ApiRun> kRuns =
        core::runAllGamesApi(core::defaultApiFrames());
    return kRuns;
}

/** Full-pipeline runs of the three simulated OGL games (disk-cached). */
inline const std::vector<core::MicroRun> &
sharedMicroRuns()
{
    static const std::vector<core::MicroRun> kRuns =
        core::runSimulatedGames(core::defaultMicroFrames());
    return kRuns;
}

/** Frames used for figure series. */
inline int
figureFrames()
{
    return envInt("WC3D_FIG_FRAMES", 600);
}

/** Directory for figure CSVs (created on demand). */
inline std::string
figureDir()
{
    std::string dir = envString("WC3D_FIG_DIR", "wc3d-figures");
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

/** Print the reproduced table with a header. */
inline void
printTable(const char *title, const stats::Table &table)
{
    std::printf("\n=== %s ===\n%s\n", title, table.toString().c_str());
    std::fflush(stdout);
}

/** Write a CSV file and report where it went. */
inline void
writeCsv(const std::string &name, const std::string &csv)
{
    std::string path = figureDir() + "/" + name;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f) {
        std::fwrite(csv.data(), 1, csv.size(), f);
        std::fclose(f);
        std::printf("series written to %s\n", path.c_str());
    }
}

/** First "model name" line of /proc/cpuinfo, or "unknown". */
inline std::string
cpuModelName()
{
    std::FILE *f = std::fopen("/proc/cpuinfo", "r");
    if (!f)
        return "unknown";
    char line[512];
    std::string model = "unknown";
    while (std::fgets(line, sizeof line, f)) {
        std::string s = line;
        if (s.rfind("model name", 0) == 0) {
            std::size_t colon = s.find(':');
            if (colon != std::string::npos) {
                std::size_t begin = s.find_first_not_of(" \t", colon + 1);
                std::size_t end = s.find_last_not_of(" \t\n");
                if (begin != std::string::npos && end >= begin)
                    model = s.substr(begin, end - begin + 1);
            }
            break;
        }
    }
    std::fclose(f);
    return model;
}

/**
 * Host fingerprint stored alongside wall times (bench/e2e), so a reader
 * can tell whether absolute seconds from two documents are comparable.
 */
inline json::Value
hostFingerprint()
{
    json::Value host = json::Value::object();
    host.set("cpu", json::Value::str(cpuModelName()));
    host.set("threads",
             json::Value::number(static_cast<int>(
                 std::thread::hardware_concurrency())));
    return host;
}

/**
 * Inject default google-benchmark flags — currently a warm-up period
 * for every registered case — unless the caller supplied their own on
 * the command line. Storage is static: call once from main().
 */
inline char **
patchedBenchArgs(int *argc, char **argv)
{
    static std::vector<std::string> storage;
    static std::vector<char *> ptrs;
    storage.assign(argv, argv + *argc);
    bool has_warmup = false;
    for (const std::string &a : storage) {
        if (a.rfind("--benchmark_min_warmup_time", 0) == 0)
            has_warmup = true;
    }
    if (!has_warmup)
        storage.push_back("--benchmark_min_warmup_time=0.05");
    ptrs.clear();
    for (std::string &s : storage)
        ptrs.push_back(s.data());
    *argc = static_cast<int>(ptrs.size());
    ptrs.push_back(nullptr);
    return ptrs.data();
}

} // namespace wc3d::bench

/**
 * Standard main: print the deliverable first, then run benchmarks (with
 * a default warm-up period injected for every case).
 */
#define WC3D_BENCH_MAIN(print_fn)                                        \
    int                                                                  \
    main(int argc, char **argv)                                          \
    {                                                                    \
        char **wc3d_bench_argv =                                         \
            ::wc3d::bench::patchedBenchArgs(&argc, argv);                \
        ::benchmark::Initialize(&argc, wc3d_bench_argv);                 \
        print_fn();                                                      \
        ::benchmark::RunSpecifiedBenchmarks();                           \
        ::benchmark::Shutdown();                                         \
        return 0;                                                        \
    }

#endif // WC3D_BENCH_COMMON_HH
