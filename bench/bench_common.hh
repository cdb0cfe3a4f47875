/**
 * @file
 * Host description for benchmark documents (bench/e2e), and
 * google-benchmark's DoNotOptimize for the unit probes.
 */

#ifndef WC3D_BENCH_COMMON_HH
#define WC3D_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <thread>

#include <benchmark/benchmark.h>

#include "common/json.hh"

namespace wc3d::bench {

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

} // namespace wc3d::bench

#endif // WC3D_BENCH_COMMON_HH
