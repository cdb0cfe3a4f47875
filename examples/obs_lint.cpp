/**
 * @file
 * Validate observability artifacts: a Chrome trace written via
 * WC3D_TRACE_OUT and/or the metrics manifest timedemo_report writes
 * as metrics.json into its --out directory. Used by CI after a traced
 * report run.
 *
 *   obs_lint [--trace trace.json] [--metrics metrics.json]
 *            [--expect-span NAME]...
 *
 * --expect-span asserts the trace contains at least one complete span
 * with the given name (repeatable). CI uses it to prove the pipeline
 * phases it cares about — e.g. the tile-parallel back-end's raster.bin
 * / raster.tile / raster.merge — actually emitted spans, instead of
 * silently validating a trace that no longer covers them.
 *
 * Exits 0 when every given file parses and passes structural
 * validation (spans nest, schema present, counters numeric, expected
 * spans present); exits 1 with a diagnostic otherwise. A valid
 * manifest's summary line counts its runs by kind ("12 api, 3 micro
 * runs"); its phase breakdown follows, one row per phase (name,
 * seconds, calls, share of the total), longest first.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/prof.hh"
#include "core/runmeta.hh"

using namespace wc3d;

namespace {

/** Count complete ("ph":"X") span events named @p name. */
std::size_t
countSpans(const json::Value &doc, const std::string &name)
{
    const json::Value *events = doc.find("traceEvents");
    if (!events || !events->isArray())
        return 0;
    std::size_t n = 0;
    for (const json::Value &event : events->items()) {
        const json::Value *ph = event.find("ph");
        const json::Value *ev_name = event.find("name");
        if (ph && ev_name && ph->asString() == "X" &&
            ev_name->asString() == name) {
            ++n;
        }
    }
    return n;
}

bool
lintTrace(const std::string &path,
          const std::vector<std::string> &expect_spans)
{
    json::Value doc;
    std::string error;
    if (!json::parseFile(path, doc, &error)) {
        std::fprintf(stderr, "obs_lint: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    std::size_t events = 0;
    if (!prof::validateChromeTrace(doc, &error, &events)) {
        std::fprintf(stderr, "obs_lint: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    std::printf("%s: valid Chrome trace, %zu span events\n",
                path.c_str(), events);
    bool ok = true;
    for (const std::string &name : expect_spans) {
        std::size_t n = countSpans(doc, name);
        if (n == 0) {
            std::fprintf(stderr,
                         "obs_lint: %s: expected span '%s' not found\n",
                         path.c_str(), name.c_str());
            ok = false;
        } else {
            std::printf("%s: span '%s' present (%zu events)\n",
                        path.c_str(), name.c_str(), n);
        }
    }
    return ok;
}

bool
lintMetrics(const std::string &path)
{
    json::Value doc;
    std::string error;
    if (!json::parseFile(path, doc, &error)) {
        std::fprintf(stderr, "obs_lint: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    if (!core::validateMetrics(doc, &error)) {
        std::fprintf(stderr, "obs_lint: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    std::size_t api = 0;
    std::size_t micro = 0;
    for (const json::Value &run : doc.find("runs")->items())
        ++(run.find("kind")->asString() == "api" ? api : micro);
    std::printf("%s: valid metrics manifest, %zu api, %zu micro runs\n",
                path.c_str(), api, micro);
    for (const core::PhaseShare &p : core::phaseBreakdown(doc))
        std::printf("  %-24s %10.6fs %8llu calls  %5.1f%%\n",
                    p.name.c_str(), p.seconds,
                    static_cast<unsigned long long>(p.calls),
                    p.fraction * 100.0);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_path;
    std::string metrics_path;
    std::vector<std::string> expect_spans;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics") == 0 &&
                   i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (std::strcmp(argv[i], "--expect-span") == 0 &&
                   i + 1 < argc) {
            expect_spans.push_back(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: obs_lint [--trace file] "
                         "[--metrics file] "
                         "[--expect-span NAME]...\n");
            return 1;
        }
    }
    if (trace_path.empty() && metrics_path.empty()) {
        std::fprintf(stderr,
                     "obs_lint: nothing to validate (pass --trace "
                     "and/or --metrics)\n");
        return 1;
    }
    if (trace_path.empty() && !expect_spans.empty()) {
        std::fprintf(stderr,
                     "obs_lint: --expect-span requires --trace\n");
        return 1;
    }
    bool ok = true;
    if (!trace_path.empty())
        ok = lintTrace(trace_path, expect_spans) && ok;
    if (!metrics_path.empty())
        ok = lintMetrics(metrics_path) && ok;
    return ok ? 0 : 1;
}
