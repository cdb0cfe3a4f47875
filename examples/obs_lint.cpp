/**
 * @file
 * Validate observability artifacts: a Chrome trace written via
 * WC3D_TRACE_OUT, a metrics manifest written via WC3D_METRICS_OUT,
 * and/or a whole fleet store directory. Used by CI after a traced
 * simulation run.
 *
 *   obs_lint [--trace trace.json] [--metrics metrics.json]
 *            [--fleet DIR] [--expect-span NAME]...
 *
 * --expect-span asserts the trace contains at least one complete span
 * with the given name (repeatable). CI uses it to prove the pipeline
 * phases it cares about — e.g. the tile-parallel back-end's raster.bin
 * / raster.tile / raster.merge — actually emitted spans, instead of
 * silently validating a trace that no longer covers them.
 *
 * Exits 0 when every given file parses and passes structural
 * validation (spans nest, schema present, counters numeric, expected
 * spans present); exits 1 with a diagnostic otherwise.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/prof.hh"
#include "core/runmeta.hh"
#include "fleet/store.hh"

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
    const json::Value *runs = doc.find("runs");
    const json::Value *reg = doc.find("registry");
    const json::Value *counters = reg ? reg->find("counters") : nullptr;
    std::printf("%s: valid metrics manifest, %zu runs, %zu counters\n",
                path.c_str(), runs ? runs->size() : 0,
                counters ? counters->members().size() : 0);
    return true;
}

/** Store-consistency mode: open the fleet store and run check(). */
bool
lintFleet(const std::string &dir)
{
    fleet::FleetStore store(dir);
    fleet::FleetError err;
    if (!store.open(&err)) {
        std::fprintf(stderr, "obs_lint: %s\n",
                     err.describe().c_str());
        return false;
    }
    std::vector<std::string> problems;
    if (!store.check(&problems)) {
        for (const std::string &p : problems)
            std::fprintf(stderr, "obs_lint: %s: %s\n", dir.c_str(),
                         p.c_str());
        return false;
    }
    std::printf("%s: consistent fleet store, %zu entries\n",
                dir.c_str(), store.entries().size());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_path;
    std::string metrics_path;
    std::string fleet_dir;
    std::vector<std::string> expect_spans;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics") == 0 &&
                   i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (std::strcmp(argv[i], "--fleet") == 0 &&
                   i + 1 < argc) {
            fleet_dir = argv[++i];
        } else if (std::strcmp(argv[i], "--expect-span") == 0 &&
                   i + 1 < argc) {
            expect_spans.push_back(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: obs_lint [--trace file] "
                         "[--metrics file] [--fleet dir] "
                         "[--expect-span NAME]...\n");
            return 1;
        }
    }
    if (trace_path.empty() && metrics_path.empty() &&
        fleet_dir.empty()) {
        std::fprintf(stderr,
                     "obs_lint: nothing to validate (pass --trace, "
                     "--metrics and/or --fleet)\n");
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
    if (!fleet_dir.empty())
        ok = lintFleet(fleet_dir) && ok;
    return ok ? 0 : 1;
}
