/**
 * @file
 * wc3d-fleet: the fleet metrics store CLI.
 *
 *     ./wc3d-fleet [--dir DIR] ingest FILE...
 *     ./wc3d-fleet [--dir DIR] list
 *     ./wc3d-fleet [--dir DIR] query --phases SEQ
 *     ./wc3d-fleet [--dir DIR] query --counters SEQ [--prefix P]
 *     ./wc3d-fleet [--dir DIR] query --regress BASE CUR
 *           [--threshold F] [--prefix P]
 *     ./wc3d-fleet [--dir DIR] report [--out PATH]
 *     ./wc3d-fleet [--dir DIR] check [--repair]
 *
 * The store directory defaults to WC3D_FLEET_DIR (".wc3d-fleet").
 * Exit codes are a CI contract: 0 = ok, 1 = operational error,
 * 2 = usage, 3 = regression (query --regress) or store inconsistency
 * (check) detected — so `wc3d-fleet query --regress BASE CUR` can fail
 * a CI step on counter drift. --threshold takes a finite relative bound
 * >= 0 (0.05 = 5%); anything else ("5%", "junk") is a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/json.hh"
#include "fleet/query.hh"
#include "fleet/report.hh"
#include "fleet/store.hh"

using namespace wc3d;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: wc3d-fleet [--dir DIR] COMMAND\n"
        "  ingest FILE...                  add metrics manifests\n"
        "  list                            show every index entry\n"
        "  query --phases SEQ              per-stage time breakdown\n"
        "  query --counters SEQ [--prefix P]\n"
        "                                  flattened counter view\n"
        "  query --regress BASE CUR [--threshold F] [--prefix P]\n"
        "                                  counter drift gate (exit 3 "
        "on drift);\n"
        "                                  F is a relative bound >= 0, "
        "default 0.05\n"
        "  report [--out PATH]             self-contained HTML report\n"
        "  check [--repair]                store consistency (exit 3 "
        "on problems);\n"
        "                                  --repair quarantines bad "
        "blobs and prunes\n"
        "                                  the index, then re-checks\n");
    return 2;
}

/** Parse a 1-based sequence number; 0 = invalid. */
std::uint64_t
parseSeq(const char *s)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (!end || *end != '\0' || v == 0)
        return 0;
    return static_cast<std::uint64_t>(v);
}

int
cmdIngest(fleet::FleetStore &store,
          const std::vector<std::string> &files)
{
    if (files.empty())
        return usage();
    int failures = 0;
    for (const std::string &path : files) {
        fleet::FleetError err;
        auto rc = store.ingestFile(path, &err);
        switch (rc) {
        case fleet::FleetStore::IngestResult::Added:
            std::printf("ingested %s as #%llu\n", path.c_str(),
                        static_cast<unsigned long long>(
                            store.entries().back().seq));
            break;
        case fleet::FleetStore::IngestResult::Duplicate:
            std::printf("duplicate %s (already stored)\n",
                        path.c_str());
            break;
        case fleet::FleetStore::IngestResult::Error:
            std::fprintf(stderr, "error: %s\n",
                         err.describe().c_str());
            ++failures;
            break;
        }
    }
    return failures ? 1 : 0;
}

int
cmdList(const fleet::FleetStore &store)
{
    for (const fleet::IndexEntry &e : store.entries()) {
        std::string demos;
        for (const std::string &d : e.demos) {
            if (!demos.empty())
                demos += ",";
            demos += d;
        }
        std::printf("#%-4llu git=%s config=%s host=%s "
                    "demos=%s source=%s\n",
                    static_cast<unsigned long long>(e.seq), e.git.c_str(),
                    e.config.c_str(), e.host.c_str(),
                    demos.empty() ? "-" : demos.c_str(),
                    e.source.c_str());
    }
    std::printf("%zu entries in %s\n", store.entries().size(),
                store.dir().c_str());
    return 0;
}

/** Resolve + load one entry or explain why not. */
bool
loadSeq(const fleet::FleetStore &store, std::uint64_t seq,
        const fleet::IndexEntry **entry, json::Value &doc)
{
    *entry = store.entry(seq);
    if (!*entry) {
        std::fprintf(stderr, "error: no entry #%llu in %s\n",
                     static_cast<unsigned long long>(seq),
                     store.dir().c_str());
        return false;
    }
    fleet::FleetError err;
    if (!store.loadEntry(**entry, doc, &err)) {
        std::fprintf(stderr, "error: %s\n", err.describe().c_str());
        return false;
    }
    return true;
}

int
cmdPhases(const fleet::FleetStore &store, std::uint64_t seq)
{
    const fleet::IndexEntry *entry = nullptr;
    json::Value doc;
    if (!loadSeq(store, seq, &entry, doc))
        return 1;
    auto stages = fleet::stageBreakdown(doc);
    if (stages.empty()) {
        std::printf("#%llu: no phase clock in this document\n",
                    static_cast<unsigned long long>(seq));
        return 0;
    }
    std::printf("#%llu git=%s host=%s\n",
                static_cast<unsigned long long>(seq),
                entry->git.c_str(), entry->host.c_str());
    for (const fleet::StageBreakdown &s : stages)
        std::printf("  %-24s %10.6fs %8llu calls  %5.1f%%\n",
                    s.name.c_str(), s.seconds,
                    static_cast<unsigned long long>(s.calls),
                    s.fraction * 100.0);
    return 0;
}

int
cmdCounters(const fleet::FleetStore &store, std::uint64_t seq,
            const std::string &prefix)
{
    const fleet::IndexEntry *entry = nullptr;
    json::Value doc;
    if (!loadSeq(store, seq, &entry, doc))
        return 1;
    std::size_t shown = 0;
    for (const auto &kv : fleet::flattenCounters(doc)) {
        if (!prefix.empty() &&
            kv.first.compare(0, prefix.size(), prefix) != 0)
            continue;
        std::printf("  %-48s %.6g\n", kv.first.c_str(), kv.second);
        ++shown;
    }
    std::printf("%zu counter(s)\n", shown);
    return 0;
}

int
cmdRegress(const fleet::FleetStore &store, std::uint64_t base_seq,
           std::uint64_t cur_seq, double threshold,
           const std::string &prefix)
{
    const fleet::IndexEntry *base_e = nullptr;
    const fleet::IndexEntry *cur_e = nullptr;
    json::Value base_doc, cur_doc;
    if (!loadSeq(store, base_seq, &base_e, base_doc) ||
        !loadSeq(store, cur_seq, &cur_e, cur_doc))
        return 1;
    std::vector<fleet::Drift> exceeded;
    std::vector<std::string> only_base, only_cur;
    std::size_t compared =
        fleet::compareCounters(base_doc, cur_doc, threshold, prefix,
                               &exceeded, &only_base, &only_cur);
    std::printf("compared %zu counter(s), threshold %.3g "
                "(#%llu %s -> #%llu %s)\n",
                compared, threshold,
                static_cast<unsigned long long>(base_seq),
                base_e->git.c_str(),
                static_cast<unsigned long long>(cur_seq),
                cur_e->git.c_str());
    for (const std::string &name : only_base)
        std::printf("  only in base: %s\n", name.c_str());
    for (const std::string &name : only_cur)
        std::printf("  only in current: %s\n", name.c_str());
    for (const fleet::Drift &d : exceeded)
        std::printf("  DRIFT %-44s %.6g -> %.6g (%+.1f%%)\n",
                    d.name.c_str(), d.base, d.cur,
                    (d.cur - d.base) /
                        (d.base != 0.0 ? d.base : 1.0) * 100.0);
    if (!exceeded.empty()) {
        std::printf("%zu counter(s) beyond threshold\n",
                    exceeded.size());
        return 3;
    }
    std::printf("no drift beyond threshold\n");
    return 0;
}

int
cmdReport(const fleet::FleetStore &store, const std::string &out)
{
    fleet::FleetError err;
    std::string html = fleet::renderHtmlReport(store, &err);
    if (html.empty()) {
        std::fprintf(stderr, "error: %s\n", err.describe().c_str());
        return 1;
    }
    std::string error;
    if (!json::writeFileAtomic(out, html, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    std::printf("report written to %s (%zu entries, %zu bytes)\n",
                out.c_str(), store.entries().size(), html.size());
    return 0;
}

int
cmdCheck(fleet::FleetStore &store, bool repair)
{
    std::vector<std::string> problems;
    if (store.check(&problems)) {
        std::printf("store %s is consistent (%zu entries)\n",
                    store.dir().c_str(), store.entries().size());
        return 0;
    }
    for (const std::string &p : problems)
        std::fprintf(stderr, "problem: %s\n", p.c_str());
    std::fprintf(stderr, "%zu problem(s) in %s\n", problems.size(),
                 store.dir().c_str());
    if (!repair)
        return 3;

    std::vector<std::string> actions;
    fleet::FleetError err;
    if (!store.repair(&actions, &err)) {
        std::fprintf(stderr, "error: %s\n", err.describe().c_str());
        return 1;
    }
    for (const std::string &a : actions)
        std::printf("repair: %s\n", a.c_str());
    problems.clear();
    if (store.check(&problems)) {
        std::printf("store %s repaired (%zu entries kept, %zu "
                    "action(s))\n",
                    store.dir().c_str(), store.entries().size(),
                    actions.size());
        return 0;
    }
    for (const std::string &p : problems)
        std::fprintf(stderr, "still broken: %s\n", p.c_str());
    return 3;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir = fleet::fleetDir();
    int i = 1;
    if (i + 1 < argc && std::strcmp(argv[i], "--dir") == 0) {
        dir = argv[i + 1];
        i += 2;
    }
    if (i >= argc)
        return usage();
    std::string cmd = argv[i++];

    fleet::FleetStore store(dir);
    fleet::FleetError err;
    if (!store.open(&err)) {
        std::fprintf(stderr, "error: %s\n", err.describe().c_str());
        return 1;
    }

    if (cmd == "ingest") {
        std::vector<std::string> files(argv + i, argv + argc);
        return cmdIngest(store, files);
    }
    if (cmd == "list") {
        return i == argc ? cmdList(store) : usage();
    }
    if (cmd == "query") {
        std::string mode;
        std::vector<std::uint64_t> seqs;
        double threshold = 0.05;
        std::string prefix;
        for (; i < argc; ++i) {
            const char *arg = argv[i];
            const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
            if (std::strcmp(arg, "--phases") == 0 ||
                std::strcmp(arg, "--counters") == 0 ||
                std::strcmp(arg, "--regress") == 0) {
                if (!mode.empty())
                    return usage();
                mode = arg + 2;
            } else if (std::strcmp(arg, "--threshold") == 0 && val) {
                if (!parseDouble(val, &threshold) || threshold < 0.0)
                    return usage();
                ++i;
            } else if (std::strcmp(arg, "--prefix") == 0 && val) {
                prefix = val;
                ++i;
            } else {
                std::uint64_t seq = parseSeq(arg);
                if (seq == 0)
                    return usage();
                seqs.push_back(seq);
            }
        }
        if (mode == "phases" && seqs.size() == 1)
            return cmdPhases(store, seqs[0]);
        if (mode == "counters" && seqs.size() == 1)
            return cmdCounters(store, seqs[0], prefix);
        if (mode == "regress" && seqs.size() == 2)
            return cmdRegress(store, seqs[0], seqs[1], threshold,
                              prefix);
        return usage();
    }
    if (cmd == "report") {
        std::string out = "fleet-report.html";
        if (i + 1 < argc && std::strcmp(argv[i], "--out") == 0) {
            out = argv[i + 1];
            i += 2;
        }
        return i == argc ? cmdReport(store, out) : usage();
    }
    if (cmd == "check") {
        bool repair = false;
        if (i < argc && std::strcmp(argv[i], "--repair") == 0) {
            repair = true;
            ++i;
        }
        return i == argc ? cmdCheck(store, repair) : usage();
    }
    return usage();
}
