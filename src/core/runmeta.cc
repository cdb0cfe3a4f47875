#include "core/runmeta.hh"

#include <algorithm>
#include <cstdio>
#include <thread>

#include <unistd.h>

#include "common/strutil.hh"
#include "common/threadpool.hh"
#include "stats/jsonio.hh"

namespace wc3d::core {

namespace {

constexpr const char *kSchema = "wc3d-metrics-v2";

json::Value
fieldsToJson(const std::vector<RecordField> &fields)
{
    json::Value out = json::Value::object();
    for (const auto &[key, value] : fields)
        out.set(key, value);
    return out;
}

/** Quote @p s as one POSIX shell word. */
std::string
shellQuote(const std::string &s)
{
    std::string out = "'";
    for (char c : s)
        out += c == '\'' ? std::string("'\\''") : std::string(1, c);
    return out + "'";
}

/** `git describe --always --dirty` of the source tree this binary was
 *  built from (whatever the working directory), or "unknown" when that
 *  tree is not a git checkout. */
std::string
gitDescribe()
{
    static const std::string kDescribe = [] {
        std::string out = "unknown";
        std::string cmd = "git -C " + shellQuote(WC3D_SOURCE_DIR) +
                          " describe --always --dirty 2>/dev/null";
        std::FILE *p = ::popen(cmd.c_str(), "r");
        if (!p)
            return out;
        char buf[256];
        std::string raw;
        while (std::fgets(buf, sizeof(buf), p))
            raw += buf;
        int status = ::pclose(p);
        std::string described = trim(raw);
        if (status == 0 && !described.empty())
            out = described;
        return out;
    }();
    return kDescribe;
}

/**
 * The manifest `host` block: hostname, hardware threads and the
 * resolved WC3D_THREADS, so two manifests say whether they came from
 * comparable machines.
 */
json::Value
hostInfoJson()
{
    char name[256] = {};
    if (::gethostname(name, sizeof(name) - 1) != 0)
        std::snprintf(name, sizeof(name), "unknown");
    json::Value host = json::Value::object();
    host.set("hostname", json::Value::str(name));
    host.set("hardwareThreads",
             json::Value::number(static_cast<std::uint64_t>(
                 std::thread::hardware_concurrency())));
    host.set("threads",
             json::Value::number(ThreadPool::configuredThreads()));
    return host;
}

json::Value
apiRecord(const ApiRun &run)
{
    json::Value record = json::Value::object();
    record.set("kind", json::Value::str("api"));
    record.set("id", json::Value::str(run.id));
    record.set("frames", json::Value::number(run.frames));
    record.set("seconds", json::Value::number(run.seconds));
    record.set("api", fieldsToJson(apiStatsFields(run.stats)));
    record.set("series", stats::toJson(run.stats.series()));
    return record;
}

json::Value
microRecord(const MicroRun &run)
{
    json::Value record = json::Value::object();
    record.set("kind", json::Value::str("micro"));
    record.set("id", json::Value::str(run.id));
    record.set("frames", json::Value::number(run.frames));
    record.set("width", json::Value::number(run.width));
    record.set("height", json::Value::number(run.height));
    record.set("seconds", json::Value::number(run.seconds));
    record.set("counters", fieldsToJson(microRunFields(run)));
    record.set("series", stats::toJson(run.series));
    return record;
}

} // namespace

json::Value
metricsDocument(const std::vector<ApiRun> &api_runs,
                const std::vector<MicroRun> &micro_runs,
                const std::vector<RunPhase> &phases)
{
    json::Value config = json::Value::object();
    config.set("threads",
               json::Value::number(ThreadPool::global().threads()));
    config.set("configuredThreads",
               json::Value::number(ThreadPool::configuredThreads()));
    config.set("hardwareConcurrency",
               json::Value::number(static_cast<std::uint64_t>(
                   std::thread::hardware_concurrency())));
    config.set("microFrames",
               json::Value::number(
                   micro_runs.empty() ? 0 : micro_runs.front().frames));
    config.set("apiFrames",
               json::Value::number(
                   api_runs.empty() ? 0 : api_runs.front().frames));
    config.set("git", json::Value::str(gitDescribe()));

    json::Value phase_list = json::Value::array();
    for (const RunPhase &p : phases) {
        json::Value phase = json::Value::object();
        phase.set("name", json::Value::str(p.name));
        phase.set("seconds", json::Value::number(p.seconds));
        phase.set("calls", json::Value::number(1));
        phase_list.push(std::move(phase));
    }

    json::Value runs = json::Value::array();
    for (const ApiRun &run : api_runs)
        runs.push(apiRecord(run));
    for (const MicroRun &run : micro_runs)
        runs.push(microRecord(run));

    json::Value doc = json::Value::object();
    doc.set("schema", json::Value::str(kSchema));
    doc.set("host", hostInfoJson());
    doc.set("config", std::move(config));
    doc.set("phases", std::move(phase_list));
    doc.set("runs", std::move(runs));
    return doc;
}

bool
validateMetrics(const json::Value &doc, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = "metrics: " + why;
        return false;
    };

    if (!doc.isObject())
        return fail("document is not an object");
    const json::Value *schema = doc.find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != kSchema) {
        return fail(format("missing or wrong schema tag (want '%s')",
                           kSchema));
    }
    const json::Value *host = doc.find("host");
    if (!host || !host->isObject())
        return fail("missing host object");
    const json::Value *hostname = host->find("hostname");
    const json::Value *hw = host->find("hardwareThreads");
    if (!hostname || !hostname->isString() || hostname->asString().empty())
        return fail("host.hostname missing");
    if (!hw || !hw->isNumber())
        return fail("host.hardwareThreads missing");
    const json::Value *config = doc.find("config");
    if (!config || !config->isObject())
        return fail("missing config object");
    const json::Value *threads = config->find("threads");
    if (!threads || !threads->isNumber())
        return fail("config.threads missing");
    const json::Value *git = config->find("git");
    if (!git || !git->isString() || git->asString().empty())
        return fail("config.git missing");
    const json::Value *runs = doc.find("runs");
    if (!runs || !runs->isArray())
        return fail("missing runs array");
    for (std::size_t i = 0; i < runs->size(); ++i) {
        const json::Value &run = runs->at(i);
        const json::Value *kind = run.find("kind");
        const json::Value *id = run.find("id");
        if (!run.isObject() || !kind || !kind->isString() || !id ||
            !id->isString()) {
            return fail(format("run %zu lacks kind/id", i));
        }
        if (kind->asString() != "api" && kind->asString() != "micro")
            return fail(format("run %zu: unknown kind '%s'", i,
                               kind->asString().c_str()));
        const char *block =
            kind->asString() == "micro" ? "counters" : "api";
        const json::Value *fields = run.find(block);
        if (!fields || !fields->isObject())
            return fail(format("run %zu lacks %s", i, block));
        for (const auto &member : fields->members()) {
            if (!member.second.isNumber())
                return fail(format("run %zu: '%s' is not numeric", i,
                                   member.first.c_str()));
        }
    }
    return true;
}

std::vector<PhaseShare>
phaseBreakdown(const json::Value &doc)
{
    std::vector<PhaseShare> out;
    const json::Value *phases = doc.find("phases");
    if (!phases || !phases->isArray())
        return out;
    double total = 0.0;
    for (const json::Value &phase : phases->items()) {
        const json::Value *name = phase.find("name");
        const json::Value *seconds = phase.find("seconds");
        if (!name || !name->isString() || !seconds ||
            !seconds->isNumber())
            continue;
        const json::Value *calls = phase.find("calls");
        out.push_back(PhaseShare{
            name->asString(), seconds->asDouble(),
            calls && calls->isNumber() ? calls->asU64() : 0, 0.0});
        total += out.back().seconds;
    }
    for (PhaseShare &row : out)
        row.fraction = total > 0.0 ? row.seconds / total : 0.0;
    // Stable: phases with equal seconds keep their manifest order.
    std::stable_sort(out.begin(), out.end(),
                     [](const PhaseShare &a, const PhaseShare &b) {
                         return a.seconds > b.seconds;
                     });
    return out;
}

} // namespace wc3d::core
