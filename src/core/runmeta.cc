#include "core/runmeta.hh"

#include <chrono>
#include <cstdio>
#include <thread>

#include <unistd.h>

#include "common/env.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "common/threadpool.hh"
#include "raster/tilegrid.hh"
#include "shader/jit/jit.hh"
#include "stats/jsonio.hh"

namespace wc3d::core {

namespace {

constexpr const char *kSchema = "wc3d-metrics-v1";
/** Minor schema revision: 1 added the host block, 2 the jit block
 *  (older readers that only check the schema tag still accept the
 *  document). */
constexpr std::uint64_t kSchemaMinor = 2;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

json::Value
cacheStatsToJson(const memsys::CacheStats &s)
{
    json::Value out = json::Value::object();
    out.set("accesses", json::Value::number(s.accesses));
    out.set("hits", json::Value::number(s.hits));
    out.set("misses", json::Value::number(s.misses));
    out.set("writebacks", json::Value::number(s.writebacks));
    return out;
}

/** Field list shared by the JSON record and the registry names. */
struct CounterField
{
    const char *name;
    std::uint64_t gpu::PipelineCounters::*member;
};

constexpr CounterField kCounterFields[] = {
    {"indices", &gpu::PipelineCounters::indices},
    {"vertexCacheHits", &gpu::PipelineCounters::vertexCacheHits},
    {"vertexCacheMisses", &gpu::PipelineCounters::vertexCacheMisses},
    {"trianglesAssembled", &gpu::PipelineCounters::trianglesAssembled},
    {"trianglesClipped", &gpu::PipelineCounters::trianglesClipped},
    {"trianglesCulled", &gpu::PipelineCounters::trianglesCulled},
    {"trianglesTraversed", &gpu::PipelineCounters::trianglesTraversed},
    {"rasterQuads", &gpu::PipelineCounters::rasterQuads},
    {"rasterFullQuads", &gpu::PipelineCounters::rasterFullQuads},
    {"rasterFragments", &gpu::PipelineCounters::rasterFragments},
    {"quadsRemovedHz", &gpu::PipelineCounters::quadsRemovedHz},
    {"quadsRemovedZStencil",
     &gpu::PipelineCounters::quadsRemovedZStencil},
    {"quadsRemovedAlpha", &gpu::PipelineCounters::quadsRemovedAlpha},
    {"quadsRemovedColorMask",
     &gpu::PipelineCounters::quadsRemovedColorMask},
    {"quadsBlended", &gpu::PipelineCounters::quadsBlended},
    {"zStencilQuads", &gpu::PipelineCounters::zStencilQuads},
    {"zStencilFullQuads", &gpu::PipelineCounters::zStencilFullQuads},
    {"zStencilFragments", &gpu::PipelineCounters::zStencilFragments},
    {"shadedQuads", &gpu::PipelineCounters::shadedQuads},
    {"shadedFragments", &gpu::PipelineCounters::shadedFragments},
    {"blendedFragments", &gpu::PipelineCounters::blendedFragments},
    {"vertexInstructions", &gpu::PipelineCounters::vertexInstructions},
    {"fragmentInstructions",
     &gpu::PipelineCounters::fragmentInstructions},
    {"fragmentTexInstructions",
     &gpu::PipelineCounters::fragmentTexInstructions},
    {"textureRequests", &gpu::PipelineCounters::textureRequests},
    {"bilinearSamples", &gpu::PipelineCounters::bilinearSamples},
};

json::Value
countersToJson(const gpu::PipelineCounters &c)
{
    json::Value out = json::Value::object();
    for (const auto &field : kCounterFields)
        out.set(field.name, json::Value::number(c.*field.member));
    json::Value read = json::Value::array();
    json::Value write = json::Value::array();
    for (int i = 0; i < memsys::kNumClients; ++i) {
        read.push(json::Value::number(c.traffic.readBytes[i]));
        write.push(json::Value::number(c.traffic.writeBytes[i]));
    }
    json::Value traffic = json::Value::object();
    traffic.set("readBytes", std::move(read));
    traffic.set("writeBytes", std::move(write));
    traffic.set("totalBytes", json::Value::number(c.traffic.total()));
    out.set("traffic", std::move(traffic));
    return out;
}

/** `git describe --always --dirty` of the cwd, or "unknown". */
std::string
gitDescribe()
{
    static const std::string kDescribe = [] {
        std::string out = "unknown";
        std::FILE *p =
            ::popen("git describe --always --dirty 2>/dev/null", "r");
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
 * machine-shaping knobs (resolved WC3D_TILE_SIZE / WC3D_THREADS), so
 * the fleet store can group runs by host.
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
    host.set("tileSize",
             json::Value::number(raster::resolveTileSize(0)));
    host.set("threads",
             json::Value::number(ThreadPool::configuredThreads()));
    return host;
}

} // namespace

RunMeta &
RunMeta::global()
{
    static RunMeta *meta = new RunMeta(); // never destroyed: fan-out
                                          // threads may report late
    return *meta;
}

void
RunMeta::noteApiRun(const ApiRun &run, double seconds)
{
    const api::ApiStats &s = run.stats;

    json::Value record = json::Value::object();
    record.set("kind", json::Value::str("api"));
    record.set("id", json::Value::str(run.id));
    record.set("frames", json::Value::number(run.frames));
    record.set("seconds", json::Value::number(seconds));
    json::Value agg = json::Value::object();
    agg.set("batches", json::Value::number(s.batches()));
    agg.set("indices", json::Value::number(s.indices()));
    agg.set("indexBytes", json::Value::number(s.indexBytes()));
    agg.set("stateCalls", json::Value::number(s.stateCalls()));
    agg.set("primitives", json::Value::number(s.primitives()));
    agg.set("avgBatchesPerFrame",
            json::Value::number(s.avgBatchesPerFrame()));
    agg.set("avgVertexShaderInstructions",
            json::Value::number(s.avgVertexShaderInstructions()));
    agg.set("avgFragmentInstructions",
            json::Value::number(s.avgFragmentInstructions()));
    agg.set("aluToTexRatio", json::Value::number(s.aluToTexRatio()));
    record.set("api", std::move(agg));
    record.set("series", stats::toJson(s.series()));

    std::lock_guard<std::mutex> lock(_mutex);
    std::string prefix = "api." + run.id + ".";
    auto put = [&](const char *name, std::uint64_t v) {
        stats::Counter &c = _registry.counter(prefix + name);
        c.reset();
        c.inc(v);
    };
    put("frames", s.frames());
    put("batches", s.batches());
    put("indices", s.indices());
    put("indexBytes", s.indexBytes());
    put("stateCalls", s.stateCalls());
    put("primitives", s.primitives());
    for (const auto &name : s.series().names()) {
        stats::Distribution &d =
            _registry.distribution(prefix + "series." + name);
        d.reset();
        d.merge(s.series().summary(name));
    }

    std::string key = "api:" + run.id;
    for (auto &existing : _runs) {
        if (existing.first == key) {
            existing.second = std::move(record);
            return;
        }
    }
    _runs.emplace_back(key, std::move(record));
}

void
RunMeta::noteMicroRun(const MicroRun &run, double seconds,
                      bool from_cache)
{
    json::Value record = json::Value::object();
    record.set("kind", json::Value::str("micro"));
    record.set("id", json::Value::str(run.id));
    record.set("frames", json::Value::number(run.frames));
    record.set("width", json::Value::number(run.width));
    record.set("height", json::Value::number(run.height));
    record.set("seconds", json::Value::number(seconds));
    record.set("fromCache", json::Value::boolean(from_cache));
    record.set("counters", countersToJson(run.counters));
    json::Value caches = json::Value::object();
    caches.set("z", cacheStatsToJson(run.zCache));
    caches.set("color", cacheStatsToJson(run.colorCache));
    caches.set("texL0", cacheStatsToJson(run.texL0));
    caches.set("texL1", cacheStatsToJson(run.texL1));
    record.set("caches", std::move(caches));
    record.set("series", stats::toJson(run.series));

    std::lock_guard<std::mutex> lock(_mutex);
    std::string prefix = "sim." + run.id + ".";
    auto put = [&](const std::string &name, std::uint64_t v) {
        stats::Counter &c = _registry.counter(prefix + name);
        c.reset();
        c.inc(v);
    };
    for (const auto &field : kCounterFields)
        put(field.name, run.counters.*field.member);
    put("traffic.readBytes", run.counters.traffic.totalRead());
    put("traffic.writeBytes", run.counters.traffic.totalWrite());
    const std::pair<const char *, const memsys::CacheStats *> caches_kv[] =
        {{"cache.z", &run.zCache},
         {"cache.color", &run.colorCache},
         {"cache.texL0", &run.texL0},
         {"cache.texL1", &run.texL1}};
    for (const auto &kv : caches_kv) {
        put(std::string(kv.first) + ".accesses", kv.second->accesses);
        put(std::string(kv.first) + ".hits", kv.second->hits);
        put(std::string(kv.first) + ".misses", kv.second->misses);
        put(std::string(kv.first) + ".writebacks",
            kv.second->writebacks);
    }
    for (const auto &name : run.series.names()) {
        stats::Distribution &d =
            _registry.distribution(prefix + "series." + name);
        d.reset();
        d.merge(run.series.summary(name));
    }

    std::string key = format("micro:%s:%dx%d:f%d", run.id.c_str(),
                             run.width, run.height, run.frames);
    for (auto &existing : _runs) {
        if (existing.first == key) {
            existing.second = std::move(record);
            return;
        }
    }
    _runs.emplace_back(key, std::move(record));
}

void
RunMeta::notePhase(const std::string &name, double seconds)
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (std::size_t i = 0; i < _phaseOrder.size(); ++i) {
        if (_phaseOrder[i] == name) {
            _phaseSeconds[i] += seconds;
            ++_phaseCalls[i];
            return;
        }
    }
    _phaseOrder.push_back(name);
    _phaseSeconds.push_back(seconds);
    _phaseCalls.push_back(1);
}

void
RunMeta::noteCacheLookup(bool hit)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (hit)
        ++_cacheHits;
    else
        ++_cacheMisses;
}

std::vector<std::string>
RunMeta::counterNames() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _registry.counterNames();
}

std::vector<std::string>
RunMeta::distributionNames() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _registry.distributionNames();
}

std::uint64_t
RunMeta::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _registry.counterValue(name);
}

json::Value
RunMeta::toJson() const
{
    std::lock_guard<std::mutex> lock(_mutex);

    json::Value config = json::Value::object();
    config.set("threads",
               json::Value::number(ThreadPool::global().threads()));
    config.set("configuredThreads",
               json::Value::number(ThreadPool::configuredThreads()));
    config.set("hardwareConcurrency",
               json::Value::number(static_cast<std::uint64_t>(
                   std::thread::hardware_concurrency())));
    config.set("microFrames",
               json::Value::number(defaultMicroFrames()));
    config.set("apiFrames", json::Value::number(defaultApiFrames()));
    json::Value cache = json::Value::object();
    cache.set("hits", json::Value::number(_cacheHits));
    cache.set("misses", json::Value::number(_cacheMisses));
    config.set("runCache", std::move(cache));
    config.set("git", json::Value::str(gitDescribe()));

    json::Value phases = json::Value::array();
    for (std::size_t i = 0; i < _phaseOrder.size(); ++i) {
        json::Value phase = json::Value::object();
        phase.set("name", json::Value::str(_phaseOrder[i]));
        phase.set("seconds", json::Value::number(_phaseSeconds[i]));
        phase.set("calls", json::Value::number(_phaseCalls[i]));
        phases.push(std::move(phase));
    }

    json::Value runs = json::Value::array();
    for (const auto &kv : _runs)
        runs.push(kv.second);

    // Shader JIT compile-time stats: how many programs went native,
    // what the one-time translation cost was, and whether any fell
    // back to the decoded interpreter (published in the CI artifact).
    shader::jit::Stats js = shader::jit::stats();
    json::Value jit = json::Value::object();
    jit.set("available", json::Value::boolean(shader::jit::available()));
    jit.set("enabled", json::Value::boolean(shader::jit::enabled()));
    jit.set("programsCompiled", json::Value::number(js.programsCompiled));
    jit.set("compileSeconds", json::Value::number(js.compileSeconds));
    jit.set("fallbacks", json::Value::number(js.fallbacks));
    jit.set("codeBytes", json::Value::number(js.codeBytes));

    json::Value doc = json::Value::object();
    doc.set("schema", json::Value::str(kSchema));
    doc.set("schemaMinor", json::Value::number(kSchemaMinor));
    doc.set("host", hostInfoJson());
    doc.set("jit", std::move(jit));
    doc.set("config", std::move(config));
    doc.set("phases", std::move(phases));
    doc.set("runs", std::move(runs));
    doc.set("registry", stats::toJson(_registry));
    return doc;
}

bool
RunMeta::write(const std::string &path, std::string *error) const
{
    return json::writeFileAtomic(path, toJson().serialize(1) + "\n",
                                 error);
}

bool
RunMeta::writeIfRequested() const
{
    std::string path = metricsPath();
    if (path.empty())
        return false;
    std::string error;
    if (!write(path, &error)) {
        warn("metrics export failed: %s", error.c_str());
        return false;
    }
    return true;
}

void
RunMeta::reset()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _registry = stats::Registry();
    _runs.clear();
    _phaseOrder.clear();
    _phaseSeconds.clear();
    _phaseCalls.clear();
    _cacheHits = 0;
    _cacheMisses = 0;
}

std::string
metricsPath()
{
    return envString("WC3D_METRICS_OUT", "");
}

std::string
hostFingerprint(const json::Value &doc)
{
    const json::Value *host = doc.find("host");
    if (!host || !host->isObject())
        return "unknown";
    const json::Value *name = host->find("hostname");
    const json::Value *hw = host->find("hardwareThreads");
    if (!name || !name->isString() || name->asString().empty())
        return "unknown";
    return format("%s/%llu", name->asString().c_str(),
                  static_cast<unsigned long long>(
                      hw && hw->isNumber() ? hw->asU64() : 0));
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
    // schemaMinor is optional: minor 0 documents predate the host
    // block, minor >= 1 documents must carry one. Both validate.
    const json::Value *minor = doc.find("schemaMinor");
    std::uint64_t minor_rev = 0;
    if (minor) {
        if (!minor->isNumber())
            return fail("schemaMinor is not numeric");
        minor_rev = minor->asU64();
    }
    const json::Value *host = doc.find("host");
    if (minor_rev >= 1 && (!host || !host->isObject()))
        return fail("schemaMinor >= 1 but host block missing");
    if (host) {
        if (!host->isObject())
            return fail("host is not an object");
        const json::Value *hostname = host->find("hostname");
        const json::Value *hw = host->find("hardwareThreads");
        if (!hostname || !hostname->isString() ||
            hostname->asString().empty())
            return fail("host.hostname missing");
        if (!hw || !hw->isNumber())
            return fail("host.hardwareThreads missing");
    }
    // jit block is optional (minor < 2 documents predate it); when
    // present it must carry the compile counters.
    const json::Value *jit = doc.find("jit");
    if (jit) {
        if (!jit->isObject())
            return fail("jit is not an object");
        const json::Value *compiled = jit->find("programsCompiled");
        const json::Value *fallbacks = jit->find("fallbacks");
        if (!compiled || !compiled->isNumber())
            return fail("jit.programsCompiled missing");
        if (!fallbacks || !fallbacks->isNumber())
            return fail("jit.fallbacks missing");
    }
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
        if (kind->asString() == "micro") {
            const json::Value *counters = run.find("counters");
            if (!counters || !counters->isObject())
                return fail(format("micro run %zu lacks counters", i));
        }
    }
    const json::Value *registry = doc.find("registry");
    if (!registry || !registry->isObject())
        return fail("missing registry object");
    const json::Value *counters = registry->find("counters");
    const json::Value *dists = registry->find("distributions");
    if (!counters || !counters->isObject())
        return fail("registry.counters missing");
    if (!dists || !dists->isObject())
        return fail("registry.distributions missing");
    for (const auto &member : counters->members()) {
        if (!member.second.isNumber())
            return fail(format("registry counter '%s' is not numeric",
                               member.first.c_str()));
    }
    for (const auto &member : dists->members()) {
        if (!member.second.isObject() ||
            !member.second.find("mean") ||
            !member.second.find("count")) {
            return fail(format(
                "registry distribution '%s' lacks count/mean",
                member.first.c_str()));
        }
    }
    return true;
}

PhaseTimer::PhaseTimer(std::string name)
    : _name(std::move(name)), _start(nowSeconds())
{
}

PhaseTimer::~PhaseTimer()
{
    RunMeta::global().notePhase(_name, nowSeconds() - _start);
}

} // namespace wc3d::core
