/**
 * @file
 * Observability layer: the JSON model round-trips exactly, Chrome
 * traces written by common/prof parse and validate (spans nest, no
 * negative durations), spans leave every statistic bit-identical, the
 * run manifest carries each run's record
 * exactly as encodeApiRun / encodeMicroRun print it, and concurrent
 * log writers do not race.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/log.hh"
#include "common/prof.hh"
#include "common/strutil.hh"
#include "common/threadpool.hh"
#include "core/runmeta.hh"
#include "core/runner.hh"

using namespace wc3d;
using namespace wc3d::core;

namespace {

/** Tiny run: correctness of the export, not workload scale. */
constexpr int kFrames = 1;
constexpr int kWidth = 96;
constexpr int kHeight = 64;

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

/** The bytes of file @p path into @p out; false when it cannot open. */
bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    char buf[4096];
    std::size_t n;
    out.clear();
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return true;
}

/** Restores prof recording state and buffers around a test. */
class ProfSandbox
{
  public:
    ProfSandbox() : _wasEnabled(prof::enabled())
    {
        prof::reset();
        prof::setEnabled(true);
    }

    ~ProfSandbox()
    {
        prof::setEnabled(_wasEnabled);
        prof::reset();
    }

  private:
    bool _wasEnabled;
};

} // namespace

// --- JSON model ----------------------------------------------------

TEST(Json, SerializeParseRoundTrip)
{
    json::Value doc = json::Value::object();
    doc.set("u", json::Value::number(std::uint64_t(18446744073709551615ull)));
    doc.set("i", json::Value::number(std::int64_t(-42)));
    doc.set("d", json::Value::number(1.5));
    doc.set("s", json::Value::str("a \"quoted\"\nline\t\\"));
    doc.set("b", json::Value::boolean(true));
    doc.set("n", json::Value::null());
    json::Value arr = json::Value::array();
    arr.push(json::Value::number(1));
    arr.push(json::Value::number(2.25));
    arr.push(json::Value::str("x"));
    doc.set("a", std::move(arr));

    for (int indent : {0, 2}) {
        json::Value back;
        std::string error;
        ASSERT_TRUE(json::parse(doc.serialize(indent), back, &error))
            << error;
        EXPECT_EQ(back.find("u")->asU64(), 18446744073709551615ull);
        EXPECT_EQ(back.find("i")->asI64(), -42);
        EXPECT_EQ(back.find("d")->asDouble(), 1.5);
        EXPECT_EQ(back.find("s")->asString(), "a \"quoted\"\nline\t\\");
        EXPECT_TRUE(back.find("b")->asBool());
        EXPECT_TRUE(back.find("n")->isNull());
        ASSERT_EQ(back.find("a")->size(), 3u);
        EXPECT_EQ(back.find("a")->at(1).asDouble(), 2.25);
        // Exact integers stay integers and doubles stay doubles.
        EXPECT_EQ(back.find("u")->type(), json::Value::Type::Unsigned);
        EXPECT_EQ(back.find("i")->type(), json::Value::Type::Signed);
        EXPECT_EQ(back.find("d")->type(), json::Value::Type::Double);
    }
}

TEST(Json, MemberOrderPreservedAndReplaced)
{
    json::Value doc = json::Value::object();
    doc.set("z", json::Value::number(1));
    doc.set("a", json::Value::number(2));
    doc.set("z", json::Value::number(3)); // replaces, keeps position
    ASSERT_EQ(doc.members().size(), 2u);
    EXPECT_EQ(doc.members()[0].first, "z");
    EXPECT_EQ(doc.members()[0].second.asU64(), 3u);
    EXPECT_EQ(doc.serialize(), "{\"z\":3,\"a\":2}");
}

TEST(Json, RejectsMalformedInput)
{
    const char *bad[] = {"",      "{",      "[1,]",      "{\"a\":}",
                         "nulll", "\"open", "{\"a\" 1}", "[1 2]",
                         "--1"};
    for (const char *text : bad) {
        json::Value out;
        std::string error;
        EXPECT_FALSE(json::parse(text, out, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
    // Trailing garbage after a valid document is an error too.
    json::Value out;
    std::string error;
    EXPECT_FALSE(json::parse("{} x", out, &error));
}

TEST(Json, NonFiniteDoublesSerializeAsNull)
{
    json::Value doc = json::Value::array();
    doc.push(json::Value::number(0.0 / 0.0));
    doc.push(json::Value::number(1e308 * 10));
    EXPECT_EQ(doc.serialize(), "[null,null]");
}

TEST(Json, AtomicFileWriteAndParseFile)
{
    std::string path = tempPath("wc3d_json_roundtrip.json");
    json::Value doc = json::Value::object();
    doc.set("hello", json::Value::str("world"));
    std::string error;
    ASSERT_TRUE(json::writeFileAtomic(path, doc.serialize(1), &error))
        << error;
    json::Value back;
    ASSERT_TRUE(json::parseFile(path, back, &error)) << error;
    EXPECT_EQ(back.find("hello")->asString(), "world");
    std::remove(path.c_str());

    EXPECT_FALSE(json::parseFile(tempPath("wc3d_no_such_file.json"),
                                 back, &error));
    EXPECT_FALSE(json::writeFileAtomic(
        tempPath("no_such_dir/sub/x.json"), "{}", &error));
}

// --- Chrome trace export -------------------------------------------

TEST(Prof, DisabledSpansRecordNothing)
{
    bool was = prof::enabled();
    prof::setEnabled(false);
    prof::reset();
    {
        WC3D_PROF_SCOPE("never.recorded");
    }
    EXPECT_EQ(prof::eventCount(), 0u);
    prof::setEnabled(was);
}

TEST(Prof, TraceValidatesAndNests)
{
    ProfSandbox sandbox;
    {
        prof::ScopedProcess process(7, "unit-test");
        WC3D_PROF_SCOPE("outer");
        {
            WC3D_PROF_SCOPE("inner", "detail");
        }
        {
            WC3D_PROF_SCOPE("inner", "again");
        }
    }
    EXPECT_EQ(prof::eventCount(), 3u);

    std::string path = tempPath("wc3d_prof_unit.json");
    std::string error;
    ASSERT_TRUE(prof::writeChromeTrace(path, &error)) << error;
    json::Value doc;
    ASSERT_TRUE(json::parseFile(path, doc, &error)) << error;
    std::size_t events = 0;
    EXPECT_TRUE(prof::validateChromeTrace(doc, &error, &events))
        << error;
    EXPECT_EQ(events, 3u);
    std::remove(path.c_str());

    // The detail form labels the event "name:detail".
    bool found = false;
    for (const json::Value &e : doc.find("traceEvents")->items()) {
        const json::Value *name = e.find("name");
        if (name && name->asString() == "inner:detail")
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Prof, SimulationTraceValidates)
{
    ProfSandbox sandbox;
    ThreadPool::setGlobalThreads(2);
    runMicroarch("doom3/trdemo2", kFrames, kWidth, kHeight);
    ThreadPool::setGlobalThreads(1);
    ASSERT_GT(prof::eventCount(), 0u);

    std::string path = tempPath("wc3d_prof_sim.json");
    std::string error;
    ASSERT_TRUE(prof::writeChromeTrace(path, &error)) << error;
    json::Value doc;
    ASSERT_TRUE(json::parseFile(path, doc, &error)) << error;
    std::size_t events = 0;
    EXPECT_TRUE(prof::validateChromeTrace(doc, &error, &events))
        << error;
    EXPECT_GT(events, 0u);
    std::remove(path.c_str());
}

TEST(Prof, TracedSimulationIsBitIdenticalToUntraced)
{
    // The same simulation with spans off and on: the whole run record
    // (every counter, cache model and per-frame series) must be
    // bit-identical.
    constexpr int width = 160;
    constexpr int height = 120;
    bool was = prof::enabled();
    ThreadPool::setGlobalThreads(4);
    prof::setEnabled(false);
    MicroRun off = runMicroarch("doom3/trdemo2", kFrames, width, height);
    prof::reset();
    prof::setEnabled(true);
    MicroRun on = runMicroarch("doom3/trdemo2", kFrames, width, height);
    prof::setEnabled(was);
    prof::reset();
    ThreadPool::setGlobalThreads(1);

    for (const std::string &d : diffRecords(
             encodeMicroRun(on), encodeMicroRun(off), "traced", "untraced"))
        ADD_FAILURE() << d;
}

TEST(Prof, ValidatorRejectsBrokenTraces)
{
    std::string error;
    json::Value doc;

    ASSERT_TRUE(json::parse("{\"traceEvents\":1}", doc, &error));
    EXPECT_FALSE(prof::validateChromeTrace(doc, &error));

    // Negative duration.
    ASSERT_TRUE(json::parse(
        "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\",\"pid\":0,"
        "\"tid\":1,\"ts\":5,\"dur\":-1}]}",
        doc, &error));
    EXPECT_FALSE(prof::validateChromeTrace(doc, &error));

    // Partial overlap within one lane: begin/end were unbalanced.
    ASSERT_TRUE(json::parse(
        "{\"traceEvents\":["
        "{\"ph\":\"X\",\"name\":\"a\",\"pid\":0,\"tid\":1,\"ts\":0,"
        "\"dur\":10},"
        "{\"ph\":\"X\",\"name\":\"b\",\"pid\":0,\"tid\":1,\"ts\":5,"
        "\"dur\":10}]}",
        doc, &error));
    EXPECT_FALSE(prof::validateChromeTrace(doc, &error));

    // Missing a required field.
    ASSERT_TRUE(json::parse(
        "{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"a\",\"pid\":0,"
        "\"ts\":0,\"dur\":1}]}",
        doc, &error));
    EXPECT_FALSE(prof::validateChromeTrace(doc, &error));
}

// --- Run metrics ---------------------------------------------------

namespace {

/** @p record's @p block object as the key=value lines it holds. */
std::vector<std::string>
recordLines(const json::Value &record, const char *block)
{
    std::vector<std::string> lines;
    const json::Value *fields = record.find(block);
    if (!fields)
        return lines;
    for (const auto &[key, value] : fields->members())
        lines.push_back(key + "=" + value.serialize());
    return lines;
}

/** Whole lines of @p text that hold a key=value pair. */
std::vector<std::string>
keyLines(const std::string &text)
{
    std::vector<std::string> lines;
    for (const std::string &line : split(text, '\n')) {
        if (line.find('=') != std::string::npos)
            lines.push_back(line);
    }
    return lines;
}

} // namespace

TEST(Manifest, MetricsDocumentRoundTripsEveryRunRecord)
{
    ThreadPool::setGlobalThreads(1);
    ApiRun api = runApiLevel("quake4/demo4", 4);
    MicroRun micro = runMicroarch("doom3/trdemo2", kFrames, kWidth, kHeight);
    EXPECT_GT(api.seconds, 0.0);
    EXPECT_GT(micro.seconds, 0.0);

    std::string path = tempPath("wc3d_metrics_unit.json");
    std::string error;
    ASSERT_TRUE(json::writeFileAtomic(
        path, metricsDocument({api}, {micro}, {}).serialize(1), &error))
        << error;
    json::Value doc;
    ASSERT_TRUE(json::parseFile(path, doc, &error)) << error;
    EXPECT_TRUE(validateMetrics(doc, &error)) << error;
    std::remove(path.c_str());
    EXPECT_EQ(doc.find("schema")->asString(), "wc3d-metrics-v2");
    EXPECT_EQ(doc.find("registry"), nullptr);
    EXPECT_EQ(doc.find("schemaMinor"), nullptr);

    // Each record's fields, read back, are the key=value lines of the
    // run's encoding in order (after its id, and frames/width/height
    // for a simulated run), with the exact values.
    const json::Value *runs = doc.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->size(), 2u);
    std::vector<std::string> want = keyLines(encodeApiRun(api));
    want.erase(want.begin()); // id
    EXPECT_EQ(recordLines(runs->at(0), "api"), want);
    want = keyLines(encodeMicroRun(micro));
    want.erase(want.begin(), want.begin() + 4); // id, frames, width, height
    EXPECT_EQ(recordLines(runs->at(1), "counters"), want);
    EXPECT_NE(runs->at(1).find("counters")->find("vcacheHits"), nullptr);
    EXPECT_NE(runs->at(1).find("counters")->find("zc.accesses"), nullptr);
    EXPECT_EQ(runs->at(0).find("seconds")->asDouble(), api.seconds);
    EXPECT_EQ(runs->at(1).find("seconds")->asDouble(), micro.seconds);

    // Config section carries the run shape: the frames actually run.
    const json::Value *config = doc.find("config");
    ASSERT_NE(config, nullptr);
    EXPECT_NE(config->find("threads"), nullptr);
    EXPECT_NE(config->find("git"), nullptr);
    EXPECT_EQ(config->find("apiFrames")->asU64(), 4u);
    EXPECT_EQ(config->find("microFrames")->asU64(),
              static_cast<std::uint64_t>(kFrames));

    EXPECT_EQ(metricsDocument({}, {}, {}).find("runs")->size(), 0u);
}

TEST(Manifest, ValidatorRejectsBrokenDocuments)
{
    std::string error;
    json::Value doc;
    ASSERT_TRUE(json::parse("{}", doc, &error));
    EXPECT_FALSE(validateMetrics(doc, &error));
    ASSERT_TRUE(json::parse("{\"schema\":\"other\"}", doc, &error));
    EXPECT_FALSE(validateMetrics(doc, &error));
}

// The manifest must identify where it was produced: a v2 document
// without its host block, or any v1 document, is rejected.
TEST(Manifest, HostBlockVersioningAndValidation)
{
    json::Value doc = metricsDocument({}, {}, {});
    std::string error;
    ASSERT_TRUE(validateMetrics(doc, &error)) << error;

    EXPECT_EQ(doc.find("schema")->asString(), "wc3d-metrics-v2");
    const json::Value *host = doc.find("host");
    ASSERT_NE(host, nullptr);
    ASSERT_TRUE(host->isObject());
    ASSERT_NE(host->find("hostname"), nullptr);
    EXPECT_FALSE(host->find("hostname")->asString().empty());
    ASSERT_NE(host->find("hardwareThreads"), nullptr);
    EXPECT_TRUE(host->find("hardwareThreads")->isNumber());

    json::Value v1 = doc;
    v1.set("schema", json::Value::str("wc3d-metrics-v1"));
    EXPECT_FALSE(validateMetrics(v1, &error));
    EXPECT_NE(error.find("schema"), std::string::npos);

    json::Value no_host = json::Value::object();
    for (const auto &member : doc.members()) {
        if (member.first != "host")
            no_host.set(member.first, member.second);
    }
    EXPECT_FALSE(validateMetrics(no_host, &error));
    EXPECT_NE(error.find("host"), std::string::npos);

    json::Value anon = doc;
    json::Value bad_host = json::Value::object();
    bad_host.set("hostname", json::Value::str(""));
    bad_host.set("hardwareThreads", json::Value::number(8));
    anon.set("host", std::move(bad_host));
    EXPECT_FALSE(validateMetrics(anon, &error));
    EXPECT_NE(error.find("hostname"), std::string::npos);

    json::Value no_hw = doc;
    json::Value host2 = json::Value::object();
    host2.set("hostname", json::Value::str("h"));
    no_hw.set("host", std::move(host2));
    EXPECT_FALSE(validateMetrics(no_hw, &error));
    EXPECT_NE(error.find("hardwareThreads"), std::string::npos);
}

namespace {

/** `git describe --always --dirty` run in the current directory. */
std::string
describeCwd()
{
    std::string out;
    std::FILE *p = ::popen("git describe --always --dirty 2>/dev/null", "r");
    if (!p)
        return "unknown";
    char buf[256];
    while (std::fgets(buf, sizeof(buf), p))
        out += buf;
    int status = ::pclose(p);
    out = trim(out);
    return status == 0 && !out.empty() ? out : "unknown";
}

} // namespace

TEST(Manifest, ConfigGitNamesTheSourceTreeFromAnyDirectory)
{
    // The first manifest of this process is built from a temporary
    // directory outside the checkout; its config.git must still
    // describe the source tree the binary was built from.
    char cwd[4096];
    ASSERT_NE(::getcwd(cwd, sizeof(cwd)), nullptr);
    std::string dir = ::testing::TempDir();
    ASSERT_EQ(::chdir(dir.c_str()), 0) << dir;
    json::Value doc = metricsDocument({}, {}, {});
    ASSERT_EQ(::chdir(WC3D_SOURCE_DIR), 0);
    std::string expected = describeCwd();
    ASSERT_EQ(::chdir(cwd), 0);

    EXPECT_EQ(doc.find("config")->find("git")->asString(), expected);
}

TEST(Manifest, PhaseBreakdownSortsAndFractions)
{
    json::Value doc = json::Value::object();
    json::Value phases = json::Value::array();
    const struct
    {
        const char *name;
        double seconds;
        std::uint64_t calls;
    } rows[] = {{"shade", 0.25, 20}, {"raster", 0.75, 10}};
    for (const auto &row : rows) {
        json::Value phase = json::Value::object();
        phase.set("name", json::Value::str(row.name));
        phase.set("seconds", json::Value::number(row.seconds));
        phase.set("calls", json::Value::number(row.calls));
        phases.push(std::move(phase));
    }
    doc.set("phases", std::move(phases));
    auto breakdown = phaseBreakdown(doc);
    ASSERT_EQ(breakdown.size(), 2u);
    // Descending by seconds, fractions of the total.
    EXPECT_EQ(breakdown[0].name, "raster");
    EXPECT_DOUBLE_EQ(breakdown[0].seconds, 0.75);
    EXPECT_DOUBLE_EQ(breakdown[0].fraction, 0.75);
    EXPECT_EQ(breakdown[0].calls, 10u);
    EXPECT_EQ(breakdown[1].name, "shade");
    EXPECT_DOUBLE_EQ(breakdown[1].fraction, 0.25);
    // A document without a phase clock has no breakdown.
    doc.set("phases", json::Value::null());
    EXPECT_TRUE(phaseBreakdown(doc).empty());
}

// --- Log writers ---------------------------------------------------

TEST(Log, ConcurrentWritersDoNotRace)
{
    // The 800 lines go to stderr; a data race in the writer trips TSan.
    std::atomic<int> go{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&go] {
            ++go;
            while (go.load() < 4) {
            }
            for (int i = 0; i < 200; ++i)
                warn("thread message %d", i);
        });
    }
    for (auto &t : threads)
        t.join();
}

// A process killed by SIGTERM/SIGINT must still leave a valid trace:
// the std::atexit writer never runs on a signal death, so
// prof::installSignalFlush() is the only thing standing between an
// interrupted run and a silently empty trace file. Forks a traced
// child, kills it, and validates what it left behind. The child also
// writes the same events through the regular writer first: both
// writers share one serializer, so the two files are byte-identical.
TEST(Prof, SignalTerminationStillFlushesTrace)
{
    static const char *const kProcessName = "game \"q\" \\ \t\x01";
    std::string trace_path = tempPath("wc3d_signal_trace.json");
    std::string explicit_path = tempPath("wc3d_signal_explicit.json");
    std::string ready_path = tempPath("wc3d_signal_ready");
    std::remove(trace_path.c_str());
    std::remove(explicit_path.c_str());
    std::remove(ready_path.c_str());

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: record spans, mark readiness, then idle until the
        // parent's SIGTERM arrives. _exit on any escape path — the
        // child must never return into gtest.
        setenv("WC3D_TRACE_OUT", trace_path.c_str(), 1);
        prof::reset();
        prof::setEnabled(true);
        prof::installSignalFlush();
        for (int i = 0; i < 50; ++i) {
            WC3D_PROF_SCOPE("signal.span");
        }
        {
            // Every escape class: quote, backslash, the short control
            // escapes and a \u00XX one.
            prof::ScopedProcess process(9, kProcessName);
            WC3D_PROF_SCOPE("signal.escaped", "a\nb\rc");
        }
        if (!prof::writeChromeTrace(explicit_path))
            ::_exit(4);
        std::FILE *f = std::fopen(ready_path.c_str(), "wb");
        if (f) {
            std::fputc('1', f);
            std::fclose(f);
        }
        for (;;)
            ::pause();
        ::_exit(3); // unreachable
    }

    // Wait for the child to finish recording (up to 10 s).
    bool ready = false;
    for (int i = 0; i < 1000 && !ready; ++i) {
        std::FILE *f = std::fopen(ready_path.c_str(), "rb");
        if (f) {
            ready = true;
            std::fclose(f);
        } else {
            ::usleep(10 * 1000);
        }
    }
    ASSERT_TRUE(ready) << "traced child never became ready";

    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    // The handler must re-raise with default disposition, so the
    // child reads as killed-by-SIGTERM, not a normal exit.
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGTERM);

    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parseFile(trace_path, doc, &error)) << error;
    std::size_t events = 0;
    EXPECT_TRUE(prof::validateChromeTrace(doc, &error, &events))
        << error;
    EXPECT_GE(events, 51u);

    std::string signal_text;
    std::string explicit_text;
    ASSERT_TRUE(readFile(trace_path, signal_text));
    ASSERT_TRUE(readFile(explicit_path, explicit_text));
    EXPECT_EQ(signal_text, explicit_text);
    // Names are spelled as json::escape spells them.
    for (const char *name : {kProcessName, "signal.escaped:a\nb\rc"}) {
        std::string quoted = "\"name\":\"" + json::escape(name) + "\"";
        EXPECT_NE(explicit_text.find(quoted), std::string::npos) << quoted;
    }

    std::remove(trace_path.c_str());
    std::remove(explicit_path.c_str());
    std::remove(ready_path.c_str());
}
