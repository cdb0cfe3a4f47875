/**
 * @file
 * Tests for the report module: the per-game and whole-paper reports,
 * including a full microarchitectural run at one frame, and the
 * results files they write, the run manifest among them.
 */

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/faultio.hh"
#include "common/json.hh"
#include "common/strutil.hh"
#include "common/threadpool.hh"
#include "core/apilevel.hh"
#include "core/report.hh"
#include "core/runmeta.hh"
#include "core/runner.hh"
#include "workloads/games.hh"

using namespace wc3d;
using namespace wc3d::core;

namespace {

std::string
readAllOf(const std::string &path)
{
    std::string out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

const ReportFile *
findFile(const Report &report, const std::string &name)
{
    for (const auto &file : report.files) {
        if (file.name == name)
            return &file;
    }
    return nullptr;
}

} // namespace

TEST(Report, GameReportApiOnlyGame)
{
    ReportOptions opt;
    opt.apiFrames = 3;
    opt.includeMicroarch = true; // D3D game: no microarch section
    std::string r = gameReport("hl2lc/builtin", opt);
    EXPECT_NE(r.find("Characterization of hl2lc/builtin"),
              std::string::npos);
    EXPECT_NE(r.find("Direct3D"), std::string::npos);
    EXPECT_NE(r.find("API: index traffic"), std::string::npos);
    EXPECT_NE(r.find("API: fragment shader"), std::string::npos);
    // No simulator sections for a non-simulated game.
    EXPECT_EQ(r.find("uArch:"), std::string::npos);
}

TEST(Report, FullReportApiTables)
{
    ReportOptions opt;
    opt.apiFrames = 2;
    opt.figureFrames = 2;
    opt.includeMicroarch = false;
    std::string r = fullReport(opt).text;
    EXPECT_NE(r.find("Table I: workload description"),
              std::string::npos);
    EXPECT_NE(r.find("Table III: index traffic"), std::string::npos);
    EXPECT_NE(r.find("Table VI: system bus bandwidths"),
              std::string::npos);
    EXPECT_NE(r.find("Table XII: fragment shader composition"),
              std::string::npos);
    // Microarch tables excluded.
    EXPECT_EQ(r.find("Table XIV"), std::string::npos);
    // Every game appears.
    for (const auto &id : workloads::allTimedemoIds())
        EXPECT_NE(r.find(id), std::string::npos) << id;
}

TEST(Report, FullReportCoversEveryTableAndFigure)
{
    ReportOptions opt;
    opt.apiFrames = 3;
    opt.figureFrames = 3;
    opt.microFrames = 1;
    // Four threads: the run sets fan out concurrently, and the
    // manifest must still list its runs in id order.
    int threads = ThreadPool::global().threads();
    ThreadPool::setGlobalThreads(4);
    Report report = fullReport(opt);

    const ReportFile *results = findFile(report, "results.csv");
    ASSERT_NE(results, nullptr);
    EXPECT_EQ(report.files.front().name, "results.csv");
    EXPECT_EQ(results->content.rfind("table,row,column,value\n", 0), 0u);

    const char *tables[] = {"I",   "II",  "III",  "IV",   "V",  "VI",
                            "VII", "VIII", "IX",  "X",    "XI", "XII",
                            "XIII", "XIV", "XV",  "XVI",  "XVII"};
    for (const char *t : tables) {
        EXPECT_NE(report.text.find(format("== Table %s: ", t)),
                  std::string::npos)
            << "Table " << t;
        EXPECT_NE(results->content.find(format("\nTable %s,", t)),
                  std::string::npos)
            << "Table " << t;
    }
    for (int fig : {1, 2, 3, 5, 6, 7, 8}) {
        EXPECT_NE(report.text.find(format("== Figure %d: ", fig)),
                  std::string::npos)
            << "Figure " << fig;
        EXPECT_NE(results->content.find(format("\nFigure %d,", fig)),
                  std::string::npos)
            << "Figure " << fig;
    }
    EXPECT_NE(report.text.find("worst-case index traffic: "),
              std::string::npos);

    // One record per cell: no (table, row, column) repeats.
    std::set<std::string> keys;
    auto lines = split(results->content, '\n');
    for (std::size_t i = 1; i < lines.size(); ++i) {
        if (lines[i].empty())
            continue;
        std::size_t last = lines[i].rfind(',');
        EXPECT_TRUE(keys.insert(lines[i].substr(0, last)).second)
            << lines[i];
    }

    // Table I's durations (2'13") are quoted in the results file.
    EXPECT_NE(results->content.find(",Duration@30fps,\""),
              std::string::npos);
    EXPECT_NE(results->content.find("\"\"\"\n"), std::string::npos);

    // Series files: one per figure game, one per simulated game.
    for (const char *id :
         {"ut2004/primeval", "doom3/trdemo2", "quake4/demo4",
          "riddick/prisonarea", "fear/interval2", "hl2lc/builtin",
          "oblivion/anvilcastle", "splintercell3/firstlevel"}) {
        std::string stem = id;
        std::replace(stem.begin(), stem.end(), '/', '_');
        const ReportFile *api = findFile(report, stem + "_api.csv");
        ASSERT_NE(api, nullptr) << id;
        EXPECT_EQ(api->content, figureCsv(runApiLevel(id, 3))) << id;
    }
    for (const auto &id : workloads::simulatedTimedemoIds()) {
        std::string stem = id;
        std::replace(stem.begin(), stem.end(), '/', '_');
        const ReportFile *micro = findFile(report, stem + "_micro.csv");
        ASSERT_NE(micro, nullptr) << id;
        EXPECT_NE(micro->content.find("vcache_hit_rate"),
                  std::string::npos);
    }

    // The run manifest: the 12 table API runs, then the 3 simulated
    // runs, in id order, and one call per timed run set.
    const ReportFile *metrics = findFile(report, "metrics.json");
    ASSERT_NE(metrics, nullptr);
    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(metrics->content, doc, &error)) << error;
    EXPECT_TRUE(validateMetrics(doc, &error)) << error;
    std::vector<std::string> want_ids = workloads::allTimedemoIds();
    for (const auto &id : workloads::simulatedTimedemoIds())
        want_ids.push_back(id);
    const json::Value &runs = *doc.find("runs");
    ASSERT_EQ(runs.size(), want_ids.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        bool api = i < workloads::allTimedemoIds().size();
        EXPECT_EQ(runs.at(i).find("kind")->asString(),
                  api ? "api" : "micro");
        EXPECT_EQ(runs.at(i).find("id")->asString(), want_ids[i]);
        EXPECT_EQ(runs.at(i).find("frames")->asU64(), api ? 3u : 1u);
        if (api)
            continue;
        std::vector<RecordField> want =
            microRunFields(runMicroarch(want_ids[i], 1));
        const auto &got = runs.at(i).find("counters")->members();
        ASSERT_EQ(got.size(), want.size()) << want_ids[i];
        for (std::size_t k = 0; k < got.size(); ++k) {
            EXPECT_EQ(got[k].first, want[k].first) << want_ids[i];
            EXPECT_EQ(got[k].second.serialize(), want[k].second.serialize())
                << want_ids[i] << " " << got[k].first;
        }
    }
    const json::Value &phases = *doc.find("phases");
    const char *phase_names[] = {"figure_runs", "api_runs", "micro_runs"};
    ASSERT_EQ(phases.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(phases.at(i).find("name")->asString(), phase_names[i]);
        EXPECT_EQ(phases.at(i).find("calls")->asU64(), 1u);
    }

    EXPECT_EQ(report.files.size(), 2u + 8u + 3u);
    ThreadPool::setGlobalThreads(threads);
}

TEST(Report, WriteReportFilesWritesEveryFile)
{
    Report report;
    report.files = {{"results.csv", "table,row,column,value\n"},
                    {"a_api.csv", "frame,x\n0,1\n"}};
    std::string dir = ::testing::TempDir() + "wc3d_report_" +
                      std::to_string(static_cast<long>(::getpid())) +
                      "/nested/out";
    std::string error;
    ASSERT_TRUE(writeReportFiles(report, dir, &error)) << error;
    for (const auto &file : report.files)
        EXPECT_EQ(readAllOf(dir + "/" + file.name), file.content);
}

TEST(Report, WriteReportFilesFailsLoudly)
{
    Report report;
    report.files = {{"results.csv", "table,row,column,value\n"}};
    std::string base = ::testing::TempDir() + "wc3d_report_fail_" +
                       std::to_string(static_cast<long>(::getpid()));
    std::string error;

    // A directory that cannot be made (a file is in the way).
    ASSERT_TRUE(writeReportFiles(report, base, &error)) << error;
    EXPECT_FALSE(
        writeReportFiles(report, base + "/results.csv/sub", &error));
    EXPECT_NE(error.find("cannot create directory"), std::string::npos)
        << error;

    // A full disk: the faultio reason reaches the caller.
    faultio::FaultPlan plan;
    plan.allEnospc = true;
    faultio::setPlan(plan);
    error.clear();
    bool ok = writeReportFiles(report, base, &error);
    faultio::setPlan(faultio::FaultPlan{});
    EXPECT_FALSE(ok);
    EXPECT_NE(error.find("injected ENOSPC"), std::string::npos) << error;
    EXPECT_NE(error.find("results.csv"), std::string::npos) << error;
}
