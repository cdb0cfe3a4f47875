/**
 * @file
 * Differential replay checking: for every one of the twelve timedemos,
 * record a trace while simulating live, replay it through a fresh
 * Device + GPU simulator, and require every statistic — the full
 * ApiStats, all PipelineCounters, cache models and per-frame series —
 * to be bit-identical, at WC3D_THREADS=1 and 4. This is the paper's
 * "replay exactly the same input several times" property, enforced.
 * The same guarantee must hold with profiling spans recording
 * (WC3D_TRACE_OUT): spans observe, never steer.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/prof.hh"
#include "common/threadpool.hh"
#include "core/replay.hh"
#include "core/runner.hh"
#include "workloads/games.hh"

using namespace wc3d;
using namespace wc3d::core;

namespace {

/** Small frames/resolution: correctness, not workload scale. */
constexpr int kFrames = 1;
constexpr int kWidth = 160;
constexpr int kHeight = 120;

void
expectAllReplayIdentical(int threads)
{
    // The trace file name carries the current test's name: ctest runs
    // each test as its own process, and parallel runs would otherwise
    // race on a shared file and corrupt each other's traces.
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string tag = info ? info->name() : "unknown";
    ThreadPool::setGlobalThreads(threads);
    for (const auto &id : workloads::allTimedemoIds()) {
        std::string path = ::testing::TempDir() + "wc3d_replay_" + tag +
                           "_t" + std::to_string(threads) + ".trc";
        ReplayReport r =
            replayAndDiff(id, kFrames, kWidth, kHeight, path);
        EXPECT_TRUE(r.ok())
            << id << " at " << threads
            << " threads: " << r.firstDivergence();
        EXPECT_GT(r.commandsRecorded, 0u) << id;
        EXPECT_EQ(r.commandsRecorded, r.commandsReplayed) << id;
    }
    ThreadPool::setGlobalThreads(1);
}

} // namespace

TEST(Replay, AllTimedemosBitIdenticalSequential)
{
    expectAllReplayIdentical(1);
}

TEST(Replay, AllTimedemosBitIdenticalFourThreads)
{
    expectAllReplayIdentical(4);
}

TEST(Replay, AllTimedemosBitIdenticalWhileTraced)
{
    // Recording spans must not perturb replay determinism at any
    // thread count.
    bool was = prof::enabled();
    prof::reset();
    prof::setEnabled(true);
    expectAllReplayIdentical(1);
    expectAllReplayIdentical(4);
    EXPECT_GT(prof::eventCount(), 0u);
    prof::setEnabled(was);
    prof::reset();
}

TEST(Replay, TracingDoesNotPerturbStatistics)
{
    // The same simulation with spans off and on: the whole run record
    // (every counter, cache model and per-frame series) must be
    // bit-identical.
    bool was = prof::enabled();
    ThreadPool::setGlobalThreads(4);
    prof::setEnabled(false);
    MicroRun off = runMicroarch("doom3/trdemo2", kFrames, kWidth, kHeight);
    prof::reset();
    prof::setEnabled(true);
    MicroRun on = runMicroarch("doom3/trdemo2", kFrames, kWidth, kHeight);
    prof::setEnabled(was);
    prof::reset();
    ThreadPool::setGlobalThreads(1);

    for (const std::string &d : diffRecords(
             encodeMicroRun(on), encodeMicroRun(off), "traced", "untraced"))
        ADD_FAILURE() << d;
}

TEST(Replay, ReportsFirstDivergentCounter)
{
    ReplayReport r;
    r.id = "synthetic";
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.firstDivergence(), "");
    r.divergences = {"indices: live=3 replay=4",
                     "rasterQuads: live=9 replay=8"};
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.firstDivergence(), "indices: live=3 replay=4");
    r.traceError = "trace read: byte 13: unknown command tag 200";
    EXPECT_EQ(r.firstDivergence(), r.traceError);
}

TEST(Replay, DefaultTracePathIsATemporaryFileRemovedAfterwards)
{
    // Without a trace path the scratch trace goes to a pid-suffixed
    // file in the system temporary directory, so wc3d-verify works
    // from any working directory and leaves nothing behind.
    const std::string id = workloads::allTimedemoIds().front();
    ReplayReport r = replayAndDiff(id, kFrames, kWidth, kHeight);
    EXPECT_TRUE(r.ok()) << r.firstDivergence();
    EXPECT_GT(r.commandsRecorded, 0u);

    std::string prefix = "wc3d-replay-" +
                         std::to_string(static_cast<long>(::getpid())) +
                         "-";
    for (const auto &entry : std::filesystem::directory_iterator(
             std::filesystem::temp_directory_path())) {
        EXPECT_NE(entry.path().filename().string().rfind(prefix, 0), 0u)
            << "left behind: " << entry.path();
    }
}

TEST(Replay, SurfacesTraceErrors)
{
    // An unwritable trace path must surface as a structured trace
    // error, not a crash or a silent pass.
    ReplayReport r = replayAndDiff(
        workloads::allTimedemoIds().front(), 1, kWidth, kHeight,
        ::testing::TempDir() + "no_such_dir/sub/replay.trc");
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.traceError.find("trace write"), std::string::npos)
        << r.traceError;
}
