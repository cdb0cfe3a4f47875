/**
 * @file
 * Tests for the parallel execution layer: thread-pool semantics and the
 * headline determinism contract — a full simulated game produces
 * bit-identical statistics at every WC3D_THREADS value.
 */

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/device.hh"
#include "common/threadpool.hh"
#include "core/runner.hh"
#include "gpu/simulator.hh"
#include "workloads/games.hh"

using namespace wc3d;
using namespace wc3d::core;

TEST(ThreadPool, SubmitterOccupiesSlotZero)
{
    EXPECT_EQ(ThreadPool::currentSlot(), 0);
}

TEST(ThreadPool, SingleThreadPoolRunsInlineInOrder)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1);
    std::vector<int> order;
    TaskGroup group(pool);
    for (int i = 0; i < 16; ++i)
        group.run([&order, i] { order.push_back(i); });
    group.wait();
    std::vector<int> expect(16);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(pool, hits.size(), [&](int slot, std::size_t i) {
        EXPECT_GE(slot, 0);
        EXPECT_LT(slot, pool.threads());
        hits[i].fetch_add(1);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedGroupsDoNotDeadlock)
{
    // Outer tasks submit inner work to the same pool; wait() helps, so
    // this completes even when every worker is stuck in an outer task.
    ThreadPool pool(3);
    std::atomic<int> total{0};
    TaskGroup outer(pool);
    for (int t = 0; t < 8; ++t) {
        outer.run([&pool, &total] {
            parallelFor(pool, 50,
                        [&total](int, std::size_t) { total.fetch_add(1); });
        });
    }
    outer.wait();
    EXPECT_EQ(total.load(), 8 * 50);
}

TEST(ThreadPool, ConfiguredThreadsHonoursEnvironment)
{
    setenv("WC3D_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::configuredThreads(), 3);
    // A huge value clamps (only the count is checked; no pool is built
    // from it).
    setenv("WC3D_THREADS", "2147483647", 1);
    EXPECT_EQ(ThreadPool::configuredThreads(), ThreadPool::kMaxThreads);
    unsetenv("WC3D_THREADS");
    EXPECT_GE(ThreadPool::configuredThreads(), 1);
}

namespace {

/** Simulate one OGL game at the given thread count. */
MicroRun
simulateAt(int threads)
{
    const std::string id = "ut2004/primeval";
    constexpr int kFrames = 2;
    ThreadPool::setGlobalThreads(threads);
    gpu::GpuConfig config;
    config.width = 256;
    config.height = 192;
    gpu::GpuSimulator sim(config);
    api::Device device(workloads::gameProfile(id).apiKind);
    device.setSink(&sim);
    workloads::makeTimedemo(id)->run(device, kFrames);
    ThreadPool::setGlobalThreads(1);
    return collectMicroRun(id, kFrames, sim);
}

/**
 * Assert two runs of the same workload are bit-identical: their
 * encoded records (every counter, per-client traffic byte, cache model
 * and per-frame series sample) must be equal, and a failure names each
 * key that differs.
 */
void
expectRunsBitIdentical(const MicroRun &run, const MicroRun &ref,
                       const std::string &label)
{
    for (const std::string &d : diffRecords(
             encodeMicroRun(run), encodeMicroRun(ref), "run", "reference"))
        ADD_FAILURE() << label << ": " << d;
}

} // namespace

TEST(Determinism, TiledBitIdenticalAcrossThreads)
{
    // The tile-parallel back-end's headline contract: statistics are
    // bit-identical at every thread count. The reference is the
    // sequential run.
    MicroRun ref = simulateAt(1);
    for (int threads : {2, 4, 8}) {
        MicroRun run = simulateAt(threads);
        expectRunsBitIdentical(run, ref,
                               "threads=" + std::to_string(threads));
    }
}

TEST(Determinism, FanOutMatchesSerialLoop)
{
    // Games fanned out onto the pool (the report's fan-out shape, at
    // test resolution) must match individual serial runs:
    // each run's simulator is confined to the task executing it.
    const char *ids[] = {"doom3/trdemo2", "quake4/demo4",
                         "ut2004/primeval"};
    ThreadPool::setGlobalThreads(4);
    MicroRun fanned[3];
    {
        TaskGroup group;
        for (int i = 0; i < 3; ++i) {
            group.run([&fanned, &ids, i] {
                fanned[i] = runMicroarch(ids[i], 1, 256, 192);
            });
        }
        group.wait();
    }
    ThreadPool::setGlobalThreads(1);

    for (int i = 0; i < 3; ++i)
        expectRunsBitIdentical(fanned[i], runMicroarch(ids[i], 1, 256, 192),
                               std::string("fanned out ") + ids[i]);
}
