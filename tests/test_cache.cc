/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <span>
#include <tuple>
#include <vector>

#include "cache_reference.hh"
#include "common/rng.hh"
#include "memory/cache.hh"

using namespace wc3d;
using namespace wc3d::memsys;

TEST(Cache, FirstAccessMisses)
{
    CacheModel c(4, 1, 64);
    auto r = c.access(0x100, false);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.fillAddress, 0x100u);
    EXPECT_FALSE(r.writeback);
}

TEST(Cache, SecondAccessSameLineHits)
{
    CacheModel c(4, 1, 64);
    c.access(0x100, false);
    auto r = c.access(0x13f, false); // same 64B line
    EXPECT_TRUE(r.hit);
    auto r2 = c.access(0x140, false); // next line
    EXPECT_FALSE(r2.hit);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    CacheModel c(2, 1, 64); // 2 lines total
    c.access(0x000, false);
    c.access(0x040, false);
    c.access(0x000, false);          // touch line 0 again
    c.access(0x080, false);          // evicts 0x040
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_FALSE(c.contains(0x040));
    EXPECT_TRUE(c.contains(0x080));
}

TEST(Cache, DirtyVictimTriggersWriteback)
{
    CacheModel c(1, 1, 64);
    c.access(0x000, true);           // dirty
    auto r = c.access(0x040, false); // evicts dirty line
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddress, 0x000u);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanVictimNoWriteback)
{
    CacheModel c(1, 1, 64);
    c.access(0x000, false);
    auto r = c.access(0x040, false);
    EXPECT_FALSE(r.writeback);
}

TEST(Cache, WriteHitMarksDirty)
{
    CacheModel c(1, 1, 64);
    c.access(0x000, false);          // clean fill
    c.access(0x000, true);           // dirty via write hit
    auto r = c.access(0x040, false);
    EXPECT_TRUE(r.writeback);
}

TEST(Cache, SetsIsolateAddresses)
{
    // 2 sets: even lines -> set 0, odd lines -> set 1.
    CacheModel c(1, 2, 64);
    c.access(0x000, false); // line 0, set 0
    c.access(0x040, false); // line 1, set 1
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_TRUE(c.contains(0x040));
    c.access(0x080, false); // line 2, set 0: evicts line 0 only
    EXPECT_FALSE(c.contains(0x000));
    EXPECT_TRUE(c.contains(0x040));
}

TEST(Cache, FlushDirtyWritesBackAllDirtyLines)
{
    CacheModel c(4, 1, 64);
    c.access(0x000, true);
    c.access(0x040, false);
    c.access(0x080, true);
    int count = 0;
    c.flushDirty([&](std::uint64_t) { ++count; });
    EXPECT_EQ(count, 2);
    // Second flush: nothing dirty.
    count = 0;
    c.flushDirty([&](std::uint64_t) { ++count; });
    EXPECT_EQ(count, 0);
    // Lines stay resident.
    EXPECT_TRUE(c.contains(0x000));
}

TEST(Cache, InvalidateAllDropsResidency)
{
    CacheModel c(4, 1, 64);
    c.access(0x000, true);
    c.invalidateAll();
    EXPECT_FALSE(c.contains(0x000));
    // No writeback on next eviction since the dirty line was dropped.
    auto r = c.access(0x000, false);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.writeback);
}

TEST(Cache, StatsAddUp)
{
    CacheModel c(2, 2, 64);
    Rng rng(123);
    for (int i = 0; i < 10000; ++i)
        c.access(rng.nextBounded(64) * 64, rng.nextBounded(2) == 0);
    const auto &s = c.stats();
    EXPECT_EQ(s.accesses, 10000u);
    EXPECT_EQ(s.hits + s.misses, s.accesses);
    EXPECT_GT(s.hitRate(), 0.0);
    EXPECT_LT(s.hitRate(), 1.0);
}

TEST(Cache, GeometryAccessors)
{
    CacheModel c(16, 16, 64);
    EXPECT_EQ(c.ways(), 16);
    EXPECT_EQ(c.sets(), 16);
    EXPECT_EQ(c.lineSize(), 64);
    EXPECT_EQ(c.sizeBytes(), 16 * 1024);
    EXPECT_EQ(c.lineAddress(0x1234), 0x1200u);
}

TEST(Cache, SequentialStreamHitRateMatchesLineReuse)
{
    // Touch every 4 bytes of a large region: with 64B lines, 1 miss
    // followed by 15 hits per line => hit rate 15/16.
    CacheModel c(8, 8, 64);
    for (std::uint64_t a = 0; a < 64 * 1024; a += 4)
        c.access(a, false);
    EXPECT_NEAR(c.stats().hitRate(), 15.0 / 16.0, 1e-9);
}

TEST(Cache, WorkingSetSmallerThanCacheAlwaysHitsAfterWarmup)
{
    CacheModel c(4, 4, 64); // 1 KB
    for (int pass = 0; pass < 2; ++pass)
        for (std::uint64_t a = 0; a < 1024; a += 64)
            c.access(a, false);
    // First pass: 16 misses. Second pass: all hits.
    EXPECT_EQ(c.stats().misses, 16u);
    EXPECT_EQ(c.stats().hits, 16u);
}

/** Property sweep: for many geometries, hits+misses==accesses and a
 * cyclic working set larger than the cache always misses under LRU. */
class CacheGeometry : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(CacheGeometry, InvariantsHold)
{
    auto [ways, sets, line] = GetParam();
    CacheModel c(ways, sets, line);
    Rng rng(static_cast<std::uint64_t>(ways * 1000 + sets * 10 + line));
    for (int i = 0; i < 5000; ++i)
        c.access(rng.nextBounded(4096) * 16, rng.nextBounded(2) == 0);
    const auto &s = c.stats();
    EXPECT_EQ(s.hits + s.misses, s.accesses);
    EXPECT_LE(s.writebacks, s.accesses);
}

TEST_P(CacheGeometry, CyclicThrashAlwaysMissesWithLru)
{
    auto [ways, sets, line] = GetParam();
    CacheModel c(ways, sets, line);
    // Cycle through (ways+1) lines of one set repeatedly: LRU guarantees
    // a miss every time once warm.
    std::uint64_t stride = static_cast<std::uint64_t>(line) * sets;
    for (int pass = 0; pass < 4; ++pass)
        for (int i = 0; i <= ways; ++i)
            c.access(i * stride, false);
    EXPECT_EQ(c.stats().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(1, 1, 64),
                      std::make_tuple(2, 4, 64),
                      std::make_tuple(4, 16, 32),
                      std::make_tuple(16, 16, 64),
                      std::make_tuple(64, 1, 256)));

namespace {

auto
fields(const CacheAccessResult &r)
{
    return std::make_tuple(r.hit, r.fillAddress, r.writeback,
                           r.writebackAddress);
}

auto
fields(const CacheStats &s)
{
    return std::make_tuple(s.accesses, s.hits, s.misses, s.writebacks);
}

} // namespace

/** Differential lock: a seeded stream of every CacheModel operation,
 *  checked step by step against the linear-scan reference model in
 *  cache_reference.hh (results, statistics and the exact flushDirty
 *  address sequence). */
class CacheVsReference
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(CacheVsReference, EveryOperationMatches)
{
    auto [ways, sets, line] = GetParam();
    CacheModel model(ways, sets, line);
    test::ReferenceCacheModel ref(ways, sets, line);
    Rng rng(static_cast<std::uint64_t>(ways) * 7919 + sets * 31 + line);

    const std::uint64_t capacity =
        static_cast<std::uint64_t>(ways) * sets * line;
    const std::uint64_t base = 0x7f3200000000ull;
    std::uint64_t last = base;
    std::vector<std::uint64_t> got, want;
    for (int step = 0; step < 60000; ++step) {
        // The footprint cycles through 1x..4x the cache capacity.
        std::uint64_t span = capacity * (1 + (step / 5000) % 4);
        std::uint64_t address =
            base + ((static_cast<std::uint64_t>(rng.nextU32()) << 16) |
                    (rng.nextU32() & 0xffff)) % span;
        std::uint32_t op = rng.nextBounded(1000);
        if (op < 3) {
            model.invalidateAll();
            ref.invalidateAll();
        } else if (op < 13) {
            got.clear();
            want.clear();
            model.flushDirty([&](std::uint64_t a) { got.push_back(a); });
            ref.flushDirty([&](std::uint64_t a) { want.push_back(a); });
            ASSERT_EQ(got, want) << "flushDirty at step " << step;
        } else if (op < 23) {
            std::uint64_t hits = rng.nextBounded(8) + 1;
            model.creditFilteredHits(hits);
            ref.creditFilteredHits(hits);
        } else if (op < 73) {
            ASSERT_EQ(model.contains(address), ref.contains(address))
                << "contains at step " << step;
        } else {
            // A quarter of the accesses re-touch the previous line (the
            // most-recent-line case), the rest are spread over the span.
            if (op < 323)
                address = last + rng.nextBounded(
                                     static_cast<std::uint32_t>(line));
            last = address & ~static_cast<std::uint64_t>(line - 1);
            bool is_write = rng.nextBounded(3) == 0;
            ASSERT_EQ(fields(model.access(address, is_write)),
                      fields(ref.access(address, is_write)))
                << "access at step " << step;
        }
        ASSERT_EQ(fields(model.stats()), fields(ref.stats()))
            << "stats at step " << step;
    }
    EXPECT_GT(model.stats().hits, 0u);
    EXPECT_GT(model.stats().writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsReference,
    ::testing::Values(std::make_tuple(64, 1, 64),
                      std::make_tuple(64, 1, 256),
                      std::make_tuple(16, 16, 64),
                      std::make_tuple(1, 16, 64),
                      std::make_tuple(96, 1, 64),
                      std::make_tuple(256, 2, 64)));

namespace {

struct PlainLine
{
    std::uint64_t
    operator()(std::uint32_t line) const
    {
        return line;
    }
};

using LineReplay = ChunkedLruReplay<std::uint32_t, PlainLine>;

/** @p n line numbers over @p footprint lines from @p base: runs of
 *  neighbouring lines with jumps, so every geometry sees hits, misses
 *  and evictions. */
std::vector<std::uint32_t>
lineStream(Rng &rng, std::size_t n, std::uint32_t base,
           std::uint32_t footprint)
{
    std::vector<std::uint32_t> lines(n);
    std::uint32_t at = rng.nextBounded(footprint);
    for (std::uint32_t &line : lines) {
        if (rng.nextBounded(4) == 0)
            at = rng.nextBounded(footprint);
        else
            at = (at + footprint + rng.nextBounded(5) - 2) % footprint;
        line = base + at;
    }
    return lines;
}

/** Cut @p lines into pieces of random length, some of them empty. */
std::vector<std::span<const std::uint32_t>>
cutPieces(Rng &rng, const std::vector<std::uint32_t> &lines)
{
    std::vector<std::span<const std::uint32_t>> pieces;
    std::size_t at = 0;
    do {
        std::size_t len = std::min<std::size_t>(
            lines.size() - at, rng.nextBounded(3) == 0
                                   ? 0
                                   : rng.nextBounded(200) + 1);
        pieces.emplace_back(lines.data() + at, len);
        at += len;
    } while (at < lines.size());
    return pieces;
}

/** Replay @p pieces into @p live in @p chunks chunks, run last to
 *  first; @return the misses in chunk order. */
std::vector<std::uint32_t>
replayChunked(LineReplay &replay, CacheModel &live,
              const std::vector<std::span<const std::uint32_t>> &pieces,
              int chunks)
{
    int planned = replay.plan(pieces, chunks, live);
    for (int k = planned; k-- > 0;) {
        replay.run(k, live,
                   [](CacheModel &model, std::uint32_t line,
                      std::vector<std::uint32_t> &misses) {
                       if (!model.readLine(line))
                           misses.push_back(line);
                   });
    }
    std::vector<std::uint32_t> misses;
    for (int k = 0; k < planned; ++k) {
        misses.insert(misses.end(), replay.outputs(k).begin(),
                      replay.outputs(k).end());
    }
    replay.adopt(live);
    return misses;
}

} // namespace

/** Differential lock for the chunked replay of a read-only LRU level:
 *  for every stream length and chunk count, statistics, the ordered
 *  miss list and the adopted end state equal one sequential replay,
 *  over two draws back to back from a non-empty start state. */
class CacheReplay : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheReplay, ChunkedMatchesSequential)
{
    auto [ways, sets] = GetParam();
    const int line_size = 64;
    const auto capacity = static_cast<std::uint32_t>(ways * sets);
    const std::uint32_t base = 0x40000;
    const std::uint32_t footprint = 3 * capacity;
    const std::size_t lengths[] = {0, 1, static_cast<std::size_t>(ways - 1),
                                   static_cast<std::size_t>(capacity) * 24};
    const int chunk_counts[] = {1, 2, 3, 4, 7, 16, 64};

    Rng rng(static_cast<std::uint64_t>(ways) * 131 + sets);
    for (std::size_t length : lengths) {
        for (int chunks : chunk_counts) {
            SCOPED_TRACE(::testing::Message()
                         << "length " << length << " chunks " << chunks);
            CacheModel sequential(ways, sets, line_size);
            CacheModel live(ways, sets, line_size);
            // Start state: half the capacity's worth of the footprint.
            for (std::uint32_t line :
                 lineStream(rng, capacity / 2 + 1, base, footprint)) {
                sequential.readLine(line);
                live.readLine(line);
            }
            LineReplay replay;
            for (int draw = 0; draw < 2; ++draw) {
                SCOPED_TRACE(::testing::Message() << "draw " << draw);
                std::vector<std::uint32_t> lines =
                    lineStream(rng, length, base, footprint);
                std::vector<std::uint32_t> want;
                for (std::uint32_t line : lines) {
                    if (!sequential.readLine(line))
                        want.push_back(line);
                }
                std::vector<std::uint32_t> got = replayChunked(
                    replay, live, cutPieces(rng, lines), chunks);
                ASSERT_EQ(got, want);
                ASSERT_EQ(fields(live.stats()), fields(sequential.stats()));
            }
            // Same residency, and the same recency: a probe stream from
            // here on hits and misses alike.
            for (std::uint32_t line = base; line < base + footprint;
                 ++line) {
                ASSERT_EQ(live.contains(std::uint64_t{line} * line_size),
                          sequential.contains(std::uint64_t{line} *
                                              line_size))
                    << "line " << line;
            }
            for (std::uint32_t line :
                 lineStream(rng, capacity * 4, base, footprint)) {
                ASSERT_EQ(live.readLine(line), sequential.readLine(line));
            }
        }
    }
}

TEST(CacheReplay, FewerChunksWhenShort)
{
    CacheModel live(4, 2, 64);
    std::vector<std::uint32_t> lines(100, 7);
    std::vector<std::span<const std::uint32_t>> pieces = {lines};
    LineReplay replay;
    EXPECT_EQ(replay.plan(pieces, 8, live), 8);
    EXPECT_EQ(replay.plan(pieces, 8, live, 30), 3);
    EXPECT_EQ(replay.plan(pieces, 8, live, 1000), 1);
    EXPECT_EQ(replay.plan({}, 8, live), 0);
    replay.adopt(live); // nothing planned: state and stats unchanged
    EXPECT_EQ(live.stats().accesses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheReplay,
                         ::testing::Values(std::make_tuple(64, 1),
                                           std::make_tuple(16, 16),
                                           std::make_tuple(4, 2)));
