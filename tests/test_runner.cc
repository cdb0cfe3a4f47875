/**
 * @file
 * Tests for encodeMicroRun, the text the goldens and the end-to-end
 * benchmark digests compare: every statistic of a run must reach it,
 * so a counter that drifts can never hide from those locks. The
 * counter field table behind it, add() and since() is checked word by
 * word, and diffRecords must name the key that differs. The frame-count
 * knobs keep their defaults on a value below 1.
 */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/report.hh"
#include "core/runner.hh"

using namespace wc3d;
using namespace wc3d::core;

namespace {

/** A fully populated synthetic run (no simulation needed). */
MicroRun
syntheticRun()
{
    MicroRun run;
    run.id = "doom3/trdemo1";
    run.frames = 3;
    run.width = 320;
    run.height = 240;

    gpu::PipelineCounters &c = run.counters;
    c.indices = 12345;
    c.vertexCacheHits = 8000;
    c.vertexCacheMisses = 4345;
    c.trianglesAssembled = 4115;
    c.trianglesClipped = 7;
    c.trianglesCulled = 1900;
    c.trianglesTraversed = 2208;
    c.rasterQuads = 52345;
    c.rasterFullQuads = 40000;
    c.rasterFragments = 190011;
    c.quadsRemovedHz = 5001;
    c.quadsRemovedZStencil = 9002;
    c.quadsRemovedAlpha = 403;
    c.quadsRemovedColorMask = 1204;
    c.quadsBlended = 36735;
    c.zStencilQuads = 47344;
    c.zStencilFullQuads = 36000;
    c.zStencilFragments = 170000;
    c.shadedQuads = 38342;
    c.shadedFragments = 140000;
    c.blendedFragments = 131000;
    c.vertexInstructions = 900000;
    c.fragmentInstructions = 2100000;
    c.fragmentTexInstructions = 300000;
    c.textureRequests = 290000;
    c.bilinearSamples = 610000;
    for (int i = 0; i < memsys::kNumClients; ++i) {
        c.traffic.readBytes[i] = 1000u * (i + 1);
        c.traffic.writeBytes[i] = 500u * (i + 1);
    }
    run.zCache = {4000, 3500, 500, 120};
    run.colorCache = {6000, 5200, 800, 300};
    run.texL0 = {90000, 88000, 2000, 0};
    run.texL1 = {2000, 1500, 500, 0};

    for (int frame = 0; frame < run.frames; ++frame) {
        run.series.record("vcache_hit_rate", 0.625 + 0.01 * frame);
        run.series.record("mem_bytes", 1.0e6 + 17.0 * frame);
        run.series.endFrame();
    }
    return run;
}

} // namespace

/** Add one to the @p word'th 64-bit word of @p fields. */
template <typename T>
void
bumpWord(T &fields, std::size_t word)
{
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::has_unique_object_representations_v<T> &&
                  sizeof(T) % sizeof(std::uint64_t) == 0);
    std::uint64_t v;
    auto *bytes = reinterpret_cast<unsigned char *>(&fields);
    std::memcpy(&v, bytes + word * sizeof v, sizeof v);
    ++v;
    std::memcpy(bytes + word * sizeof v, &v, sizeof v);
}

namespace {

/** Counters that are zero but for @p value in word @p word. */
gpu::PipelineCounters
onlyWord(std::size_t word, std::uint64_t value)
{
    gpu::PipelineCounters c;
    std::memcpy(reinterpret_cast<unsigned char *>(&c) +
                    word * sizeof value,
                &value, sizeof value);
    return c;
}

/** Byte offset of the counter word @p word points at in @p c. */
std::size_t
offsetIn(const gpu::PipelineCounters &c, const std::uint64_t &word)
{
    return reinterpret_cast<const char *>(&word) -
           reinterpret_cast<const char *>(&c);
}

/** The record key of the @p word'th 64-bit word of PipelineCounters:
 *  its one kCounterFields entry, or read<i>/write<i> for traffic. */
std::string
keyOfWord(std::size_t word)
{
    const gpu::PipelineCounters c;
    const std::size_t at = word * sizeof(std::uint64_t);
    std::string key;
    for (const gpu::CounterField &f : gpu::kCounterFields) {
        if (offsetIn(c, c.*f.member) == at) {
            EXPECT_TRUE(key.empty()) << "word " << word << " in the table "
                                     << "twice: " << key << ", " << f.key;
            key = f.key;
        }
    }
    for (int i = 0; i < memsys::kNumClients; ++i) {
        if (offsetIn(c, c.traffic.readBytes[i]) == at)
            key = "read" + std::to_string(i);
        if (offsetIn(c, c.traffic.writeBytes[i]) == at)
            key = "write" + std::to_string(i);
    }
    return key;
}

} // namespace

TEST(EncodeMicroRun, EveryCounterChangesTheText)
{
    // Walking the raw words covers every PipelineCounters field,
    // including the per-client traffic and any field added later. A
    // value set in one word alone must survive add() and since() in
    // that word only, and reach the encoding under that field's key.
    const MicroRun base = syntheticRun();
    const std::string base_text = encodeMicroRun(base);
    constexpr std::size_t kWords =
        sizeof(gpu::PipelineCounters) / sizeof(std::uint64_t);
    for (std::size_t w = 0; w < kWords; ++w) {
        MicroRun run = base;
        bumpWord(run.counters, w);
        EXPECT_NE(encodeMicroRun(run), base_text) << "counter word " << w;

        const std::uint64_t value = 0x5eed0000u + w;
        const gpu::PipelineCounters one = onlyWord(w, value);
        gpu::PipelineCounters twice;
        twice.add(one);
        twice.add(one);
        const gpu::PipelineCounters doubled = onlyWord(w, 2 * value);
        EXPECT_EQ(std::memcmp(&twice, &doubled, sizeof twice), 0)
            << "add() loses or moves counter word " << w;
        gpu::PipelineCounters back = twice.since(one);
        EXPECT_EQ(std::memcmp(&back, &one, sizeof back), 0)
            << "since() loses or moves counter word " << w;

        const std::string key = keyOfWord(w);
        ASSERT_FALSE(key.empty()) << "counter word " << w << " has no key";
        run.counters = one;
        EXPECT_NE(encodeMicroRun(run).find(
                      "\n" + key + "=" + std::to_string(value) + "\n"),
                  std::string::npos)
            << key << " (word " << w << ") not encoded";
    }
}

TEST(EncodeMicroRun, EveryCacheStatChangesTheText)
{
    const MicroRun base = syntheticRun();
    const std::string base_text = encodeMicroRun(base);
    memsys::CacheStats MicroRun::*const caches[] = {
        &MicroRun::zCache, &MicroRun::colorCache, &MicroRun::texL0,
        &MicroRun::texL1};
    for (std::size_t c = 0; c < std::size(caches); ++c) {
        for (std::size_t w = 0;
             w < sizeof(memsys::CacheStats) / sizeof(std::uint64_t);
             ++w) {
            MicroRun run = base;
            bumpWord(run.*caches[c], w);
            EXPECT_NE(encodeMicroRun(run), base_text)
                << "cache " << c << " word " << w;
        }
    }
}

TEST(EncodeMicroRun, EverySeriesValueAndKeyChangesTheText)
{
    const MicroRun base = syntheticRun();
    const std::string base_text = encodeMicroRun(base);
    for (const std::string &name : base.series.names()) {
        for (int frame = 0; frame < base.frames; ++frame) {
            // Rebuild the series with one value moved by one ulp.
            MicroRun run = base;
            run.series = stats::FrameSeries();
            for (int f = 0; f < base.frames; ++f) {
                for (const std::string &n : base.series.names()) {
                    double v = base.series.series(n)[f];
                    if (n == name && f == frame)
                        v = std::nextafter(v, 1e300);
                    run.series.record(n, v);
                }
                run.series.endFrame();
            }
            EXPECT_NE(encodeMicroRun(run), base_text)
                << name << " frame " << frame;
        }
    }

    MicroRun run = base;
    run.id = "doom3/trdemo2";
    EXPECT_NE(encodeMicroRun(run), base_text);
    run = base;
    ++run.frames;
    EXPECT_NE(encodeMicroRun(run), base_text);
    run = base;
    ++run.width;
    EXPECT_NE(encodeMicroRun(run), base_text);
    run = base;
    ++run.height;
    EXPECT_NE(encodeMicroRun(run), base_text);
}

// Identical runs differ in wall clock; the record the goldens and the
// benchmark digests compare must not carry it.
TEST(EncodeMicroRun, WallClockIsNotEncoded)
{
    MicroRun run = syntheticRun();
    const std::string text = encodeMicroRun(run);
    run.seconds = 12.5;
    EXPECT_EQ(encodeMicroRun(run), text);
    ApiRun api;
    api.id = "quake4/demo4";
    const std::string api_text = encodeApiRun(api);
    api.seconds = 3.0;
    EXPECT_EQ(encodeApiRun(api), api_text);
}

TEST(RunnerDefaults, FrameCountsBelowOneKeepTheDefault)
{
    setenv("WC3D_FRAMES", "-3", 1);
    EXPECT_EQ(defaultMicroFrames(), 4);
    setenv("WC3D_API_FRAMES", "0", 1);
    EXPECT_EQ(defaultApiFrames(), 300);
    setenv("WC3D_FIG_FRAMES", "-1", 1);
    EXPECT_EQ(defaultFigureFrames(), 600);
    setenv("WC3D_FRAMES", "2", 1);
    EXPECT_EQ(defaultMicroFrames(), 2);
    unsetenv("WC3D_FRAMES");
    unsetenv("WC3D_API_FRAMES");
    unsetenv("WC3D_FIG_FRAMES");
}

TEST(DiffRecords, NamesEachDifferingKey)
{
    const MicroRun base = syntheticRun();
    const std::string base_text = encodeMicroRun(base);
    EXPECT_TRUE(diffRecords(base_text, base_text, "a", "b").empty());

    MicroRun run = base;
    ++run.counters.quadsRemovedColorMask;
    ++run.texL1.hits;
    EXPECT_EQ(diffRecords(base_text, encodeMicroRun(run), "live",
                          "replay"),
              (std::vector<std::string>{
                  "quadsMask: live=1204 replay=1205",
                  "t1.hits: live=1500 replay=1501"}));

    // A line that is not key=value (a series row) or is missing is
    // named by its line number.
    const std::string cut = base_text.substr(0, base_text.size() - 5);
    std::vector<std::string> d = diffRecords(base_text, cut, "a", "b");
    ASSERT_FALSE(d.empty());
    EXPECT_EQ(d.front().rfind("line ", 0), 0u) << d.front();
}
