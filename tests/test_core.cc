/**
 * @file
 * Tests for the characterization framework: runners, table builders
 * and the bus catalogue.
 */

#include <gtest/gtest.h>

#include "core/apilevel.hh"
#include "core/buses.hh"
#include "core/microarch.hh"
#include "core/runner.hh"

using namespace wc3d;
using namespace wc3d::core;

namespace {

/** Small, fast microarch run shared by the table tests. */
const MicroRun &
tinyRun()
{
    static const MicroRun kRun =
        runMicroarch("ut2004/primeval", 1, 256, 192);
    return kRun;
}

} // namespace

TEST(Runner, ApiLevelRunProducesStats)
{
    ApiRun run = runApiLevel("quake4/demo4", 5);
    EXPECT_EQ(run.id, "quake4/demo4");
    EXPECT_EQ(run.frames, 5);
    EXPECT_EQ(run.stats.frames(), 5u);
    EXPECT_GT(run.stats.batches(), 0u);
}

TEST(Runner, MicroRunHasPipelineActivity)
{
    const MicroRun &run = tinyRun();
    EXPECT_EQ(run.frames, 1);
    EXPECT_EQ(run.width, 256);
    EXPECT_GT(run.counters.rasterFragments, 0u);
    EXPECT_GT(run.counters.traffic.total(), 0u);
    EXPECT_GT(run.zCache.accesses, 0u);
    EXPECT_GT(run.texL0.accesses, 0u);
    EXPECT_EQ(run.series.frames(), 1);
    EXPECT_GT(run.bytesPerFrame(), 0.0);
    EXPECT_EQ(run.pixels(), 256u * 192u);
}

TEST(Tables, WorkloadsListsAllTwelve)
{
    stats::Table t = tableWorkloads();
    EXPECT_EQ(t.rows(), 12);
    std::string s = t.toString();
    EXPECT_NE(s.find("doom3/trdemo2"), std::string::npos);
    EXPECT_NE(s.find("OpenGL"), std::string::npos);
    EXPECT_NE(s.find("Direct3D"), std::string::npos);
    EXPECT_NE(s.find("16X"), std::string::npos);
}

TEST(Tables, ApiTablesHaveRowPerRun)
{
    std::vector<ApiRun> runs = {runApiLevel("ut2004/primeval", 3),
                                runApiLevel("hl2lc/builtin", 3)};
    EXPECT_EQ(tableIndexTraffic(runs).rows(), 2);
    EXPECT_EQ(tableVertexShader(runs).rows(), 2);
    EXPECT_EQ(tablePrimitives(runs).rows(), 2);
    EXPECT_EQ(tableFragmentShader(runs).rows(), 2);
    // UT's index size is 2 bytes (U16).
    EXPECT_EQ(tableIndexTraffic(runs).cell(0, 3), "2");
}

TEST(Tables, MicroTablesHaveRowPerRun)
{
    std::vector<MicroRun> runs = {tinyRun()};
    gpu::GpuConfig config;
    EXPECT_EQ(tableClipCull(runs).rows(), 1);
    EXPECT_EQ(tableTriangleSize(runs).rows(), 1);
    EXPECT_EQ(tableQuadRemoval(runs).rows(), 1);
    EXPECT_EQ(tableQuadEfficiency(runs).rows(), 1);
    EXPECT_EQ(tableOverdraw(runs).rows(), 1);
    EXPECT_EQ(tableBilinears(runs).rows(), 1);
    EXPECT_EQ(tableCaches(runs, config).rows(), 4); // one per cache
    EXPECT_EQ(tableMemoryBw(runs).rows(), 1);
    EXPECT_EQ(tableTrafficDistribution(runs).rows(), 1);
    EXPECT_EQ(tableBytesPerItem(runs).rows(), 1);
}

TEST(Tables, QuadRemovalRowsSumTo100)
{
    std::vector<MicroRun> runs = {tinyRun()};
    const auto &c = runs[0].counters;
    double sum = c.pctQuadsRemovedHz() + c.pctQuadsRemovedZStencil() +
                 c.pctQuadsRemovedAlpha() +
                 c.pctQuadsRemovedColorMask() + c.pctQuadsBlended();
    EXPECT_NEAR(sum, 100.0, 1e-9);
}

TEST(Tables, ConfigMentionsR520Numbers)
{
    std::string s = tableConfig(gpu::GpuConfig{}).toString();
    EXPECT_NE(s.find("16 bilinears/cycle"), std::string::npos);
    EXPECT_NE(s.find("2 triangles/cycle"), std::string::npos);
}

TEST(Tables, EmptyRunsFormatZeroNotNan)
{
    // Regression: a run with zero frames/triangles/accesses has every
    // percentage denominator at zero; the tables must print 0.0, never
    // "nan" or "inf".
    EXPECT_DOUBLE_EQ(memsys::CacheStats{}.hitRate(), 0.0);

    gpu::PipelineCounters zero;
    EXPECT_DOUBLE_EQ(zero.pctClipped(), 0.0);
    EXPECT_DOUBLE_EQ(zero.pctCulled(), 0.0);
    EXPECT_DOUBLE_EQ(zero.pctQuadsRemovedHz(), 0.0);
    EXPECT_DOUBLE_EQ(zero.pctQuadsBlended(), 0.0);

    MicroRun empty;
    empty.id = "empty";
    std::vector<MicroRun> runs = {empty};
    gpu::GpuConfig config;
    const std::string all =
        tableClipCull(runs).toString() +
        tableTriangleSize(runs).toString() +
        tableQuadRemoval(runs).toString() +
        tableQuadEfficiency(runs).toString() +
        tableOverdraw(runs).toString() +
        tableBilinears(runs).toString() +
        tableCaches(runs, config).toString() +
        tableMemoryBw(runs).toString() +
        tableTrafficDistribution(runs).toString() +
        tableBytesPerItem(runs).toString();
    EXPECT_EQ(all.find("nan"), std::string::npos);
    EXPECT_EQ(all.find("inf"), std::string::npos);
}

TEST(Buses, CatalogMatchesTableVI)
{
    const auto &buses = busCatalog();
    ASSERT_EQ(buses.size(), 5u);
    EXPECT_EQ(buses[0].name, "AGP 4X");
    EXPECT_DOUBLE_EQ(buses[0].bandwidthGBs, 1.056);
    EXPECT_DOUBLE_EQ(buses[4].bandwidthGBs, 4.0);
    EXPECT_EQ(tableBuses().rows(), 5);
    // All games' index traffic fits with large headroom on every bus.
    ApiRun run = runApiLevel("oblivion/anvilcastle", 5);
    for (const auto &b : buses) {
        EXPECT_GT(busHeadroom(b, run.stats.indexBwAtFps(100.0)), 2.0);
    }
}

TEST(Figures, CsvContainsSeries)
{
    ApiRun run = runApiLevel("fear/interval2", 4);
    std::string csv = figureCsv(run);
    EXPECT_NE(csv.find("batches"), std::string::npos);
    EXPECT_NE(csv.find("state_calls"), std::string::npos);
    std::string micro = microFigureCsv(tinyRun());
    EXPECT_NE(micro.find("vcache_hit_rate"), std::string::npos);
    EXPECT_NE(micro.find("tri_size_raster"), std::string::npos);
}
