/**
 * @file
 * Cross-module integration tests: run synthetic timedemos through the
 * full simulator at a small resolution and assert the structural
 * invariants that every paper table implicitly relies on.
 */

#include <gtest/gtest.h>

#include "api/device.hh"
#include "gpu/perfmodel.hh"
#include "gpu/simulator.hh"
#include "workloads/games.hh"

using namespace wc3d;

namespace {

struct SimResult
{
    gpu::PipelineCounters counters;
    memsys::CacheStats z, color, t0, t1;
    api::ApiStats apiStats;
    std::uint64_t imageHash = 0;
    int frames = 0;
};

SimResult
simulate(const std::string &id, int frames, int w = 256, int h = 192)
{
    gpu::GpuConfig config;
    config.width = w;
    config.height = h;
    gpu::GpuSimulator sim(config);
    api::Device dev(workloads::gameProfile(id).apiKind);
    dev.setSink(&sim);
    workloads::makeTimedemo(id)->run(dev, frames);
    SimResult r;
    r.counters = sim.counters();
    r.z = sim.zCacheStats();
    r.color = sim.colorCacheStats();
    r.t0 = sim.texL0Stats();
    r.t1 = sim.texL1Stats();
    r.apiStats = dev.stats();
    r.imageHash = sim.framebufferImage().contentHash();
    r.frames = frames;
    return r;
}

} // namespace

class TimedemoSim : public ::testing::TestWithParam<const char *>
{
};

TEST_P(TimedemoSim, StructuralInvariantsHold)
{
    SimResult r = simulate(GetParam(), 2);
    const auto &c = r.counters;

    // Geometry identities.
    EXPECT_EQ(c.indices, r.apiStats.indices());
    EXPECT_EQ(c.trianglesAssembled, r.apiStats.primitives());
    EXPECT_EQ(c.trianglesClipped + c.trianglesCulled +
                  c.trianglesTraversed,
              c.trianglesAssembled);
    EXPECT_EQ(c.vertexCacheHits + c.vertexCacheMisses, c.indices);
    EXPECT_GT(c.vertexCacheHitRate(), 0.3);
    EXPECT_LT(c.vertexCacheHitRate(), 0.9);

    // Quad balance: every rasterized quad removed once or blended.
    EXPECT_EQ(c.quadsRemovedHz + c.quadsRemovedZStencil +
                  c.quadsRemovedAlpha + c.quadsRemovedColorMask +
                  c.quadsBlended,
              c.rasterQuads);

    // Monotone fragment flow.
    EXPECT_LE(c.zStencilFragments, c.rasterFragments);
    EXPECT_LE(c.blendedFragments, c.rasterFragments);
    EXPECT_LE(c.rasterFullQuads, c.rasterQuads);

    // Shader accounting.
    EXPECT_LE(c.fragmentTexInstructions, c.fragmentInstructions);
    EXPECT_EQ(c.vertexInstructions % c.vertexCacheMisses, 0u);

    // Cache sanity.
    for (const auto *s : {&r.z, &r.color, &r.t0, &r.t1}) {
        EXPECT_EQ(s->hits + s->misses, s->accesses);
        EXPECT_GE(s->hitRate(), 0.0);
        EXPECT_LE(s->hitRate(), 1.0);
    }

    // Texture-cache conservation: every L0 miss is one L1 access, every
    // L1 miss one line of Texture traffic, every bilinear sample four
    // L0 taps (accessed or credited), and both levels are only read.
    using memsys::Client;
    EXPECT_EQ(r.t1.accesses, r.t0.misses);
    EXPECT_EQ(c.traffic.readBytes[static_cast<int>(Client::Texture)],
              r.t1.misses * static_cast<std::uint64_t>(
                                gpu::GpuConfig{}.textureCache.l1Line));
    EXPECT_EQ(r.t0.accesses, 4 * c.bilinearSamples);
    EXPECT_EQ(r.t0.writebacks, 0u);
    EXPECT_EQ(r.t1.writebacks, 0u);

    // Memory: every client that must move data did.
    EXPECT_GT(c.traffic.readBytes[static_cast<int>(Client::Vertex)],
              0u);
    EXPECT_GT(c.traffic.readBytes[static_cast<int>(Client::Dac)], 0u);
    EXPECT_GT(c.traffic.total(), 0u);

    // The frame rendered something.
    Image black(4, 4);
    EXPECT_NE(r.imageHash, 0u);

    // Performance model runs on real counters.
    gpu::PerfEstimate perf =
        gpu::estimatePerf(c, gpu::GpuConfig{});
    EXPECT_GT(perf.boundCycles(), 0.0);
}

TEST_P(TimedemoSim, DeterministicEndToEnd)
{
    SimResult a = simulate(GetParam(), 2);
    SimResult b = simulate(GetParam(), 2);
    EXPECT_EQ(a.counters.rasterFragments, b.counters.rasterFragments);
    EXPECT_EQ(a.counters.traffic.total(), b.counters.traffic.total());
    EXPECT_EQ(a.z.hits, b.z.hits);
    EXPECT_EQ(a.t1.misses, b.t1.misses);
    EXPECT_EQ(a.imageHash, b.imageHash);
}

INSTANTIATE_TEST_SUITE_P(SimulatedGames, TimedemoSim,
                         ::testing::Values("ut2004/primeval",
                                           "doom3/trdemo2",
                                           "quake4/demo4",
                                           "hl2lc/builtin"));

TEST(IntegrationShape, StencilShadowGamesShowThePaperSignature)
{
    // The Doom3 signature vs UT2004 (paper Tables VIII/IX/XVI):
    // stencil-shadow rendering produces much higher raster/z overdraw
    // relative to shading, a large colour-mask removal share and a
    // z-stencil-dominated memory mix.
    SimResult ut = simulate("ut2004/primeval", 2);
    SimResult d3 = simulate("doom3/trdemo2", 2);

    double ut_ratio =
        static_cast<double>(ut.counters.rasterFragments) /
        std::max<std::uint64_t>(1, ut.counters.shadedFragments);
    double d3_ratio =
        static_cast<double>(d3.counters.rasterFragments) /
        std::max<std::uint64_t>(1, d3.counters.shadedFragments);
    EXPECT_GT(d3_ratio, 2.0 * ut_ratio);

    EXPECT_GT(d3.counters.pctQuadsRemovedColorMask(),
              ut.counters.pctQuadsRemovedColorMask() + 10.0);

    using memsys::Client;
    auto share = [](const SimResult &r, Client cl) {
        int i = static_cast<int>(cl);
        return static_cast<double>(r.counters.traffic.readBytes[i] +
                                   r.counters.traffic.writeBytes[i]) /
               static_cast<double>(r.counters.traffic.total());
    };
    EXPECT_GT(share(d3, Client::ZStencil), share(ut, Client::ZStencil));

    // Doom3 uses 4-byte indices, UT2004 2-byte (Table III).
    EXPECT_EQ(ut.apiStats.indexBytes(), ut.apiStats.indices() * 2);
    EXPECT_EQ(d3.apiStats.indexBytes(), d3.apiStats.indices() * 4);
}

TEST(IntegrationShape, AnisotropyCostExceedsTrilinear)
{
    // Riddick runs trilinear (<= 2 bilinears/request); the aniso games
    // exceed that (Table XIII's dynamic texture cost).
    SimResult aniso = simulate("quake4/demo4", 1);
    EXPECT_GT(aniso.counters.bilinearsPerRequest(), 2.0);
    // And the headline: ALU per bilinear below 1 for the OGL games.
    EXPECT_LT(aniso.counters.aluPerBilinear(), 1.0);
}

TEST(IntegrationShape, HzAblationPreservesImage)
{
    // Disabling HZ must not change the rendered output, only where
    // quads are removed (correctness of the optimization).
    gpu::GpuConfig with_hz;
    with_hz.width = 192;
    with_hz.height = 144;
    gpu::GpuConfig without = with_hz;
    without.hzEnabled = false;

    std::uint64_t hashes[2];
    std::uint64_t removed_pre[2];
    int i = 0;
    for (const auto &config : {with_hz, without}) {
        gpu::GpuSimulator sim(config);
        api::Device dev;
        dev.setSink(&sim);
        workloads::makeTimedemo("ut2004/primeval")->run(dev, 1);
        hashes[i] = sim.framebufferImage().contentHash();
        removed_pre[i] = sim.counters().quadsRemovedHz;
        ++i;
    }
    EXPECT_EQ(hashes[0], hashes[1]);
    EXPECT_GT(removed_pre[0], 0u);
    EXPECT_EQ(removed_pre[1], 0u);
}

TEST(IntegrationShape, MinMaxHzAcceptsWithoutChangingOutput)
{
    // The paper's suggested improvement ("a HZ storing maximum and
    // minimum values"): early-accepted quads skip the z-buffer read.
    // Output must be identical; z read traffic must not increase.
    gpu::GpuConfig base;
    base.width = 192;
    base.height = 144;
    gpu::GpuConfig minmax = base;
    minmax.hzMinMax = true;

    std::uint64_t hashes[2];
    std::uint64_t z_reads[2];
    std::uint64_t accepts[2];
    int i = 0;
    for (const auto &config : {base, minmax}) {
        gpu::GpuSimulator sim(config);
        api::Device dev;
        dev.setSink(&sim);
        workloads::makeTimedemo("ut2004/primeval")->run(dev, 2);
        hashes[i] = sim.framebufferImage().contentHash();
        z_reads[i] = sim.counters().traffic.readBytes[static_cast<int>(
            memsys::Client::ZStencil)];
        accepts[i] = sim.hzStats().quadsAccepted;
        ++i;
    }
    EXPECT_EQ(hashes[0], hashes[1]);
    EXPECT_EQ(accepts[0], 0u);
    EXPECT_GT(accepts[1], 0u);
    EXPECT_LE(z_reads[1], z_reads[0]);
}
