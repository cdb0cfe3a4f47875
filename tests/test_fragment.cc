/**
 * @file
 * Unit tests for the fragment back-end: cached surfaces with fast clear
 * and compression, the z/stencil unit (incl. stencil-shadow patterns),
 * blending and the colour unit.
 */

#include <gtest/gtest.h>

#include "fragment/rop.hh"
#include "fragment/zstencil.hh"

using namespace wc3d;
using namespace wc3d::frag;
using memsys::Client;

namespace {

constexpr int kTexIdx = static_cast<int>(Client::Texture);
constexpr int kZIdx = static_cast<int>(Client::ZStencil);
constexpr int kColIdx = static_cast<int>(Client::Color);

} // namespace

TEST(Surface, FastClearCostsNoTraffic)
{
    memsys::MemoryController mc;
    CachedSurface s(SurfaceKind::DepthStencil, Client::ZStencil, 64, 64,
                    SurfaceCacheConfig{}, &mc);
    s.fastClear(packDepthStencil(1.0f, 0));
    EXPECT_EQ(mc.traffic().total(), 0u);
    EXPECT_FLOAT_EQ(unpackDepth(s.word(10, 10)), 1.0f);
}

TEST(Surface, ClearedBlockFillIsFree)
{
    memsys::MemoryController mc;
    CachedSurface s(SurfaceKind::DepthStencil, Client::ZStencil, 64, 64,
                    SurfaceCacheConfig{}, &mc);
    s.fastClear(packDepthStencil(1.0f, 0));
    s.accessQuad(0, 0, false); // miss, but block is Cleared: 0 bytes
    EXPECT_EQ(mc.traffic().readBytes[kZIdx], 0u);
    EXPECT_EQ(s.cacheStats().misses, 1u);
}

TEST(Surface, DirtyEvictionWritesBack)
{
    memsys::MemoryController mc;
    // 1-line cache forces eviction on the second block.
    SurfaceCacheConfig cfg;
    cfg.ways = 1;
    cfg.sets = 1;
    CachedSurface s(SurfaceKind::DepthStencil, Client::ZStencil, 64, 64,
                    cfg, &mc);
    s.fastClear(packDepthStencil(1.0f, 0));
    s.accessQuad(0, 0, true);  // dirty block 0
    s.accessQuad(8, 0, false); // evicts block 0
    // Uniform cleared content compresses: 128 bytes written.
    EXPECT_EQ(mc.traffic().writeBytes[kZIdx], 128u);
}

TEST(Surface, NonPlanarBlockWritesBackFull)
{
    memsys::MemoryController mc;
    SurfaceCacheConfig cfg;
    cfg.ways = 1;
    cfg.sets = 1;
    CachedSurface s(SurfaceKind::DepthStencil, Client::ZStencil, 64, 64,
                    cfg, &mc);
    s.fastClear(packDepthStencil(1.0f, 0));
    s.accessQuad(0, 0, true);
    // Scribble non-planar depth into block 0.
    for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x)
            s.setWord(x, y, packDepthStencil(((x * 31 + y * 57) % 97) / 97.0f,
                                             0));
    s.accessQuad(8, 0, false); // evict
    EXPECT_EQ(mc.traffic().writeBytes[kZIdx], 256u);
    // Refetch block 0: now stored uncompressed -> 256-byte fill.
    s.accessQuad(8, 8, false); // evict block 1 (clean)
    std::uint64_t before = mc.traffic().readBytes[kZIdx];
    s.accessQuad(0, 0, false);
    EXPECT_EQ(mc.traffic().readBytes[kZIdx] - before, 256u);
}

TEST(Surface, CompressedRefillCostsHalf)
{
    memsys::MemoryController mc;
    SurfaceCacheConfig cfg;
    cfg.ways = 1;
    cfg.sets = 1;
    CachedSurface s(SurfaceKind::Color, Client::Color, 64, 64, cfg, &mc);
    s.fastClear(0u);
    s.accessQuad(0, 0, true); // uniform colour block stays compressible
    s.accessQuad(8, 0, false); // evict: compressed writeback (128)
    EXPECT_EQ(mc.traffic().writeBytes[kColIdx], 128u);
    std::uint64_t before = mc.traffic().readBytes[kColIdx];
    s.accessQuad(0, 0, false); // refill compressed
    EXPECT_EQ(mc.traffic().readBytes[kColIdx] - before, 128u);
}

TEST(Surface, FlushDirtyWritesAllDirtyBlocks)
{
    memsys::MemoryController mc;
    CachedSurface s(SurfaceKind::Color, Client::Color, 64, 64,
                    SurfaceCacheConfig{}, &mc);
    s.fastClear(0u);
    s.accessQuad(0, 0, true);
    s.accessQuad(8, 0, true);
    s.flushDirty();
    EXPECT_EQ(mc.traffic().writeBytes[kColIdx], 2u * 128u);
    // Second flush: nothing dirty.
    std::uint64_t before = mc.traffic().writeBytes[kColIdx];
    s.flushDirty();
    EXPECT_EQ(mc.traffic().writeBytes[kColIdx], before);
}

TEST(Surface, ReadbackChargesStoredSizes)
{
    memsys::MemoryController mc;
    CachedSurface s(SurfaceKind::Color, Client::Color, 16, 16,
                    SurfaceCacheConfig{}, &mc);
    s.fastClear(0u); // all blocks Cleared: free readback
    s.chargeFullReadback(Client::Dac);
    EXPECT_EQ(mc.traffic().readBytes[static_cast<int>(Client::Dac)], 0u);
}

TEST(Surface, ToImageRoundTrip)
{
    CachedSurface s(SurfaceKind::Color, Client::Color, 4, 4,
                    SurfaceCacheConfig{}, nullptr);
    Rgba8 c{12, 34, 56, 78};
    s.setWord(2, 1, c.packed());
    Image img = s.toImage();
    EXPECT_EQ(img.at(2, 1), c);
    EXPECT_EQ(img.width(), 4);
}

TEST(ZStencil, PackUnpack)
{
    std::uint32_t w = packDepthStencil(0.5f, 42);
    EXPECT_NEAR(unpackDepth(w), 0.5f, 1e-6f);
    EXPECT_EQ(unpackStencil(w), 42);
    EXPECT_EQ(unpackDepth(packDepthStencil(0.0f, 0)), 0.0f);
    EXPECT_EQ(unpackDepth(packDepthStencil(1.0f, 0)), 1.0f);
}

TEST(ZStencil, CompareFuncs)
{
    EXPECT_TRUE(compareFunc(CompareFunc::Less, 1, 2));
    EXPECT_FALSE(compareFunc(CompareFunc::Less, 2, 2));
    EXPECT_TRUE(compareFunc(CompareFunc::LEqual, 2, 2));
    EXPECT_TRUE(compareFunc(CompareFunc::Greater, 3, 2));
    EXPECT_TRUE(compareFunc(CompareFunc::NotEqual, 1, 2));
    EXPECT_TRUE(compareFunc(CompareFunc::GEqual, 2, 2));
    EXPECT_TRUE(compareFunc(CompareFunc::Equal, 2, 2));
    EXPECT_TRUE(compareFunc(CompareFunc::Always, 0, 9));
    EXPECT_FALSE(compareFunc(CompareFunc::Never, 0, 0));
}

TEST(ZStencil, StencilOps)
{
    EXPECT_EQ(applyStencilOp(StencilOp::Keep, 5, 9), 5);
    EXPECT_EQ(applyStencilOp(StencilOp::Zero, 5, 9), 0);
    EXPECT_EQ(applyStencilOp(StencilOp::Replace, 5, 9), 9);
    EXPECT_EQ(applyStencilOp(StencilOp::Incr, 254, 0), 255);
    EXPECT_EQ(applyStencilOp(StencilOp::Incr, 255, 0), 255);
    EXPECT_EQ(applyStencilOp(StencilOp::IncrWrap, 255, 0), 0);
    EXPECT_EQ(applyStencilOp(StencilOp::Decr, 1, 0), 0);
    EXPECT_EQ(applyStencilOp(StencilOp::Decr, 0, 0), 0);
    EXPECT_EQ(applyStencilOp(StencilOp::DecrWrap, 0, 0), 255);
    EXPECT_EQ(applyStencilOp(StencilOp::Invert, 0x0f, 0), 0xf0);
}

namespace {

ZStencilUnit
makeUnit(CachedSurface &s)
{
    s.fastClear(packDepthStencil(1.0f, 0));
    return ZStencilUnit(&s);
}

} // namespace

TEST(ZStencilUnit, LessTestPassesCloserFragments)
{
    CachedSurface s(SurfaceKind::DepthStencil, Client::ZStencil, 16, 16,
                    SurfaceCacheConfig{}, nullptr);
    ZStencilUnit unit = makeUnit(s);
    DepthStencilState st;
    st.depthFunc = CompareFunc::Less;
    float z[4] = {0.5f, 0.5f, 0.5f, 0.5f};
    std::uint8_t mask = 0xf;
    float zmin = 1.0f;
    float zmax = 0.0f;
    EXPECT_TRUE(unit.testQuad(st, false, 0, 0, z, mask, zmin, zmax));
    EXPECT_EQ(mask, 0xf);
    EXPECT_FLOAT_EQ(zmin, 0.5f);
    EXPECT_FLOAT_EQ(zmax, 0.5f);
    // Same depth again: fails (Less, stored now 0.5) and writes nothing.
    mask = 0xf;
    std::uint32_t before = s.word(1, 1);
    EXPECT_FALSE(unit.testQuad(st, false, 0, 0, z, mask, zmin, zmax));
    EXPECT_EQ(mask, 0);
    EXPECT_EQ(s.word(1, 1), before);
}

TEST(ZStencilUnit, EqualPassAfterPrepass)
{
    // The Doom3/Quake4 pattern: z-prepass with LEqual+write, then
    // shading passes with Equal and no write.
    CachedSurface s(SurfaceKind::DepthStencil, Client::ZStencil, 16, 16,
                    SurfaceCacheConfig{}, nullptr);
    ZStencilUnit unit = makeUnit(s);
    DepthStencilState prepass;
    prepass.depthFunc = CompareFunc::LEqual;
    float z[4] = {0.25f, 0.25f, 0.25f, 0.25f};
    std::uint8_t mask = 0xf;
    float zmin;
    float zmax;
    unit.testQuad(prepass, false, 0, 0, z, mask, zmin, zmax);

    DepthStencilState shade;
    shade.depthFunc = CompareFunc::Equal;
    shade.depthWrite = false;
    mask = 0xf;
    EXPECT_TRUE(unit.testQuad(shade, false, 0, 0, z, mask, zmin, zmax));
    EXPECT_EQ(mask, 0xf);
    // A different depth fails the Equal pass.
    float z2[4] = {0.3f, 0.3f, 0.3f, 0.3f};
    mask = 0xf;
    EXPECT_FALSE(unit.testQuad(shade, false, 0, 0, z2, mask, zmin, zmax));
}

TEST(ZStencilUnit, PartialQuadOnlyLiveLanesTested)
{
    CachedSurface s(SurfaceKind::DepthStencil, Client::ZStencil, 16, 16,
                    SurfaceCacheConfig{}, nullptr);
    ZStencilUnit unit = makeUnit(s);
    DepthStencilState st;
    float z[4] = {0.5f, 0.5f, 0.5f, 0.5f};
    std::uint8_t mask = 0x5; // lanes 0 and 2
    float zmin;
    float zmax;
    EXPECT_TRUE(unit.testQuad(st, false, 0, 0, z, mask, zmin, zmax));
    EXPECT_EQ(mask, 0x5);
    // Only the two live lanes were tested and written.
    EXPECT_FLOAT_EQ(unpackDepth(s.word(0, 0)), 0.5f);
    EXPECT_FLOAT_EQ(unpackDepth(s.word(0, 1)), 0.5f);
    EXPECT_FLOAT_EQ(unpackDepth(s.word(1, 0)), 1.0f);
    EXPECT_FLOAT_EQ(unpackDepth(s.word(1, 1)), 1.0f);
    // Untouched lanes keep clear depth 1.0 -> quad max is 1.0; the
    // written lanes set the min.
    EXPECT_FLOAT_EQ(zmin, 0.5f);
    EXPECT_FLOAT_EQ(zmax, 1.0f);
}

TEST(ZStencilUnit, StencilShadowVolumeCarmacksReverse)
{
    // Z-fail stencil counting: back faces increment on depth fail,
    // front faces decrement on depth fail.
    CachedSurface s(SurfaceKind::DepthStencil, Client::ZStencil, 8, 8,
                    SurfaceCacheConfig{}, nullptr);
    ZStencilUnit unit = makeUnit(s);

    // Scene geometry at depth 0.4 (prepass).
    DepthStencilState prepass;
    prepass.depthFunc = CompareFunc::LEqual;
    float scene_z[4] = {0.4f, 0.4f, 0.4f, 0.4f};
    std::uint8_t mask = 0xf;
    float zmin;
    float zmax;
    unit.testQuad(prepass, false, 0, 0, scene_z, mask, zmin, zmax);

    // Shadow volume pass: depth test fails behind scene geometry.
    DepthStencilState shadow;
    shadow.depthFunc = CompareFunc::Less;
    shadow.depthWrite = false;
    shadow.stencilTest = true;
    shadow.front.func = CompareFunc::Always;
    shadow.front.zfail = StencilOp::DecrWrap;
    shadow.back.func = CompareFunc::Always;
    shadow.back.zfail = StencilOp::IncrWrap;

    float vol_z[4] = {0.6f, 0.6f, 0.6f, 0.6f}; // behind scene: z-fail
    mask = 0xf;
    unit.testQuad(shadow, true, 0, 0, vol_z, mask, zmin, zmax); // back face
    EXPECT_EQ(mask, 0); // depth failed: no lanes pass
    EXPECT_EQ(unpackStencil(s.word(0, 0)), 1); // but stencil counted

    mask = 0xf;
    unit.testQuad(shadow, false, 0, 0, vol_z, mask, zmin, zmax); // front face
    EXPECT_EQ(unpackStencil(s.word(0, 0)), 0); // balanced: not in shadow
}

TEST(ZStencilUnit, StencilEqualGatesLighting)
{
    CachedSurface s(SurfaceKind::DepthStencil, Client::ZStencil, 8, 8,
                    SurfaceCacheConfig{}, nullptr);
    ZStencilUnit unit = makeUnit(s);
    // Mark pixel stencil = 1 (in shadow).
    s.setWord(0, 0, packDepthStencil(1.0f, 1));
    DepthStencilState light;
    light.depthTest = false;
    light.stencilTest = true;
    light.front.func = CompareFunc::Equal;
    light.front.ref = 0;
    float z[4] = {0.5f, 0.5f, 0.5f, 0.5f};
    std::uint8_t mask = 0x1;
    float zmin;
    float zmax;
    EXPECT_FALSE(unit.testQuad(light, false, 0, 0, z, mask, zmin, zmax));
    // Non-shadowed pixel passes.
    mask = 0x2; // lane 1 = pixel (1,0), stencil 0
    EXPECT_TRUE(unit.testQuad(light, false, 0, 0, z, mask, zmin, zmax));
}

TEST(ZStencilUnit, ReadOnlyStateDetection)
{
    DepthStencilState st;
    EXPECT_FALSE(st.readOnly()); // depth writes by default
    st.depthWrite = false;
    EXPECT_TRUE(st.readOnly());
    st.stencilTest = true;
    st.front.zpass = StencilOp::Incr;
    EXPECT_FALSE(st.readOnly());
    st.front.zpass = StencilOp::Keep;
    EXPECT_TRUE(st.readOnly());
}

TEST(Blend, DisabledPassesSource)
{
    BlendState st;
    Vec4 r = blendColors(st, {0.3f, 0.4f, 0.5f, 0.6f}, {1, 1, 1, 1});
    EXPECT_FLOAT_EQ(r.x, 0.3f);
}

TEST(Blend, AlphaBlend)
{
    BlendState st;
    st.enabled = true;
    st.srcFactor = BlendFactor::SrcAlpha;
    st.dstFactor = BlendFactor::InvSrcAlpha;
    Vec4 r = blendColors(st, {1.0f, 0.0f, 0.0f, 0.25f},
                         {0.0f, 1.0f, 0.0f, 1.0f});
    EXPECT_NEAR(r.x, 0.25f, 1e-6f);
    EXPECT_NEAR(r.y, 0.75f, 1e-6f);
}

TEST(Blend, AdditiveClampsAtOne)
{
    BlendState st;
    st.enabled = true;
    st.srcFactor = BlendFactor::One;
    st.dstFactor = BlendFactor::One;
    Vec4 r = blendColors(st, {0.8f, 0.8f, 0, 1}, {0.7f, 0.1f, 0, 1});
    EXPECT_FLOAT_EQ(r.x, 1.0f);
    EXPECT_NEAR(r.y, 0.9f, 1e-6f);
}

TEST(Blend, MinMaxOps)
{
    BlendState st;
    st.enabled = true;
    st.op = BlendOp::Min;
    EXPECT_FLOAT_EQ(blendColors(st, {0.2f, 0.9f, 0, 1},
                                {0.5f, 0.3f, 0, 1}).x, 0.2f);
    st.op = BlendOp::Max;
    EXPECT_FLOAT_EQ(blendColors(st, {0.2f, 0.9f, 0, 1},
                                {0.5f, 0.3f, 0, 1}).y, 0.9f);
}

TEST(Blend, RevSubtract)
{
    BlendState st;
    st.enabled = true;
    st.op = BlendOp::RevSubtract;
    st.srcFactor = BlendFactor::One;
    st.dstFactor = BlendFactor::One;
    Vec4 r = blendColors(st, {0.2f, 0, 0, 1}, {0.5f, 0, 0, 1});
    EXPECT_NEAR(r.x, 0.3f, 1e-6f);
}

TEST(Blend, PackUnpackColor)
{
    Vec4 c{0.25f, 0.5f, 0.75f, 1.0f};
    Vec4 r = unpackColor(packColor(c));
    EXPECT_NEAR(r.x, c.x, 1.0f / 255);
    EXPECT_NEAR(r.w, 1.0f, 1e-6f);
}

TEST(ColorUnit, MaskedQuadDoesNotTouchMemory)
{
    memsys::MemoryController mc;
    CachedSurface s(SurfaceKind::Color, Client::Color, 16, 16,
                    SurfaceCacheConfig{}, &mc);
    s.fastClear(0u);
    ColorUnit unit(&s);
    BlendState st;
    st.colorWriteMask = false;
    Vec4 colors[4] = {{1, 0, 0, 1}, {1, 0, 0, 1}, {1, 0, 0, 1},
                      {1, 0, 0, 1}};
    EXPECT_FALSE(unit.writeQuad(st, 0, 0, colors, 0xf));
    EXPECT_EQ(mc.traffic().total(), 0u);
    EXPECT_EQ(s.word(0, 0), 0u);
}

TEST(ColorUnit, WritesLiveLanesOnly)
{
    CachedSurface s(SurfaceKind::Color, Client::Color, 16, 16,
                    SurfaceCacheConfig{}, nullptr);
    s.fastClear(0u);
    ColorUnit unit(&s);
    BlendState st;
    Vec4 colors[4] = {{1, 0, 0, 1}, {0, 1, 0, 1}, {0, 0, 1, 1},
                      {1, 1, 1, 1}};
    EXPECT_TRUE(unit.writeQuad(st, 0, 0, colors, 0x9)); // lanes 0 and 3
    EXPECT_EQ(Rgba8::fromPacked(s.word(0, 0)).r, 255);
    EXPECT_EQ(s.word(1, 0), 0u);
    EXPECT_EQ(s.word(0, 1), 0u);
    EXPECT_EQ(Rgba8::fromPacked(s.word(1, 1)).b, 255);
}

TEST(ColorUnit, BlendsAgainstDestination)
{
    CachedSurface s(SurfaceKind::Color, Client::Color, 16, 16,
                    SurfaceCacheConfig{}, nullptr);
    s.fastClear(packColor({0.0f, 1.0f, 0.0f, 1.0f}));
    ColorUnit unit(&s);
    BlendState st;
    st.enabled = true;
    st.srcFactor = BlendFactor::One;
    st.dstFactor = BlendFactor::One;
    Vec4 colors[4] = {{1, 0, 0, 1}, {1, 0, 0, 1}, {1, 0, 0, 1},
                      {1, 0, 0, 1}};
    unit.writeQuad(st, 0, 0, colors, 0xf);
    Rgba8 r = Rgba8::fromPacked(s.word(0, 0));
    EXPECT_EQ(r.r, 255);
    EXPECT_EQ(r.g, 255);
    EXPECT_EQ(r.b, 0);
}

TEST(ColorUnit, EmptyMaskIsNoop)
{
    CachedSurface s(SurfaceKind::Color, Client::Color, 16, 16,
                    SurfaceCacheConfig{}, nullptr);
    s.fastClear(0u);
    ColorUnit unit(&s);
    BlendState st;
    Vec4 colors[4] = {};
    EXPECT_FALSE(unit.writeQuad(st, 0, 0, colors, 0x0));
    for (int y = 0; y < 2; ++y)
        for (int x = 0; x < 2; ++x)
            EXPECT_EQ(s.word(x, y), 0u);
}

TEST(Surface, NoFetchWriteSkipsReadTraffic)
{
    memsys::MemoryController mc;
    SurfaceCacheConfig cfg;
    cfg.ways = 1;
    cfg.sets = 1;
    CachedSurface s(SurfaceKind::DepthStencil, Client::ZStencil, 64, 64,
                    cfg, &mc);
    s.fastClear(packDepthStencil(1.0f, 0));
    // Make block 0 uncompressed and evict it so a refetch would cost.
    s.accessQuad(0, 0, true);
    for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x)
            s.setWord(x, y,
                      packDepthStencil(((x * 37 + y * 53) % 89) / 89.0f,
                                       0));
    s.accessQuad(8, 0, false); // evict block 0 (256B writeback)
    std::uint64_t reads_before = mc.traffic().readBytes[kZIdx];
    s.accessQuadNoFetch(0, 0); // miss, but no fill read
    EXPECT_EQ(mc.traffic().readBytes[kZIdx], reads_before);
    // The line is dirty: evicting it writes back.
    std::uint64_t writes_before = mc.traffic().writeBytes[kZIdx];
    s.accessQuad(8, 0, false);
    EXPECT_GT(mc.traffic().writeBytes[kZIdx], writes_before);
}

TEST(ZStencilUnit, AcceptQuadWritesWithoutTest)
{
    CachedSurface s(SurfaceKind::DepthStencil, Client::ZStencil, 16, 16,
                    SurfaceCacheConfig{}, nullptr);
    s.fastClear(packDepthStencil(1.0f, 42)); // nonzero stencil retained
    ZStencilUnit unit(&s);
    DepthStencilState st;
    st.depthFunc = CompareFunc::Less;
    float z[4] = {0.25f, 0.3f, 0.35f, 0.4f};
    auto range = unit.acceptQuad(st, 0, 0, z, 0x5); // lanes 0 and 2
    EXPECT_NEAR(s.word(0, 0) >> 8,
                packDepthStencil(0.25f, 0) >> 8, 1);
    EXPECT_EQ(unpackStencil(s.word(0, 0)), 42); // stencil untouched
    EXPECT_FLOAT_EQ(unpackDepth(s.word(1, 0)), 1.0f); // dead lane kept
    EXPECT_NEAR(range.first, 0.25f, 1e-4f);
    EXPECT_FLOAT_EQ(range.second, 1.0f); // untouched lanes at clear
    // Both live lanes were written; the other dead lane kept clear.
    EXPECT_NEAR(s.word(0, 1) >> 8, packDepthStencil(0.35f, 0) >> 8, 1);
    EXPECT_FLOAT_EQ(unpackDepth(s.word(1, 1)), 1.0f);
}

TEST(ZStencilUnit, AcceptQuadNoWriteState)
{
    CachedSurface s(SurfaceKind::DepthStencil, Client::ZStencil, 16, 16,
                    SurfaceCacheConfig{}, nullptr);
    s.fastClear(packDepthStencil(0.9f, 0));
    ZStencilUnit unit(&s);
    DepthStencilState st;
    st.depthFunc = CompareFunc::LEqual;
    st.depthWrite = false;
    float z[4] = {0.2f, 0.2f, 0.2f, 0.2f};
    unit.acceptQuad(st, 0, 0, z, 0xf);
    // Nothing written.
    EXPECT_FLOAT_EQ(unpackDepth(s.word(0, 0)), 0.9f);
}
