/**
 * @file
 * Unit tests for the texture sampler: filtering correctness, LOD
 * selection, anisotropic probe counts and bilinear-sample accounting
 * (the Table XIII quantities), plus the two-level texture cache.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "memory/controller.hh"
#include "sampler_reference.hh"
#include "texture/texcache.hh"

using namespace wc3d;
using namespace wc3d::tex;

namespace {

/** 2x2 quad coordinates for a uniform uv gradient. */
void
quadCoords(Vec4 out[4], Vec2 base, Vec2 ddx, Vec2 ddy)
{
    out[0] = {base.x, base.y, 0, 1};
    out[1] = {base.x + ddx.x, base.y + ddx.y, 0, 1};
    out[2] = {base.x + ddy.x, base.y + ddy.y, 0, 1};
    out[3] = {base.x + ddx.x + ddy.x, base.y + ddx.y + ddy.y, 0, 1};
}

Texture2D
flatTexture(Rgba8 c, int size = 64)
{
    Image img(size, size, c);
    return Texture2D("flat", img, TexFormat::RGBA8);
}

} // namespace

TEST(Sampler, NearestPicksExactTexel)
{
    Texture2D t = Texture2D::checkerboard("chk", 8, 1, {255, 0, 0, 255},
                                          {0, 0, 255, 255},
                                          TexFormat::RGBA8);
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Nearest;
    // Center of texel (0,0): red. Center of texel (1,0): blue.
    Vec4 r = s.sampleLod(t, st, {0.5f / 8, 0.5f / 8}, 0.0f);
    EXPECT_FLOAT_EQ(r.x, 1.0f);
    Vec4 b = s.sampleLod(t, st, {1.5f / 8, 0.5f / 8}, 0.0f);
    EXPECT_FLOAT_EQ(b.z, 1.0f);
    // A nearest quad fetches single texels: no bilinear footprint.
    Vec4 coords[4];
    Vec4 out[4];
    quadCoords(coords, {0.5f / 8, 0.5f / 8}, {1.0f / 8, 0}, {0, 1.0f / 8});
    EXPECT_EQ(s.sampleQuad(t, st, coords, 0.0f, out), 0);
}

TEST(Sampler, BilinearAtTexelCenterIsExact)
{
    Texture2D t = flatTexture({100, 150, 200, 255});
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Bilinear;
    Vec4 r = s.sampleLod(t, st, {0.5f, 0.5f}, 0.0f);
    EXPECT_NEAR(r.x, 100.0f / 255.0f, 1e-5f);
    EXPECT_NEAR(r.y, 150.0f / 255.0f, 1e-5f);
}

TEST(Sampler, BilinearInterpolatesHalfway)
{
    // Two-column texture: black and white; halfway between centers
    // must be mid-grey.
    Image img(2, 2);
    img.set(0, 0, {0, 0, 0, 255});
    img.set(0, 1, {0, 0, 0, 255});
    img.set(1, 0, {255, 255, 255, 255});
    img.set(1, 1, {255, 255, 255, 255});
    Texture2D t("bw", img, TexFormat::RGBA8);
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Bilinear;
    Vec4 r = s.sampleLod(t, st, {0.5f, 0.5f}, 0.0f);
    EXPECT_NEAR(r.x, 0.5f, 1e-5f);
}

TEST(Sampler, WrapRepeatVsClamp)
{
    Image img(4, 4);
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
            img.set(x, y, x == 0 ? Rgba8{255, 0, 0, 255}
                                 : Rgba8{0, 255, 0, 255});
    Texture2D t("wrap", img, TexFormat::RGBA8);
    Sampler s;
    SamplerState repeat;
    repeat.filter = TexFilter::Nearest;
    repeat.wrap = TexWrap::Repeat;
    SamplerState clamp = repeat;
    clamp.wrap = TexWrap::Clamp;
    // u slightly beyond 1.0 wraps to texel 0 (red) vs clamps to 3 (green).
    Vec4 r = s.sampleLod(t, repeat, {1.01f, 0.1f}, 0.0f);
    EXPECT_FLOAT_EQ(r.x, 1.0f);
    Vec4 c = s.sampleLod(t, clamp, {1.01f, 0.1f}, 0.0f);
    EXPECT_FLOAT_EQ(c.y, 1.0f);
}

TEST(Sampler, TrilinearCostsTwoBilinearsAtFractionalLod)
{
    Texture2D t = flatTexture({128, 128, 128, 255});
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Trilinear;
    Vec4 coords[4];
    Vec4 out[4];
    // A 1-texel footprint (lod 0); the bias moves the lod.
    quadCoords(coords, {0.5f, 0.5f}, {1.0f / 64, 0}, {0, 1.0f / 64});
    EXPECT_EQ(s.sampleQuad(t, st, coords, 1.5f, out), 8); // 2 per lane
    // Magnification: 1 bilinear per lane.
    EXPECT_EQ(s.sampleQuad(t, st, coords, -1.0f, out), 4);
    // Clamped to the top level: 1 per lane.
    EXPECT_EQ(s.sampleQuad(t, st, coords, 100.0f, out), 4);
}

TEST(Sampler, QuadLodSelectsMipFromFootprint)
{
    // 64-texel texture sampled with a 1-texel-per-pixel footprint at
    // level 0 -> lod 0; 4-texels-per-pixel -> lod 2.
    Texture2D t = flatTexture({50, 100, 150, 255});
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Trilinear;
    Vec4 coords[4];
    Vec4 out[4];
    // ddx of 4 texels = 4/64 in uv.
    quadCoords(coords, {0.3f, 0.3f}, {4.0f / 64, 0}, {0, 4.0f / 64});
    // lod = 2 exactly -> single bilinear per lane.
    EXPECT_EQ(s.sampleQuad(t, st, coords, 0.0f, out), 4);
}

TEST(Sampler, AnisotropicProbeCountTracksRatio)
{
    Texture2D t = flatTexture({50, 100, 150, 255});
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Anisotropic;
    st.maxAniso = 16;
    Vec4 coords[4];
    Vec4 out[4];
    // 8:1 anisotropy: 8 texels in x, 1 texel in y per pixel step.
    quadCoords(coords, {0.1f, 0.1f}, {8.0f / 64, 0}, {0, 1.0f / 64});
    // 8 probes per lane; footprint ~1 texel -> lod 0 -> 1 bilinear each.
    EXPECT_EQ(s.sampleQuad(t, st, coords, 0.0f, out), 32);
}

TEST(Sampler, AnisotropyClampedToMaxAniso)
{
    Texture2D t = flatTexture({50, 100, 150, 255});
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Anisotropic;
    st.maxAniso = 4;
    Vec4 coords[4];
    Vec4 out[4];
    // 32:1 anisotropy, clamped to 4 probes; each probe covers 8
    // texels, so lod 3 exactly and one bilinear per probe.
    quadCoords(coords, {0.1f, 0.1f}, {32.0f / 64, 0}, {0, 1.0f / 64});
    EXPECT_EQ(s.sampleQuad(t, st, coords, 0.0f, out), 4 * 4);
}

TEST(Sampler, IsotropicFootprintSingleProbe)
{
    Texture2D t = flatTexture({50, 100, 150, 255});
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Anisotropic;
    st.maxAniso = 16;
    Vec4 coords[4];
    Vec4 out[4];
    quadCoords(coords, {0.1f, 0.1f}, {1.0f / 64, 0}, {0, 1.0f / 64});
    // ratio 1 -> 1 probe, lod 0 -> 1 bilinear per lane.
    EXPECT_EQ(s.sampleQuad(t, st, coords, 0.0f, out), 4);
}

TEST(Sampler, LodBiasShiftsLevel)
{
    Texture2D t = flatTexture({50, 100, 150, 255});
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Trilinear;
    Vec4 coords[4];
    Vec4 out[4];
    quadCoords(coords, {0.3f, 0.3f}, {1.0f / 64, 0}, {0, 1.0f / 64});
    // lod would be 0; +1.5 bias forces trilinear between levels 1 and 2.
    EXPECT_EQ(s.sampleQuad(t, st, coords, 1.5f, out), 8); // 2 per lane
}

TEST(Sampler, SampledColorMatchesFlatTexture)
{
    Texture2D t = flatTexture({80, 120, 160, 200});
    Sampler s;
    SamplerState st;
    st.filter = TexFilter::Anisotropic;
    st.maxAniso = 16;
    Vec4 coords[4];
    Vec4 out[4];
    quadCoords(coords, {0.4f, 0.2f}, {6.0f / 64, 0}, {0, 1.0f / 64});
    s.sampleQuad(t, st, coords, 0.0f, out);
    for (int l = 0; l < 4; ++l) {
        EXPECT_NEAR(out[l].x, 80.0f / 255.0f, 0.02f);
        EXPECT_NEAR(out[l].w, 200.0f / 255.0f, 0.02f);
    }
}

namespace {

/** One block access as the sampler reports it to its listener. */
struct BlockRef
{
    int level, bx, by, refs;

    bool
    operator==(const BlockRef &o) const
    {
        return level == o.level && bx == o.bx && by == o.by &&
               refs == o.refs;
    }
};

std::ostream &
operator<<(std::ostream &os, const BlockRef &b)
{
    return os << "{" << b.level << ", " << b.bx << ", " << b.by << ", "
              << b.refs << "}";
}

/** Records the exact block stream a Sampler emits. */
struct RecordingListener final : TexelAccessListener
{
    std::vector<BlockRef> blocks;

    void
    blockAccess(const Texture2D &, int level, int bx, int by,
                int refs) override
    {
        blocks.push_back({level, bx, by, refs});
    }
};

/** FNV-1a over a block stream, for streams too long to spell out. */
std::uint64_t
digest(const std::vector<BlockRef> &blocks)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const BlockRef &b : blocks) {
        for (int v : {b.level, b.bx, b.by, b.refs}) {
            h ^= static_cast<std::uint32_t>(v);
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/** FNV-1a over the bit patterns of four sampled colours. */
std::uint64_t
digest(const Vec4 out[4])
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int l = 0; l < 4; ++l) {
        for (float f : {out[l].x, out[l].y, out[l].z, out[l].w}) {
            std::uint32_t bits;
            std::memcpy(&bits, &f, sizeof bits);
            h ^= bits;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/** What one sampleQuad call emitted and returned. */
struct QuadStream
{
    std::vector<BlockRef> blocks;
    int bilinears = 0;
    std::uint64_t colours = 0;
};

/** Sample one quad of a uniform uv gradient (texel units of
 *  @p texture's base level) and record everything it emitted. */
QuadStream
streamOf(const Texture2D &texture, SamplerState state, Vec2 base_texels,
         Vec2 ddx_texels, Vec2 ddy_texels, float lod_bias = 0.0f)
{
    float w = static_cast<float>(texture.width());
    float h = static_cast<float>(texture.height());
    Vec4 coords[4];
    quadCoords(coords, {base_texels.x / w, base_texels.y / h},
               {ddx_texels.x / w, ddx_texels.y / h},
               {ddy_texels.x / w, ddy_texels.y / h});
    RecordingListener rec;
    Sampler s;
    s.setListener(&rec);
    Vec4 out[4];
    int bilinears = s.sampleQuad(texture, state, coords, lod_bias, out);
    return {rec.blocks, bilinears, digest(out)};
}

SamplerState
bilinear(TexWrap wrap = TexWrap::Repeat)
{
    SamplerState st;
    st.filter = TexFilter::Bilinear;
    st.wrap = wrap;
    return st;
}

/** 64x64 RGBA8 noise: 16x16 blocks at level 0, 7 levels. */
const Texture2D &
noise64()
{
    static const Texture2D t =
        Texture2D::noise("n64", 64, 7, TexFormat::RGBA8);
    return t;
}

} // namespace

// The block stream below is the texture cache's whole input: these
// cases pin it access by access (level, bx, by, refs in emission
// order) together with the bilinear count and sampled colours.
// Texel coordinates: a lane at texel position p has its bilinear
// footprint at floor(p - 0.5) and floor(p - 0.5) + 1.

TEST(SamplerStream, FootprintInsideOneBlock)
{
    QuadStream q = streamOf(noise64(), bilinear(), {5.75f, 5.75f},
                            {1, 0}, {0, 1});
    EXPECT_EQ(q.blocks, (std::vector<BlockRef>{{0, 1, 1, 16}}));
    EXPECT_EQ(q.bilinears, 4);
    EXPECT_EQ(q.colours, 1953946738902969575ull);
}

TEST(SamplerStream, FootprintStraddlesHorizontally)
{
    QuadStream q = streamOf(noise64(), bilinear(), {7.75f, 5.75f},
                            {1, 0}, {0, 1});
    EXPECT_EQ(q.blocks, (std::vector<BlockRef>{{0, 1, 1, 4}, {0, 2, 1, 12}}));
    EXPECT_EQ(q.bilinears, 4);
    EXPECT_EQ(q.colours, 17024473905554948938ull);
}

TEST(SamplerStream, FootprintStraddlesVertically)
{
    QuadStream q = streamOf(noise64(), bilinear(), {5.75f, 7.75f},
                            {1, 0}, {0, 1});
    EXPECT_EQ(q.blocks, (std::vector<BlockRef>{{0, 1, 1, 4}, {0, 1, 2, 12}}));
    EXPECT_EQ(q.bilinears, 4);
    EXPECT_EQ(q.colours, 14062135928945654646ull);
}

TEST(SamplerStream, FootprintStraddlesBothAxes)
{
    QuadStream q = streamOf(noise64(), bilinear(), {7.75f, 7.75f},
                            {1, 0}, {0, 1});
    EXPECT_EQ(q.blocks, (std::vector<BlockRef>{{0, 1, 1, 1}, {0, 2, 1, 3}, {0, 1, 2, 3}, {0, 2, 2, 9}}));
    EXPECT_EQ(q.bilinears, 4);
    EXPECT_EQ(q.colours, 5420185214000751315ull);
}

TEST(SamplerStream, RepeatWrapsRightAndBottomEdgesToBlockZero)
{
    QuadStream q = streamOf(noise64(), bilinear(), {63.75f, 63.75f},
                            {1, 0}, {0, 1});
    EXPECT_EQ(q.blocks, (std::vector<BlockRef>{{0, 15, 15, 1}, {0, 0, 15, 3}, {0, 15, 0, 3}, {0, 0, 0, 9}}));
    EXPECT_EQ(q.bilinears, 4);
    EXPECT_EQ(q.colours, 18419086327046806348ull);
}

TEST(SamplerStream, ClampHoldsTheEdgeBlock)
{
    QuadStream q = streamOf(noise64(), bilinear(TexWrap::Clamp),
                            {63.75f, 63.75f}, {1, 0}, {0, 1});
    EXPECT_EQ(q.blocks, (std::vector<BlockRef>{{0, 15, 15, 16}}));
    EXPECT_EQ(q.bilinears, 4);
    EXPECT_EQ(q.colours, 13002985554878534189ull);
}

TEST(SamplerStream, OneByOneMipLevel)
{
    // A 64-texel footprint selects level 6, a single 1x1 texel.
    QuadStream q = streamOf(noise64(), bilinear(), {20.0f, 30.0f},
                            {64, 0}, {0, 64});
    EXPECT_EQ(q.blocks, (std::vector<BlockRef>{{6, 0, 0, 16}}));
    EXPECT_EQ(q.bilinears, 4);
    EXPECT_EQ(q.colours, 4652161285917797477ull);
}

TEST(SamplerStream, TrilinearAcrossTwoLevels)
{
    SamplerState st;
    st.filter = TexFilter::Trilinear;
    // A 2.8-texel footprint: lod ~1.49, levels 1 and 2.
    QuadStream q = streamOf(noise64(), st, {30.0f, 18.0f}, {2.8f, 0},
                            {0, 2.8f});
    EXPECT_EQ(q.blocks, (std::vector<BlockRef>{{1, 3, 2, 12}, {2, 1, 1, 8}, {2, 2, 1, 8}, {1, 4, 2, 4}}));
    EXPECT_EQ(q.bilinears, 8);
    EXPECT_EQ(q.colours, 17912069340218208441ull);
}

TEST(SamplerStream, Anisotropic16x)
{
    SamplerState st;
    st.filter = TexFilter::Anisotropic;
    st.maxAniso = 16;
    QuadStream q = streamOf(noise64(), st, {21.0f, 40.5f}, {24, 0},
                            {0, 1.5f});
    EXPECT_EQ(q.blocks, (std::vector<BlockRef>{
        {0, 2, 10, 16}, {1, 1, 4, 9},   {1, 1, 5, 27},  {0, 3, 10, 20},
        {0, 4, 10, 24}, {1, 2, 4, 11},  {1, 2, 5, 33},  {0, 5, 10, 20},
        {1, 3, 4, 11},  {1, 3, 5, 33},  {0, 6, 10, 20}, {0, 7, 10, 24},
        {0, 8, 10, 20}, {1, 4, 4, 10},  {1, 4, 5, 30},  {0, 9, 10, 20},
        {0, 10, 10, 24}, {1, 5, 4, 11}, {1, 5, 5, 33},  {0, 11, 10, 20},
        {1, 6, 4, 11},  {1, 6, 5, 33},  {0, 12, 10, 20}, {0, 13, 10, 24},
        {0, 14, 10, 4}, {1, 7, 4, 1},   {1, 7, 5, 3}}));
    EXPECT_EQ(q.bilinears, 128);
    EXPECT_EQ(q.colours, 11816095845427820065ull);
}

TEST(SamplerStream, QuadOverflowingTheBlockSetForwardsSingleTaps)
{
    // 256x256: 64x64 blocks; the bias forces level 0. Each lane takes
    // 16 probes 8 texels apart in u; lanes are 128 texels apart in u
    // and 6 in v. Every footprint of lanes 0 and 1 straddles a block
    // corner: 32 x 4 distinct blocks fill the per-quad set. Lanes 2
    // and 3 straddle only a vertical block edge, so each of their
    // footprints overflows as four single taps alternating between its
    // two blocks.
    static const Texture2D big =
        Texture2D::noise("n256", 256, 11, TexFormat::RGBA8);
    SamplerState st;
    st.filter = TexFilter::Anisotropic;
    st.maxAniso = 16;
    QuadStream q = streamOf(big, st, {12.0f, 7.75f}, {128, 0}, {0, 6},
                            -8.0f);
    ASSERT_EQ(q.blocks.size(), 256u);
    // Lanes 2 and 3 come first, forwarded while sampling, tap by tap.
    EXPECT_EQ(std::vector<BlockRef>(q.blocks.begin(), q.blocks.begin() + 8),
              (std::vector<BlockRef>{{0, 51, 3, 1}, {0, 52, 3, 1},
                                     {0, 51, 3, 1}, {0, 52, 3, 1},
                                     {0, 53, 3, 1}, {0, 54, 3, 1},
                                     {0, 53, 3, 1}, {0, 54, 3, 1}}));
    for (const BlockRef &b : q.blocks)
        EXPECT_EQ(b.refs, 1);
    EXPECT_EQ(digest(q.blocks), 10626239675837455397ull);
    EXPECT_EQ(q.bilinears, 64);
    EXPECT_EQ(q.colours, 5755756949287273794ull);
}

TEST(TexCache, HitsOnRepeatedBlock)
{
    memsys::MemoryController mc;
    TextureCache cache(TexCacheConfig{}, &mc);
    Texture2D t = Texture2D::noise("n", 64, 1, TexFormat::DXT1);
    t.bindMemory(mc);
    cache.blockAccess(t, 0, 0, 0, 1);
    EXPECT_EQ(cache.l0Stats().misses, 1u);
    cache.blockAccess(t, 0, 0, 0, 1);
    EXPECT_EQ(cache.l0Stats().hits, 1u);
    // One L1 line (64B, 8 DXT1 blocks) was read from memory.
    EXPECT_EQ(mc.traffic().readBytes[static_cast<int>(
                  memsys::Client::Texture)], 64u);
}

TEST(TexCache, L1CoversNeighbouringCompressedBlocks)
{
    memsys::MemoryController mc;
    TextureCache cache(TexCacheConfig{}, &mc);
    Texture2D t = Texture2D::noise("n", 64, 1, TexFormat::DXT1);
    t.bindMemory(mc);
    // 8 DXT1 blocks (8B each) share one 64B L1 line: 8 L0 misses but
    // only one memory read.
    for (int bx = 0; bx < 8; ++bx)
        cache.blockAccess(t, 0, bx, 0, 1);
    EXPECT_EQ(cache.l0Stats().misses, 8u);
    EXPECT_EQ(cache.l1Stats().misses, 1u);
    EXPECT_EQ(cache.l1Stats().hits, 7u);
    EXPECT_EQ(mc.traffic().readBytes[static_cast<int>(
                  memsys::Client::Texture)], 64u);
}

TEST(TexCache, InvalidateDropsResidency)
{
    memsys::MemoryController mc;
    TextureCache cache(TexCacheConfig{}, &mc);
    Texture2D t = Texture2D::noise("n", 64, 1, TexFormat::DXT1);
    t.bindMemory(mc);
    cache.blockAccess(t, 0, 0, 0, 1);
    cache.invalidate();
    cache.resetStats();
    cache.blockAccess(t, 0, 0, 0, 1);
    EXPECT_EQ(cache.l0Stats().misses, 1u);
}

TEST(TextureUnit, ShaderTexSamplesBoundTexture)
{
    memsys::MemoryController mc;
    TextureUnit unit(TexCacheConfig{}, &mc);
    Texture2D t = flatTexture({200, 100, 50, 255});
    t.bindMemory(mc);
    SamplerState st;
    st.filter = TexFilter::Bilinear;
    unit.bind(2, &t, st);
    EXPECT_EQ(unit.boundTexture(2), &t);

    Vec4 coords[4];
    quadCoords(coords, {0.5f, 0.5f}, {1.0f / 64, 0}, {0, 1.0f / 64});
    Vec4 out[4];
    unit.sampleQuad(2, coords, 0.0f, out);
    EXPECT_NEAR(out[0].x, 200.0f / 255.0f, 0.02f);
    EXPECT_GT(mc.traffic().totalRead(), 0u);
}

TEST(TextureUnit, UnboundUnitReturnsBlack)
{
    TextureUnit unit(TexCacheConfig{}, nullptr);
    Vec4 coords[4] = {};
    Vec4 out[4];
    unit.sampleQuad(0, coords, 0.0f, out);
    EXPECT_FLOAT_EQ(out[0].x, 0.0f);
    EXPECT_FLOAT_EQ(out[0].w, 1.0f);
    unit.bind(0, nullptr, SamplerState{});
    unit.unbind(0);
    EXPECT_EQ(unit.boundTexture(0), nullptr);
}

namespace {

/** Random texels, so any mix-up of texels, levels or lanes shows. */
const Texture2D &
randomTexture(TexFormat format, int width, int height)
{
    static std::map<std::tuple<TexFormat, int, int>,
                    std::unique_ptr<Texture2D>> cache;
    auto &slot = cache[{format, width, height}];
    if (!slot) {
        Rng rng(static_cast<std::uint64_t>(width) * 131 + height);
        Image img(width, height);
        for (int y = 0; y < height; ++y)
            for (int x = 0; x < width; ++x)
                img.set(x, y, Rgba8::fromPacked(rng.nextU32()));
        slot = std::make_unique<Texture2D>("random", img, format);
    }
    return *slot;
}

bool
sameBits(const Vec4 &a, const Vec4 &b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** A production sampler and the reference, fed the same calls. */
struct SamplerPair
{
    Sampler model;
    test::ReferenceSampler ref;
    RecordingListener modelBlocks, refBlocks;

    SamplerPair()
    {
        model.setListener(&modelBlocks);
        ref.setListener(&refBlocks);
    }

    /** Sample one quad with both; @return whether everything matched. */
    ::testing::AssertionResult
    quad(const Texture2D &t, const SamplerState &st, const Vec4 coords[4],
         float lod_bias)
    {
        Vec4 got[4], want[4];
        int got_bilinears = model.sampleQuad(t, st, coords, lod_bias, got);
        int want_bilinears = ref.sampleQuad(t, st, coords, lod_bias, want);
        for (int l = 0; l < 4; ++l) {
            if (!sameBits(got[l], want[l]))
                return ::testing::AssertionFailure() << "colour of lane " << l;
        }
        if (got_bilinears != want_bilinears)
            return ::testing::AssertionFailure()
                   << "bilinears " << got_bilinears << "/" << want_bilinears;
        return sameBlocks();
    }

    ::testing::AssertionResult
    lod(const Texture2D &t, const SamplerState &st, Vec2 uv, float lod)
    {
        Vec4 got = model.sampleLod(t, st, uv, lod);
        Vec4 want = ref.sampleLod(t, st, uv, lod);
        if (!sameBits(got, want))
            return ::testing::AssertionFailure() << "colour";
        return sameBlocks();
    }

    ::testing::AssertionResult
    sameBlocks()
    {
        if (modelBlocks.blocks != refBlocks.blocks) {
            auto r = ::testing::AssertionFailure() << "block stream:";
            for (const BlockRef &b : modelBlocks.blocks)
                r << " " << b;
            r << " vs";
            for (const BlockRef &b : refBlocks.blocks)
                r << " " << b;
            return r;
        }
        lastBlocks = modelBlocks.blocks.size();
        modelBlocks.blocks.clear();
        refBlocks.blocks.clear();
        return ::testing::AssertionSuccess();
    }

    std::size_t lastBlocks = 0; ///< accesses the last call emitted
};

/** A random quad around @p base (uv): a footprint of 2^-4..2^7 texels
 *  of the base level, any orientation, anisotropy up to 32:1, and a
 *  non-affine fourth lane. Every eighth quad is axis-aligned with a
 *  power-of-two footprint nudged by under 1e-3, so the trilinear
 *  blend weight lands on both sides of its threshold. */
void
randomQuad(Rng &rng, const Texture2D &t, Vec2 base, Vec4 out[4])
{
    float w = static_cast<float>(t.width());
    float h = static_cast<float>(t.height());
    Vec2 ddx, ddy;
    if (rng.nextBounded(8) == 0) {
        static const float kNudge[] = {0.0f, 3e-5f, 6.9e-5f, 7e-5f,
                                       1.5e-4f, 6e-4f};
        float s = std::ldexp(1.0f + kNudge[rng.nextBounded(6)],
                             rng.nextInt(-2, 9));
        float minor = rng.nextBounded(2) ? s : s / 8.0f;
        ddx = {s, 0.0f};
        ddy = {0.0f, minor};
        if (rng.nextBounded(2))
            std::swap(ddx, ddy);
    } else {
        float s = std::exp2(rng.nextRange(-4.0f, 7.0f));
        float ratio = std::exp2(rng.nextRange(0.0f, 5.0f));
        float a = rng.nextRange(0.0f, 6.2831853f);
        Vec2 major{s * std::cos(a), s * std::sin(a)};
        Vec2 minor{-major.y / ratio, major.x / ratio};
        if (rng.nextBounded(16) == 0)
            minor = {0.0f, 0.0f};
        ddx = major;
        ddy = minor;
        if (rng.nextBounded(2))
            std::swap(ddx, ddy);
    }
    ddx = {ddx.x / w, ddx.y / h};
    ddy = {ddy.x / w, ddy.y / h};
    quadCoords(out, base, ddx, ddy);
    out[3].x += rng.nextRange(-0.25f, 0.25f) * ddx.x;
    out[3].y += rng.nextRange(-0.25f, 0.25f) * ddy.y;
}

using VsParam =
    std::tuple<TexFilter, TexWrap, TexFormat, std::pair<int, int>>;

std::string
vsName(const ::testing::TestParamInfo<VsParam> &info)
{
    static const char *kFilter[] = {"Nearest", "Bilinear", "Trilinear",
                                    "Aniso"};
    auto [filter, wrap, format, size] = info.param;
    return std::string(kFilter[static_cast<int>(filter)]) +
           (wrap == TexWrap::Repeat ? "Repeat" : "Clamp") +
           (format == TexFormat::RGBA8 ? "Rgba8" : "Dxt1") + "_" +
           std::to_string(size.first) + "x" + std::to_string(size.second);
}

} // namespace

/** Differential lock: seeded random quads and sampleLod calls on one
 *  long-lived sampler, checked call by call against the reference in
 *  sampler_reference.hh (colour bits, the (level, bx, by, refs) block
 *  stream and each quad's bilinear count). Coordinates run from -2 to 3, so both wrap
 *  modes see every edge. */
class SamplerVsReference : public ::testing::TestWithParam<VsParam>
{
};

TEST_P(SamplerVsReference, RandomQuadsMatch)
{
    auto [filter, wrap, format, size] = GetParam();
    auto [w, h] = size;
    const Texture2D &t = randomTexture(format, w, h);
    SamplerPair pair;
    Rng rng(static_cast<std::uint64_t>(filter) * 1000003 +
            static_cast<std::uint64_t>(wrap) * 10007 + w * 101 + h);
    for (int aniso : {1, 2, 16}) {
        for (float state_bias : {0.0f, -0.75f, 1.5f}) {
            SamplerState st;
            st.filter = filter;
            st.wrap = wrap;
            st.maxAniso = aniso;
            st.lodBias = state_bias;
            for (int i = 0; i < 48; ++i) {
                static const float kBias[] = {0.0f, 0.25f, -1.0f, 3.0f};
                Vec2 base{rng.nextRange(-2.0f, 3.0f),
                          rng.nextRange(-2.0f, 3.0f)};
                Vec4 coords[4];
                randomQuad(rng, t, base, coords);
                ASSERT_TRUE(pair.quad(t, st, coords, kBias[rng.nextBounded(4)]))
                    << "aniso " << aniso << ", bias " << state_bias
                    << ", quad " << i;
            }
        }
    }
}

TEST_P(SamplerVsReference, SampleLodMatches)
{
    auto [filter, wrap, format, size] = GetParam();
    auto [w, h] = size;
    const Texture2D &t = randomTexture(format, w, h);
    SamplerPair pair;
    Rng rng(static_cast<std::uint64_t>(filter) * 7919 +
            static_cast<std::uint64_t>(wrap) * 31 + w * 7 + h);
    SamplerState st;
    st.filter = filter;
    st.wrap = wrap;
    // Whole levels below, inside and above the chain, plus blend
    // weights on both sides of the trilinear threshold.
    static const float kFrac[] = {0.0f, 5e-5f, 9.9e-5f, 1e-4f, 1.01e-4f,
                                  2e-4f, 1e-3f, 0.5f};
    for (int i = 0; i < 400; ++i) {
        float lod = static_cast<float>(rng.nextInt(-2, t.levels() + 1));
        lod += i % 9 == 8 ? rng.nextFloat() : kFrac[i % 8];
        Vec2 uv{rng.nextRange(-2.0f, 3.0f), rng.nextRange(-2.0f, 3.0f)};
        ASSERT_TRUE(pair.lod(t, st, uv, lod)) << "call " << i << ", lod "
                                               << lod;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Textures, SamplerVsReference,
    ::testing::Combine(
        ::testing::Values(TexFilter::Nearest, TexFilter::Bilinear,
                          TexFilter::Trilinear, TexFilter::Anisotropic),
        ::testing::Values(TexWrap::Repeat, TexWrap::Clamp),
        ::testing::Values(TexFormat::RGBA8, TexFormat::DXT1),
        ::testing::Values(std::make_pair(1, 1), std::make_pair(4, 4),
                          std::make_pair(64, 64), std::make_pair(512, 512),
                          std::make_pair(128, 8))),
    vsName);

TEST(SamplerVsReferenceOverflow, QuadsOverflowingTheBlockSetMatch)
{
    // Level 0 of a 512x512 texture (128x128 blocks), 16 probes per
    // lane. Even quads put every footprint on a block corner, inside
    // the texture: probes 8 texels apart, lanes 128 texels apart along
    // the major axis and 8 across it, so the quad touches 256 distinct
    // blocks and the per-quad set overflows. Odd quads are any orientation, with
    // lanes 64-512 texels apart; some of them overflow.
    int overflowed = 0;
    for (TexWrap wrap : {TexWrap::Repeat, TexWrap::Clamp}) {
        for (TexFormat format : {TexFormat::RGBA8, TexFormat::DXT1}) {
            const Texture2D &t = randomTexture(format, 512, 512);
            SamplerPair pair;
            Rng rng(static_cast<std::uint64_t>(wrap) * 2 +
                    static_cast<std::uint64_t>(format));
            SamplerState st;
            st.filter = TexFilter::Anisotropic;
            st.wrap = wrap;
            st.maxAniso = 16;
            for (int i = 0; i < 64; ++i) {
                Vec2 base, major, minor;
                if (i % 2 == 0) {
                    auto corner = [&rng] {
                        return 4.0f * rng.nextInt(48, 79) +
                               rng.nextRange(3.6f, 4.4f);
                    };
                    float len = rng.nextBounded(2) ? 128.0f : -128.0f;
                    base = {corner(), corner()};
                    major = {len, 0.0f};
                    minor = {0.0f, 8.0f};
                    if (rng.nextBounded(2)) {
                        major = {0.0f, len};
                        minor = {8.0f, 0.0f};
                    }
                } else {
                    float len = rng.nextRange(64.0f, 512.0f);
                    float a = rng.nextRange(0.0f, 6.2831853f);
                    float m = rng.nextRange(4.0f, 8.0f) / len;
                    base = {rng.nextRange(-512.0f, 1024.0f),
                            rng.nextRange(-512.0f, 1024.0f)};
                    major = {len * std::cos(a), len * std::sin(a)};
                    minor = {-major.y * m, major.x * m};
                }
                Vec4 coords[4];
                quadCoords(coords, base / 512.0f, major / 512.0f,
                           minor / 512.0f);
                ASSERT_TRUE(pair.quad(t, st, coords, -8.0f)) << "quad " << i;
                overflowed += pair.lastBlocks > 128;
            }
        }
    }
    EXPECT_GE(overflowed, 128);
}
