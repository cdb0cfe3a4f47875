/**
 * @file
 * Unit and property tests for triangle setup and the tiled rasterizer:
 * coverage correctness, fill-rule watertightness, interpolation, quad
 * statistics.
 */

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "raster/rasterizer.hh"
#include "raster/tilegrid.hh"

using namespace wc3d;
using namespace wc3d::geom;
using namespace wc3d::raster;

namespace {

ScreenVertex
sv(float x, float y, float z = 0.5f, float inv_w = 1.0f)
{
    ScreenVertex v;
    v.x = x;
    v.y = y;
    v.z = z;
    v.invW = inv_w;
    return v;
}

ScreenTriangle
tri(ScreenVertex a, ScreenVertex b, ScreenVertex c)
{
    return {{a, b, c}};
}

/** Collect covered pixels of one triangle. */
std::set<std::pair<int, int>>
coverage(const ScreenTriangle &t, int w, int h, Rasterizer *rast = nullptr)
{
    Rasterizer local(w, h);
    Rasterizer &r = rast ? *rast : local;
    std::set<std::pair<int, int>> pixels;
    TriangleSetup setup = setupTriangle(t, w, h);
    r.rasterize(setup, [&](const RasterQuad &q) {
        static const int offs[4][2] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
        for (int l = 0; l < 4; ++l) {
            if (q.covered(l)) {
                auto inserted = pixels.emplace(q.x + offs[l][0],
                                               q.y + offs[l][1]);
                EXPECT_TRUE(inserted.second) << "pixel emitted twice";
            }
        }
    });
    return pixels;
}

} // namespace

TEST(Setup, DegenerateInvalid)
{
    TriangleSetup s = setupTriangle(
        tri(sv(0, 0), sv(10, 10), sv(20, 20)), 64, 64);
    EXPECT_FALSE(s.valid);
}

TEST(Setup, OffscreenInvalid)
{
    TriangleSetup s = setupTriangle(
        tri(sv(-30, -30), sv(-10, -30), sv(-20, -10)), 64, 64);
    EXPECT_FALSE(s.valid);
}

TEST(Setup, OrientationNormalized)
{
    // Both windings produce valid setups with positive area.
    TriangleSetup a = setupTriangle(
        tri(sv(10, 10), sv(30, 10), sv(10, 30)), 64, 64);
    TriangleSetup b = setupTriangle(
        tri(sv(10, 10), sv(10, 30), sv(30, 10)), 64, 64);
    EXPECT_TRUE(a.valid);
    EXPECT_TRUE(b.valid);
    EXPECT_GT(a.area2, 0.0);
    EXPECT_GT(b.area2, 0.0);
}

TEST(Setup, BarycentricsSumToOne)
{
    TriangleSetup s = setupTriangle(
        tri(sv(0, 0), sv(40, 0), sv(0, 40)), 64, 64);
    float l[3];
    s.barycentrics(10.5, 7.5, l);
    EXPECT_NEAR(l[0] + l[1] + l[2], 1.0f, 1e-5f);
    // At vertex 0 the first weight is ~1.
    s.barycentrics(0.0, 0.0, l);
    EXPECT_NEAR(l[0], 1.0f, 1e-5f);
}

TEST(Setup, DepthInterpolation)
{
    ScreenTriangle t = tri(sv(0, 0, 0.0f), sv(40, 0, 1.0f),
                           sv(0, 40, 0.5f));
    TriangleSetup s = setupTriangle(t, 64, 64);
    float l[3];
    s.barycentrics(20.0, 0.0, l); // halfway along the first edge
    EXPECT_NEAR(s.interpolateZ(l), 0.5f, 1e-5f);
}

TEST(Setup, PerspectiveCorrectVarying)
{
    // Varying u = 0 at v0 (w=1), u = 1 at v1 (w=4): at the screen-space
    // midpoint, perspective-correct u = (0*1 + 1*0.25) / (1 + 0.25) = 0.2.
    ScreenVertex a = sv(0, 0, 0.5f, 1.0f);
    ScreenVertex b = sv(40, 0, 0.5f, 0.25f);
    ScreenVertex c = sv(0, 40, 0.5f, 1.0f);
    a.varyings[0] = {0, 0, 0, 0};
    b.varyings[0] = {1, 0, 0, 0};
    c.varyings[0] = {0, 0, 0, 0};
    TriangleSetup s = setupTriangle(tri(a, b, c), 64, 64);
    float l[3];
    s.barycentrics(20.0, 1e-6, l);
    Vec4 u = s.interpolateVarying(l, 0);
    EXPECT_NEAR(u.x, 0.2f, 1e-3f);
}

TEST(Raster, FullScreenQuadCoversEveryPixel)
{
    // Two triangles covering a 16x16 target exactly once each pixel.
    Rasterizer r(16, 16);
    auto c1 = coverage(tri(sv(0, 0), sv(16, 0), sv(0, 16)), 16, 16, &r);
    auto c2 = coverage(tri(sv(16, 0), sv(16, 16), sv(0, 16)), 16, 16, &r);
    EXPECT_EQ(c1.size() + c2.size(), 256u);
    for (const auto &p : c1)
        EXPECT_EQ(c2.count(p), 0u) << "shared-edge pixel double-covered";
}

TEST(Raster, PixelCenterRule)
{
    // Triangle covering x in [0,4), y in [0,4) left of the diagonal.
    auto c = coverage(tri(sv(0, 0), sv(4, 0), sv(0, 4)), 8, 8);
    // (0,0) center (0.5,0.5): inside. (3,0) center (3.5,0.5): on the
    // hypotenuse side? 3.5 + 0.5 = 4 -> on edge, not top-left -> out.
    EXPECT_EQ(c.count({0, 0}), 1u);
    EXPECT_EQ(c.count({3, 0}), 0u);
    EXPECT_EQ(c.count({2, 0}), 1u);
    EXPECT_EQ(c.count({0, 3}), 0u);
}

TEST(Raster, InvalidSetupEmitsNothing)
{
    // A zero-area (collinear) triangle must not reach traversal: no
    // quads, no stats, not even a triangle count.
    Rasterizer r(64, 64);
    TriangleSetup s = setupTriangle(
        tri(sv(4, 4), sv(20, 20), sv(36, 36)), 64, 64);
    ASSERT_FALSE(s.valid);
    int emitted = 0;
    r.rasterize(s, [&](const RasterQuad &) { ++emitted; });
    EXPECT_EQ(emitted, 0);
    EXPECT_EQ(r.stats().triangles, 0u);
    EXPECT_EQ(r.stats().quads, 0u);
    EXPECT_EQ(r.stats().fragments, 0u);
}

TEST(Raster, OnePixelTriangleSingleFragment)
{
    // A tiny triangle surrounding exactly one pixel center produces
    // exactly one partial quad with one covered lane.
    Rasterizer r(32, 32);
    auto c = coverage(tri(sv(10.2f, 10.2f), sv(11.3f, 10.3f),
                          sv(10.3f, 11.3f)),
                      32, 32, &r);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c.count({10, 10}), 1u);
    EXPECT_EQ(r.stats().quads, 1u);
    EXPECT_EQ(r.stats().fullQuads, 0u);
    EXPECT_EQ(r.stats().fragments, 1u);
}

TEST(Raster, ThinSliverStillHitsSamples)
{
    // A 1-pixel-tall triangle along a row.
    auto c = coverage(tri(sv(1, 10.2f), sv(14, 10.2f), sv(1, 11.4f)),
                      16, 16);
    EXPECT_GT(c.size(), 4u);
    for (const auto &p : c)
        EXPECT_EQ(p.second, 10);
}

TEST(Raster, TriangleAreaMatchesAnalytic)
{
    // Large triangle: covered pixel count approximates its area.
    auto c = coverage(tri(sv(5, 5), sv(105, 5), sv(5, 85)), 128, 128);
    double area = 0.5 * 100 * 80;
    EXPECT_NEAR(static_cast<double>(c.size()), area, area * 0.02);
}

TEST(Raster, ScissorClampsToTarget)
{
    auto c = coverage(tri(sv(-50, -50), sv(100, -50), sv(-50, 100)),
                      32, 32);
    for (const auto &p : c) {
        EXPECT_GE(p.first, 0);
        EXPECT_LT(p.first, 32);
        EXPECT_GE(p.second, 0);
        EXPECT_LT(p.second, 32);
    }
    EXPECT_GT(c.size(), 0u);
}

TEST(Raster, StatsCountQuadsAndFragments)
{
    Rasterizer r(64, 64);
    TriangleSetup s = setupTriangle(
        tri(sv(0, 0), sv(32, 0), sv(0, 32)), 64, 64);
    std::uint64_t quads = 0, frags = 0, full = 0;
    r.rasterize(s, [&](const RasterQuad &q) {
        ++quads;
        frags += static_cast<std::uint64_t>(q.coveredCount());
        full += q.full();
    });
    EXPECT_EQ(r.stats().quads, quads);
    EXPECT_EQ(r.stats().fragments, frags);
    EXPECT_EQ(r.stats().fullQuads, full);
    EXPECT_EQ(r.stats().triangles, 1u);
    EXPECT_GT(r.stats().upperTiles, 0u);
    EXPECT_GE(r.stats().lowerTiles, r.stats().upperTiles);
    EXPECT_LT(full, quads); // diagonal edge has partial quads
    EXPECT_NEAR(r.stats().quadEfficiency(),
                static_cast<double>(full) / quads, 1e-12);
}

TEST(Raster, LargeTriangleQuadEfficiencyHigh)
{
    // Paper Table X: big triangles have >90% complete quads.
    Rasterizer r(512, 512);
    TriangleSetup s = setupTriangle(
        tri(sv(3, 2), sv(500, 10), sv(40, 480)), 512, 512);
    r.rasterize(s, [](const RasterQuad &) {});
    EXPECT_GT(r.stats().quadEfficiency(), 0.9);
}

TEST(Raster, TinyTrianglesQuadEfficiencyLow)
{
    // Sub-pixel triangles produce mostly partial quads ([1]'s regime).
    Rasterizer r(128, 128);
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        float x = rng.nextRange(2, 120);
        float y = rng.nextRange(2, 120);
        TriangleSetup s = setupTriangle(
            tri(sv(x, y), sv(x + 1.2f, y + 0.3f), sv(x + 0.4f, y + 1.1f)),
            128, 128);
        r.rasterize(s, [](const RasterQuad &) {});
    }
    EXPECT_LT(r.stats().quadEfficiency(), 0.5);
}

TEST(Raster, HelperLanesCarryDepthAndBarycentrics)
{
    Rasterizer r(16, 16);
    TriangleSetup s = setupTriangle(
        tri(sv(0, 0, 0.25f), sv(9, 0, 0.25f), sv(0, 9, 0.25f)), 16, 16);
    bool saw_partial = false;
    r.rasterize(s, [&](const RasterQuad &q) {
        if (!q.full()) {
            saw_partial = true;
            for (int l = 0; l < 4; ++l) {
                float sum = q.lambda[l][0] + q.lambda[l][1] + q.lambda[l][2];
                EXPECT_NEAR(sum, 1.0f, 1e-4f);
                EXPECT_NEAR(q.z[l], 0.25f, 1e-4f);
            }
        }
    });
    EXPECT_TRUE(saw_partial);
}

/** Watertight property: random meshes of adjacent triangle pairs never
 * double-cover or leave gaps along the shared edge. */
class RasterWatertight : public ::testing::TestWithParam<int>
{
};

TEST_P(RasterWatertight, SharedEdgesExactlyOnce)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    for (int iter = 0; iter < 50; ++iter) {
        // Random shared edge a-c; b and d are placed on strictly
        // opposite sides so the triangles tile without overlap.
        float ax = rng.nextRange(5, 55), ay = rng.nextRange(5, 55);
        float cx = rng.nextRange(5, 55), cy = rng.nextRange(5, 55);
        if (std::abs(ax - cx) + std::abs(ay - cy) < 2.0f)
            continue; // degenerate edge
        float mx = (ax + cx) * 0.5f, my = (ay + cy) * 0.5f;
        // Unit-ish perpendicular to the edge.
        float ex = cx - ax, ey = cy - ay;
        float len = std::sqrt(ex * ex + ey * ey);
        float px = -ey / len, py = ex / len;
        float s1 = rng.nextRange(3, 20);
        float s2 = rng.nextRange(3, 20);
        float t1 = rng.nextRange(-0.4f, 0.4f);
        float t2 = rng.nextRange(-0.4f, 0.4f);
        ScreenVertex a = sv(ax, ay);
        ScreenVertex c = sv(cx, cy);
        ScreenVertex b = sv(mx + ex * t1 + px * s1, my + ey * t1 + py * s1);
        ScreenVertex d = sv(mx + ex * t2 - px * s2, my + ey * t2 - py * s2);
        auto c1 = coverage(tri(a, b, c), 64, 64);
        auto c2 = coverage(tri(a, c, d), 64, 64);
        for (const auto &p : c1)
            EXPECT_EQ(c2.count(p), 0u)
                << "double-covered pixel (" << p.first << "," << p.second
                << ") in iteration " << iter;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RasterWatertight,
                         ::testing::Values(1, 2, 3, 4));

/** Property: the union of the two triangles of an axis-aligned
 *  rectangle covers exactly the rectangle's pixel centers. */
TEST(RasterProperty, RectangleDecompositionExact)
{
    Rng rng(77);
    for (int iter = 0; iter < 30; ++iter) {
        int x0 = rng.nextInt(0, 20);
        int y0 = rng.nextInt(0, 20);
        int w = rng.nextInt(1, 30);
        int h = rng.nextInt(1, 30);
        auto fx0 = static_cast<float>(x0), fy0 = static_cast<float>(y0);
        auto fx1 = static_cast<float>(x0 + w);
        auto fy1 = static_cast<float>(y0 + h);
        auto c1 = coverage(tri(sv(fx0, fy0), sv(fx1, fy0), sv(fx0, fy1)),
                           64, 64);
        auto c2 = coverage(tri(sv(fx1, fy0), sv(fx1, fy1), sv(fx0, fy1)),
                           64, 64);
        EXPECT_EQ(c1.size() + c2.size(),
                  static_cast<std::size_t>(w) * h);
    }
}

// ---------------------------------------------------------------------
// Screen-space tile partition (the tile-parallel back-end's foundation)
// ---------------------------------------------------------------------

TEST(TileGrid, ResolveTileSizeClampsAndRounds)
{
    EXPECT_EQ(resolveTileSize(32), 32);
    EXPECT_EQ(resolveTileSize(48), 48);
    EXPECT_EQ(resolveTileSize(64), 64);
    EXPECT_EQ(resolveTileSize(20), 32);  // rounds up to a 16 multiple
    EXPECT_EQ(resolveTileSize(24), 32);
    EXPECT_EQ(resolveTileSize(8), 16);   // clamps to the upper tile
    EXPECT_EQ(resolveTileSize(0), 32);   // default
    EXPECT_EQ(resolveTileSize(-5), 32);
    // Out-of-range sizes clamp to kMaxTileSize instead of overflowing
    // int while rounding up (INT_MAX - 15 is already a 16 multiple).
    EXPECT_EQ(resolveTileSize(INT_MAX), 1024);
    EXPECT_EQ(resolveTileSize(INT_MAX - 15), 1024);
}

TEST(TileGrid, BinRangeAndRectsCoverScreen)
{
    TileGrid grid(1024, 768, 32);
    EXPECT_EQ(grid.tilesX(), 32);
    EXPECT_EQ(grid.tilesY(), 24);
    auto r = grid.binRange(0, 0, 31, 31);
    EXPECT_EQ(r.tx0, 0);
    EXPECT_EQ(r.ty0, 0);
    EXPECT_EQ(r.tx1, 0);
    EXPECT_EQ(r.ty1, 0);
    r = grid.binRange(31, 31, 32, 32);
    EXPECT_EQ(r.tx1, 1);
    EXPECT_EQ(r.ty1, 1);
    // Tile rects are disjoint and their union covers the screen.
    TileRect first = grid.rect(0);
    EXPECT_EQ(first.x0, 0);
    EXPECT_EQ(first.x1, 32);
    TileRect last = grid.rect(grid.tiles() - 1);
    EXPECT_EQ(last.x1, 1024);
    EXPECT_EQ(last.y1, 768);
}

namespace {

struct EmittedQuad
{
    int x;
    int y;
    std::uint8_t coverage;

    bool
    operator<(const EmittedQuad &o) const
    {
        return std::tie(y, x, coverage) < std::tie(o.y, o.x, o.coverage);
    }
    bool
    operator==(const EmittedQuad &o) const
    {
        return x == o.x && y == o.y && coverage == o.coverage;
    }
};

/**
 * Check the partition property for one triangle: running rasterizeTile
 * over every tile of @p grid emits exactly the quads of the full
 * rasterize() walk (each exactly once, inside its owning tile, with
 * per-tile traversal keys ascending), and the summed per-tile
 * statistics match the full walk's (minus `triangles`).
 */
void
expectTilePartitionMatchesFull(const ScreenTriangle &t, int w, int h,
                               int tile_size)
{
    SCOPED_TRACE("tile_size=" + std::to_string(tile_size));
    TriangleSetup setup = setupTriangle(t, w, h);
    ASSERT_TRUE(setup.valid);

    Rasterizer full(w, h);
    std::vector<EmittedQuad> full_quads;
    full.rasterize(setup, [&](const RasterQuad &q) {
        full_quads.push_back({q.x, q.y, q.coverage});
    });

    TileGrid grid(w, h, tile_size);
    Rasterizer tiled(w, h);
    std::vector<EmittedQuad> tile_quads;
    for (int tile = 0; tile < grid.tiles(); ++tile) {
        TileRect rect = grid.rect(tile);
        std::uint32_t prev_key = 0;
        bool first = true;
        tiled.rasterizeTile(
            setup, rect.x0, rect.y0, rect.x1, rect.y1,
            [&](const RasterQuad &q) {
                // Exclusive ownership: the quad nests in this tile.
                EXPECT_GE(q.x, rect.x0);
                EXPECT_LT(q.x, rect.x1);
                EXPECT_GE(q.y, rect.y0);
                EXPECT_LT(q.y, rect.y1);
                // Per-tile emission order follows the traversal key.
                std::uint32_t key = traversalKey(q.x, q.y);
                if (!first) {
                    EXPECT_GT(key, prev_key);
                }
                prev_key = key;
                first = false;
                tile_quads.push_back({q.x, q.y, q.coverage});
            });
    }

    // Same quads, each exactly once.
    std::vector<EmittedQuad> a = full_quads;
    std::vector<EmittedQuad> b = tile_quads;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);

    // Same traversal work (the partition visits no tile twice).
    const RasterStats &fs = full.stats();
    const RasterStats &ts = tiled.stats();
    EXPECT_EQ(ts.upperTiles, fs.upperTiles);
    EXPECT_EQ(ts.lowerTiles, fs.lowerTiles);
    EXPECT_EQ(ts.quads, fs.quads);
    EXPECT_EQ(ts.fullQuads, fs.fullQuads);
    EXPECT_EQ(ts.fragments, fs.fragments);
    EXPECT_EQ(ts.triangles, 0u) << "tile traversal must not count tris";
}

} // namespace

TEST(TileRaster, PartitionMatchesFullTraversal)
{
    const int w = 256, h = 192;
    struct Case
    {
        const char *name;
        ScreenTriangle tri;
    };
    const Case cases[] = {
        // Axis-aligned triangle whose edges lie exactly on tile bounds.
        {"tile-aligned", tri(sv(0, 0), sv(128, 0), sv(0, 128))},
        // Right angle exactly at an interior tile corner.
        {"corner-at-boundary", tri(sv(32, 32), sv(96, 32), sv(32, 96))},
        // Long thin sliver spanning many tiles horizontally.
        {"horizontal-sliver", tri(sv(2, 50.2f), sv(250, 51.1f),
                                  sv(3, 51.4f))},
        // Diagonal sliver crossing tile rows and columns.
        {"diagonal-sliver", tri(sv(5, 5), sv(240, 180), sv(7.5f, 6))},
        // Sub-pixel triangle covering a single pixel center.
        {"one-pixel", tri(sv(65.2f, 65.2f), sv(66.4f, 65.4f),
                          sv(65.4f, 66.6f))},
        // Triangle overhanging every screen edge (scissor clipping).
        {"overhangs-screen", tri(sv(-300, -200), sv(600, -100),
                                 sv(100, 500))},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        for (int tile_size : {16, 32, 64})
            expectTilePartitionMatchesFull(c.tri, w, h, tile_size);
    }
}

TEST(TileRaster, FullTraversalKeysAscendGlobally)
{
    // The merge phase reconstructs submission order by sorting records
    // on traversalKey, which is valid only if the full rasterize() walk
    // itself emits quads in globally ascending key order.
    Rasterizer r(256, 192);
    TriangleSetup setup = setupTriangle(
        tri(sv(-10, -10), sv(500, 0), sv(0, 400)), 256, 192);
    ASSERT_TRUE(setup.valid);
    bool first = true;
    std::uint32_t prev = 0;
    r.rasterize(setup, [&](const RasterQuad &q) {
        std::uint32_t key = traversalKey(q.x, q.y);
        if (!first) {
            EXPECT_GT(key, prev) << "at quad (" << q.x << "," << q.y << ")";
        }
        prev = key;
        first = false;
    });
    EXPECT_FALSE(first);
}
