/**
 * @file
 * Unit and property tests for triangle setup and the tiled rasterizer:
 * coverage correctness, fill-rule watertightness, interpolation, quad
 * counts, and the band walks the tile-parallel back-end runs.
 */

#include <cmath>
#include <cstdlib>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "raster/rasterizer.hh"

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
coverage(const ScreenTriangle &t, int w, int h)
{
    Rasterizer r(w, h);
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

/** Quad counts of rasterize() walks, taken in the emit callback. */
struct QuadTally
{
    std::uint64_t quads = 0;
    std::uint64_t fullQuads = 0;
    std::uint64_t fragments = 0;

    void
    walk(Rasterizer &r, const TriangleSetup &setup)
    {
        r.rasterize(setup, [this](const RasterQuad &q) {
            ++quads;
            fullQuads += q.full();
            fragments += static_cast<std::uint64_t>(q.coveredCount());
        });
    }

    /** Fraction of emitted quads that are complete. */
    double
    quadEfficiency() const
    {
        return static_cast<double>(fullQuads) / static_cast<double>(quads);
    }
};

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
    auto c1 = coverage(tri(sv(0, 0), sv(16, 0), sv(0, 16)), 16, 16);
    auto c2 = coverage(tri(sv(16, 0), sv(16, 16), sv(0, 16)), 16, 16);
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
    // quads from the full walk or from a band walk.
    Rasterizer r(64, 64);
    TriangleSetup s = setupTriangle(
        tri(sv(4, 4), sv(20, 20), sv(36, 36)), 64, 64);
    ASSERT_FALSE(s.valid);
    int emitted = 0;
    auto count = [&](const RasterQuad &) { ++emitted; };
    r.rasterize(s, count);
    r.rasterizeTile(s, 0, kUpperTile, count);
    EXPECT_EQ(emitted, 0);
}

TEST(Raster, OnePixelTriangleSingleFragment)
{
    // A tiny triangle surrounding exactly one pixel center produces
    // exactly one partial quad with one covered lane.
    ScreenTriangle t = tri(sv(10.2f, 10.2f), sv(11.3f, 10.3f),
                           sv(10.3f, 11.3f));
    auto c = coverage(t, 32, 32);
    ASSERT_EQ(c.size(), 1u);
    EXPECT_EQ(c.count({10, 10}), 1u);
    Rasterizer r(32, 32);
    QuadTally tally;
    tally.walk(r, setupTriangle(t, 32, 32));
    EXPECT_EQ(tally.quads, 1u);
    EXPECT_EQ(tally.fullQuads, 0u);
    EXPECT_EQ(tally.fragments, 1u);
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
    ScreenTriangle t = tri(sv(0, 0), sv(32, 0), sv(0, 32));
    Rasterizer r(64, 64);
    QuadTally tally;
    tally.walk(r, setupTriangle(t, 64, 64));
    // Every covered pixel is one fragment of exactly one quad.
    EXPECT_EQ(tally.fragments, coverage(t, 64, 64).size());
    EXPECT_GE(tally.fragments, 4 * tally.fullQuads);
    EXPECT_LE(tally.fragments, 4 * tally.quads);
    EXPECT_LT(tally.fullQuads, tally.quads); // diagonal edge: partials
    EXPECT_GT(tally.fullQuads, 0u);
}

TEST(Raster, LargeTriangleQuadEfficiencyHigh)
{
    // Paper Table X: big triangles have >90% complete quads.
    Rasterizer r(512, 512);
    QuadTally tally;
    tally.walk(r, setupTriangle(
                      tri(sv(3, 2), sv(500, 10), sv(40, 480)), 512, 512));
    EXPECT_GT(tally.quadEfficiency(), 0.9);
}

TEST(Raster, TinyTrianglesQuadEfficiencyLow)
{
    // Sub-pixel triangles produce mostly partial quads ([1]'s regime).
    Rasterizer r(128, 128);
    QuadTally tally;
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        float x = rng.nextRange(2, 120);
        float y = rng.nextRange(2, 120);
        tally.walk(r, setupTriangle(tri(sv(x, y), sv(x + 1.2f, y + 0.3f),
                                        sv(x + 0.4f, y + 1.1f)),
                                    128, 128));
    }
    EXPECT_LT(tally.quadEfficiency(), 0.5);
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
// Band walks (the tile-parallel back-end's work items)
// ---------------------------------------------------------------------

namespace {

struct EmittedQuad
{
    int x;
    int y;
    std::uint8_t coverage;

    bool
    operator==(const EmittedQuad &o) const
    {
        return x == o.x && y == o.y && coverage == o.coverage;
    }
};

std::ostream &
operator<<(std::ostream &os, const EmittedQuad &q)
{
    return os << "(" << q.x << "," << q.y << " cov=" << int(q.coverage)
              << ")";
}

/**
 * The invariant the back-end's ordered merge rests on: walking the
 * bands of kUpperTile rows one by one, top to bottom, and concatenating
 * what they emit gives exactly the full rasterize() walk — the same
 * quads (position and coverage), in the same order.
 */
void
expectBandsConcatenateToFullWalk(const ScreenTriangle &t, int w, int h)
{
    TriangleSetup setup = setupTriangle(t, w, h);
    ASSERT_TRUE(setup.valid);

    Rasterizer r(w, h);
    std::vector<EmittedQuad> full;
    r.rasterize(setup, [&](const RasterQuad &q) {
        full.push_back({q.x, q.y, q.coverage});
    });
    ASSERT_FALSE(full.empty());

    std::vector<EmittedQuad> banded;
    for (int y0 = 0; y0 < h; y0 += kUpperTile) {
        r.rasterizeTile(setup, y0, y0 + kUpperTile,
                        [&](const RasterQuad &q) {
                            // The band owns every quad it emits.
                            EXPECT_GE(q.y, y0);
                            EXPECT_LT(q.y, y0 + kUpperTile);
                            banded.push_back({q.x, q.y, q.coverage});
                        });
    }
    EXPECT_EQ(banded, full);
}

} // namespace

TEST(TileRaster, PartitionMatchesFullTraversal)
{
    struct Case
    {
        const char *name;
        ScreenTriangle tri;
    };
    const Case cases[] = {
        // Axis-aligned triangle whose edges lie exactly on band bounds.
        {"tile-aligned", tri(sv(0, 0), sv(128, 0), sv(0, 128))},
        // Right angle exactly at an interior upper-tile corner.
        {"corner-at-boundary", tri(sv(32, 32), sv(96, 32), sv(32, 96))},
        // Long thin sliver spanning many upper tiles horizontally.
        {"horizontal-sliver", tri(sv(2, 50.2f), sv(250, 51.1f),
                                  sv(3, 51.4f))},
        // Diagonal sliver crossing every band.
        {"diagonal-sliver", tri(sv(5, 5), sv(240, 180), sv(7.5f, 6))},
        // Sub-pixel triangle covering a single pixel center.
        {"one-pixel", tri(sv(65.2f, 65.2f), sv(66.4f, 65.4f),
                          sv(65.4f, 66.6f))},
        // Triangle overhanging every screen edge (scissor clipping).
        {"overhangs-screen", tri(sv(-300, -200), sv(600, -100),
                                 sv(100, 500))},
    };
    // 190 rows is not a multiple of the band height: the last band
    // runs past the screen edge.
    for (auto [w, h] : {std::pair{256, 192}, std::pair{250, 190}}) {
        for (const Case &c : cases) {
            SCOPED_TRACE(std::string(c.name) + " at " + std::to_string(w) +
                         "x" + std::to_string(h));
            expectBandsConcatenateToFullWalk(c.tri, w, h);
        }
    }
}

TEST(TileRaster, FullTraversalKeysAscendGlobally)
{
    // The walk order rasterizeTile() documents: upper tiles row by row
    // (the band index y / kUpperTile outermost), then column; inside an
    // upper tile, lower tiles and then quads, each row-major. The whole
    // rasterize() walk must emit quads in strictly ascending order of
    // this key, or concatenating band walks would reorder them.
    auto key = [](const RasterQuad &q) {
        return std::tuple{q.y / kUpperTile, q.x / kUpperTile,
                          q.y % kUpperTile / kLowerTile,
                          q.x % kUpperTile / kLowerTile,
                          q.y % kLowerTile, q.x % kLowerTile};
    };
    Rasterizer r(256, 192);
    TriangleSetup setup = setupTriangle(
        tri(sv(-10, -10), sv(500, 0), sv(0, 400)), 256, 192);
    ASSERT_TRUE(setup.valid);
    bool first = true;
    decltype(key(RasterQuad{})) prev{};
    r.rasterize(setup, [&](const RasterQuad &q) {
        auto k = key(q);
        if (!first) {
            EXPECT_GT(k, prev) << "at quad (" << q.x << "," << q.y << ")";
        }
        prev = k;
        first = false;
    });
    EXPECT_FALSE(first);
}
