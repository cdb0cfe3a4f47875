/**
 * @file
 * Unit tests for the geometry pipeline: vertex cache behaviour (the
 * paper's 66%-hit-rate argument), primitive assembly, clip/cull fates
 * and viewport mapping.
 */

#include <gtest/gtest.h>

#include "geom/assembly.hh"
#include "geom/clipcull.hh"
#include "geom/vertexcache.hh"
#include "geom/viewport.hh"

using namespace wc3d;
using namespace wc3d::geom;

TEST(VertexCache, MissThenHit)
{
    VertexCache vc(4);
    EXPECT_EQ(vc.lookup(7), -1);
    int slot = vc.insert(7);
    EXPECT_EQ(vc.lookup(7), slot);
}

TEST(VertexCache, FifoEviction)
{
    VertexCache vc(2);
    vc.insert(1);
    vc.insert(2);
    vc.insert(3); // evicts 1
    EXPECT_EQ(vc.lookup(1), -1);
    EXPECT_GE(vc.lookup(2), 0);
    EXPECT_GE(vc.lookup(3), 0);
}

TEST(VertexCache, LookupDoesNotRefreshFifoOrder)
{
    VertexCache vc(2);
    vc.insert(1);
    vc.insert(2);
    vc.lookup(1);  // FIFO: does not move 1 to the back
    vc.insert(3);  // still evicts 1
    EXPECT_EQ(vc.lookup(1), -1);
}

TEST(VertexCache, InvalidateBetweenBatches)
{
    VertexCache vc(4);
    vc.insert(1);
    vc.invalidate();
    EXPECT_EQ(vc.lookup(1), -1);
}

TEST(VertexCache, StripLikeReuseApproaches66Percent)
{
    // Triangle list over a long strip-ordered mesh: triangle i uses
    // vertices (i, i+1, i+2). Steady state: 2 of 3 lookups hit.
    VertexCache vc(16);
    int hits = 0;
    for (std::uint32_t tri = 0; tri < 10000; ++tri) {
        for (std::uint32_t k = 0; k < 3; ++k) {
            std::uint32_t idx = tri + k;
            if (vc.lookup(idx) >= 0)
                ++hits;
            else
                vc.insert(idx);
        }
    }
    EXPECT_NEAR(hits / 30000.0, 2.0 / 3.0, 0.01);
}

TEST(VertexCache, RandomIndicesMostlyMiss)
{
    VertexCache vc(16);
    std::uint32_t state = 12345;
    int hits = 0;
    for (int i = 0; i < 30000; ++i) {
        state = state * 1664525u + 1013904223u;
        std::uint32_t idx = (state >> 8) % 100000;
        if (vc.lookup(idx) >= 0)
            ++hits;
        else
            vc.insert(idx);
    }
    EXPECT_LT(hits / 30000.0, 0.01);
}

TEST(Assembly, TriangleCounts)
{
    EXPECT_EQ(trianglesForIndices(PrimitiveType::TriangleList, 9), 3);
    EXPECT_EQ(trianglesForIndices(PrimitiveType::TriangleList, 10), 3);
    EXPECT_EQ(trianglesForIndices(PrimitiveType::TriangleStrip, 5), 3);
    EXPECT_EQ(trianglesForIndices(PrimitiveType::TriangleFan, 6), 4);
    EXPECT_EQ(trianglesForIndices(PrimitiveType::TriangleStrip, 2), 0);
}

TEST(Assembly, ShortNames)
{
    EXPECT_STREQ(primitiveShortName(PrimitiveType::TriangleList), "TL");
    EXPECT_STREQ(primitiveShortName(PrimitiveType::TriangleStrip), "TS");
    EXPECT_STREQ(primitiveShortName(PrimitiveType::TriangleFan), "TF");
}

TEST(Assembly, ListTriples)
{
    std::vector<AssembledTriangle> tris;
    assembleTriangles(PrimitiveType::TriangleList, 6, tris);
    ASSERT_EQ(tris.size(), 2u);
    EXPECT_EQ(tris[0].v[0], 0u);
    EXPECT_EQ(tris[1].v[2], 5u);
}

TEST(Assembly, StripWindingAlternation)
{
    std::vector<AssembledTriangle> tris;
    assembleTriangles(PrimitiveType::TriangleStrip, 5, tris);
    ASSERT_EQ(tris.size(), 3u);
    // Even triangles keep order, odd swap the first two vertices.
    EXPECT_EQ(tris[0].v[0], 0u);
    EXPECT_EQ(tris[0].v[1], 1u);
    EXPECT_EQ(tris[1].v[0], 2u);
    EXPECT_EQ(tris[1].v[1], 1u);
    EXPECT_EQ(tris[2].v[0], 2u);
    EXPECT_EQ(tris[2].v[1], 3u);
}

TEST(Assembly, FanSharesFirstVertex)
{
    std::vector<AssembledTriangle> tris;
    assembleTriangles(PrimitiveType::TriangleFan, 5, tris);
    ASSERT_EQ(tris.size(), 3u);
    for (const auto &t : tris)
        EXPECT_EQ(t.v[0], 0u);
    EXPECT_EQ(tris[2].v[1], 3u);
    EXPECT_EQ(tris[2].v[2], 4u);
}

TEST(Assembly, StatsAccumulate)
{
    // Successive batches append: the output counts every triangle
    // assembled so far.
    std::vector<AssembledTriangle> tris;
    assembleTriangles(PrimitiveType::TriangleList, 300, tris);
    assembleTriangles(PrimitiveType::TriangleStrip, 52, tris);
    EXPECT_EQ(tris.size(), 150u);
    EXPECT_EQ(static_cast<int>(tris.size()),
              trianglesForIndices(PrimitiveType::TriangleList, 300) +
                  trianglesForIndices(PrimitiveType::TriangleStrip, 52));
}

namespace {

TransformedVertex
tv(float x, float y, float z, float w)
{
    TransformedVertex v;
    v.clip = {x, y, z, w};
    return v;
}

} // namespace

TEST(ClipCull, InsideTriangleTraverses)
{
    std::vector<std::array<TransformedVertex, 3>> out;
    TransformedVertex verts[3] = {tv(-0.5f, -0.5f, 0, 1),
                                  tv(0.5f, -0.5f, 0, 1),
                                  tv(0, 0.5f, 0, 1)};
    EXPECT_EQ(clipCull(verts, CullMode::Back, out),
              TriangleFate::Traversed);
    ASSERT_EQ(out.size(), 1u);
}

TEST(ClipCull, FullyOutsideIsClipped)
{
    std::vector<std::array<TransformedVertex, 3>> out;
    TransformedVertex verts[3] = {tv(2.0f, 0, 0, 1), tv(3.0f, 0, 0, 1),
                                  tv(2.5f, 1, 0, 1)}; // x > w for all
    EXPECT_EQ(clipCull(verts, CullMode::Back, out),
              TriangleFate::Clipped);
    EXPECT_TRUE(out.empty());
}

TEST(ClipCull, BehindEyeIsClipped)
{
    std::vector<std::array<TransformedVertex, 3>> out;
    TransformedVertex verts[3] = {tv(0, 0, -2, 1), tv(1, 0, -2, 1),
                                  tv(0, 1, -2, 1)}; // z < -w
    EXPECT_EQ(clipCull(verts, CullMode::Back, out),
              TriangleFate::Clipped);
}

TEST(ClipCull, BackfaceCulled)
{
    std::vector<std::array<TransformedVertex, 3>> out;
    // Clockwise in NDC (y up): negative signed area.
    TransformedVertex verts[3] = {tv(-0.5f, -0.5f, 0, 1),
                                  tv(0, 0.5f, 0, 1),
                                  tv(0.5f, -0.5f, 0, 1)};
    EXPECT_EQ(clipCull(verts, CullMode::Back, out),
              TriangleFate::Culled);
    // Same triangle with front culling traverses.
    EXPECT_EQ(clipCull(verts, CullMode::Front, out),
              TriangleFate::Traversed);
    // With no culling both orientations traverse.
    EXPECT_EQ(clipCull(verts, CullMode::None, out),
              TriangleFate::Traversed);
}

TEST(ClipCull, ZeroAreaCulled)
{
    std::vector<std::array<TransformedVertex, 3>> out;
    TransformedVertex verts[3] = {tv(0, 0, 0, 1), tv(0, 0, 0, 1),
                                  tv(0, 0, 0, 1)};
    EXPECT_EQ(clipCull(verts, CullMode::None, out),
              TriangleFate::Culled);
}

TEST(ClipCull, NearPlaneStraddleSplits)
{
    std::vector<std::array<TransformedVertex, 3>> out;
    // One vertex behind the near plane (z < -w): must be clipped into
    // two triangles, all with z + w >= 0.
    TransformedVertex verts[3] = {tv(-0.5f, -0.5f, 0.0f, 1.0f),
                                  tv(0.5f, -0.5f, 0.0f, 1.0f),
                                  tv(0.0f, 0.5f, -3.0f, 1.0f)};
    EXPECT_EQ(clipCull(verts, CullMode::None, out),
              TriangleFate::Traversed);
    ASSERT_EQ(out.size(), 2u);
    for (const auto &tri : out)
        for (const auto &v : tri)
            EXPECT_GE(v.clip.z + v.clip.w, -1e-5f);
}

TEST(ClipCull, VaryingsInterpolatedAtClipBoundary)
{
    std::vector<std::array<TransformedVertex, 3>> out;
    TransformedVertex a = tv(0, 0, 1.0f, 1);   // inside (z+w=2)
    TransformedVertex b = tv(1, 0, -3.0f, 1);  // outside (z+w=-2)
    TransformedVertex c = tv(0, 1, 1.0f, 1);
    a.varyings[0] = {0, 0, 0, 0};
    b.varyings[0] = {1, 0, 0, 0};
    c.varyings[0] = {0, 1, 0, 0};
    TransformedVertex verts[3] = {a, b, c};
    ASSERT_EQ(clipCull(verts, CullMode::None, out),
              TriangleFate::Traversed);
    // The a->b crossing is at t = 2/4 = 0.5: varying.x must be 0.5.
    bool found = false;
    for (const auto &tri : out) {
        for (const auto &v : tri) {
            if (std::abs(v.varyings[0].x - 0.5f) < 1e-5f &&
                v.varyings[0].y == 0.0f) {
                found = true;
            }
        }
    }
    EXPECT_TRUE(found);
}

TEST(ClipCull, StatsPercentagesSumTo100)
{
    std::vector<std::array<TransformedVertex, 3>> out;
    TransformedVertex inside[3] = {tv(-0.5f, -0.5f, 0, 1),
                                   tv(0.5f, -0.5f, 0, 1), tv(0, 0.5f, 0, 1)};
    TransformedVertex outside[3] = {tv(5, 5, 0, 1), tv(6, 5, 0, 1),
                                    tv(5, 6, 0, 1)};
    TransformedVertex back[3] = {inside[0], inside[2], inside[1]};
    // Every input gets exactly one fate, so the clipped, culled and
    // traversed shares of Table VII sum to 100%.
    EXPECT_EQ(clipCull(inside, CullMode::Back, out),
              TriangleFate::Traversed);
    EXPECT_EQ(clipCull(outside, CullMode::Back, out),
              TriangleFate::Clipped);
    EXPECT_EQ(clipCull(back, CullMode::Back, out), TriangleFate::Culled);
    EXPECT_EQ(out.size(), 1u); // only the traversed one produced output
}

TEST(Viewport, CornersMapToWindow)
{
    Viewport vp{0, 0, 640, 480};
    // NDC (-1,-1) (bottom-left) -> window (0, 480) (y-down).
    ScreenVertex bl = toScreen(tv(-1, -1, 0, 1), vp);
    EXPECT_FLOAT_EQ(bl.x, 0.0f);
    EXPECT_FLOAT_EQ(bl.y, 480.0f);
    ScreenVertex tr = toScreen(tv(1, 1, 0, 1), vp);
    EXPECT_FLOAT_EQ(tr.x, 640.0f);
    EXPECT_FLOAT_EQ(tr.y, 0.0f);
}

TEST(Viewport, DepthRangeAndInvW)
{
    Viewport vp{0, 0, 100, 100};
    ScreenVertex near_v = toScreen(tv(0, 0, -2, 2), vp);
    EXPECT_FLOAT_EQ(near_v.z, 0.0f);
    EXPECT_FLOAT_EQ(near_v.invW, 0.5f);
    ScreenVertex far_v = toScreen(tv(0, 0, 2, 2), vp);
    EXPECT_FLOAT_EQ(far_v.z, 1.0f);
}

TEST(Viewport, PerspectiveDivideAppliesToPosition)
{
    Viewport vp{0, 0, 200, 100};
    ScreenVertex v = toScreen(tv(1, 0.5f, 0, 2), vp); // NDC (0.5, 0.25)
    EXPECT_FLOAT_EQ(v.x, 150.0f);
    EXPECT_FLOAT_EQ(v.y, 37.5f);
}
