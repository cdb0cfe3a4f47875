/**
 * @file
 * Unit tests for the Hierarchical Z buffer: conservative culling,
 * feedback updates, lazy tile refresh. The buffer counts nothing; each
 * case checks the outcome a test returns.
 */

#include <gtest/gtest.h>

#include "raster/hz.hh"

using namespace wc3d::raster;

TEST(Hz, FreshBufferCullsNothing)
{
    HierarchicalZ hz(64, 64);
    EXPECT_TRUE(hz.testQuad(0, 0, 0.999f));
    EXPECT_TRUE(hz.testQuad(32, 32, 0.0f));
}

TEST(Hz, CullsBehindUpdatedTile)
{
    HierarchicalZ hz(64, 64);
    // Fill tile (0,0) (pixels 0..7 x 0..7) with depth 0.3.
    for (int y = 0; y < 8; y += 2)
        for (int x = 0; x < 8; x += 2)
            hz.updateQuad(x, y, 0.3f);
    EXPECT_FLOAT_EQ(hz.tileMax(0, 0), 0.3f);
    // A quad behind 0.3 is culled; one in front passes.
    EXPECT_FALSE(hz.testQuad(2, 2, 0.5f));
    EXPECT_TRUE(hz.testQuad(2, 2, 0.2f));
}

TEST(Hz, ConservativeWhenTilePartiallyFar)
{
    HierarchicalZ hz(64, 64);
    for (int y = 0; y < 8; y += 2)
        for (int x = 0; x < 8; x += 2)
            hz.updateQuad(x, y, 0.3f);
    hz.updateQuad(6, 6, 0.9f); // one far quad in the tile
    EXPECT_FLOAT_EQ(hz.tileMax(0, 0), 0.9f);
    // Tile max is 0.9: a quad at 0.5 may be visible -> not culled.
    EXPECT_TRUE(hz.testQuad(0, 0, 0.5f));
}

TEST(Hz, TilesAreIndependent)
{
    HierarchicalZ hz(64, 64);
    for (int y = 0; y < 8; y += 2)
        for (int x = 0; x < 8; x += 2)
            hz.updateQuad(x, y, 0.1f);
    // Neighbouring tile still at clear depth.
    EXPECT_TRUE(hz.testQuad(8, 0, 0.5f));
    EXPECT_FALSE(hz.testQuad(0, 0, 0.5f));
}

TEST(Hz, ClearResetsEverything)
{
    HierarchicalZ hz(32, 32);
    for (int y = 0; y < 8; y += 2)
        for (int x = 0; x < 8; x += 2)
            hz.updateQuad(x, y, 0.05f);
    EXPECT_FALSE(hz.testQuad(0, 0, 0.5f));
    hz.clear();
    EXPECT_TRUE(hz.testQuad(0, 0, 0.5f));
    EXPECT_FLOAT_EQ(hz.tileMax(0, 0), 1.0f);
}

TEST(Hz, MaxCanDecreaseViaFeedback)
{
    HierarchicalZ hz(32, 32);
    // All quads at 0.8, then overwritten closer at 0.2.
    for (int y = 0; y < 8; y += 2)
        for (int x = 0; x < 8; x += 2)
            hz.updateQuad(x, y, 0.8f);
    EXPECT_FLOAT_EQ(hz.tileMax(0, 0), 0.8f);
    for (int y = 0; y < 8; y += 2)
        for (int x = 0; x < 8; x += 2)
            hz.updateQuad(x, y, 0.2f);
    EXPECT_FLOAT_EQ(hz.tileMax(0, 0), 0.2f);
    EXPECT_FALSE(hz.testQuad(0, 0, 0.25f));
}

TEST(Hz, NonTileAlignedDimensions)
{
    HierarchicalZ hz(20, 12); // not multiples of 8
    EXPECT_TRUE(hz.testQuad(18, 10, 0.9f));
    hz.updateQuad(18, 10, 0.1f);
    EXPECT_LE(hz.tileMax(18, 10), 1.0f);
}

TEST(Hz, StorageIsOnDieScale)
{
    HierarchicalZ hz(1024, 768);
    // Must be tiny compared to the 3MB z-buffer (on-die feasibility).
    EXPECT_LT(hz.storageBytes(), 1024u * 768u * 4u / 2u);
    EXPECT_GT(hz.storageBytes(), 0u);
}

TEST(HzMinMax, RangeTestThreeWay)
{
    HierarchicalZ hz(32, 32);
    // Tile written at depths [0.4, 0.6].
    for (int y = 0; y < 8; y += 2) {
        for (int x = 0; x < 8; x += 2) {
            hz.updateQuadRange(x, y, 0.4f, 0.6f);
        }
    }
    EXPECT_FLOAT_EQ(hz.tileMax(0, 0), 0.6f);
    EXPECT_FLOAT_EQ(hz.tileMin(0, 0), 0.4f);
    // Behind everything: culled.
    EXPECT_EQ(hz.testQuadRange(0, 0, 0.7f, 0.8f), HzResult::Culled);
    // In front of everything: accepted.
    EXPECT_EQ(hz.testQuadRange(0, 0, 0.1f, 0.3f), HzResult::Accepted);
    // Overlapping the range: ambiguous.
    EXPECT_EQ(hz.testQuadRange(0, 0, 0.3f, 0.5f), HzResult::Ambiguous);
}

TEST(HzMinMax, FreshTileNeverAccepts)
{
    // Clear depth 1.0: a fragment at z < 1 overlaps nothing stored yet,
    // but the tile min is the clear value, so zmax < min holds and the
    // accept is sound (everything stored is at the far plane).
    HierarchicalZ hz(16, 16);
    EXPECT_EQ(hz.testQuadRange(0, 0, 0.2f, 0.5f), HzResult::Accepted);
    // At the clear depth itself: ambiguous (could tie under LEqual).
    EXPECT_EQ(hz.testQuadRange(0, 0, 0.9f, 1.0f), HzResult::Ambiguous);
}

TEST(HzMinMax, MinOnlyDecreases)
{
    HierarchicalZ hz(16, 16);
    hz.updateQuadRange(0, 0, 0.5f, 0.5f);
    EXPECT_FLOAT_EQ(hz.tileMin(0, 0), 0.5f);
    // A later write with a higher min must not raise the conservative
    // bound (other pixels of the quad may still be at 0.5).
    hz.updateQuadRange(0, 0, 0.8f, 0.8f);
    EXPECT_FLOAT_EQ(hz.tileMin(0, 0), 0.5f);
    hz.updateQuadRange(0, 0, 0.2f, 0.8f);
    EXPECT_FLOAT_EQ(hz.tileMin(0, 0), 0.2f);
}

TEST(HzMinMax, ClearResetsRange)
{
    HierarchicalZ hz(16, 16);
    hz.updateQuadRange(0, 0, 0.1f, 0.2f);
    hz.clear(1.0f);
    EXPECT_FLOAT_EQ(hz.tileMin(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(hz.tileMax(0, 0), 1.0f);
}
