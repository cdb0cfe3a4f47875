/**
 * @file
 * Hierarchical Z buffer ([18], ATI Hyper-Z). An on-die structure holding
 * a conservative maximum depth per 8x8 screen tile; quads whose minimum
 * interpolated depth exceeds the tile maximum cannot pass a LESS/LEQUAL
 * depth test and are removed before shading *without touching GDDR*.
 * The paper's Table IX shows HZ removing 34-42% of all quads.
 *
 * The tile maxima are maintained from per-quad maxima fed back by the
 * z-stencil stage after depth writes; tile recomputation is lazy.
 */

#ifndef WC3D_RASTER_HZ_HH
#define WC3D_RASTER_HZ_HH

#include <cstdint>
#include <vector>

namespace wc3d::raster {

/** Outcome of a min/max HZ range test. */
enum class HzResult
{
    Culled,    ///< guaranteed occluded (quad zmin > tile max)
    Accepted,  ///< guaranteed visible (quad zmax < tile min)
    Ambiguous, ///< must run the full z test
};

/** HZ statistics (quad removal, Table IX; early accepts are the
 *  paper's suggested min/max-HZ improvement). */
struct HzStats
{
    std::uint64_t quadsTested = 0;
    std::uint64_t quadsCulled = 0;
    std::uint64_t quadsAccepted = 0;

    double
    cullRate() const
    {
        return quadsTested ? static_cast<double>(quadsCulled) / quadsTested
                           : 0.0;
    }

    double
    acceptRate() const
    {
        return quadsTested
            ? static_cast<double>(quadsAccepted) / quadsTested
            : 0.0;
    }
};

/** The on-die hierarchical depth structure. */
class HierarchicalZ
{
  public:
    /** Tile footprint in pixels. */
    static constexpr int kTileDim = 8;

    HierarchicalZ(int width, int height);

    /** Reset every tile to @p depth (fast clear; no GDDR traffic). */
    void clear(float depth = 1.0f);

    /**
     * Test a 2x2 quad at (@p x, @p y) whose minimum interpolated depth
     * is @p quad_z_min against the covering tile.
     *
     * @return true when the quad may be visible (must continue);
     *         false when it is guaranteed occluded (stats updated).
     */
    bool testQuad(int x, int y, float quad_z_min)
    { return testQuad(x, y, quad_z_min, _stats); }

    /**
     * As above, charging @p stats instead of the member statistics.
     * Band workers pass a private HzStats (merged after the join):
     * the depth arrays they touch are exclusively theirs by band
     * ownership, but the counters are not.
     */
    bool testQuad(int x, int y, float quad_z_min, HzStats &stats);

    /**
     * Min/max test (the paper's "HZ storing maximum and minimum
     * values" improvement): additionally detects guaranteed-visible
     * quads (zmax below the tile minimum), which can skip the z-buffer
     * read entirely.
     */
    HzResult testQuadRange(int x, int y, float quad_z_min,
                           float quad_z_max)
    { return testQuadRange(x, y, quad_z_min, quad_z_max, _stats); }

    /** Stats-parameterised variant (see testQuad overload). */
    HzResult testQuadRange(int x, int y, float quad_z_min,
                           float quad_z_max, HzStats &stats);

    /**
     * Depth-write feedback from the z-stencil stage: the quad at
     * (@p x, @p y) now has maximum stored depth @p quad_z_max.
     */
    void updateQuad(int x, int y, float quad_z_max);

    /** Min/max feedback: stored depth range of the quad after writes. */
    void updateQuadRange(int x, int y, float quad_z_min,
                         float quad_z_max);

    /** Tile maximum covering pixel (x, y) (recomputes if stale). */
    float tileMax(int x, int y);

    /** Tile minimum covering pixel (x, y) (recomputes if stale). */
    float tileMin(int x, int y);

    const HzStats &stats() const { return _stats; }
    void resetStats() { _stats = HzStats(); }

    /** Fold a worker-private stats shard into the member statistics. */
    void
    mergeStats(const HzStats &s)
    {
        _stats.quadsTested += s.quadsTested;
        _stats.quadsCulled += s.quadsCulled;
        _stats.quadsAccepted += s.quadsAccepted;
    }

    /** On-die storage footprint in bytes (for reporting). */
    std::uint64_t storageBytes() const;

  private:
    int tileIndex(int x, int y) const;
    int quadIndex(int x, int y) const;
    void refreshTile(int tile, int tx, int ty);

    int _width;
    int _height;
    int _tilesX;
    int _tilesY;
    int _quadsX;
    int _quadsY;
    std::vector<float> _tileMax;   ///< per 8x8 tile
    std::vector<float> _tileMin;
    /// One byte per tile, not vector<bool>: band workers set flags
    /// for the (disjoint) tiles they own, which bit-packing would
    /// turn into a data race on the shared words.
    std::vector<std::uint8_t> _tileDirty;
    std::vector<float> _quadMax;   ///< per 2x2 quad (feedback store)
    std::vector<float> _quadMin;
    HzStats _stats;
};

} // namespace wc3d::raster

#endif // WC3D_RASTER_HZ_HH
