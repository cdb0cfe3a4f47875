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
 *
 * The structure holds depths only, no statistics: each test returns its
 * outcome and the GPU simulator counts it (quads removed in
 * PipelineCounters, tests and early accepts in GpuSimulator::hzStats()).
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
     *         false when it is guaranteed occluded.
     */
    bool testQuad(int x, int y, float quad_z_min);

    /**
     * Min/max test (the paper's "HZ storing maximum and minimum
     * values" improvement): additionally detects guaranteed-visible
     * quads (zmax below the tile minimum), which can skip the z-buffer
     * read entirely.
     */
    HzResult testQuadRange(int x, int y, float quad_z_min,
                           float quad_z_max);

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
};

} // namespace wc3d::raster

#endif // WC3D_RASTER_HZ_HH
