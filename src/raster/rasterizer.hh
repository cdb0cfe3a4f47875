/**
 * @file
 * Recursive tiled rasterizer. Mirrors the algorithm the paper describes
 * for ATTILA (Section III.C, based on [17]): traversal "works at two
 * different tile levels: an upper level with a 16x16 footprint and at a
 * lower level generating each cycle 8x8 fragment tiles. These tiles are
 * then ... partitioned into 2x2 fragment tiles, called quads. Quads are
 * the working unit of the subsequent GPU pipeline stages."
 */

#ifndef WC3D_RASTER_RASTERIZER_HH
#define WC3D_RASTER_RASTERIZER_HH

#include <bit>
#include <cstdint>

#include "raster/setup.hh"

namespace wc3d::raster {

/** Upper and lower traversal tile sizes (pixels). */
constexpr int kUpperTile = 16;
constexpr int kLowerTile = 8;
constexpr int kQuadDim = 2;

/** A rasterized 2x2 quad handed to the fragment pipeline. */
struct RasterQuad
{
    int x = 0; ///< top-left pixel x (even)
    int y = 0; ///< top-left pixel y (even)
    /** Coverage bit per lane; lane order (x,y),(x+1,y),(x,y+1),(x+1,y+1). */
    std::uint8_t coverage = 0;
    /** Linear depth per lane (defined for all lanes, covered or not). */
    float z[4] = {};
    /** Screen-space barycentrics per lane for attribute interpolation. */
    float lambda[4][3] = {};

    bool covered(int lane) const { return (coverage >> lane) & 1; }
    int coveredCount() const { return std::popcount(coverage); }
    bool full() const { return coverage == 0xf; }
};

/** Rasterization statistics (paper Tables VIII, X and XI inputs). */
struct RasterStats
{
    std::uint64_t triangles = 0;      ///< valid triangles traversed
    std::uint64_t upperTiles = 0;     ///< 16x16 tiles visited
    std::uint64_t lowerTiles = 0;     ///< 8x8 tiles visited
    std::uint64_t quads = 0;          ///< quads emitted (>=1 lane covered)
    std::uint64_t fullQuads = 0;      ///< quads with all 4 lanes covered
    std::uint64_t fragments = 0;      ///< covered fragments generated

    /** Quad efficiency: fraction of emitted quads that are complete. */
    double
    quadEfficiency() const
    {
        return quads ? static_cast<double>(fullQuads) / quads : 0.0;
    }

    RasterStats &
    operator+=(const RasterStats &o)
    {
        triangles += o.triangles;
        upperTiles += o.upperTiles;
        lowerTiles += o.lowerTiles;
        quads += o.quads;
        fullQuads += o.fullQuads;
        fragments += o.fragments;
        return *this;
    }
};

/**
 * The traversal engine. Emits covered quads to a callback; carries no
 * framebuffer state of its own.
 */
class Rasterizer
{
  public:
    /** @param width,height render-target extent (scissor). */
    Rasterizer(int width, int height);

    /**
     * Traverse one set-up triangle, invoking @p emit for every quad
     * with at least one covered sample.
     *
     * @tparam Fn void(const RasterQuad &)
     */
    template <typename Fn>
    void
    rasterize(const TriangleSetup &tri, Fn &&emit)
    {
        if (!tri.valid)
            return;
        ++_stats.triangles;

        int tile_min_x = (tri.minX / kUpperTile) * kUpperTile;
        int tile_min_y = (tri.minY / kUpperTile) * kUpperTile;
        for (int ty = tile_min_y; ty <= tri.maxY; ty += kUpperTile) {
            for (int tx = tile_min_x; tx <= tri.maxX; tx += kUpperTile) {
                if (!tileOverlaps(tri, tx, ty, kUpperTile))
                    continue;
                ++_stats.upperTiles;
                traverseLower(tri, tx, ty, emit);
            }
        }
    }

    /**
     * Traverse the part of one set-up triangle inside the screen tile
     * [@p x0, @p x1) x [@p y0, @p y1). The tile bounds must be multiples
     * of kUpperTile, so the 16x16 traversal tiles of the full rasterize()
     * walk partition exactly across screen tiles: running rasterizeTile
     * over a disjoint tile cover visits every upper/lower tile and emits
     * every quad of the full walk exactly once, and summing the
     * per-tile statistics reproduces rasterize()'s counts — except
     * `triangles`, which tile traversal never bumps (a triangle spans
     * many tiles).
     */
    template <typename Fn>
    void
    rasterizeTile(const TriangleSetup &tri, int x0, int y0, int x1,
                  int y1, Fn &&emit)
    {
        if (!tri.valid)
            return;
        // max() of two kUpperTile multiples keeps the walk aligned.
        int tile_min_x = std::max((tri.minX / kUpperTile) * kUpperTile, x0);
        int tile_min_y = std::max((tri.minY / kUpperTile) * kUpperTile, y0);
        int max_x = std::min(tri.maxX, x1 - 1);
        int max_y = std::min(tri.maxY, y1 - 1);
        for (int ty = tile_min_y; ty <= max_y; ty += kUpperTile) {
            for (int tx = tile_min_x; tx <= max_x; tx += kUpperTile) {
                if (!tileOverlaps(tri, tx, ty, kUpperTile))
                    continue;
                ++_stats.upperTiles;
                traverseLower(tri, tx, ty, emit);
            }
        }
    }

    const RasterStats &stats() const { return _stats; }
    void resetStats() { _stats = RasterStats(); }

    int width() const { return _width; }
    int height() const { return _height; }

  private:
    /** Conservative tile-vs-triangle overlap test on pixel centers. */
    static bool tileOverlaps(const TriangleSetup &tri, int x, int y,
                             int size);

    template <typename Fn>
    void
    traverseLower(const TriangleSetup &tri, int ux, int uy, Fn &&emit)
    {
        for (int ly = uy; ly < uy + kUpperTile; ly += kLowerTile) {
            for (int lx = ux; lx < ux + kUpperTile; lx += kLowerTile) {
                if (lx > tri.maxX || ly > tri.maxY ||
                    lx + kLowerTile <= tri.minX ||
                    ly + kLowerTile <= tri.minY) {
                    continue;
                }
                if (!tileOverlaps(tri, lx, ly, kLowerTile))
                    continue;
                ++_stats.lowerTiles;
                traverseQuads(tri, lx, ly, emit);
            }
        }
    }

    template <typename Fn>
    void
    traverseQuads(const TriangleSetup &tri, int lx, int ly, Fn &&emit)
    {
        for (int qy = ly; qy < ly + kLowerTile; qy += kQuadDim) {
            for (int qx = lx; qx < lx + kLowerTile; qx += kQuadDim) {
                if (qx >= _width || qy >= _height)
                    continue;
                RasterQuad quad;
                if (evaluateQuad(tri, qx, qy, quad)) {
                    ++_stats.quads;
                    if (quad.full())
                        ++_stats.fullQuads;
                    _stats.fragments += static_cast<std::uint64_t>(
                        quad.coveredCount());
                    emit(static_cast<const RasterQuad &>(quad));
                }
            }
        }
    }

    /** Fill @p quad; @return true when any lane is covered. */
    bool evaluateQuad(const TriangleSetup &tri, int qx, int qy,
                      RasterQuad &quad) const;

    int _width;
    int _height;
    RasterStats _stats;
};

} // namespace wc3d::raster

#endif // WC3D_RASTER_RASTERIZER_HH
