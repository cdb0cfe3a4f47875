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

#include <algorithm>
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
     * Traverse the part of one set-up triangle inside the band of rows
     * [@p y0, @p y1), which spans the full width, invoking @p emit for
     * every quad with at least one covered sample. Both bounds must be
     * multiples of kUpperTile (@p y1 may pass the screen edge). The walk
     * visits upper tiles row by row, top to bottom, then column; inside
     * an upper tile, lower tiles and then quads, each row-major. So the
     * walks of bands cut at upper-tile rows, concatenated top to bottom,
     * emit exactly the quads of one band covering the whole screen, in
     * its order.
     *
     * @tparam Fn void(const RasterQuad &)
     */
    template <typename Fn>
    void
    rasterizeTile(const TriangleSetup &tri, int y0, int y1, Fn &&emit)
    {
        if (!tri.valid)
            return;
        int tile_min_x = (tri.minX / kUpperTile) * kUpperTile;
        // max() of two kUpperTile multiples keeps the walk aligned.
        int tile_min_y = std::max((tri.minY / kUpperTile) * kUpperTile, y0);
        int max_y = std::min(tri.maxY, y1 - 1);
        for (int ty = tile_min_y; ty <= max_y; ty += kUpperTile) {
            for (int tx = tile_min_x; tx <= tri.maxX; tx += kUpperTile) {
                if (!tileOverlaps(tri, tx, ty, kUpperTile))
                    continue;
                traverseLower(tri, tx, ty, emit);
            }
        }
    }

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
                if (evaluateQuad(tri, qx, qy, quad))
                    emit(static_cast<const RasterQuad &>(quad));
            }
        }
    }

    /** Fill @p quad; @return true when any lane is covered. */
    bool evaluateQuad(const TriangleSetup &tri, int qx, int qy,
                      RasterQuad &quad) const;

    int _width;
    int _height;
};

} // namespace wc3d::raster

#endif // WC3D_RASTER_RASTERIZER_HH
