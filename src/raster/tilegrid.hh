/**
 * @file
 * Screen-space tile grid for the tile-parallel back-end. The screen is
 * partitioned into square tiles whose edge is a multiple of the
 * rasterizer's 16x16 upper traversal tile, so every upper tile — and
 * therefore every 8x8 lower tile, HZ tile, framebuffer block and 2x2
 * quad — lies entirely inside exactly one screen tile. A worker that
 * owns a tile owns all pixel-addressed pipeline state under it
 * exclusively (see DESIGN.md "Tile-parallel pipeline").
 */

#ifndef WC3D_RASTER_TILEGRID_HH
#define WC3D_RASTER_TILEGRID_HH

#include <cstdint>

#include "raster/rasterizer.hh"

namespace wc3d::raster {

/** Largest screen-tile edge: one tile already covers a 1024x768 frame. */
constexpr int kMaxTileSize = 1024;

/**
 * Resolve the screen-tile edge length in pixels: @p configured when
 * positive, else 32. The result is clamped to [kUpperTile, kMaxTileSize] and rounded up to a
 * multiple of kUpperTile (the ownership argument above requires the
 * alignment).
 */
int resolveTileSize(int configured);

/** Pixel bounds of one screen tile: [x0, x1) x [y0, y1). */
struct TileRect
{
    int x0 = 0;
    int y0 = 0;
    int x1 = 0;
    int y1 = 0;
};

/**
 * Key encoding the position of a quad at pixel (@p x, @p y) in the
 * rasterizer's traversal order: upper tiles row-major, lower tiles
 * row-major within the upper tile, quads row-major within the lower
 * tile. For one triangle, sorting its quads by this key reproduces the
 * exact order the full-screen rasterize() walk emits them — which is
 * how the stats-merge phase re-interleaves per-tile quad streams into
 * global submission order (per-tile streams are already ascending, so
 * this is a k-way merge of sorted runs).
 */
inline std::uint32_t
traversalKey(int x, int y)
{
    auto ux = static_cast<std::uint32_t>(x) / kUpperTile;
    auto uy = static_cast<std::uint32_t>(y) / kUpperTile;
    std::uint32_t inner =
        ((static_cast<std::uint32_t>(y) >> 3) & 1u) << 5 |
        ((static_cast<std::uint32_t>(x) >> 3) & 1u) << 4 |
        ((static_cast<std::uint32_t>(y) >> 1) & 3u) << 2 |
        ((static_cast<std::uint32_t>(x) >> 1) & 3u);
    return uy << 18 | ux << 6 | inner;
}

/** The screen partition. Tiles are indexed row-major. */
class TileGrid
{
  public:
    /** @param tile_size must already be resolved (see resolveTileSize). */
    TileGrid(int width, int height, int tile_size);

    int tileSize() const { return _tileSize; }
    int tilesX() const { return _tilesX; }
    int tilesY() const { return _tilesY; }
    int tiles() const { return _tilesX * _tilesY; }

    int
    index(int tx, int ty) const
    {
        return ty * _tilesX + tx;
    }

    /** Pixel bounds of tile @p tile (may extend past the screen edge;
     *  traversal clips against the triangle's scissored bbox). */
    TileRect
    rect(int tile) const
    {
        int tx = tile % _tilesX;
        int ty = tile / _tilesX;
        return {tx * _tileSize, ty * _tileSize, (tx + 1) * _tileSize,
                (ty + 1) * _tileSize};
    }

    /** Inclusive tile-coordinate range for binning a primitive. */
    struct BinRange
    {
        int tx0 = 0;
        int ty0 = 0;
        int tx1 = -1;
        int ty1 = -1;
    };

    /**
     * Tiles overlapped by the (scissored, inclusive) pixel bounding box
     * [@p min_x, @p max_x] x [@p min_y, @p max_y]. Conservative: a tile
     * in the range may end up with no covered quads.
     */
    BinRange
    binRange(int min_x, int min_y, int max_x, int max_y) const
    {
        BinRange r;
        r.tx0 = min_x / _tileSize;
        r.ty0 = min_y / _tileSize;
        r.tx1 = max_x / _tileSize;
        r.ty1 = max_y / _tileSize;
        return r;
    }

  private:
    int _tileSize;
    int _tilesX;
    int _tilesY;
};

} // namespace wc3d::raster

#endif // WC3D_RASTER_TILEGRID_HH
