#include "raster/tilegrid.hh"

#include <algorithm>

#include "common/log.hh"

namespace wc3d::raster {

int
resolveTileSize(int configured)
{
    int size = configured > 0 ? configured : 32;
    // Clamping before rounding keeps the round-up below INT_MAX.
    size = std::clamp(size, kUpperTile, kMaxTileSize);
    int rem = size % kUpperTile;
    if (rem != 0)
        size += kUpperTile - rem;
    return size;
}

TileGrid::TileGrid(int width, int height, int tile_size)
    : _tileSize(tile_size),
      _tilesX((width + tile_size - 1) / tile_size),
      _tilesY((height + tile_size - 1) / tile_size)
{
    WC3D_ASSERT(width > 0 && height > 0);
    WC3D_ASSERT(tile_size >= kUpperTile && tile_size <= kMaxTileSize &&
                tile_size % kUpperTile == 0);
}

} // namespace wc3d::raster
