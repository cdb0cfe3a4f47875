#include "raster/hz.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/prof.hh"

namespace wc3d::raster {

HierarchicalZ::HierarchicalZ(int width, int height)
    : _width(width), _height(height),
      _tilesX((width + kTileDim - 1) / kTileDim),
      _tilesY((height + kTileDim - 1) / kTileDim),
      _quadsX((width + 1) / 2), _quadsY((height + 1) / 2),
      _tileMax(static_cast<std::size_t>(_tilesX) * _tilesY, 1.0f),
      _tileMin(static_cast<std::size_t>(_tilesX) * _tilesY, 1.0f),
      _tileDirty(static_cast<std::size_t>(_tilesX) * _tilesY, 0),
      _quadMax(static_cast<std::size_t>(_quadsX) * _quadsY, 1.0f),
      _quadMin(static_cast<std::size_t>(_quadsX) * _quadsY, 1.0f)
{
    WC3D_ASSERT(width > 0 && height > 0);
}

void
HierarchicalZ::clear(float depth)
{
    WC3D_PROF_SCOPE("hz.clear");
    std::fill(_tileMax.begin(), _tileMax.end(), depth);
    std::fill(_tileMin.begin(), _tileMin.end(), depth);
    std::fill(_tileDirty.begin(), _tileDirty.end(), 0);
    std::fill(_quadMax.begin(), _quadMax.end(), depth);
    std::fill(_quadMin.begin(), _quadMin.end(), depth);
}

int
HierarchicalZ::tileIndex(int x, int y) const
{
    int tx = x / kTileDim;
    int ty = y / kTileDim;
    WC3D_ASSERT(tx >= 0 && tx < _tilesX && ty >= 0 && ty < _tilesY);
    return ty * _tilesX + tx;
}

int
HierarchicalZ::quadIndex(int x, int y) const
{
    int qx = x / 2;
    int qy = y / 2;
    WC3D_ASSERT(qx >= 0 && qx < _quadsX && qy >= 0 && qy < _quadsY);
    return qy * _quadsX + qx;
}

void
HierarchicalZ::refreshTile(int tile, int tx, int ty)
{
    float tile_max = 0.0f;
    float tile_min = 1.0f;
    int qx0 = tx * kTileDim / 2;
    int qy0 = ty * kTileDim / 2;
    int qx1 = std::min(qx0 + kTileDim / 2, _quadsX);
    int qy1 = std::min(qy0 + kTileDim / 2, _quadsY);
    for (int qy = qy0; qy < qy1; ++qy) {
        for (int qx = qx0; qx < qx1; ++qx) {
            std::size_t qi = static_cast<std::size_t>(qy) * _quadsX + qx;
            tile_max = std::max(tile_max, _quadMax[qi]);
            tile_min = std::min(tile_min, _quadMin[qi]);
        }
    }
    _tileMax[static_cast<std::size_t>(tile)] = tile_max;
    _tileMin[static_cast<std::size_t>(tile)] = tile_min;
    _tileDirty[static_cast<std::size_t>(tile)] = 0;
}

float
HierarchicalZ::tileMax(int x, int y)
{
    int tile = tileIndex(x, y);
    if (_tileDirty[static_cast<std::size_t>(tile)])
        refreshTile(tile, x / kTileDim, y / kTileDim);
    return _tileMax[static_cast<std::size_t>(tile)];
}

bool
HierarchicalZ::testQuad(int x, int y, float quad_z_min)
{
    return !(quad_z_min > tileMax(x, y));
}

float
HierarchicalZ::tileMin(int x, int y)
{
    int tile = tileIndex(x, y);
    if (_tileDirty[static_cast<std::size_t>(tile)])
        refreshTile(tile, x / kTileDim, y / kTileDim);
    return _tileMin[static_cast<std::size_t>(tile)];
}

HzResult
HierarchicalZ::testQuadRange(int x, int y, float quad_z_min,
                             float quad_z_max)
{
    if (quad_z_min > tileMax(x, y))
        return HzResult::Culled;
    if (quad_z_max < tileMin(x, y))
        return HzResult::Accepted;
    return HzResult::Ambiguous;
}

void
HierarchicalZ::updateQuad(int x, int y, float quad_z_max)
{
    std::size_t qi = static_cast<std::size_t>(quadIndex(x, y));
    if (_quadMax[qi] != quad_z_max) {
        _quadMax[qi] = quad_z_max;
        _tileDirty[static_cast<std::size_t>(tileIndex(x, y))] = 1;
    }
}

void
HierarchicalZ::updateQuadRange(int x, int y, float quad_z_min,
                               float quad_z_max)
{
    std::size_t qi = static_cast<std::size_t>(quadIndex(x, y));
    if (_quadMax[qi] != quad_z_max || _quadMin[qi] != quad_z_min) {
        _quadMax[qi] = quad_z_max;
        _quadMin[qi] = std::min(_quadMin[qi], quad_z_min);
        _tileDirty[static_cast<std::size_t>(tileIndex(x, y))] = 1;
    }
}

std::uint64_t
HierarchicalZ::storageBytes() const
{
    // On-die cost: the min and max tile arrays. The per-quad feedback
    // stores are simulation bookkeeping standing in for the incremental
    // update path of real hardware, not on-die SRAM.
    return (_tileMax.size() + _tileMin.size()) * sizeof(float);
}

} // namespace wc3d::raster
