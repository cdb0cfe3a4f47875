#include "raster/rasterizer.hh"

#include "common/log.hh"

namespace wc3d::raster {

Rasterizer::Rasterizer(int width, int height)
    : _width(width), _height(height)
{
    WC3D_ASSERT(width > 0 && height > 0);
}

bool
Rasterizer::tileOverlaps(const TriangleSetup &tri, int x, int y, int size)
{
    // Sample positions are pixel centers: the tile spans centers
    // [x+0.5, x+size-0.5] in each axis. If the maximum of any edge
    // function over that rectangle is negative the tile is fully
    // outside that edge.
    double x0 = x + 0.5;
    double y0 = y + 0.5;
    double x1 = x + size - 0.5;
    double y1 = y + size - 0.5;
    for (const auto &e : tri.edges) {
        if (e.maxOverRect(x0, y0, x1, y1) < 0.0)
            return false;
    }
    return true;
}

bool
Rasterizer::evaluateQuad(const TriangleSetup &tri, int qx, int qy,
                         RasterQuad &quad) const
{
    quad.x = qx;
    quad.y = qy;
    quad.coverage = 0;
    static const int offs[4][2] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
    for (int lane = 0; lane < 4; ++lane) {
        int px = qx + offs[lane][0];
        int py = qy + offs[lane][1];
        double sx = px + 0.5;
        double sy = py + 0.5;

        bool inside = px < _width && py < _height &&
                      px >= tri.minX && px <= tri.maxX &&
                      py >= tri.minY && py <= tri.maxY;
        if (inside) {
            for (const auto &e : tri.edges) {
                if (!e.covers(e.eval(sx, sy))) {
                    inside = false;
                    break;
                }
            }
        }
        // Barycentrics and depth are computed for every lane (helper
        // lanes need them for derivative-correct shading).
        tri.barycentrics(sx, sy, quad.lambda[lane]);
        quad.z[lane] = clampf(tri.interpolateZ(quad.lambda[lane]),
                              0.0f, 1.0f);
        if (inside)
            quad.coverage |= static_cast<std::uint8_t>(1u << lane);
    }
    return quad.coverage != 0;
}

} // namespace wc3d::raster
