/**
 * @file
 * Clipper and culling stage: tests assembled triangles against the view
 * frustum and rejects back (or front) faces, "to avoid rasterization of
 * non-visible triangle faces". Each triangle's fate (clipped / culled /
 * traversed) is what the simulator counts for the paper's Table VII.
 *
 * Triangles fully outside any frustum plane are rejected as clipped;
 * triangles straddling only the near plane are polygon-clipped against
 * it (up to two output triangles) so rasterization never sees w <= 0;
 * everything else rasterizes with scissoring, as edge-function
 * rasterizers do in place of geometric side-plane clipping.
 */

#ifndef WC3D_GEOM_CLIPCULL_HH
#define WC3D_GEOM_CLIPCULL_HH

#include <cstdint>
#include <vector>

#include "geom/types.hh"

namespace wc3d::geom {

/** What happened to a triangle in the clip/cull stage. */
enum class TriangleFate : std::uint8_t
{
    Clipped,   ///< rejected: fully outside the view frustum
    Culled,    ///< rejected: facing away (or zero area)
    Traversed, ///< forwarded to rasterization
};

/** Face-culling configuration. */
enum class CullMode : std::uint8_t
{
    None,
    Back,
    Front,
};

/**
 * The clip + cull stage: process one triangle.
 *
 * @param verts      the three transformed vertices
 * @param cull_mode  face culling mode (counter-clockwise = front)
 * @param out        on Traversed: 1 or 2 clip-space triangles whose
 *                   vertices all have w > 0 near-plane-wise are
 *                   appended
 * @return the triangle's fate (the caller counts it)
 */
TriangleFate clipCull(const TransformedVertex verts[3], CullMode cull_mode,
                      std::vector<std::array<TransformedVertex, 3>> &out);

/**
 * Signed area of the projected triangle in NDC (positive =
 * counter-clockwise with y up). Exposed for tests.
 */
float projectedSignedArea(const Vec4 &a, const Vec4 &b, const Vec4 &c);

} // namespace wc3d::geom

#endif // WC3D_GEOM_CLIPCULL_HH
