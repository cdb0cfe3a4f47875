/**
 * @file
 * Primitive assembly: groups transformed vertices into triangles
 * according to the primitive topology (triangle lists, strips, fans —
 * the only primitives the paper's workloads use, Table V).
 */

#ifndef WC3D_GEOM_ASSEMBLY_HH
#define WC3D_GEOM_ASSEMBLY_HH

#include <vector>

#include "geom/types.hh"

namespace wc3d::geom {

/**
 * Assemble triangles from a stream of *positions* into the transformed
 * vertex array (i.e. post-vertex-shading slots, 0..n-1 in stream order).
 *
 * Strips alternate winding; odd triangles are emitted with their first
 * two vertices swapped so all output triangles share one winding.
 * Degenerate entries (repeated positions) are kept — fate is decided by
 * clip/cull like on real hardware.
 *
 * @param type   topology
 * @param count  number of vertices in the stream
 * @param out    receives one entry per assembled triangle
 */
void assembleTriangles(PrimitiveType type, int count,
                       std::vector<AssembledTriangle> &out);

} // namespace wc3d::geom

#endif // WC3D_GEOM_ASSEMBLY_HH
