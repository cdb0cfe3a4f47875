/**
 * @file
 * Post-transform vertex cache. "When using indexed mode, this vertex
 * cache allows reusing already transformed vertices, provided that two
 * references to a vertex are close in time. Thus ... the triangle list
 * will behave, from a vertex shading point of view, like a triangle
 * strip" (paper Section III.B). The paper's Figure 5 plots this cache's
 * hit rate against the theoretical 66% bound for adjacent triangles.
 *
 * Modelled as a FIFO of recently transformed vertex indices, which is
 * how the post-transform caches of the era behaved.
 */

#ifndef WC3D_GEOM_VERTEXCACHE_HH
#define WC3D_GEOM_VERTEXCACHE_HH

#include <cstdint>
#include <vector>

namespace wc3d::geom {

/** FIFO post-transform vertex cache model with slot storage. It keeps
 *  no statistics: lookup() answers hit or miss, and the simulator
 *  counts each answer in its pipeline counters. */
class VertexCache
{
  public:
    /** @param entries capacity in vertices (R520-class GPUs: ~16). */
    explicit VertexCache(int entries = 16);

    /**
     * Look up vertex @p index.
     * @return the cache slot holding it, or -1 on miss.
     */
    int lookup(std::uint32_t index);

    /**
     * Install vertex @p index after a miss, evicting the oldest entry.
     * @return the slot it now occupies.
     */
    int insert(std::uint32_t index);

    /** Forget all entries (between draw batches: indices are relative
     *  to the batch's vertex buffer). */
    void invalidate();

    int entries() const { return static_cast<int>(_slots.size()); }

  private:
    struct Slot
    {
        bool valid = false;
        std::uint32_t index = 0;
    };

    std::vector<Slot> _slots;
    int _nextVictim = 0;
};

} // namespace wc3d::geom

#endif // WC3D_GEOM_VERTEXCACHE_HH
