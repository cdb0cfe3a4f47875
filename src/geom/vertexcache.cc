#include "geom/vertexcache.hh"

#include "common/log.hh"

namespace wc3d::geom {

VertexCache::VertexCache(int entries)
    : _slots(static_cast<std::size_t>(entries))
{
    WC3D_ASSERT(entries > 0);
}

int
VertexCache::lookup(std::uint32_t index)
{
    for (std::size_t i = 0; i < _slots.size(); ++i) {
        if (_slots[i].valid && _slots[i].index == index)
            return static_cast<int>(i);
    }
    return -1;
}

int
VertexCache::insert(std::uint32_t index)
{
    int slot = _nextVictim;
    _slots[static_cast<std::size_t>(slot)] = {true, index};
    _nextVictim = (_nextVictim + 1) % static_cast<int>(_slots.size());
    return slot;
}

void
VertexCache::invalidate()
{
    for (auto &s : _slots)
        s.valid = false;
    _nextVictim = 0;
}

} // namespace wc3d::geom
