#include "memory/cache.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace wc3d::memsys {

CacheModel::CacheModel(int ways, int sets, int line_size)
    : _ways(ways), _sets(sets), _lineSize(line_size),
      _lineShift(std::countr_zero(static_cast<unsigned>(line_size))),
      _lines(static_cast<std::size_t>(ways) * sets),
      _setState(static_cast<std::size_t>(sets))
{
    WC3D_ASSERT(ways > 0);
    WC3D_ASSERT(std::has_single_bit(static_cast<unsigned>(sets)));
    WC3D_ASSERT(std::has_single_bit(static_cast<unsigned>(line_size)));
    // At most a quarter of the index slots are ever occupied, which
    // keeps linear-probe chains short.
    std::size_t slots = std::bit_ceil(std::max<std::size_t>(
        4, 4 * _lines.size()));
    _index.resize(slots);
    _indexShift = 64 - std::countr_zero(slots);
}

std::int32_t
CacheModel::findLine(std::uint64_t tag) const
{
    std::size_t mask = _index.size() - 1;
    for (std::size_t i = home(tag);; i = (i + 1) & mask) {
        const Slot &slot = _index[i];
        if (slot.line < 0)
            return -1;
        if (slot.tag == tag)
            return slot.line;
    }
}

void
CacheModel::indexInsert(std::uint64_t tag, std::int32_t line)
{
    std::size_t mask = _index.size() - 1;
    std::size_t i = home(tag);
    while (_index[i].line >= 0)
        i = (i + 1) & mask;
    _index[i] = {tag, line};
}

void
CacheModel::indexErase(std::uint64_t tag)
{
    std::size_t mask = _index.size() - 1;
    std::size_t hole = home(tag);
    while (_index[hole].line < 0 || _index[hole].tag != tag)
        hole = (hole + 1) & mask;
    // Backward-shift deletion: pull each later entry of the probe run
    // into the hole unless that would move it before its home slot.
    for (std::size_t j = (hole + 1) & mask; _index[j].line >= 0;
         j = (j + 1) & mask) {
        std::size_t h = home(_index[j].tag);
        if (((j - h) & mask) >= ((j - hole) & mask)) {
            _index[hole] = _index[j];
            hole = j;
        }
    }
    _index[hole].line = -1;
}

void
CacheModel::unlink(SetState &set, std::int32_t line)
{
    Line &l = _lines[static_cast<std::size_t>(line)];
    if (l.prev >= 0)
        _lines[static_cast<std::size_t>(l.prev)].next = l.next;
    else
        set.head = l.next;
    if (l.next >= 0)
        _lines[static_cast<std::size_t>(l.next)].prev = l.prev;
    else
        set.tail = l.prev;
}

void
CacheModel::pushFront(SetState &set, std::int32_t line)
{
    Line &l = _lines[static_cast<std::size_t>(line)];
    l.prev = -1;
    l.next = set.head;
    if (set.head >= 0)
        _lines[static_cast<std::size_t>(set.head)].prev = line;
    else
        set.tail = line;
    set.head = line;
}

CacheAccessResult
CacheModel::access(std::uint64_t address, bool is_write)
{
    CacheAccessResult result;
    std::uint64_t tag = address >> _lineShift;
    std::size_t set_index = static_cast<std::size_t>(tag) & (_sets - 1);
    SetState &set = _setState[set_index];
    ++_stats.accesses;

    // A hit on the set's most recent line leaves the recency order as
    // it is.
    if (set.head >= 0 &&
        _lines[static_cast<std::size_t>(set.head)].tag == tag) {
        result.hit = true;
        ++_stats.hits;
        if (is_write)
            _lines[static_cast<std::size_t>(set.head)].dirty = true;
        return result;
    }

    std::int32_t line = findLine(tag);
    if (line >= 0) {
        result.hit = true;
        ++_stats.hits;
        if (is_write)
            _lines[static_cast<std::size_t>(line)].dirty = true;
        unlink(set, line);
        pushFront(set, line);
        return result;
    }

    ++_stats.misses;
    if (set.valid < _ways) {
        line = static_cast<std::int32_t>(set_index) * _ways + set.valid;
        ++set.valid;
    } else {
        line = set.tail;
        const Line &victim = _lines[static_cast<std::size_t>(line)];
        if (victim.dirty) {
            result.writeback = true;
            result.writebackAddress = victim.tag << _lineShift;
            ++_stats.writebacks;
        }
        indexErase(victim.tag);
        unlink(set, line);
    }
    Line &fill = _lines[static_cast<std::size_t>(line)];
    fill.tag = tag;
    fill.dirty = is_write;
    indexInsert(tag, line);
    pushFront(set, line);
    result.fillAddress = tag << _lineShift;
    return result;
}

bool
CacheModel::contains(std::uint64_t address) const
{
    return findLine(address >> _lineShift) >= 0;
}

void
CacheModel::invalidateAll()
{
    std::fill(_setState.begin(), _setState.end(), SetState());
    std::fill(_index.begin(), _index.end(), Slot());
}

LruWarmup::LruWarmup(const CacheModel &geometry)
    : _ways(geometry.ways()),
      _setMask(static_cast<std::uint64_t>(geometry.sets() - 1)),
      _count(static_cast<std::size_t>(geometry.sets())),
      _lines(static_cast<std::size_t>(geometry.ways()) * geometry.sets())
{
    clear();
}

void
LruWarmup::clear()
{
    std::fill(_count.begin(), _count.end(), 0);
    _unfilled = static_cast<int>(_count.size());
}

void
LruWarmup::applyTo(CacheModel &model) const
{
    for (std::size_t set = 0; set < _count.size(); ++set) {
        const std::uint64_t *lines =
            &_lines[set * static_cast<std::size_t>(_ways)];
        for (std::int32_t i = _count[set]; i-- > 0;)
            model.readLine(lines[i]);
    }
}

} // namespace wc3d::memsys
