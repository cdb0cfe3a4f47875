/**
 * @file
 * Test-only reference for memsys::CacheModel: the straightforward
 * linear-scan LRU tag model. Every access scans the set for the tag,
 * and a miss scans it again for the victim: the lowest-index invalid
 * way if there is one, else the valid line with the oldest touch stamp.
 * The production model must reproduce its results exactly; the
 * differential test in test_cache.cc checks that operation by
 * operation.
 */

#ifndef WC3D_TESTS_CACHE_REFERENCE_HH
#define WC3D_TESTS_CACHE_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "memory/cache.hh"

namespace wc3d::test {

class ReferenceCacheModel
{
  public:
    ReferenceCacheModel(int ways, int sets, int line_size)
        : _ways(ways), _sets(sets), _lineSize(line_size),
          _lines(static_cast<std::size_t>(ways) * sets)
    {
    }

    memsys::CacheAccessResult
    access(std::uint64_t address, bool is_write)
    {
        memsys::CacheAccessResult result;
        std::uint64_t line_number = address / _lineSize;
        ++_tick;
        ++_stats.accesses;

        if (Line *line = findLine(line_number)) {
            result.hit = true;
            ++_stats.hits;
            if (is_write)
                line->dirty = true;
            line->stamp = _tick;
            return result;
        }

        ++_stats.misses;
        Line &victim = victimLine(line_number);
        if (victim.valid && victim.dirty) {
            result.writeback = true;
            result.writebackAddress = victim.tag * _lineSize;
            ++_stats.writebacks;
        }
        victim.valid = true;
        victim.dirty = is_write;
        victim.tag = line_number;
        victim.stamp = _tick;
        result.fillAddress = line_number * _lineSize;
        return result;
    }

    bool
    contains(std::uint64_t address)
    {
        return findLine(address / _lineSize) != nullptr;
    }

    template <typename Fn>
    void
    flushDirty(Fn &&writeback_cb)
    {
        for (auto &line : _lines) {
            if (line.valid && line.dirty) {
                writeback_cb(line.tag * _lineSize);
                line.dirty = false;
                ++_stats.writebacks;
            }
        }
    }

    void
    invalidateAll()
    {
        for (auto &line : _lines)
            line = Line();
    }

    void
    creditFilteredHits(std::uint64_t hits)
    {
        _stats.accesses += hits;
        _stats.hits += hits;
    }

    const memsys::CacheStats &stats() const { return _stats; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;   // full line number (address / lineSize)
        std::uint64_t stamp = 0; // last touch
    };

    Line *
    setBase(std::uint64_t line_number)
    {
        std::size_t set = static_cast<std::size_t>(line_number) & (_sets - 1);
        return &_lines[set * _ways];
    }

    Line *
    findLine(std::uint64_t line_number)
    {
        Line *base = setBase(line_number);
        for (int w = 0; w < _ways; ++w) {
            if (base[w].valid && base[w].tag == line_number)
                return &base[w];
        }
        return nullptr;
    }

    Line &
    victimLine(std::uint64_t line_number)
    {
        Line *base = setBase(line_number);
        Line *victim = &base[0];
        for (int w = 0; w < _ways; ++w) {
            if (!base[w].valid)
                return base[w];
            if (base[w].stamp < victim->stamp)
                victim = &base[w];
        }
        return *victim;
    }

    int _ways;
    int _sets;
    int _lineSize;
    std::uint64_t _tick = 0;
    std::vector<Line> _lines;
    memsys::CacheStats _stats;
};

} // namespace wc3d::test

#endif // WC3D_TESTS_CACHE_REFERENCE_HH
