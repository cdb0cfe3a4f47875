/**
 * @file
 * Tag-only set-associative cache model. Data contents live in the owning
 * surface/texture objects; the model tracks residency so hit rates and
 * fill/writeback traffic match a real cache's behaviour (paper Table XIV).
 */

#ifndef WC3D_MEMORY_CACHE_HH
#define WC3D_MEMORY_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace wc3d::memsys {

/** Outcome of a cache access, including any victim writeback. */
struct CacheAccessResult
{
    bool hit = false;
    /** Address of the line that was filled (line-aligned); 0 on hit. */
    std::uint64_t fillAddress = 0;
    /** True when a dirty victim must be written back. */
    bool writeback = false;
    /** Line-aligned address of the dirty victim (valid when writeback). */
    std::uint64_t writebackAddress = 0;
};

/** Aggregate cache statistics. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

    double
    hitRate() const
    {
        return accesses ? static_cast<double>(hits) /
                          static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * A set-associative, write-back, write-allocate LRU cache tag model.
 *
 * Geometry follows the paper's Table XIV notation: "64w x 256B" is a
 * 64-way single-set (fully associative) cache of 256-byte lines;
 * "16w x 16s x 64B" is 16 ways x 16 sets of 64-byte lines.
 *
 * Every operation is O(1) in the associativity: a tag index (open
 * addressing over the whole cache) finds a resident line, and each set
 * keeps its valid lines on an intrusive list from most to least
 * recently touched. A set fills its ways in ascending order and only
 * invalidateAll() empties them, so its invalid ways are always the
 * suffix [valid count, ways): a miss installs into the lowest invalid
 * way while one exists, else it evicts the least recently touched line.
 */
class CacheModel
{
  public:
    /**
     * @param ways      associativity (> 0)
     * @param sets      number of sets (power of two)
     * @param line_size line size in bytes (power of two)
     */
    CacheModel(int ways, int sets, int line_size);

    /**
     * Access @p address. On a miss the LRU victim is evicted and the
     * line containing the address is installed. @p is_write marks the line
     * dirty on hit or after fill.
     */
    CacheAccessResult access(std::uint64_t address, bool is_write);

    /** @return true when the line holding @p address is resident. */
    bool contains(std::uint64_t address) const;

    /**
     * Write back every dirty line (end-of-frame flush), invoking
     * @p writeback_cb with each dirty line address in ascending
     * (set, way) order. Lines stay resident but clean.
     */
    template <typename Fn>
    void
    flushDirty(Fn &&writeback_cb)
    {
        for (std::size_t set = 0; set < _setState.size(); ++set) {
            Line *base = &_lines[set * static_cast<std::size_t>(_ways)];
            for (int w = 0; w < _setState[set].valid; ++w) {
                if (base[w].dirty) {
                    writeback_cb(base[w].tag << _lineShift);
                    base[w].dirty = false;
                    ++_stats.writebacks;
                }
            }
        }
    }

    /** Invalidate everything without writebacks (e.g. after fast clear). */
    void invalidateAll();

    /**
     * Credit @p hits accesses that were filtered before reaching the
     * cache but are guaranteed hits (e.g. intra-quad re-references
     * coalesced by the texture unit): counted as accesses + hits.
     */
    void
    creditFilteredHits(std::uint64_t hits)
    {
        _stats.accesses += hits;
        _stats.hits += hits;
    }

    const CacheStats &stats() const { return _stats; }
    void resetStats() { _stats = CacheStats(); }

    int ways() const { return _ways; }
    int sets() const { return _sets; }
    int lineSize() const { return _lineSize; }
    int sizeBytes() const { return _ways * _sets * _lineSize; }

    /** Line-aligned address for @p address. */
    std::uint64_t
    lineAddress(std::uint64_t address) const
    {
        return address & ~static_cast<std::uint64_t>(_lineSize - 1);
    }

  private:
    /** A resident line; prev/next link its set's recency list. */
    struct Line
    {
        std::uint64_t tag = 0; // full line number (address >> lineShift)
        std::int32_t prev = -1; // more recently touched line, or -1
        std::int32_t next = -1; // less recently touched line, or -1
        bool dirty = false;
    };

    /** One set: ways [0, valid) hold lines, head is the MRU line and
     *  tail the LRU line (indices into _lines). */
    struct SetState
    {
        std::int32_t valid = 0;
        std::int32_t head = -1;
        std::int32_t tail = -1;
    };

    /** Tag index slot; line == -1 marks an empty slot. */
    struct Slot
    {
        std::uint64_t tag = 0;
        std::int32_t line = -1;
    };

    std::size_t
    home(std::uint64_t tag) const
    {
        return static_cast<std::size_t>(
            (tag * 0x9e3779b97f4a7c15ull) >> _indexShift);
    }

    std::int32_t findLine(std::uint64_t tag) const;
    void indexInsert(std::uint64_t tag, std::int32_t line);
    void indexErase(std::uint64_t tag);
    void unlink(SetState &set, std::int32_t line);
    void pushFront(SetState &set, std::int32_t line);

    int _ways;
    int _sets;
    int _lineSize;
    int _lineShift;
    int _indexShift;
    std::vector<Line> _lines;        // set-major: set * ways + way
    std::vector<SetState> _setState;
    std::vector<Slot> _index;        // power-of-two size, linear probing
    CacheStats _stats;
};

} // namespace wc3d::memsys

#endif // WC3D_MEMORY_CACHE_HH
