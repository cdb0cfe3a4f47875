/**
 * @file
 * Tag-only set-associative cache model. Data contents live in the owning
 * surface/texture objects; the model tracks residency so hit rates and
 * fill/writeback traffic match a real cache's behaviour (paper Table XIV).
 */

#ifndef WC3D_MEMORY_CACHE_HH
#define WC3D_MEMORY_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
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

    CacheStats &
    operator+=(const CacheStats &other)
    {
        accesses += other.accesses;
        hits += other.hits;
        misses += other.misses;
        writebacks += other.writebacks;
        return *this;
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

    /**
     * Read access to line number @p line (the address shifted right by
     * log2(lineSize())). @return true on a hit.
     */
    bool
    readLine(std::uint64_t line)
    {
        return access(line << _lineShift, false).hit;
    }

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

    /** Add @p stats to the running statistics (folding replay chunks). */
    void addStats(const CacheStats &stats) { _stats += stats; }

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

/**
 * Warm start for replaying a read-only LRU access stream in chunks.
 *
 * In a cache that is only read, a set's state at any point of the
 * stream is fully determined: it holds the set's last `ways` distinct
 * lines in recency order, topped up from the state at the stream's
 * start when fewer were touched. Scanning the stream backward from a
 * chunk's start, noteOlder() collects exactly those lines; applyTo()
 * then brings a copy of the start state to the state at the chunk's
 * start by reading them oldest first. A line may sit in another way
 * than after a sequential replay, but with no dirty lines that is never
 * observable: every later hit, miss and eviction is the same.
 */
class LruWarmup
{
  public:
    /** Sized for models with the geometry of @p geometry. */
    explicit LruWarmup(const CacheModel &geometry);

    /** Forget the noted lines (start a new backward scan). */
    void clear();

    /**
     * Note line number @p line, read just before every line noted since
     * clear(). @return false once every set holds `ways` distinct lines,
     * i.e. when older lines can no longer matter.
     */
    bool
    noteOlder(std::uint64_t line)
    {
        auto set = static_cast<std::size_t>(line & _setMask);
        std::int32_t &n = _count[set];
        if (n < _ways) {
            std::uint64_t *lines =
                &_lines[set * static_cast<std::size_t>(_ways)];
            if (std::find(lines, lines + n, line) == lines + n) {
                lines[n++] = line;
                if (n == _ways)
                    --_unfilled;
            }
        }
        return _unfilled > 0;
    }

    /** Read the noted lines into @p model, oldest first in each set. */
    void applyTo(CacheModel &model) const;

  private:
    int _ways;
    std::uint64_t _setMask;
    int _unfilled = 0;
    std::vector<std::int32_t> _count;  ///< noted lines per set
    std::vector<std::uint64_t> _lines; ///< set-major, newest first
};

/** A position in a stream kept as contiguous pieces. */
struct StreamPos
{
    std::size_t piece = 0;
    std::size_t offset = 0; ///< events of `piece` before the position
};

/**
 * Exact chunked replay of one read-only LRU cache level.
 *
 * The level's ordered access stream is a sequence of contiguous pieces
 * of @p Event; @p LineOf maps an event to its line number. plan() splits
 * the stream into chunks of near-equal event count. run(k) replays
 * chunk k into a private copy of the level: the copy starts from the
 * state at the stream's start (the snapshot), is warmed to the state at
 * the chunk's start (LruWarmup), has its statistics reset so warm-up
 * reads are not counted, and then reads the chunk's events. Chunks
 * share nothing they write, so they may run concurrently. adopt() then
 * makes the live model the last chunk's end state, with the snapshot's
 * statistics plus every chunk's. The result equals one sequential
 * replay exactly, for any chunk count.
 *
 * Each chunk also keeps an output list of 32-bit values (the lines its
 * misses send to the next level) that run()'s visitor appends to.
 */
template <typename Event, typename LineOf>
class ChunkedLruReplay
{
  public:
    using Stream = std::span<const std::span<const Event>>;

    /**
     * Split @p stream into @p chunks chunks (some may be empty when the
     * stream is short), or into fewer when @p min_chunk_events is set
     * so that each chunk gets at least that many events. An empty
     * stream plans no chunk at all. @p geometry sizes the chunk state.
     * @return the chunk count.
     */
    int
    plan(Stream stream, int chunks, const CacheModel &geometry,
         std::size_t min_chunk_events = 0)
    {
        _stream = stream;
        std::size_t total = 0;
        for (const auto &piece : stream)
            total += piece.size();
        if (min_chunk_events > 0) {
            chunks = static_cast<int>(std::min<std::size_t>(
                static_cast<std::size_t>(std::max(chunks, 1)),
                std::max<std::size_t>(1, total / min_chunk_events)));
        }
        _planned = total == 0 ? 0 : std::max(chunks, 1);
        while (_chunks.size() < static_cast<std::size_t>(_planned))
            _chunks.push_back(std::make_unique<Chunk>(geometry));

        // Chunk k covers global events [total*k/n, total*(k+1)/n); walk
        // the pieces once to turn each boundary into a position.
        std::size_t piece = 0;
        std::size_t before = 0; // events in pieces [0, piece)
        StreamPos pos;
        for (int k = 0; k < _planned; ++k) {
            Chunk &c = *_chunks[static_cast<std::size_t>(k)];
            c.from = pos;
            std::size_t end = total * static_cast<std::size_t>(k + 1) /
                              static_cast<std::size_t>(_planned);
            while (piece < stream.size() &&
                   before + stream[piece].size() <= end) {
                before += stream[piece].size();
                ++piece;
            }
            pos = {piece, end - before};
            c.to = pos;
        }
        return _planned;
    }

    int chunks() const { return _planned; }

    /**
     * Replay chunk @p k, starting from @p snapshot (the level's state
     * at the stream's start, unchanged while chunks run). Each event is
     * handed to visit(model, event, outputs), which performs the read.
     */
    template <typename Visit>
    void
    run(int k, const CacheModel &snapshot, Visit &&visit)
    {
        Chunk &c = *_chunks[static_cast<std::size_t>(k)];
        c.model = snapshot;
        c.outputs.clear();
        c.warmup.clear();
        LineOf line_of;
        StreamPos p = c.from;
        for (;;) {
            bool more = true;
            while (more && p.offset > 0) {
                more = c.warmup.noteOlder(
                    line_of(_stream[p.piece][--p.offset]));
            }
            if (!more || p.piece == 0)
                break;
            --p.piece;
            p.offset = _stream[p.piece].size();
        }
        c.warmup.applyTo(c.model);
        c.model.resetStats();

        for (std::size_t piece = c.from.piece;
             piece < _stream.size() && piece <= c.to.piece; ++piece) {
            std::span<const Event> events = _stream[piece];
            std::size_t begin = piece == c.from.piece ? c.from.offset : 0;
            std::size_t end =
                piece == c.to.piece ? c.to.offset : events.size();
            for (std::size_t i = begin; i < end; ++i)
                visit(c.model, events[i], c.outputs);
        }
    }

    /** Statistics of chunk @p k's events (valid after run(k)). */
    const CacheStats &
    stats(int k) const
    {
        return _chunks[static_cast<std::size_t>(k)]->model.stats();
    }

    /** What chunk @p k's visitor appended (valid after run(k)). */
    const std::vector<std::uint32_t> &
    outputs(int k) const
    {
        return _chunks[static_cast<std::size_t>(k)]->outputs;
    }

    /**
     * After every planned chunk ran: make @p live (the snapshot) the
     * last chunk's end state, its statistics the snapshot's plus every
     * chunk's. No-op when nothing was planned.
     */
    void
    adopt(CacheModel &live)
    {
        if (_planned == 0)
            return;
        CacheStats total = live.stats();
        for (int k = 0; k < _planned; ++k)
            total += stats(k);
        std::swap(live, _chunks[static_cast<std::size_t>(_planned - 1)]
                            ->model);
        live.resetStats();
        live.addStats(total);
    }

  private:
    /** One chunk's private state, in its own allocation and aligned so
     *  no two concurrently running chunks share a cache line. */
    struct alignas(64) Chunk
    {
        explicit Chunk(const CacheModel &geometry)
            : model(geometry), warmup(geometry)
        {
        }

        CacheModel model;
        LruWarmup warmup;
        std::vector<std::uint32_t> outputs;
        StreamPos from;
        StreamPos to;
    };

    Stream _stream;
    int _planned = 0;
    std::vector<std::unique_ptr<Chunk>> _chunks;
};

} // namespace wc3d::memsys

#endif // WC3D_MEMORY_CACHE_HH
