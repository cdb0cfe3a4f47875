/**
 * @file
 * Framebuffer surfaces (depth/stencil and colour) backed by the cached,
 * compressed memory system the paper describes for ATTILA: "The z and
 * stencil cache implements a fast clear and z compression algorithm to
 * save BW. ... The color cache implements fast clear and a very simple
 * compression algorithm that only works for blocks of pixels with the
 * same color."
 *
 * A surface is an array of 32-bit words divided into 8x8-pixel blocks
 * (256 bytes — one cache line, Table XIV geometry). Accesses go through
 * a per-surface cache at quad granularity; misses and writebacks charge
 * the memory controller according to the block's directory state
 * (Cleared: free, Compressed: half a line, Uncompressed: full line).
 */

#ifndef WC3D_FRAGMENT_FRAMEBUFFER_HH
#define WC3D_FRAGMENT_FRAMEBUFFER_HH

#include <cstdint>
#include <vector>

#include "common/image.hh"
#include "memory/blockstate.hh"
#include "memory/cache.hh"
#include "memory/controller.hh"

namespace wc3d::frag {

/** Pixel footprint of one surface block / cache line. */
constexpr int kBlockDim = 8;
constexpr int kBlockPixels = kBlockDim * kBlockDim;
constexpr int kBlockBytes = kBlockPixels * 4;

/** Cache geometry for a surface (paper Table XIV: "64w x 256B"). */
struct SurfaceCacheConfig
{
    int ways = 64;
    int sets = 1;
    int lineBytes = kBlockBytes;
};

/** Which compression rule a surface uses on writeback. */
enum class SurfaceKind
{
    DepthStencil, ///< plane compression (2:1 when planar)
    Color,        ///< uniform-colour compression (2:1 when uniform)
};

/**
 * Deferral hook for surface-cache accesses. The cache model and the
 * memory controller behind a CachedSurface are order-sensitive shared
 * state, so tile-parallel workers must not touch them; a unit with a
 * sink installed performs its word reads/writes directly (the pixels
 * are tile-exclusive) but reports each would-be accessQuad /
 * accessQuadNoFetch here instead. The merge later replays the logged
 * accesses into the real surface in reconstructed submission order,
 * one task per surface (see DESIGN.md "Tile-parallel pipeline").
 */
class SurfaceAccessSink
{
  public:
    virtual ~SurfaceAccessSink() = default;

    /**
     * One deferred quad access at (@p x, @p y).
     * @param is_write  the access dirties the line
     * @param no_fetch  write-install semantics (accessQuadNoFetch)
     */
    virtual void surfaceAccess(int x, int y, bool is_write,
                               bool no_fetch) = 0;
};

/**
 * One cached surface of 32-bit words.
 *
 * For depth/stencil the word layout is depth[31:8] | stencil[7:0];
 * for colour it is packed RGBA8 (A in the top byte).
 */
class CachedSurface
{
  public:
    /**
     * @param kind    compression behaviour
     * @param client  memory-traffic client to charge
     * @param width   surface width in pixels
     * @param height  surface height in pixels
     * @param config  cache geometry
     * @param memory  traffic accountant (may be null for tests)
     */
    CachedSurface(SurfaceKind kind, memsys::Client client, int width,
                  int height, const SurfaceCacheConfig &config,
                  memsys::MemoryController *memory);

    int width() const { return _width; }
    int height() const { return _height; }

    /**
     * Fast clear: set every word to @p value, mark all blocks Cleared
     * and drop cache residency. Costs no GDDR traffic.
     */
    void fastClear(std::uint32_t value);

    /** Raw word access (no cache accounting; for tests/readback). */
    std::uint32_t word(int x, int y) const;
    void setWord(int x, int y, std::uint32_t v);

    /**
     * Cache-accounted access covering the quad whose top-left pixel is
     * (@p x, @p y). Call once per quad before reading (and again with
     * write semantics folded in via @p is_write when the quad writes).
     */
    void accessQuad(int x, int y, bool is_write);

    /**
     * Write access that never reads the block from memory (used by the
     * min/max-HZ early-accept path, which knows the depth test passes
     * and overwrites without a read-modify-write). Misses install the
     * line dirty with a zero-byte fill; victim writebacks still pay.
     */
    void accessQuadNoFetch(int x, int y);

    /**
     * Write back all dirty cache lines (end of frame). Writeback size
     * honours compressibility; directory states are updated.
     */
    void flushDirty();

    /**
     * Scanout/readback traffic for the whole surface at stored size
     * (used by the DAC), charged to @p client.
     */
    void chargeFullReadback(memsys::Client client);

    /**
     * Charge later traffic to @p memory instead (a replay task's
     * private tally). The surface must not be in use meanwhile.
     */
    void setMemory(memsys::MemoryController *memory) { _memory = memory; }

    const memsys::CacheStats &cacheStats() const { return _cache.stats(); }
    const memsys::CacheModel &cache() const { return _cache; }
    const memsys::BlockStateDirectory &directory() const { return _dir; }

    /** Convert a colour surface to an Image (for PPM dumps / tests). */
    Image toImage() const;

  private:
    std::size_t wordIndex(int x, int y) const;
    std::size_t blockIndex(int x, int y) const;
    std::uint64_t blockAddress(std::size_t block) const;

    /** Bytes needed to read the block in its current stored state. */
    std::uint64_t blockFillBytes(std::size_t block) const;

    /** Analyze current contents; returns stored size and updates dir. */
    std::uint64_t compressAndStore(std::size_t block);

    SurfaceKind _kind;
    memsys::Client _client;
    int _width;
    int _height;
    int _blocksX;
    int _blocksY;
    std::vector<std::uint32_t> _words;
    memsys::BlockStateDirectory _dir;
    memsys::CacheModel _cache;
    memsys::MemoryController *_memory;
    std::uint64_t _base;
};

} // namespace wc3d::frag

#endif // WC3D_FRAGMENT_FRAMEBUFFER_HH
