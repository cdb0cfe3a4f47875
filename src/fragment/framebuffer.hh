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
 * (256 bytes — one cache line, Table XIV geometry). Pixels are read and
 * written as words; cache accesses are separate and at quad granularity:
 * the fragment units log them (SurfaceAccess) and the merge replays each
 * log into the surface's cache. Misses and writebacks charge the memory
 * controller according to the block's directory state (Cleared: free,
 * Compressed: half a line, Uncompressed: full line).
 */

#ifndef WC3D_FRAGMENT_FRAMEBUFFER_HH
#define WC3D_FRAGMENT_FRAMEBUFFER_HH

#include <cstdint>
#include <span>
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
 * One logged quad access to a surface's cache. The z/stencil and colour
 * units never touch the cache model or the memory controller, which are
 * order-sensitive shared state: they append what they would access to
 * the log their band's work item points them at, and the merge replays
 * the logs into the surface in submission order (see DESIGN.md
 * "Ordered merge").
 */
struct SurfaceAccess
{
    enum class Kind : std::uint8_t
    {
        Read,         ///< accessQuad(x, y, false)
        Write,        ///< accessQuad(x, y, true): dirties the line
        WriteNoFetch, ///< accessQuadNoFetch(x, y)
    };

    std::int32_t x = 0; ///< quad top-left pixel
    std::int32_t y = 0;
    Kind kind = Kind::Read;
};

/** One band's accesses to one surface, in traversal order. */
using SurfaceLog = std::vector<SurfaceAccess>;

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

    /**
     * Word access without cache accounting: the units read and write
     * pixels here and log the cache access separately.
     */
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

    /** Apply each access of @p log in order (its accessQuad* call). */
    void replay(std::span<const SurfaceAccess> log);

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
