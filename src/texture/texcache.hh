/**
 * @file
 * Two-level texture cache, as in the ATTILA architecture the paper
 * simulates: "The texture cache implements two levels: level 0 stores
 * uncompressed data and level 1 stores compressed data." L0 is tagged
 * in the decompressed (virtual) address space; an L0 miss accesses L1
 * in the compressed address space; an L1 miss reads one line from GDDR,
 * charged to the Texture client.
 *
 * Also provides TextureUnit, the bridge from shader TEX instructions to
 * the sampler + cache.
 */

#ifndef WC3D_TEXTURE_TEXCACHE_HH
#define WC3D_TEXTURE_TEXCACHE_HH

#include <array>
#include <span>
#include <vector>

#include "memory/cache.hh"
#include "memory/controller.hh"
#include "shader/interp.hh"
#include "texture/sampler.hh"

namespace wc3d::tex {

/** Geometry of the two texture cache levels (paper Table XIV). */
struct TexCacheConfig
{
    int l0Ways = 64;  ///< "4 KB, 64w x 64B" fully associative
    int l0Sets = 1;
    int l0Line = 64;
    int l1Ways = 16;  ///< "16 KB, 16w x 16s x 64B"
    int l1Sets = 16;
    int l1Line = 64;
};

/**
 * One logged 4x4-block access: the block's L0 (decompressed) and L1
 * (stored) line numbers and the number of taps of one quad that
 * referenced it. Both levels only use line numbers, so 32 bits each
 * suffice (GpuSimulator asserts it when a texture is bound).
 */
struct BlockEvent
{
    std::uint32_t l0Line = 0;
    std::uint32_t l1Line = 0;
    std::int32_t refs = 0;
};
static_assert(sizeof(BlockEvent) == 12);

/**
 * The texture cache hierarchy. Receives distinct-block accesses from
 * the Sampler and models residency and memory traffic.
 *
 * A draw's logged block events can also be replayed in parallel
 * chunks, bit-exact with a sequential replay (both levels are only
 * read, see memsys::ChunkedLruReplay):
 *
 *   n = planL0Replay(events, max); replayL0(k) for every k < n;
 *   m = planL1Replay(max);         replayL1(k) for every k < m;
 *   finishReplay().
 *
 * The replayL0 (replayL1) calls may run concurrently. A plan splits its
 * level's stream into at most `max` chunks of at least 4096 events
 * (one chunk for a shorter stream, none for an empty one). L1 replays
 * the L0 chunks' miss lists in order; planL1Replay first makes the L0
 * model the replayed end state, and finishReplay does the same for L1
 * and charges the L1 misses' line fills to the Texture client.
 */
class TextureCache : public TexelAccessListener
{
  public:
    TextureCache(const TexCacheConfig &config,
                 memsys::MemoryController *memory);

    /** Resolve block (bx, by) of @p level to its two addresses and
     *  access it (see accessBlock). */
    void blockAccess(const Texture2D &texture, int level, int bx,
                     int by, int refs) override;

    /**
     * Access one 4x4 block, referenced by @p refs taps of one quad, by
     * its L0 (decompressed) address @p virtual_address and its L1
     * (stored) address @p memory_address, as given by
     * Texture2D::blockVirtualAddress / blockMemAddress.
     */
    void accessBlock(std::uint64_t virtual_address,
                     std::uint64_t memory_address, int refs);

    /** The event for block (bx, by) of @p level read by @p refs taps. */
    BlockEvent
    blockEvent(const Texture2D &texture, int level, int bx, int by,
               int refs) const
    {
        return {static_cast<std::uint32_t>(
                    texture.blockVirtualAddress(level, bx, by) >> _l0Shift),
                static_cast<std::uint32_t>(
                    texture.blockMemAddress(level, bx, by) >> _l1Shift),
                refs};
    }

    /** @return true when every line of bound @p texture fits a
     *  BlockEvent's 32-bit line numbers. */
    bool lineNumbersFit(const Texture2D &texture) const;

    /** The ordered events of one draw, as contiguous pieces. */
    using EventStream = std::span<const std::span<const BlockEvent>>;

    /** @name Chunked replay (see the class comment) */
    /// @{
    int planL0Replay(EventStream events, int max_chunks);
    void replayL0(int chunk);
    int planL1Replay(int max_chunks);
    void replayL1(int chunk);
    void finishReplay();
    /// @}

    const memsys::CacheStats &l0Stats() const { return _l0.stats(); }
    const memsys::CacheStats &l1Stats() const { return _l1.stats(); }
    const memsys::CacheModel &l0() const { return _l0; }
    const memsys::CacheModel &l1() const { return _l1; }

    void resetStats();

    /** Drop all residency (e.g. between independent runs). */
    void invalidate();

  private:
    struct L0LineOf
    {
        std::uint64_t
        operator()(const BlockEvent &e) const
        {
            return e.l0Line;
        }
    };

    struct L1LineOf
    {
        std::uint64_t
        operator()(std::uint32_t line) const
        {
            return line;
        }
    };

    memsys::CacheModel _l0;
    memsys::CacheModel _l1;
    memsys::MemoryController *_memory;
    int _l0Shift;
    int _l1Shift;
    memsys::ChunkedLruReplay<BlockEvent, L0LineOf> _l0Replay;
    memsys::ChunkedLruReplay<std::uint32_t, L1LineOf> _l1Replay;
    std::vector<std::span<const std::uint32_t>> _l0Misses;
};

/**
 * Texture unit: holds per-unit (texture, sampler-state) bindings and
 * services shader texture instructions through a Sampler and the cache.
 */
class TextureUnit : public shader::TextureSampleHandler
{
  public:
    TextureUnit(const TexCacheConfig &config,
                memsys::MemoryController *memory);

    /** Bind @p texture with @p state to sampler slot @p unit. */
    void bind(int unit, const Texture2D *texture, SamplerState state);

    /** Remove the binding of slot @p unit. */
    void unbind(int unit);

    const Texture2D *boundTexture(int unit) const;

    void sampleQuad(int sampler, const Vec4 coords[4], float lod_bias,
                    Vec4 out[4]) override;

    Sampler &sampler() { return _sampler; }
    TextureCache &cache() { return _cache; }
    const Sampler &sampler() const { return _sampler; }
    const TextureCache &cache() const { return _cache; }

  private:
    struct Binding
    {
        const Texture2D *texture = nullptr;
        SamplerState state;
    };

    std::array<Binding, shader::kMaxSamplers> _bindings;
    TextureCache _cache;
    Sampler _sampler;
};

} // namespace wc3d::tex

#endif // WC3D_TEXTURE_TEXCACHE_HH
