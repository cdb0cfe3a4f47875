/**
 * @file
 * Mip-mapped 2D textures. Content is stored in the real on-card format
 * (RGBA8 or DXT-compressed blocks). Each compressed level goes through
 * the codec's fused round trip (roundTripBlock(), which a test pins
 * equal to encode-then-decode), so sampling observes the lossy data
 * and the memory footprint/addresses reflect the compressed layout.
 */

#ifndef WC3D_TEXTURE_TEXTURE_HH
#define WC3D_TEXTURE_TEXTURE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/image.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "memory/controller.hh"
#include "texture/format.hh"

namespace wc3d::tex {

/**
 * A 2D texture with a full mip chain.
 *
 * Two address spaces are exposed for the two texture cache levels:
 * - the "virtual" (decompressed) space tags the L0 cache: one 64-byte
 *   line per 4x4-texel block;
 * - the "memory" (stored) space tags the L1 cache and GDDR traffic: one
 *   blockBytes(format) record per block.
 */
class Texture2D
{
  public:
    /** Build from a base image, generating a full mip chain. */
    Texture2D(std::string name, const Image &base, TexFormat format);

    /** Procedural checkerboard (power-of-two @p size). */
    static Texture2D checkerboard(std::string name, int size, int cell,
                                  Rgba8 a, Rgba8 b,
                                  TexFormat format = TexFormat::DXT1);

    /**
     * Procedural value noise (power-of-two @p size). With
     * @p alpha_noise the alpha channel carries inverted noise (for
     * alpha-tested materials); otherwise alpha is opaque.
     */
    static Texture2D noise(std::string name, int size, std::uint64_t seed,
                           TexFormat format = TexFormat::DXT1,
                           bool alpha_noise = false);

    /** Procedural axis gradient. */
    static Texture2D gradient(std::string name, int size, Rgba8 from,
                              Rgba8 to,
                              TexFormat format = TexFormat::DXT1);

    const std::string &name() const { return _name; }
    TexFormat format() const { return _format; }
    int width() const { return _width; }
    int height() const { return _height; }
    int levels() const { return static_cast<int>(_levels.size()); }

    int levelWidth(int l) const { return level(l).width; }
    int levelHeight(int l) const { return level(l).height; }

    /** Decoded texels of one level, row-major, for coordinates that
     *  are already wrapped or clamped into the level. */
    struct LevelView
    {
        const Rgba8 *texels;
        int width;
        int height;

        Rgba8
        at(int x, int y) const
        {
            return texels[static_cast<std::size_t>(y) * width + x];
        }
    };

    LevelView
    levelView(int l) const
    {
        const Level &lvl = level(l);
        return {lvl.decoded.data(), lvl.width, lvl.height};
    }

    /** Blocks across / down at @p level (4-texel blocks, padded). */
    int levelBlocksX(int level) const;
    int levelBlocksY(int level) const;

    /** Decoded texel at (x, y) of @p level; coordinates are clamped. */
    Rgba8 texel(int level, int x, int y) const;

    /** Stored (possibly compressed) footprint over all levels. */
    std::uint64_t storageBytes() const { return _storageBytes; }

    /** Decoded footprint over all levels (for ratio reporting). */
    std::uint64_t decodedBytes() const { return _decodedBytes; }

    /**
     * Assign address ranges from @p mc for both address spaces.
     * Must be called once before cache-accounted sampling.
     */
    void bindMemory(memsys::MemoryController &mc);

    /** @return true once bindMemory() has been called. */
    bool memoryBound() const { return _memBound; }

    /** L0 (virtual/decompressed) address of block (bx, by) at level. */
    std::uint64_t
    blockVirtualAddress(int l, int bx, int by) const
    {
        WC3D_ASSERT(_memBound);
        const Level &lvl = level(l);
        return _virtBase + lvl.virtOffset +
               blockIndex(lvl, bx, by) * kDecodedBlockBytes;
    }

    /** L1/GDDR (stored) address of block (bx, by) at level. */
    std::uint64_t
    blockMemAddress(int l, int bx, int by) const
    {
        WC3D_ASSERT(_memBound);
        const Level &lvl = level(l);
        return _memBase + lvl.memOffset +
               blockIndex(lvl, bx, by) * blockBytes(_format);
    }

  private:
    struct Level
    {
        int width = 0;
        int height = 0;
        int blocksX = 0;
        int blocksY = 0;
        std::vector<Rgba8> decoded;        // width*height texels
        std::uint64_t virtOffset = 0;      // block-space offsets
        std::uint64_t memOffset = 0;
    };

    void buildLevels(const Image &base);

    static std::uint64_t
    blockIndex(const Level &lvl, int bx, int by)
    {
        WC3D_ASSERT(bx >= 0 && bx < lvl.blocksX && by >= 0 &&
                    by < lvl.blocksY);
        return static_cast<std::uint64_t>(by) * lvl.blocksX + bx;
    }

    const Level &
    level(int l) const
    {
        WC3D_ASSERT(l >= 0 && l < levels());
        return _levels[static_cast<std::size_t>(l)];
    }

    std::string _name;
    TexFormat _format = TexFormat::RGBA8;
    int _width = 0;
    int _height = 0;
    std::vector<Level> _levels;
    std::uint64_t _storageBytes = 0;
    std::uint64_t _decodedBytes = 0;
    bool _memBound = false;
    std::uint64_t _virtBase = 0;
    std::uint64_t _memBase = 0;
};

} // namespace wc3d::tex

#endif // WC3D_TEXTURE_TEXTURE_HH
