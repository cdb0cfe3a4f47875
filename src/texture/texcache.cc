#include "texture/texcache.hh"

#include "common/log.hh"
#include "common/prof.hh"

namespace wc3d::tex {

TextureCache::TextureCache(const TexCacheConfig &config,
                           memsys::MemoryController *memory)
    : _l0(config.l0Ways, config.l0Sets, config.l0Line),
      _l1(config.l1Ways, config.l1Sets, config.l1Line),
      _memory(memory)
{
}

void
TextureCache::blockAccess(const Texture2D &texture, int level, int bx,
                          int by, int refs)
{
    WC3D_ASSERT(texture.memoryBound());
    accessBlock(texture.blockVirtualAddress(level, bx, by),
                texture.blockMemAddress(level, bx, by), refs);
}

void
TextureCache::accessBlock(std::uint64_t virtual_address,
                          std::uint64_t memory_address, int refs)
{
    auto r0 = _l0.access(virtual_address, false);
    // The quad's further taps of the same block are guaranteed hits;
    // credit them so hit rates use per-tap semantics.
    if (refs > 1)
        _l0.creditFilteredHits(refs - 1);
    if (r0.hit)
        return;

    // L0 fill: fetch the compressed block through L1. A 4x4 block is at
    // most one L1 line (8/16B DXT, 64B RGBA8), so a single access
    // suffices.
    auto r1 = _l1.access(memory_address, false);
    if (!r1.hit && _memory)
        _memory->read(memsys::Client::Texture,
                      static_cast<std::uint64_t>(_l1.lineSize()));
}

void
TextureCache::resetStats()
{
    _l0.resetStats();
    _l1.resetStats();
}

void
TextureCache::invalidate()
{
    _l0.invalidateAll();
    _l1.invalidateAll();
}

TextureUnit::TextureUnit(const TexCacheConfig &config,
                         memsys::MemoryController *memory)
    : _cache(config, memory)
{
    _sampler.setListener(&_cache);
}

void
TextureUnit::bind(int unit, const Texture2D *texture, SamplerState state)
{
    WC3D_PROF_SCOPE("texture.bind");
    WC3D_ASSERT(unit >= 0 && unit < shader::kMaxSamplers);
    _bindings[static_cast<std::size_t>(unit)] = {texture, state};
}

void
TextureUnit::unbind(int unit)
{
    WC3D_ASSERT(unit >= 0 && unit < shader::kMaxSamplers);
    _bindings[static_cast<std::size_t>(unit)] = Binding();
}

const Texture2D *
TextureUnit::boundTexture(int unit) const
{
    WC3D_ASSERT(unit >= 0 && unit < shader::kMaxSamplers);
    return _bindings[static_cast<std::size_t>(unit)].texture;
}

void
TextureUnit::sampleQuad(int sampler, const Vec4 coords[4], float lod_bias,
                        Vec4 out[4])
{
    WC3D_ASSERT(sampler >= 0 && sampler < shader::kMaxSamplers);
    const Binding &b = _bindings[static_cast<std::size_t>(sampler)];
    if (!b.texture) {
        // Unbound unit: sample opaque black, like a disabled stage.
        for (int l = 0; l < 4; ++l)
            out[l] = {0.0f, 0.0f, 0.0f, 1.0f};
        return;
    }
    _sampler.sampleQuad(*b.texture, b.state, coords, lod_bias, out);
}

} // namespace wc3d::tex
