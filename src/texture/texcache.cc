#include "texture/texcache.hh"

#include <bit>
#include <limits>

#include "common/log.hh"
#include "common/prof.hh"

namespace wc3d::tex {

namespace {

/** Fewest events a replay chunk gets: below that, warm-up and task
 *  overhead outweigh the parallelism, so short streams replay as one. */
constexpr std::size_t kMinChunkEvents = 4096;

} // namespace

TextureCache::TextureCache(const TexCacheConfig &config,
                           memsys::MemoryController *memory)
    : _l0(config.l0Ways, config.l0Sets, config.l0Line),
      _l1(config.l1Ways, config.l1Sets, config.l1Line),
      _memory(memory),
      _l0Shift(std::countr_zero(static_cast<unsigned>(config.l0Line))),
      _l1Shift(std::countr_zero(static_cast<unsigned>(config.l1Line)))
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

bool
TextureCache::lineNumbersFit(const Texture2D &texture) const
{
    constexpr std::uint64_t kLines =
        std::uint64_t{std::numeric_limits<std::uint32_t>::max()} + 1;
    // Levels are laid out from level 0 upward in both address spaces.
    std::uint64_t virtual_end =
        texture.blockVirtualAddress(0, 0, 0) + texture.decodedBytes();
    std::uint64_t memory_end =
        texture.blockMemAddress(0, 0, 0) + texture.storageBytes();
    return ((virtual_end - 1) >> _l0Shift) < kLines &&
           ((memory_end - 1) >> _l1Shift) < kLines;
}

int
TextureCache::planL0Replay(EventStream events, int max_chunks)
{
    return _l0Replay.plan(events, max_chunks, _l0, kMinChunkEvents);
}

void
TextureCache::replayL0(int chunk)
{
    _l0Replay.run(chunk, _l0,
                  [](memsys::CacheModel &l0, const BlockEvent &e,
                     std::vector<std::uint32_t> &misses) {
                      if (!l0.readLine(e.l0Line))
                          misses.push_back(e.l1Line);
                      // As in accessBlock: the quad's further taps of
                      // the block are guaranteed hits.
                      if (e.refs > 1)
                          l0.creditFilteredHits(
                              static_cast<std::uint64_t>(e.refs - 1));
                  });
}

int
TextureCache::planL1Replay(int max_chunks)
{
    _l0Replay.adopt(_l0);
    _l0Misses.clear();
    for (int k = 0; k < _l0Replay.chunks(); ++k)
        _l0Misses.emplace_back(_l0Replay.outputs(k));
    return _l1Replay.plan(_l0Misses, max_chunks, _l1, kMinChunkEvents);
}

void
TextureCache::replayL1(int chunk)
{
    _l1Replay.run(chunk, _l1,
                  [](memsys::CacheModel &l1, std::uint32_t line,
                     std::vector<std::uint32_t> &) { l1.readLine(line); });
}

void
TextureCache::finishReplay()
{
    std::uint64_t misses = 0;
    for (int k = 0; k < _l1Replay.chunks(); ++k)
        misses += _l1Replay.stats(k).misses;
    _l1Replay.adopt(_l1);
    if (_memory && misses > 0) {
        _memory->read(memsys::Client::Texture,
                      misses * static_cast<std::uint64_t>(_l1.lineSize()));
    }
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
