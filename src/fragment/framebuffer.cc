#include "fragment/framebuffer.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/prof.hh"
#include "memory/compression.hh"

namespace wc3d::frag {

CachedSurface::CachedSurface(SurfaceKind kind, memsys::Client client,
                             int width, int height,
                             const SurfaceCacheConfig &config,
                             memsys::MemoryController *memory)
    : _kind(kind), _client(client), _width(width), _height(height),
      _blocksX((width + kBlockDim - 1) / kBlockDim),
      _blocksY((height + kBlockDim - 1) / kBlockDim),
      _words(static_cast<std::size_t>(_blocksX) * _blocksY * kBlockPixels,
             0),
      _dir(static_cast<std::size_t>(_blocksX) * _blocksY),
      _cache(config.ways, config.sets, config.lineBytes),
      _memory(memory),
      _base(memory
                ? memory->allocate(static_cast<std::uint64_t>(_blocksX) *
                                       _blocksY * kBlockBytes,
                                   256)
                : 0)
{
    WC3D_ASSERT(width > 0 && height > 0);
    WC3D_ASSERT(config.lineBytes == kBlockBytes &&
                "surface cache line must match the 8x8 block");
}

std::size_t
CachedSurface::wordIndex(int x, int y) const
{
    WC3D_ASSERT(x >= 0 && x < _width && y >= 0 && y < _height);
    // Tiled layout: blocks are contiguous 256-byte runs.
    std::size_t block = blockIndex(x, y);
    int lx = x % kBlockDim;
    int ly = y % kBlockDim;
    return block * kBlockPixels + static_cast<std::size_t>(ly) * kBlockDim +
           lx;
}

std::size_t
CachedSurface::blockIndex(int x, int y) const
{
    return static_cast<std::size_t>(y / kBlockDim) * _blocksX +
           static_cast<std::size_t>(x / kBlockDim);
}

std::uint64_t
CachedSurface::blockAddress(std::size_t block) const
{
    return _base + static_cast<std::uint64_t>(block) * kBlockBytes;
}

void
CachedSurface::fastClear(std::uint32_t value)
{
    std::fill(_words.begin(), _words.end(), value);
    _dir.fastClear();
    _cache.invalidateAll();
}

std::uint32_t
CachedSurface::word(int x, int y) const
{
    return _words[wordIndex(x, y)];
}

void
CachedSurface::setWord(int x, int y, std::uint32_t v)
{
    _words[wordIndex(x, y)] = v;
}

std::uint64_t
CachedSurface::blockFillBytes(std::size_t block) const
{
    switch (_dir.state(block)) {
      case memsys::BlockState::Cleared:
        return 0; // filled from the on-die clear-value register
      case memsys::BlockState::Compressed:
        return memsys::compressedSize(kBlockBytes);
      case memsys::BlockState::Uncompressed:
        return kBlockBytes;
    }
    return kBlockBytes;
}

std::uint64_t
CachedSurface::compressAndStore(std::size_t block)
{
    std::span<const std::uint32_t> contents(
        _words.data() + block * kBlockPixels, kBlockPixels);
    bool compressible =
        _kind == SurfaceKind::DepthStencil
            ? memsys::zBlockCompressible(contents, kBlockDim)
            : memsys::colorBlockCompressible(contents);
    _dir.setState(block, compressible ? memsys::BlockState::Compressed
                                      : memsys::BlockState::Uncompressed);
    return compressible ? memsys::compressedSize(kBlockBytes)
                        : kBlockBytes;
}

void
CachedSurface::accessQuad(int x, int y, bool is_write)
{
    std::size_t block = blockIndex(x, y);
    auto result = _cache.access(blockAddress(block), is_write);
    if (result.hit)
        return;
    if (_memory) {
        if (result.writeback) {
            std::size_t victim =
                static_cast<std::size_t>((result.writebackAddress - _base) /
                                         kBlockBytes);
            _memory->write(_client, compressAndStore(victim));
        }
        _memory->read(_client, blockFillBytes(block));
    }
}

void
CachedSurface::accessQuadNoFetch(int x, int y)
{
    std::size_t block = blockIndex(x, y);
    auto result = _cache.access(blockAddress(block), true);
    if (result.hit)
        return;
    if (_memory && result.writeback) {
        std::size_t victim = static_cast<std::size_t>(
            (result.writebackAddress - _base) / kBlockBytes);
        _memory->write(_client, compressAndStore(victim));
    }
    // No fill read: the caller overwrites without needing old data.
}

void
CachedSurface::replay(std::span<const SurfaceAccess> log)
{
    for (const SurfaceAccess &a : log) {
        if (a.kind == SurfaceAccess::Kind::WriteNoFetch)
            accessQuadNoFetch(a.x, a.y);
        else
            accessQuad(a.x, a.y, a.kind == SurfaceAccess::Kind::Write);
    }
}

void
CachedSurface::flushDirty()
{
    WC3D_PROF_SCOPE("memory.writeback");
    if (!_memory) {
        _cache.flushDirty([](std::uint64_t) {});
        return;
    }
    _cache.flushDirty([this](std::uint64_t addr) {
        std::size_t block =
            static_cast<std::size_t>((addr - _base) / kBlockBytes);
        _memory->write(_client, compressAndStore(block));
    });
}

void
CachedSurface::chargeFullReadback(memsys::Client client)
{
    if (!_memory)
        return;
    std::uint64_t bytes = 0;
    for (std::size_t b = 0; b < _dir.blocks(); ++b)
        bytes += blockFillBytes(b);
    _memory->read(client, bytes);
}

Image
CachedSurface::toImage() const
{
    Image img(_width, _height);
    for (int y = 0; y < _height; ++y)
        for (int x = 0; x < _width; ++x)
            img.set(x, y, Rgba8::fromPacked(word(x, y)));
    return img;
}

} // namespace wc3d::frag
