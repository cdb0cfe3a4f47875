#include "texture/texture.hh"
#include <cmath>

#include <algorithm>

#include "common/log.hh"
#include "texture/dxt.hh"

namespace wc3d::tex {

namespace {

bool
isPow2(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

/** Box-filter an image down to half size (min 1x1). */
Image
downsample(const Image &src)
{
    int w = std::max(1, src.width() / 2);
    int h = std::max(1, src.height() / 2);
    Image dst(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            int x0 = std::min(2 * x, src.width() - 1);
            int x1 = std::min(2 * x + 1, src.width() - 1);
            int y0 = std::min(2 * y, src.height() - 1);
            int y1 = std::min(2 * y + 1, src.height() - 1);
            Rgba8 p00 = src.at(x0, y0), p10 = src.at(x1, y0);
            Rgba8 p01 = src.at(x0, y1), p11 = src.at(x1, y1);
            auto avg = [](int a, int b, int c, int d) {
                return static_cast<std::uint8_t>((a + b + c + d + 2) / 4);
            };
            dst.set(x, y, {avg(p00.r, p10.r, p01.r, p11.r),
                           avg(p00.g, p10.g, p01.g, p11.g),
                           avg(p00.b, p10.b, p01.b, p11.b),
                           avg(p00.a, p10.a, p01.a, p11.a)});
        }
    }
    return dst;
}

/** Encode-then-decode an image through the DXT codec (lossy round trip). */
std::vector<Rgba8>
roundTripCompress(const Image &img, TexFormat format)
{
    std::vector<Rgba8> out(
        static_cast<std::size_t>(img.width()) * img.height());
    std::uint8_t encoded[16];
    Rgba8 block[16];
    for (int by = 0; by * kBlockDim < img.height(); ++by) {
        for (int bx = 0; bx * kBlockDim < img.width(); ++bx) {
            for (int ty = 0; ty < kBlockDim; ++ty) {
                for (int tx = 0; tx < kBlockDim; ++tx) {
                    int x = std::min(bx * kBlockDim + tx, img.width() - 1);
                    int y = std::min(by * kBlockDim + ty, img.height() - 1);
                    block[ty * kBlockDim + tx] = img.at(x, y);
                }
            }
            encodeBlock(block, format, encoded);
            decodeBlock(encoded, format, block);
            for (int ty = 0; ty < kBlockDim; ++ty) {
                for (int tx = 0; tx < kBlockDim; ++tx) {
                    int x = bx * kBlockDim + tx;
                    int y = by * kBlockDim + ty;
                    if (x < img.width() && y < img.height()) {
                        out[static_cast<std::size_t>(y) * img.width() + x] =
                            block[ty * kBlockDim + tx];
                    }
                }
            }
        }
    }
    return out;
}

} // namespace

Texture2D::Texture2D(std::string name, const Image &base, TexFormat format)
    : _name(std::move(name)), _format(format), _width(base.width()),
      _height(base.height())
{
    WC3D_ASSERT(isPow2(_width) && isPow2(_height));
    buildLevels(base);
}

void
Texture2D::buildLevels(const Image &base)
{
    Image current = base;
    std::uint64_t virt_off = 0;
    std::uint64_t mem_off = 0;
    for (;;) {
        Level lvl;
        lvl.width = current.width();
        lvl.height = current.height();
        lvl.blocksX = (lvl.width + kBlockDim - 1) / kBlockDim;
        lvl.blocksY = (lvl.height + kBlockDim - 1) / kBlockDim;
        if (isCompressed(_format)) {
            lvl.decoded = roundTripCompress(current, _format);
        } else {
            lvl.decoded = current.pixels();
        }
        lvl.virtOffset = virt_off;
        lvl.memOffset = mem_off;
        std::uint64_t blocks =
            static_cast<std::uint64_t>(lvl.blocksX) * lvl.blocksY;
        virt_off += blocks * kDecodedBlockBytes;
        mem_off += blocks * blockBytes(_format);
        _decodedBytes += blocks * kDecodedBlockBytes;
        _storageBytes += blocks * blockBytes(_format);
        bool last = lvl.width == 1 && lvl.height == 1;
        _levels.push_back(std::move(lvl));
        if (last)
            break;
        current = downsample(current);
    }
}

int
Texture2D::levelBlocksX(int l) const
{
    return level(l).blocksX;
}

int
Texture2D::levelBlocksY(int l) const
{
    return level(l).blocksY;
}

Rgba8
Texture2D::texel(int l, int x, int y) const
{
    const Level &lvl = level(l);
    x = std::clamp(x, 0, lvl.width - 1);
    y = std::clamp(y, 0, lvl.height - 1);
    return lvl.decoded[static_cast<std::size_t>(y) * lvl.width + x];
}

void
Texture2D::bindMemory(memsys::MemoryController &mc)
{
    WC3D_ASSERT(!_memBound);
    _virtBase = mc.allocate(_decodedBytes, 256);
    _memBase = mc.allocate(_storageBytes, 256);
    _memBound = true;
}

Texture2D
Texture2D::checkerboard(std::string name, int size, int cell, Rgba8 a,
                        Rgba8 b, TexFormat format)
{
    WC3D_ASSERT(cell > 0);
    Image img(size, size);
    for (int y = 0; y < size; ++y)
        for (int x = 0; x < size; ++x)
            img.set(x, y, (((x / cell) + (y / cell)) & 1) ? b : a);
    return Texture2D(std::move(name), img, format);
}

Texture2D
Texture2D::noise(std::string name, int size, std::uint64_t seed,
                 TexFormat format, bool alpha_noise)
{
    Rng rng(seed);
    // Smooth value noise: random lattice at 1/8 resolution, bilinearly
    // upsampled, so DXT compression behaves like it does on real art
    // (smooth regions compress well, detail regions less so).
    int lattice = std::max(2, size / 8);
    std::vector<float> values(
        static_cast<std::size_t>(lattice) * lattice);
    for (auto &v : values)
        v = rng.nextFloat();
    auto at = [&](int x, int y) {
        x &= lattice - 1;
        y &= lattice - 1;
        return values[static_cast<std::size_t>(y) * lattice + x];
    };
    Image img(size, size);
    for (int y = 0; y < size; ++y) {
        for (int x = 0; x < size; ++x) {
            float fx = static_cast<float>(x) * lattice / size;
            float fy = static_cast<float>(y) * lattice / size;
            int ix = static_cast<int>(fx);
            int iy = static_cast<int>(fy);
            float tx = fx - ix, ty = fy - iy;
            float v = std::lerp(
                std::lerp(at(ix, iy), at(ix + 1, iy), tx),
                std::lerp(at(ix, iy + 1), at(ix + 1, iy + 1), tx), ty);
            auto g = floatToUnorm8(v);
            // Alpha carries the noise too so alpha-test (KIL) materials
            // and alpha blending see realistic variation.
            img.set(x, y, {g, static_cast<std::uint8_t>(g / 2 + 64),
                           static_cast<std::uint8_t>(255 - g),
                           alpha_noise
                               ? static_cast<std::uint8_t>(255 - g)
                               : static_cast<std::uint8_t>(255)});
        }
    }
    return Texture2D(std::move(name), img, format);
}

Texture2D
Texture2D::gradient(std::string name, int size, Rgba8 from, Rgba8 to,
                    TexFormat format)
{
    Image img(size, size);
    for (int y = 0; y < size; ++y) {
        float t = size > 1 ? static_cast<float>(y) / (size - 1) : 0.0f;
        for (int x = 0; x < size; ++x) {
            auto mix = [t](std::uint8_t a, std::uint8_t b) {
                return static_cast<std::uint8_t>(a + (b - a) * t);
            };
            img.set(x, y, {mix(from.r, to.r), mix(from.g, to.g),
                           mix(from.b, to.b), mix(from.a, to.a)});
        }
    }
    return Texture2D(std::move(name), img, format);
}

} // namespace wc3d::tex
