#include "texture/texture.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/log.hh"
#include "texture/dxt.hh"

namespace wc3d::tex {

namespace {

bool
isPow2(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

/** Box-filter a w x h level down to half size (min 1x1). */
std::vector<Rgba8>
downsample(const Rgba8 *src, int w, int h)
{
    int dw = std::max(1, w / 2);
    int dh = std::max(1, h / 2);
    std::vector<Rgba8> dst(static_cast<std::size_t>(dw) * dh);
    auto avg = [](int a, int b, int c, int d) {
        return static_cast<std::uint8_t>((a + b + c + d + 2) / 4);
    };
    for (int y = 0; y < dh; ++y) {
        const Rgba8 *row0 = src + static_cast<std::size_t>(
                                      std::min(2 * y, h - 1)) * w;
        const Rgba8 *row1 = src + static_cast<std::size_t>(
                                      std::min(2 * y + 1, h - 1)) * w;
        Rgba8 *out = dst.data() + static_cast<std::size_t>(y) * dw;
        for (int x = 0; x < dw; ++x) {
            int x0 = std::min(2 * x, w - 1);
            int x1 = std::min(2 * x + 1, w - 1);
            Rgba8 p00 = row0[x0], p10 = row0[x1];
            Rgba8 p01 = row1[x0], p11 = row1[x1];
            out[x] = {avg(p00.r, p10.r, p01.r, p11.r),
                      avg(p00.g, p10.g, p01.g, p11.g),
                      avg(p00.b, p10.b, p01.b, p11.b),
                      avg(p00.a, p10.a, p01.a, p11.a)};
        }
    }
    return dst;
}

/**
 * The texels a w x h level decodes to after DXT compression. Partial
 * edge blocks repeat the last row and column. A block equal to the one
 * before it reuses its result.
 */
std::vector<Rgba8>
roundTripCompress(const Rgba8 *src, int w, int h, TexFormat format)
{
    std::vector<Rgba8> out(static_cast<std::size_t>(w) * h);
    Rgba8 block[16], prev[16], decoded[16];
    bool have_prev = false;
    for (int by = 0; by * kBlockDim < h; ++by) {
        const Rgba8 *rows[kBlockDim];
        for (int ty = 0; ty < kBlockDim; ++ty) {
            rows[ty] = src + static_cast<std::size_t>(std::min(
                                 by * kBlockDim + ty, h - 1)) * w;
        }
        int rows_out = std::min(kBlockDim, h - by * kBlockDim);
        for (int bx = 0; bx * kBlockDim < w; ++bx) {
            int x0 = bx * kBlockDim;
            for (int ty = 0; ty < kBlockDim; ++ty) {
                if (x0 + kBlockDim <= w) {
                    std::memcpy(block + ty * kBlockDim, rows[ty] + x0,
                                sizeof(Rgba8) * kBlockDim);
                    continue;
                }
                for (int tx = 0; tx < kBlockDim; ++tx) {
                    block[ty * kBlockDim + tx] =
                        rows[ty][std::min(x0 + tx, w - 1)];
                }
            }
            if (!have_prev || std::memcmp(block, prev, sizeof block) != 0) {
                roundTripBlock(block, format, decoded);
                std::memcpy(prev, block, sizeof block);
                have_prev = true;
            }
            int cols_out = std::min(kBlockDim, w - x0);
            for (int ty = 0; ty < rows_out; ++ty) {
                std::memcpy(out.data() +
                                static_cast<std::size_t>(
                                    by * kBlockDim + ty) * w + x0,
                            decoded + ty * kBlockDim,
                            sizeof(Rgba8) * cols_out);
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
    // src is the current level before compression: the base image, then
    // each downsampled level in turn.
    const Rgba8 *src = base.pixels().data();
    std::vector<Rgba8> next;
    int w = base.width(), h = base.height();
    std::uint64_t virt_off = 0;
    std::uint64_t mem_off = 0;
    for (;;) {
        Level lvl;
        lvl.width = w;
        lvl.height = h;
        lvl.blocksX = (w + kBlockDim - 1) / kBlockDim;
        lvl.blocksY = (h + kBlockDim - 1) / kBlockDim;
        if (isCompressed(_format)) {
            lvl.decoded = roundTripCompress(src, w, h, _format);
        } else {
            // Uncompressed levels are stored as they are; the next level
            // is downsampled from the stored copy.
            lvl.decoded = _levels.empty() ? base.pixels() : std::move(next);
            src = lvl.decoded.data();
        }
        lvl.virtOffset = virt_off;
        lvl.memOffset = mem_off;
        std::uint64_t blocks =
            static_cast<std::uint64_t>(lvl.blocksX) * lvl.blocksY;
        virt_off += blocks * kDecodedBlockBytes;
        mem_off += blocks * blockBytes(_format);
        _decodedBytes += blocks * kDecodedBlockBytes;
        _storageBytes += blocks * blockBytes(_format);
        _levels.push_back(std::move(lvl));
        if (w == 1 && h == 1)
            break;
        next = downsample(src, w, h);
        src = next.data();
        w = std::max(1, w / 2);
        h = std::max(1, h / 2);
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
    Rgba8 *px = img.pixels().data();
    for (int y = 0; y < size; ++y) {
        Rgba8 *row = px + static_cast<std::size_t>(y) * size;
        // Runs of cell texels alternate, starting with a on even cell rows.
        bool odd = (y / cell) & 1;
        for (int x0 = 0; x0 < size; x0 += cell, odd = !odd)
            std::fill(row + x0, row + std::min(x0 + cell, size),
                      odd ? b : a);
    }
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
    // Per column (and, the image being square, per row): the lattice
    // cell and the weight within it.
    std::vector<int> cell(static_cast<std::size_t>(size));
    std::vector<float> frac(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i) {
        float f = static_cast<float>(i) * lattice / size;
        cell[i] = static_cast<int>(f);
        frac[i] = f - cell[i];
    }
    // The horizontal lerps along lattice rows iy and iy + 1, computed
    // once per lattice row; each pixel then only lerps between them.
    std::vector<float> top(static_cast<std::size_t>(size));
    std::vector<float> bottom(static_cast<std::size_t>(size));
    Image img(size, size);
    Rgba8 *px = img.pixels().data();
    for (int y = 0; y < size; ++y) {
        int iy = cell[y];
        if (y == 0 || iy != cell[y - 1]) {
            for (int x = 0; x < size; ++x) {
                int ix = cell[x];
                top[x] = std::lerp(at(ix, iy), at(ix + 1, iy), frac[x]);
                bottom[x] = std::lerp(at(ix, iy + 1), at(ix + 1, iy + 1),
                                      frac[x]);
            }
        }
        Rgba8 *row = px + static_cast<std::size_t>(y) * size;
        for (int x = 0; x < size; ++x) {
            auto g = floatToUnorm8(std::lerp(top[x], bottom[x], frac[y]));
            // Alpha carries the noise too so alpha-test (KIL) materials
            // and alpha blending see realistic variation.
            row[x] = {g, static_cast<std::uint8_t>(g / 2 + 64),
                      static_cast<std::uint8_t>(255 - g),
                      alpha_noise ? static_cast<std::uint8_t>(255 - g)
                                  : static_cast<std::uint8_t>(255)};
        }
    }
    return Texture2D(std::move(name), img, format);
}

Texture2D
Texture2D::gradient(std::string name, int size, Rgba8 from, Rgba8 to,
                    TexFormat format)
{
    Image img(size, size);
    Rgba8 *px = img.pixels().data();
    for (int y = 0; y < size; ++y) {
        float t = size > 1 ? static_cast<float>(y) / (size - 1) : 0.0f;
        auto mix = [t](std::uint8_t a, std::uint8_t b) {
            return static_cast<std::uint8_t>(a + (b - a) * t);
        };
        Rgba8 *row = px + static_cast<std::size_t>(y) * size;
        std::fill(row, row + size,
                  Rgba8{mix(from.r, to.r), mix(from.g, to.g),
                        mix(from.b, to.b), mix(from.a, to.a)});
    }
    return Texture2D(std::move(name), img, format);
}

} // namespace wc3d::tex
