#include "common/image.hh"

#include <cmath>
#include <cstdio>

#include "common/log.hh"

namespace wc3d {

Image::Image(int width, int height, Rgba8 fill)
    : _width(width), _height(height),
      _pixels(static_cast<std::size_t>(width) * height, fill)
{
    WC3D_ASSERT(width >= 0 && height >= 0);
}

Rgba8
Image::at(int x, int y) const
{
    WC3D_ASSERT(x >= 0 && x < _width && y >= 0 && y < _height);
    return _pixels[static_cast<std::size_t>(y) * _width + x];
}

void
Image::set(int x, int y, Rgba8 c)
{
    WC3D_ASSERT(x >= 0 && x < _width && y >= 0 && y < _height);
    _pixels[static_cast<std::size_t>(y) * _width + x] = c;
}

bool
Image::writePpm(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fprintf(f, "P6\n%d %d\n255\n", _width, _height);
    for (const Rgba8 &p : _pixels) {
        std::uint8_t rgb[3] = {p.r, p.g, p.b};
        std::fwrite(rgb, 1, 3, f);
    }
    std::fclose(f);
    return true;
}

std::uint64_t
Image::contentHash() const
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint8_t byte) {
        h ^= byte;
        h *= 1099511628211ULL;
    };
    for (const Rgba8 &p : _pixels) {
        mix(p.r);
        mix(p.g);
        mix(p.b);
        mix(p.a);
    }
    return h;
}

} // namespace wc3d
