/**
 * @file
 * Simple RGBA8 image container with PPM export. Used by the examples to
 * dump rendered frames and by texture tests to build reference content.
 */

#ifndef WC3D_COMMON_IMAGE_HH
#define WC3D_COMMON_IMAGE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace wc3d {

/** Packed 8-bit RGBA colour. */
struct Rgba8
{
    std::uint8_t r = 0;
    std::uint8_t g = 0;
    std::uint8_t b = 0;
    std::uint8_t a = 255;

    bool
    operator==(const Rgba8 &o) const
    {
        return r == o.r && g == o.g && b == o.b && a == o.a;
    }

    /** Pack into a 32-bit little-endian word (A in the top byte). */
    std::uint32_t
    packed() const
    {
        return static_cast<std::uint32_t>(r) |
               (static_cast<std::uint32_t>(g) << 8) |
               (static_cast<std::uint32_t>(b) << 16) |
               (static_cast<std::uint32_t>(a) << 24);
    }

    /** Unpack from a 32-bit little-endian word. */
    static Rgba8
    fromPacked(std::uint32_t v)
    {
        return {static_cast<std::uint8_t>(v & 0xff),
                static_cast<std::uint8_t>((v >> 8) & 0xff),
                static_cast<std::uint8_t>((v >> 16) & 0xff),
                static_cast<std::uint8_t>((v >> 24) & 0xff)};
    }
};

/** Convert a float in [0,1] to an 8-bit channel with rounding. */
inline std::uint8_t
floatToUnorm8(float v)
{
    if (v <= 0.0f)
        return 0;
    if (v >= 1.0f)
        return 255;
    return static_cast<std::uint8_t>(v * 255.0f + 0.5f);
}

/** Convert an 8-bit channel to a float in [0,1]. */
inline float
unorm8ToFloat(std::uint8_t v)
{
    return static_cast<float>(v) * (1.0f / 255.0f);
}

/** Row-major RGBA8 image. */
class Image
{
  public:
    Image() = default;

    /** Allocate a width x height image filled with @p fill. */
    Image(int width, int height, Rgba8 fill = {0, 0, 0, 255});

    int width() const { return _width; }
    int height() const { return _height; }

    /** Pixel accessors; coordinates must be in range. */
    Rgba8 at(int x, int y) const;
    void set(int x, int y, Rgba8 c);

    /** Raw pixel store (row-major, y = 0 is the first row). */
    const std::vector<Rgba8> &pixels() const { return _pixels; }
    std::vector<Rgba8> &pixels() { return _pixels; }

    /**
     * Write a binary PPM (P6) file, dropping alpha.
     * @return true on success.
     */
    bool writePpm(const std::string &path) const;

    /** FNV-1a hash over the pixel bytes; used for golden-image tests. */
    std::uint64_t contentHash() const;

  private:
    int _width = 0;
    int _height = 0;
    std::vector<Rgba8> _pixels;
};

} // namespace wc3d

#endif // WC3D_COMMON_IMAGE_HH
