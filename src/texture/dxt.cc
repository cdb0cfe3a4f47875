#include "texture/dxt.hh"

#include <algorithm>
#include <cstring>

#include "common/log.hh"

namespace wc3d::tex {

std::uint16_t
packRgb565(Rgba8 c)
{
    return static_cast<std::uint16_t>(((c.r >> 3) << 11) |
                                      ((c.g >> 2) << 5) |
                                      (c.b >> 3));
}

Rgba8
unpackRgb565(std::uint16_t v)
{
    std::uint8_t r5 = (v >> 11) & 0x1f;
    std::uint8_t g6 = (v >> 5) & 0x3f;
    std::uint8_t b5 = v & 0x1f;
    // Standard bit replication expansion.
    return {static_cast<std::uint8_t>((r5 << 3) | (r5 >> 2)),
            static_cast<std::uint8_t>((g6 << 2) | (g6 >> 4)),
            static_cast<std::uint8_t>((b5 << 3) | (b5 >> 2)), 255};
}

namespace {

/** The DXT colour palette of endpoints @p c0 and @p c1. */
void
colorPalette(std::uint16_t c0, std::uint16_t c1, bool four_color,
             Rgba8 palette[4])
{
    palette[0] = unpackRgb565(c0);
    palette[1] = unpackRgb565(c1);
    if (four_color) {
        for (int ch = 0; ch < 3; ++ch) {
            (&palette[2].r)[ch] = static_cast<std::uint8_t>(
                (2 * (&palette[0].r)[ch] + (&palette[1].r)[ch]) / 3);
            (&palette[3].r)[ch] = static_cast<std::uint8_t>(
                ((&palette[0].r)[ch] + 2 * (&palette[1].r)[ch]) / 3);
        }
        palette[2].a = palette[3].a = 255;
    } else {
        for (int ch = 0; ch < 3; ++ch) {
            (&palette[2].r)[ch] = static_cast<std::uint8_t>(
                ((&palette[0].r)[ch] + (&palette[1].r)[ch]) / 2);
        }
        palette[2].a = 255;
        palette[3] = {0, 0, 0, 0};
    }
}

/**
 * For each of 16 texels, the palette entry in [0, count) at the
 * smallest dist(i, p); a tie keeps the lower index. Written without
 * branches so the compiler vectorizes it across the texels.
 */
template <typename Dist>
void
nearestEntries(int count, Dist dist, int best[16])
{
    int best_d[16];
    for (int i = 0; i < 16; ++i) {
        best_d[i] = dist(i, 0);
        best[i] = 0;
    }
    for (int p = 1; p < count; ++p) {
        for (int i = 0; i < 16; ++i) {
            int d = dist(i, p), bd = best_d[i], bi = best[i];
            best[i] = d < bd ? p : bi;
            best_d[i] = d < bd ? d : bd;
        }
    }
}

/**
 * A block's colour endpoints, their palette and each texel's palette
 * index. The encoder packs the endpoints and indices; the round trip
 * writes the palette entries, which is what a decoder would produce.
 */
struct ColorFit
{
    std::uint16_t c0 = 0;
    std::uint16_t c1 = 0;
    Rgba8 palette[4];
    std::uint8_t index[16];
};

/**
 * Fit the colour part shared by all DXT formats.
 * @param allow_punch_through DXT1: 1-bit-alpha mode when any texel has
 *        a < 128
 */
ColorFit
fitColorBlock(const Rgba8 texels[16], bool allow_punch_through)
{
    // Channels as separate arrays so nearestEntries() vectorizes.
    int r[16], g[16], b[16];
    for (int i = 0; i < 16; ++i) {
        r[i] = texels[i].r;
        g[i] = texels[i].g;
        b[i] = texels[i].b;
    }

    // Endpoints: min/max along the luminance axis (simple but effective).
    int min_i = 0, max_i = 0;
    int min_l = 2 * r[0] + 5 * g[0] + b[0], max_l = min_l;
    for (int i = 1; i < 16; ++i) {
        int l = 2 * r[i] + 5 * g[i] + b[i];
        if (l < min_l) {
            min_l = l;
            min_i = i;
        }
        if (l > max_l) {
            max_l = l;
            max_i = i;
        }
    }
    std::uint16_t c0 = packRgb565(texels[max_i]);
    std::uint16_t c1 = packRgb565(texels[min_i]);

    bool punch = false;
    if (allow_punch_through) {
        for (int i = 0; i < 16; ++i)
            punch |= texels[i].a < 128;
    }

    // Four-colour mode needs c0 > c1; three-colour (punch-through) needs
    // c0 <= c1.
    if (!punch && c0 < c1)
        std::swap(c0, c1);
    if (punch && c0 > c1)
        std::swap(c0, c1);
    if (!punch && c0 == c1) {
        // Degenerate: force distinct so mode stays four-colour; palette
        // entries all map to (almost) the same colour anyway.
        if (c0 == 0xffff) {
            c1 = static_cast<std::uint16_t>(c1 - 1);
        } else {
            c0 = static_cast<std::uint16_t>(c0 + 1);
        }
    }
    ColorFit fit;
    fit.c0 = c0;
    fit.c1 = c1;
    colorPalette(c0, c1, !punch, fit.palette);

    // Nearest palette entry by squared RGB distance. Punch-through sends
    // texels with a < 128 to entry 3 (transparent black) and the rest
    // to entries 0-2.
    int best[16];
    nearestEntries(
        punch ? 3 : 4,
        [&](int i, int p) {
            const Rgba8 &c = fit.palette[p];
            int dr = r[i] - c.r, dg = g[i] - c.g, db = b[i] - c.b;
            return dr * dr + dg * dg + db * db;
        },
        best);
    for (int i = 0; i < 16; ++i) {
        fit.index[i] = static_cast<std::uint8_t>(
            punch && texels[i].a < 128 ? 3 : best[i]);
    }
    return fit;
}

void
encodeColorBlock(const Rgba8 texels[16], bool allow_punch_through,
                 std::uint8_t *out)
{
    ColorFit fit = fitColorBlock(texels, allow_punch_through);
    std::uint32_t indices = 0;
    for (int i = 0; i < 16; ++i)
        indices |= static_cast<std::uint32_t>(fit.index[i]) << (2 * i);
    out[0] = static_cast<std::uint8_t>(fit.c0 & 0xff);
    out[1] = static_cast<std::uint8_t>(fit.c0 >> 8);
    out[2] = static_cast<std::uint8_t>(fit.c1 & 0xff);
    out[3] = static_cast<std::uint8_t>(fit.c1 >> 8);
    std::memcpy(out + 4, &indices, 4);
}

void
decodeColorBlock(const std::uint8_t *data, bool dxt1_mode, Rgba8 texels[16])
{
    std::uint16_t c0 = static_cast<std::uint16_t>(data[0] | (data[1] << 8));
    std::uint16_t c1 = static_cast<std::uint16_t>(data[2] | (data[3] << 8));
    std::uint32_t indices;
    std::memcpy(&indices, data + 4, 4);

    Rgba8 palette[4];
    colorPalette(c0, c1, !dxt1_mode || c0 > c1, palette);
    for (int i = 0; i < 16; ++i)
        texels[i] = palette[(indices >> (2 * i)) & 0x3];
}

/** The eight-entry DXT5 alpha palette (a0 > a1). */
void
alphaPalette8(std::uint8_t a0, std::uint8_t a1, std::uint8_t palette[8])
{
    palette[0] = a0;
    palette[1] = a1;
    for (int i = 1; i < 7; ++i) {
        palette[i + 1] = static_cast<std::uint8_t>(
            ((7 - i) * a0 + i * a1) / 7);
    }
}

/** DXT5 alpha endpoints (palette[0], palette[1]), palette and indices. */
struct AlphaFit
{
    std::uint8_t palette[8];
    std::uint8_t index[16];
};

AlphaFit
fitAlphaBlockDxt5(const Rgba8 texels[16])
{
    int a[16];
    for (int i = 0; i < 16; ++i)
        a[i] = texels[i].a;
    std::uint8_t a0 = texels[0].a, a1 = texels[0].a;
    for (int i = 1; i < 16; ++i) {
        a0 = std::max(a0, texels[i].a);
        a1 = std::min(a1, texels[i].a);
    }
    if (a0 == a1) {
        // Avoid the 6-entry special mode; widen trivially.
        if (a0 < 255) {
            ++a0;
        } else {
            --a1;
        }
    }
    AlphaFit fit;
    alphaPalette8(a0, a1, fit.palette);
    int best[16];
    nearestEntries(
        8, [&](int i, int p) { return std::abs(a[i] - fit.palette[p]); },
        best);
    for (int i = 0; i < 16; ++i)
        fit.index[i] = static_cast<std::uint8_t>(best[i]);
    return fit;
}

/** DXT5 interpolated-alpha block (8 bytes). */
void
encodeAlphaBlockDxt5(const Rgba8 texels[16], std::uint8_t *out)
{
    AlphaFit fit = fitAlphaBlockDxt5(texels);
    std::uint64_t bits = 0;
    for (int i = 0; i < 16; ++i)
        bits |= static_cast<std::uint64_t>(fit.index[i]) << (3 * i);
    out[0] = fit.palette[0];
    out[1] = fit.palette[1];
    for (int b = 0; b < 6; ++b)
        out[2 + b] = static_cast<std::uint8_t>((bits >> (8 * b)) & 0xff);
}

void
decodeAlphaBlockDxt5(const std::uint8_t *data, std::uint8_t alphas[16])
{
    std::uint8_t a0 = data[0], a1 = data[1];
    std::uint8_t palette[8];
    if (a0 > a1) {
        alphaPalette8(a0, a1, palette);
    } else {
        palette[0] = a0;
        palette[1] = a1;
        for (int i = 1; i < 5; ++i) {
            palette[i + 1] = static_cast<std::uint8_t>(
                ((5 - i) * a0 + i * a1) / 5);
        }
        palette[6] = 0;
        palette[7] = 255;
    }
    std::uint64_t bits = 0;
    for (int b = 0; b < 6; ++b)
        bits |= static_cast<std::uint64_t>(data[2 + b]) << (8 * b);
    for (int i = 0; i < 16; ++i)
        alphas[i] = palette[(bits >> (3 * i)) & 0x7];
}

} // namespace

void
encodeBlock(const Rgba8 texels[16], TexFormat format, std::uint8_t *out)
{
    switch (format) {
      case TexFormat::DXT1:
        encodeColorBlock(texels, true, out);
        break;
      case TexFormat::DXT3: {
        // Explicit 4-bit alpha, then the colour block.
        for (int i = 0; i < 8; ++i) {
            std::uint8_t lo = static_cast<std::uint8_t>(
                texels[2 * i].a >> 4);
            std::uint8_t hi = static_cast<std::uint8_t>(
                texels[2 * i + 1].a >> 4);
            out[i] = static_cast<std::uint8_t>(lo | (hi << 4));
        }
        encodeColorBlock(texels, false, out + 8);
        break;
      }
      case TexFormat::DXT5:
        encodeAlphaBlockDxt5(texels, out);
        encodeColorBlock(texels, false, out + 8);
        break;
      default:
        panic("encodeBlock: not a DXT format");
    }
}

void
decodeBlock(const std::uint8_t *data, TexFormat format, Rgba8 texels[16])
{
    switch (format) {
      case TexFormat::DXT1:
        decodeColorBlock(data, true, texels);
        break;
      case TexFormat::DXT3: {
        decodeColorBlock(data + 8, false, texels);
        for (int i = 0; i < 16; ++i) {
            std::uint8_t nib = static_cast<std::uint8_t>(
                (data[i / 2] >> ((i & 1) * 4)) & 0xf);
            texels[i].a = static_cast<std::uint8_t>(nib * 17);
        }
        break;
      }
      case TexFormat::DXT5: {
        decodeColorBlock(data + 8, false, texels);
        std::uint8_t alphas[16];
        decodeAlphaBlockDxt5(data, alphas);
        for (int i = 0; i < 16; ++i)
            texels[i].a = alphas[i];
        break;
      }
      default:
        panic("decodeBlock: not a DXT format");
    }
}

void
roundTripBlock(const Rgba8 texels[16], TexFormat format, Rgba8 out[16])
{
    if (!isCompressed(format))
        panic("roundTripBlock: not a DXT format");
    ColorFit color = fitColorBlock(texels, format == TexFormat::DXT1);
    for (int i = 0; i < 16; ++i)
        out[i] = color.palette[color.index[i]];
    if (format == TexFormat::DXT3) {
        for (int i = 0; i < 16; ++i)
            out[i].a = static_cast<std::uint8_t>((texels[i].a >> 4) * 17);
    } else if (format == TexFormat::DXT5) {
        AlphaFit alpha = fitAlphaBlockDxt5(texels);
        for (int i = 0; i < 16; ++i)
            out[i].a = alpha.palette[alpha.index[i]];
    }
}

} // namespace wc3d::tex
