/**
 * @file
 * DXT1/DXT3/DXT5 (S3TC/BC1-3) block codec. Real encode and decode so
 * the simulator's texture contents, memory footprints and bandwidth all
 * reflect genuinely compressed textures.
 */

#ifndef WC3D_TEXTURE_DXT_HH
#define WC3D_TEXTURE_DXT_HH

#include <cstdint>

#include "common/image.hh"
#include "texture/format.hh"

namespace wc3d::tex {

/**
 * Encode a 4x4 RGBA8 block.
 *
 * @param texels 16 texels, row-major
 * @param format DXT1, DXT3 or DXT5
 * @param out    destination, blockBytes(format) bytes
 */
void encodeBlock(const Rgba8 texels[16], TexFormat format,
                 std::uint8_t *out);

/**
 * Decode a DXT block back to 16 RGBA8 texels.
 *
 * @param data   blockBytes(format) bytes of encoded data
 * @param format DXT1, DXT3 or DXT5
 * @param texels destination, 16 texels row-major
 */
void decodeBlock(const std::uint8_t *data, TexFormat format,
                 Rgba8 texels[16]);

/**
 * Compress a 4x4 RGBA8 block and decode it again in one step: the
 * texels a decoder would produce from encodeBlock()'s output. It shares
 * the endpoint, palette and index selection with encodeBlock() and
 * writes each texel's palette entry instead of packing the indices.
 *
 * @param texels 16 texels, row-major
 * @param format DXT1, DXT3 or DXT5
 * @param out    destination, 16 texels row-major
 */
void roundTripBlock(const Rgba8 texels[16], TexFormat format,
                    Rgba8 out[16]);

/** Pack an Rgba8 colour to RGB565. */
std::uint16_t packRgb565(Rgba8 c);

/** Unpack RGB565 to Rgba8 (alpha = 255). */
Rgba8 unpackRgb565(std::uint16_t v);

} // namespace wc3d::tex

#endif // WC3D_TEXTURE_DXT_HH
