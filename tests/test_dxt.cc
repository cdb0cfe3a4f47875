/**
 * @file
 * Unit tests for the DXT block codec and format metadata.
 */

#include <algorithm>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "texture/dxt.hh"

using namespace wc3d;
using namespace wc3d::tex;

TEST(Format, BlockBytes)
{
    EXPECT_EQ(blockBytes(TexFormat::RGBA8), 64u);
    EXPECT_EQ(blockBytes(TexFormat::DXT1), 8u);
    EXPECT_EQ(blockBytes(TexFormat::DXT3), 16u);
    EXPECT_EQ(blockBytes(TexFormat::DXT5), 16u);
}

TEST(Format, CompressionRatios)
{
    EXPECT_DOUBLE_EQ(compressionRatio(TexFormat::DXT1), 8.0);
    EXPECT_DOUBLE_EQ(compressionRatio(TexFormat::DXT5), 4.0);
    EXPECT_DOUBLE_EQ(compressionRatio(TexFormat::RGBA8), 1.0);
    EXPECT_TRUE(isCompressed(TexFormat::DXT1));
    EXPECT_FALSE(isCompressed(TexFormat::RGBA8));
}

TEST(Format, Names)
{
    EXPECT_STREQ(formatName(TexFormat::DXT5), "DXT5");
    EXPECT_STREQ(formatName(TexFormat::RGBA8), "RGBA8");
}

TEST(Rgb565, PackUnpackRoundTrip)
{
    // Extremes survive exactly (bit replication).
    EXPECT_EQ(unpackRgb565(packRgb565({0, 0, 0, 255})),
              (Rgba8{0, 0, 0, 255}));
    EXPECT_EQ(unpackRgb565(packRgb565({255, 255, 255, 255})),
              (Rgba8{255, 255, 255, 255}));
    // Arbitrary colours stay within quantisation error...
    Rgba8 c{123, 45, 210, 255};
    Rgba8 q = unpackRgb565(packRgb565(c));
    EXPECT_LE(std::abs(q.r - c.r), 8);
    EXPECT_LE(std::abs(q.g - c.g), 4);
    EXPECT_LE(std::abs(q.b - c.b), 8);
    // ...and re-quantisation is idempotent.
    EXPECT_EQ(unpackRgb565(packRgb565(q)), q);
}

namespace {

int
maxChannelError(const Rgba8 a[16], const Rgba8 b[16], bool alpha)
{
    int worst = 0;
    for (int i = 0; i < 16; ++i) {
        worst = std::max(worst, std::abs(a[i].r - b[i].r));
        worst = std::max(worst, std::abs(a[i].g - b[i].g));
        worst = std::max(worst, std::abs(a[i].b - b[i].b));
        if (alpha)
            worst = std::max(worst, std::abs(a[i].a - b[i].a));
    }
    return worst;
}

} // namespace

TEST(Dxt1, UniformBlockNearExact)
{
    Rgba8 block[16];
    for (auto &t : block)
        t = {100, 150, 200, 255};
    std::uint8_t enc[8];
    Rgba8 dec[16];
    encodeBlock(block, TexFormat::DXT1, enc);
    decodeBlock(enc, TexFormat::DXT1, dec);
    // 565 quantisation only.
    EXPECT_LE(maxChannelError(block, dec, false), 8);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(dec[i].a, 255);
}

TEST(Dxt1, TwoColorBlockKeepsBothColors)
{
    Rgba8 block[16];
    for (int i = 0; i < 16; ++i)
        block[i] = (i < 8) ? Rgba8{255, 0, 0, 255} : Rgba8{0, 0, 255, 255};
    std::uint8_t enc[8];
    Rgba8 dec[16];
    encodeBlock(block, TexFormat::DXT1, enc);
    decodeBlock(enc, TexFormat::DXT1, dec);
    EXPECT_LE(maxChannelError(block, dec, false), 8);
}

TEST(Dxt1, PunchThroughAlpha)
{
    Rgba8 block[16];
    for (int i = 0; i < 16; ++i)
        block[i] = {200, 50, 50, 255};
    block[5] = {0, 0, 0, 0}; // transparent texel
    std::uint8_t enc[8];
    Rgba8 dec[16];
    encodeBlock(block, TexFormat::DXT1, enc);
    decodeBlock(enc, TexFormat::DXT1, dec);
    EXPECT_EQ(dec[5].a, 0);
    EXPECT_EQ(dec[0].a, 255);
    EXPECT_LE(std::abs(dec[0].r - 200), 8);
}

TEST(Dxt3, ExplicitAlphaQuantizedTo4Bits)
{
    Rgba8 block[16];
    for (int i = 0; i < 16; ++i)
        block[i] = {10, 20, 30, static_cast<std::uint8_t>(i * 17)};
    std::uint8_t enc[16];
    Rgba8 dec[16];
    encodeBlock(block, TexFormat::DXT3, enc);
    decodeBlock(enc, TexFormat::DXT3, dec);
    // i*17 values are exactly representable in 4-bit alpha (0,17,...,255).
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(dec[i].a, i * 17);
}

TEST(Dxt5, SmoothAlphaGradient)
{
    Rgba8 block[16];
    for (int i = 0; i < 16; ++i)
        block[i] = {128, 128, 128, static_cast<std::uint8_t>(40 + i * 10)};
    std::uint8_t enc[16];
    Rgba8 dec[16];
    encodeBlock(block, TexFormat::DXT5, enc);
    decodeBlock(enc, TexFormat::DXT5, dec);
    EXPECT_LE(maxChannelError(block, dec, true), 16);
}

TEST(Dxt5, UniformAlpha)
{
    Rgba8 block[16];
    for (auto &t : block)
        t = {50, 60, 70, 200};
    std::uint8_t enc[16];
    Rgba8 dec[16];
    encodeBlock(block, TexFormat::DXT5, enc);
    decodeBlock(enc, TexFormat::DXT5, dec);
    EXPECT_LE(maxChannelError(block, dec, true), 8);
}

/** Property sweep: random blocks must decode within a quality bound for
 *  every DXT format, and re-encoding a decoded block must be stable. */
class DxtRandom : public ::testing::TestWithParam<TexFormat>
{
};

TEST_P(DxtRandom, RandomSmoothBlocksWithinBound)
{
    TexFormat fmt = GetParam();
    Rng rng(99);
    for (int iter = 0; iter < 200; ++iter) {
        // Smooth-ish block: base colour + small noise (DXT's target
        // content; arbitrary noise has no quality bound).
        // DXT1 alpha below 128 selects punch-through mode, where the
        // colour of transparent texels is undefined; keep alpha opaque
        // enough to stay in four-colour mode for DXT1.
        bool dxt1 = fmt == TexFormat::DXT1;
        Rgba8 base{static_cast<std::uint8_t>(rng.nextBounded(200) + 20),
                   static_cast<std::uint8_t>(rng.nextBounded(200) + 20),
                   static_cast<std::uint8_t>(rng.nextBounded(200) + 20),
                   static_cast<std::uint8_t>(
                       dxt1 ? 255 : rng.nextBounded(100) + 150)};
        Rgba8 block[16];
        for (auto &t : block) {
            auto jitter = [&rng](std::uint8_t v) {
                int j = static_cast<int>(v) +
                        static_cast<int>(rng.nextBounded(21)) - 10;
                return static_cast<std::uint8_t>(std::clamp(j, 0, 255));
            };
            t = {jitter(base.r), jitter(base.g), jitter(base.b),
                 dxt1 ? static_cast<std::uint8_t>(255) : jitter(base.a)};
        }
        std::uint8_t enc[16];
        Rgba8 dec[16];
        encodeBlock(block, fmt, enc);
        decodeBlock(enc, fmt, dec);
        EXPECT_LE(maxChannelError(block, dec, fmt != TexFormat::DXT1), 32);
    }
}

TEST_P(DxtRandom, ReencodeIsStable)
{
    TexFormat fmt = GetParam();
    Rng rng(7);
    Rgba8 block[16];
    for (auto &t : block) {
        t = {static_cast<std::uint8_t>(rng.nextBounded(256)),
             static_cast<std::uint8_t>(rng.nextBounded(256)),
             static_cast<std::uint8_t>(rng.nextBounded(256)), 255};
    }
    std::uint8_t enc[16];
    Rgba8 dec[16];
    encodeBlock(block, fmt, enc);
    decodeBlock(enc, fmt, dec);
    std::uint8_t enc2[16];
    Rgba8 dec2[16];
    encodeBlock(dec, fmt, enc2);
    decodeBlock(enc2, fmt, dec2);
    // A decode-encode-decode round trip must not drift further.
    EXPECT_LE(maxChannelError(dec, dec2, fmt != TexFormat::DXT1), 8);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, DxtRandom,
                         ::testing::Values(TexFormat::DXT1,
                                           TexFormat::DXT3,
                                           TexFormat::DXT5));

namespace {

/** Every texel of roundTripBlock() equals decodeBlock(encodeBlock()). */
void
expectRoundTripMatches(const Rgba8 block[16], TexFormat fmt,
                       const std::string &what)
{
    std::uint8_t enc[16];
    Rgba8 expected[16], fused[16];
    encodeBlock(block, fmt, enc);
    decodeBlock(enc, fmt, expected);
    roundTripBlock(block, fmt, fused);
    int i = 0;
    while (i < 16 && fused[i] == expected[i])
        ++i;
    EXPECT_EQ(i, 16) << what << " " << formatName(fmt)
                     << ": first differing texel";
}

} // namespace

TEST(Dxt, RoundTripEqualsEncodeThenDecode)
{
    const TexFormat formats[] = {TexFormat::DXT1, TexFormat::DXT3,
                                 TexFormat::DXT5};
    Rng rng(2024);
    Rgba8 block[16];
    for (TexFormat fmt : formats) {
        // Arbitrary texels, mixed alpha included (DXT1 punch-through).
        for (int iter = 0; iter < 500; ++iter) {
            for (auto &t : block)
                t = Rgba8::fromPacked(rng.nextU32());
            expectRoundTripMatches(block, fmt, "random");
        }
        // Smooth blocks, opaque and with alpha on both sides of 128.
        for (int iter = 0; iter < 500; ++iter) {
            std::uint32_t base = rng.nextU32();
            for (auto &t : block) {
                Rgba8 c = Rgba8::fromPacked(base);
                auto jitter = [&rng](std::uint8_t v) {
                    int j = static_cast<int>(v) +
                            static_cast<int>(rng.nextBounded(9)) - 4;
                    return static_cast<std::uint8_t>(std::clamp(j, 0, 255));
                };
                t = {jitter(c.r), jitter(c.g), jitter(c.b),
                     iter % 2 ? jitter(c.a) : std::uint8_t{255}};
            }
            expectRoundTripMatches(block, fmt, "smooth");
        }
        // Uniform white takes the c0 == 0xffff widening branch; uniform
        // black the other one.
        for (auto &t : block)
            t = {255, 255, 255, 255};
        expectRoundTripMatches(block, fmt, "white");
        for (auto &t : block)
            t = {0, 0, 0, 255};
        expectRoundTripMatches(block, fmt, "black");
        // Distinct colours of equal luminance (2r + 5g + b = 10): both
        // endpoints come from the first texel.
        const Rgba8 equal_lum[3] = {{5, 0, 0, 255}, {0, 2, 0, 255},
                                    {0, 0, 10, 255}};
        for (int i = 0; i < 16; ++i)
            block[i] = equal_lum[(i * 7) % 3];
        expectRoundTripMatches(block, fmt, "equal-luminance");
        // Ties at both extremes beside other colours.
        for (int i = 0; i < 16; ++i) {
            block[i] = i % 4 == 0   ? Rgba8{100, 0, 0, 255}
                       : i % 4 == 1 ? Rgba8{0, 40, 0, 255}
                       : i % 4 == 2 ? Rgba8{0, 0, 3, 255}
                                    : Rgba8{1, 0, 1, 255};
        }
        expectRoundTripMatches(block, fmt, "tied-extremes");
        // Punch-through: opaque and transparent texels mixed.
        for (int i = 0; i < 16; ++i) {
            block[i] = {static_cast<std::uint8_t>(16 * i),
                        static_cast<std::uint8_t>(200 - 8 * i), 90,
                        static_cast<std::uint8_t>(i % 3 ? 255 : 40)};
        }
        expectRoundTripMatches(block, fmt, "punch-through");
        // Uniform alpha 255 and 0: the two DXT5 alpha widening branches.
        for (int i = 0; i < 16; ++i) {
            block[i] = {static_cast<std::uint8_t>(10 * i), 70,
                        static_cast<std::uint8_t>(250 - 9 * i), 255};
        }
        expectRoundTripMatches(block, fmt, "alpha-255");
        for (auto &t : block)
            t.a = 0;
        expectRoundTripMatches(block, fmt, "alpha-0");
    }
}
