/**
 * @file
 * Unit tests for mip-mapped textures: level geometry, procedural
 * constructors, memory layout and address disjointness.
 */

#include <algorithm>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "memory/controller.hh"
#include "texture/texture.hh"

using namespace wc3d;
using namespace wc3d::tex;

TEST(Texture, MipChainGeometry)
{
    Texture2D t = Texture2D::checkerboard("chk", 64, 8, {255, 0, 0, 255},
                                          {0, 0, 255, 255},
                                          TexFormat::RGBA8);
    EXPECT_EQ(t.width(), 64);
    EXPECT_EQ(t.height(), 64);
    EXPECT_EQ(t.levels(), 7); // 64..1
    EXPECT_EQ(t.levelWidth(0), 64);
    EXPECT_EQ(t.levelWidth(1), 32);
    EXPECT_EQ(t.levelWidth(6), 1);
    EXPECT_EQ(t.levelBlocksX(0), 16);
    EXPECT_EQ(t.levelBlocksX(6), 1); // padded to one block
}

TEST(Texture, CheckerboardContent)
{
    Texture2D t = Texture2D::checkerboard("chk", 16, 4, {255, 0, 0, 255},
                                          {0, 0, 255, 255},
                                          TexFormat::RGBA8);
    EXPECT_EQ(t.texel(0, 0, 0).r, 255);
    EXPECT_EQ(t.texel(0, 4, 0).b, 255);
    EXPECT_EQ(t.texel(0, 4, 4).r, 255);
}

TEST(Texture, TexelClampsOutOfRange)
{
    Texture2D t = Texture2D::gradient("g", 8, {0, 0, 0, 255},
                                      {255, 255, 255, 255},
                                      TexFormat::RGBA8);
    EXPECT_EQ(t.texel(0, -5, 0).r, t.texel(0, 0, 0).r);
    EXPECT_EQ(t.texel(0, 100, 7).r, t.texel(0, 7, 7).r);
}

TEST(Texture, GradientMonotonic)
{
    Texture2D t = Texture2D::gradient("g", 32, {0, 0, 0, 255},
                                      {255, 255, 255, 255},
                                      TexFormat::RGBA8);
    EXPECT_LT(t.texel(0, 0, 0).r, t.texel(0, 0, 16).r);
    EXPECT_LT(t.texel(0, 0, 16).r, t.texel(0, 0, 31).r);
}

TEST(Texture, StorageBytesReflectCompression)
{
    Texture2D raw = Texture2D::noise("n", 64, 1, TexFormat::RGBA8);
    Texture2D dxt1 = Texture2D::noise("n", 64, 1, TexFormat::DXT1);
    Texture2D dxt5 = Texture2D::noise("n", 64, 1, TexFormat::DXT5);
    EXPECT_EQ(raw.decodedBytes(), raw.storageBytes());
    EXPECT_EQ(dxt1.storageBytes() * 8, dxt1.decodedBytes());
    EXPECT_EQ(dxt5.storageBytes() * 4, dxt5.decodedBytes());
}

TEST(Texture, DxtRoundTripPreservesSmoothContent)
{
    // The noise texture is smooth; DXT1 should keep it recognisable.
    Texture2D raw = Texture2D::noise("n", 64, 42, TexFormat::RGBA8);
    Texture2D dxt = Texture2D::noise("n", 64, 42, TexFormat::DXT1);
    double err = 0.0;
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 64; ++x) {
            err += std::abs(raw.texel(0, x, y).r - dxt.texel(0, x, y).r);
        }
    }
    EXPECT_LT(err / (64.0 * 64.0), 12.0); // small mean error
}

TEST(Texture, MipLevelsAverageContent)
{
    Texture2D t = Texture2D::checkerboard("chk", 64, 1, {0, 0, 0, 255},
                                          {255, 255, 255, 255},
                                          TexFormat::RGBA8);
    // 1-texel checker averages to mid-grey one level down.
    Rgba8 top = t.texel(t.levels() - 1, 0, 0);
    EXPECT_NEAR(top.r, 127, 3);
}

TEST(Texture, MemoryBindingAddresses)
{
    memsys::MemoryController mc;
    Texture2D t = Texture2D::noise("n", 32, 3, TexFormat::DXT1);
    EXPECT_FALSE(t.memoryBound());
    t.bindMemory(mc);
    EXPECT_TRUE(t.memoryBound());

    // Virtual: 64 bytes per block; consecutive blocks are contiguous.
    std::uint64_t v00 = t.blockVirtualAddress(0, 0, 0);
    std::uint64_t v10 = t.blockVirtualAddress(0, 1, 0);
    EXPECT_EQ(v10 - v00, 64u);

    // Memory: DXT1 = 8 bytes per block.
    std::uint64_t m00 = t.blockMemAddress(0, 0, 0);
    std::uint64_t m10 = t.blockMemAddress(0, 1, 0);
    EXPECT_EQ(m10 - m00, 8u);

    // Levels do not overlap.
    std::uint64_t l0_last = t.blockVirtualAddress(
        0, t.levelBlocksX(0) - 1, t.levelBlocksY(0) - 1);
    std::uint64_t l1_first = t.blockVirtualAddress(1, 0, 0);
    EXPECT_GE(l1_first, l0_last + 64);
}

TEST(Texture, TwoTexturesDisjointAddresses)
{
    memsys::MemoryController mc;
    Texture2D a = Texture2D::noise("a", 32, 1, TexFormat::DXT1);
    Texture2D b = Texture2D::noise("b", 32, 2, TexFormat::DXT1);
    a.bindMemory(mc);
    b.bindMemory(mc);
    std::uint64_t a_last = a.blockMemAddress(
        a.levels() - 1, 0, 0);
    EXPECT_NE(a.blockMemAddress(0, 0, 0), b.blockMemAddress(0, 0, 0));
    EXPECT_LT(a_last, b.blockMemAddress(0, 0, 0) + b.storageBytes());
}

TEST(Texture, NoiseDeterministicBySeed)
{
    Texture2D a = Texture2D::noise("a", 32, 5, TexFormat::RGBA8);
    Texture2D b = Texture2D::noise("b", 32, 5, TexFormat::RGBA8);
    Texture2D c = Texture2D::noise("c", 32, 6, TexFormat::RGBA8);
    EXPECT_EQ(a.texel(0, 7, 9).r, b.texel(0, 7, 9).r);
    bool differs = false;
    for (int i = 0; i < 32 && !differs; ++i)
        differs = a.texel(0, i, i).r != c.texel(0, i, i).r;
    EXPECT_TRUE(differs);
}

namespace {

/** FNV-1a over every level's decoded texels, then storageBytes(). */
std::uint64_t
contentHash(const Texture2D &t)
{
    std::uint64_t h = 14695981039346656037ull;
    auto mix = [&h](std::uint8_t byte) {
        h ^= byte;
        h *= 1099511628211ull;
    };
    for (int l = 0; l < t.levels(); ++l) {
        Texture2D::LevelView v = t.levelView(l);
        for (int i = 0; i < v.width * v.height; ++i) {
            mix(v.texels[i].r);
            mix(v.texels[i].g);
            mix(v.texels[i].b);
            mix(v.texels[i].a);
        }
    }
    for (int i = 0; i < 8; ++i)
        mix(static_cast<std::uint8_t>(t.storageBytes() >> (8 * i)));
    return h;
}

} // namespace

// Locks the generated texture bytes (every level, after the DXT round
// trip) so a faster generator or codec must be bit-exact. The hashes
// were taken from the per-pixel generator and the separate
// encode-then-decode round trip.
TEST(Texture, ContentPinned)
{
    const char *kinds[] = {"checker", "noise", "noise_alpha", "gradient"};
    const TexFormat formats[] = {TexFormat::RGBA8, TexFormat::DXT1,
                                 TexFormat::DXT3, TexFormat::DXT5};
    const int sizes[] = {1, 2, 4, 64, 256, 512};
    const std::uint64_t expected[4][4][6] = {
        { // checker
         {0x90282d1ee18d8f78ull, 0xe43ada1f7380e36eull,
          0x2424d76bd69eb44eull, 0x363f65c13791c995ull,
          0x156b9977f1b6ea78ull, 0xb6ce9fc3defa86e8ull}, // RGBA8
         {0xa326dcad1f942aaaull, 0x5dde27a8f0b670d7ull,
          0x8d1274677a0d74abull, 0xb6cd9f1356a30929ull,
          0xc27a8043e1ef9209ull, 0xdcfb1cbdefef1e7bull}, // DXT1
         {0x9afd14f5770e7bb2ull, 0x132a0b0fa0c0402cull,
          0xafcd606157767b7cull, 0x9d7dd26dab6fcafbull,
          0x797075697f584e02ull, 0xd3882fd2b54f66e6ull}, // DXT3
         {0x9afd14f5770e7bb2ull, 0x645ec87717ba17c5ull,
          0xbdd3c482a6d098d9ull, 0xffb42899a34fe13aull,
          0x618659389053b0b3ull, 0xef07e3963696c997ull}, // DXT5
        },
        { // noise
         {0x864f70d7e2537585ull, 0x1684de8c8b83c0c7ull,
          0x7c0ef440fd7baa94ull, 0xb083b1cfaf58b520ull,
          0xf2ff3b51b45660b0ull, 0xc413441cc441b49eull}, // RGBA8
         {0xa221f21763b9cb06ull, 0x78542bb1db7404f0ull,
          0xe533cf43090f8e5aull, 0x3aa2f45f3aecfa05ull,
          0x2147120f4e25b805ull, 0x3f7c0305cf333891ull}, // DXT1
         {0x89a49af06a28be1eull, 0xa94ed9ffce961ec0ull,
          0xccb6781c0f7e8172ull, 0x3919e5ef286895a8ull,
          0xcf687b0d66bdcf01ull, 0x099ba411ed24ff67ull}, // DXT3
         {0x89a49af06a28be1eull, 0xa94ed9ffce961ec0ull,
          0xccb6781c0f7e8172ull, 0x3919e5ef286895a8ull,
          0xcf687b0d66bdcf01ull, 0x099ba411ed24ff67ull}, // DXT5
        },
        { // noise_alpha
         {0x032299f3d25ed3d9ull, 0x76d2bf2e39c69808ull,
          0xf796ccc8bc30387bull, 0xc4c1e5cdd6e5d65cull,
          0xbed822bca28dedc4ull, 0x7aa65b7f6ab737abull}, // RGBA8
         {0x4c3de922748ab59dull, 0xbf5884e446943f15ull,
          0x01f698c924245270ull, 0xa35321f70a09c1e7ull,
          0x8329e9c421fa7fa2ull, 0xdac319bc7c287ec8ull}, // DXT1
         {0xa318655023fc77ecull, 0xe423538463df2bc6ull,
          0xf17e369e5bf81519ull, 0x08891cb26efc7b96ull,
          0x9797c51d2e60704cull, 0x97121fe10887494full}, // DXT3
         {0x653fbaf7f20a14aaull, 0x5a6bfe1e2b568ca5ull,
          0x006eef57474ae96bull, 0x3b536351757b59bfull,
          0x4745ca724a8a7401ull, 0x1163d2a8a3a42404ull}, // DXT5
        },
        { // gradient
         {0x90282d1ee18d8f78ull, 0xe8924a47f0838636ull,
          0x113687775f608a32ull, 0xb4593b06b9462126ull,
          0x6ebffc743a091d49ull, 0x1d55bb7c0e396c69ull}, // RGBA8
         {0xa326dcad1f942aaaull, 0xf3d83f201c5f8b37ull,
          0xb2c763ba572d3f8full, 0xee8b25463d280b5dull,
          0x603fbb40497246a3ull, 0x0ccffad8e72a4b11ull}, // DXT1
         {0x9afd14f5770e7bb2ull, 0x594bb71ecf64bf04ull,
          0x635d409a554d41e8ull, 0x21e917daebf36957ull,
          0x0677026d201c02c8ull, 0xaa8751551791b734ull}, // DXT3
         {0x9afd14f5770e7bb2ull, 0x92343ef3b9e379ddull,
          0x0a4bec41a3d97f81ull, 0xebac95970036f837ull,
          0x5fd8f91cc77ece0bull, 0xc500f0bf4d5ff96full}, // DXT5
        },
    };
    const Rgba8 a{230, 120, 30, 255}, b{20, 60, 200, 90};
    for (int k = 0; k < 4; ++k) {
        for (int f = 0; f < 4; ++f) {
            for (int s = 0; s < 6; ++s) {
                int size = sizes[s];
                std::string kind = kinds[k];
                Texture2D t =
                    kind == "checker"
                        ? Texture2D::checkerboard("t", size,
                                                  std::max(1, size / 8), a,
                                                  b, formats[f])
                    : kind == "gradient"
                        ? Texture2D::gradient("t", size, a, b, formats[f])
                        : Texture2D::noise("t", size, 17 + size, formats[f],
                                           kind == "noise_alpha");
                EXPECT_EQ(contentHash(t), expected[k][f][s])
                    << kind << "/" << formatName(formats[f]) << "/"
                    << size;
            }
        }
    }

    // Non-square random base images (mixed alpha, so DXT1 takes the
    // punch-through path) cover the edge clamps of partial blocks and
    // of downsampling a level that is one texel high or wide.
    const int dims[2][2] = {{16, 4}, {4, 16}};
    const std::uint64_t expected_rect[2][4] = {
        {0x6c26e0675e47b0d0ull, 0x3c3ac0c1813c7ecdull,
         0x33aeb9ea68e00516ull, 0xcc71711e91029eb7ull}, // 16x4
        {0xf8838fd0136e8c88ull, 0x4b7a5b5444ea7629ull,
         0x8063ec15b407e2a7ull, 0x04237aaf7bf4d053ull}, // 4x16
    };
    for (int d = 0; d < 2; ++d) {
        int w = dims[d][0], h = dims[d][1];
        Rng rng(static_cast<std::uint64_t>(w * 100 + h));
        Image img(w, h);
        for (Rgba8 &p : img.pixels())
            p = Rgba8::fromPacked(rng.nextU32());
        for (int f = 0; f < 4; ++f) {
            Texture2D t("t", img, formats[f]);
            EXPECT_EQ(contentHash(t), expected_rect[d][f])
                << w << "x" << h << "/" << formatName(formats[f]);
        }
    }
}
