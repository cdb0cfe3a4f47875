/**
 * @file
 * Test-only reference for tex::Sampler: the straightforward sampler.
 * Every fetch re-resolves the filter mode and mip level from the LOD,
 * wraps coordinates with a modulo, and notes each block in a per-quad
 * set that is searched linearly. The production sampler must reproduce
 * its colour bits, block stream and statistics exactly; the
 * differential test in test_sampler.cc checks that quad by quad.
 */

#ifndef WC3D_TESTS_SAMPLER_REFERENCE_HH
#define WC3D_TESTS_SAMPLER_REFERENCE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "texture/sampler.hh"

namespace wc3d::test {

class ReferenceSampler
{
  public:
    void setListener(tex::TexelAccessListener *listener)
    { _listener = listener; }

    const tex::SampleStats &stats() const { return _stats; }

    Vec4
    sampleLod(const tex::Texture2D &texture, const tex::SamplerState &state,
              Vec2 uv, float lod)
    {
        ++_stats.requests;
        Vec4 r = filteredFetch(texture, state, uv, lod);
        flushBlockSet(texture);
        return r;
    }

    void
    sampleQuad(const tex::Texture2D &texture, const tex::SamplerState &state,
               const Vec4 coords[4], float lod_bias, Vec4 out[4])
    {
        float w = static_cast<float>(texture.width());
        float h = static_cast<float>(texture.height());
        Vec2 ddx{(coords[1].x - coords[0].x) * w,
                 (coords[1].y - coords[0].y) * h};
        Vec2 ddy{(coords[2].x - coords[0].x) * w,
                 (coords[2].y - coords[0].y) * h};
        float lx = ddx.length();
        float ly = ddy.length();

        float bias = state.lodBias + lod_bias;

        int probes = 1;
        Vec2 probe_step{0.0f, 0.0f};
        float lod;
        if (state.filter == tex::TexFilter::Anisotropic &&
            state.maxAniso > 1) {
            float major = std::max(lx, ly);
            float minor = std::min(lx, ly);
            if (minor < 1e-6f)
                minor = std::min(major, 1e-6f) > 0.0f ? 1e-6f : major;
            float ratio = 1.0f;
            if (minor > 0.0f)
                ratio = std::min(major / minor,
                                 static_cast<float>(state.maxAniso));
            probes = std::max(1, static_cast<int>(std::ceil(ratio - 1e-4f)));
            _stats.anisoRatioSum += probes;
            ++_stats.anisoRequests;
            float effective = probes > 1 ? major / static_cast<float>(probes)
                                         : major;
            float footprint = std::max(minor, effective);
            lod = footprint > 0.0f ? std::log2(footprint) : 0.0f;
            if (probes > 1) {
                Vec2 major_uv = lx >= ly
                    ? Vec2{coords[1].x - coords[0].x,
                           coords[1].y - coords[0].y}
                    : Vec2{coords[2].x - coords[0].x,
                           coords[2].y - coords[0].y};
                probe_step = major_uv;
            }
        } else {
            float footprint = std::max(lx, ly);
            lod = footprint > 0.0f ? std::log2(footprint) : 0.0f;
        }
        lod += bias;

        for (int lane = 0; lane < 4; ++lane) {
            ++_stats.requests;
            Vec2 uv{coords[lane].x, coords[lane].y};
            if (probes == 1) {
                out[lane] = filteredFetch(texture, state, uv, lod);
            } else {
                Vec4 acc{0, 0, 0, 0};
                for (int p = 0; p < probes; ++p) {
                    float t = (static_cast<float>(p) + 0.5f) /
                              static_cast<float>(probes) - 0.5f;
                    Vec2 puv{uv.x + probe_step.x * t,
                             uv.y + probe_step.y * t};
                    acc = acc + filteredFetch(texture, state, puv, lod);
                }
                out[lane] = acc / static_cast<float>(probes);
            }
        }
        flushBlockSet(texture);
    }

  private:
    static int
    wrapCoord(int c, int size, tex::TexWrap wrap)
    {
        if (wrap == tex::TexWrap::Repeat) {
            c %= size;
            if (c < 0)
                c += size;
            return c;
        }
        return std::clamp(c, 0, size - 1);
    }

    static Vec4
    toVec4(Rgba8 c)
    {
        return {static_cast<float>(c.r) * (1.0f / 255.0f),
                static_cast<float>(c.g) * (1.0f / 255.0f),
                static_cast<float>(c.b) * (1.0f / 255.0f),
                static_cast<float>(c.a) * (1.0f / 255.0f)};
    }

    void
    noteBlock(const tex::Texture2D &texture, int level, int bx, int by,
              int refs)
    {
        std::uint64_t key = (static_cast<std::uint64_t>(level) << 48) |
                            (static_cast<std::uint64_t>(by) << 24) |
                            static_cast<std::uint64_t>(bx);
        for (int i = 0; i < _blockCount; ++i) {
            if (_blockSet[i] == key) {
                _blockRefs[i] += static_cast<std::uint32_t>(refs);
                return;
            }
        }
        if (_blockCount < kMaxQuadBlocks) {
            _blockSet[_blockCount] = key;
            _blockRefs[_blockCount] = static_cast<std::uint32_t>(refs);
            ++_blockCount;
        } else if (_listener) {
            for (int i = 0; i < refs; ++i)
                _listener->blockAccess(texture, level, bx, by, 1);
        }
    }

    void
    noteFootprint(const tex::Texture2D &texture, int level, int xa, int xb,
                  int ya, int yb)
    {
        int bxa = xa / tex::kBlockDim;
        int bxb = xb / tex::kBlockDim;
        int bya = ya / tex::kBlockDim;
        int byb = yb / tex::kBlockDim;
        if (_blockCount > kMaxQuadBlocks - 4) {
            noteBlock(texture, level, bxa, bya, 1);
            noteBlock(texture, level, bxb, bya, 1);
            noteBlock(texture, level, bxa, byb, 1);
            noteBlock(texture, level, bxb, byb, 1);
            return;
        }
        int taps_x = bxa == bxb ? 2 : 1;
        int taps_y = bya == byb ? 2 : 1;
        noteBlock(texture, level, bxa, bya, taps_x * taps_y);
        if (bxb != bxa)
            noteBlock(texture, level, bxb, bya, taps_y);
        if (byb != bya) {
            noteBlock(texture, level, bxa, byb, taps_x);
            if (bxb != bxa)
                noteBlock(texture, level, bxb, byb, 1);
        }
    }

    void
    flushBlockSet(const tex::Texture2D &texture)
    {
        if (_listener) {
            for (int i = 0; i < _blockCount; ++i) {
                std::uint64_t key = _blockSet[i];
                int level = static_cast<int>(key >> 48);
                int by = static_cast<int>((key >> 24) & 0xffffff);
                int bx = static_cast<int>(key & 0xffffff);
                _listener->blockAccess(texture, level, bx, by,
                                       static_cast<int>(_blockRefs[i]));
            }
        }
        _blockCount = 0;
    }

    Vec4
    nearestFetch(const tex::Texture2D &texture, tex::TexWrap wrap, int level,
                 Vec2 uv)
    {
        int w = texture.levelWidth(level);
        int h = texture.levelHeight(level);
        int x = wrapCoord(static_cast<int>(std::floor(uv.x * w)), w, wrap);
        int y = wrapCoord(static_cast<int>(std::floor(uv.y * h)), h, wrap);
        ++_stats.texelReads;
        noteBlock(texture, level, x / tex::kBlockDim, y / tex::kBlockDim, 1);
        return toVec4(texture.texel(level, x, y));
    }

    Vec4
    bilinearFetch(const tex::Texture2D &texture, tex::TexWrap wrap,
                  int level, Vec2 uv)
    {
        int w = texture.levelWidth(level);
        int h = texture.levelHeight(level);
        float fx = uv.x * w - 0.5f;
        float fy = uv.y * h - 0.5f;
        int x0 = static_cast<int>(std::floor(fx));
        int y0 = static_cast<int>(std::floor(fy));
        float tx = fx - x0;
        float ty = fy - y0;
        int xa = wrapCoord(x0, w, wrap);
        int xb = wrapCoord(x0 + 1, w, wrap);
        int ya = wrapCoord(y0, h, wrap);
        int yb = wrapCoord(y0 + 1, h, wrap);

        ++_stats.bilinearSamples;
        _stats.texelReads += 4;
        noteFootprint(texture, level, xa, xb, ya, yb);

        Vec4 c00 = toVec4(texture.texel(level, xa, ya));
        Vec4 c10 = toVec4(texture.texel(level, xb, ya));
        Vec4 c01 = toVec4(texture.texel(level, xa, yb));
        Vec4 c11 = toVec4(texture.texel(level, xb, yb));
        return lerp(lerp(c00, c10, tx), lerp(c01, c11, tx), ty);
    }

    Vec4
    filteredFetch(const tex::Texture2D &texture,
                  const tex::SamplerState &state, Vec2 uv, float lod)
    {
        int max_level = texture.levels() - 1;
        switch (state.filter) {
          case tex::TexFilter::Nearest: {
            int level = std::clamp(static_cast<int>(std::lround(lod)), 0,
                                   max_level);
            return nearestFetch(texture, state.wrap, level, uv);
          }
          case tex::TexFilter::Bilinear: {
            int level = std::clamp(static_cast<int>(std::lround(lod)), 0,
                                   max_level);
            return bilinearFetch(texture, state.wrap, level, uv);
          }
          case tex::TexFilter::Trilinear:
          case tex::TexFilter::Anisotropic:
            break;
        }
        if (lod <= 0.0f)
            return bilinearFetch(texture, state.wrap, 0, uv);
        if (lod >= static_cast<float>(max_level))
            return bilinearFetch(texture, state.wrap, max_level, uv);
        int l0 = static_cast<int>(std::floor(lod));
        float frac = lod - static_cast<float>(l0);
        Vec4 a = bilinearFetch(texture, state.wrap, l0, uv);
        if (frac < 1e-4f)
            return a;
        Vec4 b = bilinearFetch(texture, state.wrap, l0 + 1, uv);
        return lerp(a, b, frac);
    }

    static constexpr int kMaxQuadBlocks = 128;

    tex::TexelAccessListener *_listener = nullptr;
    tex::SampleStats _stats;
    std::uint64_t _blockSet[kMaxQuadBlocks];
    std::uint32_t _blockRefs[kMaxQuadBlocks];
    int _blockCount = 0;
};

} // namespace wc3d::test

#endif // WC3D_TESTS_SAMPLER_REFERENCE_HH
