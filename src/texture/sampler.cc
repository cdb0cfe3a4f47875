#include "texture/sampler.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/log.hh"

// The per-tap helpers below are each called from a few sites in the
// lane and probe loops; inlined there, a tap's texel loads, filtering
// and block noting stay in registers. (This file uses GCC/Clang vector
// extensions, so the attribute is always available.)
#define WC3D_TAP_INLINE inline __attribute__((always_inline))

namespace wc3d::tex {

namespace {

/** Texture sizes are powers of two (Texture2D asserts it), so Repeat
 *  is a mask, also for negative coordinates. */
int
wrapCoord(int c, int size, TexWrap wrap)
{
    if (wrap == TexWrap::Repeat)
        return c & (size - 1);
    return std::clamp(c, 0, size - 1);
}

/** static_cast<int>(std::floor(v)) for v in int range, without the
 *  floor: truncate, then step down when truncation rounded up. Exact:
 *  below 2^24 the truncated int converts back to float exactly, and
 *  above 2^23 v is integral, so nothing was rounded. */
int
floorToInt(float v)
{
    int i = static_cast<int>(v);
    return i - (v < static_cast<float>(i));
}

// Four channels at a time. Each lane does exactly the IEEE operations
// the scalar code does (unorm8ToFloat, lerp), in the same order.
typedef float Float4 __attribute__((vector_size(16)));
typedef std::int32_t Int4 __attribute__((vector_size(16)));
typedef std::int16_t Short8 __attribute__((vector_size(16)));
typedef std::uint8_t Byte16 __attribute__((vector_size(16)));

/** unorm8ToFloat of r, g, b, a: zero-extend the bytes to 32 bits
 *  (two interleaves with zero), convert exactly, scale by 1/255. */
Float4
toFloat4(Rgba8 c)
{
    static_assert(std::endian::native == std::endian::little,
                  "byte 0 of the packed texel must be r");
    Int4 packed = {static_cast<std::int32_t>(c.packed()), 0, 0, 0};
    Short8 s = (Short8)__builtin_shufflevector((Byte16)packed, Byte16{}, 0,
                                               16, 1, 17, 2, 18, 3, 19, 4,
                                               20, 5, 21, 6, 22, 7, 23);
    Int4 i = (Int4)__builtin_shufflevector(s, Short8{}, 0, 8, 1, 9, 2, 10,
                                           3, 11);
    return __builtin_convertvector(i, Float4) * (1.0f / 255.0f);
}

/** lerp(Vec4, Vec4, float), four-wide. */
Float4
lerp4(Float4 a, Float4 b, float t)
{
    return a + (b - a) * t;
}

Vec4
toVec4(Float4 v)
{
    return {v[0], v[1], v[2], v[3]};
}

/** Block-set key of block (bx, by) at @p level. */
std::uint64_t
blockKey(int level, int bx, int by)
{
    return (static_cast<std::uint64_t>(level) << 48) |
           (static_cast<std::uint64_t>(by) << 24) |
           static_cast<std::uint64_t>(bx);
}

/** Report @p refs taps on the block a set key names. */
void
reportBlock(TexelAccessListener &listener, const Texture2D &texture,
            std::uint64_t key, int refs)
{
    listener.blockAccess(texture, static_cast<int>(key >> 48),
                         static_cast<int>(key & 0xffffff),
                         static_cast<int>((key >> 24) & 0xffffff), refs);
}

/** Slot-table home of a block key (Fibonacci hashing). */
unsigned
homeSlot(std::uint64_t key)
{
    return static_cast<unsigned>((key * 0x9e3779b97f4a7c15ull) >> 56);
}

} // namespace

WC3D_TAP_INLINE void
Sampler::noteBlock(const Texture2D &texture, int level, int bx, int by,
                   int refs)
{
    std::uint64_t key = blockKey(level, bx, by);
    unsigned slot = homeSlot(key);
    while (int entry = _slots[slot]) {
        if (_blockSet[entry - 1] == key) {
            _blockRefs[entry - 1] += static_cast<std::uint32_t>(refs);
            return;
        }
        slot = (slot + 1) & (kBlockSlots - 1);
    }
    addBlock(texture, key, slot, refs);
}

void
Sampler::addBlock(const Texture2D &texture, std::uint64_t key,
                  unsigned slot, int refs)
{
    static_assert(kBlockSlots == 256 && kMaxQuadBlocks < kBlockSlots,
                  "homeSlot yields 8 bits; a probe needs an empty slot");
    if (_blockCount < kMaxQuadBlocks) {
        _slots[slot] = static_cast<std::uint8_t>(_blockCount + 1);
        _blockSlot[_blockCount] = static_cast<std::uint8_t>(slot);
        _blockSet[_blockCount] = key;
        _blockRefs[_blockCount] = static_cast<std::uint32_t>(refs);
        ++_blockCount;
    } else if (_listener) {
        // Overflow: forward immediately rather than losing the access.
        for (int i = 0; i < refs; ++i)
            reportBlock(*_listener, texture, key, 1);
    }
}

WC3D_TAP_INLINE void
Sampler::noteFootprint(const Texture2D &texture, int level, int xa, int xb,
                       int ya, int yb)
{
    int bxa = xa / kBlockDim;
    int bxb = xb / kBlockDim;
    int bya = ya / kBlockDim;
    int byb = yb / kBlockDim;
    if (_blockCount > kMaxQuadBlocks - 4) {
        // The set may overflow: note tap by tap, in tap order, so each
        // block that no longer fits is forwarded one tap at a time.
        noteBlock(texture, level, bxa, bya, 1);
        noteBlock(texture, level, bxb, bya, 1);
        noteBlock(texture, level, bxa, byb, 1);
        noteBlock(texture, level, bxb, byb, 1);
        return;
    }
    // Each distinct block once, in first-touch order, with its taps.
    int taps_x = bxa == bxb ? 2 : 1; // taps per block along a row
    int taps_y = bya == byb ? 2 : 1; // taps per block along a column
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
Sampler::flushBlockSet(const Texture2D &texture)
{
    for (int i = 0; i < _blockCount; ++i) {
        _slots[_blockSlot[i]] = 0;
        if (_listener)
            reportBlock(*_listener, texture, _blockSet[i],
                        static_cast<int>(_blockRefs[i]));
    }
    _blockCount = 0;
}

Sampler::FilterPlan
Sampler::resolvePlan(const Texture2D &texture, const SamplerState &state,
                     float lod)
{
    FilterPlan plan{&texture, state.wrap, false, false, 0, 0.0f, {}, {}};
    int max_level = texture.levels() - 1;
    switch (state.filter) {
      case TexFilter::Nearest:
      case TexFilter::Bilinear:
        plan.nearest = state.filter == TexFilter::Nearest;
        plan.l0 = std::clamp(static_cast<int>(std::lround(lod)), 0,
                             max_level);
        break;
      case TexFilter::Trilinear:
      case TexFilter::Anisotropic:
        if (lod <= 0.0f) {
            plan.l0 = 0;
        } else if (lod >= static_cast<float>(max_level)) {
            plan.l0 = max_level;
        } else {
            plan.l0 = static_cast<int>(std::floor(lod));
            float frac = lod - static_cast<float>(plan.l0);
            if (!(frac < 1e-4f)) {
                plan.blend = true;
                plan.frac = frac;
                plan.v1 = texture.levelView(plan.l0 + 1);
            }
        }
        break;
      default:
        panic("unreachable filter mode");
    }
    plan.v0 = texture.levelView(plan.l0);
    return plan;
}

WC3D_TAP_INLINE Vec4
Sampler::nearestFetch(const FilterPlan &plan, Vec2 uv)
{
    const Texture2D::LevelView &view = plan.v0;
    int x = wrapCoord(floorToInt(uv.x * view.width),
                      view.width, plan.wrap);
    int y = wrapCoord(floorToInt(uv.y * view.height),
                      view.height, plan.wrap);
    noteBlock(*plan.texture, plan.l0, x / kBlockDim, y / kBlockDim, 1);
    return toVec4(toFloat4(view.at(x, y)));
}

WC3D_TAP_INLINE Vec4
Sampler::bilinearFetch(const FilterPlan &plan,
                       const Texture2D::LevelView &view, int level, Vec2 uv)
{
    int w = view.width;
    int h = view.height;
    float fx = uv.x * w - 0.5f;
    float fy = uv.y * h - 0.5f;
    int x0 = floorToInt(fx);
    int y0 = floorToInt(fy);
    float tx = fx - x0;
    float ty = fy - y0;
    int xa = wrapCoord(x0, w, plan.wrap);
    int xb = wrapCoord(x0 + 1, w, plan.wrap);
    int ya = wrapCoord(y0, h, plan.wrap);
    int yb = wrapCoord(y0 + 1, h, plan.wrap);

    noteFootprint(*plan.texture, level, xa, xb, ya, yb);

    Float4 c00 = toFloat4(view.at(xa, ya));
    Float4 c10 = toFloat4(view.at(xb, ya));
    Float4 c01 = toFloat4(view.at(xa, yb));
    Float4 c11 = toFloat4(view.at(xb, yb));
    return toVec4(lerp4(lerp4(c00, c10, tx), lerp4(c01, c11, tx), ty));
}

WC3D_TAP_INLINE Vec4
Sampler::fetch(const FilterPlan &plan, Vec2 uv)
{
    if (plan.nearest)
        return nearestFetch(plan, uv);
    Vec4 a = bilinearFetch(plan, plan.v0, plan.l0, uv);
    if (!plan.blend)
        return a;
    Vec4 b = bilinearFetch(plan, plan.v1, plan.l0 + 1, uv);
    return lerp(a, b, plan.frac);
}

Vec4
Sampler::sampleLod(const Texture2D &texture, const SamplerState &state,
                   Vec2 uv, float lod)
{
    Vec4 r = fetch(resolvePlan(texture, state, lod), uv);
    flushBlockSet(texture);
    return r;
}

int
Sampler::sampleQuad(const Texture2D &texture, const SamplerState &state,
                    const Vec4 coords[4], float lod_bias, Vec4 out[4])
{
    // Texture-space derivatives from quad lane differences, in texels of
    // the base level.
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
    if (state.filter == TexFilter::Anisotropic && state.maxAniso > 1) {
        float major = std::max(lx, ly);
        float minor = std::min(lx, ly);
        if (minor < 1e-6f)
            minor = std::min(major, 1e-6f) > 0.0f ? 1e-6f : major;
        float ratio = 1.0f;
        if (minor > 0.0f)
            ratio = std::min(major / minor,
                             static_cast<float>(state.maxAniso));
        probes = std::max(1, static_cast<int>(std::ceil(ratio - 1e-4f)));
        // Probe footprint: the major axis is split across the probes.
        float effective = probes > 1 ? major / static_cast<float>(probes)
                                     : major;
        float footprint = std::max(minor, effective);
        lod = footprint > 0.0f ? std::log2(footprint) : 0.0f;
        if (probes > 1) {
            // Step along the major axis in uv units.
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
    FilterPlan plan = resolvePlan(texture, state, lod);

    for (int lane = 0; lane < 4; ++lane) {
        Vec2 uv{coords[lane].x, coords[lane].y};
        if (probes == 1) {
            out[lane] = fetch(plan, uv);
        } else {
            Vec4 acc{0, 0, 0, 0};
            for (int p = 0; p < probes; ++p) {
                float t = (static_cast<float>(p) + 0.5f) /
                          static_cast<float>(probes) - 0.5f;
                Vec2 puv{uv.x + probe_step.x * t, uv.y + probe_step.y * t};
                acc = acc + fetch(plan, puv);
            }
            out[lane] = acc / static_cast<float>(probes);
        }
    }
    flushBlockSet(texture);
    // Every lane fetches each probe through the one plan: a bilinear
    // footprint per level it reads, none for a nearest texel.
    int per_fetch = plan.nearest ? 0 : plan.blend ? 2 : 1;
    return 4 * probes * per_fetch;
}

} // namespace wc3d::tex
