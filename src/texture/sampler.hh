/**
 * @file
 * Texture sampling and filtering. Implements nearest, bilinear,
 * trilinear and anisotropic (up to 16x, elliptical-footprint style per
 * Feline [28]) filters with per-request bilinear-sample accounting —
 * the dynamic texture cost the paper characterizes in Table XIII:
 * "better than bilinear filter algorithms take additional throughput
 * cycles to complete (1 more for trilinear, up to 32 more with a 16
 * sample anisotropy filtering algorithm)".
 */

#ifndef WC3D_TEXTURE_SAMPLER_HH
#define WC3D_TEXTURE_SAMPLER_HH

#include <cstdint>

#include "common/vecmath.hh"
#include "texture/texture.hh"

namespace wc3d::tex {

/** Texture minification/magnification filter. */
enum class TexFilter : std::uint8_t
{
    Nearest,
    Bilinear,
    Trilinear,
    Anisotropic, ///< trilinear probes along the major footprint axis
};

/** Texture coordinate wrap mode. */
enum class TexWrap : std::uint8_t
{
    Repeat,
    Clamp,
};

/** Sampler configuration bound alongside a texture. */
struct SamplerState
{
    TexFilter filter = TexFilter::Bilinear;
    TexWrap wrap = TexWrap::Repeat;
    int maxAniso = 1;     ///< anisotropy cap (paper workloads use 16)
    float lodBias = 0.0f;
};

/** Cumulative sampling statistics. */
struct SampleStats
{
    std::uint64_t requests = 0;        ///< per-lane texture requests
    std::uint64_t bilinearSamples = 0; ///< bilinear footprints fetched
    std::uint64_t texelReads = 0;      ///< individual texels read
    double anisoRatioSum = 0.0;        ///< sum of per-request aniso N
    std::uint64_t anisoRequests = 0;

    /** Average bilinear samples per texture request (Table XIII). */
    double
    bilinearsPerRequest() const
    {
        return requests ? static_cast<double>(bilinearSamples) / requests
                        : 0.0;
    }
};

/** Receives the distinct 4x4 texel blocks touched by sampling
 *  (implemented by the texture cache). */
class TexelAccessListener
{
  public:
    virtual ~TexelAccessListener() = default;

    /**
     * Block (bx, by) of @p level of @p texture was referenced by
     * @p refs texel taps within one quad. The texture unit coalesces
     * per-quad references before touching the cache; @p refs lets the
     * cache model report per-tap hit rates (the measurement a real
     * texture cache exposes, paper Table XIV) while performing one
     * residency access.
     */
    virtual void blockAccess(const Texture2D &texture, int level, int bx,
                             int by, int refs) = 0;
};

/**
 * The filtering engine. Stateless apart from statistics; bindings are
 * supplied per call so one Sampler serves all texture units.
 */
class Sampler
{
  public:
    /** Attach the cache model receiving block accesses (may be null). */
    void setListener(TexelAccessListener *listener)
    { _listener = listener; }

    /**
     * Sample a whole 2x2 quad. Texture-space derivatives are computed
     * from the difference between quad lane coordinates (lane order:
     * (x,y), (x+1,y), (x,y+1), (x+1,y+1)).
     *
     * @param texture  bound texture
     * @param state    bound sampler state
     * @param coords   four lane texture coordinates (u = x, v = y)
     * @param lod_bias extra per-instruction bias (TXB)
     * @param out      four sampled colours
     */
    void sampleQuad(const Texture2D &texture, const SamplerState &state,
                    const Vec4 coords[4], float lod_bias, Vec4 out[4]);

    /**
     * Sample a single coordinate at an explicit level of detail.
     * Exposed for tests; quad sampling is the production path.
     */
    Vec4 sampleLod(const Texture2D &texture, const SamplerState &state,
                   Vec2 uv, float lod);

    const SampleStats &stats() const { return _stats; }
    void resetStats() { _stats = SampleStats(); }

  private:
    /**
     * What one LOD resolves to: the filter, the mip level(s) and their
     * texel views. A quad has one LOD, so its plan is resolved once
     * and every lane and anisotropic probe fetches through it.
     */
    struct FilterPlan
    {
        const Texture2D *texture;
        TexWrap wrap;
        bool nearest;            ///< one nearest texel at level l0
        bool blend;              ///< second bilinear at l0 + 1
        int l0;
        float frac;              ///< weight of level l0 + 1 when blending
        Texture2D::LevelView v0; ///< level l0
        Texture2D::LevelView v1; ///< level l0 + 1 when blending
    };

    static FilterPlan resolvePlan(const Texture2D &texture,
                                  const SamplerState &state, float lod);

    /** One filtered sample at @p uv through @p plan. */
    Vec4 fetch(const FilterPlan &plan, Vec2 uv);

    /** One bilinear footprint at @p level (viewed by @p view). */
    Vec4 bilinearFetch(const FilterPlan &plan,
                       const Texture2D::LevelView &view, int level,
                       Vec2 uv);

    /** Nearest texel at the plan's level. */
    Vec4 nearestFetch(const FilterPlan &plan, Vec2 uv);

    /** Note the blocks a bilinear footprint's four taps touch. */
    void noteFootprint(const Texture2D &texture, int level, int xa, int xb,
                       int ya, int yb);
    /** Note @p refs taps on block (bx, by) of @p level. */
    void noteBlock(const Texture2D &texture, int level, int bx, int by,
                   int refs);
    /** Add block @p key, absent from the set, at empty @p slot (or
     *  forward its taps when the set is full). */
    void addBlock(const Texture2D &texture, std::uint64_t key,
                  unsigned slot, int refs);
    void flushBlockSet(const Texture2D &texture);

    TexelAccessListener *_listener = nullptr;
    SampleStats _stats;

    // Per-quad distinct-block set: the texture unit coalesces the block
    // references of one quad before touching the cache, mirroring how
    // quad locality reduces cache traffic in real designs. Entries stay
    // in first-touch order; an open-addressed slot table (slot ->
    // entry index + 1, 0 = empty) finds a block without a scan. It has
    // twice as many slots as the set has entries, so a probe always
    // ends at an empty slot.
    static constexpr int kMaxQuadBlocks = 128;
    static constexpr int kBlockSlots = 256;
    std::uint64_t _blockSet[kMaxQuadBlocks];
    std::uint32_t _blockRefs[kMaxQuadBlocks];
    std::uint8_t _blockSlot[kMaxQuadBlocks]; ///< slot of each entry
    std::uint8_t _slots[kBlockSlots] = {};
    int _blockCount = 0;
};

} // namespace wc3d::tex

#endif // WC3D_TEXTURE_SAMPLER_HH
