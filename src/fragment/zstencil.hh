/**
 * @file
 * Depth and stencil testing. "The z and stencil test are performed in
 * parallel in the same stage and may happen before shading (early z and
 * stencil test) or after shading" (paper Section III.C). Implements the
 * full OpenGL comparison/op set including the two-sided stencil used by
 * Doom3/Quake4's stencil shadow volumes.
 */

#ifndef WC3D_FRAGMENT_ZSTENCIL_HH
#define WC3D_FRAGMENT_ZSTENCIL_HH

#include <cstdint>

#include "fragment/framebuffer.hh"

namespace wc3d::frag {

/** Comparison functions for depth and stencil tests. */
enum class CompareFunc : std::uint8_t
{
    Never,
    Less,
    Equal,
    LEqual,
    Greater,
    NotEqual,
    GEqual,
    Always,
};

/** Stencil update operations. */
enum class StencilOp : std::uint8_t
{
    Keep,
    Zero,
    Replace,
    Incr,     ///< clamped increment
    IncrWrap,
    Decr,     ///< clamped decrement
    DecrWrap,
    Invert,
};

/** Per-face stencil configuration. */
struct StencilFace
{
    CompareFunc func = CompareFunc::Always;
    std::uint8_t ref = 0;
    std::uint8_t readMask = 0xff;
    std::uint8_t writeMask = 0xff;
    StencilOp sfail = StencilOp::Keep;  ///< stencil test failed
    StencilOp zfail = StencilOp::Keep;  ///< stencil passed, depth failed
    StencilOp zpass = StencilOp::Keep;  ///< both passed
};

/** Full depth/stencil render state. */
struct DepthStencilState
{
    bool depthTest = true;
    CompareFunc depthFunc = CompareFunc::LEqual;
    bool depthWrite = true;
    bool stencilTest = false;
    StencilFace front;
    StencilFace back;  ///< used when the primitive is back-facing

    /** @return true when any stencil op of @p face modifies memory. */
    static bool faceWritesStencil(const StencilFace &face);

    /** @return true when the state can never modify z or stencil. */
    bool readOnly() const;
};

/** Evaluate @p func on (value, ref). */
bool compareFunc(CompareFunc func, std::uint32_t value, std::uint32_t ref);

/** Apply a stencil op to the current (masked) stencil value. */
std::uint8_t applyStencilOp(StencilOp op, std::uint8_t current,
                            std::uint8_t ref);

/** Pack depth [0,1] and stencil into the surface word layout. */
std::uint32_t packDepthStencil(float depth, std::uint8_t stencil);

/** Depth field of a packed word as float in [0,1]. */
float unpackDepth(std::uint32_t word);

/** Stencil field of a packed word. */
std::uint8_t unpackStencil(std::uint32_t word);

/**
 * The z & stencil test unit operating on a depth/stencil surface. It reads
 * and writes the surface's words directly and appends each quad's cache
 * access to the log set with setLog(); the surface's cache sees the
 * access only when the log is replayed.
 */
class ZStencilUnit
{
  public:
    explicit ZStencilUnit(CachedSurface *surface) : _surface(surface) {}

    /** Append later cache accesses to @p log (must be set before use). */
    void setLog(SurfaceLog *log) { _log = log; }

    /**
     * Test a quad. Logs one access: Write when the state writes depth
     * or the selected face's stencil ops write, else Read.
     *
     * @param state      depth/stencil render state
     * @param back_face  selects the back stencil face
     * @param x,y        quad top-left pixel
     * @param z          per-lane interpolated depth
     * @param live_mask  lanes still alive entering the stage (bit per
     *                   lane); updated to the lanes that passed
     * @param quad_z_min [out] minimum stored depth of the quad after
     *                   any writes (min/max Hierarchical-Z feedback)
     * @param quad_z_max [out] maximum stored depth of the quad after
     *                   any writes (Hierarchical-Z feedback)
     *
     * Both bounds cover every in-bounds lane, live or not, and are only
     * meaningful when the state writes depth.
     *
     * @return true when at least one lane survived
     */
    bool testQuad(const DepthStencilState &state, bool back_face, int x,
                  int y, const float z[4], std::uint8_t &live_mask,
                  float &quad_z_min, float &quad_z_max);

    /**
     * Early-accept path (min/max HZ): the depth test is known to pass
     * for every live lane, so the stored depth is written without
     * reading the z buffer. Only valid for plain Less/LEqual depth
     * states without stencil. Logs one WriteNoFetch access when the
     * state writes depth, and nothing otherwise.
     *
     * @return the stored quad (min, max) after the writes.
     */
    std::pair<float, float> acceptQuad(const DepthStencilState &state,
                                       int x, int y, const float z[4],
                                       std::uint8_t live_mask);

  private:
    CachedSurface *_surface;
    SurfaceLog *_log = nullptr;
};

} // namespace wc3d::frag

#endif // WC3D_FRAGMENT_ZSTENCIL_HH
