/**
 * @file
 * Colour raster operations: the final stage that applies the colour
 * write mask and blending to a quad of shaded fragments. Its result
 * (updated or not) is what the simulator counts for the paper's
 * Table IX (quads removed by colour mask vs blended) and Table XI
 * (blending overdraw).
 */

#ifndef WC3D_FRAGMENT_ROP_HH
#define WC3D_FRAGMENT_ROP_HH

#include "fragment/blend.hh"
#include "fragment/framebuffer.hh"

namespace wc3d::frag {

/**
 * The colour write/blend unit operating on a colour CachedSurface. Like
 * ZStencilUnit it writes words directly and logs its cache accesses.
 */
class ColorUnit
{
  public:
    explicit ColorUnit(CachedSurface *surface) : _surface(surface) {}

    /** Append later cache accesses to @p log (must be set before use). */
    void setLog(SurfaceLog *log) { _log = log; }

    /**
     * Write a quad of shaded colours. Logs one Write access (the
     * quad's read-modify-write) when the buffer is updated.
     *
     * @param state     blend state (including the colour write mask)
     * @param x,y       quad top-left pixel
     * @param colors    per-lane shaded colour
     * @param live_mask lanes that survived all tests
     * @return true when the colour buffer was updated
     */
    bool writeQuad(const BlendState &state, int x, int y,
                   const Vec4 colors[4], std::uint8_t live_mask);

  private:
    CachedSurface *_surface;
    SurfaceLog *_log = nullptr;
};

} // namespace wc3d::frag

#endif // WC3D_FRAGMENT_ROP_HH
