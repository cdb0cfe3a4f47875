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

/** The colour write/blend unit operating on a colour CachedSurface. */
class ColorUnit
{
  public:
    explicit ColorUnit(CachedSurface *surface) : _surface(surface) {}

    /**
     * Write a quad of shaded colours.
     *
     * @param state     blend state (including the colour write mask)
     * @param x,y       quad top-left pixel
     * @param colors    per-lane shaded colour
     * @param live_mask lanes that survived all tests
     * @return true when the colour buffer was updated
     */
    bool writeQuad(const BlendState &state, int x, int y,
                   const Vec4 colors[4], std::uint8_t live_mask);

    /** Defer surface-cache accesses to @p sink (see ZStencilUnit). */
    void setAccessSink(SurfaceAccessSink *sink) { _sink = sink; }

  private:
    CachedSurface *_surface;
    SurfaceAccessSink *_sink = nullptr;
};

} // namespace wc3d::frag

#endif // WC3D_FRAGMENT_ROP_HH
