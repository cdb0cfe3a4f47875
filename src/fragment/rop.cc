#include "fragment/rop.hh"

namespace wc3d::frag {

bool
ColorUnit::writeQuad(const BlendState &state, int x, int y,
                     const Vec4 colors[4], std::uint8_t live_mask)
{
    if (live_mask == 0)
        return false;
    if (!state.colorWriteMask) {
        // The quad reached the colour stage but the write mask discards
        // it (the stencil-shadow pattern in Doom3/Quake4).
        return false;
    }

    bool reads_dst = state.enabled &&
                     !(state.srcFactor == BlendFactor::One &&
                       state.dstFactor == BlendFactor::Zero &&
                       state.op == BlendOp::Add);
    // One cache access covers the quad's read-modify-write.
    if (_sink)
        _sink->surfaceAccess(x, y, /*is_write=*/true, /*no_fetch=*/false);
    else
        _surface->accessQuad(x, y, true);

    static const int offs[4][2] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
    for (int lane = 0; lane < 4; ++lane) {
        if (!((live_mask >> lane) & 1))
            continue;
        int px = x + offs[lane][0];
        int py = y + offs[lane][1];
        if (px >= _surface->width() || py >= _surface->height())
            continue;
        Vec4 dst = reads_dst ? unpackColor(_surface->word(px, py))
                             : Vec4{0, 0, 0, 0};
        Vec4 result = blendColors(state, colors[lane], dst);
        _surface->setWord(px, py, packColor(result));
    }
    return true;
}

} // namespace wc3d::frag
