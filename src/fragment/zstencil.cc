#include "fragment/zstencil.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/vecmath.hh"

namespace wc3d::frag {

bool
compareFunc(CompareFunc func, std::uint32_t value, std::uint32_t ref)
{
    switch (func) {
      case CompareFunc::Never:
        return false;
      case CompareFunc::Less:
        return value < ref;
      case CompareFunc::Equal:
        return value == ref;
      case CompareFunc::LEqual:
        return value <= ref;
      case CompareFunc::Greater:
        return value > ref;
      case CompareFunc::NotEqual:
        return value != ref;
      case CompareFunc::GEqual:
        return value >= ref;
      case CompareFunc::Always:
        return true;
    }
    return false;
}

std::uint8_t
applyStencilOp(StencilOp op, std::uint8_t current, std::uint8_t ref)
{
    switch (op) {
      case StencilOp::Keep:
        return current;
      case StencilOp::Zero:
        return 0;
      case StencilOp::Replace:
        return ref;
      case StencilOp::Incr:
        return current == 0xff ? 0xff
                               : static_cast<std::uint8_t>(current + 1);
      case StencilOp::IncrWrap:
        return static_cast<std::uint8_t>(current + 1);
      case StencilOp::Decr:
        return current == 0 ? 0 : static_cast<std::uint8_t>(current - 1);
      case StencilOp::DecrWrap:
        return static_cast<std::uint8_t>(current - 1);
      case StencilOp::Invert:
        return static_cast<std::uint8_t>(~current);
    }
    return current;
}

std::uint32_t
packDepthStencil(float depth, std::uint8_t stencil)
{
    // Quantise in double: 16777215 + 0.5 is not representable in float
    // and would round up past the 24-bit range.
    double clamped = clampf(depth, 0.0f, 1.0f);
    auto d = static_cast<std::uint32_t>(clamped * 16777215.0 + 0.5);
    if (d > 0xffffffu)
        d = 0xffffffu;
    return (d << 8) | stencil;
}

float
unpackDepth(std::uint32_t word)
{
    return static_cast<float>(word >> 8) / 16777215.0f;
}

std::uint8_t
unpackStencil(std::uint32_t word)
{
    return static_cast<std::uint8_t>(word & 0xff);
}

bool
DepthStencilState::faceWritesStencil(const StencilFace &face)
{
    return face.writeMask != 0 &&
           (face.sfail != StencilOp::Keep ||
            face.zfail != StencilOp::Keep ||
            face.zpass != StencilOp::Keep);
}

bool
DepthStencilState::readOnly() const
{
    bool z_writes = depthTest && depthWrite;
    bool s_writes = stencilTest &&
                    (faceWritesStencil(front) || faceWritesStencil(back));
    return !z_writes && !s_writes;
}

bool
ZStencilUnit::testQuad(const DepthStencilState &state, bool back_face,
                       int x, int y, const float z[4],
                       std::uint8_t &live_mask, float &quad_z_min,
                       float &quad_z_max)
{
    const StencilFace &face = back_face ? state.back : state.front;

    bool will_write =
        (state.depthTest && state.depthWrite) ||
        (state.stencilTest && DepthStencilState::faceWritesStencil(face));
    _log->push_back({x, y,
                     will_write ? SurfaceAccess::Kind::Write
                                : SurfaceAccess::Kind::Read});

    static const int offs[4][2] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
    std::uint8_t passed = 0;
    float max_stored = 0.0f;
    float min_stored = 1.0f;
    for (int lane = 0; lane < 4; ++lane) {
        int px = x + offs[lane][0];
        int py = y + offs[lane][1];
        bool in_bounds = px < _surface->width() && py < _surface->height();
        if (!((live_mask >> lane) & 1) || !in_bounds)
            continue;

        std::uint32_t stored = _surface->word(px, py);
        float stored_z = unpackDepth(stored);
        std::uint8_t stored_s = unpackStencil(stored);

        bool stencil_pass = true;
        if (state.stencilTest) {
            stencil_pass = compareFunc(
                face.func,
                static_cast<std::uint32_t>(face.ref & face.readMask),
                static_cast<std::uint32_t>(stored_s & face.readMask));
        }

        bool depth_pass = true;
        if (state.depthTest && stencil_pass) {
            std::uint32_t frag_d =
                packDepthStencil(z[lane], 0) >> 8;
            std::uint32_t stored_d = stored >> 8;
            depth_pass = compareFunc(state.depthFunc, frag_d, stored_d);
        }

        float new_z = stored_z;
        std::uint8_t new_s = stored_s;
        if (state.stencilTest) {
            StencilOp op = !stencil_pass ? face.sfail
                           : !depth_pass ? face.zfail
                                         : face.zpass;
            std::uint8_t updated = applyStencilOp(op, stored_s, face.ref);
            new_s = static_cast<std::uint8_t>(
                (stored_s & ~face.writeMask) | (updated & face.writeMask));
        }
        if (stencil_pass && depth_pass && state.depthTest &&
            state.depthWrite) {
            new_z = clampf(z[lane], 0.0f, 1.0f);
        }
        if (new_z != stored_z || new_s != stored_s)
            _surface->setWord(px, py, packDepthStencil(new_z, new_s));

        max_stored = std::max(max_stored, new_z);
        min_stored = std::min(min_stored, new_z);
        if (stencil_pass && depth_pass)
            passed |= static_cast<std::uint8_t>(1u << lane);
    }

    // HZ feedback needs the quad's stored range including untouched
    // lanes.
    for (int lane = 0; lane < 4; ++lane) {
        int px = x + offs[lane][0];
        int py = y + offs[lane][1];
        if (px < _surface->width() && py < _surface->height() &&
            (!((live_mask >> lane) & 1))) {
            float stored = unpackDepth(_surface->word(px, py));
            max_stored = std::max(max_stored, stored);
            min_stored = std::min(min_stored, stored);
        }
    }
    quad_z_max = max_stored;
    quad_z_min = min_stored;

    live_mask = passed;
    return passed != 0;
}

std::pair<float, float>
ZStencilUnit::acceptQuad(const DepthStencilState &state, int x, int y,
                         const float z[4], std::uint8_t live_mask)
{
    WC3D_ASSERT(!state.stencilTest &&
                (state.depthFunc == CompareFunc::Less ||
                 state.depthFunc == CompareFunc::LEqual));

    static const int offs[4][2] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}};
    bool writes = state.depthTest && state.depthWrite;
    if (writes)
        _log->push_back({x, y, SurfaceAccess::Kind::WriteNoFetch});

    float max_stored = 0.0f;
    float min_stored = 1.0f;
    for (int lane = 0; lane < 4; ++lane) {
        int px = x + offs[lane][0];
        int py = y + offs[lane][1];
        if (px >= _surface->width() || py >= _surface->height())
            continue;
        bool live = (live_mask >> lane) & 1;
        float stored;
        if (live && writes) {
            stored = clampf(z[lane], 0.0f, 1.0f);
            std::uint32_t word = _surface->word(px, py);
            _surface->setWord(
                px, py, packDepthStencil(stored, unpackStencil(word)));
        } else {
            stored = unpackDepth(_surface->word(px, py));
        }
        max_stored = std::max(max_stored, stored);
        min_stored = std::min(min_stored, stored);
    }
    return {min_stored, max_stored};
}

} // namespace wc3d::frag
