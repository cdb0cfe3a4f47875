#include "geom/clipcull.hh"

#include <array>

#include "common/log.hh"

namespace wc3d::geom {

float
projectedSignedArea(const Vec4 &a, const Vec4 &b, const Vec4 &c)
{
    float ax = a.x / a.w, ay = a.y / a.w;
    float bx = b.x / b.w, by = b.y / b.w;
    float cx = c.x / c.w, cy = c.y / c.w;
    return 0.5f * ((bx - ax) * (cy - ay) - (cx - ax) * (by - ay));
}

namespace {

/** Clip-space plane functions; inside when >= 0. */
enum Plane
{
    kPlaneLeft,   // w + x
    kPlaneRight,  // w - x
    kPlaneBottom, // w + y
    kPlaneTop,    // w - y
    kPlaneNear,   // w + z
    kPlaneFar,    // w - z
    kNumPlanes,
};

float
planeValue(const Vec4 &v, int plane)
{
    switch (plane) {
      case kPlaneLeft:
        return v.w + v.x;
      case kPlaneRight:
        return v.w - v.x;
      case kPlaneBottom:
        return v.w + v.y;
      case kPlaneTop:
        return v.w - v.y;
      case kPlaneNear:
        return v.w + v.z;
      case kPlaneFar:
        return v.w - v.z;
    }
    return 0.0f;
}

TransformedVertex
lerpVertex(const TransformedVertex &a, const TransformedVertex &b, float t)
{
    TransformedVertex out;
    out.clip = lerp(a.clip, b.clip, t);
    for (int i = 0; i < kMaxVaryings; ++i)
        out.varyings[static_cast<std::size_t>(i)] =
            lerp(a.varyings[static_cast<std::size_t>(i)],
                 b.varyings[static_cast<std::size_t>(i)], t);
    return out;
}

/** Sutherland-Hodgman against one plane function. */
int
clipAgainst(const TransformedVertex *in, int in_count,
            TransformedVertex *out, float (*fn)(const Vec4 &))
{
    int out_count = 0;
    for (int i = 0; i < in_count; ++i) {
        const TransformedVertex &cur = in[i];
        const TransformedVertex &next = in[(i + 1) % in_count];
        float fc = fn(cur.clip);
        float fnext = fn(next.clip);
        if (fc >= 0.0f)
            out[out_count++] = cur;
        if ((fc >= 0.0f) != (fnext >= 0.0f)) {
            float t = fc / (fc - fnext);
            out[out_count++] = lerpVertex(cur, next, t);
        }
    }
    return out_count;
}

float
nearFn(const Vec4 &v)
{
    return v.w + v.z;
}

float
wFn(const Vec4 &v)
{
    return v.w - 1e-5f;
}

} // namespace

TriangleFate
clipCull(const TransformedVertex verts[3], CullMode cull_mode,
         std::vector<std::array<TransformedVertex, 3>> &out)
{
    // Trivial reject: all three vertices outside one frustum plane.
    for (int p = 0; p < kNumPlanes; ++p) {
        if (planeValue(verts[0].clip, p) < 0.0f &&
            planeValue(verts[1].clip, p) < 0.0f &&
            planeValue(verts[2].clip, p) < 0.0f)
            return TriangleFate::Clipped;
    }

    // Near-plane (and w-epsilon) clipping when any vertex is behind.
    bool needs_clip = false;
    for (int i = 0; i < 3; ++i) {
        needs_clip |= nearFn(verts[i].clip) < 0.0f;
        needs_clip |= wFn(verts[i].clip) < 0.0f;
    }

    TransformedVertex poly_a[8];
    TransformedVertex poly_b[8];
    int count;
    if (needs_clip) {
        count = clipAgainst(verts, 3, poly_a, wFn);
        count = clipAgainst(poly_a, count, poly_b, nearFn);
        if (count < 3) {
            // The visible part degenerated away.
            return TriangleFate::Clipped;
        }
    } else {
        poly_b[0] = verts[0];
        poly_b[1] = verts[1];
        poly_b[2] = verts[2];
        count = 3;
    }

    // Face culling on the (post-clip) projected winding. Clipping
    // preserves orientation, so the first fan triangle decides.
    float area = projectedSignedArea(poly_b[0].clip, poly_b[1].clip,
                                     poly_b[2].clip);
    bool reject = area == 0.0f;
    if (cull_mode == CullMode::Back)
        reject |= area < 0.0f;
    else if (cull_mode == CullMode::Front)
        reject |= area > 0.0f;
    if (reject)
        return TriangleFate::Culled;

    for (int i = 1; i + 1 < count; ++i)
        out.push_back({poly_b[0], poly_b[i], poly_b[i + 1]});
    return TriangleFate::Traversed;
}

} // namespace wc3d::geom
