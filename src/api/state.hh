/**
 * @file
 * Graphics-API-level render state and resource descriptions. The API is
 * OpenGL/Direct3D-neutral: both of the paper's API families make the
 * same in-process Device calls, so one set of statistics covers both
 * (the paper collected them with GLInterceptor for OGL and a PIX-trace
 * player for D3D).
 */

#ifndef WC3D_API_STATE_HH
#define WC3D_API_STATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fragment/blend.hh"
#include "fragment/zstencil.hh"
#include "geom/clipcull.hh"
#include "shader/program.hh"
#include "texture/sampler.hh"

namespace wc3d::api {

/** Which marketplace API a workload represents (reporting only). */
enum class GraphicsApi : std::uint8_t
{
    OpenGL,
    Direct3D,
};

const char *graphicsApiName(GraphicsApi a);

/** Index element width; 2 bytes (D3D-style) or 4 bytes (Doom3 engines). */
enum class IndexType : std::uint8_t
{
    U16,
    U32,
};

/** Bytes per index element. */
int indexTypeBytes(IndexType t);

/**
 * Fixed vertex attribute layout: position(3), normal(3), uv(2),
 * color(4) = 12 floats. Buffers may declare a larger stride
 * (tangents etc.) which only affects fetch bandwidth.
 */
constexpr int kVertexLayoutFloats = 12;

/** One vertex in the canonical layout. */
struct VertexData
{
    Vec3 position;
    Vec3 normal;
    Vec2 uv;
    Vec4 color{1.0f, 1.0f, 1.0f, 1.0f};
};

/** Vertex buffer resource: canonical data + declared stride. */
struct VertexBufferData
{
    std::vector<VertexData> vertices;
    int strideFloats = kVertexLayoutFloats; ///< >= kVertexLayoutFloats

    int strideBytes() const { return strideFloats * 4; }
    std::uint64_t
    totalBytes() const
    {
        return vertices.size() * static_cast<std::uint64_t>(strideBytes());
    }
};

/** Index buffer resource. */
struct IndexBufferData
{
    IndexType type = IndexType::U16;
    std::vector<std::uint32_t> indices;

    std::uint64_t
    totalBytes() const
    {
        return indices.size() *
               static_cast<std::uint64_t>(indexTypeBytes(type));
    }
};

/** Procedural texture descriptor (textures are generated, not loaded). */
struct TextureSpec
{
    enum class Kind : std::uint8_t { Checker, Noise, Gradient };

    Kind kind = Kind::Noise;
    int size = 256;
    int cell = 16;                  ///< checker cell size
    std::uint64_t seed = 1;         ///< noise seed
    bool alphaNoise = false;        ///< noise alpha (alpha test)
    Rgba8 colorA{200, 200, 200, 255};
    Rgba8 colorB{40, 40, 40, 255};
    tex::TexFormat format = tex::TexFormat::DXT1;

    /** Instantiate the texture this spec describes. */
    tex::Texture2D build(const std::string &name) const;
};

/** The full bound state a draw call snapshots. */
struct RenderState
{
    frag::DepthStencilState depthStencil;
    frag::BlendState blend;
    geom::CullMode cullMode = geom::CullMode::Back;
    std::uint32_t vertexProgram = 0;   ///< 0 = none bound
    std::uint32_t fragmentProgram = 0; ///< 0 = none bound
    std::uint32_t textures[shader::kMaxSamplers] = {};
    tex::SamplerState samplers[shader::kMaxSamplers];
};

} // namespace wc3d::api

#endif // WC3D_API_STATE_HH
