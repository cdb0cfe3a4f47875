/**
 * @file
 * The API command stream. Every interaction between a game (a workload
 * generator, driving the device in-process) and the device is one of
 * these commands; the paper's API-level statistics (batches, indices,
 * state calls per frame) are computed over this stream.
 */

#ifndef WC3D_API_COMMANDS_HH
#define WC3D_API_COMMANDS_HH

#include <variant>

#include "api/state.hh"
#include "geom/types.hh"

namespace wc3d::api {

/** Resource creation (the "setup" calls that spike in early frames). */
struct CreateVertexBufferCmd
{
    std::uint32_t id = 0;
    VertexBufferData data;
};

struct CreateIndexBufferCmd
{
    std::uint32_t id = 0;
    IndexBufferData data;
};

struct CreateTextureCmd
{
    std::uint32_t id = 0;
    TextureSpec spec;
};

struct CreateProgramCmd
{
    std::uint32_t id = 0;
    shader::ProgramKind kind = shader::ProgramKind::Vertex;
    std::string source; ///< shader assembly text
};

/** State-change calls (the paper's Figure 3 quantity). */
struct BindProgramCmd
{
    shader::ProgramKind kind = shader::ProgramKind::Vertex;
    std::uint32_t id = 0; ///< 0 unbinds
};

struct BindTextureCmd
{
    std::uint32_t unit = 0;
    std::uint32_t id = 0; ///< 0 unbinds
    tex::SamplerState sampler;
};

struct SetDepthStencilCmd
{
    frag::DepthStencilState state;
};

struct SetBlendCmd
{
    frag::BlendState state;
};

struct SetCullModeCmd
{
    geom::CullMode mode = geom::CullMode::Back;
};

struct SetConstantCmd
{
    shader::ProgramKind kind = shader::ProgramKind::Vertex;
    std::uint32_t index = 0;
    Vec4 value;
};

/** Framebuffer clear. */
struct ClearCmd
{
    bool color = true;
    bool depth = true;
    bool stencil = true;
    std::uint32_t colorValue = 0xff000000; ///< packed RGBA8
    float depthValue = 1.0f;
    std::uint8_t stencilValue = 0;
};

/** A draw batch: "the different vertex input streams which are
 *  processed down through the rendering pipeline" (Figure 1). */
struct DrawCmd
{
    std::uint32_t vertexBuffer = 0;
    std::uint32_t indexBuffer = 0;
    std::uint32_t firstIndex = 0;
    std::uint32_t indexCount = 0;
    geom::PrimitiveType topology = geom::PrimitiveType::TriangleList;
};

/** Frame boundary (present/swap). */
struct EndFrameCmd
{
};

using Command =
    std::variant<CreateVertexBufferCmd, CreateIndexBufferCmd,
                 CreateTextureCmd, CreateProgramCmd, BindProgramCmd,
                 BindTextureCmd, SetDepthStencilCmd, SetBlendCmd,
                 SetCullModeCmd, SetConstantCmd, ClearCmd, DrawCmd,
                 EndFrameCmd>;

/** @return true for commands that count as API state calls (everything
 *  that is not a draw or a frame boundary). */
bool isStateCall(const Command &cmd);

} // namespace wc3d::api

#endif // WC3D_API_COMMANDS_HH
