/**
 * @file
 * The graphics device: an API state machine that owns resources,
 * assigns their ids, validates and applies each call, feeds the API
 * statistics collector and forwards resolved draw calls to a sink (the
 * GPU simulator, or nothing for API-only runs). Its typed calls are the
 * API: there is no separate command vocabulary. Every call except
 * draw() and endFrame() counts as one state call, whether or not it
 * passes validation; a malformed call is dropped with a warning.
 *
 * Textures are built in one place, on the global thread pool, and only
 * when something reads them. With a sink, each run of consecutive
 * texture creations is built together and announced in call order
 * before the next call of any other kind is applied (or at setSink() or
 * at a lookup), so the sink sees the same calls in the same order as if
 * each had been built on creation. Without a sink a texture is built on
 * its first lookup.
 */

#ifndef WC3D_API_DEVICE_HH
#define WC3D_API_DEVICE_HH

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/apistats.hh"
#include "api/state.hh"
#include "geom/types.hh"
#include "texture/texture.hh"

namespace wc3d::api {

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

/** A draw call with every referenced resource resolved. */
struct DrawCall
{
    const VertexBufferData *vertices = nullptr;
    const IndexBufferData *indexData = nullptr;
    std::uint32_t firstIndex = 0;
    std::uint32_t indexCount = 0;
    geom::PrimitiveType topology = geom::PrimitiveType::TriangleList;
    const shader::Program *vertexProgram = nullptr;
    const shader::Program *fragmentProgram = nullptr;
    RenderState state;
    const tex::Texture2D *textures[shader::kMaxSamplers] = {};
};

/** Receiver of device output (implemented by the GPU simulator). */
class DrawSink
{
  public:
    virtual ~DrawSink() = default;

    /** Resource-creation notifications (upload traffic, memory binding). */
    virtual void vertexBufferCreated(std::uint32_t, const VertexBufferData &)
    {}
    virtual void indexBufferCreated(std::uint32_t, const IndexBufferData &)
    {}
    virtual void textureCreated(std::uint32_t, tex::Texture2D &) {}
    virtual void programCreated(std::uint32_t, const shader::Program &) {}

    /** Rendering commands. */
    virtual void clear(const ClearCmd &) {}
    virtual void draw(const DrawCall &) {}
    virtual void endFrame() {}
};

/** The device / context. */
class Device
{
  public:
    explicit Device(GraphicsApi apiKind = GraphicsApi::OpenGL);
    ~Device();

    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    GraphicsApi apiKind() const { return _apiKind; }

    /** Attach the GPU (or other) sink; may be null. Textures still
     *  waiting to be announced go to the previous sink first. */
    void setSink(DrawSink *sink);

    /** @name The API calls
     *  Resource ids are assigned by the device; 0 is never an id. */
    /// @{
    std::uint32_t createVertexBuffer(VertexBufferData data);
    std::uint32_t createIndexBuffer(IndexBufferData data);
    std::uint32_t createTexture(const TextureSpec &spec);
    /** @return 0 and warns when @p source fails to assemble. */
    std::uint32_t createProgram(shader::ProgramKind kind,
                                const std::string &source);
    void bindProgram(shader::ProgramKind kind, std::uint32_t id);
    void bindTexture(std::uint32_t unit, std::uint32_t id,
                     const tex::SamplerState &sampler);
    void setDepthStencil(const frag::DepthStencilState &state);
    void setBlend(const frag::BlendState &state);
    void setCullMode(geom::CullMode mode);
    /** Dropped with a warning when @p index >= shader::kMaxConsts. */
    void setConstant(shader::ProgramKind kind, std::uint32_t index,
                     Vec4 value);
    void clear(const ClearCmd &cmd = ClearCmd{});
    /** A draw batch: "the different vertex input streams which are
     *  processed down through the rendering pipeline" (Figure 1).
     *  Dropped with a warning, and not counted, when a buffer is
     *  unknown, the vertex buffer is empty, the index range overruns
     *  the index buffer or a program is unbound. */
    void draw(std::uint32_t vertex_buffer, std::uint32_t index_buffer,
              std::uint32_t first_index, std::uint32_t index_count,
              geom::PrimitiveType topology);
    /** Frame boundary (present/swap). */
    void endFrame();
    /// @}

    ApiStats &stats() { return _stats; }
    const ApiStats &stats() const { return _stats; }

    const RenderState &currentState() const { return _current; }

    /** @name Resource lookups (null when unknown)
     *  A texture lookup builds the texture if that has not happened yet. */
    /// @{
    const VertexBufferData *vertexBuffer(std::uint32_t id) const;
    const IndexBufferData *indexBuffer(std::uint32_t id) const;
    const tex::Texture2D *texture(std::uint32_t id) const;
    const shader::Program *program(std::uint32_t id) const;
    /// @}

  private:
    /** A texture's spec, and the texture once something needed it. */
    struct TextureEntry
    {
        TextureSpec spec;
        std::unique_ptr<tex::Texture2D> texture;
    };

    /** (id, spec) of each texture to build, in submission order. */
    using TextureRun = std::vector<std::pair<std::uint32_t, TextureSpec>>;

    /** The preamble of every state call except createTexture(), which
     *  extends the pending texture run: build and announce that run,
     *  then count the call. */
    void beginStateCall();
    shader::Program *mutableProgram(std::uint32_t id);

    /** Build every texture of @p run in parallel on the global pool. */
    static std::vector<std::unique_ptr<tex::Texture2D>>
    buildTextures(const TextureRun &run);

    /** Build the pending run and announce it to the sink, in order. */
    void flushTextures() const;

    GraphicsApi _apiKind;
    DrawSink *_sink = nullptr;
    ApiStats _stats;
    RenderState _current;
    std::uint32_t _nextId = 1;

    std::unordered_map<std::uint32_t, VertexBufferData> _vertexBuffers;
    std::unordered_map<std::uint32_t, IndexBufferData> _indexBuffers;
    // Mutable: lookups build textures on demand.
    mutable std::unordered_map<std::uint32_t, TextureEntry> _textures;
    /** Textures created with a sink set, not yet built or announced. */
    mutable TextureRun _pendingTextures;
    std::unordered_map<std::uint32_t, std::unique_ptr<shader::Program>>
        _programs;
};

} // namespace wc3d::api

#endif // WC3D_API_DEVICE_HH
