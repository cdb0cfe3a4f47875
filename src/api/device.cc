#include "api/device.hh"

#include "common/log.hh"
#include "common/prof.hh"
#include "common/strutil.hh"
#include "common/threadpool.hh"
#include "shader/assemble.hh"

namespace wc3d::api {

Device::Device(GraphicsApi apiKind) : _apiKind(apiKind)
{
}

Device::~Device() = default;

void
Device::setSink(DrawSink *sink)
{
    flushTextures();
    _sink = sink;
}

void
Device::beginStateCall()
{
    flushTextures();
    _stats.noteStateCall();
}

shader::Program *
Device::mutableProgram(std::uint32_t id)
{
    auto it = _programs.find(id);
    return it != _programs.end() ? it->second.get() : nullptr;
}

std::vector<std::unique_ptr<tex::Texture2D>>
Device::buildTextures(const TextureRun &run)
{
    WC3D_PROF_SCOPE("api.textures");
    std::vector<std::unique_ptr<tex::Texture2D>> built(run.size());
    parallelFor(ThreadPool::global(), run.size(),
                [&](int, std::size_t i) {
                    const auto &[id, spec] = run[i];
                    built[i] = std::make_unique<tex::Texture2D>(
                        spec.build(format("tex%u", id)));
                });
    return built;
}

void
Device::flushTextures() const
{
    if (_pendingTextures.empty())
        return;
    TextureRun run = std::move(_pendingTextures);
    _pendingTextures.clear();
    std::vector<std::unique_ptr<tex::Texture2D>> built = buildTextures(run);
    for (std::size_t i = 0; i < run.size(); ++i) {
        std::uint32_t id = run[i].first;
        std::unique_ptr<tex::Texture2D> &slot = _textures.at(id).texture;
        slot = std::move(built[i]);
        _sink->textureCreated(id, *slot);
    }
}

std::uint32_t
Device::createVertexBuffer(VertexBufferData data)
{
    beginStateCall();
    std::uint32_t id = _nextId++;
    const VertexBufferData &vb =
        _vertexBuffers.emplace(id, std::move(data)).first->second;
    if (_sink)
        _sink->vertexBufferCreated(id, vb);
    return id;
}

std::uint32_t
Device::createIndexBuffer(IndexBufferData data)
{
    beginStateCall();
    std::uint32_t id = _nextId++;
    const IndexBufferData &ib =
        _indexBuffers.emplace(id, std::move(data)).first->second;
    if (_sink)
        _sink->indexBufferCreated(id, ib);
    return id;
}

std::uint32_t
Device::createTexture(const TextureSpec &spec)
{
    _stats.noteStateCall();
    std::uint32_t id = _nextId++;
    _textures.emplace(id, TextureEntry{spec, nullptr});
    if (_sink)
        _pendingTextures.emplace_back(id, spec);
    return id;
}

std::uint32_t
Device::createProgram(shader::ProgramKind kind, const std::string &source)
{
    beginStateCall();
    std::uint32_t id = _nextId++;
    auto result = shader::assemble(source, kind, format("prog%u", id));
    if (!result.ok) {
        warn("device: program %u failed to assemble: %s", id,
             result.error.c_str());
        return 0;
    }
    auto program =
        std::make_unique<shader::Program>(std::move(result.program));
    const shader::Program &ref = *program;
    _programs.emplace(id, std::move(program));
    if (_sink)
        _sink->programCreated(id, ref);
    return id;
}

void
Device::bindProgram(shader::ProgramKind kind, std::uint32_t id)
{
    beginStateCall();
    if (id != 0 && !_programs.count(id)) {
        warn("device: binding unknown program %u", id);
        return;
    }
    if (kind == shader::ProgramKind::Vertex) {
        _current.vertexProgram = id;
    } else {
        _current.fragmentProgram = id;
    }
}

void
Device::bindTexture(std::uint32_t unit, std::uint32_t id,
                    const tex::SamplerState &sampler)
{
    beginStateCall();
    if (unit >= shader::kMaxSamplers) {
        warn("device: texture unit %u out of range", unit);
        return;
    }
    if (id != 0 && !_textures.count(id)) {
        warn("device: binding unknown texture %u", id);
        return;
    }
    _current.textures[unit] = id;
    _current.samplers[unit] = sampler;
}

void
Device::setDepthStencil(const frag::DepthStencilState &state)
{
    beginStateCall();
    _current.depthStencil = state;
}

void
Device::setBlend(const frag::BlendState &state)
{
    beginStateCall();
    _current.blend = state;
}

void
Device::setCullMode(geom::CullMode mode)
{
    beginStateCall();
    _current.cullMode = mode;
}

void
Device::setConstant(shader::ProgramKind kind, std::uint32_t index,
                    Vec4 value)
{
    beginStateCall();
    if (index >= static_cast<std::uint32_t>(shader::kMaxConsts)) {
        warn("device: constant %u out of range", index);
        return;
    }
    std::uint32_t id = kind == shader::ProgramKind::Vertex
                           ? _current.vertexProgram
                           : _current.fragmentProgram;
    if (shader::Program *p = mutableProgram(id)) {
        p->setConstant(static_cast<int>(index), value);
    } else {
        warn("device: constant set with no program bound");
    }
}

void
Device::clear(const ClearCmd &cmd)
{
    beginStateCall();
    if (_sink)
        _sink->clear(cmd);
}

void
Device::draw(std::uint32_t vertex_buffer, std::uint32_t index_buffer,
             std::uint32_t first_index, std::uint32_t index_count,
             geom::PrimitiveType topology)
{
    flushTextures();
    const VertexBufferData *vb = vertexBuffer(vertex_buffer);
    const IndexBufferData *ib = indexBuffer(index_buffer);
    if (!vb || !ib) {
        warn("device: draw references unknown buffers (%u, %u)",
             vertex_buffer, index_buffer);
        return;
    }
    if (vb->vertices.empty()) {
        warn("device: draw from empty vertex buffer %u dropped",
             vertex_buffer);
        return;
    }
    if (std::uint64_t{first_index} + index_count > ib->indices.size()) {
        warn("device: draw range exceeds index buffer");
        return;
    }
    const shader::Program *vp = program(_current.vertexProgram);
    const shader::Program *fp = program(_current.fragmentProgram);
    if (!vp || !fp) {
        warn("device: draw with unbound programs dropped");
        return;
    }

    _stats.noteDraw(topology, static_cast<int>(index_count),
                    indexTypeBytes(ib->type), vp->instructionCount(),
                    fp->instructionCount(), fp->textureInstructionCount());

    if (_sink) {
        DrawCall call;
        call.vertices = vb;
        call.indexData = ib;
        call.firstIndex = first_index;
        call.indexCount = index_count;
        call.topology = topology;
        call.vertexProgram = vp;
        call.fragmentProgram = fp;
        call.state = _current;
        for (int u = 0; u < shader::kMaxSamplers; ++u)
            call.textures[u] = texture(_current.textures[u]);
        _sink->draw(call);
    }
}

void
Device::endFrame()
{
    flushTextures();
    _stats.noteEndFrame();
    if (_sink)
        _sink->endFrame();
}

const VertexBufferData *
Device::vertexBuffer(std::uint32_t id) const
{
    auto it = _vertexBuffers.find(id);
    return it != _vertexBuffers.end() ? &it->second : nullptr;
}

const IndexBufferData *
Device::indexBuffer(std::uint32_t id) const
{
    auto it = _indexBuffers.find(id);
    return it != _indexBuffers.end() ? &it->second : nullptr;
}

const tex::Texture2D *
Device::texture(std::uint32_t id) const
{
    auto it = _textures.find(id);
    if (it == _textures.end())
        return nullptr;
    std::unique_ptr<tex::Texture2D> &texture = it->second.texture;
    // A pending id is built with the rest of its run; a texture created
    // without a sink is built alone.
    if (!texture)
        flushTextures();
    if (!texture)
        texture = std::move(buildTextures({{id, it->second.spec}})[0]);
    return texture.get();
}

const shader::Program *
Device::program(std::uint32_t id) const
{
    auto it = _programs.find(id);
    return it != _programs.end() ? it->second.get() : nullptr;
}

} // namespace wc3d::api
