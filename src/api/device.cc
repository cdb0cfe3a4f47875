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
Device::submit(const Command &cmd)
{
    if (isStateCall(cmd))
        _stats.noteStateCall();
    apply(cmd);
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
    // A redefined id appears twice in the run: the later texture
    // replaces (and frees) the earlier one only after the sink has
    // seen it, as when each was built on creation.
    for (std::size_t i = 0; i < run.size(); ++i) {
        std::unique_ptr<tex::Texture2D> &slot =
            _textures.at(run[i].first).texture;
        slot = std::move(built[i]);
        _sink->textureCreated(run[i].first, *slot);
    }
}

void
Device::apply(const Command &cmd)
{
    if (!std::holds_alternative<CreateTextureCmd>(cmd))
        flushTextures();

    if (const auto *c = std::get_if<CreateVertexBufferCmd>(&cmd)) {
        auto [it, fresh] = _vertexBuffers.emplace(c->id, c->data);
        if (!fresh) {
            warn("device: vertex buffer %u redefined", c->id);
            it->second = c->data;
        }
        if (_sink)
            _sink->vertexBufferCreated(c->id, it->second);
    } else if (const auto *c = std::get_if<CreateIndexBufferCmd>(&cmd)) {
        auto [it, fresh] = _indexBuffers.emplace(c->id, c->data);
        if (!fresh) {
            warn("device: index buffer %u redefined", c->id);
            it->second = c->data;
        }
        if (_sink)
            _sink->indexBufferCreated(c->id, it->second);
    } else if (const auto *c = std::get_if<CreateTextureCmd>(&cmd)) {
        auto [it, fresh] = _textures.try_emplace(c->id);
        if (!fresh)
            warn("device: texture %u redefined", c->id);
        it->second = TextureEntry{c->spec, nullptr};
        if (_sink)
            _pendingTextures.emplace_back(c->id, c->spec);
    } else if (const auto *c = std::get_if<CreateProgramCmd>(&cmd)) {
        auto result = shader::assemble(c->source, c->kind,
                                       format("prog%u", c->id));
        if (!result.ok) {
            warn("device: program %u failed to assemble: %s", c->id,
                 result.error.c_str());
            return;
        }
        auto program =
            std::make_unique<shader::Program>(std::move(result.program));
        shader::Program *ptr = program.get();
        _programs[c->id] = std::move(program);
        if (_sink)
            _sink->programCreated(c->id, *ptr);
    } else if (const auto *c = std::get_if<BindProgramCmd>(&cmd)) {
        if (c->id != 0 && !_programs.count(c->id)) {
            warn("device: binding unknown program %u", c->id);
            return;
        }
        if (c->kind == shader::ProgramKind::Vertex) {
            _current.vertexProgram = c->id;
        } else {
            _current.fragmentProgram = c->id;
        }
    } else if (const auto *c = std::get_if<BindTextureCmd>(&cmd)) {
        if (c->unit >= shader::kMaxSamplers) {
            warn("device: texture unit %u out of range", c->unit);
            return;
        }
        if (c->id != 0 && !_textures.count(c->id)) {
            warn("device: binding unknown texture %u", c->id);
            return;
        }
        _current.textures[c->unit] = c->id;
        _current.samplers[c->unit] = c->sampler;
    } else if (const auto *c = std::get_if<SetDepthStencilCmd>(&cmd)) {
        _current.depthStencil = c->state;
    } else if (const auto *c = std::get_if<SetBlendCmd>(&cmd)) {
        _current.blend = c->state;
    } else if (const auto *c = std::get_if<SetCullModeCmd>(&cmd)) {
        _current.cullMode = c->mode;
    } else if (const auto *c = std::get_if<SetConstantCmd>(&cmd)) {
        std::uint32_t id = c->kind == shader::ProgramKind::Vertex
                               ? _current.vertexProgram
                               : _current.fragmentProgram;
        if (shader::Program *p = mutableProgram(id)) {
            p->setConstant(static_cast<int>(c->index), c->value);
        } else {
            warn("device: constant set with no program bound");
        }
    } else if (const auto *c = std::get_if<ClearCmd>(&cmd)) {
        if (_sink)
            _sink->clear(*c);
    } else if (const auto *c = std::get_if<DrawCmd>(&cmd)) {
        const VertexBufferData *vb = vertexBuffer(c->vertexBuffer);
        const IndexBufferData *ib = indexBuffer(c->indexBuffer);
        if (!vb || !ib) {
            warn("device: draw references unknown buffers (%u, %u)",
                 c->vertexBuffer, c->indexBuffer);
            return;
        }
        if (c->firstIndex + c->indexCount > ib->indices.size()) {
            warn("device: draw range exceeds index buffer");
            return;
        }
        const shader::Program *vp = program(_current.vertexProgram);
        const shader::Program *fp = program(_current.fragmentProgram);
        if (!vp || !fp) {
            warn("device: draw with unbound programs dropped");
            return;
        }

        _stats.noteDraw(c->topology, static_cast<int>(c->indexCount),
                        indexTypeBytes(ib->type), vp->instructionCount(),
                        fp->instructionCount(),
                        fp->textureInstructionCount());

        if (_sink) {
            DrawCall call;
            call.vertices = vb;
            call.indexData = ib;
            call.firstIndex = c->firstIndex;
            call.indexCount = c->indexCount;
            call.topology = c->topology;
            call.vertexProgram = vp;
            call.fragmentProgram = fp;
            call.state = _current;
            for (int u = 0; u < shader::kMaxSamplers; ++u)
                call.textures[u] = texture(_current.textures[u]);
            _sink->draw(call);
        }
    } else if (std::get_if<EndFrameCmd>(&cmd)) {
        _stats.noteEndFrame();
        if (_sink)
            _sink->endFrame();
    } else {
        panic("device: unhandled command");
    }
}

std::uint32_t
Device::createVertexBuffer(VertexBufferData data)
{
    std::uint32_t id = _nextId++;
    submit(CreateVertexBufferCmd{id, std::move(data)});
    return id;
}

std::uint32_t
Device::createIndexBuffer(IndexBufferData data)
{
    std::uint32_t id = _nextId++;
    submit(CreateIndexBufferCmd{id, std::move(data)});
    return id;
}

std::uint32_t
Device::createTexture(const TextureSpec &spec)
{
    std::uint32_t id = _nextId++;
    submit(CreateTextureCmd{id, spec});
    return id;
}

std::uint32_t
Device::createProgram(shader::ProgramKind kind, const std::string &source)
{
    std::uint32_t id = _nextId++;
    submit(CreateProgramCmd{id, kind, source});
    return _programs.count(id) ? id : 0;
}

void
Device::bindProgram(shader::ProgramKind kind, std::uint32_t id)
{
    submit(BindProgramCmd{kind, id});
}

void
Device::bindTexture(std::uint32_t unit, std::uint32_t id,
                    const tex::SamplerState &sampler)
{
    submit(BindTextureCmd{unit, id, sampler});
}

void
Device::setDepthStencil(const frag::DepthStencilState &state)
{
    submit(SetDepthStencilCmd{state});
}

void
Device::setBlend(const frag::BlendState &state)
{
    submit(SetBlendCmd{state});
}

void
Device::setCullMode(geom::CullMode mode)
{
    submit(SetCullModeCmd{mode});
}

void
Device::setConstant(shader::ProgramKind kind, std::uint32_t index,
                    Vec4 value)
{
    submit(SetConstantCmd{kind, index, value});
}

void
Device::clear(const ClearCmd &cmd)
{
    submit(cmd);
}

void
Device::draw(std::uint32_t vertex_buffer, std::uint32_t index_buffer,
             std::uint32_t first_index, std::uint32_t index_count,
             geom::PrimitiveType topology)
{
    submit(DrawCmd{vertex_buffer, index_buffer, first_index, index_count,
                   topology});
}

void
Device::endFrame()
{
    submit(EndFrameCmd{});
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
