#include "gpu/simulator.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <span>

#include "common/log.hh"
#include "common/prof.hh"
#include "common/threadpool.hh"
#include "fragment/rop.hh"
#include "geom/assembly.hh"
#include "geom/clipcull.hh"
#include "geom/viewport.hh"
#include "shader/decoded.hh"
#include "shader/interp.hh"

namespace wc3d::gpu {

namespace {

/**
 * Ready @p qs for shading one quad: clear-plan reset of each lane (so a
 * reused state behaves like a freshly zeroed one) plus interpolation of
 * the fragment inputs the program actually reads, sharing one
 * perspective basis per lane across all varying slots.
 */
void
prepareQuadState(shader::QuadState &qs, const shader::DecodedProgram &dec,
                 std::uint32_t fp_input_mask,
                 const raster::TriangleSetup &setup,
                 const raster::RasterQuad &quad, std::uint8_t live)
{
    for (int l = 0; l < 4; ++l) {
        qs.covered[l] = (live >> l) & 1;
        shader::LaneState &lane = qs.lanes[l];
        dec.prepareLane(lane);
        raster::TriangleSetup::VaryingBasis basis =
            setup.varyingBasis(quad.lambda[l]);
        std::uint32_t mask = fp_input_mask;
        while (mask) {
            int slot = std::countr_zero(mask);
            mask &= mask - 1;
            if (slot < geom::kMaxVaryings) {
                lane.inputs[slot] =
                    setup.interpolateVarying(basis, slot);
            }
        }
    }
}

/** May HZ cull quads under this depth/stencil state? */
bool
hzUsable(const frag::DepthStencilState &ds)
{
    if (!ds.depthTest)
        return false;
    // A quad whose min depth exceeds the tile max fails Less/LEqual/
    // Equal for every pixel; other functions cannot be culled by a
    // max-depth hierarchy.
    bool func_ok = ds.depthFunc == frag::CompareFunc::Less ||
                   ds.depthFunc == frag::CompareFunc::LEqual ||
                   ds.depthFunc == frag::CompareFunc::Equal;
    if (!func_ok)
        return false;
    // Stencil side effects on depth-fail (shadow volumes) must still
    // execute, so HZ has to be bypassed ("it may be disabled for some
    // z and stencil modes").
    if (ds.stencilTest) {
        for (const frag::StencilFace *face : {&ds.front, &ds.back}) {
            if (face->sfail != frag::StencilOp::Keep ||
                face->zfail != frag::StencilOp::Keep) {
                return false;
            }
        }
    }
    return true;
}

/**
 * Run the vertex program on one fetched vertex (pure). @p lane is a
 * reusable arena state: the clear plan of the pre-decoded program
 * resets exactly the registers whose stale contents could be observed.
 */
geom::TransformedVertex
shadeVertex(const shader::Program &vp, const api::VertexData &v,
            shader::Interpreter &interp, shader::LaneState &lane)
{
    vp.decoded().prepareLane(lane);
    lane.inputs[0] = Vec4(v.position, 1.0f);
    lane.inputs[1] = Vec4(v.normal, 0.0f);
    lane.inputs[2] = {v.uv.x, v.uv.y, 0.0f, 1.0f};
    lane.inputs[3] = v.color;
    interp.run(vp, lane);

    geom::TransformedVertex tv;
    tv.clip = lane.outputs[0];
    for (int k = 0; k + 1 < shader::kMaxOutputs; ++k)
        tv.varyings[static_cast<std::size_t>(k)] = lane.outputs[k + 1];
    return tv;
}

} // namespace

struct GpuSimulator::QuadContextInfo
{
    const api::DrawCall *call = nullptr;
    bool backFace = false;
    bool earlyZ = true;
    bool hzOk = true;
    bool zsEnabled = true;      ///< depth or stencil test enabled
    bool colorMaskOff = false;
    bool usesKill = false;
    std::uint32_t fpInputMask = 0;
};

/**
 * One binned post-geometry triangle, in draw order. The inclusive band
 * range records which bins the triangle was appended to, so the merge
 * can walk them back.
 */
struct GpuSimulator::TiledTri
{
    raster::TriangleSetup setup;
    bool backFace = false;
    std::uint16_t ty0 = 0;
    std::uint16_t ty1 = 0;
};

/**
 * Everything a band worker produces that the merge must consume: the
 * deferred cache-access logs and, per bin entry, where its accesses
 * start in each log. Counters and statistics are NOT here — they are
 * order-insensitive sums kept in the per-slot TileExec shards.
 */
struct GpuSimulator::TileOutput
{
    /** One deferred framebuffer-cache access (the surface is implied
     *  by the log it sits in). */
    struct SurfEvent
    {
        std::int32_t x = 0;
        std::int32_t y = 0;
        std::uint8_t kind = 0;    ///< 0 read, 1 write, 2 no-fetch write
    };

    /** Log index of `tex`; logs 0 and 1 are surf[0] and surf[1]. */
    static constexpr int kTexLog = 2;

    /**
     * The accesses of one bin entry (one triangle in this band), in
     * traversal order: from its begin to the next run's begin (or to
     * the end of the log) in each log.
     */
    struct TileRun
    {
        std::array<std::uint32_t, 3> begin{}; ///< first event per log
    };

    std::vector<std::uint32_t> bin; ///< triangle seqs, draw order
    std::vector<TileRun> runs;      ///< parallel to bin (filled by worker)
    std::array<std::vector<SurfEvent>, 2> surf; ///< depth, colour
    std::vector<tex::BlockEvent> tex; ///< texture block accesses
    std::uint32_t cursor = 0;       ///< merge-phase run cursor

    bool empty() const { return bin.empty(); }

    std::uint32_t
    logSize(int log) const
    {
        return static_cast<std::uint32_t>(
            log == kTexLog ? tex.size()
                           : surf[static_cast<std::size_t>(log)].size());
    }

    /** First event of run @p run in @p log; logSize past the last. */
    std::uint32_t
    logBegin(int log, std::size_t run) const
    {
        return run < runs.size()
                   ? runs[run].begin[static_cast<std::size_t>(log)]
                   : logSize(log);
    }

    void
    clearDraw()
    {
        bin.clear();
        runs.clear();
        surf[0].clear();
        surf[1].clear();
        tex.clear();
        cursor = 0;
    }
};

/**
 * One draw's deferred accesses in reconstructed submission order: per
 * log, contiguous pieces of the bands' logs. Built by the order pass of
 * the merge, consumed by the replay tasks.
 */
struct GpuSimulator::ReplayOrder
{
    std::array<std::vector<std::span<const TileOutput::SurfEvent>>, 2>
        surf;
    std::vector<std::span<const tex::BlockEvent>> tex;

    /** Append events [begin, end) of @p log to @p pieces. */
    template <typename Event>
    static void
    append(std::vector<std::span<const Event>> &pieces,
           const std::vector<Event> &log, std::uint32_t begin,
           std::uint32_t end)
    {
        if (begin != end)
            pieces.emplace_back(log.data() + begin, end - begin);
    }

    /** Append the events of run @p run of @p out. */
    void
    appendRun(const TileOutput &out, std::uint32_t run)
    {
        for (int s = 0; s < 2; ++s) {
            auto i = static_cast<std::size_t>(s);
            append(surf[i], out.surf[i], out.logBegin(s, run),
                   out.logBegin(s, run + 1));
        }
        append(tex, out.tex, out.logBegin(TileOutput::kTexLog, run),
               out.logBegin(TileOutput::kTexLog, run + 1));
    }

    void
    clear()
    {
        surf[0].clear();
        surf[1].clear();
        tex.clear();
    }
};

/**
 * Per-worker-slot execution state for band work items: a private
 * interpreter and sampler whose texture-block accesses are logged, z and
 * colour units whose cache accesses are rerouted to the current band's
 * log, private counter and HZ stats shards, and a private rasterizer for
 * the band walk. The interpreter's and sampler's own statistics
 * are shards too: the merge folds them into the counters. The word
 * reads/writes the units perform hit the shared surfaces directly —
 * safe, because a band's pixels belong to exactly one work item and a
 * slot runs one work item at a time.
 */
struct GpuSimulator::TileExec final : shader::TextureSampleHandler,
                                      tex::TexelAccessListener
{
    struct DepthSink final : frag::SurfaceAccessSink
    {
        TileExec *exec = nullptr;
        void
        surfaceAccess(int x, int y, bool is_write, bool no_fetch) override
        {
            exec->logSurf(0, x, y, is_write, no_fetch);
        }
    };

    struct ColorSink final : frag::SurfaceAccessSink
    {
        TileExec *exec = nullptr;
        void
        surfaceAccess(int x, int y, bool is_write, bool no_fetch) override
        {
            exec->logSurf(1, x, y, is_write, no_fetch);
        }
    };

    const tex::TextureCache &texCache; ///< line numbering only
    shader::Interpreter interp;
    tex::Sampler sampler;
    shader::QuadState quad;        ///< reusable shading state
    raster::Rasterizer raster;     ///< band traversal
    frag::ZStencilUnit zUnit;
    frag::ColorUnit colorUnit;
    DepthSink depthSink;
    ColorSink colorSink;
    PipelineCounters counters;     ///< fragment-stage counter shard
    raster::HzStats hzStats;
    const api::DrawCall *call = nullptr;
    TileOutput *out = nullptr;     ///< current work item's log

    explicit TileExec(GpuSimulator &sim)
        : texCache(sim._texCache),
          raster(sim._config.width, sim._config.height),
          zUnit(&sim._depth), colorUnit(&sim._color)
    {
        sampler.setListener(this);
        depthSink.exec = this;
        colorSink.exec = this;
        zUnit.setAccessSink(&depthSink);
        colorUnit.setAccessSink(&colorSink);
    }

    void
    logSurf(std::uint8_t surface, int x, int y, bool is_write,
            bool no_fetch)
    {
        out->surf[surface].push_back(
            {x, y,
             static_cast<std::uint8_t>(no_fetch ? 2 : (is_write ? 1 : 0))});
    }

    /** Sample through the draw's own texture and sampler bindings. */
    void
    sampleQuad(int unit, const Vec4 coords[4], float lod_bias,
               Vec4 out_colors[4]) override
    {
        WC3D_ASSERT(unit >= 0 && unit < shader::kMaxSamplers);
        const tex::Texture2D *texture =
            call->textures[static_cast<std::size_t>(unit)];
        if (!texture) {
            for (int l = 0; l < 4; ++l)
                out_colors[l] = {0.0f, 0.0f, 0.0f, 1.0f};
            return;
        }
        sampler.sampleQuad(*texture,
                           call->state.samplers[static_cast<std::size_t>(
                               unit)],
                           coords, lod_bias, out_colors);
    }

    void
    blockAccess(const tex::Texture2D &texture, int level, int bx, int by,
                int refs) override
    {
        out->tex.push_back(
            texCache.blockEvent(texture, level, bx, by, refs));
    }
};

GpuSimulator::GpuSimulator(const GpuConfig &config)
    : _config(config),
      _depth(frag::SurfaceKind::DepthStencil, memsys::Client::ZStencil,
             config.width, config.height, config.zCache, &_memory),
      _color(frag::SurfaceKind::Color, memsys::Client::Color, config.width,
             config.height, config.colorCache, &_memory),
      _hz(config.width, config.height),
      _vertexCache(config.vertexCacheEntries),
      _texCache(config.textureCache, &_memory),
      _tileOut(static_cast<std::size_t>(
          (config.height + raster::kUpperTile - 1) / raster::kUpperTile)),
      _order(std::make_unique<ReplayOrder>())
{
    _depth.fastClear(frag::packDepthStencil(1.0f, 0));
    _color.fastClear(0xff000000u);
}

GpuSimulator::~GpuSimulator() = default;

void
GpuSimulator::vertexBufferCreated(std::uint32_t,
                                  const api::VertexBufferData &data)
{
    // Startup upload: the CP moves vertex data into GPU local memory
    // ("the vertex geometry data is sent at startup time to the GPU and
    // stored in its local memory").
    _memory.write(memsys::Client::CommandProcessor, data.totalBytes());
}

void
GpuSimulator::indexBufferCreated(std::uint32_t,
                                 const api::IndexBufferData &data)
{
    _memory.write(memsys::Client::CommandProcessor, data.totalBytes());
}

void
GpuSimulator::textureCreated(std::uint32_t, tex::Texture2D &texture)
{
    texture.bindMemory(_memory);
    // Logged texture events carry 32-bit line numbers.
    WC3D_ASSERT(_texCache.lineNumbersFit(texture));
    _memory.write(memsys::Client::CommandProcessor,
                  texture.storageBytes());
}

void
GpuSimulator::programCreated(std::uint32_t, const shader::Program &)
{
    _memory.write(memsys::Client::CommandProcessor,
                  static_cast<std::uint64_t>(_config.commandBytes));
}

void
GpuSimulator::clear(const api::ClearCmd &cmd)
{
    WC3D_PROF_SCOPE("gpu.clear");
    _memory.read(memsys::Client::CommandProcessor,
                 static_cast<std::uint64_t>(_config.commandBytes));
    if (cmd.color)
        _color.fastClear(cmd.colorValue);
    if (cmd.depth && cmd.stencil) {
        _depth.fastClear(
            frag::packDepthStencil(cmd.depthValue, cmd.stencilValue));
        _hz.clear(cmd.depthValue);
    } else if (cmd.stencil) {
        // Stencil-only fast clear (hierarchical-stencil style): update
        // the stencil field in place, keep depth intact, no traffic.
        for (int y = 0; y < _depth.height(); ++y) {
            for (int x = 0; x < _depth.width(); ++x) {
                std::uint32_t w = _depth.word(x, y);
                _depth.setWord(x, y, (w & ~0xffu) | cmd.stencilValue);
            }
        }
    } else if (cmd.depth) {
        for (int y = 0; y < _depth.height(); ++y) {
            for (int x = 0; x < _depth.width(); ++x) {
                std::uint32_t w = _depth.word(x, y);
                _depth.setWord(
                    x, y,
                    (frag::packDepthStencil(cmd.depthValue, 0) & ~0xffu) |
                        (w & 0xffu));
            }
        }
        _hz.clear(cmd.depthValue);
    }
}

void
GpuSimulator::shadeVertices(const api::DrawCall &call)
{
    WC3D_PROF_SCOPE("geom.vertex");
    const auto &vertices = call.vertices->vertices;
    int stride = call.vertices->strideBytes();
    int bytes_per_index = api::indexTypeBytes(call.indexData->type);
    const shader::Program &vp = *call.vertexProgram;

    // Pass 1 (in order): replay the vertex cache and memory accounting
    // index by index, turning each miss into a pure shading job and
    // each hit into a reference to the job that filled its slot. Cache
    // behaviour does not depend on shading results, so the FIFO
    // sequence is fixed before any vertex is shaded.
    std::vector<std::uint32_t> job_vertex; // job -> (clamped) source index
    std::vector<std::uint32_t> stream_job(call.indexCount);
    std::vector<std::uint32_t> slot_job(
        static_cast<std::size_t>(_vertexCache.entries()), 0);
    job_vertex.reserve(call.indexCount);

    for (std::uint32_t i = 0; i < call.indexCount; ++i) {
        std::uint32_t index =
            call.indexData->indices[call.firstIndex + i];
        _memory.read(memsys::Client::Vertex,
                     static_cast<std::uint64_t>(bytes_per_index));
        int slot = _vertexCache.lookup(index);
        if (slot >= 0) {
            ++_counters.vertexCacheHits;
            stream_job[i] = slot_job[static_cast<std::size_t>(slot)];
            continue;
        }
        ++_counters.vertexCacheMisses;
        if (index >= vertices.size()) {
            warn("gpu: index %u out of range, clamping", index);
            index = static_cast<std::uint32_t>(vertices.size() - 1);
        }
        _memory.read(memsys::Client::Vertex,
                     static_cast<std::uint64_t>(stride));
        _counters.vertexInstructions +=
            static_cast<std::uint64_t>(vp.instructionCount());
        auto job = static_cast<std::uint32_t>(job_vertex.size());
        job_vertex.push_back(index);
        slot = _vertexCache.insert(index);
        slot_job[static_cast<std::size_t>(slot)] = job;
        stream_job[i] = job;
    }

    // Pass 2 (on the pool, inline at 1 thread): shade the misses. The
    // interpreter is pure, so job results are independent of scheduling.
    std::vector<geom::TransformedVertex> shaded(job_vertex.size());
    parallelForRanges(
        ThreadPool::global(), job_vertex.size(),
        [&](int, std::size_t begin, std::size_t end) {
            shader::Interpreter interp;
            shader::LaneState lane;
            for (std::size_t j = begin; j < end; ++j) {
                shaded[j] = shadeVertex(
                    vp, vertices[job_vertex[j]], interp, lane);
            }
        });

    // Pass 3: scatter into the post-transform stream.
    for (std::uint32_t i = 0; i < call.indexCount; ++i)
        _stream[i] = shaded[stream_job[i]];
}

void
GpuSimulator::draw(const api::DrawCall &call)
{
    WC3D_PROF_SCOPE("gpu.draw");
    WC3D_ASSERT(call.vertices && call.indexData && call.vertexProgram &&
                call.fragmentProgram);

    int bytes_per_index = api::indexTypeBytes(call.indexData->type);

    // Command processor: parse the draw and stream the (dynamic) index
    // data into GPU memory; the vertex loader will read it back.
    _memory.read(memsys::Client::CommandProcessor,
                 static_cast<std::uint64_t>(_config.commandBytes));
    _memory.write(memsys::Client::CommandProcessor,
                  static_cast<std::uint64_t>(call.indexCount) *
                      bytes_per_index);

    // Pre-decode both bound programs on the submitting thread, before
    // any worker can race the lazily cached decoded form: workers must
    // only read it (the pool's queue provides the happens-before for
    // the read-only accesses after).
    call.vertexProgram->decoded();
    const shader::DecodedProgram &fp_dec = call.fragmentProgram->decoded();

    // --- Vertex stage -----------------------------------------------
    _vertexCache.invalidate(); // indices are batch-relative
    _stream.resize(call.indexCount);
    shadeVertices(call);
    _counters.indices += call.indexCount;

    // --- Primitive assembly + clip/cull + traversal -----------------
    _assembled.clear();
    geom::assembleTriangles(call.topology,
                            static_cast<int>(call.indexCount), _assembled);
    _counters.trianglesAssembled += _assembled.size();

    QuadContextInfo info;
    info.call = &call;
    info.usesKill = call.fragmentProgram->usesKill();
    info.earlyZ = !info.usesKill;
    const auto &ds = call.state.depthStencil;
    info.zsEnabled = ds.depthTest || ds.stencilTest;
    info.hzOk = _config.hzEnabled && hzUsable(ds);
    info.colorMaskOff = !call.state.blend.colorWriteMask;
    info.fpInputMask = fp_dec.inputReadMask();

    drawTiled(call, info);
}

void
GpuSimulator::drawTiled(const api::DrawCall &call,
                        const QuadContextInfo &info)
{
    geom::Viewport vp_rect{0, 0, _config.width, _config.height};

    // --- Binning: walk the post-geometry primitives once, in draw
    // order, appending each set-up triangle to the bins of the bands
    // its scissored bounding box overlaps. ----------------------------
    {
        WC3D_PROF_SCOPE("raster.bin");
        _tiledTris.clear();
        for (const geom::AssembledTriangle &tri : _assembled) {
            geom::TransformedVertex verts[3] = {_stream[tri.v[0]],
                                                _stream[tri.v[1]],
                                                _stream[tri.v[2]]};
            _clippedTris.clear();
            geom::TriangleFate fate =
                geom::clipCull(verts, call.state.cullMode, _clippedTris);
            switch (fate) {
              case geom::TriangleFate::Clipped:
                ++_counters.trianglesClipped;
                continue;
              case geom::TriangleFate::Culled:
                ++_counters.trianglesCulled;
                continue;
              case geom::TriangleFate::Traversed:
                ++_counters.trianglesTraversed;
                break;
            }

            for (const auto &clip_tri : _clippedTris) {
                float area = geom::projectedSignedArea(
                    clip_tri[0].clip, clip_tri[1].clip, clip_tri[2].clip);
                geom::ScreenTriangle screen =
                    geom::toScreenTriangle(clip_tri, vp_rect);
                raster::TriangleSetup setup = raster::setupTriangle(
                    screen, _config.width, _config.height);
                if (!setup.valid)
                    continue;
                TiledTri tt;
                tt.setup = setup;
                tt.backFace = area < 0.0f;
                tt.ty0 = static_cast<std::uint16_t>(
                    setup.minY / raster::kUpperTile);
                tt.ty1 = static_cast<std::uint16_t>(
                    setup.maxY / raster::kUpperTile);
                auto seq = static_cast<std::uint32_t>(_tiledTris.size());
                _tiledTris.push_back(tt);
                for (int ty = tt.ty0; ty <= tt.ty1; ++ty)
                    _tileOut[static_cast<std::size_t>(ty)].bin.push_back(seq);
            }
        }
    }

    if (_tiledTris.empty())
        return;

    // --- Band phase: per-band work items run raster + HZ + z&stencil +
    // shade + ROP end to end with zero cross-band synchronization.
    // They are dispatched top to bottom: a fixed order that keeps the
    // 1-thread pool (which runs tasks inline at submit) on one
    // canonical schedule. ----------------------------------------------
    {
        ThreadPool &pool = ThreadPool::global();
        while (_tileExec.size() < static_cast<std::size_t>(pool.threads()))
            _tileExec.push_back(std::make_unique<TileExec>(*this));
        TaskGroup group(pool);
        for (std::size_t band = 0; band < _tileOut.size(); ++band) {
            if (_tileOut[band].empty())
                continue;
            group.run([this, band, &info] {
                WC3D_PROF_SCOPE("raster.tile");
                auto slot = static_cast<std::size_t>(
                    ThreadPool::currentSlot());
                TileExec &exec = *_tileExec[slot];
                TileOutput &out = _tileOut[band];
                exec.call = info.call;
                exec.out = &out;
                processTile(exec, out, static_cast<int>(band), info);
                exec.out = nullptr;
            });
        }
        group.wait();
    }

    // --- Merge: fold the stat shards and replay the deferred cache
    // accesses into the shared models in submission order. ------------
    {
        WC3D_PROF_SCOPE("raster.merge");
        mergeTileResults();
    }
}

void
GpuSimulator::processTile(TileExec &exec, TileOutput &out, int band,
                          const QuadContextInfo &base_info)
{
    int y0 = band * raster::kUpperTile;
    out.runs.reserve(out.bin.size());
    for (std::uint32_t seq : out.bin) {
        const TiledTri &tt =
            _tiledTris[static_cast<std::size_t>(seq)];
        QuadContextInfo info = base_info;
        info.backFace = tt.backFace;
        TileOutput::TileRun run;
        for (int log = 0; log < 3; ++log)
            run.begin[static_cast<std::size_t>(log)] = out.logSize(log);
        out.runs.push_back(run);
        // Shade each quad as the traversal emits it: the walk reads
        // only the set-up triangle, never the z/HZ state a quad updates,
        // so the quad stream is the same as traversing first.
        exec.raster.rasterizeTile(
            tt.setup, y0, y0 + raster::kUpperTile,
            [&](const raster::RasterQuad &quad) {
                processTileQuad(exec, info, tt.setup, quad);
            });
    }
}

void
GpuSimulator::processTileQuad(TileExec &exec, const QuadContextInfo &info,
                              const raster::TriangleSetup &setup,
                              const raster::RasterQuad &quad)
{
    const api::DrawCall &call = *info.call;
    PipelineCounters &ctr = exec.counters;

    ++ctr.rasterQuads;
    if (quad.full())
        ++ctr.rasterFullQuads;
    ctr.rasterFragments += static_cast<std::uint64_t>(quad.coveredCount());

    std::uint8_t live = quad.coverage;

    // --- Hierarchical Z (the shared arrays are band-exclusive) -------
    bool hz_accepted = false;
    switch (hzTestQuad(info, quad, exec.hzStats)) {
      case HzOutcome::Culled:
        ++ctr.quadsRemovedHz;
        return;
      case HzOutcome::Accepted:
        hz_accepted = true;
        break;
      case HzOutcome::Pass:
        break;
    }

    bool z_applied = false;

    // --- Early z & stencil -------------------------------------------
    if (info.earlyZ) {
        z_applied = true;
        if (!zStencilQuad(info, quad, live, hz_accepted, exec.zUnit,
                          ctr)) {
            ++ctr.quadsRemovedZStencil;
            return;
        }
    }

    // --- Colour-mask shortcut ----------------------------------------
    if (info.colorMaskOff && !info.usesKill) {
        Vec4 dummy[4] = {};
        exec.colorUnit.writeQuad(call.state.blend, quad.x, quad.y, dummy,
                                 live);
        ++ctr.quadsRemovedColorMask;
        return;
    }

    // --- Fragment shading --------------------------------------------
    ++ctr.shadedQuads;
    ctr.shadedFragments += static_cast<std::uint64_t>(std::popcount(live));

    shader::QuadState &qs = exec.quad;
    prepareQuadState(qs, call.fragmentProgram->decoded(), info.fpInputMask,
                     setup, quad, live);
    // Instruction and sampling counts accrue in exec.interp and
    // exec.sampler; the merge folds them into the counters.
    exec.interp.runQuad(*call.fragmentProgram, qs, &exec);

    // --- Alpha test (shader KIL) -------------------------------------
    for (int l = 0; l < 4; ++l) {
        if (qs.lanes[l].killed)
            live &= static_cast<std::uint8_t>(~(1u << l));
    }
    if (live == 0) {
        ++ctr.quadsRemovedAlpha;
        return;
    }

    // --- Late z & stencil --------------------------------------------
    if (!z_applied) {
        if (!zStencilQuad(info, quad, live, false, exec.zUnit, ctr)) {
            ++ctr.quadsRemovedZStencil;
            return;
        }
    }

    // --- Colour write / blend ----------------------------------------
    Vec4 colors[4];
    for (int l = 0; l < 4; ++l)
        colors[l] = qs.lanes[l].outputs[0];
    bool updated = exec.colorUnit.writeQuad(call.state.blend, quad.x,
                                            quad.y, colors, live);
    if (updated) {
        ++ctr.quadsBlended;
        ctr.blendedFragments +=
            static_cast<std::uint64_t>(std::popcount(live));
    } else {
        ++ctr.quadsRemovedColorMask;
    }
}

void
GpuSimulator::mergeTileResults()
{
    // Statistic shards are order-insensitive sums; fold them in
    // ascending slot order. The slot's interpreter and sampler ran
    // fragment programs only, so their statistics are the fragment
    // stage's instruction and texture charge.
    for (auto &exec_ptr : _tileExec) {
        TileExec &exec = *exec_ptr;
        PipelineCounters &ctr = exec.counters;
        ctr.fragmentInstructions += exec.interp.stats().instructionsExecuted;
        ctr.fragmentTexInstructions +=
            exec.interp.stats().textureInstructions;
        ctr.textureRequests += exec.sampler.stats().requests;
        ctr.bilinearSamples += exec.sampler.stats().bilinearSamples;
        exec.interp.resetStats();
        exec.sampler.resetStats();
        _counters.add(ctr);
        ctr = PipelineCounters{};
        _hz.mergeStats(exec.hzStats);
        exec.hzStats = raster::HzStats{};
    }

    orderAccesses();
    replayAccesses();

    for (TileOutput &out : _tileOut)
        out.clearDraw();
    _tiledTris.clear();
    _order->clear();
}

void
GpuSimulator::orderAccesses()
{
    // Reconstruct submission order: primitives in draw order; within
    // one primitive, its band runs in band order. The rasterizer walks
    // upper-tile rows outermost and a band is one such row, so this
    // concatenation is the full walk's order, and the replay feeds every
    // shared model its exact sequential access stream, independent of
    // thread count.
    for (const TiledTri &tt : _tiledTris) {
        for (int ty = tt.ty0; ty <= tt.ty1; ++ty) {
            // Bins were appended in this same order, so the band's next
            // unconsumed run belongs to this primitive.
            TileOutput &out = _tileOut[static_cast<std::size_t>(ty)];
            _order->appendRun(out, out.cursor++);
        }
    }
}

void
GpuSimulator::replayAccesses()
{
    // Chunk counts depend only on the pool size (one chunk, i.e. a
    // plain in-order replay, at one thread). L0 warm-up is a short scan,
    // so L0 takes several chunks per thread for balance; L1's often runs
    // back to the draw start, so L1 takes one per thread.
    ThreadPool &pool = ThreadPool::global();
    int threads = pool.threads();

    // Depth, colour and the texture L0 chunks replay at once. The two
    // surfaces replay sequentially (fills and writebacks depend on the
    // block directory and the end-of-draw words), each on its own task
    // and with its traffic on a private tally, folded after the join.
    std::array<memsys::MemoryController, 2> tally;
    _depth.setMemory(&tally[0]);
    _color.setMemory(&tally[1]);
    {
        TaskGroup group(pool);
        for (int s = 0; s < 2; ++s) {
            if (_order->surf[static_cast<std::size_t>(s)].empty())
                continue;
            group.run([this, s] {
                WC3D_PROF_SCOPE("raster.replay");
                replaySurface(s);
            });
        }
        int l0 = _texCache.planL0Replay(_order->tex,
                                        threads > 1 ? 4 * threads : 1);
        for (int k = 0; k < l0; ++k) {
            group.run([this, k] {
                WC3D_PROF_SCOPE("raster.replay");
                _texCache.replayL0(k);
            });
        }
        group.wait();
    }
    _depth.setMemory(&_memory);
    _color.setMemory(&_memory);
    for (const memsys::MemoryController &t : tally) {
        for (int c = 0; c < memsys::kNumClients; ++c) {
            auto client = static_cast<memsys::Client>(c);
            _memory.read(client, t.traffic().readBytes[c]);
            _memory.write(client, t.traffic().writeBytes[c]);
        }
    }

    // Texture L1 over the L0 chunks' miss lists.
    {
        TaskGroup group(pool);
        int l1 = _texCache.planL1Replay(threads);
        for (int k = 0; k < l1; ++k) {
            group.run([this, k] {
                WC3D_PROF_SCOPE("raster.replay");
                _texCache.replayL1(k);
            });
        }
        group.wait();
    }
    _texCache.finishReplay();
}

void
GpuSimulator::replaySurface(int s)
{
    frag::CachedSurface &surface = s ? _color : _depth;
    for (const auto &piece : _order->surf[static_cast<std::size_t>(s)]) {
        for (const TileOutput::SurfEvent &e : piece) {
            if (e.kind == 2)
                surface.accessQuadNoFetch(e.x, e.y);
            else
                surface.accessQuad(e.x, e.y, e.kind == 1);
        }
    }
}

GpuSimulator::HzOutcome
GpuSimulator::hzTestQuad(const QuadContextInfo &info,
                         const raster::RasterQuad &quad,
                         raster::HzStats &hz_stats)
{
    if (!info.hzOk)
        return HzOutcome::Pass;
    const auto &ds = info.call->state.depthStencil;

    float zmin = 1.0f;
    float zmax = 0.0f;
    for (int l = 0; l < 4; ++l) {
        if (quad.covered(l)) {
            zmin = std::min(zmin, quad.z[l]);
            zmax = std::max(zmax, quad.z[l]);
        }
    }
    // Min/max HZ (extension): early-accept is only sound for plain
    // Less/LEqual depth states with no stencil side effects and an
    // early-z pipeline order.
    bool accept_ok =
        _config.hzMinMax && info.earlyZ && !ds.stencilTest &&
        (ds.depthFunc == frag::CompareFunc::Less ||
         ds.depthFunc == frag::CompareFunc::LEqual);
    if (accept_ok) {
        switch (_hz.testQuadRange(quad.x, quad.y, zmin, zmax, hz_stats)) {
          case raster::HzResult::Culled:
            return HzOutcome::Culled;
          case raster::HzResult::Accepted:
            return HzOutcome::Accepted;
          case raster::HzResult::Ambiguous:
            return HzOutcome::Pass;
        }
    }
    if (!_hz.testQuad(quad.x, quad.y, zmin, hz_stats))
        return HzOutcome::Culled;
    return HzOutcome::Pass;
}

bool
GpuSimulator::zStencilQuad(const QuadContextInfo &info,
                           const raster::RasterQuad &quad,
                           std::uint8_t &mask, bool hz_accepted,
                           frag::ZStencilUnit &z_unit,
                           PipelineCounters &counters)
{
    const auto &ds = info.call->state.depthStencil;
    bool depth_writes = ds.depthTest && ds.depthWrite;

    ++counters.zStencilQuads;
    if (mask == 0xf)
        ++counters.zStencilFullQuads;
    counters.zStencilFragments +=
        static_cast<std::uint64_t>(std::popcount(mask));
    if (!info.zsEnabled)
        return true; // bypass: fragments flow through untested
    float quad_z_min = 1.0f;
    float quad_z_max = 0.0f;
    bool any;
    if (hz_accepted) {
        auto range = z_unit.acceptQuad(ds, quad.x, quad.y, quad.z, mask);
        quad_z_min = range.first;
        quad_z_max = range.second;
        any = mask != 0;
    } else {
        any = z_unit.testQuad(ds, info.backFace, quad.x, quad.y, quad.z,
                              mask, quad_z_min, quad_z_max);
    }
    if (depth_writes && _config.hzEnabled) {
        if (_config.hzMinMax) {
            _hz.updateQuadRange(quad.x, quad.y, quad_z_min, quad_z_max);
        } else {
            _hz.updateQuad(quad.x, quad.y, quad_z_max);
        }
    }
    return any;
}

void
GpuSimulator::endFrame()
{
    WC3D_PROF_SCOPE("gpu.endFrame");
    // Write back dirty framebuffer lines and scan the frame out.
    _depth.flushDirty();
    _color.flushDirty();
    _color.chargeFullReadback(memsys::Client::Dac);
    recordFrame();
    ++_frames;
}

PipelineCounters
GpuSimulator::counters() const
{
    PipelineCounters c = _counters;
    c.traffic = _memory.traffic();
    return c;
}

void
GpuSimulator::recordFrame()
{
    PipelineCounters now = counters();
    PipelineCounters f = now.since(_frameStart);
    _frameStart = now;

    _series.record("vcache_hit_rate", f.vertexCacheHitRate());
    _series.record("indices", static_cast<double>(f.indices));
    _series.record("assembled", static_cast<double>(f.trianglesAssembled));
    _series.record("traversed", static_cast<double>(f.trianglesTraversed));
    _series.record("tri_size_raster", f.avgTriangleSizeRaster());
    _series.record("tri_size_zst", f.avgTriangleSizeZStencil());
    _series.record("tri_size_shaded", f.avgTriangleSizeShaded());
    _series.record("frags_raster", static_cast<double>(f.rasterFragments));
    _series.record("frags_shaded", static_cast<double>(f.shadedFragments));
    _series.record("mem_bytes", static_cast<double>(f.traffic.total()));
    _series.record("mem_read_bytes",
                   static_cast<double>(f.traffic.totalRead()));
    _series.record("mem_write_bytes",
                   static_cast<double>(f.traffic.totalWrite()));
    _series.endFrame();
}

float
GpuSimulator::depthAt(int x, int y) const
{
    return frag::unpackDepth(_depth.word(x, y));
}

std::uint8_t
GpuSimulator::stencilAt(int x, int y) const
{
    return frag::unpackStencil(_depth.word(x, y));
}

} // namespace wc3d::gpu
