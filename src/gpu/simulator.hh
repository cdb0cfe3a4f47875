/**
 * @file
 * The GPU simulator: a functional, event-exact model of the ATTILA-style
 * rendering pipeline the paper measures. It implements api::DrawSink, so
 * a Device (driven in-process by a workload generator) renders through
 * the full pipeline:
 *
 *   vertex fetch -> post-transform vertex cache -> vertex shading ->
 *   primitive assembly -> clip/cull -> viewport -> tiled recursive
 *   rasterization -> Hierarchical Z -> early/late z & stencil ->
 *   fragment shading (+ texturing through the two-level cache) ->
 *   alpha (KIL) -> colour mask -> blending -> cached/compressed
 *   framebuffer -> DAC scanout
 *
 * All paper metrics are counts and byte totals, none are cycle timings,
 * so a functional model executing the real algorithms yields the same
 * statistics a cycle-accurate simulator would (see DESIGN.md).
 *
 * Threading: the back half of the pipeline is tile-parallel. The work
 * item is a band: one row of the rasterizer's 16x16 upper tiles, across
 * the full width. A binning pass appends each post-geometry triangle
 * (in draw order) to the bins of the bands its bounding box overlaps;
 * per-band work items on the global ThreadPool (WC3D_THREADS) then run
 * rasterization, HZ, z & stencil, fragment shading and blending end to
 * end, each worker owning its band's framebuffer words, HZ entries and
 * depth/blend state exclusively (every lower structure nests inside
 * exactly one band). The order-sensitive shared cache models (z,
 * colour, texture) and the memory controller are never touched by a
 * band: the z/stencil and colour units append frag::SurfaceAccess
 * records and the sampler texture block events to the band's logs.
 * After the join the merge rebuilds submission order by concatenation
 * (each triangle's band runs, in band order, since the rasterizer walks
 * upper-tile rows outermost) and replays the logs on the pool: the z
 * and colour streams each in order on its own task
 * (CachedSurface::replay), the read-only texture levels in exact
 * warm-started chunks. Counters,
 * cache statistics and traffic bytes are bit-identical at every thread
 * count (see DESIGN.md "Tile-parallel pipeline").
 * Vertex shading runs on the same pool: the vertex cache is replayed in
 * index order first, then the misses are shaded in parallel chunks. At
 * WC3D_THREADS=1 every work item runs inline on the submitting thread,
 * so one code path serves all thread counts.
 */

#ifndef WC3D_GPU_SIMULATOR_HH
#define WC3D_GPU_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "api/device.hh"
#include "fragment/framebuffer.hh"
#include "fragment/zstencil.hh"
#include "geom/vertexcache.hh"
#include "gpu/config.hh"
#include "gpu/pipeline.hh"
#include "raster/hz.hh"
#include "raster/rasterizer.hh"
#include "stats/series.hh"
#include "texture/texcache.hh"

namespace wc3d::gpu {

/** Hierarchical-Z tests and early accepts (the paper's suggested
 *  min/max-HZ improvement). The quads HZ removes are
 *  PipelineCounters::quadsRemovedHz. */
struct HzStats
{
    std::uint64_t quadsTested = 0;
    std::uint64_t quadsAccepted = 0;

    double
    acceptRate() const
    {
        return quadsTested
            ? static_cast<double>(quadsAccepted) / quadsTested
            : 0.0;
    }
};

/** The simulated GPU. */
class GpuSimulator : public api::DrawSink
{
  public:
    explicit GpuSimulator(const GpuConfig &config = GpuConfig{});
    ~GpuSimulator() override;

    GpuSimulator(const GpuSimulator &) = delete;
    GpuSimulator &operator=(const GpuSimulator &) = delete;

    /** @name api::DrawSink interface */
    /// @{
    void vertexBufferCreated(std::uint32_t id,
                             const api::VertexBufferData &data) override;
    void indexBufferCreated(std::uint32_t id,
                            const api::IndexBufferData &data) override;
    void textureCreated(std::uint32_t id, tex::Texture2D &texture) override;
    void programCreated(std::uint32_t id,
                        const shader::Program &program) override;
    void clear(const api::ClearCmd &cmd) override;
    void draw(const api::DrawCall &call) override;
    void endFrame() override;
    /// @}

    const GpuConfig &config() const { return _config; }

    /** Frames completed so far. */
    int frames() const { return _frames; }

    /** Running whole-run counters (memory traffic included). */
    PipelineCounters counters() const;

    /** Per-frame series recorded at each endFrame(). */
    const stats::FrameSeries &frameSeries() const { return _series; }

    /** @name Cache statistics (paper Table XIV) */
    /// @{
    const memsys::CacheStats &zCacheStats() const
    { return _depth.cacheStats(); }
    const memsys::CacheStats &colorCacheStats() const
    { return _color.cacheStats(); }
    const memsys::CacheStats &texL0Stats() const
    { return _texCache.l0Stats(); }
    const memsys::CacheStats &texL1Stats() const
    { return _texCache.l1Stats(); }
    /// @}

    /** Hierarchical-Z tests and early accepts. */
    const HzStats &hzStats() const { return _hzStats; }

    /** Current colour buffer contents (PPM dumps, golden tests). */
    Image framebufferImage() const { return _color.toImage(); }

    /** Depth/stencil readback for tests. */
    float depthAt(int x, int y) const;
    std::uint8_t stencilAt(int x, int y) const;

  private:
    struct QuadContextInfo;
    struct TiledTri;     ///< binned triangle (setup + facing + band range)
    struct TileOutput;   ///< per-band deferred access logs
    struct TileExec;     ///< per-slot band-worker execution state
    struct ReplayOrder;  ///< one draw's deferred accesses, in order

    /** Outcome of the Hierarchical-Z stage for one quad. */
    enum class HzOutcome : std::uint8_t { Culled, Accepted, Pass };

    /** @name Per-quad stages, run by band workers on their private
     *  stats shard, z & stencil unit and counters. */
    /// @{
    HzOutcome hzTestQuad(const QuadContextInfo &info,
                         const raster::RasterQuad &quad,
                         HzStats &hz_stats);
    bool zStencilQuad(const QuadContextInfo &info,
                      const raster::RasterQuad &quad, std::uint8_t &mask,
                      bool hz_accepted, frag::ZStencilUnit &z_unit,
                      PipelineCounters &counters);
    /// @}

    /** @name Tile-parallel raster/shade/ROP back-end */
    /// @{
    void drawTiled(const api::DrawCall &call, const QuadContextInfo &info);
    void processTile(TileExec &exec, TileOutput &out, int band,
                     const QuadContextInfo &base_info);
    void processTileQuad(TileExec &exec, const QuadContextInfo &info,
                         const raster::TriangleSetup &setup,
                         const raster::RasterQuad &quad);
    void mergeTileResults();
    void orderAccesses();
    void replayAccesses();
    void replaySurface(int surface);
    /// @}

    void shadeVertices(const api::DrawCall &call);
    void recordFrame();

    GpuConfig _config;
    memsys::MemoryController _memory;
    frag::CachedSurface _depth;
    frag::CachedSurface _color;
    raster::HierarchicalZ _hz;
    geom::VertexCache _vertexCache;
    tex::TextureCache _texCache;

    PipelineCounters _counters;
    HzStats _hzStats;
    PipelineCounters _frameStart;
    stats::FrameSeries _series;
    int _frames = 0;

    // Per-draw scratch, reused across draws to avoid reallocation.
    std::vector<geom::TransformedVertex> _stream;
    std::vector<geom::AssembledTriangle> _assembled;
    std::vector<std::array<geom::TransformedVertex, 3>> _clippedTris;

    // Tile-parallel per-draw state, reused across draws.
    std::vector<TiledTri> _tiledTris;   ///< binned triangles, draw order
    std::vector<TileOutput> _tileOut;   ///< one per band, top to bottom
    std::vector<std::unique_ptr<TileExec>> _tileExec; ///< per worker slot
    std::unique_ptr<ReplayOrder> _order;
};

} // namespace wc3d::gpu

#endif // WC3D_GPU_SIMULATOR_HH
