/**
 * @file
 * Pipeline-level counters aggregated by the simulator. These are the
 * microarchitectural quantities behind the paper's Tables VII-XI and
 * XIII-XVII and Figures 5-7: where fragments/quads are produced,
 * removed and consumed, per whole run and per frame.
 */

#ifndef WC3D_GPU_PIPELINE_HH
#define WC3D_GPU_PIPELINE_HH

#include <cstdint>
#include <iterator>

#include "memory/controller.hh"

namespace wc3d::gpu {

/** Counters for one run (or one frame when used as a delta). */
struct PipelineCounters
{
    /** @name Geometry */
    /// @{
    std::uint64_t indices = 0;
    std::uint64_t vertexCacheHits = 0;
    std::uint64_t vertexCacheMisses = 0; ///< == vertices shaded
    std::uint64_t trianglesAssembled = 0;
    std::uint64_t trianglesClipped = 0;
    std::uint64_t trianglesCulled = 0;
    std::uint64_t trianglesTraversed = 0;
    /// @}

    /** @name Rasterization */
    /// @{
    std::uint64_t rasterQuads = 0;
    std::uint64_t rasterFullQuads = 0;
    std::uint64_t rasterFragments = 0;
    /// @}

    /** @name Quad removal accounting (paper Table IX): every rasterized
     *  quad is removed at exactly one stage or reaches blending. */
    /// @{
    std::uint64_t quadsRemovedHz = 0;
    std::uint64_t quadsRemovedZStencil = 0;
    std::uint64_t quadsRemovedAlpha = 0;     ///< all lanes KILled
    std::uint64_t quadsRemovedColorMask = 0;
    std::uint64_t quadsBlended = 0;
    /// @}

    /** @name Fragment flow per stage (Tables VIII and XI) */
    /// @{
    std::uint64_t zStencilQuads = 0;     ///< quads processed by z&st
    std::uint64_t zStencilFullQuads = 0;
    std::uint64_t zStencilFragments = 0; ///< incl. bypass when disabled
    std::uint64_t shadedQuads = 0;
    std::uint64_t shadedFragments = 0;
    std::uint64_t blendedFragments = 0;
    /// @}

    /** @name Shader execution */
    /// @{
    std::uint64_t vertexInstructions = 0;
    std::uint64_t fragmentInstructions = 0;
    std::uint64_t fragmentTexInstructions = 0;
    /// @}

    /** @name Texturing (Table XIII) */
    /// @{
    std::uint64_t textureRequests = 0;
    std::uint64_t bilinearSamples = 0;
    /// @}

    /** Memory traffic over the same period. */
    memsys::TrafficSnapshot traffic;

    /** Component-wise difference (this - earlier). */
    PipelineCounters since(const PipelineCounters &earlier) const;

    /** Component-wise accumulate. */
    void add(const PipelineCounters &o);

    /** @name Derived metrics */
    /// @{
    double vertexCacheHitRate() const;
    double pctClipped() const;
    double pctCulled() const;
    double pctTraversed() const;
    double avgTriangleSizeRaster() const;
    double avgTriangleSizeZStencil() const;
    double avgTriangleSizeShaded() const;
    double avgTriangleSizeBlended() const;
    double rasterQuadEfficiency() const;
    double zStencilQuadEfficiency() const;
    double overdrawRaster(std::uint64_t pixels) const;
    double overdrawZStencil(std::uint64_t pixels) const;
    double overdrawShaded(std::uint64_t pixels) const;
    double overdrawBlended(std::uint64_t pixels) const;
    double pctQuadsRemovedHz() const;
    double pctQuadsRemovedZStencil() const;
    double pctQuadsRemovedAlpha() const;
    double pctQuadsRemovedColorMask() const;
    double pctQuadsBlended() const;
    double bilinearsPerRequest() const;
    double aluPerBilinear() const;
    /// @}
};

/** One PipelineCounters field and its key in a run record. */
struct CounterField
{
    const char *key;
    std::uint64_t PipelineCounters::*member;
};

/**
 * Every scalar PipelineCounters field, in declaration order, under the
 * key the goldens use. since(), add(), the run record and every diff of
 * two runs walk this table; the traffic words follow as read<i> and
 * write<i>.
 */
inline constexpr CounterField kCounterFields[] = {
    {"indices", &PipelineCounters::indices},
    {"vcacheHits", &PipelineCounters::vertexCacheHits},
    {"vcacheMisses", &PipelineCounters::vertexCacheMisses},
    {"triAssembled", &PipelineCounters::trianglesAssembled},
    {"triClipped", &PipelineCounters::trianglesClipped},
    {"triCulled", &PipelineCounters::trianglesCulled},
    {"triTraversed", &PipelineCounters::trianglesTraversed},
    {"rasterQuads", &PipelineCounters::rasterQuads},
    {"rasterFullQuads", &PipelineCounters::rasterFullQuads},
    {"rasterFragments", &PipelineCounters::rasterFragments},
    {"quadsHz", &PipelineCounters::quadsRemovedHz},
    {"quadsZst", &PipelineCounters::quadsRemovedZStencil},
    {"quadsAlpha", &PipelineCounters::quadsRemovedAlpha},
    {"quadsMask", &PipelineCounters::quadsRemovedColorMask},
    {"quadsBlend", &PipelineCounters::quadsBlended},
    {"zstQuads", &PipelineCounters::zStencilQuads},
    {"zstFullQuads", &PipelineCounters::zStencilFullQuads},
    {"zstFragments", &PipelineCounters::zStencilFragments},
    {"shadedQuads", &PipelineCounters::shadedQuads},
    {"shadedFragments", &PipelineCounters::shadedFragments},
    {"blendedFragments", &PipelineCounters::blendedFragments},
    {"vsInstr", &PipelineCounters::vertexInstructions},
    {"fsInstr", &PipelineCounters::fragmentInstructions},
    {"fsTexInstr", &PipelineCounters::fragmentTexInstructions},
    {"texRequests", &PipelineCounters::textureRequests},
    {"bilinears", &PipelineCounters::bilinearSamples},
};

// A field added to PipelineCounters must be added to the table too.
static_assert(sizeof(PipelineCounters) ==
                  std::size(kCounterFields) * sizeof(std::uint64_t) +
                      sizeof(memsys::TrafficSnapshot),
              "PipelineCounters field missing from kCounterFields");

} // namespace wc3d::gpu

#endif // WC3D_GPU_PIPELINE_HH
