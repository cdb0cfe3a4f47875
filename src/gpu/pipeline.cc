#include "gpu/pipeline.hh"

#include "common/log.hh"

namespace wc3d::gpu {

namespace {

std::uint64_t
sub(std::uint64_t a, std::uint64_t b)
{
    WC3D_ASSERT(a >= b);
    return a - b;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

} // namespace

PipelineCounters
PipelineCounters::since(const PipelineCounters &earlier) const
{
    PipelineCounters d;
    for (const CounterField &f : kCounterFields)
        d.*f.member = sub(this->*f.member, earlier.*f.member);
    d.traffic = traffic.since(earlier.traffic);
    return d;
}

void
PipelineCounters::add(const PipelineCounters &o)
{
    for (const CounterField &f : kCounterFields)
        this->*f.member += o.*f.member;
    for (int i = 0; i < memsys::kNumClients; ++i) {
        traffic.readBytes[i] += o.traffic.readBytes[i];
        traffic.writeBytes[i] += o.traffic.writeBytes[i];
    }
}

double
PipelineCounters::vertexCacheHitRate() const
{
    return ratio(vertexCacheHits, vertexCacheHits + vertexCacheMisses);
}

double
PipelineCounters::pctClipped() const
{
    return 100.0 * ratio(trianglesClipped, trianglesAssembled);
}

double
PipelineCounters::pctCulled() const
{
    return 100.0 * ratio(trianglesCulled, trianglesAssembled);
}

double
PipelineCounters::pctTraversed() const
{
    return 100.0 * ratio(trianglesTraversed, trianglesAssembled);
}

double
PipelineCounters::avgTriangleSizeRaster() const
{
    return ratio(rasterFragments, trianglesTraversed);
}

double
PipelineCounters::avgTriangleSizeZStencil() const
{
    return ratio(zStencilFragments, trianglesTraversed);
}

double
PipelineCounters::avgTriangleSizeShaded() const
{
    return ratio(shadedFragments, trianglesTraversed);
}

double
PipelineCounters::avgTriangleSizeBlended() const
{
    return ratio(blendedFragments, trianglesTraversed);
}

double
PipelineCounters::rasterQuadEfficiency() const
{
    return ratio(rasterFullQuads, rasterQuads);
}

double
PipelineCounters::zStencilQuadEfficiency() const
{
    return ratio(zStencilFullQuads, zStencilQuads);
}

double
PipelineCounters::overdrawRaster(std::uint64_t pixels) const
{
    return ratio(rasterFragments, pixels);
}

double
PipelineCounters::overdrawZStencil(std::uint64_t pixels) const
{
    return ratio(zStencilFragments, pixels);
}

double
PipelineCounters::overdrawShaded(std::uint64_t pixels) const
{
    return ratio(shadedFragments, pixels);
}

double
PipelineCounters::overdrawBlended(std::uint64_t pixels) const
{
    return ratio(blendedFragments, pixels);
}

double
PipelineCounters::pctQuadsRemovedHz() const
{
    return 100.0 * ratio(quadsRemovedHz, rasterQuads);
}

double
PipelineCounters::pctQuadsRemovedZStencil() const
{
    return 100.0 * ratio(quadsRemovedZStencil, rasterQuads);
}

double
PipelineCounters::pctQuadsRemovedAlpha() const
{
    return 100.0 * ratio(quadsRemovedAlpha, rasterQuads);
}

double
PipelineCounters::pctQuadsRemovedColorMask() const
{
    return 100.0 * ratio(quadsRemovedColorMask, rasterQuads);
}

double
PipelineCounters::pctQuadsBlended() const
{
    return 100.0 * ratio(quadsBlended, rasterQuads);
}

double
PipelineCounters::bilinearsPerRequest() const
{
    return ratio(bilinearSamples, textureRequests);
}

double
PipelineCounters::aluPerBilinear() const
{
    return ratio(fragmentInstructions - fragmentTexInstructions,
                 bilinearSamples);
}

} // namespace wc3d::gpu
