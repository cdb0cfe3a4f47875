/**
 * @file
 * GPU configuration. Defaults reproduce the paper's Table II (ATTILA
 * configured to match an ATI R520: 16 unified shaders, 2 triangles/cycle
 * setup, 16 bilinears/cycle, 16/16 z/colour ops, 64 bytes/cycle memory)
 * and the Table XIV cache geometry.
 */

#ifndef WC3D_GPU_CONFIG_HH
#define WC3D_GPU_CONFIG_HH

#include <string>

#include "fragment/framebuffer.hh"
#include "texture/texcache.hh"

namespace wc3d::gpu {

/** Full configuration of the simulated GPU. */
struct GpuConfig
{
    /** Render target (the paper's benchmark resolution). */
    int width = 1024;
    int height = 768;

    /** Post-transform vertex cache entries (FIFO). */
    int vertexCacheEntries = 16;

    /** Hierarchical Z enabled (can be switched off for ablations). */
    bool hzEnabled = true;

    /**
     * Min/max Hierarchical Z (the paper's suggested improvement:
     * "a HZ storing maximum and minimum values"): additionally
     * early-accepts quads guaranteed to pass the depth test, skipping
     * the z-buffer read. Off by default to match the paper's baseline.
     */
    bool hzMinMax = false;

    /** Z & stencil cache: 16 KB, 64-way x 256 B (Table XIV). */
    frag::SurfaceCacheConfig zCache{64, 1, 256};

    /** Colour cache: 16 KB, 64-way x 256 B (Table XIV). */
    frag::SurfaceCacheConfig colorCache{64, 1, 256};

    /** Texture caches: L0 4 KB 64w x 64 B; L1 16 KB 16w x 16s x 64 B. */
    tex::TexCacheConfig textureCache;

    /** @name Throughput parameters (Table II; used by the performance
     *  estimate, not by the event counts) */
    /// @{
    int unifiedShaders = 16;
    int trianglesPerCycle = 2;
    int bilinearsPerCycle = 16;
    int zOpsPerCycle = 16;
    int colorOpsPerCycle = 16;
    int memBytesPerCycle = 64;
    /// @}

    /** Command-processor overhead charged per parsed API command. */
    int commandBytes = 64;

    /** Pixels in the render target. */
    std::uint64_t
    pixels() const
    {
        return static_cast<std::uint64_t>(width) * height;
    }

    /** Render a human-readable summary (Table II reproduction). */
    std::string describe() const;
};

} // namespace wc3d::gpu

#endif // WC3D_GPU_CONFIG_HH
