/**
 * @file
 * Cache-geometry ablation: sweeps z/colour/texture cache sizes around
 * the paper's Table XIV configuration and reports hit rates and GDDR
 * traffic for a short UT2004 run — the paper's point that "the concrete
 * caches configuration directly affects the memory BW consumed".
 * The Hierarchical-Z ablation is `timedemo_report --ablation hz`.
 *
 *     ./cache_explorer [frames]      # frames >= 1, default 2
 *
 * A frame count that is not a whole number of at least 1 prints the
 * usage line and exits with status 2.
 */

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

#include "gpu/simulator.hh"
#include "workloads/games.hh"

using namespace wc3d;

namespace {

struct SweepResult
{
    double zHit, colorHit, texL0Hit;
    double mbPerFrame;
};

SweepResult
runWith(const gpu::GpuConfig &config, int frames)
{
    gpu::GpuSimulator sim(config);
    api::Device device;
    device.setSink(&sim);
    auto demo = workloads::makeTimedemo("ut2004/primeval");
    demo->run(device, frames);
    SweepResult r;
    r.zHit = sim.zCacheStats().hitRate();
    r.colorHit = sim.colorCacheStats().hitRate();
    r.texL0Hit = sim.texL0Stats().hitRate();
    r.mbPerFrame =
        static_cast<double>(sim.counters().traffic.total()) / frames /
        1e6;
    return r;
}

/** @return the frame count @p arg names, or 0 when it is not a whole
 *  number in [1, INT_MAX]. */
int
parseFrames(const char *arg)
{
    errno = 0;
    char *end = nullptr;
    long frames = std::strtol(arg, &end, 10);
    if (end == arg || *end != '\0' || errno == ERANGE || frames < 1 ||
        frames > INT_MAX)
        return 0;
    return static_cast<int>(frames);
}

} // namespace

int
main(int argc, char **argv)
{
    int frames = argc > 1 ? parseFrames(argv[1]) : 2;
    if (argc > 2 || frames < 1) {
        std::fprintf(stderr, "usage: cache_explorer [frames >= 1]\n");
        return 2;
    }
    std::printf("sweeping cache sizes on ut2004/primeval "
                "(%d frames, 512x384)\n\n",
                frames);
    std::printf("%-28s %8s %8s %8s %10s\n", "configuration", "z-hit",
                "col-hit", "tex0-hit", "MB/frame");

    // Scale the z/colour caches and texture L0 together from 1/4 to 4x
    // the paper's 16 KB / 4 KB configuration.
    for (int scale : {-2, -1, 0, 1, 2}) {
        gpu::GpuConfig config;
        config.width = 512;
        config.height = 384;
        auto scaled = [&](int ways) {
            int s = scale >= 0 ? (ways << scale) : (ways >> -scale);
            return s < 1 ? 1 : s;
        };
        config.zCache.ways = scaled(64);
        config.colorCache.ways = scaled(64);
        config.textureCache.l0Ways = scaled(64);
        SweepResult r = runWith(config, frames);
        std::printf("%-28s %7.1f%% %7.1f%% %7.1f%% %10.1f\n",
                    (std::string("z/color ") +
                     std::to_string(config.zCache.ways * 256 / 1024) +
                     " KB, texL0 " +
                     std::to_string(config.textureCache.l0Ways * 64 /
                                    1024) +
                     " KB")
                        .c_str(),
                    100.0 * r.zHit, 100.0 * r.colorHit,
                    100.0 * r.texL0Hit, r.mbPerFrame);
    }
    return 0;
}
