/**
 * @file
 * Anisotropic filtering lab: quantifies the dynamic texture cost the
 * paper highlights in Table XIII — the number of bilinear samples per
 * texture request as a surface tilts away from the camera, for
 * different max-anisotropy settings.
 *
 *     ./aniso_lab
 */

#include <cmath>
#include <cstdio>

#include "texture/texcache.hh"

using namespace wc3d;
using namespace wc3d::tex;

int
main()
{
    Texture2D texture = Texture2D::noise("lab", 512, 7, TexFormat::DXT1);

    std::printf("bilinear samples per request vs surface obliqueness\n");
    std::printf("(screen-space footprint 1 texel tall, N texels wide)\n\n");
    std::printf("%-12s", "aniso ratio");
    for (int max_aniso : {1, 2, 4, 8, 16})
        std::printf("  maxAniso=%-3d", max_aniso);
    std::printf("\n");

    for (int ratio : {1, 2, 4, 8, 16, 32}) {
        std::printf("%-12d", ratio);
        for (int max_aniso : {1, 2, 4, 8, 16}) {
            Sampler sampler;
            SamplerState state;
            state.filter = max_aniso > 1 ? TexFilter::Anisotropic
                                         : TexFilter::Trilinear;
            state.maxAniso = max_aniso;

            // A quad with a 'ratio':1 anisotropic footprint, minor axis
            // ~1.4 texels so trilinear blends two levels.
            float du = static_cast<float>(ratio) * 1.4f / 512.0f;
            float dv = 1.4f / 512.0f;
            Vec4 coords[4] = {{0.3f, 0.3f, 0, 1},
                              {0.3f + du, 0.3f, 0, 1},
                              {0.3f, 0.3f + dv, 0, 1},
                              {0.3f + du, 0.3f + dv, 0, 1}};
            Vec4 out[4];
            // One request per lane: four per quad.
            int bilinears =
                sampler.sampleQuad(texture, state, coords, 0.0f, out);
            std::printf("  %11.2f", bilinears / 4.0);
        }
        std::printf("\n");
    }

    std::printf("\nThe paper's Table XIII point: with 16x anisotropy the "
                "measured games average 4.4-5.2 bilinears per request, "
                "so an architecture with 3x more ALU than texture "
                "throughput (Xenos/RV530/R580) sees an effective "
                "ALU:bilinear ratio below 1 on these workloads.\n");
    return 0;
}
