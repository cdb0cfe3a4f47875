/**
 * @file
 * Integration tests for the full GPU pipeline: geometry through
 * framebuffer, depth/stencil behaviour, HZ, texturing, and the
 * statistics the paper's microarchitectural tables consume.
 */

#include <string>

#include <gtest/gtest.h>

#include "api/device.hh"
#include "common/threadpool.hh"
#include "gpu/simulator.hh"

using namespace wc3d;
using namespace wc3d::api;
using namespace wc3d::gpu;

namespace {

const char *kPassthroughVs =
    "!!VP passthrough\n"
    "MOV o0, v0;\n"  // clip position
    "MOV o1, v2;\n"  // uv -> varying 0
    "MOV o2, v3;\n"; // color -> varying 1

const char *kColorFs =
    "!!FP color\n"
    "MOV o0, v1;\n";

const char *kTexturedFs =
    "!!FP textured\n"
    "TEX r0, v0, tex[0];\n"
    "MOV o0, r0;\n";

/** Device + simulator harness rendering clip-space geometry. */
struct Rig
{
    GpuConfig cfg;
    std::unique_ptr<GpuSimulator> sim;
    Device dev;
    std::uint32_t vs = 0;

    explicit Rig(int w = 64, int h = 64, bool hz = true)
    {
        cfg.width = w;
        cfg.height = h;
        cfg.hzEnabled = hz;
        sim = std::make_unique<GpuSimulator>(cfg);
        dev.setSink(sim.get());
        vs = dev.createProgram(shader::ProgramKind::Vertex, kPassthroughVs);
        dev.bindProgram(shader::ProgramKind::Vertex, vs);
    }

    /** Upload a clip-space quad (two triangles) at depth @p z. */
    std::pair<std::uint32_t, std::uint32_t>
    makeQuad(float x0, float y0, float x1, float y1, float z, Vec4 color)
    {
        VertexBufferData vb;
        auto add = [&](float x, float y, float u, float v) {
            VertexData vert;
            vert.position = {x, y, z};
            vert.uv = {u, v};
            vert.color = color;
            vb.vertices.push_back(vert);
        };
        add(x0, y0, 0, 0);
        add(x1, y0, 1, 0);
        add(x1, y1, 1, 1);
        add(x0, y1, 0, 1);
        IndexBufferData ib;
        ib.type = IndexType::U16;
        // CCW in NDC (y up): front-facing.
        ib.indices = {0, 1, 2, 0, 2, 3};
        return {dev.createVertexBuffer(std::move(vb)),
                dev.createIndexBuffer(std::move(ib))};
    }

    void
    drawQuad(std::pair<std::uint32_t, std::uint32_t> q)
    {
        dev.draw(q.first, q.second, 0, 6,
                 geom::PrimitiveType::TriangleList);
    }
};

} // namespace

TEST(Gpu, FullscreenQuadFillsFramebuffer)
{
    Rig rig;
    auto fs = rig.dev.createProgram(shader::ProgramKind::Fragment,
                                    kColorFs);
    rig.dev.bindProgram(shader::ProgramKind::Fragment, fs);
    rig.dev.clear();
    auto quad = rig.makeQuad(-1, -1, 1, 1, 0.0f, {1, 0, 0, 1});
    rig.drawQuad(quad);
    rig.dev.endFrame();

    Image img = rig.sim->framebufferImage();
    EXPECT_EQ(img.at(0, 0).r, 255);
    EXPECT_EQ(img.at(32, 32).r, 255);
    EXPECT_EQ(img.at(63, 63).r, 255);
    EXPECT_EQ(img.at(32, 32).g, 0);

    PipelineCounters c = rig.sim->counters();
    EXPECT_EQ(c.indices, 6u);
    EXPECT_EQ(c.trianglesAssembled, 2u);
    EXPECT_EQ(c.trianglesTraversed, 2u);
    EXPECT_EQ(c.trianglesClipped, 0u);
    EXPECT_EQ(c.trianglesCulled, 0u);
    // Exactly one fragment per pixel.
    EXPECT_EQ(c.rasterFragments, 64u * 64u);
    EXPECT_EQ(c.blendedFragments, 64u * 64u);
    EXPECT_DOUBLE_EQ(c.overdrawBlended(rig.cfg.pixels()), 1.0);
    EXPECT_EQ(rig.sim->frames(), 1);
}

TEST(Gpu, BackfaceCulledQuadInvisible)
{
    Rig rig;
    auto fs = rig.dev.createProgram(shader::ProgramKind::Fragment,
                                    kColorFs);
    rig.dev.bindProgram(shader::ProgramKind::Fragment, fs);
    rig.dev.clear();
    auto quad = rig.makeQuad(-1, -1, 1, 1, 0.0f, {1, 0, 0, 1});
    // Reverse winding via front-face culling.
    rig.dev.setCullMode(geom::CullMode::Front);
    rig.drawQuad(quad);
    rig.dev.endFrame();
    EXPECT_EQ(rig.sim->counters().trianglesCulled, 2u);
    EXPECT_EQ(rig.sim->counters().trianglesTraversed, 0u);
    EXPECT_EQ(rig.sim->framebufferImage().at(32, 32).r, 0);
}

TEST(Gpu, DepthTestOccludesFarGeometry)
{
    Rig rig;
    auto fs = rig.dev.createProgram(shader::ProgramKind::Fragment,
                                    kColorFs);
    rig.dev.bindProgram(shader::ProgramKind::Fragment, fs);
    rig.dev.clear();
    auto near_q = rig.makeQuad(-1, -1, 1, 1, -0.5f, {1, 0, 0, 1});
    auto far_q = rig.makeQuad(-1, -1, 1, 1, 0.5f, {0, 1, 0, 1});
    rig.drawQuad(near_q);
    rig.drawQuad(far_q);
    rig.dev.endFrame();
    // Far (green) quad is behind the near (red) one everywhere.
    Image img = rig.sim->framebufferImage();
    EXPECT_EQ(img.at(32, 32).r, 255);
    EXPECT_EQ(img.at(32, 32).g, 0);
    EXPECT_NEAR(rig.sim->depthAt(32, 32), 0.25f, 1e-4f);
    // All far-quad emissions died in HZ or z/stencil. (Each fullscreen
    // quad-pair emits rasterQuads/2 quads, including diagonal quads
    // visited by both triangles.)
    PipelineCounters c = rig.sim->counters();
    EXPECT_EQ(c.quadsRemovedHz + c.quadsRemovedZStencil,
              c.rasterQuads / 2);
    EXPECT_GT(c.quadsRemovedHz, 0u); // HZ did real work
}

TEST(Gpu, HzDisabledShiftsRemovalToZStage)
{
    Rig rig(64, 64, /*hz=*/false);
    auto fs = rig.dev.createProgram(shader::ProgramKind::Fragment,
                                    kColorFs);
    rig.dev.bindProgram(shader::ProgramKind::Fragment, fs);
    rig.dev.clear();
    auto near_q = rig.makeQuad(-1, -1, 1, 1, -0.5f, {1, 0, 0, 1});
    auto far_q = rig.makeQuad(-1, -1, 1, 1, 0.5f, {0, 1, 0, 1});
    rig.drawQuad(near_q);
    rig.drawQuad(far_q);
    rig.dev.endFrame();
    PipelineCounters c = rig.sim->counters();
    EXPECT_EQ(c.quadsRemovedHz, 0u);
    EXPECT_EQ(c.quadsRemovedZStencil, c.rasterQuads / 2);
    // Same final image as with HZ.
    EXPECT_EQ(rig.sim->framebufferImage().at(32, 32).r, 255);
}

TEST(Gpu, TexturedDrawSamplesTexture)
{
    // The merge folds every worker slot's interpreter and sampler
    // statistics into the counters; at 4 threads the draw's tiles may
    // shade on several slots.
    for (int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        SCOPED_TRACE(std::to_string(threads) + " thread(s)");
        Rig rig;
        auto fs = rig.dev.createProgram(shader::ProgramKind::Fragment,
                                        kTexturedFs);
        rig.dev.bindProgram(shader::ProgramKind::Fragment, fs);
        TextureSpec spec;
        spec.kind = TextureSpec::Kind::Checker;
        spec.size = 64;
        spec.cell = 32;
        spec.colorA = {255, 0, 0, 255};
        spec.colorB = {0, 0, 255, 255};
        spec.format = tex::TexFormat::RGBA8;
        auto t = rig.dev.createTexture(spec);
        tex::SamplerState ss;
        ss.filter = tex::TexFilter::Bilinear;
        rig.dev.bindTexture(0, t, ss);
        rig.dev.clear();
        auto quad = rig.makeQuad(-1, -1, 1, 1, 0.0f, {1, 1, 1, 1});
        rig.drawQuad(quad);
        rig.dev.endFrame();

        // The checker pattern must appear (uv(0,0) maps to NDC (-1,-1)
        // = window bottom-left).
        Image img = rig.sim->framebufferImage();
        EXPECT_EQ(img.at(8, 56).r, 255);  // cell (0,0): red
        EXPECT_EQ(img.at(40, 56).b, 255); // cell (1,0): blue

        PipelineCounters c = rig.sim->counters();
        // Every shaded fragment runs the whole program once.
        const shader::Program &prog = *rig.dev.program(fs);
        EXPECT_EQ(c.fragmentInstructions,
                  c.shadedFragments *
                      static_cast<std::uint64_t>(prog.instructionCount()));
        EXPECT_EQ(c.fragmentTexInstructions,
                  c.shadedFragments * static_cast<std::uint64_t>(
                                          prog.textureInstructionCount()));
        // The texture unit works per quad: all four lanes (covered or
        // helper) issue requests.
        EXPECT_EQ(c.textureRequests, c.shadedQuads * 4);
        EXPECT_GE(c.textureRequests, 64u * 64u);
        EXPECT_EQ(c.bilinearSamples, c.textureRequests); // bilinear: 1
        EXPECT_GT(rig.sim->texL0Stats().accesses, 0u);
        EXPECT_GT(rig.sim->texL0Stats().hitRate(), 0.8);
        // Texture memory traffic happened.
        EXPECT_GT(c.traffic.readBytes[static_cast<int>(
                      memsys::Client::Texture)], 0u);
    }
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
}

TEST(Gpu, AlphaKillRemovesFragments)
{
    Rig rig;
    // Kill every fragment: v1.x - 1 < 0 always (color red = 1,0,0 ->
    // use green channel - it is 0, so 0 - 1 < 0).
    auto fs = rig.dev.createProgram(
        shader::ProgramKind::Fragment,
        "!!FP kill\n"
        "CONST c0 = 1 1 1 1\n"
        "SUB r0, v1, c0;\n"
        "KIL r0.y;\n"
        "MOV o0, v1;\n");
    rig.dev.bindProgram(shader::ProgramKind::Fragment, fs);
    rig.dev.clear();
    auto quad = rig.makeQuad(-1, -1, 1, 1, 0.0f, {1, 0, 0, 1});
    rig.drawQuad(quad);
    rig.dev.endFrame();
    PipelineCounters c = rig.sim->counters();
    EXPECT_EQ(c.quadsRemovedAlpha, c.rasterQuads);
    EXPECT_EQ(c.blendedFragments, 0u);
    EXPECT_EQ(rig.sim->framebufferImage().at(32, 32).r, 0);
    // Shading happened before the (late) z test: shaded > 0.
    EXPECT_GT(c.shadedFragments, 0u);
}

TEST(Gpu, ColorMaskQuadsSkipShading)
{
    Rig rig;
    auto fs = rig.dev.createProgram(shader::ProgramKind::Fragment,
                                    kColorFs);
    rig.dev.bindProgram(shader::ProgramKind::Fragment, fs);
    rig.dev.clear();
    frag::BlendState bs;
    bs.colorWriteMask = false;
    rig.dev.setBlend(bs);
    auto quad = rig.makeQuad(-1, -1, 1, 1, 0.0f, {1, 0, 0, 1});
    rig.drawQuad(quad);
    rig.dev.endFrame();
    PipelineCounters c = rig.sim->counters();
    EXPECT_EQ(c.quadsRemovedColorMask, c.rasterQuads);
    EXPECT_EQ(c.shadedFragments, 0u); // shading skipped entirely
    EXPECT_EQ(c.fragmentInstructions, 0u);
    // Depth was still written (z-prepass pattern).
    EXPECT_NEAR(rig.sim->depthAt(32, 32), 0.5f, 1e-4f);
}

TEST(Gpu, StencilShadowPassMarksStencil)
{
    Rig rig;
    auto fs = rig.dev.createProgram(shader::ProgramKind::Fragment,
                                    kColorFs);
    rig.dev.bindProgram(shader::ProgramKind::Fragment, fs);
    rig.dev.clear();

    // Z-prepass: scene at depth 0 (buffer 0.5).
    auto scene = rig.makeQuad(-1, -1, 1, 1, 0.0f, {0.5f, 0.5f, 0.5f, 1});
    rig.drawQuad(scene);

    // Shadow volume behind the scene (z-fail increments, color masked,
    // no depth write, no culling).
    frag::DepthStencilState sv;
    sv.depthTest = true;
    sv.depthFunc = frag::CompareFunc::Less;
    sv.depthWrite = false;
    sv.stencilTest = true;
    sv.front.zfail = frag::StencilOp::IncrWrap;
    sv.back.zfail = frag::StencilOp::IncrWrap;
    rig.dev.setDepthStencil(sv);
    frag::BlendState masked;
    masked.colorWriteMask = false;
    rig.dev.setBlend(masked);
    rig.dev.setCullMode(geom::CullMode::None);
    auto volume = rig.makeQuad(-0.5f, -0.5f, 0.5f, 0.5f, 0.8f,
                               {0, 0, 0, 1});
    rig.drawQuad(volume);
    rig.dev.endFrame();

    // Stencil marked inside the volume footprint, untouched outside.
    EXPECT_EQ(rig.sim->stencilAt(32, 32), 1);
    EXPECT_EQ(rig.sim->stencilAt(2, 2), 0);
    // Scene depth unchanged by the masked volume pass.
    EXPECT_NEAR(rig.sim->depthAt(32, 32), 0.5f, 1e-4f);
    // The volume is fully behind the scene: its quads fail the depth
    // test (after the mandatory HZ bypass for z-fail stencil ops) and
    // are removed at the z&stencil stage while still counting stencil.
    PipelineCounters c = rig.sim->counters();
    EXPECT_GT(c.quadsRemovedZStencil, 0u);
    EXPECT_EQ(c.quadsRemovedHz, 0u);
}

TEST(Gpu, VertexCacheReusesStripOrderedLists)
{
    Rig rig;
    auto fs = rig.dev.createProgram(shader::ProgramKind::Fragment,
                                    kColorFs);
    rig.dev.bindProgram(shader::ProgramKind::Fragment, fs);
    // Strip-ordered triangle list over a long ribbon.
    VertexBufferData vb;
    const int n = 300;
    for (int i = 0; i < n; ++i) {
        VertexData v;
        float t = static_cast<float>(i / 2) / (n / 2 - 1);
        v.position = {t * 1.6f - 0.8f, (i % 2) ? 0.1f : -0.1f, 0.0f};
        v.color = {1, 1, 1, 1};
        vb.vertices.push_back(v);
    }
    IndexBufferData ib;
    ib.type = IndexType::U32;
    for (std::uint32_t i = 0; i + 2 < n; ++i) {
        if (i % 2 == 0) {
            ib.indices.insert(ib.indices.end(), {i, i + 1, i + 2});
        } else {
            ib.indices.insert(ib.indices.end(), {i + 1, i, i + 2});
        }
    }
    auto vbid = rig.dev.createVertexBuffer(std::move(vb));
    auto ibid = rig.dev.createIndexBuffer(std::move(ib));
    rig.dev.clear();
    rig.dev.draw(vbid, ibid, 0,
                 static_cast<std::uint32_t>(3 * (n - 2)),
                 geom::PrimitiveType::TriangleList);
    rig.dev.endFrame();
    // Strip-like reuse approaches the theoretical 66% (paper Fig. 5).
    PipelineCounters c = rig.sim->counters();
    EXPECT_GT(c.vertexCacheHitRate(), 0.6);
    EXPECT_LT(c.vertexCacheHitRate(), 0.7);
    // Shaded vertices = misses only.
    EXPECT_EQ(c.vertexCacheMisses, static_cast<std::uint64_t>(n));
}

TEST(Gpu, OffscreenGeometryClipped)
{
    Rig rig;
    auto fs = rig.dev.createProgram(shader::ProgramKind::Fragment,
                                    kColorFs);
    rig.dev.bindProgram(shader::ProgramKind::Fragment, fs);
    rig.dev.clear();
    auto quad = rig.makeQuad(2.5f, -1, 4.0f, 1, 0.0f, {1, 0, 0, 1});
    rig.drawQuad(quad);
    rig.dev.endFrame();
    PipelineCounters c = rig.sim->counters();
    EXPECT_EQ(c.trianglesClipped, 2u);
    EXPECT_EQ(c.rasterFragments, 0u);
    EXPECT_NEAR(c.pctClipped(), 100.0, 1e-9);
}

TEST(Gpu, MemoryTrafficFlowsToAllClients)
{
    Rig rig;
    auto fs = rig.dev.createProgram(shader::ProgramKind::Fragment,
                                    kTexturedFs);
    rig.dev.bindProgram(shader::ProgramKind::Fragment, fs);
    TextureSpec spec;
    spec.size = 128;
    auto t = rig.dev.createTexture(spec);
    tex::SamplerState ss;
    ss.filter = tex::TexFilter::Trilinear;
    rig.dev.bindTexture(0, t, ss);
    rig.dev.clear();
    auto quad = rig.makeQuad(-1, -1, 1, 1, 0.2f, {1, 1, 1, 1});
    rig.drawQuad(quad);
    rig.dev.endFrame();

    const auto &traffic = rig.sim->counters().traffic;
    using memsys::Client;
    EXPECT_GT(traffic.readBytes[static_cast<int>(Client::Vertex)], 0u);
    EXPECT_GT(traffic.readBytes[static_cast<int>(Client::Texture)], 0u);
    EXPECT_GT(traffic.writeBytes[static_cast<int>(Client::Color)], 0u);
    EXPECT_GT(traffic.writeBytes[static_cast<int>(
                  Client::CommandProcessor)], 0u);
    EXPECT_GT(traffic.readBytes[static_cast<int>(Client::Dac)], 0u);
    // Z: the quad was written through the z cache and flushed.
    EXPECT_GT(traffic.writeBytes[static_cast<int>(Client::ZStencil)], 0u);
}

TEST(Gpu, FrameSeriesRecordsPerFrame)
{
    Rig rig;
    auto fs = rig.dev.createProgram(shader::ProgramKind::Fragment,
                                    kColorFs);
    rig.dev.bindProgram(shader::ProgramKind::Fragment, fs);
    auto quad = rig.makeQuad(-1, -1, 1, 1, 0.0f, {1, 0, 0, 1});
    for (int f = 0; f < 3; ++f) {
        rig.dev.clear();
        rig.drawQuad(quad);
        rig.dev.endFrame();
    }
    const auto &series = rig.sim->frameSeries();
    EXPECT_EQ(series.frames(), 3);
    const auto &indices = series.series("indices");
    ASSERT_EQ(indices.size(), 3u);
    for (double v : indices)
        EXPECT_DOUBLE_EQ(v, 6.0);
    EXPECT_GT(series.series("mem_bytes")[1], 0.0);
}

TEST(Gpu, PartialClearsPreserveOtherFields)
{
    Rig rig;
    auto fs = rig.dev.createProgram(shader::ProgramKind::Fragment,
                                    kColorFs);
    rig.dev.bindProgram(shader::ProgramKind::Fragment, fs);
    rig.dev.clear();
    auto quad = rig.makeQuad(-1, -1, 1, 1, -0.4f, {1, 0, 0, 1});
    rig.drawQuad(quad);
    // Mark some stencil.
    frag::DepthStencilState st;
    st.depthTest = false;
    st.stencilTest = true;
    st.front.func = frag::CompareFunc::Always;
    st.front.zpass = frag::StencilOp::Replace;
    st.front.ref = 7;
    rig.dev.setDepthStencil(st);
    rig.drawQuad(quad);
    EXPECT_EQ(rig.sim->stencilAt(10, 10), 7);
    float depth_before = rig.sim->depthAt(10, 10);

    // Stencil-only clear: depth must survive.
    ClearCmd c;
    c.color = false;
    c.depth = false;
    c.stencil = true;
    c.stencilValue = 0;
    rig.dev.clear(c);
    EXPECT_EQ(rig.sim->stencilAt(10, 10), 0);
    EXPECT_FLOAT_EQ(rig.sim->depthAt(10, 10), depth_before);

    // Depth-only clear: stencil must survive.
    rig.dev.setDepthStencil(st);
    rig.drawQuad(quad);
    ClearCmd d;
    d.color = false;
    d.depth = true;
    d.stencil = false;
    rig.dev.clear(d);
    EXPECT_FLOAT_EQ(rig.sim->depthAt(10, 10), 1.0f);
    EXPECT_EQ(rig.sim->stencilAt(10, 10), 7);
    rig.dev.endFrame();
}

TEST(Gpu, CountersQuadBalance)
{
    // Every rasterized quad must be accounted for at exactly one
    // removal point or reach blending (the Table IX identity).
    Rig rig;
    auto fs = rig.dev.createProgram(shader::ProgramKind::Fragment,
                                    kColorFs);
    rig.dev.bindProgram(shader::ProgramKind::Fragment, fs);
    rig.dev.clear();
    auto a = rig.makeQuad(-1, -1, 0.3f, 0.3f, -0.2f, {1, 0, 0, 1});
    auto b = rig.makeQuad(-0.7f, -0.7f, 1, 1, 0.4f, {0, 1, 0, 1});
    rig.drawQuad(a);
    rig.drawQuad(b);
    rig.dev.endFrame();
    PipelineCounters c = rig.sim->counters();
    EXPECT_EQ(c.quadsRemovedHz + c.quadsRemovedZStencil +
                  c.quadsRemovedAlpha + c.quadsRemovedColorMask +
                  c.quadsBlended,
              c.rasterQuads);
    EXPECT_NEAR(c.pctQuadsRemovedHz() + c.pctQuadsRemovedZStencil() +
                    c.pctQuadsRemovedAlpha() +
                    c.pctQuadsRemovedColorMask() + c.pctQuadsBlended(),
                100.0, 1e-9);
}

// Malformed calls the device must drop before they reach the pipeline:
// each one crashed or panicked the simulator before it did.
TEST(Device, MalformedCallsSpareTheSimulator)
{
    Rig rig;
    auto fs = rig.dev.createProgram(shader::ProgramKind::Fragment,
                                    kColorFs);
    rig.dev.bindProgram(shader::ProgramKind::Fragment, fs);
    auto quad = rig.makeQuad(-1, -1, 1, 1, 0.0f, {1, 0, 0, 1});
    std::uint32_t empty = rig.dev.createVertexBuffer(VertexBufferData{});
    testing::internal::CaptureStderr();
    rig.dev.draw(quad.first, quad.second, 0xFFFFFFFFu, 4,
                 geom::PrimitiveType::TriangleList);
    rig.dev.draw(empty, quad.second, 0, 6,
                 geom::PrimitiveType::TriangleList);
    rig.dev.setConstant(shader::ProgramKind::Vertex, 64, {1, 1, 1, 1});
    rig.dev.endFrame();
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("draw range exceeds index buffer"), std::string::npos)
        << err;
    EXPECT_NE(err.find("empty vertex buffer"), std::string::npos) << err;
    EXPECT_NE(err.find("constant 64 out of range"), std::string::npos)
        << err;
    EXPECT_EQ(rig.dev.stats().batches(), 0u);
    EXPECT_EQ(rig.sim->counters().indices, 0u);
    EXPECT_EQ(rig.sim->frames(), 1);
}

TEST(Gpu, ConfigDescribeMentionsTableTwoParameters)
{
    GpuConfig cfg;
    std::string desc = cfg.describe();
    EXPECT_NE(desc.find("16 bilinears/cycle"), std::string::npos);
    EXPECT_NE(desc.find("2 triangles/cycle"), std::string::npos);
    EXPECT_NE(desc.find("64 bytes/cycle"), std::string::npos);
    EXPECT_NE(desc.find("1024x768"), std::string::npos);
}
