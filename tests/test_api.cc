/**
 * @file
 * Unit tests for the API layer: device state machine, resource
 * management, draw dispatch and API statistics.
 */

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/device.hh"
#include "common/threadpool.hh"

using namespace wc3d;
using namespace wc3d::api;

namespace {

/** Sink recording everything it receives. */
class RecordingSink : public DrawSink
{
  public:
    void
    vertexBufferCreated(std::uint32_t id, const VertexBufferData &) override
    {
        vbIds.push_back(id);
    }
    void
    indexBufferCreated(std::uint32_t id, const IndexBufferData &) override
    {
        ibIds.push_back(id);
    }
    void
    textureCreated(std::uint32_t id, tex::Texture2D &) override
    {
        texIds.push_back(id);
    }
    void
    programCreated(std::uint32_t id, const shader::Program &) override
    {
        progIds.push_back(id);
    }
    void clear(const ClearCmd &) override { ++clears; }
    void
    draw(const DrawCall &call) override
    {
        draws.push_back(call);
    }
    void endFrame() override { ++frames; }

    std::vector<std::uint32_t> vbIds, ibIds, texIds, progIds;
    std::vector<DrawCall> draws;
    int clears = 0;
    int frames = 0;
};

VertexBufferData
smallVb(int n = 3)
{
    VertexBufferData vb;
    for (int i = 0; i < n; ++i) {
        VertexData v;
        v.position = {static_cast<float>(i), 0.0f, 0.0f};
        vb.vertices.push_back(v);
    }
    return vb;
}

IndexBufferData
smallIb(std::initializer_list<std::uint32_t> idx,
        IndexType type = IndexType::U16)
{
    IndexBufferData ib;
    ib.type = type;
    ib.indices = idx;
    return ib;
}

const char *kVs = "!!VP v\nMOV o0, v0;\n";
const char *kFs = "!!FP f\nMOV o0, v1;\n";

/** Sink logging every call, in order, as (kind, id); 0 when a call
 *  carries no id. */
class OrderSink : public DrawSink
{
  public:
    using Calls = std::vector<std::pair<char, std::uint32_t>>;

    void
    vertexBufferCreated(std::uint32_t id, const VertexBufferData &) override
    {
        calls.emplace_back('v', id);
    }
    void
    indexBufferCreated(std::uint32_t id, const IndexBufferData &) override
    {
        calls.emplace_back('i', id);
    }
    void
    textureCreated(std::uint32_t id, tex::Texture2D &texture) override
    {
        calls.emplace_back('t', id);
        textures.push_back(&texture);
        widths.push_back(texture.width());
    }
    void
    programCreated(std::uint32_t id, const shader::Program &) override
    {
        calls.emplace_back('p', id);
    }
    void clear(const ClearCmd &) override { calls.emplace_back('c', 0); }
    void draw(const DrawCall &) override { calls.emplace_back('d', 0); }
    void endFrame() override { calls.emplace_back('f', 0); }

    Calls calls;
    std::vector<const tex::Texture2D *> textures;
    std::vector<int> widths;
};

TextureSpec
noiseSpec(int size)
{
    TextureSpec spec;
    spec.size = size;
    spec.seed = static_cast<std::uint64_t>(size);
    return spec;
}

/** Device with programs bound, ready to draw. */
struct Fixture
{
    Device dev;
    RecordingSink sink;
    std::uint32_t vb, ib, vp, fp;

    Fixture()
    {
        dev.setSink(&sink);
        vb = dev.createVertexBuffer(smallVb());
        ib = dev.createIndexBuffer(smallIb({0, 1, 2}));
        vp = dev.createProgram(shader::ProgramKind::Vertex, kVs);
        fp = dev.createProgram(shader::ProgramKind::Fragment, kFs);
        dev.bindProgram(shader::ProgramKind::Vertex, vp);
        dev.bindProgram(shader::ProgramKind::Fragment, fp);
    }
};

} // namespace

TEST(Device, ResourceCreationNotifiesSink)
{
    Fixture f;
    EXPECT_EQ(f.sink.vbIds.size(), 1u);
    EXPECT_EQ(f.sink.ibIds.size(), 1u);
    EXPECT_EQ(f.sink.progIds.size(), 2u);
    EXPECT_NE(f.dev.vertexBuffer(f.vb), nullptr);
    EXPECT_NE(f.dev.indexBuffer(f.ib), nullptr);
    EXPECT_NE(f.dev.program(f.vp), nullptr);
    EXPECT_EQ(f.dev.vertexBuffer(999), nullptr);
}

TEST(Device, BadProgramReturnsZero)
{
    Device dev;
    EXPECT_EQ(dev.createProgram(shader::ProgramKind::Vertex, "GARBAGE x\n"),
              0u);
}

TEST(Device, DrawDispatchesResolvedCall)
{
    Fixture f;
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    ASSERT_EQ(f.sink.draws.size(), 1u);
    const DrawCall &call = f.sink.draws[0];
    EXPECT_EQ(call.indexCount, 3u);
    EXPECT_EQ(call.vertices->vertices.size(), 3u);
    EXPECT_EQ(call.vertexProgram->kind(), shader::ProgramKind::Vertex);
    EXPECT_EQ(call.fragmentProgram->kind(), shader::ProgramKind::Fragment);
}

TEST(Device, DrawWithoutProgramsDropped)
{
    Device dev;
    RecordingSink sink;
    dev.setSink(&sink);
    auto vb = dev.createVertexBuffer(smallVb());
    auto ib = dev.createIndexBuffer(smallIb({0, 1, 2}));
    dev.draw(vb, ib, 0, 3, geom::PrimitiveType::TriangleList);
    EXPECT_TRUE(sink.draws.empty());
    EXPECT_EQ(dev.stats().batches(), 0u);
}

TEST(Device, DrawRangeValidation)
{
    Fixture f;
    std::uint32_t empty = f.dev.createVertexBuffer(VertexBufferData{});
    testing::internal::CaptureStderr();
    f.dev.draw(f.vb, f.ib, 0, 99, geom::PrimitiveType::TriangleList);
    f.dev.draw(f.vb, 7777, 0, 3, geom::PrimitiveType::TriangleList);
    // 0xFFFFFFFF + 4 wraps to 3 in 32 bits, which fits the buffer.
    f.dev.draw(f.vb, f.ib, 0xFFFFFFFFu, 4,
               geom::PrimitiveType::TriangleList);
    f.dev.draw(empty, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_TRUE(f.sink.draws.empty());
    EXPECT_EQ(f.dev.stats().batches(), 0u);
    EXPECT_EQ(f.dev.stats().indices(), 0u);
    EXPECT_NE(err.find("draw range exceeds index buffer"), std::string::npos)
        << err;
    EXPECT_NE(err.find("empty vertex buffer"), std::string::npos) << err;
}

TEST(Device, OutOfRangeConstantDropped)
{
    Fixture f;
    testing::internal::CaptureStderr();
    f.dev.setConstant(shader::ProgramKind::Vertex, shader::kMaxConsts,
                      {1, 2, 3, 4});
    f.dev.setConstant(shader::ProgramKind::Fragment, 0xFFFFFFFFu,
                      {1, 2, 3, 4});
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("constant 64 out of range"), std::string::npos)
        << err;
    EXPECT_NE(err.find("constant 4294967295 out of range"),
              std::string::npos)
        << err;
    for (int i = 0; i < shader::kMaxConsts; ++i)
        EXPECT_FLOAT_EQ(f.dev.program(f.vp)->constant(i).y, 0.0f) << i;
}

TEST(Device, StateTracking)
{
    Fixture f;
    frag::DepthStencilState ds;
    ds.depthFunc = frag::CompareFunc::Equal;
    f.dev.setDepthStencil(ds);
    frag::BlendState bs;
    bs.enabled = true;
    f.dev.setBlend(bs);
    f.dev.setCullMode(geom::CullMode::Front);
    EXPECT_EQ(f.dev.currentState().depthStencil.depthFunc,
              frag::CompareFunc::Equal);
    EXPECT_TRUE(f.dev.currentState().blend.enabled);
    EXPECT_EQ(f.dev.currentState().cullMode, geom::CullMode::Front);

    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    EXPECT_EQ(f.sink.draws.back().state.cullMode, geom::CullMode::Front);
}

TEST(Device, TextureBindingResolved)
{
    Fixture f;
    TextureSpec spec;
    spec.kind = TextureSpec::Kind::Checker;
    spec.size = 16;
    spec.format = tex::TexFormat::RGBA8;
    auto tid = f.dev.createTexture(spec);
    tex::SamplerState ss;
    ss.maxAniso = 16;
    f.dev.bindTexture(2, tid, ss);
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    const DrawCall &call = f.sink.draws.back();
    EXPECT_EQ(call.textures[2], f.dev.texture(tid));
    EXPECT_EQ(call.state.samplers[2].maxAniso, 16);
    EXPECT_EQ(call.textures[0], nullptr);
}

TEST(Device, SetConstantReachesBoundProgram)
{
    Fixture f;
    f.dev.setConstant(shader::ProgramKind::Vertex, 5, {1, 2, 3, 4});
    EXPECT_FLOAT_EQ(f.dev.program(f.vp)->constant(5).y, 2.0f);
}

TEST(Device, ClearAndEndFrameForwarded)
{
    Fixture f;
    f.dev.clear();
    f.dev.endFrame();
    EXPECT_EQ(f.sink.clears, 1);
    EXPECT_EQ(f.sink.frames, 1);
}

TEST(Device, SinkSeesCallsInSubmissionOrder)
{
    for (int threads : {1, 4}) {
        ThreadPool::setGlobalThreads(threads);
        Device dev;
        OrderSink sink;
        dev.setSink(&sink);
        OrderSink::Calls want;
        auto texture = [&](int size) {
            std::uint32_t id = dev.createTexture(noiseSpec(size));
            want.emplace_back('t', id);
            return id;
        };

        std::uint32_t vb = dev.createVertexBuffer(smallVb());
        want.emplace_back('v', vb);
        texture(64);
        texture(32);
        std::uint32_t bound = texture(16);
        std::uint32_t ib = dev.createIndexBuffer(smallIb({0, 1, 2}));
        want.emplace_back('i', ib);
        std::uint32_t vp = dev.createProgram(shader::ProgramKind::Vertex,
                                             kVs);
        want.emplace_back('p', vp);
        texture(8);
        texture(4);
        std::uint32_t fp = dev.createProgram(
            shader::ProgramKind::Fragment, kFs);
        want.emplace_back('p', fp);
        dev.bindProgram(shader::ProgramKind::Vertex, vp);
        dev.bindProgram(shader::ProgramKind::Fragment, fp);
        dev.bindTexture(0, bound, tex::SamplerState{});
        dev.clear();
        want.emplace_back('c', 0);
        dev.draw(vb, ib, 0, 3, geom::PrimitiveType::TriangleList);
        want.emplace_back('d', 0);
        std::uint32_t last = texture(16);
        texture(2);
        dev.endFrame(); // announces the trailing run first
        want.emplace_back('f', 0);

        EXPECT_EQ(sink.calls, want) << threads << " thread(s)";
        EXPECT_EQ(sink.widths,
                  (std::vector<int>{64, 32, 16, 8, 4, 16, 2}))
            << threads << " thread(s)";
        EXPECT_EQ(dev.texture(bound), sink.textures[2]);
        EXPECT_EQ(dev.texture(last), sink.textures[5]);
        EXPECT_EQ(sink.calls.size(), want.size()); // lookups announce nothing
    }
    ThreadPool::setGlobalThreads(ThreadPool::configuredThreads());
}

TEST(Device, TextureBuiltOnLookupWithoutSink)
{
    Device dev;
    TextureSpec spec = noiseSpec(32);
    spec.alphaNoise = true;
    spec.format = tex::TexFormat::DXT5;
    std::uint32_t id = dev.createTexture(spec);
    const tex::Texture2D *t = dev.texture(id);
    ASSERT_NE(t, nullptr);
    tex::Texture2D want = spec.build("tex" + std::to_string(id));
    EXPECT_EQ(t->name(), want.name());
    EXPECT_EQ(t->storageBytes(), want.storageBytes());
    ASSERT_EQ(t->levels(), want.levels());
    for (int l = 0; l < want.levels(); ++l) {
        tex::Texture2D::LevelView a = t->levelView(l), b = want.levelView(l);
        ASSERT_EQ(a.width, b.width);
        ASSERT_EQ(a.height, b.height);
        EXPECT_EQ(std::memcmp(a.texels, b.texels,
                              sizeof(Rgba8) * a.width * a.height),
                  0)
            << "level " << l;
    }
    EXPECT_EQ(dev.texture(id), t);
    EXPECT_EQ(dev.texture(id + 1), nullptr);
}

TEST(Device, TextureCreatedBeforeSinkNeverAnnounced)
{
    Device dev;
    std::uint32_t early = dev.createTexture(noiseSpec(8));
    OrderSink sink;
    dev.setSink(&sink);
    std::uint32_t late = dev.createTexture(noiseSpec(4));
    dev.bindTexture(0, early, tex::SamplerState{});
    EXPECT_NE(dev.texture(early), nullptr);
    EXPECT_EQ(sink.calls, (OrderSink::Calls{{'t', late}}));
}

TEST(Device, PendingTexturesAnnouncedOnSetSinkAndLookup)
{
    Device dev;
    OrderSink first, second;
    dev.setSink(&first);
    std::uint32_t a = dev.createTexture(noiseSpec(4));
    dev.setSink(&second); // the run goes to the sink it was created under
    EXPECT_EQ(first.calls, (OrderSink::Calls{{'t', a}}));
    EXPECT_TRUE(second.calls.empty());

    std::uint32_t b = dev.createTexture(noiseSpec(8));
    std::uint32_t c = dev.createTexture(noiseSpec(2));
    const tex::Texture2D *tc = dev.texture(c); // ends the run
    EXPECT_EQ(second.calls, (OrderSink::Calls{{'t', b}, {'t', c}}));
    ASSERT_EQ(second.textures.size(), 2u);
    EXPECT_EQ(second.textures[1], tc);
    EXPECT_EQ(dev.texture(b), second.textures[0]);
}

TEST(ApiStats, CountsDrawsAndStateCalls)
{
    Fixture f;
    // Fixture did 6 state calls (2 buffers + 2 programs + 2 binds).
    std::uint64_t base = f.dev.stats().stateCalls();
    EXPECT_EQ(base, 6u);
    f.dev.setCullMode(geom::CullMode::None);
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    f.dev.endFrame();
    const ApiStats &s = f.dev.stats();
    EXPECT_EQ(s.stateCalls(), base + 1);
    EXPECT_EQ(s.batches(), 1u);
    EXPECT_EQ(s.indices(), 3u);
    EXPECT_EQ(s.indexBytes(), 6u); // U16
    EXPECT_EQ(s.frames(), 1u);
    EXPECT_EQ(s.primitives(), 1u);
    EXPECT_DOUBLE_EQ(s.avgIndicesPerBatch(), 3.0);
    EXPECT_DOUBLE_EQ(s.avgBatchesPerFrame(), 1.0);
}

TEST(ApiStats, EveryCallButDrawAndEndFrameIsOneStateCall)
{
    Fixture f;
    Device &dev = f.dev;
    auto calls = [&] { return dev.stats().stateCalls(); };
    auto once = [&](const char *what, auto &&call) {
        std::uint64_t before = calls();
        testing::internal::CaptureStderr();
        call();
        testing::internal::GetCapturedStderr();
        EXPECT_EQ(calls(), before + 1) << what;
    };
    once("createVertexBuffer", [&] { dev.createVertexBuffer(smallVb()); });
    once("createIndexBuffer",
         [&] { dev.createIndexBuffer(smallIb({0, 1, 2})); });
    once("createTexture", [&] { dev.createTexture(noiseSpec(4)); });
    once("createProgram",
         [&] { dev.createProgram(shader::ProgramKind::Vertex, kVs); });
    once("createProgram (fails to assemble)",
         [&] { dev.createProgram(shader::ProgramKind::Vertex, "BAD x\n"); });
    once("bindProgram", [&] { dev.bindProgram(shader::ProgramKind::Vertex,
                                              f.vp); });
    once("bindProgram (unknown)",
         [&] { dev.bindProgram(shader::ProgramKind::Vertex, 9999); });
    once("bindTexture", [&] { dev.bindTexture(0, 0, {}); });
    once("bindTexture (bad unit)",
         [&] { dev.bindTexture(shader::kMaxSamplers, 0, {}); });
    once("setDepthStencil", [&] { dev.setDepthStencil({}); });
    once("setBlend", [&] { dev.setBlend({}); });
    once("setCullMode", [&] { dev.setCullMode(geom::CullMode::None); });
    once("setConstant",
         [&] { dev.setConstant(shader::ProgramKind::Vertex, 0, {}); });
    once("setConstant (out of range)",
         [&] { dev.setConstant(shader::ProgramKind::Vertex, 64, {}); });
    once("clear", [&] { dev.clear(); });

    std::uint64_t before = calls();
    dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    testing::internal::CaptureStderr();
    dev.draw(f.vb, 9999, 0, 3, geom::PrimitiveType::TriangleList);
    testing::internal::GetCapturedStderr();
    dev.endFrame();
    EXPECT_EQ(calls(), before);
    EXPECT_EQ(dev.stats().batches(), 1u);
    EXPECT_EQ(dev.stats().frames(), 1u);
}

TEST(ApiStats, PrimitiveShares)
{
    Fixture f;
    auto ib_strip = f.dev.createIndexBuffer(
        smallIb({0, 1, 2, 1, 2, 0, 1, 2}, IndexType::U32));
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList); // 1
    f.dev.draw(f.vb, ib_strip, 0, 5, geom::PrimitiveType::TriangleStrip); // 3
    f.dev.endFrame();
    const ApiStats &s = f.dev.stats();
    EXPECT_DOUBLE_EQ(
        s.primitiveSharePct(geom::PrimitiveType::TriangleList), 25.0);
    EXPECT_DOUBLE_EQ(
        s.primitiveSharePct(geom::PrimitiveType::TriangleStrip), 75.0);
    // U16 batch: 3*2 bytes; U32 batch: 5*4 bytes.
    EXPECT_EQ(s.indexBytes(), 6u + 20u);
}

TEST(ApiStats, ShaderAverages)
{
    Fixture f;
    // kVs is 1 instruction; kFs is 1 instruction, 0 tex.
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    f.dev.endFrame();
    EXPECT_DOUBLE_EQ(f.dev.stats().avgVertexShaderInstructions(), 1.0);
    EXPECT_DOUBLE_EQ(f.dev.stats().avgFragmentInstructions(), 1.0);
    EXPECT_DOUBLE_EQ(f.dev.stats().avgFragmentTexInstructions(), 0.0);
}

TEST(ApiStats, SeriesPerFrame)
{
    Fixture f;
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    f.dev.endFrame();
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    f.dev.endFrame();
    const auto &batches = f.dev.stats().series().series("batches");
    ASSERT_EQ(batches.size(), 2u);
    EXPECT_DOUBLE_EQ(batches[0], 2.0);
    EXPECT_DOUBLE_EQ(batches[1], 1.0);
}

TEST(ApiStats, IndexBwAtFps)
{
    Fixture f;
    f.dev.draw(f.vb, f.ib, 0, 3, geom::PrimitiveType::TriangleList);
    f.dev.endFrame();
    // 6 bytes/frame * 100 fps = 600 B/s.
    EXPECT_DOUBLE_EQ(f.dev.stats().indexBwAtFps(100.0), 600.0);
}

TEST(Misc, NamesAndSizes)
{
    EXPECT_STREQ(graphicsApiName(GraphicsApi::OpenGL), "OpenGL");
    EXPECT_STREQ(graphicsApiName(GraphicsApi::Direct3D), "Direct3D");
    EXPECT_EQ(indexTypeBytes(IndexType::U16), 2);
    EXPECT_EQ(indexTypeBytes(IndexType::U32), 4);
}
