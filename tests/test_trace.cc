/**
 * @file
 * Trace replay validation subsystem tests: full-tag round trips, the
 * hardened reader's structured error reporting (byte offset + reason
 * for every rejection), and a deterministic seeded fuzzer that mutates
 * valid traces (truncate, bit-flip, tag-swap, length-lie) and asserts
 * the reader never crashes, never over-allocates, and always either
 * ends cleanly or reports a TraceError. Runs under ASan/UBSan in CI.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "api/device.hh"
#include "api/trace.hh"
#include "common/rng.hh"

using namespace wc3d;
using namespace wc3d::api;

namespace {

using Bytes = std::vector<unsigned char>;

std::string
tempPath(const char *name)
{
    // Per-process uniqueness: ctest runs each TEST as its own process
    // in parallel, and two tests reusing a name (wc3d_trace_base.bin)
    // must not clobber each other's files.
    return ::testing::TempDir() +
           std::to_string(static_cast<long>(::getpid())) + "_" + name;
}

Bytes
readFileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    Bytes bytes;
    if (f) {
        unsigned char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            bytes.insert(bytes.end(), buf, buf + n);
        std::fclose(f);
    }
    return bytes;
}

void
writeFileBytes(const std::string &path, const Bytes &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    ASSERT_EQ(std::fclose(f), 0);
}

/** Serialize @p commands to @p path; returns the encoded bytes. */
Bytes
encode(const std::vector<Command> &commands, const std::string &path)
{
    TraceWriter writer(path);
    EXPECT_TRUE(writer.ok());
    for (const Command &cmd : commands)
        EXPECT_TRUE(writer.write(cmd));
    EXPECT_TRUE(writer.close());
    return readFileBytes(path);
}

/** One command of every tag, with non-default payload values. */
std::vector<Command>
allTagCommands()
{
    std::vector<Command> cmds;

    CreateVertexBufferCmd vb;
    vb.id = 7;
    vb.data.strideFloats = 16;
    for (int i = 0; i < 3; ++i) {
        VertexData v;
        v.position = {1.0f * i, 2.0f, -3.5f};
        v.normal = {0.0f, 1.0f, 0.0f};
        v.uv = {0.25f * i, 0.5f};
        v.color = {0.1f, 0.2f, 0.3f, 0.4f};
        vb.data.vertices.push_back(v);
    }
    cmds.emplace_back(vb);

    CreateIndexBufferCmd ib;
    ib.id = 8;
    ib.data.type = IndexType::U32;
    ib.data.indices = {0, 1, 2, 2, 1, 0};
    cmds.emplace_back(ib);

    CreateTextureCmd tx;
    tx.id = 9;
    tx.spec.kind = TextureSpec::Kind::Checker;
    tx.spec.size = 64;
    tx.spec.cell = 8;
    tx.spec.seed = 424242;
    tx.spec.colorA = Rgba8{10, 20, 30, 40};
    tx.spec.colorB = Rgba8{50, 60, 70, 80};
    tx.spec.format = tex::TexFormat::DXT5;
    tx.spec.alphaNoise = true;
    cmds.emplace_back(tx);

    CreateProgramCmd pr;
    pr.id = 10;
    pr.kind = shader::ProgramKind::Fragment;
    pr.source = "!!FP f\nMOV o0, v1;\n";
    cmds.emplace_back(pr);

    BindProgramCmd bp;
    bp.kind = shader::ProgramKind::Fragment;
    bp.id = 10;
    cmds.emplace_back(bp);

    BindTextureCmd bt;
    bt.unit = 3;
    bt.id = 9;
    bt.sampler.filter = tex::TexFilter::Anisotropic;
    bt.sampler.wrap = tex::TexWrap::Clamp;
    bt.sampler.maxAniso = 16;
    bt.sampler.lodBias = -0.5f;
    cmds.emplace_back(bt);

    SetDepthStencilCmd ds;
    ds.state.depthTest = true;
    ds.state.depthFunc = frag::CompareFunc::GEqual;
    ds.state.depthWrite = false;
    ds.state.stencilTest = true;
    ds.state.front.func = frag::CompareFunc::NotEqual;
    ds.state.front.ref = 3;
    ds.state.front.sfail = frag::StencilOp::IncrWrap;
    ds.state.back.zpass = frag::StencilOp::Invert;
    cmds.emplace_back(ds);

    SetBlendCmd bl;
    bl.state.enabled = true;
    bl.state.srcFactor = frag::BlendFactor::InvDstAlpha;
    bl.state.dstFactor = frag::BlendFactor::SrcColor;
    bl.state.op = frag::BlendOp::RevSubtract;
    bl.state.colorWriteMask = 0x7;
    cmds.emplace_back(bl);

    cmds.emplace_back(SetCullModeCmd{geom::CullMode::Front});

    SetConstantCmd sc;
    sc.kind = shader::ProgramKind::Vertex;
    sc.index = 12;
    sc.value = {1.5f, -2.5f, 3.5f, -4.5f};
    cmds.emplace_back(sc);

    ClearCmd cl;
    cl.color = true;
    cl.depth = false;
    cl.stencil = true;
    cl.colorValue = 0xdeadbeef;
    cl.depthValue = 0.25f;
    cl.stencilValue = 0x80;
    cmds.emplace_back(cl);

    DrawCmd dr;
    dr.vertexBuffer = 7;
    dr.indexBuffer = 8;
    dr.firstIndex = 1;
    dr.indexCount = 4;
    dr.topology = geom::PrimitiveType::TriangleFan;
    cmds.emplace_back(dr);

    cmds.emplace_back(EndFrameCmd{});
    return cmds;
}

/** Decode every command from @p path (expects a clean full parse). */
std::vector<Command>
decodeAll(const std::string &path)
{
    TraceReader reader(path);
    EXPECT_TRUE(reader.ok());
    std::vector<Command> cmds;
    while (auto cmd = reader.next())
        cmds.push_back(std::move(*cmd));
    EXPECT_TRUE(reader.atEnd());
    EXPECT_FALSE(reader.error().has_value())
        << reader.error()->describe();
    return cmds;
}

/**
 * Expect @p bytes to fail parsing with an error whose reason contains
 * @p reason_part, detected at @p offset (SIZE_MAX = don't check).
 */
void
expectRejected(const Bytes &bytes, const char *reason_part,
               std::uint64_t offset = UINT64_MAX)
{
    std::string path = tempPath("wc3d_trace_reject.bin");
    writeFileBytes(path, bytes);
    TraceReader reader(path);
    while (reader.next()) {
    }
    ASSERT_TRUE(reader.error().has_value())
        << "expected rejection: " << reason_part;
    EXPECT_NE(reader.error()->reason.find(reason_part),
              std::string::npos)
        << "got: " << reader.error()->describe();
    if (offset != UINT64_MAX) {
        EXPECT_EQ(reader.error()->offset, offset)
            << "got: " << reader.error()->describe();
    }
    EXPECT_LE(reader.error()->offset, bytes.size());
    std::remove(path.c_str());
}

/** The first record starts after the 8-byte magic. */
constexpr std::size_t kRec0 = 8;       ///< tag byte of record 0
constexpr std::size_t kRec0Len = 9;    ///< length field of record 0
constexpr std::size_t kRec0Pay = 13;   ///< payload start of record 0

void
patchU32(Bytes &b, std::size_t at, std::uint32_t v)
{
    b[at] = static_cast<unsigned char>(v);
    b[at + 1] = static_cast<unsigned char>(v >> 8);
    b[at + 2] = static_cast<unsigned char>(v >> 16);
    b[at + 3] = static_cast<unsigned char>(v >> 24);
}

} // namespace

TEST(Trace, RoundTripsEveryCommandTag)
{
    std::vector<Command> cmds = allTagCommands();
    EXPECT_EQ(cmds.size(), std::variant_size_v<Command>);

    std::string path_a = tempPath("wc3d_trace_all_a.bin");
    Bytes first = encode(cmds, path_a);

    std::vector<Command> decoded = decodeAll(path_a);
    ASSERT_EQ(decoded.size(), cmds.size());
    for (std::size_t i = 0; i < cmds.size(); ++i)
        EXPECT_EQ(decoded[i].index(), cmds[i].index()) << "tag " << i;

    // Serialization is canonical, so write→read→write must reproduce
    // the file byte for byte: a lossless round trip for every field
    // of every command tag.
    std::string path_b = tempPath("wc3d_trace_all_b.bin");
    Bytes second = encode(decoded, path_b);
    EXPECT_EQ(first, second);

    // Spot-check decoded payloads.
    const auto &vb = std::get<CreateVertexBufferCmd>(decoded[0]);
    EXPECT_EQ(vb.data.strideFloats, 16);
    ASSERT_EQ(vb.data.vertices.size(), 3u);
    EXPECT_FLOAT_EQ(vb.data.vertices[2].position.x, 2.0f);
    const auto &ib = std::get<CreateIndexBufferCmd>(decoded[1]);
    EXPECT_EQ(ib.data.type, IndexType::U32);
    EXPECT_EQ(ib.data.indices.size(), 6u);
    const auto &tx = std::get<CreateTextureCmd>(decoded[2]);
    EXPECT_EQ(tx.spec.format, tex::TexFormat::DXT5);
    EXPECT_EQ(tx.spec.seed, 424242u);
    EXPECT_TRUE(tx.spec.alphaNoise);
    const auto &pr = std::get<CreateProgramCmd>(decoded[3]);
    EXPECT_EQ(pr.source, "!!FP f\nMOV o0, v1;\n");
    const auto &bt = std::get<BindTextureCmd>(decoded[5]);
    EXPECT_EQ(bt.sampler.maxAniso, 16);
    EXPECT_FLOAT_EQ(bt.sampler.lodBias, -0.5f);
    const auto &cl = std::get<ClearCmd>(decoded[10]);
    EXPECT_EQ(cl.colorValue, 0xdeadbeefu);
    EXPECT_FALSE(cl.depth);
    const auto &dr = std::get<DrawCmd>(decoded[11]);
    EXPECT_EQ(dr.topology, geom::PrimitiveType::TriangleFan);

    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(Trace, RejectsUnknownTagWithOffset)
{
    Bytes bytes = encode({Command{EndFrameCmd{}}},
                         tempPath("wc3d_trace_base.bin"));
    bytes[kRec0] = 200;
    expectRejected(bytes, "unknown command tag 200", kRec0);
}

TEST(Trace, RejectsLengthLie)
{
    Bytes bytes = encode({Command{EndFrameCmd{}}},
                         tempPath("wc3d_trace_base.bin"));
    // The record claims 4 GiB of payload; the reader must reject it
    // before allocating anything.
    patchU32(bytes, kRec0Len, 0xffffffffu);
    expectRejected(bytes, "exceeds", kRec0Len);
}

TEST(Trace, RejectsOutOfRangeCullMode)
{
    Bytes bytes = encode({Command{SetCullModeCmd{geom::CullMode::Back}}},
                         tempPath("wc3d_trace_base.bin"));
    bytes[kRec0Pay] = 9;
    expectRejected(bytes, "CullMode out of range: 9 > 2", kRec0Pay);
}

TEST(Trace, RejectsOutOfRangeIndexType)
{
    CreateIndexBufferCmd ib;
    ib.id = 1;
    ib.data.indices = {0, 1, 2};
    Bytes bytes = encode({Command{ib}},
                         tempPath("wc3d_trace_base.bin"));
    // Payload: id u32, then the IndexType byte.
    bytes[kRec0Pay + 4] = 5;
    expectRejected(bytes, "IndexType out of range: 5 > 1",
                   kRec0Pay + 4);
}

TEST(Trace, RejectsOutOfRangeProgramKind)
{
    CreateProgramCmd pr;
    pr.id = 1;
    pr.source = "!!VP v\nMOV o0, v0;\n";
    Bytes bytes = encode({Command{pr}},
                         tempPath("wc3d_trace_base.bin"));
    bytes[kRec0Pay + 4] = 2;
    expectRejected(bytes, "ProgramKind out of range: 2 > 1",
                   kRec0Pay + 4);
}

TEST(Trace, RejectsBadTextureSpec)
{
    CreateTextureCmd tx;
    tx.id = 1;
    tx.spec.size = 64;
    tx.spec.cell = 8;
    std::string path = tempPath("wc3d_trace_base.bin");
    Bytes base = encode({Command{tx}}, path);
    // Payload: id(4) kind(1) size(4) cell(4) seed(8) colorA(4)
    // colorB(4) format(1) alphaNoise(1).
    const std::size_t kind_at = kRec0Pay + 4;
    const std::size_t size_at = kind_at + 1;
    const std::size_t cell_at = size_at + 4;
    const std::size_t format_at = cell_at + 4 + 8 + 4 + 4;

    Bytes bytes = base;
    bytes[kind_at] = 7;
    expectRejected(bytes, "texture kind out of range: 7 > 2", kind_at);

    // A corrupt u32 that would previously cast to a negative /
    // multi-GiB int and OOM texture creation.
    bytes = base;
    patchU32(bytes, size_at, 0xfffffff0u);
    expectRejected(bytes, "texture size", size_at);

    bytes = base;
    patchU32(bytes, size_at, 0);
    expectRejected(bytes, "texture size", size_at);

    // In range, but texture building asserts a power of two.
    bytes = base;
    patchU32(bytes, size_at, 48);
    expectRejected(bytes, "texture size 48 is not a power of two",
                   size_at);

    bytes = base;
    patchU32(bytes, cell_at, 65); // cell > size
    expectRejected(bytes, "texture cell", cell_at);

    bytes = base;
    bytes[format_at] = 11;
    expectRejected(bytes, "texture format out of range: 11 > 3",
                   format_at);
}

TEST(Trace, RejectsBadVertexBuffer)
{
    CreateVertexBufferCmd vb;
    vb.id = 1;
    vb.data.vertices.resize(2);
    std::string path = tempPath("wc3d_trace_base.bin");
    Bytes base = encode({Command{vb}}, path);
    const std::size_t stride_at = kRec0Pay + 4;
    const std::size_t count_at = stride_at + 4;

    Bytes bytes = base;
    patchU32(bytes, stride_at, 4); // < the 12-float layout
    expectRejected(bytes, "vertex stride", stride_at);

    // Count lie: claims more vertices than the record payload holds.
    bytes = base;
    patchU32(bytes, count_at, 1000);
    expectRejected(bytes, "vertex count", count_at);
}

TEST(Trace, RejectsBadSampler)
{
    BindTextureCmd bt;
    bt.unit = 0;
    bt.id = 1;
    Bytes base = encode({Command{bt}},
                        tempPath("wc3d_trace_base.bin"));
    // Payload: unit(4) id(4) filter(1) wrap(1) aniso(4) lodBias(4).
    const std::size_t aniso_at = kRec0Pay + 4 + 4 + 1 + 1;
    const std::size_t lod_at = aniso_at + 4;

    Bytes bytes = base;
    patchU32(bytes, aniso_at, 0);
    expectRejected(bytes, "maxAniso 0", aniso_at);

    bytes = base;
    patchU32(bytes, aniso_at, 1000);
    expectRejected(bytes, "maxAniso 1000", aniso_at);

    bytes = base;
    patchU32(bytes, lod_at, 0x7fc00000u); // quiet NaN
    expectRejected(bytes, "lodBias: non-finite float", lod_at);
}

TEST(Trace, RejectsBadBoolByte)
{
    Bytes bytes = encode({Command{ClearCmd{}}},
                         tempPath("wc3d_trace_base.bin"));
    bytes[kRec0Pay] = 2; // clear color flag
    expectRejected(bytes, "invalid bool byte 2", kRec0Pay);
}

TEST(Trace, RejectsTrailingPayloadBytes)
{
    // A hand-built EndFrame record claiming a 1-byte payload.
    Bytes bytes = encode({}, tempPath("wc3d_trace_base.bin"));
    bytes.push_back(12); // EndFrame tag
    bytes.push_back(1);  // length = 1
    bytes.push_back(0);
    bytes.push_back(0);
    bytes.push_back(0);
    bytes.push_back(0xab); // payload EndFrame does not consume
    expectRejected(bytes, "trailing payload bytes", kRec0Pay);
}

TEST(Trace, RejectsTruncatedRecordHeader)
{
    Bytes bytes = encode({Command{EndFrameCmd{}}},
                         tempPath("wc3d_trace_base.bin"));
    bytes.resize(kRec0 + 2); // tag + 1 of 4 length bytes
    expectRejected(bytes, "truncated record header", kRec0 + 1);
}

TEST(Trace, ByteOffsetsAdvancePerRecord)
{
    // An error in the SECOND record must carry that record's offset,
    // proving diagnostics are absolute file positions.
    std::string path = tempPath("wc3d_trace_two.bin");
    TraceWriter writer(path);
    ASSERT_TRUE(writer.write(Command{EndFrameCmd{}}));
    std::uint64_t second_at = writer.bytesWritten();
    ASSERT_TRUE(writer.write(Command{SetCullModeCmd{}}));
    ASSERT_TRUE(writer.close());

    Bytes bytes = readFileBytes(path);
    bytes[second_at + 5] = 77; // second record's payload enum byte
    expectRejected(bytes, "CullMode out of range", second_at + 5);
    std::remove(path.c_str());
}

/**
 * Deterministic trace fuzzer: seeded mutations of a valid trace. The
 * reader must never crash (ASan/UBSan-enforced in CI), never allocate
 * beyond the file size, and for every mutant either parse cleanly to
 * the end or stop with a structured error carrying an in-bounds byte
 * offset and a non-empty reason.
 */
TEST(TraceFuzz, SeededMutationsNeverCrashAndAlwaysExplain)
{
    std::string base_path = tempPath("wc3d_trace_fuzz_base.bin");
    Bytes base = encode(allTagCommands(), base_path);
    ASSERT_GT(base.size(), 32u);

    std::string path = tempPath("wc3d_trace_fuzz.bin");
    const int kMutations = 1200;
    int rejected = 0;
    int clean = 0;

    for (int seed = 0; seed < kMutations; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed), /*stream=*/0x7c3d);
        Bytes bytes = base;
        switch (seed % 4) {
          case 0: // truncate at an arbitrary byte
            bytes.resize(rng.nextBounded(
                static_cast<std::uint32_t>(bytes.size())));
            break;
          case 1: { // flip 1..8 random bits
            int flips = 1 + static_cast<int>(rng.nextBounded(8));
            for (int i = 0; i < flips; ++i) {
                std::uint32_t at = rng.nextBounded(
                    static_cast<std::uint32_t>(bytes.size()));
                bytes[at] ^= static_cast<unsigned char>(
                    1u << rng.nextBounded(8));
            }
            break;
          }
          case 2: { // tag-swap: overwrite a byte with a random value
            std::uint32_t at = rng.nextBounded(
                static_cast<std::uint32_t>(bytes.size()));
            bytes[at] =
                static_cast<unsigned char>(rng.nextBounded(256));
            break;
          }
          case 3: { // length-lie: random u32 over a random 4-byte span
            std::uint32_t at = rng.nextBounded(
                static_cast<std::uint32_t>(bytes.size() - 3));
            std::uint32_t v = rng.nextU32();
            for (int i = 0; i < 4; ++i)
                bytes[at + i] =
                    static_cast<unsigned char>(v >> (8 * i));
            break;
          }
        }

        writeFileBytes(path, bytes);
        TraceReader reader(path);
        std::uint64_t iterations = 0;
        while (reader.next()) {
            ASSERT_LT(++iterations, 100000u)
                << "seed " << seed << ": reader did not terminate";
        }
        if (reader.error()) {
            ++rejected;
            EXPECT_FALSE(reader.error()->reason.empty())
                << "seed " << seed;
            EXPECT_LE(reader.error()->offset, bytes.size())
                << "seed " << seed << ": "
                << reader.error()->describe();
        } else {
            // The mutation happened to keep the trace valid (e.g. a
            // bit flip inside vertex data); a clean parse must have
            // reached the end of the file.
            ++clean;
            EXPECT_TRUE(reader.atEnd()) << "seed " << seed;
        }
    }

    // The corpus must exercise both outcomes: plenty of structured
    // rejections, and some mutants that stay valid (flips landing in
    // unvalidated payload bytes such as vertex floats).
    EXPECT_GT(rejected, kMutations / 4);
    EXPECT_GT(clean, kMutations / 50);
    std::remove(base_path.c_str());
    std::remove(path.c_str());
}
