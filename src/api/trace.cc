#include "api/trace.hh"

#include <cmath>
#include <cstring>
#include <vector>

#include "api/device.hh"
#include "common/log.hh"
#include "common/strutil.hh"

namespace wc3d::api {

namespace {

constexpr char kMagic[8] = {'W', 'C', '3', 'D', 'T', 'R', 'C', '2'};

/** Highest valid command tag (= index of EndFrameCmd in Command). */
constexpr std::uint8_t kMaxTag =
    static_cast<std::uint8_t>(std::variant_size_v<Command> - 1);

/** Bytes one vertex occupies in the stream: 12 floats. */
constexpr std::size_t kVertexStreamBytes = 12 * 4;

/** Little-endian primitive writers into a growable buffer. Records are
 *  serialized here first so the writer can frame them with an exact
 *  payload length. */
struct Out
{
    std::string &buf;

    void
    bytes(const void *p, std::size_t n)
    {
        buf.append(static_cast<const char *>(p), n);
    }

    void u8(std::uint8_t v) { bytes(&v, 1); }
    void
    u32(std::uint32_t v)
    {
        std::uint8_t b[4] = {static_cast<std::uint8_t>(v),
                             static_cast<std::uint8_t>(v >> 8),
                             static_cast<std::uint8_t>(v >> 16),
                             static_cast<std::uint8_t>(v >> 24)};
        bytes(b, 4);
    }
    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }
    void
    f32(float v)
    {
        std::uint32_t bits;
        std::memcpy(&bits, &v, 4);
        u32(bits);
    }
    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        bytes(s.data(), s.size());
    }
    void
    vec4(const Vec4 &v)
    {
        f32(v.x);
        f32(v.y);
        f32(v.z);
        f32(v.w);
    }
};

/**
 * Validating little-endian reader over one record's payload bytes.
 * The first failure is latched with the absolute file offset of the
 * offending field; every later read is a no-op returning zeros, so
 * record decoders can read straight through without checking each
 * primitive.
 */
struct Cursor
{
    const unsigned char *data;
    std::size_t size;
    std::uint64_t base; ///< file offset of data[0]
    std::size_t pos = 0;
    std::optional<TraceError> err;

    bool failed() const { return err.has_value(); }
    std::size_t remaining() const { return size - pos; }

    void
    failAt(std::size_t at, std::string reason)
    {
        if (!err)
            err = TraceError{base + at, std::move(reason)};
    }

    bool
    take(void *p, std::size_t n)
    {
        if (failed())
            return false;
        if (n > remaining()) {
            failAt(pos, format("record payload truncated: field needs "
                               "%zu bytes, %zu left",
                               n, remaining()));
            return false;
        }
        std::memcpy(p, data + pos, n);
        pos += n;
        return true;
    }

    std::uint8_t
    u8()
    {
        std::uint8_t v = 0;
        take(&v, 1);
        return v;
    }
    std::uint32_t
    u32()
    {
        std::uint8_t b[4] = {};
        take(b, 4);
        return static_cast<std::uint32_t>(b[0]) |
               (static_cast<std::uint32_t>(b[1]) << 8) |
               (static_cast<std::uint32_t>(b[2]) << 16) |
               (static_cast<std::uint32_t>(b[3]) << 24);
    }
    std::uint64_t
    u64()
    {
        std::uint64_t lo = u32();
        std::uint64_t hi = u32();
        return lo | (hi << 32);
    }
    float
    f32()
    {
        std::uint32_t bits = u32();
        float v;
        std::memcpy(&v, &bits, 4);
        return v;
    }
    std::string
    str(const char *name, std::uint32_t max_bytes)
    {
        std::size_t at = pos;
        std::uint32_t n = u32();
        if (failed())
            return {};
        if (n > max_bytes) {
            failAt(at, format("%s length %u exceeds cap %u", name, n,
                              max_bytes));
            return {};
        }
        if (n > remaining()) {
            failAt(at, format("%s length %u exceeds the %zu payload "
                              "bytes left",
                              name, n, remaining()));
            return {};
        }
        std::string s(reinterpret_cast<const char *>(data + pos), n);
        pos += n;
        return s;
    }
    Vec4
    vec4()
    {
        Vec4 v;
        v.x = f32();
        v.y = f32();
        v.z = f32();
        v.w = f32();
        return v;
    }

    /** A bool serialized as one byte; anything but 0/1 is corruption. */
    bool
    boolean(const char *name)
    {
        std::size_t at = pos;
        std::uint8_t v = u8();
        if (!failed() && v > 1)
            failAt(at, format("%s: invalid bool byte %u", name, v));
        return v == 1;
    }

    /** An enum serialized as one byte, validated against its range. */
    template <typename E>
    E
    enum8(const char *name, E max_value)
    {
        std::size_t at = pos;
        std::uint8_t v = u8();
        auto max_raw = static_cast<std::uint8_t>(max_value);
        if (!failed() && v > max_raw) {
            failAt(at, format("%s out of range: %u > %u", name, v,
                              max_raw));
            return E{};
        }
        return static_cast<E>(v);
    }

    /** A float that must be finite (samplers, not bulk vertex data). */
    float
    finiteF32(const char *name)
    {
        std::size_t at = pos;
        float v = f32();
        if (!failed() && !std::isfinite(v)) {
            failAt(at, format("%s: non-finite float", name));
            return 0.0f;
        }
        return v;
    }

    /**
     * An element count for a payload of @p elem_bytes-sized elements.
     * Rejecting counts the remaining payload cannot hold bounds every
     * allocation by the record size, so a corrupt count can never
     * over-allocate.
     */
    std::uint32_t
    count(const char *name, std::uint32_t cap, std::size_t elem_bytes)
    {
        std::size_t at = pos;
        std::uint32_t n = u32();
        if (failed())
            return 0;
        if (n > cap) {
            failAt(at,
                   format("%s %u exceeds cap %u", name, n, cap));
            return 0;
        }
        if (static_cast<std::uint64_t>(n) * elem_bytes > remaining()) {
            failAt(at, format("%s %u needs %llu bytes but only %zu "
                              "remain in the record",
                              name, n,
                              static_cast<unsigned long long>(
                                  static_cast<std::uint64_t>(n) *
                                  elem_bytes),
                              remaining()));
            return 0;
        }
        return n;
    }
};

void
writeDepthStencil(Out &o, const frag::DepthStencilState &s)
{
    o.u8(s.depthTest);
    o.u8(static_cast<std::uint8_t>(s.depthFunc));
    o.u8(s.depthWrite);
    o.u8(s.stencilTest);
    for (const frag::StencilFace *face : {&s.front, &s.back}) {
        o.u8(static_cast<std::uint8_t>(face->func));
        o.u8(face->ref);
        o.u8(face->readMask);
        o.u8(face->writeMask);
        o.u8(static_cast<std::uint8_t>(face->sfail));
        o.u8(static_cast<std::uint8_t>(face->zfail));
        o.u8(static_cast<std::uint8_t>(face->zpass));
    }
}

frag::DepthStencilState
readDepthStencil(Cursor &c)
{
    frag::DepthStencilState s;
    s.depthTest = c.boolean("depthTest");
    s.depthFunc = c.enum8("depthFunc", frag::CompareFunc::Always);
    s.depthWrite = c.boolean("depthWrite");
    s.stencilTest = c.boolean("stencilTest");
    for (frag::StencilFace *face : {&s.front, &s.back}) {
        face->func = c.enum8("stencil func", frag::CompareFunc::Always);
        face->ref = c.u8();
        face->readMask = c.u8();
        face->writeMask = c.u8();
        face->sfail = c.enum8("stencil sfail", frag::StencilOp::Invert);
        face->zfail = c.enum8("stencil zfail", frag::StencilOp::Invert);
        face->zpass = c.enum8("stencil zpass", frag::StencilOp::Invert);
    }
    return s;
}

void
writeBlend(Out &o, const frag::BlendState &s)
{
    o.u8(s.enabled);
    o.u8(static_cast<std::uint8_t>(s.srcFactor));
    o.u8(static_cast<std::uint8_t>(s.dstFactor));
    o.u8(static_cast<std::uint8_t>(s.op));
    o.u8(s.colorWriteMask);
}

frag::BlendState
readBlend(Cursor &c)
{
    frag::BlendState s;
    s.enabled = c.boolean("blend enabled");
    s.srcFactor =
        c.enum8("srcFactor", frag::BlendFactor::InvDstAlpha);
    s.dstFactor =
        c.enum8("dstFactor", frag::BlendFactor::InvDstAlpha);
    s.op = c.enum8("blend op", frag::BlendOp::Max);
    s.colorWriteMask = c.u8();
    return s;
}

void
writeSampler(Out &o, const tex::SamplerState &s)
{
    o.u8(static_cast<std::uint8_t>(s.filter));
    o.u8(static_cast<std::uint8_t>(s.wrap));
    o.u32(static_cast<std::uint32_t>(s.maxAniso));
    o.f32(s.lodBias);
}

tex::SamplerState
readSampler(Cursor &c)
{
    tex::SamplerState s;
    s.filter = c.enum8("tex filter", tex::TexFilter::Anisotropic);
    s.wrap = c.enum8("tex wrap", tex::TexWrap::Clamp);
    std::size_t at = c.pos;
    std::uint32_t aniso = c.u32();
    if (!c.failed() &&
        (aniso < 1 ||
         aniso > static_cast<std::uint32_t>(kTraceMaxAniso))) {
        c.failAt(at, format("maxAniso %u outside [1, %d]", aniso,
                            kTraceMaxAniso));
    }
    s.maxAniso = static_cast<int>(aniso);
    s.lodBias = c.finiteF32("lodBias");
    return s;
}

void
writeTextureSpec(Out &o, const TextureSpec &s)
{
    o.u8(static_cast<std::uint8_t>(s.kind));
    o.u32(static_cast<std::uint32_t>(s.size));
    o.u32(static_cast<std::uint32_t>(s.cell));
    o.u64(s.seed);
    o.u32(s.colorA.packed());
    o.u32(s.colorB.packed());
    o.u8(static_cast<std::uint8_t>(s.format));
    o.u8(s.alphaNoise);
}

TextureSpec
readTextureSpec(Cursor &c)
{
    TextureSpec s;
    s.kind = c.enum8("texture kind", TextureSpec::Kind::Gradient);
    std::size_t at = c.pos;
    std::uint32_t size = c.u32();
    if (!c.failed() &&
        (size < 1 ||
         size > static_cast<std::uint32_t>(kTraceMaxTextureSize))) {
        c.failAt(at, format("texture size %u outside [1, %d]", size,
                            kTraceMaxTextureSize));
    } else if (!c.failed() && (size & (size - 1)) != 0) {
        c.failAt(at, format("texture size %u is not a power of two",
                            size));
    }
    s.size = static_cast<int>(size);
    at = c.pos;
    std::uint32_t cell = c.u32();
    if (!c.failed() && (cell < 1 || cell > size)) {
        c.failAt(at, format("texture cell %u outside [1, size=%u]",
                            cell, size));
    }
    s.cell = static_cast<int>(cell);
    s.seed = c.u64();
    s.colorA = Rgba8::fromPacked(c.u32());
    s.colorB = Rgba8::fromPacked(c.u32());
    s.format = c.enum8("texture format", tex::TexFormat::DXT5);
    s.alphaNoise = c.boolean("alphaNoise");
    return s;
}

struct WriteVisitor
{
    Out &o;

    void
    operator()(const CreateVertexBufferCmd &c)
    {
        o.u32(c.id);
        o.u32(static_cast<std::uint32_t>(c.data.strideFloats));
        o.u32(static_cast<std::uint32_t>(c.data.vertices.size()));
        for (const VertexData &v : c.data.vertices) {
            o.f32(v.position.x);
            o.f32(v.position.y);
            o.f32(v.position.z);
            o.f32(v.normal.x);
            o.f32(v.normal.y);
            o.f32(v.normal.z);
            o.f32(v.uv.x);
            o.f32(v.uv.y);
            o.vec4(v.color);
        }
    }

    void
    operator()(const CreateIndexBufferCmd &c)
    {
        o.u32(c.id);
        o.u8(static_cast<std::uint8_t>(c.data.type));
        o.u32(static_cast<std::uint32_t>(c.data.indices.size()));
        for (std::uint32_t idx : c.data.indices)
            o.u32(idx);
    }

    void
    operator()(const CreateTextureCmd &c)
    {
        o.u32(c.id);
        writeTextureSpec(o, c.spec);
    }

    void
    operator()(const CreateProgramCmd &c)
    {
        o.u32(c.id);
        o.u8(static_cast<std::uint8_t>(c.kind));
        o.str(c.source);
    }

    void
    operator()(const BindProgramCmd &c)
    {
        o.u8(static_cast<std::uint8_t>(c.kind));
        o.u32(c.id);
    }

    void
    operator()(const BindTextureCmd &c)
    {
        o.u32(c.unit);
        o.u32(c.id);
        writeSampler(o, c.sampler);
    }

    void operator()(const SetDepthStencilCmd &c)
    { writeDepthStencil(o, c.state); }

    void operator()(const SetBlendCmd &c) { writeBlend(o, c.state); }

    void
    operator()(const SetCullModeCmd &c)
    {
        o.u8(static_cast<std::uint8_t>(c.mode));
    }

    void
    operator()(const SetConstantCmd &c)
    {
        o.u8(static_cast<std::uint8_t>(c.kind));
        o.u32(c.index);
        o.vec4(c.value);
    }

    void
    operator()(const ClearCmd &c)
    {
        o.u8(c.color);
        o.u8(c.depth);
        o.u8(c.stencil);
        o.u32(c.colorValue);
        o.f32(c.depthValue);
        o.u8(c.stencilValue);
    }

    void
    operator()(const DrawCmd &c)
    {
        o.u32(c.vertexBuffer);
        o.u32(c.indexBuffer);
        o.u32(c.firstIndex);
        o.u32(c.indexCount);
        o.u8(static_cast<std::uint8_t>(c.topology));
    }

    void operator()(const EndFrameCmd &) {}
};

/** Decode one record payload; validation errors land in @p c.err. */
Command
readCommand(Cursor &c, std::uint8_t tag)
{
    Command cmd;
    switch (tag) {
      case 0: {
        CreateVertexBufferCmd v;
        v.id = c.u32();
        std::size_t at = c.pos;
        std::uint32_t stride = c.u32();
        if (!c.failed() &&
            (stride < static_cast<std::uint32_t>(kVertexLayoutFloats) ||
             stride >
                 static_cast<std::uint32_t>(kTraceMaxStrideFloats))) {
            c.failAt(at, format("vertex stride %u outside [%d, %d]",
                                stride, kVertexLayoutFloats,
                                kTraceMaxStrideFloats));
        }
        v.data.strideFloats = static_cast<int>(stride);
        std::uint32_t n = c.count("vertex count", kTraceMaxVertices,
                                  kVertexStreamBytes);
        if (c.failed())
            break;
        v.data.vertices.resize(n);
        for (VertexData &vd : v.data.vertices) {
            vd.position = {c.f32(), c.f32(), c.f32()};
            vd.normal = {c.f32(), c.f32(), c.f32()};
            vd.uv = {c.f32(), c.f32()};
            vd.color = c.vec4();
        }
        cmd = std::move(v);
        break;
      }
      case 1: {
        CreateIndexBufferCmd v;
        v.id = c.u32();
        v.data.type = c.enum8("IndexType", IndexType::U32);
        std::uint32_t n =
            c.count("index count", kTraceMaxIndices, 4);
        if (c.failed())
            break;
        v.data.indices.resize(n);
        for (auto &idx : v.data.indices)
            idx = c.u32();
        cmd = std::move(v);
        break;
      }
      case 2: {
        CreateTextureCmd v;
        v.id = c.u32();
        v.spec = readTextureSpec(c);
        cmd = v;
        break;
      }
      case 3: {
        CreateProgramCmd v;
        v.id = c.u32();
        v.kind = c.enum8("ProgramKind", shader::ProgramKind::Fragment);
        v.source = c.str("program source", kTraceMaxStringBytes);
        cmd = std::move(v);
        break;
      }
      case 4: {
        BindProgramCmd v;
        v.kind = c.enum8("ProgramKind", shader::ProgramKind::Fragment);
        v.id = c.u32();
        cmd = v;
        break;
      }
      case 5: {
        BindTextureCmd v;
        v.unit = c.u32();
        v.id = c.u32();
        v.sampler = readSampler(c);
        cmd = v;
        break;
      }
      case 6:
        cmd = SetDepthStencilCmd{readDepthStencil(c)};
        break;
      case 7:
        cmd = SetBlendCmd{readBlend(c)};
        break;
      case 8:
        cmd = SetCullModeCmd{
            c.enum8("CullMode", geom::CullMode::Front)};
        break;
      case 9: {
        SetConstantCmd v;
        v.kind = c.enum8("ProgramKind", shader::ProgramKind::Fragment);
        v.index = c.u32();
        v.value = c.vec4();
        cmd = v;
        break;
      }
      case 10: {
        ClearCmd v;
        v.color = c.boolean("clear color flag");
        v.depth = c.boolean("clear depth flag");
        v.stencil = c.boolean("clear stencil flag");
        v.colorValue = c.u32();
        v.depthValue = c.f32();
        v.stencilValue = c.u8();
        cmd = v;
        break;
      }
      case 11: {
        DrawCmd v;
        v.vertexBuffer = c.u32();
        v.indexBuffer = c.u32();
        v.firstIndex = c.u32();
        v.indexCount = c.u32();
        v.topology =
            c.enum8("PrimitiveType", geom::PrimitiveType::TriangleFan);
        cmd = v;
        break;
      }
      case 12:
        cmd = EndFrameCmd{};
        break;
      default:
        // next() rejects unknown tags before decoding.
        c.failAt(0, format("unknown command tag %u", tag));
        break;
    }
    return cmd;
}

} // namespace

std::string
TraceError::describe() const
{
    return format("byte %llu: %s",
                  static_cast<unsigned long long>(offset),
                  reason.c_str());
}

TraceWriter::TraceWriter(const std::string &path)
{
    _file = std::fopen(path.c_str(), "wb");
    if (!_file) {
        fail(0, format("cannot open '%s' for writing", path.c_str()));
        return;
    }
    if (std::fwrite(kMagic, 1, sizeof(kMagic), _file) !=
        sizeof(kMagic)) {
        fail(0, "short write on trace header");
        return;
    }
    _offset = sizeof(kMagic);
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::fail(std::uint64_t offset, std::string reason)
{
    if (_error)
        return;
    _error = TraceError{offset, std::move(reason)};
    warn("trace write failed at byte %llu: %s",
         static_cast<unsigned long long>(offset),
         _error->reason.c_str());
}

bool
TraceWriter::write(const Command &cmd)
{
    if (_error)
        return false;
    if (!_file) {
        fail(_offset, "write after close");
        return false;
    }
    std::string payload;
    Out out{payload};
    std::visit(WriteVisitor{out}, cmd);

    std::uint8_t header[5] = {
        static_cast<std::uint8_t>(cmd.index()),
        static_cast<std::uint8_t>(payload.size()),
        static_cast<std::uint8_t>(payload.size() >> 8),
        static_cast<std::uint8_t>(payload.size() >> 16),
        static_cast<std::uint8_t>(payload.size() >> 24)};
    if (std::fwrite(header, 1, sizeof(header), _file) !=
            sizeof(header) ||
        std::fwrite(payload.data(), 1, payload.size(), _file) !=
            payload.size()) {
        fail(_offset, format("short write on %s record",
                             commandName(cmd)));
        return false;
    }
    _offset += sizeof(header) + payload.size();
    ++_count;
    return true;
}

bool
TraceWriter::close()
{
    if (_file) {
        bool flushed = std::fclose(_file) == 0;
        _file = nullptr;
        if (!flushed)
            fail(_offset, "error flushing trace file on close");
    }
    return !_error.has_value();
}

TraceReader::TraceReader(const std::string &path)
{
    _file = std::fopen(path.c_str(), "rb");
    if (!_file) {
        fail(0, format("cannot open '%s' for reading", path.c_str()));
        return;
    }
    if (std::fseek(_file, 0, SEEK_END) != 0) {
        fail(0, "cannot determine trace file size");
        return;
    }
    long end = std::ftell(_file);
    if (end < 0 || std::fseek(_file, 0, SEEK_SET) != 0) {
        fail(0, "cannot determine trace file size");
        return;
    }
    _fileSize = static_cast<std::uint64_t>(end);

    char magic[8] = {};
    if (std::fread(magic, 1, sizeof(magic), _file) != sizeof(magic)) {
        fail(0, "file too short for trace magic");
        return;
    }
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
        fail(0, "bad trace magic (not a WC3DTRC2 trace)");
        return;
    }
    _pos = sizeof(kMagic);
}

TraceReader::~TraceReader()
{
    if (_file)
        std::fclose(_file);
}

void
TraceReader::fail(std::uint64_t offset, std::string reason)
{
    if (!_error)
        _error = TraceError{offset, std::move(reason)};
}

std::optional<Command>
TraceReader::next()
{
    if (_error || _atEnd || !_file)
        return std::nullopt;

    std::uint64_t record_start = _pos;
    int tag_int = std::fgetc(_file);
    if (tag_int == EOF) {
        _atEnd = true;
        return std::nullopt;
    }
    _pos += 1;
    auto tag = static_cast<std::uint8_t>(tag_int);
    if (tag > kMaxTag) {
        fail(record_start, format("unknown command tag %u", tag));
        return std::nullopt;
    }

    unsigned char lenb[4];
    if (std::fread(lenb, 1, sizeof(lenb), _file) != sizeof(lenb)) {
        fail(_pos, "truncated record header (payload length)");
        return std::nullopt;
    }
    std::uint32_t len = static_cast<std::uint32_t>(lenb[0]) |
                        (static_cast<std::uint32_t>(lenb[1]) << 8) |
                        (static_cast<std::uint32_t>(lenb[2]) << 16) |
                        (static_cast<std::uint32_t>(lenb[3]) << 24);
    std::uint64_t len_at = _pos;
    _pos += sizeof(lenb);
    // Bounding the payload by the bytes actually present caps every
    // allocation at the file size, so a corrupt ("lying") length can
    // never over-allocate.
    if (len > _fileSize - _pos) {
        fail(len_at,
             format("record length %u exceeds the %llu bytes left in "
                    "the file",
                    len,
                    static_cast<unsigned long long>(_fileSize - _pos)));
        return std::nullopt;
    }

    std::vector<unsigned char> payload(len);
    if (len > 0 &&
        std::fread(payload.data(), 1, len, _file) != len) {
        fail(_pos, "unexpected EOF inside record payload");
        return std::nullopt;
    }

    Cursor c{payload.data(), len, _pos, 0, std::nullopt};
    Command cmd = readCommand(c, tag);
    if (c.err) {
        _error = c.err;
        return std::nullopt;
    }
    if (c.pos != c.size) {
        fail(_pos + c.pos,
             format("%s record has %zu trailing payload bytes",
                    commandName(cmd), c.size - c.pos));
        return std::nullopt;
    }
    _pos += len;
    ++_count;
    return cmd;
}

std::uint64_t
playTrace(TraceReader &reader, Device &device)
{
    std::uint64_t count = 0;
    while (auto cmd = reader.next()) {
        device.submit(*cmd);
        ++count;
    }
    return count;
}

} // namespace wc3d::api
