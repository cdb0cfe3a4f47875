#include "shader/program.hh"

#include "common/log.hh"
#include "common/strutil.hh"

namespace wc3d::shader {

SrcOperand
srcInput(int index, std::uint8_t swizzle)
{
    WC3D_ASSERT(index >= 0 && index < kMaxInputs);
    return {RegFile::Input, static_cast<std::uint8_t>(index), swizzle,
            false, false};
}

SrcOperand
srcTemp(int index, std::uint8_t swizzle)
{
    WC3D_ASSERT(index >= 0 && index < kMaxTemps);
    return {RegFile::Temp, static_cast<std::uint8_t>(index), swizzle,
            false, false};
}

SrcOperand
srcConst(int index, std::uint8_t swizzle)
{
    WC3D_ASSERT(index >= 0 && index < kMaxConsts);
    return {RegFile::Const, static_cast<std::uint8_t>(index), swizzle,
            false, false};
}

SrcOperand
negate(SrcOperand s)
{
    s.negate = !s.negate;
    return s;
}

DstOperand
dstTemp(int index, std::uint8_t mask)
{
    WC3D_ASSERT(index >= 0 && index < kMaxTemps);
    return {RegFile::Temp, static_cast<std::uint8_t>(index), mask, false};
}

DstOperand
dstOutput(int index, std::uint8_t mask)
{
    WC3D_ASSERT(index >= 0 && index < kMaxOutputs);
    return {RegFile::Output, static_cast<std::uint8_t>(index), mask, false};
}

DstOperand
saturate(DstOperand d)
{
    d.saturate = true;
    return d;
}

Program::Program(ProgramKind kind, std::string name)
    : _kind(kind), _name(std::move(name))
{
}

Program &
Program::emit(const Instruction &instr)
{
    _code.push_back(instr);
    if (opcodeInfo(instr.op).isTexture)
        ++_texCount;
    _decoded.reset(); // decoded form is stale; rebuilt on next use
    return *this;
}

namespace {
Instruction
make1(Opcode op, DstOperand d, SrcOperand a)
{
    Instruction i;
    i.op = op;
    i.dst = d;
    i.src[0] = a;
    return i;
}

Instruction
make2(Opcode op, DstOperand d, SrcOperand a, SrcOperand b)
{
    Instruction i = make1(op, d, a);
    i.src[1] = b;
    return i;
}

Instruction
make3(Opcode op, DstOperand d, SrcOperand a, SrcOperand b, SrcOperand c)
{
    Instruction i = make2(op, d, a, b);
    i.src[2] = c;
    return i;
}
} // namespace

Program &Program::mov(DstOperand d, SrcOperand a)
{ return emit(make1(Opcode::MOV, d, a)); }
Program &Program::add(DstOperand d, SrcOperand a, SrcOperand b)
{ return emit(make2(Opcode::ADD, d, a, b)); }
Program &Program::sub(DstOperand d, SrcOperand a, SrcOperand b)
{ return emit(make2(Opcode::SUB, d, a, b)); }
Program &Program::mul(DstOperand d, SrcOperand a, SrcOperand b)
{ return emit(make2(Opcode::MUL, d, a, b)); }
Program &Program::mad(DstOperand d, SrcOperand a, SrcOperand b, SrcOperand c)
{ return emit(make3(Opcode::MAD, d, a, b, c)); }
Program &Program::dp3(DstOperand d, SrcOperand a, SrcOperand b)
{ return emit(make2(Opcode::DP3, d, a, b)); }
Program &Program::dp4(DstOperand d, SrcOperand a, SrcOperand b)
{ return emit(make2(Opcode::DP4, d, a, b)); }
Program &Program::rcp(DstOperand d, SrcOperand a)
{ return emit(make1(Opcode::RCP, d, a)); }
Program &Program::rsq(DstOperand d, SrcOperand a)
{ return emit(make1(Opcode::RSQ, d, a)); }
Program &Program::minOp(DstOperand d, SrcOperand a, SrcOperand b)
{ return emit(make2(Opcode::MIN, d, a, b)); }
Program &Program::maxOp(DstOperand d, SrcOperand a, SrcOperand b)
{ return emit(make2(Opcode::MAX, d, a, b)); }
Program &Program::slt(DstOperand d, SrcOperand a, SrcOperand b)
{ return emit(make2(Opcode::SLT, d, a, b)); }
Program &Program::sge(DstOperand d, SrcOperand a, SrcOperand b)
{ return emit(make2(Opcode::SGE, d, a, b)); }
Program &Program::frc(DstOperand d, SrcOperand a)
{ return emit(make1(Opcode::FRC, d, a)); }
Program &Program::flr(DstOperand d, SrcOperand a)
{ return emit(make1(Opcode::FLR, d, a)); }
Program &Program::absOp(DstOperand d, SrcOperand a)
{ return emit(make1(Opcode::ABS, d, a)); }
Program &Program::ex2(DstOperand d, SrcOperand a)
{ return emit(make1(Opcode::EX2, d, a)); }
Program &Program::lg2(DstOperand d, SrcOperand a)
{ return emit(make1(Opcode::LG2, d, a)); }
Program &Program::pow(DstOperand d, SrcOperand a, SrcOperand b)
{ return emit(make2(Opcode::POW, d, a, b)); }
Program &Program::lrp(DstOperand d, SrcOperand a, SrcOperand b, SrcOperand c)
{ return emit(make3(Opcode::LRP, d, a, b, c)); }
Program &Program::cmp(DstOperand d, SrcOperand a, SrcOperand b, SrcOperand c)
{ return emit(make3(Opcode::CMP, d, a, b, c)); }
Program &Program::nrm(DstOperand d, SrcOperand a)
{ return emit(make1(Opcode::NRM, d, a)); }
Program &Program::xpd(DstOperand d, SrcOperand a, SrcOperand b)
{ return emit(make2(Opcode::XPD, d, a, b)); }

Program &
Program::tex(DstOperand d, SrcOperand coord, int sampler)
{
    WC3D_ASSERT(sampler >= 0 && sampler < kMaxSamplers);
    Instruction i = make1(Opcode::TEX, d, coord);
    i.sampler = static_cast<std::uint8_t>(sampler);
    return emit(i);
}

Program &
Program::txp(DstOperand d, SrcOperand coord, int sampler)
{
    WC3D_ASSERT(sampler >= 0 && sampler < kMaxSamplers);
    Instruction i = make1(Opcode::TXP, d, coord);
    i.sampler = static_cast<std::uint8_t>(sampler);
    return emit(i);
}

Program &
Program::txb(DstOperand d, SrcOperand coord, int sampler)
{
    WC3D_ASSERT(sampler >= 0 && sampler < kMaxSamplers);
    Instruction i = make1(Opcode::TXB, d, coord);
    i.sampler = static_cast<std::uint8_t>(sampler);
    return emit(i);
}

Program &
Program::kil(SrcOperand a)
{
    Instruction i;
    i.op = Opcode::KIL;
    i.src[0] = a;
    return emit(i);
}

double
Program::aluToTexRatio() const
{
    int tex = textureInstructionCount();
    if (tex == 0)
        return static_cast<double>(aluInstructionCount());
    return static_cast<double>(aluInstructionCount()) / tex;
}

bool
Program::usesKill() const
{
    for (const auto &i : _code)
        if (i.op == Opcode::KIL)
            return true;
    return false;
}

bool
Program::writesOutput(int index) const
{
    for (const auto &i : _code) {
        if (opcodeInfo(i.op).hasDst && i.dst.file == RegFile::Output &&
            i.dst.index == index) {
            return true;
        }
    }
    return false;
}

void
Program::setConstant(int index, Vec4 value)
{
    WC3D_ASSERT(index >= 0 && index < kMaxConsts);
    _constants[static_cast<std::size_t>(index)] = value;
}

Vec4
Program::constant(int index) const
{
    WC3D_ASSERT(index >= 0 && index < kMaxConsts);
    return _constants[static_cast<std::size_t>(index)];
}

namespace {

char
compChar(std::uint8_t c)
{
    static const char chars[] = {'x', 'y', 'z', 'w'};
    return chars[c & 0x3];
}

std::string
regName(RegFile file, int index)
{
    switch (file) {
      case RegFile::Input:
        return format("v%d", index);
      case RegFile::Temp:
        return format("r%d", index);
      case RegFile::Const:
        return format("c%d", index);
      case RegFile::Output:
        return format("o%d", index);
    }
    return "?";
}

std::string
srcText(const SrcOperand &s)
{
    std::string out;
    if (s.negate)
        out += "-";
    std::string reg = regName(s.file, s.index);
    if (s.absolute)
        reg = "|" + reg + "|";
    out += reg;
    if (s.swizzle != kSwizzleXYZW) {
        out += ".";
        // Collapse replicated swizzles (.xxxx -> .x).
        bool all_same = true;
        for (int i = 1; i < 4; ++i)
            all_same &= swizzleComp(s.swizzle, i) == swizzleComp(s.swizzle, 0);
        if (all_same) {
            out += compChar(swizzleComp(s.swizzle, 0));
        } else {
            for (int i = 0; i < 4; ++i)
                out += compChar(swizzleComp(s.swizzle, i));
        }
    }
    return out;
}

std::string
dstText(const DstOperand &d)
{
    std::string out = regName(d.file, d.index);
    if (d.writeMask != kMaskXYZW) {
        out += ".";
        if (d.writeMask & kMaskX)
            out += "x";
        if (d.writeMask & kMaskY)
            out += "y";
        if (d.writeMask & kMaskZ)
            out += "z";
        if (d.writeMask & kMaskW)
            out += "w";
    }
    return out;
}

} // namespace

std::string
disassembleInstruction(const Instruction &instr)
{
    const OpcodeInfo &info = opcodeInfo(instr.op);
    std::string out = info.name;
    if (instr.dst.saturate)
        out += "_SAT";
    out += " ";
    bool first = true;
    if (info.hasDst) {
        out += dstText(instr.dst);
        first = false;
    }
    for (int s = 0; s < info.numSrcs; ++s) {
        if (!first)
            out += ", ";
        out += srcText(instr.src[s]);
        first = false;
    }
    if (info.isTexture)
        out += format(", tex[%d]", instr.sampler);
    out += ";";
    return out;
}

std::string
Program::disassemble() const
{
    std::string out = format("!!%s program \"%s\" (%d instructions)\n",
                             _kind == ProgramKind::Vertex ? "VP" : "FP",
                             _name.c_str(), instructionCount());
    for (const auto &i : _code)
        out += disassembleInstruction(i) + "\n";
    return out;
}

} // namespace wc3d::shader
