/**
 * @file
 * Shader program container with a fluent builder API, static instruction
 * statistics (total / ALU / texture counts, the quantities of the paper's
 * Tables IV and XII) and a disassembler.
 */

#ifndef WC3D_SHADER_PROGRAM_HH
#define WC3D_SHADER_PROGRAM_HH

#include <memory>
#include <string>
#include <vector>

#include "common/vecmath.hh"
#include "shader/isa.hh"

namespace wc3d::shader {

class DecodedProgram;

/** Kind of pipeline stage a program targets. */
enum class ProgramKind
{
    Vertex,
    Fragment,
};

/** Convenience constructors for operands. */
SrcOperand srcInput(int index, std::uint8_t swizzle = kSwizzleXYZW);
SrcOperand srcTemp(int index, std::uint8_t swizzle = kSwizzleXYZW);
SrcOperand srcConst(int index, std::uint8_t swizzle = kSwizzleXYZW);
SrcOperand negate(SrcOperand s);
DstOperand dstTemp(int index, std::uint8_t mask = kMaskXYZW);
DstOperand dstOutput(int index, std::uint8_t mask = kMaskXYZW);
DstOperand saturate(DstOperand d);

/**
 * A compiled shader program: an instruction vector plus a constant bank.
 *
 * Builder methods return *this so programs can be written fluently:
 * @code
 *     Program p(ProgramKind::Fragment, "lit");
 *     p.tex(dstTemp(0), srcInput(1), 0)
 *      .mul(dstOutput(0), srcTemp(0), srcInput(2));
 * @endcode
 */
class Program
{
  public:
    Program() = default;
    Program(ProgramKind kind, std::string name);

    ProgramKind kind() const { return _kind; }
    const std::string &name() const { return _name; }

    /** Append a fully formed instruction. */
    Program &emit(const Instruction &instr);

    /** @name Builder helpers (one per opcode family) */
    /// @{
    Program &mov(DstOperand d, SrcOperand a);
    Program &add(DstOperand d, SrcOperand a, SrcOperand b);
    Program &sub(DstOperand d, SrcOperand a, SrcOperand b);
    Program &mul(DstOperand d, SrcOperand a, SrcOperand b);
    Program &mad(DstOperand d, SrcOperand a, SrcOperand b, SrcOperand c);
    Program &dp3(DstOperand d, SrcOperand a, SrcOperand b);
    Program &dp4(DstOperand d, SrcOperand a, SrcOperand b);
    Program &rcp(DstOperand d, SrcOperand a);
    Program &rsq(DstOperand d, SrcOperand a);
    Program &minOp(DstOperand d, SrcOperand a, SrcOperand b);
    Program &maxOp(DstOperand d, SrcOperand a, SrcOperand b);
    Program &slt(DstOperand d, SrcOperand a, SrcOperand b);
    Program &sge(DstOperand d, SrcOperand a, SrcOperand b);
    Program &frc(DstOperand d, SrcOperand a);
    Program &flr(DstOperand d, SrcOperand a);
    Program &absOp(DstOperand d, SrcOperand a);
    Program &ex2(DstOperand d, SrcOperand a);
    Program &lg2(DstOperand d, SrcOperand a);
    Program &pow(DstOperand d, SrcOperand a, SrcOperand b);
    Program &lrp(DstOperand d, SrcOperand a, SrcOperand b, SrcOperand c);
    Program &cmp(DstOperand d, SrcOperand a, SrcOperand b, SrcOperand c);
    Program &nrm(DstOperand d, SrcOperand a);
    Program &xpd(DstOperand d, SrcOperand a, SrcOperand b);
    Program &tex(DstOperand d, SrcOperand coord, int sampler);
    Program &txp(DstOperand d, SrcOperand coord, int sampler);
    Program &txb(DstOperand d, SrcOperand coord, int sampler);
    Program &kil(SrcOperand a);
    /// @}

    const std::vector<Instruction> &code() const { return _code; }
    bool empty() const { return _code.empty(); }

    /** Total static instruction count. */
    int instructionCount() const { return static_cast<int>(_code.size()); }

    /** Static count of texture instructions (TEX/TXP/TXB), maintained
     *  by emit() so the per-draw statistics path is O(1). */
    int textureInstructionCount() const { return _texCount; }

    /** Static count of non-texture instructions. */
    int aluInstructionCount() const
    { return instructionCount() - textureInstructionCount(); }

    /** ALU:TEX ratio; +inf represented as 0 denominator -> returns ALU. */
    double aluToTexRatio() const;

    /** @return true when the program contains a KIL instruction. */
    bool usesKill() const;

    /** @return true when the program writes output register @p index. */
    bool writesOutput(int index) const;

    /** Constant bank (indexed by c# registers). */
    void setConstant(int index, Vec4 value);
    Vec4 constant(int index) const;
    const std::vector<Vec4> &constants() const { return _constants; }

    /** Render the program as assembly text (re-parseable). */
    std::string disassemble() const;

    /**
     * The pre-decoded execution form (see shader/decoded.hh), built on
     * first use and cached until the next emit(). Not synchronized:
     * trigger the first decode on one thread before sharing (the GPU
     * simulator pre-decodes bound programs at the top of each draw);
     * afterwards concurrent readers are safe.
     */
    const DecodedProgram &decoded() const;

  private:
    ProgramKind _kind = ProgramKind::Vertex;
    std::string _name;
    std::vector<Instruction> _code;
    std::vector<Vec4> _constants = std::vector<Vec4>(kMaxConsts);
    int _texCount = 0;
    mutable std::shared_ptr<const DecodedProgram> _decoded;
};

/** Render one instruction as text ("MAD r0.xyz, v1, c2, -r3;"). */
std::string disassembleInstruction(const Instruction &instr);

} // namespace wc3d::shader

#endif // WC3D_SHADER_PROGRAM_HH
