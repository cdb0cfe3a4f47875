/**
 * @file
 * Pre-decoded shader programs: the hot-path execution form of a
 * shader::Program. A Program stores instructions the way the assembler
 * and the statistics code want them (enum register files, packed
 * swizzles, modifier booleans); executing that form directly pays for
 * operand decoding on every instruction of every lane of every quad.
 * DecodedProgram lowers the instruction vector once per program change
 * into a dense array of DecodedOps with
 *
 *   - register file + index resolved to a direct table lookup,
 *   - the packed swizzle expanded to four component selectors plus an
 *     "identity" fast-path flag,
 *   - negate/absolute/saturate/write-mask folded into per-operand flag
 *     bytes so the common unmodified operand costs one branch,
 *   - texture ops split out (the interpreter's quad loop tests one
 *     flag instead of consulting OpcodeInfo), and
 *   - a register "clear plan" (which temps/outputs a fresh lane must
 *     zero) so execution state can be reused across quads instead of
 *     zero-initializing ~2.5 KB of registers per quad.
 *
 * The decoded form is cached on the Program (invalidated by emit) and
 * is immutable after construction, so one instance is shared by every
 * thread shading with that program. Results are bit-identical to the
 * field-by-field reference interpreter in tests/shader_reference.hh
 * (tests/test_shader_decoded.cc and tests/test_shader_fuzz.cc execute
 * both and compare).
 */

#ifndef WC3D_SHADER_DECODED_HH
#define WC3D_SHADER_DECODED_HH

#include <cstdint>
#include <vector>

#include "shader/program.hh"

namespace wc3d::shader {

struct LaneState;

/** DecodedSrc::flags bits. */
enum : std::uint8_t
{
    kSrcSwizzled = 1, ///< swizzle is not .xyzw
    kSrcAbsolute = 2,
    kSrcNegate = 4,
};

/** DecodedOp::dstFlags bits. */
enum : std::uint8_t
{
    kDstSaturate = 1,
    kDstPartial = 2, ///< write mask is not .xyzw
};

/** One fully resolved source operand. */
struct DecodedSrc
{
    std::uint8_t file = 0;  ///< RegFile cast to a read-table index
    std::uint8_t index = 0;
    std::uint8_t flags = 0; ///< kSrc* bits; 0 = plain register read
    std::uint8_t comps[4] = {0, 1, 2, 3}; ///< expanded swizzle selectors
};

/** One lowered instruction. */
struct DecodedOp
{
    Opcode op = Opcode::MOV;
    std::uint8_t dstFile = 0;  ///< write-table index (Temp or Output)
    std::uint8_t dstIndex = 0;
    std::uint8_t dstFlags = 0; ///< kDst* bits
    std::uint8_t writeMask = kMaskXYZW;
    std::uint8_t sampler = 0;
    DecodedSrc src[3];
};

/**
 * The immutable execution form of one Program. Constants are *not*
 * captured: they may change after decoding (setConstant) and are read
 * live from the Program at execution time, exactly like the reference
 * interpreter.
 */
class DecodedProgram
{
  public:
    explicit DecodedProgram(const Program &program);

    const std::vector<DecodedOp> &ops() const { return _ops; }

    /** True when any op is TEX/TXP/TXB. */
    bool hasTexture() const { return _hasTexture; }

    /** Bitmask of Input registers the program reads. */
    std::uint32_t inputReadMask() const { return _inputReadMask; }

    /** Temps that are (possibly partially) read before being written. */
    std::uint32_t tempClearMask() const { return _tempClearMask; }

    /**
     * Reset @p lane so that executing this program on it produces the
     * same results as on a freshly zero-initialized LaneState, without
     * paying for a full clear. Only the temps/outputs in the clear
     * plan are zeroed; inputs are the caller's contract: every slot in
     * inputReadMask() must either be written by the caller before
     * execution or never have been written since the state was
     * constructed (see DESIGN.md "Hot paths & shader pre-decode").
     */
    void prepareLane(LaneState &lane) const;

  private:
    std::vector<DecodedOp> _ops;
    std::uint32_t _inputReadMask = 0;
    std::uint32_t _tempClearMask = 0;
    std::uint32_t _outputClearMask = 0;
    bool _hasTexture = false;
};

} // namespace wc3d::shader

#endif // WC3D_SHADER_DECODED_HH
