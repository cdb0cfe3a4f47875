/**
 * @file
 * Textual shader assembler: parses the assembly dialect produced by
 * Program::disassemble() back into a Program: the round-trippable text
 * form in which the workload generators and tests hand shaders to the
 * device.
 *
 * Grammar (one statement per line, ';' optional, '#'/'//' comments):
 *
 *     !!VP program "name"          -- optional header selects the kind
 *     CONST c3 = 1.0 0.5 0 2       -- constant bank initialiser
 *     MAD_SAT r0.xyz, v1, c2.xxxx, -r3
 *     TEX r1, v2, tex[0]
 *     KIL -r1.w
 */

#ifndef WC3D_SHADER_ASSEMBLE_HH
#define WC3D_SHADER_ASSEMBLE_HH

#include <optional>
#include <string>

#include "shader/program.hh"

namespace wc3d::shader {

/** Result of an assemble attempt. */
struct AssembleResult
{
    bool ok = false;
    Program program;
    std::string error;  ///< message with line number when !ok
};

/**
 * Assemble @p source into a Program.
 *
 * @param source shader assembly text
 * @param kind   default program kind when no !!VP/!!FP header is present
 * @param name   default program name
 */
AssembleResult assemble(const std::string &source,
                        ProgramKind kind = ProgramKind::Fragment,
                        const std::string &name = "anonymous");

} // namespace wc3d::shader

#endif // WC3D_SHADER_ASSEMBLE_HH
