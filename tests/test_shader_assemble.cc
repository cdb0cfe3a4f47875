/**
 * @file
 * Unit tests for the shader assembler, including round trips through
 * the disassembler and semantic checks via the interpreter.
 */

#include <gtest/gtest.h>

#include "shader/assemble.hh"
#include "shader/interp.hh"

using namespace wc3d;
using namespace wc3d::shader;

TEST(Assemble, SimpleProgram)
{
    auto r = assemble("MOV o0, v0;\nADD r1, v1, c2;\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.instructionCount(), 2);
    EXPECT_EQ(r.program.code()[0].op, Opcode::MOV);
    EXPECT_EQ(r.program.code()[0].dst.file, RegFile::Output);
    EXPECT_EQ(r.program.code()[1].src[1].file, RegFile::Const);
    EXPECT_EQ(r.program.code()[1].src[1].index, 2);
}

TEST(Assemble, CommentsAndBlankLines)
{
    auto r = assemble("# a comment\n\n  // another\nMOV o0, v0\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.instructionCount(), 1);
}

TEST(Assemble, HeaderSelectsKind)
{
    auto vp = assemble("!!VP program\nMOV o0, v0;\n");
    ASSERT_TRUE(vp.ok) << vp.error;
    EXPECT_EQ(vp.program.kind(), ProgramKind::Vertex);
    auto fp = assemble("!!FP program\nMOV o0, v0;\n",
                       ProgramKind::Vertex);
    ASSERT_TRUE(fp.ok) << fp.error;
    EXPECT_EQ(fp.program.kind(), ProgramKind::Fragment);
}

TEST(Assemble, SwizzleAndMask)
{
    auto r = assemble("MUL r0.xy, v0.wzyx, c1.x;\n");
    ASSERT_TRUE(r.ok) << r.error;
    const Instruction &i = r.program.code()[0];
    EXPECT_EQ(i.dst.writeMask, kMaskX | kMaskY);
    EXPECT_EQ(swizzleComp(i.src[0].swizzle, 0), kCompW);
    EXPECT_EQ(swizzleComp(i.src[0].swizzle, 3), kCompX);
    // Scalar swizzle replicates.
    EXPECT_EQ(swizzleComp(i.src[1].swizzle, 0), kCompX);
    EXPECT_EQ(swizzleComp(i.src[1].swizzle, 3), kCompX);
}

TEST(Assemble, ModifiersNegateAbsSaturate)
{
    auto r = assemble("MAD_SAT r0, -v0, |c1|, -|r2|;\n");
    ASSERT_TRUE(r.ok) << r.error;
    const Instruction &i = r.program.code()[0];
    EXPECT_TRUE(i.dst.saturate);
    EXPECT_TRUE(i.src[0].negate);
    EXPECT_FALSE(i.src[0].absolute);
    EXPECT_TRUE(i.src[1].absolute);
    EXPECT_FALSE(i.src[1].negate);
    EXPECT_TRUE(i.src[2].negate);
    EXPECT_TRUE(i.src[2].absolute);
}

TEST(Assemble, TextureInstruction)
{
    auto r = assemble("TEX r0, v1, tex[3];\nKIL -r0.w;\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.code()[0].sampler, 3);
    EXPECT_EQ(r.program.code()[1].op, Opcode::KIL);
    EXPECT_TRUE(r.program.code()[1].src[0].negate);
}

TEST(Assemble, ConstDirective)
{
    auto r = assemble("CONST c5 = 1.5 -2 0.25 8\nMOV o0, c5;\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FLOAT_EQ(r.program.constant(5).x, 1.5f);
    EXPECT_FLOAT_EQ(r.program.constant(5).y, -2.0f);
    EXPECT_FLOAT_EQ(r.program.constant(5).w, 8.0f);
}

TEST(Assemble, ErrorsReported)
{
    EXPECT_FALSE(assemble("FOO r0, v0;\n").ok);
    EXPECT_FALSE(assemble("MOV q0, v0;\n").ok);        // bad file
    EXPECT_FALSE(assemble("MOV c0, v0;\n").ok);        // const as dst
    EXPECT_FALSE(assemble("MOV o0, o1;\n").ok);        // output as src
    EXPECT_FALSE(assemble("MOV o0;\n").ok);            // missing src
    EXPECT_FALSE(assemble("MOV o0, v0 junk;\n").ok);   // trailing
    EXPECT_FALSE(assemble("TEX r0, v0;\n").ok);        // missing tex unit
    EXPECT_FALSE(assemble("TEX r0, v0, tex[99];\n").ok);
    EXPECT_FALSE(assemble("MOV r99, v0;\n").ok);       // index range
    EXPECT_FALSE(assemble("CONST c1 = 1 2\n").ok);     // short const
    EXPECT_NE(assemble("FOO r0, v0;\n").error.find("line 1"),
              std::string::npos);
}

TEST(Assemble, RoundTripThroughDisassembler)
{
    Program p(ProgramKind::Fragment, "roundtrip");
    p.tex(dstTemp(0), srcInput(1), 0);
    p.mad(saturate(dstTemp(1, kMaskX | kMaskZ)), srcTemp(0),
          negate(srcConst(2, packSwizzle(3, 3, 3, 3))), srcInput(2));
    p.kil(negate(srcTemp(1)));
    p.mov(dstOutput(0), srcTemp(1));

    auto r = assemble(p.disassemble());
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.program.instructionCount(), p.instructionCount());
    for (int i = 0; i < p.instructionCount(); ++i) {
        EXPECT_EQ(disassembleInstruction(r.program.code()[i]),
                  disassembleInstruction(p.code()[i]))
            << "instruction " << i;
    }
}

TEST(Assemble, AssembledProgramExecutes)
{
    auto r = assemble(
        "!!VP t\n"
        "CONST c0 = 2 2 2 2\n"
        "MUL r0, v0, c0;\n"
        "ADD o0, r0, v0;\n");
    ASSERT_TRUE(r.ok) << r.error;
    LaneState lane;
    lane.inputs[0] = {1.0f, 2.0f, 3.0f, 4.0f};
    run(r.program, lane);
    EXPECT_FLOAT_EQ(lane.outputs[0].x, 3.0f);
    EXPECT_FLOAT_EQ(lane.outputs[0].w, 12.0f);
}

TEST(Assemble, RgbaSwizzleAliases)
{
    auto r = assemble("MOV o0.xy, v0.rgba;\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.code()[0].src[0].swizzle, kSwizzleXYZW);
}
