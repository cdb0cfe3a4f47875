/**
 * @file
 * Property/fuzz tests across the shader stack: every program the
 * workload synthesizer can produce must assemble, disassemble
 * round-trip, and execute on random inputs without producing NaNs in
 * the colour output path. The differential fuzz runs each synthesized
 * program through the decoded interpreter and the legacy reference,
 * which must agree bit-for-bit on outputs, kill flags and statistics.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "shader/assemble.hh"
#include "shader/interp.hh"
#include "workloads/shadersynth.hh"

using namespace wc3d;
using namespace wc3d::shader;
using namespace wc3d::workloads;

namespace {

/** Quad texture handler returning pseudo-random but finite colours. */
class HashTexture : public TextureSampleHandler
{
  public:
    void
    sampleQuad(int sampler, const Vec4 coords[4], float,
               Vec4 out[4]) override
    {
        for (int l = 0; l < 4; ++l) {
            float h = std::fabs(
                std::sin(coords[l].x * 12.9898f +
                         coords[l].y * 78.233f + sampler));
            out[l] = {h, 1.0f - h, h * 0.5f, h};
        }
    }
};

bool
finite(const Vec4 &v)
{
    return std::isfinite(v.x) && std::isfinite(v.y) &&
           std::isfinite(v.z) && std::isfinite(v.w);
}

} // namespace

class SynthFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(SynthFuzz, SynthesizedProgramsExecuteFinite)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    auto specs = planMaterialMix(16, 4.0 + 20.0 * rng.nextFloat(),
                                 4.0 * rng.nextFloat(),
                                 rng.nextFloat() * 0.3, rng);
    Interpreter interp;
    HashTexture tex;
    for (const auto &spec : specs) {
        auto fp = assemble(synthFragmentProgram(spec));
        ASSERT_TRUE(fp.ok) << fp.error;
        QuadState quad;
        for (int l = 0; l < 4; ++l) {
            quad.covered[l] = true;
            quad.lanes[l].inputs[0] = {rng.nextRange(-4, 4),
                                       rng.nextRange(-4, 4), 0, 1};
            quad.lanes[l].inputs[1] = {rng.nextFloat(), rng.nextFloat(),
                                       rng.nextFloat(), rng.nextFloat()};
        }
        interp.runQuad(fp.program, quad, &tex);
        for (int l = 0; l < 4; ++l) {
            EXPECT_TRUE(finite(quad.lanes[l].outputs[0]))
                << fp.program.disassemble();
        }
    }
}

TEST_P(SynthFuzz, DecodedMatchesLegacyOnSynthPrograms)
{
    // Differential fuzz over the whole synthesizable program space:
    // the pre-decoded quad path and the legacy reference must agree
    // bit-for-bit on outputs, kill flags and statistics.
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
    auto specs = planMaterialMix(16, 4.0 + 20.0 * rng.nextFloat(),
                                 4.0 * rng.nextFloat(),
                                 rng.nextFloat() * 0.5, rng);
    Interpreter decoded, legacy;
    HashTexture tex;
    for (const auto &spec : specs) {
        auto fp = assemble(synthFragmentProgram(spec));
        ASSERT_TRUE(fp.ok) << fp.error;
        QuadState hot, ref;
        for (int l = 0; l < 4; ++l) {
            hot.covered[l] = ref.covered[l] = (rng.nextFloat() < 0.8f);
            hot.lanes[l].inputs[0] = {rng.nextRange(-4, 4),
                                      rng.nextRange(-4, 4), 0, 1};
            hot.lanes[l].inputs[1] = {rng.nextFloat(), rng.nextFloat(),
                                      rng.nextFloat(), rng.nextFloat()};
            ref.lanes[l].inputs[0] = hot.lanes[l].inputs[0];
            ref.lanes[l].inputs[1] = hot.lanes[l].inputs[1];
        }
        decoded.runQuad(fp.program, hot, &tex);
        legacy.runQuadLegacy(fp.program, ref, &tex);
        for (int l = 0; l < 4; ++l) {
            for (int k = 0; k < 4; ++k)
                EXPECT_EQ(hot.lanes[l].outputs[0][k],
                          ref.lanes[l].outputs[0][k])
                    << fp.program.disassemble();
            EXPECT_EQ(hot.lanes[l].killed, ref.lanes[l].killed)
                << fp.program.disassemble();
        }
    }
    EXPECT_EQ(decoded.stats().instructionsExecuted,
              legacy.stats().instructionsExecuted);
    EXPECT_EQ(decoded.stats().textureInstructions,
              legacy.stats().textureInstructions);
    EXPECT_EQ(decoded.stats().killsTaken, legacy.stats().killsTaken);
    EXPECT_EQ(decoded.stats().programsRun, legacy.stats().programsRun);
}

TEST_P(SynthFuzz, VertexProgramsExecuteFinite)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 77);
    Interpreter interp;
    for (int iter = 0; iter < 20; ++iter) {
        int len = 9 + static_cast<int>(rng.nextBounded(32));
        auto vp = assemble(synthVertexProgram(len),
                           ProgramKind::Vertex);
        ASSERT_TRUE(vp.ok) << vp.error;
        EXPECT_EQ(vp.program.instructionCount(), len);

        LaneState lane;
        lane.inputs[0] = {rng.nextRange(-50, 50), rng.nextRange(-50, 50),
                          rng.nextRange(-50, 50), 1};
        lane.inputs[1] = {rng.nextFloat(), rng.nextFloat(),
                          rng.nextFloat(), 0};
        lane.inputs[2] = {rng.nextFloat(), rng.nextFloat(), 0, 1};
        lane.inputs[3] = {1, 1, 1, 1};
        // Identity-ish MVP rows.
        shader::Program prog = vp.program;
        prog.setConstant(0, {1, 0, 0, 0});
        prog.setConstant(1, {0, 1, 0, 0});
        prog.setConstant(2, {0, 0, 1, 0});
        prog.setConstant(3, {0, 0, 0, 1});
        interp.run(prog, lane);
        EXPECT_TRUE(finite(lane.outputs[0]));
        EXPECT_TRUE(finite(lane.outputs[2]));
        // Position equals the input under the identity transform.
        EXPECT_FLOAT_EQ(lane.outputs[0].x, lane.inputs[0].x);
    }
}

TEST_P(SynthFuzz, DisassembleAssembleRoundTrip)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 123);
    auto specs = planMaterialMix(8, 14.0, 3.0, 0.25, rng);
    for (const auto &spec : specs) {
        auto first = assemble(synthFragmentProgram(spec));
        ASSERT_TRUE(first.ok);
        auto second = assemble(first.program.disassemble());
        ASSERT_TRUE(second.ok) << second.error;
        ASSERT_EQ(second.program.instructionCount(),
                  first.program.instructionCount());
        for (int i = 0; i < first.program.instructionCount(); ++i) {
            EXPECT_EQ(
                disassembleInstruction(second.program.code()[i]),
                disassembleInstruction(first.program.code()[i]));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));
