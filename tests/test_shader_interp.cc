/**
 * @file
 * Unit tests for the shader interpreter: per-opcode semantics, operand
 * modifiers, quad execution, KIL and texture dispatch.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "shader/interp.hh"

using namespace wc3d;
using namespace wc3d::shader;

namespace {

/** Run a 1-instruction program on one lane and return output 0. */
Vec4
run1(Program &p, Vec4 in0 = {}, Vec4 in1 = {}, Vec4 in2 = {})
{
    LaneState lane;
    lane.inputs[0] = in0;
    lane.inputs[1] = in1;
    lane.inputs[2] = in2;
    run(p, lane);
    return lane.outputs[0];
}

/** Stub texture handler returning a fixed colour and recording calls. */
class StubTexture : public TextureSampleHandler
{
  public:
    void
    sampleQuad(int sampler, const Vec4 coords[4], float lod_bias,
               Vec4 out[4]) override
    {
        ++calls;
        lastSampler = sampler;
        lastBias = lod_bias;
        for (int l = 0; l < 4; ++l) {
            lastCoords[l] = coords[l];
            out[l] = color;
        }
    }

    int calls = 0;
    int lastSampler = -1;
    float lastBias = 0.0f;
    Vec4 lastCoords[4];
    Vec4 color{0.25f, 0.5f, 0.75f, 1.0f};
};

} // namespace

TEST(Interp, MovAddSubMul)
{
    {
        Program p(ProgramKind::Vertex, "t");
        p.mov(dstOutput(0), srcInput(0));
        Vec4 r = run1(p, {1, 2, 3, 4});
        EXPECT_FLOAT_EQ(r.x, 1);
        EXPECT_FLOAT_EQ(r.w, 4);
    }
    {
        Program p(ProgramKind::Vertex, "t");
        p.add(dstOutput(0), srcInput(0), srcInput(1));
        EXPECT_FLOAT_EQ(run1(p, {1, 2, 3, 4}, {10, 20, 30, 40}).z, 33);
    }
    {
        Program p(ProgramKind::Vertex, "t");
        p.sub(dstOutput(0), srcInput(0), srcInput(1));
        EXPECT_FLOAT_EQ(run1(p, {5, 5, 5, 5}, {1, 2, 3, 4}).w, 1);
    }
    {
        Program p(ProgramKind::Vertex, "t");
        p.mul(dstOutput(0), srcInput(0), srcInput(1));
        EXPECT_FLOAT_EQ(run1(p, {2, 3, 4, 5}, {3, 3, 3, 3}).y, 9);
    }
}

TEST(Interp, MadAndDot)
{
    Program p(ProgramKind::Vertex, "t");
    p.mad(dstOutput(0), srcInput(0), srcInput(1), srcInput(2));
    EXPECT_FLOAT_EQ(run1(p, {2, 0, 0, 0}, {3, 0, 0, 0}, {4, 0, 0, 0}).x,
                    10.0f);

    Program d3(ProgramKind::Vertex, "t");
    d3.dp3(dstOutput(0), srcInput(0), srcInput(1));
    Vec4 r = run1(d3, {1, 2, 3, 100}, {4, 5, 6, 100});
    EXPECT_FLOAT_EQ(r.x, 32.0f); // w ignored
    EXPECT_FLOAT_EQ(r.w, 32.0f); // broadcast

    Program d4(ProgramKind::Vertex, "t");
    d4.dp4(dstOutput(0), srcInput(0), srcInput(1));
    EXPECT_FLOAT_EQ(run1(d4, {1, 2, 3, 4}, {5, 6, 7, 8}).y, 70.0f);
}

TEST(Interp, RcpRsq)
{
    Program p(ProgramKind::Vertex, "t");
    p.rcp(dstOutput(0), srcInput(0));
    EXPECT_FLOAT_EQ(run1(p, {4, 9, 9, 9}).z, 0.25f);
    EXPECT_FLOAT_EQ(run1(p, {0, 0, 0, 0}).x, 0.0f); // guarded

    Program q(ProgramKind::Vertex, "t");
    q.rsq(dstOutput(0), srcInput(0));
    EXPECT_FLOAT_EQ(run1(q, {16, 0, 0, 0}).x, 0.25f);
    EXPECT_FLOAT_EQ(run1(q, {-16, 0, 0, 0}).x, 0.25f); // |x|
}

TEST(Interp, MinMaxSltSge)
{
    Program mn(ProgramKind::Vertex, "t");
    mn.minOp(dstOutput(0), srcInput(0), srcInput(1));
    EXPECT_FLOAT_EQ(run1(mn, {1, 5, 2, 8}, {3, 3, 3, 3}).y, 3.0f);

    Program mx(ProgramKind::Vertex, "t");
    mx.maxOp(dstOutput(0), srcInput(0), srcInput(1));
    EXPECT_FLOAT_EQ(run1(mx, {1, 5, 2, 8}, {3, 3, 3, 3}).x, 3.0f);

    Program lt(ProgramKind::Vertex, "t");
    lt.slt(dstOutput(0), srcInput(0), srcInput(1));
    Vec4 r = run1(lt, {1, 5, 3, 0}, {3, 3, 3, 3});
    EXPECT_FLOAT_EQ(r.x, 1.0f);
    EXPECT_FLOAT_EQ(r.y, 0.0f);
    EXPECT_FLOAT_EQ(r.z, 0.0f);

    Program ge(ProgramKind::Vertex, "t");
    ge.sge(dstOutput(0), srcInput(0), srcInput(1));
    Vec4 g = run1(ge, {1, 5, 3, 0}, {3, 3, 3, 3});
    EXPECT_FLOAT_EQ(g.x, 0.0f);
    EXPECT_FLOAT_EQ(g.y, 1.0f);
    EXPECT_FLOAT_EQ(g.z, 1.0f);
}

TEST(Interp, FrcFlrAbs)
{
    Program fr(ProgramKind::Vertex, "t");
    fr.frc(dstOutput(0), srcInput(0));
    EXPECT_NEAR(run1(fr, {1.75f, -0.25f, 0, 0}).x, 0.75f, 1e-6f);
    EXPECT_NEAR(run1(fr, {1.75f, -0.25f, 0, 0}).y, 0.75f, 1e-6f);

    Program fl(ProgramKind::Vertex, "t");
    fl.flr(dstOutput(0), srcInput(0));
    EXPECT_FLOAT_EQ(run1(fl, {1.75f, -0.25f, 0, 0}).x, 1.0f);
    EXPECT_FLOAT_EQ(run1(fl, {1.75f, -0.25f, 0, 0}).y, -1.0f);

    Program ab(ProgramKind::Vertex, "t");
    ab.absOp(dstOutput(0), srcInput(0));
    EXPECT_FLOAT_EQ(run1(ab, {-3, 4, -5, 0}).x, 3.0f);
}

TEST(Interp, ExpLogPow)
{
    Program e(ProgramKind::Vertex, "t");
    e.ex2(dstOutput(0), srcInput(0));
    EXPECT_FLOAT_EQ(run1(e, {3, 0, 0, 0}).x, 8.0f);

    Program l(ProgramKind::Vertex, "t");
    l.lg2(dstOutput(0), srcInput(0));
    EXPECT_FLOAT_EQ(run1(l, {8, 0, 0, 0}).x, 3.0f);

    Program pw(ProgramKind::Vertex, "t");
    pw.pow(dstOutput(0), srcInput(0), srcInput(1));
    EXPECT_FLOAT_EQ(run1(pw, {2, 0, 0, 0}, {10, 0, 0, 0}).x, 1024.0f);
}

TEST(Interp, LrpCmp)
{
    Program lr(ProgramKind::Vertex, "t");
    lr.lrp(dstOutput(0), srcInput(0), srcInput(1), srcInput(2));
    EXPECT_FLOAT_EQ(
        run1(lr, {0.25f, 0, 0, 0}, {8, 0, 0, 0}, {4, 0, 0, 0}).x, 5.0f);

    Program cm(ProgramKind::Vertex, "t");
    cm.cmp(dstOutput(0), srcInput(0), srcInput(1), srcInput(2));
    Vec4 r = run1(cm, {-1, 1, -1, 1}, {10, 10, 10, 10}, {20, 20, 20, 20});
    EXPECT_FLOAT_EQ(r.x, 10.0f);
    EXPECT_FLOAT_EQ(r.y, 20.0f);
}

TEST(Interp, NrmXpd)
{
    Program n(ProgramKind::Vertex, "t");
    n.nrm(dstOutput(0), srcInput(0));
    Vec4 r = run1(n, {3, 0, 4, 7});
    EXPECT_NEAR(r.x, 0.6f, 1e-6f);
    EXPECT_NEAR(r.z, 0.8f, 1e-6f);
    EXPECT_FLOAT_EQ(r.w, 7.0f);

    Program x(ProgramKind::Vertex, "t");
    x.xpd(dstOutput(0), srcInput(0), srcInput(1));
    Vec4 c = run1(x, {1, 0, 0, 0}, {0, 1, 0, 0});
    EXPECT_FLOAT_EQ(c.z, 1.0f);
}

TEST(Interp, LitSemantics)
{
    Program p(ProgramKind::Vertex, "t");
    Instruction i;
    i.op = Opcode::LIT;
    i.dst = dstOutput(0);
    i.src[0] = srcInput(0);
    p.emit(i);
    // diffuse = max(N.L, 0), specular = max(N.H,0)^exp when N.L > 0
    Vec4 r = run1(p, {0.5f, 0.8f, 0.0f, 2.0f});
    EXPECT_FLOAT_EQ(r.x, 1.0f);
    EXPECT_FLOAT_EQ(r.y, 0.5f);
    EXPECT_NEAR(r.z, 0.64f, 1e-6f);
    // back-facing: no specular
    Vec4 b = run1(p, {-0.5f, 0.8f, 0.0f, 2.0f});
    EXPECT_FLOAT_EQ(b.y, 0.0f);
    EXPECT_FLOAT_EQ(b.z, 0.0f);
}

TEST(Interp, SwizzleNegateAbsModifiers)
{
    Program p(ProgramKind::Vertex, "t");
    SrcOperand s = srcInput(0, packSwizzle(kCompW, kCompW, kCompX, kCompX));
    p.mov(dstOutput(0), negate(s));
    Vec4 r = run1(p, {1, 2, 3, 4});
    EXPECT_FLOAT_EQ(r.x, -4.0f);
    EXPECT_FLOAT_EQ(r.z, -1.0f);

    Program q(ProgramKind::Vertex, "t");
    SrcOperand a = srcInput(0);
    a.absolute = true;
    a.negate = true; // -|x|
    q.mov(dstOutput(0), a);
    EXPECT_FLOAT_EQ(run1(q, {-3, 0, 0, 0}).x, -3.0f);
    EXPECT_FLOAT_EQ(run1(q, {3, 0, 0, 0}).x, -3.0f);
}

TEST(Interp, WriteMaskAndSaturate)
{
    Program p(ProgramKind::Vertex, "t");
    p.mov(dstOutput(0), srcConst(0));           // baseline
    p.setConstant(0, {9, 9, 9, 9});
    p.mov(dstOutput(0, kMaskY), srcInput(0));   // only y overwritten
    Vec4 r = run1(p, {1, 2, 3, 4});
    EXPECT_FLOAT_EQ(r.x, 9.0f);
    EXPECT_FLOAT_EQ(r.y, 2.0f);

    Program s(ProgramKind::Vertex, "t");
    s.mov(saturate(dstOutput(0)), srcInput(0));
    Vec4 c = run1(s, {-1.0f, 0.5f, 2.0f, 1.0f});
    EXPECT_FLOAT_EQ(c.x, 0.0f);
    EXPECT_FLOAT_EQ(c.y, 0.5f);
    EXPECT_FLOAT_EQ(c.z, 1.0f);
}

TEST(Interp, TempRegistersHoldIntermediates)
{
    Program p(ProgramKind::Vertex, "t");
    p.add(dstTemp(5), srcInput(0), srcInput(0));
    p.mul(dstOutput(0), srcTemp(5), srcTemp(5));
    EXPECT_FLOAT_EQ(run1(p, {3, 0, 0, 0}).x, 36.0f);
}

TEST(InterpQuad, TextureDispatchAndResult)
{
    Program p(ProgramKind::Fragment, "t");
    p.tex(dstOutput(0), srcInput(0), 2);
    StubTexture tex;
    QuadState quad;
    for (int l = 0; l < 4; ++l)
        quad.lanes[l].inputs[0] = {0.1f * l, 0.2f * l, 0, 1};
    runQuad(p, quad, &tex);
    EXPECT_EQ(tex.calls, 1);
    EXPECT_EQ(tex.lastSampler, 2);
    EXPECT_FLOAT_EQ(tex.lastCoords[3].x, 0.3f);
    for (int l = 0; l < 4; ++l)
        EXPECT_FLOAT_EQ(quad.lanes[l].outputs[0].y, 0.5f);
}

TEST(InterpQuad, TxpDividesByW)
{
    Program p(ProgramKind::Fragment, "t");
    p.txp(dstOutput(0), srcInput(0), 0);
    StubTexture tex;
    QuadState quad;
    quad.lanes[0].inputs[0] = {2.0f, 4.0f, 0.0f, 2.0f};
    runQuad(p, quad, &tex);
    EXPECT_FLOAT_EQ(tex.lastCoords[0].x, 1.0f);
    EXPECT_FLOAT_EQ(tex.lastCoords[0].y, 2.0f);
}

TEST(InterpQuad, TxbPassesBias)
{
    Program p(ProgramKind::Fragment, "t");
    p.txb(dstOutput(0), srcInput(0), 0);
    StubTexture tex;
    QuadState quad;
    for (int l = 0; l < 4; ++l)
        quad.lanes[l].inputs[0] = {0, 0, 0, -1.5f};
    runQuad(p, quad, &tex);
    EXPECT_FLOAT_EQ(tex.lastBias, -1.5f);
}

TEST(InterpQuad, KilSetsKilledLanes)
{
    Program p(ProgramKind::Fragment, "t");
    p.kil(srcInput(0));
    QuadState quad;
    quad.lanes[0].inputs[0] = {1, 1, 1, 1};    // survives
    quad.lanes[1].inputs[0] = {-1, 1, 1, 1};   // killed
    quad.lanes[2].inputs[0] = {1, 1, 1, -0.1f}; // killed
    quad.lanes[3].inputs[0] = {0, 0, 0, 0};    // survives (not < 0)
    runQuad(p, quad, nullptr);
    EXPECT_FALSE(quad.lanes[0].killed);
    EXPECT_TRUE(quad.lanes[1].killed);
    EXPECT_TRUE(quad.lanes[2].killed);
    EXPECT_FALSE(quad.lanes[3].killed);
}

TEST(InterpQuad, HelperLanesStillComputeValues)
{
    // Helper (uncovered) lanes must still execute so a later TEX could
    // compute derivatives; their outputs are written but ignored
    // downstream.
    Program p(ProgramKind::Fragment, "t");
    p.add(dstOutput(0), srcInput(0), srcInput(0));
    QuadState quad;
    quad.lanes[1].inputs[0] = {21, 0, 0, 0};
    runQuad(p, quad, nullptr);
    EXPECT_FLOAT_EQ(quad.lanes[1].outputs[0].x, 42.0f);
}
