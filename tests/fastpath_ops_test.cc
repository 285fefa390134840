// Tests for the specialized hot-path kernels added for steady-state training:
// the compile-time lowering of sum-style aggregations (copy-sum, and the
// multiply folded into the sum), the register-blocked GEMM kernels, the
// batched dropout mask, and the scalar-broadcast elementwise forms. Every
// fast form is checked against an independent reference (baseline
// executors, naive triple loops, the per-element RNG path).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/baseline_executor.h"
#include "src/exec/compiled_program.h"
#include "src/exec/seastar_executor.h"
#include "src/gir/builder.h"
#include "src/graph/generators.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

Graph RandomGraph(int64_t n, int64_t m, uint64_t seed, bool skewed = false) {
  Rng rng(seed);
  CooEdges edges = skewed ? Rmat(n, m, rng) : ErdosRenyi(n, m, rng);
  AddSelfLoops(edges);
  return ToGraph(std::move(edges));
}

FeatureMap RandomVertexFeatures(const Graph& g, std::vector<std::pair<std::string, int64_t>> keys,
                                uint64_t seed) {
  Rng rng(seed);
  FeatureMap features;
  for (const auto& [key, width] : keys) {
    features.vertex[key] = ops::RandomNormal({g.num_vertices(), width}, 0.0f, 1.0f, rng);
  }
  return features;
}

// How the program's sum-like aggregation lowered: a sum/mean pulling rows
// straight from a tensor (copy-sum), a multiply folded into the sum
// (multiply-sum), or neither.
enum class SumShape { kNone, kCopySum, kMulSum };

SumShape ClassifiedSumShape(const GirGraph& gir) {
  auto program = CompileProgram(gir, FusionOptions{});
  SumShape shape = SumShape::kNone;
  for (const CompiledUnit& unit : program->units) {
    for (const AggStep& agg : unit.aggs) {
      const bool sum_like = agg.kind == OpKind::kAggSum || agg.kind == OpKind::kAggMean;
      SumShape found = SumShape::kNone;
      if (sum_like && agg.fused_mul) {
        found = SumShape::kMulSum;
      } else if (sum_like && unit.edge_steps.empty() && agg.a.home == Home::kNode) {
        found = SumShape::kCopySum;
      }
      if (found != SumShape::kNone) {
        EXPECT_EQ(shape, SumShape::kNone) << "more than one specialized aggregation";
        shape = found;
      }
    }
  }
  return shape;
}

// Checks the seastar units against the independent baseline implementations
// (which run every op as its own whole-graph pass).
void ExpectMatchesBaselines(const GirGraph& gir, const Graph& graph, const FeatureMap& features,
                            float tol = 1e-4f) {
  SeastarExecutor seastar;
  BaselineExecutor dgl{[] {
    BaselineExecutorOptions o;
    o.flavor = BaselineFlavor::kDglLike;
    return o;
  }()};
  BaselineExecutor pyg{[] {
    BaselineExecutorOptions o;
    o.flavor = BaselineFlavor::kPygLike;
    return o;
  }()};
  RunResult a = seastar.Run(gir, graph, features);
  RunResult c = dgl.Run(gir, graph, features);
  RunResult d = pyg.Run(gir, graph, features);
  ASSERT_FALSE(a.outputs.empty());
  for (const auto& [name, tensor] : a.outputs) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(c.outputs.count(name));
    ASSERT_TRUE(d.outputs.count(name));
    EXPECT_TRUE(tensor.AllClose(c.outputs.at(name), tol)) << "seastar vs dgl-like";
    EXPECT_TRUE(tensor.AllClose(d.outputs.at(name), tol)) << "seastar vs pyg-like";
  }
}

// ---- Sum-shape classification ------------------------------------------------

TEST(FastPathTest, PlainAggSumClassifiesAsCopySum) {
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 8)), "out");
  EXPECT_EQ(ClassifiedSumShape(b.graph()), SumShape::kCopySum);
}

TEST(FastPathTest, WeightedAggSumClassifiesAsMulSum) {
  // GCN's aggregation shape: per-edge product feeding a sum.
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 8) * b.Src("norm", 1)), "out");
  EXPECT_EQ(ClassifiedSumShape(b.graph()), SumShape::kMulSum);
}

TEST(FastPathTest, AggMeanAlsoSpecializes) {
  // Mean lowers to sum plus a post-division, so the edge loop is identical.
  GirBuilder b;
  b.MarkOutput(AggMean(b.Src("h", 4)), "out");
  EXPECT_EQ(ClassifiedSumShape(b.graph()), SumShape::kCopySum);
}

TEST(FastPathTest, MaxAndMultiOpUnitsStayInterpreted) {
  {
    GirBuilder b;
    b.MarkOutput(AggMax(b.Src("h", 4)), "out");
    EXPECT_EQ(ClassifiedSumShape(b.graph()), SumShape::kNone);
  }
  {
    // Two chained edge ops: the single-Mul shape does not apply.
    GirBuilder b;
    b.MarkOutput(AggSum(Exp(b.Src("h", 4) * b.Src("w", 1))), "out");
    EXPECT_EQ(ClassifiedSumShape(b.graph()), SumShape::kNone);
  }
}

// ---- Sum-shape correctness ---------------------------------------------------

TEST(FastPathTest, CopySumMatchesBaselinesOnRandomGraphs) {
  for (bool skewed : {false, true}) {
    Graph g = RandomGraph(200, 1400, skewed ? 21 : 22, skewed);
    for (int64_t width : {1, 7, 16}) {  // 1 exercises the broadcast variant.
      SCOPED_TRACE(width);
      GirBuilder b;
      b.MarkOutput(AggSum(b.Src("h", static_cast<int32_t>(width))), "out");
      ExpectMatchesBaselines(b.graph(), g, RandomVertexFeatures(g, {{"h", width}}, 31 + width));
    }
  }
}

TEST(FastPathTest, MulSumMatchesBaselinesAcrossOperandWidths) {
  Graph g = RandomGraph(180, 1200, 41);
  struct Case {
    int64_t wa, wb;
  };
  // vector*scalar, scalar*vector, vector*vector — all three slot variants.
  for (const Case& c : {Case{8, 1}, Case{1, 8}, Case{8, 8}}) {
    SCOPED_TRACE(c.wa * 100 + c.wb);
    GirBuilder b;
    b.MarkOutput(AggSum(b.Src("a", static_cast<int32_t>(c.wa)) *
                        b.Src("b", static_cast<int32_t>(c.wb))),
                 "out");
    ExpectMatchesBaselines(b.graph(), g,
                           RandomVertexFeatures(g, {{"a", c.wa}, {"b", c.wb}}, 51));
  }
}

TEST(FastPathTest, MulSumWithFixedDstOperandMatchesBaselines) {
  // v.deg-style operand: constant across the key vertex's edges, read per
  // slot through the slot's key.
  Graph g = RandomGraph(160, 1100, 61);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 8) * b.Dst("scale", 1)), "out");
  ExpectMatchesBaselines(b.graph(), g, RandomVertexFeatures(g, {{"h", 8}, {"scale", 1}}, 71));
}

TEST(FastPathTest, CopySumOnStarHandComputed) {
  Graph g = ToGraph(Star(5));
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 2)), "out");
  FeatureMap features;
  features.vertex["h"] = Tensor({5, 2}, {0, 0, 1, 10, 2, 20, 3, 30, 4, 40});
  SeastarExecutor ex;
  RunResult result = ex.Run(b.graph(), g, features);
  const Tensor& out = result.outputs.at("out");
  EXPECT_FLOAT_EQ(out.at(0, 0), 10.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 100.0f);
  EXPECT_FLOAT_EQ(out.at(3, 0), 0.0f);
}

// ---- Register-blocked GEMM --------------------------------------------------

Tensor NaiveMatmul(const Tensor& a, const Tensor& b) {
  const int64_t n = a.shape()[0], k = a.shape()[1], m = b.shape()[1];
  Tensor out = Tensor::Zeros({n, m});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a.at(i, kk) * b.at(kk, j);
      }
      out.data()[i * m + j] = acc;
    }
  }
  return out;
}

TEST(GemmTest, MatmulMatchesNaiveAcrossPanelTails) {
  Rng rng(101);
  // Widths chosen to hit: all-scalar tail (1, 7), exactly one 8-panel (8),
  // 32-panel only (32), and a mix of 32 + 8 + scalar (53).
  for (int64_t m : {1, 7, 8, 32, 53}) {
    SCOPED_TRACE(m);
    Tensor a = ops::RandomNormal({37, 29}, 0.0f, 1.0f, rng);
    Tensor b = ops::RandomNormal({29, m}, 0.0f, 1.0f, rng);
    EXPECT_TRUE(ops::Matmul(a, b).AllClose(NaiveMatmul(a, b), 1e-4f));
  }
}

TEST(GemmTest, MatmulTransposeBMatchesExplicitTranspose) {
  Rng rng(103);
  Tensor a = ops::RandomNormal({45, 31}, 0.0f, 1.0f, rng);
  Tensor bt = ops::RandomNormal({23, 31}, 0.0f, 1.0f, rng);  // b = bt^T.
  Tensor fast = ops::MatmulTransposeB(a, bt);
  Tensor ref = ops::Matmul(a, ops::Transpose(bt));
  ASSERT_EQ(fast.shape(), ref.shape());
  EXPECT_TRUE(fast.AllClose(ref, 0.0f));  // Same kernel, must be bitwise.
}

TEST(GemmTest, MatmulTransposeAMatchesNaive) {
  Rng rng(107);
  Tensor at = ops::RandomNormal({29, 37}, 0.0f, 1.0f, rng);  // a = at^T.
  Tensor b = ops::RandomNormal({29, 21}, 0.0f, 1.0f, rng);
  Tensor ref = NaiveMatmul(ops::Transpose(at), b);
  EXPECT_TRUE(ops::MatmulTransposeA(at, b).AllClose(ref, 1e-4f));
}

// ---- Batched dropout mask ---------------------------------------------------

TEST(DropoutMaskTest, BatchedFillMatchesPerElementBernoulliDrawForDraw) {
  // Checkpoint determinism depends on the batched fill consuming exactly the
  // draws the old per-element path consumed.
  const int64_t n = 1000;
  const double p = 0.37;
  const float keep = 1.0f / (1.0f - static_cast<float>(p));
  Rng batched(12345), reference(12345);

  std::vector<float> mask(n);
  batched.FillDropoutMask(mask.data(), n, p, keep);
  int64_t dropped = 0;
  for (int64_t i = 0; i < n; ++i) {
    const float expected = reference.NextBernoulli(p) ? 0.0f : keep;
    ASSERT_EQ(mask[i], expected) << "element " << i;
    dropped += mask[i] == 0.0f;
  }
  // Streams must be in sync afterwards, or a resumed run would diverge.
  EXPECT_EQ(batched.NextUint64(), reference.NextUint64());
  // Sanity: the drop rate is in the right ballpark.
  EXPECT_NEAR(static_cast<double>(dropped) / static_cast<double>(n), p, 0.08);
}

TEST(DropoutMaskTest, DegenerateProbabilitiesConsumeNoDraws) {
  Rng a(7), b(7);
  std::vector<float> mask(64);
  a.FillDropoutMask(mask.data(), 64, 0.0, 2.0f);
  for (float v : mask) {
    EXPECT_EQ(v, 2.0f);
  }
  a.FillDropoutMask(mask.data(), 64, 1.0, 2.0f);
  for (float v : mask) {
    EXPECT_EQ(v, 0.0f);
  }
  EXPECT_EQ(a.NextUint64(), b.NextUint64());  // NextBernoulli(0/1) draws nothing.
}

// ---- Scalar broadcast in binary elementwise ---------------------------------

TEST(BroadcastTest, ScalarOnEitherSideOfNonCommutativeOps) {
  Tensor scalar({1}, {6.0f});
  Tensor vec({3}, {1.0f, 2.0f, 3.0f});

  Tensor sub_left = ops::Sub(scalar, vec);  // 6 - x.
  ASSERT_EQ(sub_left.numel(), 3);
  EXPECT_FLOAT_EQ(sub_left.at(0), 5.0f);
  EXPECT_FLOAT_EQ(sub_left.at(1), 4.0f);
  EXPECT_FLOAT_EQ(sub_left.at(2), 3.0f);

  Tensor sub_right = ops::Sub(vec, scalar);  // x - 6.
  EXPECT_FLOAT_EQ(sub_right.at(0), -5.0f);
  EXPECT_FLOAT_EQ(sub_right.at(2), -3.0f);

  Tensor div_left = ops::Div(scalar, vec);  // 6 / x.
  EXPECT_FLOAT_EQ(div_left.at(0), 6.0f);
  EXPECT_FLOAT_EQ(div_left.at(1), 3.0f);
  EXPECT_FLOAT_EQ(div_left.at(2), 2.0f);

  Tensor div_right = ops::Div(vec, scalar);  // x / 6.
  EXPECT_FLOAT_EQ(div_right.at(1), 2.0f / 6.0f);
}

}  // namespace
}  // namespace seastar
