// Op-coverage differential test of the compiled fused units: every pointwise
// op in edge, neighbour-side, loop-invariant and post-aggregation position,
// with each width/broadcast pattern and each materialization kind, and every
// aggregation kind, run by the seastar executor (fused and unfused, several
// block sizes) and compared with the pyg-like executor. The graphs are
// adversarial for the chunked edge walk: a hub whose slots span several
// chunks, zero-degree vertices, self-loops, and (for the typed kinds)
// several edge types.
//
// Forward values must match bit for bit wherever both executors apply the
// same per-column operations in the same order, and within 1e-6 (normwise
// relative) otherwise: a multiply folded into a sum (one fma per column), or a plain
// sum over a typed graph (slots are sorted by edge type, pyg sums in edge-id
// order). Gradients are compared through backward GIRs built by autodiff.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/baseline_executor.h"
#include "src/exec/compiled_program.h"
#include "src/exec/seastar_executor.h"
#include "src/gir/autodiff.h"
#include "src/gir/builder.h"
#include "src/gir/passes.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

constexpr int32_t kW = 9;  // One 8-wide vector plus a tail column.
constexpr int32_t kTypes = 3;

// 1400 vertices: vertex 0 is a hub with ~1000 in-edges and ~700 out-edges
// (each spans several 512-slot chunks), every third vertex has a self-loop,
// and vertices 1200.. have no edges at all.
Graph AdversarialGraph(bool typed) {
  Rng rng(typed ? 11 : 7);
  const int64_t n = 1400;
  std::vector<int32_t> src;
  std::vector<int32_t> dst;
  for (int32_t v = 1; v < 1000; ++v) {
    src.push_back(v);
    dst.push_back(0);
  }
  for (int32_t v = 1; v < 700; ++v) {
    src.push_back(0);
    dst.push_back(v);
  }
  for (int32_t v = 0; v < 1200; v += 3) {
    src.push_back(v);
    dst.push_back(v);
  }
  for (int i = 0; i < 4000; ++i) {
    src.push_back(static_cast<int32_t>(rng.NextBounded(1200)));
    dst.push_back(static_cast<int32_t>(rng.NextBounded(1200)));
  }
  std::vector<int32_t> types;
  if (typed) {
    for (size_t e = 0; e < src.size(); ++e) {
      types.push_back(static_cast<int32_t>(rng.NextBounded(kTypes)));
    }
  }
  return Graph::FromCoo(n, std::move(src), std::move(dst), std::move(types),
                        typed ? kTypes : 1);
}

// Features: normal values (h, a, g, e), strictly positive ones for Log and
// Div (hp, ap, gp, ep), small integers for EqualMask (hq, aq, gq, eq), and a
// typed stack (t).
FeatureMap Features(const Graph& graph) {
  Rng rng(23);
  const int64_t n = graph.num_vertices();
  const int64_t m = graph.num_edges();
  const auto positive = [&](std::vector<int64_t> shape) {
    Tensor t = ops::RandomNormal(std::move(shape), 0, 1, rng);
    for (int64_t i = 0; i < t.numel(); ++i) {
      t.data()[i] = 0.5f + std::fabs(t.data()[i]);
    }
    return t;
  };
  const auto integer = [&](std::vector<int64_t> shape) {
    Tensor t(std::move(shape));
    for (int64_t i = 0; i < t.numel(); ++i) {
      t.data()[i] = static_cast<float>(rng.NextBounded(3));
    }
    return t;
  };
  FeatureMap f;
  f.vertex["h"] = ops::RandomNormal({n, kW}, 0, 1, rng);
  f.vertex["a"] = ops::RandomNormal({n, 1}, 0, 1, rng);
  f.vertex["hp"] = positive({n, kW});
  f.vertex["ap"] = positive({n, 1});
  f.vertex["hq"] = integer({n, kW});
  f.vertex["aq"] = integer({n, 1});
  f.edge["g"] = ops::RandomNormal({m, kW}, 0, 1, rng);
  f.edge["e"] = ops::RandomNormal({m, 1}, 0, 1, rng);
  f.edge["gp"] = positive({m, kW});
  f.edge["ep"] = positive({m, 1});
  f.edge["gq"] = integer({m, kW});
  f.edge["eq"] = integer({m, 1});
  f.typed_vertex["t"] = ops::RandomNormal({graph.num_edge_types(), n, kW}, 0, 1, rng);
  return f;
}

// A node of any kind, typed by the elementwise inference rules.
Value Raw(GirBuilder& b, OpKind kind, std::vector<Value> inputs, int32_t width,
          float attr = 0.0f) {
  Node node;
  node.kind = kind;
  node.width = width;
  node.attr = attr;
  std::vector<GraphType> types;
  for (const Value& v : inputs) {
    node.inputs.push_back(v.id());
    types.push_back(v.type());
  }
  node.type = InferElementwiseType(types);
  return b.RawNode(std::move(node));
}

bool SameBits(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data(), y.data(), static_cast<size_t>(x.numel()) * sizeof(float)) == 0;
}

// Normwise relative error: max |x - y| over the tensor divided by
// max(1, max |y|), with NaNs required in the same places. Summing the same
// terms in another order (or rounding a product once instead of twice)
// moves a sum by a few ulps of its partial sums, which for a cancelling sum
// can be many ulps of the sum itself; the tensor's largest value is the
// scale those errors are bounded by.
double NormwiseRelativeError(const Tensor& x, const Tensor& y) {
  double worst = 0.0;
  double scale = 1.0;
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float a = x.data()[i];
    const float r = y.data()[i];
    if (std::isnan(a) || std::isnan(r)) {
      worst = std::max(worst, std::isnan(a) && std::isnan(r) ? 0.0 : INFINITY);
      continue;
    }
    worst = std::max(worst, std::fabs(static_cast<double>(a) - r));
    scale = std::max(scale, std::fabs(static_cast<double>(r)));
  }
  return worst / scale;
}

// Runs `gir` through seastar (fused at three block sizes — the largest makes
// key-side runs longer than one run of rows — and unfused) and compares
// every output with the pyg-like executor, which runs on a one-participant
// pool so its scatter order is edge-id order.
void ExpectMatchesPyg(const GirGraph& gir, const Graph& graph, const FeatureMap& features,
                      bool exact) {
  ThreadPool single(0);
  RunResult reference;
  {
    ScopedThreadPool scope(&single);
    BaselineExecutor pyg({BaselineFlavor::kPygLike, true});
    reference = pyg.Run(gir, graph, features);
  }
  ASSERT_FALSE(reference.outputs.empty());
  for (const bool fusion : {true, false}) {
    for (const int block_size : {256, 32, 4096}) {
      if (!fusion && block_size != 256) {
        continue;
      }
      SeastarExecutorOptions options;
      options.enable_fusion = fusion;
      options.block_size = block_size;
      const RunResult got = SeastarExecutor(options).Run(gir, graph, features);
      for (const auto& [name, want] : reference.outputs) {
        SCOPED_TRACE(name + (fusion ? " fused" : " unfused") + " block " +
                     std::to_string(block_size));
        ASSERT_TRUE(got.outputs.count(name));
        const Tensor& have = got.outputs.at(name);
        ASSERT_EQ(have.shape(), want.shape());
        if (exact) {
          EXPECT_TRUE(SameBits(have, want))
              << "normwise relative error " << NormwiseRelativeError(have, want);
        } else {
          EXPECT_LE(NormwiseRelativeError(have, want), 1e-6);
        }
      }
    }
  }
}

// ---- Pointwise ops ------------------------------------------------------------------------------

enum class Position {
  kEdge,  // E-typed, per edge of a destination unit; stored as edge rows.
  kNbr,   // Source-side, per edge of a destination unit; stored as neighbour rows.
  kKey,   // Destination-side before the aggregation (loop invariant); key rows.
  kPost,  // Destination-side after the aggregation.
};

enum class Pattern { kWW, kW1, k1W, k11, kImm };

const char* PositionName(Position p) {
  switch (p) {
    case Position::kEdge:
      return "edge";
    case Position::kNbr:
      return "nbr";
    case Position::kKey:
      return "key";
    case Position::kPost:
      return "post";
  }
  return "?";
}

struct OpCase {
  OpKind kind;
  bool unary;
  float attr = 0.0f;
};

const std::vector<OpCase>& AllPointwiseOps() {
  static const std::vector<OpCase> ops = {
      {OpKind::kAdd, false},          {OpKind::kSub, false},
      {OpKind::kMul, false},          {OpKind::kDiv, false},
      {OpKind::kEqualMask, false},    {OpKind::kReluGrad, false},
      {OpKind::kLeakyReluGrad, false, 0.2f}, {OpKind::kSigmoidGrad, false},
      {OpKind::kTanhGrad, false},     {OpKind::kDotProduct, false},
      {OpKind::kNeg, true},           {OpKind::kExp, true},
      {OpKind::kLog, true},           {OpKind::kRelu, true},
      {OpKind::kLeakyRelu, true, 0.2f}, {OpKind::kSigmoid, true},
      {OpKind::kTanh, true},          {OpKind::kIdentity, true},
      {OpKind::kReduceWidthSum, true},
  };
  return ops;
}

// The feature key suffix an op's operand needs: positive for Log's input and
// Div's divisor, small integers for EqualMask.
std::string Domain(OpKind kind, bool divisor) {
  if (kind == OpKind::kEqualMask) {
    return "q";
  }
  if ((kind == OpKind::kLog && !divisor) || (kind == OpKind::kDiv && divisor)) {
    return "p";
  }
  return "";
}

// Builds op(x, y) in `position` with the given pattern and returns false
// when the combination does not exist (e.g. a broadcast unary op).
bool BuildPointwiseCase(GirBuilder& b, const OpCase& op, Position position, Pattern pattern,
                        bool materialize) {
  const bool reduce = op.kind == OpKind::kDotProduct || op.kind == OpKind::kReduceWidthSum;
  const bool wide_a = pattern == Pattern::kWW || pattern == Pattern::kW1 ||
                      pattern == Pattern::kImm;
  const bool wide_b = pattern == Pattern::kWW || pattern == Pattern::k1W;
  if (op.unary && (pattern == Pattern::kW1 || pattern == Pattern::kImm)) {
    return false;
  }
  if (op.unary && pattern == Pattern::k1W && op.kind != OpKind::kIdentity) {
    return false;  // Only Identity broadcasts a width-1 input.
  }
  if (reduce && (!wide_a || pattern == Pattern::kImm)) {
    return false;
  }
  const std::string da = Domain(op.kind, false);
  const std::string db = Domain(op.kind, true);
  const auto vertex_key = [](const std::string& domain, bool wide) {
    return (wide ? "h" : "a") + domain;
  };
  const auto edge_key = [](const std::string& domain, bool wide) {
    return (wide ? "g" : "e") + domain;
  };

  Value x;
  Value y;
  switch (position) {
    case Position::kEdge:
      // A unary op, or one with an immediate, needs a per-edge input to be
      // E-typed.
      x = op.unary || pattern == Pattern::kImm
              ? b.Edge(edge_key(da, wide_a), wide_a ? kW : 1)
              : b.Src(vertex_key(da, wide_a), wide_a ? kW : 1);
      y = b.Edge(edge_key(db, wide_b), wide_b ? kW : 1);
      break;
    case Position::kNbr:
      x = b.Src(vertex_key(da, wide_a), wide_a ? kW : 1);
      // A second source feature (positive where the domain allows).
      y = b.Src(vertex_key(db.empty() ? "p" : db, wide_b), wide_b ? kW : 1);
      break;
    case Position::kKey:
      x = b.Dst(vertex_key(da, wide_a), wide_a ? kW : 1);
      y = b.Dst(vertex_key(db, wide_b), wide_b ? kW : 1);
      break;
    case Position::kPost: {
      // A sum of positive values stays positive for Log; of integers, an
      // integer for EqualMask.
      x = b.AggSum(b.Src(vertex_key(da, wide_a), wide_a ? kW : 1), AggTo::kDst);
      y = b.Dst(vertex_key(db, wide_b), wide_b ? kW : 1);
      break;
    }
  }
  if (pattern == Pattern::kImm) {
    y = b.Const(op.kind == OpKind::kEqualMask ? 1.0f : 0.75f);
  }
  if (pattern == Pattern::k1W && op.unary) {
    // Identity broadcasting a width-1 value to kW columns.
    switch (position) {
      case Position::kEdge:
        x = b.Edge("e", 1);
        break;
      case Position::kNbr:
        x = b.Src("a", 1);
        break;
      case Position::kKey:
        x = b.Dst("a", 1);
        break;
      case Position::kPost:
        x = b.AggSum(b.Src("a", 1), AggTo::kDst);
        break;
    }
  }
  const int32_t width = reduce ? 1
                        : op.unary ? (pattern == Pattern::k1W ? kW : x.width())
                                   : std::max(x.width(), y.width());
  const Value r = op.unary ? Raw(b, op.kind, {x}, width, op.attr)
                           : Raw(b, op.kind, {x, y}, width, op.attr);
  // Per-edge values feed a max, which no multiply folds into (a folded
  // multiply-sum rounds once per column where pyg rounds twice).
  switch (position) {
    case Position::kEdge:
      b.MarkOutput(b.AggMax(r, AggTo::kDst), "max");
      if (materialize) {
        b.MarkOutput(r, "value");
      }
      break;
    case Position::kNbr:
      b.MarkOutput(b.AggMax(r, AggTo::kDst), "max");
      if (materialize) {
        // Read by a source-oriented unit, which makes the destination unit
        // store r as neighbour rows (see CHANGES.md on neighbour-side
        // program outputs).
        b.MarkOutput(b.AggSum(r, AggTo::kSrc), "src_sum");
      }
      break;
    case Position::kKey:
      // Read back per edge (through the slot's key) by an edge op.
      b.MarkOutput(b.AggSum(b.Src("h", kW) + r, AggTo::kDst), "sum");
      if (materialize) {
        b.MarkOutput(r, "value");
      }
      break;
    case Position::kPost:
      b.MarkOutput(r, "value");
      break;
  }
  return true;
}

class PointwiseCoverageTest : public ::testing::TestWithParam<Position> {};

TEST_P(PointwiseCoverageTest, EveryOpAndPatternMatchesPyg) {
  const Graph graph = AdversarialGraph(/*typed=*/false);
  const FeatureMap features = Features(graph);
  int cases = 0;
  for (const OpCase& op : AllPointwiseOps()) {
    for (const Pattern pattern :
         {Pattern::kWW, Pattern::kW1, Pattern::k1W, Pattern::k11, Pattern::kImm}) {
      for (const bool materialize : {false, true}) {
        GirBuilder b;
        if (!BuildPointwiseCase(b, op, GetParam(), pattern, materialize)) {
          continue;
        }
        SCOPED_TRACE(std::string(OpKindName(op.kind)) + " at " + PositionName(GetParam()) +
                     " pattern " + std::to_string(static_cast<int>(pattern)) +
                     (materialize ? " materialized" : ""));
        ExpectMatchesPyg(b.graph(), graph, features, /*exact=*/true);
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 40);
}

INSTANTIATE_TEST_SUITE_P(Positions, PointwiseCoverageTest,
                         ::testing::Values(Position::kEdge, Position::kNbr, Position::kKey,
                                           Position::kPost),
                         [](const ::testing::TestParamInfo<Position>& info) {
                           return std::string(PositionName(info.param));
                         });

// The steps each position lowers to, and the materialization kind.
TEST(CompiledUnitTest, PositionsLowerToTheirStepLists) {
  {
    GirBuilder b;
    const Value r = b.Src("h", kW) * b.Edge("g", kW);
    b.MarkOutput(b.AggSum(Exp(r), AggTo::kDst), "sum");
    b.MarkOutput(r, "value");
    auto program = CompileProgram(b.graph(), FusionOptions{});
    ASSERT_EQ(program->units.size(), 1u);
    const CompiledUnit& unit = program->units[0];
    ASSERT_EQ(unit.edge_steps.size(), 2u);
    EXPECT_EQ(unit.edge_steps[0].kind, OpKind::kMul);
    EXPECT_EQ(unit.edge_steps[1].kind, OpKind::kExp);
    EXPECT_EQ(unit.edge_steps[0].out.home, Home::kNode);
    EXPECT_EQ(unit.edge_steps[0].out.index, Index::kEid);
    EXPECT_EQ(unit.edge_steps[0].a.index, Index::kNbr);
    EXPECT_EQ(unit.edge_steps[1].out.home, Home::kEdgeRegs);
    ASSERT_EQ(unit.aggs.size(), 1u);
    EXPECT_FALSE(unit.aggs[0].fused_mul);
  }
  {
    GirBuilder b;
    const Value s = Exp(b.Src("h", kW));
    b.MarkOutput(b.AggSum(s, AggTo::kDst), "sum");
    b.MarkOutput(s, "value");
    auto program = CompileProgram(b.graph(), FusionOptions{});
    const CompiledUnit& unit = program->units[0];
    ASSERT_EQ(unit.edge_steps.size(), 2u);  // Exp, then the neighbour-row store.
    EXPECT_EQ(unit.edge_steps[1].kernel, &AtomicCopyRows);
    EXPECT_EQ(unit.edge_steps[1].out.index, Index::kNbr);
  }
  {
    GirBuilder b;
    const Value t = Exp(b.Dst("a", 1));
    b.MarkOutput(b.AggSum(b.Src("h", kW) * t, AggTo::kDst) + b.Dst("h", kW), "out");
    auto program = CompileProgram(b.graph(), FusionOptions{});
    const CompiledUnit& unit = program->units[0];
    ASSERT_EQ(unit.key_steps.size(), 1u);
    ASSERT_EQ(unit.post_steps.size(), 1u);
    EXPECT_TRUE(unit.edge_steps.empty());  // The multiply folds into the sum...
    ASSERT_EQ(unit.aggs.size(), 1u);
    EXPECT_TRUE(unit.aggs[0].fused_mul);
    EXPECT_EQ(unit.aggs[0].b.index, Index::kKeyLocal);  // ...reading t per slot.
    EXPECT_TRUE(unit.uses_slot_locals);
  }
}

// ---- Aggregations -------------------------------------------------------------------------------

TEST(CompiledUnitTest, EveryAggregationKindMatchesPyg) {
  const Graph graph = AdversarialGraph(/*typed=*/false);
  const FeatureMap features = Features(graph);
  for (const AggTo to : {AggTo::kDst, AggTo::kSrc}) {
    for (const int32_t width : {1, kW}) {
      SCOPED_TRACE(std::string(to == AggTo::kDst ? "A:D" : "A:S") + " width " +
                   std::to_string(width));
      const std::string key = width == 1 ? "a" : "h";
      {
        GirBuilder b;
        const Value x = Tanh(b.Src(key, width) + b.Dst(key, width));
        b.MarkOutput(b.AggSum(x, to), "sum");
        b.MarkOutput(b.AggMean(x, to), "mean");
        b.MarkOutput(b.AggMax(x, to), "max");
        ExpectMatchesPyg(b.graph(), graph, features, /*exact=*/true);
      }
      {
        // Plain rows straight into the aggregation.
        GirBuilder b;
        b.MarkOutput(b.AggMean(b.Edge(width == 1 ? "e" : "g", width), to), "mean");
        b.MarkOutput(b.AggMax(b.Src(key, width), to), "max");
        ExpectMatchesPyg(b.graph(), graph, features, /*exact=*/true);
      }
    }
  }
}

TEST(CompiledUnitTest, FusedMultiplySumMatchesPygWithinRounding) {
  const Graph graph = AdversarialGraph(/*typed=*/false);
  const FeatureMap features = Features(graph);
  const auto check = [&](const std::function<Value(GirBuilder&)>& product, bool mean) {
    GirBuilder b;
    const Value p = product(b);
    b.MarkOutput(mean ? b.AggMean(p, AggTo::kDst) : b.AggSum(p, AggTo::kDst), "out");
    auto program = CompileProgram(b.graph(), FusionOptions{});
    ASSERT_EQ(program->units.size(), 1u);
    ASSERT_EQ(program->units[0].aggs.size(), 1u);
    EXPECT_TRUE(program->units[0].aggs[0].fused_mul);
    ExpectMatchesPyg(b.graph(), graph, features, /*exact=*/false);
  };
  check([](GirBuilder& b) { return b.Src("h", kW) * b.Src("a", 1); }, false);   // w/1
  check([](GirBuilder& b) { return b.Edge("e", 1) * b.Src("h", kW); }, true);   // 1/w
  check([](GirBuilder& b) { return b.Src("h", kW) * b.Edge("g", kW); }, false); // w/w
  check([](GirBuilder& b) { return b.Src("a", 1) * b.Dst("a", 1); }, false);    // 1/1
  check([](GirBuilder& b) { return b.Src("h", kW) * b.Const(0.5f); }, true);    // immediate
}

TEST(CompiledUnitTest, TypedAggregationsMatchPyg) {
  const Graph graph = AdversarialGraph(/*typed=*/true);
  const FeatureMap features = Features(graph);
  for (const int32_t width : {1, kW}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const std::string key = width == 1 ? "a" : "h";
    {
      // Typed rows read through the slot's edge type, then the hierarchical
      // sum-then-max and a max; both are independent of slot order.
      GirBuilder b;
      const Value x = width == 1 ? Raw(b, OpKind::kReduceWidthSum, {b.TypedSrc("t", kW)}, 1)
                                 : b.TypedSrc("t", kW) * b.Dst("a", 1);
      b.MarkOutput(b.AggTypeSumThenMax(x), "sum_then_max");
      b.MarkOutput(b.AggMax(x, AggTo::kDst), "max");
      ExpectMatchesPyg(b.graph(), graph, features, /*exact=*/true);
    }
    {
      // Per-(type, source) sums of an edge value: the typed-input adjoint.
      GirBuilder b;
      const Value x = b.Edge(width == 1 ? "e" : "g", width) * b.Dst(key, width);
      Node node;
      node.kind = OpKind::kAggTypedToSrc;
      node.type = GraphType::kSrc;
      node.width = width;
      node.inputs = {x.id()};
      b.MarkOutput(b.RawNode(std::move(node)), "typed");
      ExpectMatchesPyg(b.graph(), graph, features, /*exact=*/true);
    }
    {
      // A plain sum over a typed graph: slots are in type order, pyg's
      // scatter in edge-id order.
      GirBuilder b;
      b.MarkOutput(b.AggSum(Exp(b.Src(key, width) - b.Dst(key, width)), AggTo::kDst), "sum");
      ExpectMatchesPyg(b.graph(), graph, features, /*exact=*/false);
    }
  }
}

// ---- Gradients ----------------------------------------------------------------------------------

// Backward GIRs built by autodiff exercise the *Grad ops, DotProduct,
// ReduceWidthSum, EqualMask and degree leaves in the positions training
// puts them in.
TEST(CompiledUnitTest, BackwardProgramsMatchPyg) {
  const Graph graph = AdversarialGraph(/*typed=*/false);
  const FeatureMap features = Features(graph);
  const std::vector<std::function<Value(GirBuilder&)>> programs = {
      [](GirBuilder& b) {  // GAT's attention.
        const Value e = Exp(LeakyRelu(b.Src("a", 1) + b.Dst("ap", 1), 0.2f));
        return b.AggSum(e / b.AggSum(e, AggTo::kDst) * b.Src("h", kW), AggTo::kDst);
      },
      [](GirBuilder& b) {
        return Tanh(b.AggMean(Sigmoid(b.Src("h", kW)) * b.Edge("e", 1), AggTo::kDst));
      },
      [](GirBuilder& b) {
        return b.AggMax(Relu(b.Src("h", kW) - b.Dst("h", kW)), AggTo::kDst);
      },
      [](GirBuilder& b) {
        return b.AggSum(Log(b.Src("hp", kW)) + b.Edge("g", kW) * b.Dst("a", 1), AggTo::kSrc);
      },
  };
  for (size_t i = 0; i < programs.size(); ++i) {
    SCOPED_TRACE("program " + std::to_string(i));
    GirBuilder b;
    b.MarkOutput(programs[i](b), "out");
    PassResult passes = RunStandardPasses(b.graph());
    BackwardGir backward = BuildBackward(passes.graph, passes.graph.outputs()[0]);
    OptimizeBackward(&backward);
    FeatureMap bwd_features = features;
    Rng rng(31 + i);
    const int64_t out_width = passes.graph.node(passes.graph.outputs()[0]).width;
    bwd_features.vertex[kGradInputKey] =
        ops::RandomNormal({graph.num_vertices(), out_width}, 0, 1, rng);
    // Fused multiply-sums may appear in the backward program.
    ExpectMatchesPyg(backward.graph, graph, bwd_features, /*exact=*/false);
  }
}

// ---- Fused multiply-sum classification (the GCN shape) ----------------------------------------

TEST(CompiledUnitTest, OnlyASingleRegisterMultiplyFoldsIntoTheSum) {
  const auto fused = [](const GirGraph& gir) {
    auto program = CompileProgram(gir, FusionOptions{});
    int count = 0;
    for (const CompiledUnit& unit : program->units) {
      for (const AggStep& agg : unit.aggs) {
        count += agg.fused_mul ? 1 : 0;
      }
    }
    return count;
  };
  {
    GirBuilder b;
    b.MarkOutput(b.AggSum(b.Src("h", kW) * b.Src("a", 1), AggTo::kDst), "out");
    EXPECT_EQ(fused(b.graph()), 1);
  }
  {
    // A materialized product stays a separate multiply then add.
    GirBuilder b;
    const Value p = b.Src("h", kW) * b.Edge("e", 1);
    b.MarkOutput(b.AggSum(p, AggTo::kDst), "out");
    b.MarkOutput(p, "p");
    EXPECT_EQ(fused(b.graph()), 0);
  }
  {
    // A second edge op (GAT's Div+Mul+AggSum) keeps the multiply separate.
    GirBuilder b;
    b.MarkOutput(b.AggSum(b.Src("h", kW) * (b.Edge("e", 1) / b.Dst("ap", 1)), AggTo::kDst),
                 "out");
    EXPECT_EQ(fused(b.graph()), 0);
  }
  {
    // Max never folds.
    GirBuilder b;
    b.MarkOutput(b.AggMax(b.Src("h", kW) * b.Src("a", 1), AggTo::kDst), "out");
    EXPECT_EQ(fused(b.graph()), 0);
  }
}

}  // namespace
}  // namespace seastar
