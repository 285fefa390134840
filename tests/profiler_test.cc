#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/profiler.h"
#include "src/common/rng.h"
#include "src/core/executor_factory.h"
#include "src/core/program.h"
#include "src/exec/baseline_executor.h"
#include "src/exec/seastar_executor.h"
#include "src/gir/builder.h"
#include "src/gir/passes.h"
#include "src/graph/generators.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/ops.h"
#include "src/tensor/simd.h"

namespace seastar {
namespace {

Graph RandomGraph(int64_t n, int64_t m, uint64_t seed) {
  Rng rng(seed);
  CooEdges edges = ErdosRenyi(n, m, rng);
  AddSelfLoops(edges);
  return ToGraph(std::move(edges));
}

FeatureMap VertexFeature(const Graph& g, const std::string& key, int64_t width, uint64_t seed) {
  Rng rng(seed);
  FeatureMap features;
  features.vertex[key] = ops::RandomNormal({g.num_vertices(), width}, 0.0f, 1.0f, rng);
  return features;
}

GirGraph AggSumProgram(int32_t width) {
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", width)), "out");
  return RunStandardPasses(b.graph()).graph;
}

// ---- Profiler core -------------------------------------------------------

TEST(ProfilerTest, RecordsNestedSpansWithCounters) {
  Profiler profiler;
  const int64_t outer = profiler.Begin("outer", "test");
  const int64_t inner = profiler.Begin("inner", "test");
  profiler.Mutable(inner)->edges = 42;
  profiler.End(inner);
  profiler.End(outer);

  ASSERT_EQ(profiler.events().size(), 2u);
  const ProfileEvent& first = profiler.events()[0];
  const ProfileEvent& second = profiler.events()[1];
  EXPECT_EQ(first.name, "outer");
  EXPECT_EQ(second.name, "inner");
  EXPECT_EQ(second.edges, 42);
  EXPECT_GE(first.dur_us, 0.0);
  EXPECT_GE(second.dur_us, 0.0);
  // The inner span is contained in the outer one.
  EXPECT_GE(second.start_us, first.start_us);
  EXPECT_LE(second.start_us + second.dur_us, first.start_us + first.dur_us + 1.0);
  EXPECT_GT(profiler.TotalUs("test"), 0.0);
}

TEST(ProfilerTest, DisabledProfilerRecordsNothing) {
  Profiler profiler(/*enabled=*/false);
  EXPECT_FALSE(profiler.enabled());
  const int64_t token = profiler.Begin("span", "test");
  EXPECT_EQ(token, -1);
  EXPECT_EQ(profiler.Mutable(token), nullptr);
  profiler.End(token);

  {
    ProfileScope scope(&profiler, "scoped", "test");
    EXPECT_FALSE(static_cast<bool>(scope));
    EXPECT_EQ(scope.event(), nullptr);
  }
  {
    ProfileScope scope(nullptr, "scoped", "test");
    EXPECT_EQ(scope.event(), nullptr);
  }
  EXPECT_TRUE(profiler.events().empty());
  EXPECT_EQ(profiler.ChromeTraceJson().find("\"ph\""), std::string::npos);
}

TEST(ProfilerTest, ChromeTraceJsonIsWellFormed) {
  Profiler profiler;
  {
    ProfileScope scope(&profiler, "unit0:Mul+AggSum", "unit");
    scope.event()->edges = 100;
    scope.event()->schedule = "dynamic";
  }
  const std::string json = profiler.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("unit0:Mul+AggSum"), std::string::npos);
  EXPECT_NE(json.find("\"edges\":100"), std::string::npos);
  EXPECT_NE(json.find("\"schedule\":\"dynamic\""), std::string::npos);
  // Balanced braces (crude structural check without a JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));

  const std::string path = ::testing::TempDir() + "/profiler_test_trace.json";
  ASSERT_TRUE(profiler.WriteChromeTrace(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), json);
  std::remove(path.c_str());
}

TEST(ProfilerTest, SummaryTableAggregatesByName) {
  Profiler profiler;
  for (int i = 0; i < 3; ++i) {
    ProfileScope scope(&profiler, "AggSum", "op");
    scope.event()->edges = 10;
  }
  const std::string table = profiler.SummaryTable();
  EXPECT_NE(table.find("AggSum"), std::string::npos);
  EXPECT_NE(table.find("30"), std::string::npos);  // Edges summed over spans.
}

// ---- Deterministic executor counters -------------------------------------

TEST(ProfilerTest, SeastarUnitSpanCountsEveryEdgeOnce) {
  const Graph g = RandomGraph(60, 300, 0x5e1);
  const GirGraph gir = AggSumProgram(4);
  const FeatureMap features = VertexFeature(g, "h", 4, 0x5e2);

  for (BlockSchedule schedule :
       {BlockSchedule::kStatic, BlockSchedule::kAtomicPerBlock, BlockSchedule::kChunkedDynamic}) {
    SCOPED_TRACE(BlockScheduleName(schedule));
    SeastarExecutorOptions options;
    options.schedule = schedule;
    SeastarExecutor executor(options);
    Profiler profiler;
    RunContext ctx;
    ctx.profiler = &profiler;
    executor.Run(gir, g, features, ctx);

    const ProfileEvent* unit = nullptr;
    for (const ProfileEvent& event : profiler.events()) {
      if (event.category == "unit") {
        ASSERT_EQ(unit, nullptr) << "expected exactly one fused unit";
        unit = &event;
      }
    }
    ASSERT_NE(unit, nullptr);
    // Vertex-parallel edge-sequential: each edge slot visited exactly once.
    EXPECT_EQ(unit->edges, g.num_edges());
    EXPECT_EQ(unit->fat_groups, g.num_vertices());
    EXPECT_GT(unit->fat_group_size, 0);
    EXPECT_EQ(unit->schedule, BlockScheduleName(schedule));
    EXPECT_GT(unit->num_blocks, 0);
  }
}

TEST(ProfilerTest, EveryUnitSpanNamesTheRowKernelIsa) {
  // GAT's attention: an interpreted-shape unit (Add+LeakyRelu+Exp+AggSum)
  // and a Div+Mul+AggSum unit. Every unit runs the dispatched row kernels,
  // so every span carries the ISA, not only the multiply-sum shapes.
  const Graph g = RandomGraph(80, 400, 0x15a);
  GirBuilder b;
  const Value e = Exp(LeakyRelu(b.Src("eu", 1) + b.Dst("ev", 1), 0.2f));
  b.MarkOutput(AggSum(e / AggSum(e) * b.Src("h", 4)), "out");
  FeatureMap features = VertexFeature(g, "h", 4, 0x15b);
  features.vertex["eu"] = VertexFeature(g, "eu", 1, 0x15c).vertex.at("eu");
  features.vertex["ev"] = VertexFeature(g, "ev", 1, 0x15d).vertex.at("ev");

  Profiler profiler;
  RunContext ctx;
  ctx.profiler = &profiler;
  SeastarExecutor().Run(b.graph(), g, features, ctx);
  int units = 0;
  for (const ProfileEvent& event : profiler.events()) {
    if (event.category == "unit") {
      EXPECT_EQ(event.simd_isa, simd::SimdIsaName()) << event.name;
      ++units;
    }
  }
  EXPECT_EQ(units, 2);
}

TEST(ProfilerTest, DispatchCountsMatchScheduleMode) {
  const Graph g = RandomGraph(200, 900, 0xd15);
  const GirGraph gir = AggSumProgram(8);
  const FeatureMap features = VertexFeature(g, "h", 8, 0xd16);
  const int64_t participants = ThreadPool::Get().num_threads() + 1;

  const auto run = [&](BlockSchedule schedule, int64_t chunk) {
    SeastarExecutorOptions options;
    options.schedule = schedule;
    options.dynamic_chunk = chunk;
    SeastarExecutor executor(options);
    Profiler profiler;
    RunContext ctx;
    ctx.profiler = &profiler;
    executor.Run(gir, g, features, ctx);
    for (const ProfileEvent& event : profiler.events()) {
      if (event.category == "unit") {
        return event;
      }
    }
    ADD_FAILURE() << "no unit span recorded";
    return ProfileEvent{};
  };

  // Static: one contiguous range per participating worker.
  const ProfileEvent static_event = run(BlockSchedule::kStatic, 16);
  const int64_t per_worker =
      (static_event.num_blocks + participants - 1) / participants;
  int64_t expected_static = 0;
  for (int64_t w = 0; w < participants; ++w) {
    if (std::min((w + 1) * per_worker, static_event.num_blocks) > w * per_worker) {
      ++expected_static;
    }
  }
  EXPECT_EQ(static_event.dispatches, expected_static);

  // Atomic: one RMW grant per block.
  const ProfileEvent atomic_event = run(BlockSchedule::kAtomicPerBlock, 16);
  EXPECT_EQ(atomic_event.dispatches, atomic_event.num_blocks);

  // Chunked dynamic: one grant per chunk of blocks.
  const int64_t chunk = 16;
  const ProfileEvent dynamic_event = run(BlockSchedule::kChunkedDynamic, chunk);
  EXPECT_EQ(dynamic_event.dispatches, (dynamic_event.num_blocks + chunk - 1) / chunk);
}

TEST(ProfilerTest, BaselineOpSpansCoverTraversalKernels) {
  const Graph g = RandomGraph(50, 240, 0xba5e);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 4) * b.Src("norm", 1)), "out");
  const GirGraph gir = RunStandardPasses(b.graph()).graph;
  Rng rng(0xba5f);
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), 4}, 0.0f, 1.0f, rng);
  features.vertex["norm"] = ops::RandomNormal({g.num_vertices(), 1}, 0.0f, 1.0f, rng);

  for (BaselineFlavor flavor : {BaselineFlavor::kDglLike, BaselineFlavor::kPygLike}) {
    SCOPED_TRACE(flavor == BaselineFlavor::kDglLike ? "dgl" : "pyg");
    BaselineExecutorOptions options;
    options.flavor = flavor;
    BaselineExecutor executor(options);
    Profiler profiler;
    RunContext ctx;
    ctx.profiler = &profiler;
    executor.Run(gir, g, features, ctx);

    int64_t traversal_spans = 0;
    for (const ProfileEvent& event : profiler.events()) {
      if (event.category == "op" && event.edges > 0) {
        EXPECT_EQ(event.edges, g.num_edges());
        ++traversal_spans;
      }
      if (event.category == "exec") {
        EXPECT_GT(event.kernel_launches, 0);
      }
    }
    EXPECT_GE(traversal_spans, 1);
  }
}

TEST(ProfilerTest, ExecutorsRecordNothingWithoutProfiler) {
  const Graph g = RandomGraph(30, 120, 0x0ff);
  const GirGraph gir = AggSumProgram(4);
  const FeatureMap features = VertexFeature(g, "h", 4, 0x100);

  Profiler disabled(/*enabled=*/false);
  RunContext ctx;
  ctx.profiler = &disabled;
  SeastarExecutor().Run(gir, g, features, ctx);
  BaselineExecutor().Run(gir, g, features, ctx);
  EXPECT_TRUE(disabled.events().empty());
}

// ---- RunContext regression (api_redesign) --------------------------------

TEST(ProfilerTest, RetainThroughRunContextMatchesDefaultRun) {
  const Graph g = RandomGraph(40, 160, 0x7e7);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 4) * b.Src("norm", 1)), "out");
  const GirGraph gir = RunStandardPasses(b.graph()).graph;
  Rng rng(0x7e8);
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), 4}, 0.0f, 1.0f, rng);
  features.vertex["norm"] = ops::RandomNormal({g.num_vertices(), 1}, 0.0f, 1.0f, rng);

  // No BinaryReduce fusion, so the [E, 4] Mul intermediate really
  // materializes and the eager-free path has something to release.
  BaselineExecutorOptions options;
  options.fuse_binary_reduce = false;
  BaselineExecutor executor(options);
  RunResult keep_all = executor.Run(gir, g, features);
  const std::vector<int32_t> no_retain;
  RunContext ctx;
  ctx.retain = &no_retain;
  RunResult eager = executor.Run(gir, g, features, ctx);
  ASSERT_TRUE(keep_all.outputs.count("out"));
  ASSERT_TRUE(eager.outputs.count("out"));
  EXPECT_TRUE(keep_all.outputs.at("out").AllClose(eager.outputs.at("out"), 1e-6f));
  // Eager-free mode must drop intermediates the keep-everything run saved.
  EXPECT_LT(eager.saved->size(), keep_all.saved->size());
}

// ---- VertexProgram input validation --------------------------------------

TEST(ProfilerDeathTest, MissingProgramInputNamesTheInput) {
  const Graph g = RandomGraph(20, 60, 0xdead);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 4)), "out");
  VertexProgram program = VertexProgram::Compile(std::move(b));
  const ExecutionSession session = MakeSession(std::move(*ExecutorFactory::Create("seastar")), g);
  EXPECT_DEATH(program.Run({}, session), "missing vertex input 'h'");
}

TEST(ProfilerDeathTest, MisShapedProgramInputNamesTheInput) {
  const Graph g = RandomGraph(20, 60, 0xdeae);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 4)), "out");
  VertexProgram program = VertexProgram::Compile(std::move(b));
  const ExecutionSession session = MakeSession(std::move(*ExecutorFactory::Create("seastar")), g);
  // Wrong width (3 != 4).
  Var bad_width = Var::Leaf(Tensor::Zeros({g.num_vertices(), 3}), /*requires_grad=*/false);
  EXPECT_DEATH(program.Run({.vertex = {{"h", bad_width}}}, session),
               "vertex input 'h' has shape");
  // Wrong row count (vertex tensor sized for a different graph).
  Var bad_rows = Var::Leaf(Tensor::Zeros({g.num_vertices() + 1, 4}), /*requires_grad=*/false);
  EXPECT_DEATH(program.Run({.vertex = {{"h", bad_rows}}}, session),
               "vertex input 'h' has shape");
}

}  // namespace
}  // namespace seastar
