// Google-benchmark micro-suite over the individual kernels the systems are
// built from: dense GEMM, the fused GAT attention kernel per backend, the
// block-dispatch disciplines, and CSR construction. Complements the
// table/figure binaries with statistically sound per-kernel numbers.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/exec/baseline_executor.h"
#include "src/exec/seastar_executor.h"
#include "src/gir/builder.h"
#include "src/graph/generators.h"
#include "src/parallel/simt.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

void BM_Matmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = ops::RandomNormal({n, 128}, 0, 1, rng);
  Tensor b = ops::RandomNormal({128, 64}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Matmul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * 128 * 64);
}
BENCHMARK(BM_Matmul)->Arg(1024)->Arg(8192);

struct GatFixture {
  GatFixture() {
    Rng rng(7);
    CooEdges edges = Rmat(4000, 80000, rng);
    AddSelfLoops(edges);
    graph = ToGraph(std::move(edges));
    GirBuilder b;
    Value e = Exp(LeakyRelu(b.Src("eu", 1) + b.Dst("ev", 1), 0.2f));
    b.MarkOutput(AggSum(e / AggSum(e) * b.Src("h", 16)), "out");
    gir = b.TakeGraph();
    features.vertex["eu"] = ops::RandomNormal({graph.num_vertices(), 1}, 0, 1, rng);
    features.vertex["ev"] = ops::RandomNormal({graph.num_vertices(), 1}, 0, 1, rng);
    features.vertex["h"] = ops::RandomNormal({graph.num_vertices(), 16}, 0, 1, rng);
  }
  Graph graph;
  GirGraph gir;
  FeatureMap features;
};

GatFixture& Fixture() {
  static GatFixture* fixture = new GatFixture();
  return *fixture;
}

void BM_GatKernelSeastar(benchmark::State& state) {
  GatFixture& f = Fixture();
  SeastarExecutor executor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(f.gir, f.graph, f.features).outputs.size());
  }
  state.SetItemsProcessed(state.iterations() * f.graph.num_edges());
}
BENCHMARK(BM_GatKernelSeastar);

void BM_GatKernelSeastarNoFusion(benchmark::State& state) {
  GatFixture& f = Fixture();
  SeastarExecutorOptions options;
  options.enable_fusion = false;
  SeastarExecutor executor(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(f.gir, f.graph, f.features).outputs.size());
  }
  state.SetItemsProcessed(state.iterations() * f.graph.num_edges());
}
BENCHMARK(BM_GatKernelSeastarNoFusion);

void BM_GatKernelDglLike(benchmark::State& state) {
  GatFixture& f = Fixture();
  BaselineExecutor executor({BaselineFlavor::kDglLike, true});
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(f.gir, f.graph, f.features).outputs.size());
  }
  state.SetItemsProcessed(state.iterations() * f.graph.num_edges());
}
BENCHMARK(BM_GatKernelDglLike);

void BM_GatKernelPygLike(benchmark::State& state) {
  GatFixture& f = Fixture();
  BaselineExecutor executor({BaselineFlavor::kPygLike, true});
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(f.gir, f.graph, f.features).outputs.size());
  }
  state.SetItemsProcessed(state.iterations() * f.graph.num_edges());
}
BENCHMARK(BM_GatKernelPygLike);

void BM_BlockDispatch(benchmark::State& state) {
  const auto schedule = static_cast<BlockSchedule>(state.range(0));
  SimtLaunchParams params;
  params.num_blocks = 100000;
  params.schedule = schedule;
  for (auto _ : state) {
    int64_t total = 0;
    LaunchBlocks(params, [&](int64_t block, int) { benchmark::DoNotOptimize(block); });
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * params.num_blocks);
  state.SetLabel(BlockScheduleName(schedule));
}
BENCHMARK(BM_BlockDispatch)
    ->Arg(static_cast<int>(BlockSchedule::kStatic))
    ->Arg(static_cast<int>(BlockSchedule::kAtomicPerBlock))
    ->Arg(static_cast<int>(BlockSchedule::kChunkedDynamic));

void BM_CsrBuild(benchmark::State& state) {
  Rng rng(3);
  CooEdges edges = Rmat(10000, 200000, rng);
  for (auto _ : state) {
    CooEdges copy = edges;
    benchmark::DoNotOptimize(
        ToGraph(std::move(copy)).num_edges());
  }
  state.SetItemsProcessed(state.iterations() * 200000);
}
BENCHMARK(BM_CsrBuild);

}  // namespace
}  // namespace seastar

// Custom main instead of BENCHMARK_MAIN(): strip --metrics-out/--metrics-text
// before google-benchmark sees them (it rejects unknown flags), then dump the
// registry after the suite runs.
int main(int argc, char** argv) {
  const std::string metrics_out = seastar::FlagValue(argc, argv, "metrics-out", "");
  const std::string metrics_text = seastar::FlagValue(argc, argv, "metrics-text", "");
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-out=", 0) == 0 || arg.rfind("--metrics-text=", 0) == 0) {
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  seastar::metrics::MetricsRegistry& registry = seastar::metrics::MetricsRegistry::Get();
  if (!metrics_out.empty() && !registry.WriteJsonFile(metrics_out)) {
    return 1;
  }
  if (!metrics_text.empty() && !registry.WriteTextFile(metrics_text)) {
    return 1;
  }
  return 0;
}
