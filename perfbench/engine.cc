// perfbench engine: runs one benchmark workload through the public APIs of
// the graph, core, exec and serve modules and reports raw samples as JSON
// lines on stdout. perfbench/run.py owns the policy — percentiles, the
// capacity ladder, metric names, pass/fail — so this file only measures.
//
//   perfbench_engine --workload=<name> --seed=<n> [--seconds=<s>]
//                    [--trace=0|1] [--setup-only] [--scale=<f>]
//
// Every run prints a {"kind":"setup"} line once set-up (inputs, model, plan
// compilation, first operation) is done. Training workloads then measure
// for --seconds and print one {"kind":"result"} line. The serving
// workload instead reads commands from stdin, one per line:
//
//   rung <qps> <seconds> <plain|traced> <measure|warm>   paced requests
//   end                                                   shut down, print result
//
// and answers each rung with a {"kind":"rung"} line. Every timing is taken
// here, outside the layer being timed, with std::chrono::steady_clock.
//
// Exit codes: 0 = measured (correctness is reported in the JSON, not here),
// 2 = bad arguments or a broken environment.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/common/metrics.h"
#include "src/common/profiler.h"
#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/core/executor_factory.h"
#include "src/core/models/gat.h"
#include "src/core/models/gcn.h"
#include "src/core/nn.h"
#include "src/exec/plan_cache.h"
#include "src/graph/datasets.h"
#include "src/parallel/simt.h"
#include "src/parallel/thread_pool.h"
#include "src/serve/server.h"
#include "src/tensor/allocator.h"
#include "src/tensor/autograd.h"
#include "src/tensor/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace seastar {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start, Clock::time_point end = Clock::now()) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- Arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  // Multiplies every input size; < 1 gives the smoke-test sizes.
  double scale = 1.0;
};

// Pool participants (the calling thread plus num_threads() pool workers).
// Pinned to one because barrier wake-ups across idle workers were the
// larger of the two measured noise sources (README.md).
constexpr int kParticipants = 1;

bool KnownWorkload(const std::string& name) {
  return name == "train_gat_cora" || name == "train_gcn_amz" || name == "serve_gcn_cora";
}

// ---- Output ------------------------------------------------------------------

// Prints `json` as one line (JsonWriter pretty-prints; string values never
// hold raw newlines, so flattening is safe) and flushes it to the runner.
void EmitLine(const JsonWriter& json) {
  std::string line = json.str();
  std::replace(line.begin(), line.end(), '\n', ' ');
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void DoubleArray(JsonWriter& json, std::string_view key, const std::vector<double>& values) {
  json.Key(key);
  json.BeginArray();
  for (double value : values) {
    json.Double(value);
  }
  json.EndArray();
}

// ---- Host stamp and memory probe --------------------------------------------

// A fixed memory-bound task: copies a 32 MiB buffer four times. Its time
// before and after a run marks runs taken during a host memory-interference
// phase. It is reported beside the metrics and never used to adjust one.
double MemoryProbeMillis() {
  constexpr size_t kFloats = 8u << 20;  // 32 MiB.
  static std::vector<float> src(kFloats, 1.0f);
  static std::vector<float> dst(kFloats, 0.0f);
  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass < 4; ++pass) {
    std::copy(src.begin(), src.end(), dst.begin());
    src[static_cast<size_t>(pass)] += dst[kFloats - 1 - static_cast<size_t>(pass)];
  }
  return MillisSince(start);
}

void WriteHost(JsonWriter& json, int participants) {
  json.Key("host");
  json.BeginObject();
  json.Field("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Field("simd_isa", simd::SimdIsaName());
  json.Field("l1d_bytes", static_cast<int64_t>(sysconf(_SC_LEVEL1_DCACHE_SIZE)));
  json.Field("l2_bytes", static_cast<int64_t>(sysconf(_SC_LEVEL2_CACHE_SIZE)));
  json.Field("l3_bytes", static_cast<int64_t>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  json.Field("build_type", PERFBENCH_BUILD_TYPE);
  json.Field("participants", static_cast<int64_t>(participants));
  json.EndObject();
}

// ---- Process counters --------------------------------------------------------

int64_t CounterValue(const char* name) {
  return metrics::MetricsRegistry::Get().GetCounter(name)->value();
}

// Monotone process-wide counters the per-layer metrics are built from; a
// window's value is the difference of two snapshots.
struct Counters {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t alloc_requests = 0;
  int64_t fresh_mallocs = 0;
  int64_t pool_hits = 0;
  int64_t plan_misses = 0;
  int64_t simt_launches = 0;
  int64_t simt_dispatches = 0;
  int64_t tiled_units = 0;
  int64_t tile_passes = 0;

  static Counters Now() {
    static const Clock::time_point origin = Clock::now();
    TensorAllocator& allocator = TensorAllocator::Get();
    Counters c;
    c.wall_s = MillisSince(origin) / 1e3;
    c.cpu_s = CpuSeconds();
    c.alloc_requests = static_cast<int64_t>(allocator.total_allocations());
    c.fresh_mallocs = static_cast<int64_t>(allocator.fresh_mallocs());
    c.pool_hits = static_cast<int64_t>(allocator.pool_hits());
    c.plan_misses = static_cast<int64_t>(PlanCache::Get().misses());
    // The simt counters exist once per block schedule.
    for (BlockSchedule schedule : {BlockSchedule::kStatic, BlockSchedule::kAtomicPerBlock,
                                   BlockSchedule::kChunkedDynamic}) {
      const std::string label = std::string("{schedule=\"") + BlockScheduleName(schedule) + "\"}";
      metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Get();
      c.simt_launches += registry.GetCounter("seastar_simt_launches_total" + label)->value();
      c.simt_dispatches += registry.GetCounter("seastar_simt_dispatches_total" + label)->value();
    }
    c.tiled_units = CounterValue("seastar_tiling_units_tiled_total");
    c.tile_passes = CounterValue("seastar_tiling_tile_passes_total");
    return c;
  }

  Counters Minus(const Counters& before) const {
    Counters d;
    d.wall_s = wall_s - before.wall_s;
    d.cpu_s = cpu_s - before.cpu_s;
    d.alloc_requests = alloc_requests - before.alloc_requests;
    d.fresh_mallocs = fresh_mallocs - before.fresh_mallocs;
    d.pool_hits = pool_hits - before.pool_hits;
    d.plan_misses = plan_misses - before.plan_misses;
    d.simt_launches = simt_launches - before.simt_launches;
    d.simt_dispatches = simt_dispatches - before.simt_dispatches;
    d.tiled_units = tiled_units - before.tiled_units;
    d.tile_passes = tile_passes - before.tile_passes;
    return d;
  }

  void Write(JsonWriter& json, std::string_view key) const {
    json.Key(key);
    json.BeginObject();
    json.FieldDouble("wall_s", wall_s);
    json.FieldDouble("cpu_s", cpu_s);
    json.Field("alloc_requests", alloc_requests);
    json.Field("fresh_mallocs", fresh_mallocs);
    json.Field("pool_hits", pool_hits);
    json.Field("plan_misses", plan_misses);
    json.Field("simt_launches", simt_launches);
    json.Field("simt_dispatches", simt_dispatches);
    json.Field("tiled_units", tiled_units);
    json.Field("tile_passes", tile_passes);
    json.EndObject();
  }
};

// Setup phases, in milliseconds, plus the whole set-up in seconds.
struct Setup {
  Clock::time_point start = Clock::now();
  double graph_build_ms = 0.0;
  double compile_ms = 0.0;  // Model construction: GIR tracing, autodiff, passes.
  double first_op_ms = 0.0;
  double setup_s = 0.0;

  void Write(JsonWriter& json) const {
    json.Key("setup");
    json.BeginObject();
    json.FieldDouble("setup_s", setup_s);
    json.FieldDouble("graph_build_ms", graph_build_ms);
    json.FieldDouble("compile_ms", compile_ms);
    json.FieldDouble("first_op_ms", first_op_ms);
    json.EndObject();
  }
};

// Opens a {"kind":"result"} object with the fields every workload reports.
void BeginResult(JsonWriter& json, int participants, double probe_before_ms,
                 double probe_after_ms, int64_t num_vertices, int64_t num_edges) {
  json.BeginObject();
  json.Field("kind", "result");
  WriteHost(json, participants);
  json.FieldDouble("probe_before_ms", probe_before_ms);
  json.FieldDouble("probe_after_ms", probe_after_ms);
  json.FieldDouble("peak_mem_mb",
                   static_cast<double>(TensorAllocator::Get().peak_bytes()) / (1 << 20));
  json.Field("num_vertices", num_vertices);
  json.Field("num_edges", num_edges);
}

void EmitSetup(const Setup& setup, int participants) {
  JsonWriter json;
  json.BeginObject();
  json.Field("kind", "setup");
  WriteHost(json, participants);
  setup.Write(json);
  json.EndObject();
  EmitLine(json);
}

// ---- Training workloads ------------------------------------------------------

// Epochs whose loss is compared against the reference executor.
constexpr int kCheckedEpochs = 3;

Dataset MakeWorkloadDataset(const char* name, const Args& args) {
  DatasetOptions options;
  options.scale = args.scale;
  options.max_feature_dim = 128;
  options.seed = args.seed;
  options.add_self_loops = true;
  return MakeDataset(*FindDataset(name), options);
}

std::unique_ptr<GnnModel> MakeModel(bool gat, const Dataset& data, const std::string& executor) {
  StatusOr<std::unique_ptr<Executor>> made = ExecutorFactory::Create(executor);
  if (!made.has_value()) {
    std::fprintf(stderr, "cannot create executor %s\n", executor.c_str());
    std::exit(2);
  }
  if (gat) {
    return std::make_unique<Gat>(data, GatConfig{}, std::move(*made));
  }
  GcnConfig gcn;
  gcn.hidden_dim = 16;
  return std::make_unique<Gcn>(data, gcn, std::move(*made));
}

struct EpochTimes {
  double op_ms = 0.0;
  double cpu_ms = 0.0;  // Process CPU time over the step, all threads.
  double forward_ms = 0.0;
  double loss_ms = 0.0;
  double backward_ms = 0.0;
  double optimizer_ms = 0.0;
  float loss = 0.0f;
};

// One training step, timed phase by phase from outside each layer. The
// autograd tape is released inside the step, so its teardown is part of the
// operation (and of the unattributed remainder).
EpochTimes TrainEpoch(GnnModel& model, const Dataset& data, Adam& adam) {
  EpochTimes t;
  const double cpu_start = CpuSeconds();
  const Clock::time_point start = Clock::now();
  {
    Var logits = model.Forward(/*training=*/true);
    const Clock::time_point forward_done = Clock::now();
    Var loss = ag::NllLoss(ag::LogSoftmax(logits), data.labels, data.train_mask);
    const Clock::time_point loss_done = Clock::now();
    Backward(loss, Tensor::Ones({1}));
    const Clock::time_point backward_done = Clock::now();
    adam.Step();
    adam.ZeroGrad();
    const Clock::time_point step_done = Clock::now();
    t.forward_ms = MillisSince(start, forward_done);
    t.loss_ms = MillisSince(forward_done, loss_done);
    t.backward_ms = MillisSince(loss_done, backward_done);
    t.optimizer_ms = MillisSince(backward_done, step_done);
    t.loss = loss.value().at(0);
  }
  t.op_ms = MillisSince(start);
  t.cpu_ms = (CpuSeconds() - cpu_start) * 1e3;
  return t;
}

// Losses of the first kCheckedEpochs epochs on `executor`, same seeds.
std::vector<float> ReferenceLosses(bool gat, const Dataset& data, const std::string& executor) {
  std::unique_ptr<GnnModel> model = MakeModel(gat, data, executor);
  Adam adam(model->Parameters(), /*lr=*/0.01f);
  std::vector<float> losses;
  for (int epoch = 0; epoch < kCheckedEpochs; ++epoch) {
    losses.push_back(TrainEpoch(*model, data, adam).loss);
  }
  return losses;
}

int RunTrain(const Args& args, int participants) {
  const bool gat = args.workload == "train_gat_cora";
  const char* dataset_name = gat ? "cora" : "amz_comp";

  Setup setup;
  Clock::time_point phase = Clock::now();
  Dataset data = MakeWorkloadDataset(dataset_name, args);
  setup.graph_build_ms = MillisSince(phase);
  phase = Clock::now();
  std::unique_ptr<GnnModel> model = MakeModel(gat, data, "seastar");
  Adam adam(model->Parameters(), /*lr=*/0.01f);
  setup.compile_ms = MillisSince(phase);
  std::vector<float> losses;
  phase = Clock::now();
  losses.push_back(TrainEpoch(*model, data, adam).loss);
  setup.first_op_ms = MillisSince(phase);
  setup.setup_s = MillisSince(setup.start) / 1e3;
  EmitSetup(setup, participants);
  if (args.setup_only) {
    return 0;
  }

  // One more unmeasured epoch: the backward graph's first full reuse.
  losses.push_back(TrainEpoch(*model, data, adam).loss);

  // The traced run alternates blocks of untraced and traced epochs so both
  // arms sample the same host phases; their difference is the tracing
  // overhead. The untraced run never installs a profiler.
  constexpr int kBlock = 4;
  Profiler profiler;
  std::vector<double> op_ms, cpu_ms, forward_ms, loss_ms, backward_ms, optimizer_ms, traced;
  std::vector<double> unit_ms, unit_edges, units;
  int64_t nonfinite_losses = 0;
  const double probe_before_ms = MemoryProbeMillis();
  const Counters before = Counters::Now();
  const Clock::time_point window = Clock::now();
  for (int64_t epoch = 0; MillisSince(window) < args.seconds * 1e3 || epoch < 4; ++epoch) {
    const bool trace_this = args.trace && (epoch / kBlock) % 2 == 1;
    model->SetProfiler(trace_this ? &profiler : nullptr);
    const EpochTimes t = TrainEpoch(*model, data, adam);
    if (losses.size() < kCheckedEpochs) {
      losses.push_back(t.loss);
    }
    op_ms.push_back(t.op_ms);
    cpu_ms.push_back(t.cpu_ms);
    forward_ms.push_back(t.forward_ms);
    loss_ms.push_back(t.loss_ms);
    backward_ms.push_back(t.backward_ms);
    optimizer_ms.push_back(t.optimizer_ms);
    traced.push_back(trace_this ? 1.0 : 0.0);
    double span_ms = 0.0;
    double edges = 0.0;
    double count = 0.0;
    for (const ProfileEvent& event : profiler.events()) {
      if (event.category == "unit" && event.dur_us >= 0.0) {
        span_ms += event.dur_us / 1e3;
        edges += static_cast<double>(event.edges);
        count += 1.0;
      }
    }
    profiler.Clear();
    unit_ms.push_back(span_ms);
    unit_edges.push_back(edges);
    units.push_back(count);
    nonfinite_losses += std::isfinite(t.loss) ? 0 : 1;
  }
  model->SetProfiler(nullptr);
  const Counters window_counters = Counters::Now().Minus(before);
  const double probe_after_ms = MemoryProbeMillis();
  JsonWriter json;
  // Written before the reference run so its allocations stay out of the peak.
  BeginResult(json, participants, probe_before_ms, probe_after_ms, data.spec.num_vertices,
              data.spec.num_edges);

  // Correctness: the same training from the same seeds on the independent
  // whole-graph "pyg" executor must land the same losses.
  const std::vector<float> reference = ReferenceLosses(gat, data, "pyg");

  window_counters.Write(json, "window");
  json.Key("ops");
  json.BeginObject();
  DoubleArray(json, "op_ms", op_ms);
  DoubleArray(json, "cpu_ms", cpu_ms);
  DoubleArray(json, "forward_ms", forward_ms);
  DoubleArray(json, "loss_ms", loss_ms);
  DoubleArray(json, "backward_ms", backward_ms);
  DoubleArray(json, "optimizer_ms", optimizer_ms);
  DoubleArray(json, "traced", traced);
  DoubleArray(json, "unit_ms", unit_ms);
  DoubleArray(json, "unit_edges", unit_edges);
  DoubleArray(json, "units", units);
  json.EndObject();
  json.Key("check");
  json.BeginObject();
  DoubleArray(json, "losses", std::vector<double>(losses.begin(), losses.end()));
  DoubleArray(json, "reference_losses", std::vector<double>(reference.begin(), reference.end()));
  json.Field("reference_executor", "pyg");
  json.Field("nonfinite_losses", nonfinite_losses);
  json.EndObject();
  json.EndObject();
  EmitLine(json);
  return 0;
}

// ---- Serving -----------------------------------------------------------------

// One paced request awaiting its answer.
struct Pending {
  Clock::time_point scheduled;
  int32_t vertex = 0;
  std::future<StatusOr<serve::InferenceResponse>> future;
};

// Outcome tallies and client-side samples of one rung.
struct RungResult {
  std::vector<double> latency_ms;  // Scheduled send -> answer, answered requests.
  std::vector<double> lag_ms;      // Scheduled send -> Submit, every request.
  std::vector<double> queue_ms;    // Server-reported, answered requests.
  std::vector<double> exec_ms;
  std::vector<double> batch_size;
  int64_t sent = 0;
  int64_t shed = 0;
  int64_t expired = 0;
  int64_t failed = 0;
  int64_t degraded = 0;
  int64_t mismatched = 0;
};

void Record(Pending& pending, Clock::time_point answered, const Tensor& reference,
            RungResult& result) {
  StatusOr<serve::InferenceResponse> response = pending.future.get();
  if (!response.has_value()) {
    switch (response.status().code()) {
      case StatusCode::kResourceExhausted:
        ++result.shed;
        break;
      case StatusCode::kDeadlineExceeded:
        ++result.expired;
        break;
      default:
        ++result.failed;
        break;
    }
    return;
  }
  if (response->degraded) {
    ++result.degraded;
    return;
  }
  // The answer must equal the reference executor's full-graph row.
  const Tensor& logits = response->logits;
  const int64_t classes = reference.dim(1);
  bool match = logits.numel() == classes;
  for (int64_t c = 0; match && c < classes; ++c) {
    const float want = reference.at(pending.vertex, c);
    match = std::fabs(logits.data()[c] - want) <= 1e-4f * std::max(1.0f, std::fabs(want));
  }
  if (!match) {
    ++result.mismatched;
    return;
  }
  result.latency_ms.push_back(MillisSince(pending.scheduled, answered));
  result.queue_ms.push_back(response->queue_ms);
  result.exec_ms.push_back(response->exec_ms);
  result.batch_size.push_back(static_cast<double>(response->batch_size));
}

// Open loop: request i is due at start + i / qps whatever the server does,
// and its latency is timed from that due time to the moment the client sees
// the answer. One client thread sends and collects. It never sleeps: it
// spins until the next request is due and meanwhile polls the oldest
// outstanding answer (one tenant and one batch key make answers arrive in
// submission order), so each answer is stamped within one poll of its
// arrival and no timer or idle-CPU wake-up delay lands in the sample.
//
// `hold` leaves every answer uncollected until the last request is sent:
// warm-up uses it to size the allocator pool for the deepest backlog of
// finished answers a later rung could leave waiting.
RungResult RunRung(serve::Server& server, const Dataset& data, const Tensor& reference,
                   double qps, double seconds, bool hold, Rng& rng) {
  RungResult result;
  const int64_t count = std::max<int64_t>(1, std::llround(qps * seconds));
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / qps));
  const uint64_t num_vertices = static_cast<uint64_t>(data.graph.num_vertices());
  result.lag_ms.reserve(static_cast<size_t>(count));
  std::deque<Pending> outstanding;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  int64_t next = 0;
  while (next < count || !outstanding.empty()) {
    const Clock::time_point now = Clock::now();
    if (next < count && now >= start + next * interval) {
      Pending pending;
      pending.scheduled = start + next * interval;
      pending.vertex = static_cast<int32_t>(rng.NextBounded(num_vertices));
      serve::InferenceRequest request;
      request.vertices.push_back(pending.vertex);
      result.lag_ms.push_back(MillisSince(pending.scheduled));
      pending.future = server.Submit(std::move(request));
      outstanding.push_back(std::move(pending));
      ++next;
      continue;
    }
    if ((!hold || next == count) && !outstanding.empty() &&
        outstanding.front().future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
      Record(outstanding.front(), Clock::now(), reference, result);
      outstanding.pop_front();
    }
  }
  result.sent = count;
  return result;
}

std::unique_ptr<serve::Server> MakeServer(GnnModel& model, const Dataset& data,
                                          Profiler* profiler, bool traced, uint64_t seed) {
  serve::ServeConfig config;
  // Generous admission and deadline: a ladder rung above capacity (at most
  // 1.5x for 1.5 s) shows up as client-timed latency, not as shed or
  // expired requests (which would also fail the run's correctness checks).
  config.queue_capacity = 1 << 16;
  config.default_deadline_ms = 5000.0;
  config.profiler = profiler;
  config.tracing.enabled = traced;
  config.tracing.head_sample_rate = 1.0;
  config.tracing.seed = seed;
  auto server = std::make_unique<serve::Server>(model, data, config);
  const Status started = server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", started.ToString().c_str());
    std::exit(2);
  }
  return server;
}

void WriteStats(JsonWriter& json, std::string_view key, const serve::ServerStats& s) {
  json.Key(key);
  json.BeginObject();
  json.Field("submitted", s.submitted);
  json.Field("rejected", s.rejected);
  json.Field("shed", s.shed);
  json.Field("served", s.served);
  json.Field("degraded", s.degraded);
  json.Field("expired", s.expired);
  json.Field("failed", s.failed);
  json.Field("retries", s.retries);
  json.Field("batches", s.batches);
  json.EndObject();
}

int RunServe(const Args& args, int participants) {
  Setup setup;
  Clock::time_point phase = Clock::now();
  Dataset data = MakeWorkloadDataset("cora", args);
  setup.graph_build_ms = MillisSince(phase);
  phase = Clock::now();
  std::unique_ptr<GnnModel> plain_model = MakeModel(/*gat=*/false, data, "seastar");
  setup.compile_ms = MillisSince(phase);
  // Server start runs the warmup forward: the first operation.
  phase = Clock::now();
  std::unique_ptr<serve::Server> plain =
      MakeServer(*plain_model, data, nullptr, /*traced=*/false, args.seed);
  setup.first_op_ms = MillisSince(phase);
  setup.setup_s = MillisSince(setup.start) / 1e3;
  EmitSetup(setup, participants);
  if (args.setup_only) {
    plain->Shutdown();
    return 0;
  }

  // Reference logits: the same weights (same model seed) on the "pyg"
  // executor, full graph, inference mode.
  const Tensor reference =
      MakeModel(/*gat=*/false, data, "pyg")->Forward(/*training=*/false).value();
  TensorAllocator::Get().ResetPeak();  // Keep the reference out of the peak.

  // The traced arm: its own model instance (same seed, same weights) so the
  // profiler is only ever driven by this server's serving thread.
  Profiler profiler;
  std::unique_ptr<GnnModel> traced_model;
  std::unique_ptr<serve::Server> traced;
  if (args.trace) {
    traced_model = MakeModel(/*gat=*/false, data, "seastar");
    traced_model->SetProfiler(&profiler);
    traced = MakeServer(*traced_model, data, &profiler, /*traced=*/true, args.seed);
  }

  const double probe_before_ms = MemoryProbeMillis();
  std::string line;
  int64_t rung_index = 0;
  while (std::getline(std::cin, line)) {
    const std::vector<std::string> words = Split(line, ' ');
    if (words.empty() || words[0] == "end") {
      break;
    }
    if (words.size() != 5 || words[0] != "rung") {
      std::fprintf(stderr, "bad command: %s\n", line.c_str());
      return 2;
    }
    const double qps = std::atof(words[1].c_str());
    const double seconds = std::atof(words[2].c_str());
    const bool use_traced = words[3] == "traced";
    const bool hold = words[4] == "warm";
    if (!(qps > 0.0) || !(seconds > 0.0) || (use_traced && traced == nullptr) ||
        (words[3] != "plain" && !use_traced) || (words[4] != "measure" && !hold)) {
      std::fprintf(stderr, "bad rung: %s\n", line.c_str());
      return 2;
    }
    Rng rng(args.seed * 1000003u + static_cast<uint64_t>(rung_index++));
    const Counters before = Counters::Now();
    const RungResult r =
        RunRung(use_traced ? *traced : *plain, data, reference, qps, seconds, hold, rng);
    const Counters delta = Counters::Now().Minus(before);

    JsonWriter json;
    json.BeginObject();
    json.Field("kind", "rung");
    json.Field("server", words[3]);
    json.FieldDouble("qps", qps);
    json.FieldDouble("seconds", seconds);
    json.Field("sent", r.sent);
    json.Field("shed", r.shed);
    json.Field("expired", r.expired);
    json.Field("failed", r.failed);
    json.Field("degraded", r.degraded);
    json.Field("mismatched", r.mismatched);
    delta.Write(json, "window");
    DoubleArray(json, "latency_ms", r.latency_ms);
    DoubleArray(json, "lag_ms", r.lag_ms);
    DoubleArray(json, "queue_ms", r.queue_ms);
    DoubleArray(json, "exec_ms", r.exec_ms);
    DoubleArray(json, "batch_size", r.batch_size);
    json.EndObject();
    EmitLine(json);
  }
  const double probe_after_ms = MemoryProbeMillis();

  plain->Shutdown();
  if (traced != nullptr) {
    traced->Shutdown();
  }
  JsonWriter json;
  BeginResult(json, participants, probe_before_ms, probe_after_ms, data.spec.num_vertices,
              data.spec.num_edges);
  WriteStats(json, "plain_stats", plain->stats());
  if (traced != nullptr) {
    WriteStats(json, "traced_stats", traced->stats());
    json.Field("profile_spans", static_cast<int64_t>(profiler.events().size()));
  }
  json.EndObject();
  EmitLine(json);
  return 0;
}

// ---- Entry -------------------------------------------------------------------

int Main(int argc, char** argv) {
  Args args;
  args.workload = FlagValue(argc, argv, "workload", "");
  args.seed = static_cast<uint64_t>(FlagInt(argc, argv, "seed", 1));
  args.seconds = FlagDouble(argc, argv, "seconds", 10.0);
  args.trace = FlagInt(argc, argv, "trace", 0) != 0;
  args.scale = FlagDouble(argc, argv, "scale", 1.0);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--setup-only") {
      args.setup_only = true;
    }
  }
  if (!KnownWorkload(args.workload) || !(args.seconds > 0.0) || !(args.scale > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench_engine --workload=train_gat_cora|train_gcn_amz|"
                 "serve_gcn_cora --seed=N [--seconds=S] [--trace=0|1] "
                 "[--setup-only] [--scale=F]\n");
    return 2;
  }

  // Pin the pool before anything touches it, then verify the pin took.
  const int participants = kParticipants;
  setenv("SEASTAR_NUM_THREADS", std::to_string(participants).c_str(), /*overwrite=*/1);
  if (ThreadPool::Get().num_threads() + 1 != participants) {
    std::fprintf(stderr, "thread pool has %d participants, wanted %d\n",
                 ThreadPool::Get().num_threads() + 1, participants);
    return 2;
  }

  if (args.workload == "serve_gcn_cora") {
    return RunServe(args, participants);
  }
  return RunTrain(args, participants);
}

}  // namespace
}  // namespace perfbench
}  // namespace seastar

int main(int argc, char** argv) { return seastar::perfbench::Main(argc, argv); }
