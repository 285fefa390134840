// Closed-loop serving driver: boots a Server from a trained checkpoint and
// drives it with a paced request stream, optionally under injected faults,
// printing the survival story (served / degraded / shed / expired / failed,
// retry and breaker activity, latency percentiles) at the end.
//
//   ./seastar_serve --qps=2000 --deadline-ms=50 --requests=10000
//   ./seastar_serve --checkpoint=/tmp/gcn.ckpt --train-epochs=3
//   ./seastar_serve --checkpoint=/tmp/gcn.ckpt --train-epochs=2
//       --faults="ckpt_read:after=0:count=2;simt_worker:p=0.05"
//   ./seastar_serve --outage-at=2000 --outage-requests=500   # breaker drill
//
// Flags:
//   --model=gcn|gat|appnp|sgc   --dataset=<name>  --scale  --max-feat  --hidden
//   --requests=<n>       total requests to submit (default 10000)
//   --qps=<n>            submission rate (default 2000)
//   --deadline-ms=<ms>   per-request deadline (0 = server default, -1 = none)
//   --shed-at=<n>        admission queue capacity (default 64)
//   --max-batch / --batch-delay-ms    micro-batcher knobs
//   --max-retries / --backoff-ms      transient-fault retry policy
//   --trip-after / --probe-ms         circuit breaker knobs
//   --checkpoint=<path>  boot from this snapshot (with .prev fallback)
//   --train-epochs=<n>   train+save the snapshot first (default 2 when
//                        --checkpoint is set and the file doesn't exist)
//   --faults=<spec>      fault injector spec, armed *after* training so the
//                        faults hit serving, e.g. "alloc:p=0.02:seed=7"
//   --outage-at=<i>      arm a hard allocation outage when request i is
//   --outage-requests=<n>   submitted, lasting n requests: a guaranteed
//                        breaker trip + degraded window + probe recovery
//   --profile=<path>     Chrome-trace of the serving thread
//   --seed=<n>           request-stream RNG seed
//   --metrics-out=<p>    write the metrics-registry JSON snapshot on exit
//   --metrics-text=<p>   same data, Prometheus text exposition
//   --events-out=<p>     write the flight-recorder event dump on exit
//   --trace-out=<p>      write retained request traces (Chrome-trace JSON:
//                        one pid per tenant, one tid per request) on exit
//   --trace-sample=<r>   head sampling rate for clean requests (default
//                        0.01; anomalous and slowest requests are retained
//                        regardless, even at 0)
//
// Multi-tenant drill (--tenants > 1 activates it):
//   --tenants=<n>        serve n tenants ("tenant-0".."tenant-n-1"); tenants
//                        share model id "m0" except the rogue, which gets its
//                        own "m1" generation of the same architecture
//   --rogue=<i>          index of the misbehaving tenant (-1 = none;
//                        default 1 when --tenants >= 2)
//   --rogue-quota=<n>    the rogue's admission quota (max queued; default 8)
//   --rogue-mult=<x>     rogue submits x requests per scheduled slot (burst)
//   --rogue-faults=<s>   fault spec armed around the rogue's forwards only
//                        (default "alloc:p=0.5:seed=13")
//   --swap-at=<i>        hot-swap model m0 to a new weights version when
//                        request i is submitted (zero-downtime drill)
//   --assert-victim-p99-ms=<ms>  exit 4 if any non-rogue tenant's p99
//                        exceeds this bound (0 = off)
//
// Exit codes: 0 ok, 1 usage, 2 boot failure, 3 accounting-identity mismatch
// (global or any tenant), 4 victim p99 bound exceeded, 5 hot-swap violation
// (swap failed, or the post-flip steady state compiled plans / touched fresh
// memory).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/fault.h"
#include "src/common/flight_recorder.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/profiler.h"
#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/common/tracing.h"
#include "src/core/checkpoint.h"
#include "src/core/executor_factory.h"
#include "src/core/models/appnp.h"
#include "src/core/models/gat.h"
#include "src/core/models/gcn.h"
#include "src/core/models/sgc.h"
#include "src/core/train.h"
#include "src/exec/plan_cache.h"
#include "src/serve/model_registry.h"
#include "src/serve/server.h"
#include "src/tensor/allocator.h"

namespace seastar {
namespace {

std::unique_ptr<GnnModel> MakeModel(const std::string& name, const Dataset& data, int64_t hidden,
                                    std::shared_ptr<const Executor> executor) {
  if (name == "gcn") {
    GcnConfig config;
    if (hidden > 0) config.hidden_dim = hidden;
    return std::make_unique<Gcn>(data, config, std::move(executor));
  }
  if (name == "gat") {
    GatConfig config;
    if (hidden > 0) config.hidden_dim = hidden;
    return std::make_unique<Gat>(data, config, std::move(executor));
  }
  if (name == "appnp") {
    AppnpConfig config;
    if (hidden > 0) config.hidden_dim = hidden;
    return std::make_unique<Appnp>(data, config, std::move(executor));
  }
  if (name == "sgc") {
    return std::make_unique<Sgc>(data, SgcConfig{}, std::move(executor));
  }
  return nullptr;
}

int Run(int argc, char** argv) {
  const std::string model_name = FlagValue(argc, argv, "model", "gcn");
  const std::string dataset_name = FlagValue(argc, argv, "dataset", "cora");
  const double scale = FlagDouble(argc, argv, "scale", 0.25);
  const int64_t max_feat = FlagInt(argc, argv, "max-feat", 64);
  const int64_t hidden = FlagInt(argc, argv, "hidden", 0);
  const int64_t requests = FlagInt(argc, argv, "requests", 10000);
  const double qps = FlagDouble(argc, argv, "qps", 2000.0);
  const double deadline_ms = FlagDouble(argc, argv, "deadline-ms", 50.0);
  const int64_t shed_at = FlagInt(argc, argv, "shed-at", 64);
  const int64_t max_batch = FlagInt(argc, argv, "max-batch", 8);
  const double batch_delay_ms = FlagDouble(argc, argv, "batch-delay-ms", 1.0);
  const int64_t max_retries = FlagInt(argc, argv, "max-retries", 2);
  const double backoff_ms = FlagDouble(argc, argv, "backoff-ms", 0.5);
  const int64_t trip_after = FlagInt(argc, argv, "trip-after", 3);
  const double probe_ms = FlagDouble(argc, argv, "probe-ms", 25.0);
  const std::string checkpoint_path = FlagValue(argc, argv, "checkpoint", "");
  int64_t train_epochs = FlagInt(argc, argv, "train-epochs", -1);
  const std::string fault_spec = FlagValue(argc, argv, "faults", "");
  const int64_t outage_at = FlagInt(argc, argv, "outage-at", 0);
  const int64_t outage_requests = FlagInt(argc, argv, "outage-requests", 500);
  const std::string profile_path = FlagValue(argc, argv, "profile", "");
  const uint64_t seed = static_cast<uint64_t>(FlagInt(argc, argv, "seed", 17));
  const std::string metrics_out = FlagValue(argc, argv, "metrics-out", "");
  const std::string metrics_text = FlagValue(argc, argv, "metrics-text", "");
  const std::string events_out = FlagValue(argc, argv, "events-out", "");
  const std::string trace_out = FlagValue(argc, argv, "trace-out", "");
  const double trace_sample = FlagDouble(argc, argv, "trace-sample", 0.01);
  const int64_t num_tenants = FlagInt(argc, argv, "tenants", 1);
  const int64_t rogue_index = FlagInt(argc, argv, "rogue", num_tenants >= 2 ? 1 : -1);
  const int64_t rogue_quota = FlagInt(argc, argv, "rogue-quota", 8);
  const double rogue_mult = FlagDouble(argc, argv, "rogue-mult", 4.0);
  const std::string rogue_faults =
      FlagValue(argc, argv, "rogue-faults", "alloc:p=0.5:seed=13");
  const int64_t swap_at = FlagInt(argc, argv, "swap-at", 0);
  const double assert_victim_p99_ms = FlagDouble(argc, argv, "assert-victim-p99-ms", 0.0);
  const bool multi_tenant = num_tenants > 1;

  // A CHECK failure anywhere below dumps the flight-recorder ring and a
  // metrics snapshot to stderr before aborting.
  FlightRecorder::InstallCrashDump();

  if (requests <= 0 || qps <= 0.0) {
    std::fprintf(stderr, "--requests and --qps must be positive\n");
    return 1;
  }

  DatasetOptions options;
  options.scale = scale;
  options.max_feature_dim = max_feat;
  StatusOr<Dataset> made = TryMakeDatasetByName(dataset_name, options);
  if (!made.has_value()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 1;
  }
  Dataset data = *std::move(made);

  std::unique_ptr<GnnModel> model =
      MakeModel(model_name, data, hidden, std::move(*ExecutorFactory::Create("seastar")));
  if (model == nullptr) {
    std::fprintf(stderr, "unknown --model '%s' (gcn|gat|appnp|sgc)\n", model_name.c_str());
    return 1;
  }

  // Produce the snapshot the server boots from, *before* arming any faults:
  // the drill is about serving surviving faults, not training.
  if (!checkpoint_path.empty()) {
    if (train_epochs < 0) {
      std::FILE* existing = std::fopen(checkpoint_path.c_str(), "rb");
      if (existing != nullptr) {
        std::fclose(existing);
        train_epochs = 0;  // Reuse what's there.
      } else {
        train_epochs = 2;
      }
    }
    if (train_epochs > 0) {
      TrainConfig train;
      train.epochs = static_cast<int>(train_epochs);
      train.warmup_epochs = 0;
      train.verbose = false;
      train.checkpoint_path = checkpoint_path;
      train.checkpoint_every = 1;
      TrainResult trained = TrainNodeClassification(*model, data, train);
      if (trained.failed) {
        std::fprintf(stderr, "snapshot training failed: %s\n", trained.error.c_str());
        return 1;
      }
      std::printf("trained snapshot: %d epochs, loss %.4f -> %s\n", trained.epochs_run,
                  trained.final_loss, checkpoint_path.c_str());
    }
  }

  if (!fault_spec.empty()) {
    std::string fault_error;
    if (!FaultInjector::Get().ConfigureFromSpec(fault_spec, &fault_error)) {
      std::fprintf(stderr, "bad --faults spec: %s\n", fault_error.c_str());
      return 1;
    }
  }

  Profiler profiler(!profile_path.empty());
  serve::ServeConfig config;
  config.queue_capacity = static_cast<int>(shed_at);
  config.default_deadline_ms = deadline_ms > 0.0 ? deadline_ms : 100.0;
  config.max_batch = static_cast<int>(max_batch);
  config.max_batch_delay_ms = batch_delay_ms;
  config.max_retries = static_cast<int>(max_retries);
  config.retry_base_backoff_ms = backoff_ms;
  config.breaker_trip_after = static_cast<int>(trip_after);
  config.breaker_probe_interval_ms = probe_ms;
  config.checkpoint_path = checkpoint_path;
  config.profiler = profile_path.empty() ? nullptr : &profiler;
  config.tracing.head_sample_rate = trace_sample;
  config.tracing.seed = seed;
  // The drill's verdicts quote "every anomalous request is in the export":
  // size the anomaly ring to the worst case (every submission anomalous,
  // including the rogue's burst copies) so nothing is ring-evicted.
  const int64_t max_submissions =
      requests * std::max<int64_t>(1, static_cast<int64_t>(rogue_mult) + 1);
  config.tracing.anomaly_keep =
      static_cast<int>(std::max<int64_t>(config.tracing.anomaly_keep, max_submissions));

  // Multi-tenant drill topology: every tenant is served by model id "m0"
  // except the rogue, which runs its own "m1" generation of the same
  // architecture — its breaker and degraded path are cleanly its own.
  std::vector<std::string> tenant_names;
  std::string rogue_name;
  auto registry = std::make_shared<serve::ModelRegistry>();
  if (multi_tenant) {
    const auto factory = [&]() -> std::unique_ptr<GnnModel> {
      return MakeModel(model_name, data, hidden, std::move(*ExecutorFactory::Create("seastar")));
    };
    if (!registry->Register("m0", data, factory).has_value()) {
      std::fprintf(stderr, "failed to register m0\n");
      return 2;
    }
    if (rogue_index >= 0 && rogue_index < num_tenants &&
        !registry->Register("m1", data, factory).has_value()) {
      std::fprintf(stderr, "failed to register m1\n");
      return 2;
    }
    for (int64_t i = 0; i < num_tenants; ++i) {
      serve::TenantConfig tenant;
      tenant.name = "tenant-" + std::to_string(i);
      tenant_names.push_back(tenant.name);
      if (i == rogue_index) {
        rogue_name = tenant.name;
        tenant.model_id = "m1";
        tenant.max_queued = static_cast<int>(rogue_quota);
        tenant.fault_spec = rogue_faults;
      } else {
        tenant.model_id = "m0";
      }
      config.tenants.push_back(std::move(tenant));
    }
  }

  std::unique_ptr<serve::Server> server_owner;
  if (multi_tenant) {
    server_owner = std::make_unique<serve::Server>(registry, config);
  } else {
    server_owner = std::make_unique<serve::Server>(*model, data, config);
  }
  serve::Server& server = *server_owner;
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server failed to start: %s\n", started.ToString().c_str());
    return 2;
  }
  std::printf("serving %s on %s (N=%lld): %lld requests at %.0f qps, deadline %.1f ms, queue %lld\n",
              model->name(), data.spec.name.c_str(),
              static_cast<long long>(data.graph.num_vertices()),
              static_cast<long long>(requests), qps, deadline_ms,
              static_cast<long long>(shed_at));
  if (multi_tenant) {
    std::printf("tenants: %lld (rogue: %s, quota %lld, burst x%.1f, faults \"%s\"; swap m0 at request %lld)\n",
                static_cast<long long>(num_tenants),
                rogue_name.empty() ? "none" : rogue_name.c_str(),
                static_cast<long long>(rogue_quota), rogue_mult, rogue_faults.c_str(),
                static_cast<long long>(swap_at));
  }

  // Stage the hot-swap snapshot up front (v2 = m0's current weights, tagged)
  // so the mid-run swap only loads and flips.
  const std::string swap_ckpt =
      checkpoint_path.empty() ? "/tmp/seastar_serve_swap.ckpt"
                              : CheckpointPathForModel(checkpoint_path, "m0.v2");
  std::future<StatusOr<int64_t>> swap_future;
  if (multi_tenant && swap_at > 0) {
    TrainCheckpoint snapshot;
    snapshot.model_tag = "m0";
    for (const Var& p : registry->Lookup("m0")->model().Parameters()) {
      snapshot.parameters.push_back(p.value().Clone());
    }
    Status staged = SaveCheckpoint(snapshot, swap_ckpt);
    if (!staged.ok()) {
      std::fprintf(stderr, "failed to stage swap checkpoint: %s\n", staged.ToString().c_str());
      return 2;
    }
  }

  // Closed-loop client: submit on a fixed-interval schedule, collect every
  // future afterwards (shed/invalid futures are already fulfilled). In the
  // multi-tenant drill, slots rotate round-robin across tenants and the
  // rogue bursts `rogue_mult` submissions per slot — the pressure its quota
  // must absorb.
  Rng rng(seed);
  const int64_t num_vertices = data.graph.num_vertices();
  std::vector<std::future<StatusOr<serve::InferenceResponse>>> futures;
  std::vector<int> future_tenant;  // Parallel to `futures`; -1 pre-tenancy.
  futures.reserve(static_cast<size_t>(requests));
  const auto interval = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(1.0 / qps));
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < requests; ++i) {
    std::this_thread::sleep_until(t0 + i * interval);
    if (outage_at > 0 && i == outage_at) {
      std::printf("!! outage: hard allocation faults for the next %lld requests\n",
                  static_cast<long long>(outage_requests));
      FaultInjector::Get().Arm(FaultSite::kTensorAlloc, 0, /*count=*/1'000'000'000);
    }
    if (outage_at > 0 && i == outage_at + outage_requests) {
      FaultInjector::Get().Disarm(FaultSite::kTensorAlloc);
      std::printf("!! outage over (breaker now probes its way back)\n");
    }
    if (multi_tenant && swap_at > 0 && i == swap_at) {
      std::printf("!! hot-swap: staging m0 v2 (serving continues)\n");
      swap_future = server.RequestHotSwap("m0", swap_ckpt);
    }
    const int tenant = multi_tenant ? static_cast<int>(i % num_tenants) : -1;
    const int copies =
        (tenant >= 0 && tenant == rogue_index) ? std::max(1, static_cast<int>(rogue_mult)) : 1;
    for (int c = 0; c < copies; ++c) {
      serve::InferenceRequest request;
      const int fan = 1 + static_cast<int>(rng.NextBounded(4));
      for (int v = 0; v < fan; ++v) {
        request.vertices.push_back(
            static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(num_vertices))));
      }
      request.deadline_ms = deadline_ms;
      if (tenant >= 0) {
        request.tenant = tenant_names[static_cast<size_t>(tenant)];
      }
      futures.push_back(server.Submit(std::move(request)));
      future_tenant.push_back(tenant);
    }
  }

  int64_t ok = 0, degraded = 0, shed = 0, expired = 0, unavailable = 0, other = 0;
  int64_t retried_requests = 0;
  double worst_ms = -1.0;  // Slowest answered request, for the trace drill.
  uint64_t worst_trace = 0;
  bool worst_sampled = false;
  for (auto& future : futures) {
    StatusOr<serve::InferenceResponse> result = future.get();
    if (result.has_value()) {
      if (result->degraded) {
        ++degraded;
      } else {
        ++ok;
      }
      if (result->retries > 0) {
        ++retried_requests;
      }
      if (result->total_ms > worst_ms) {
        worst_ms = result->total_ms;
        worst_trace = result->trace_id;
        worst_sampled = result->sampled;
      }
    } else {
      switch (result.status().code()) {
        case StatusCode::kResourceExhausted:
          ++shed;
          break;
        case StatusCode::kDeadlineExceeded:
          ++expired;
          break;
        case StatusCode::kUnavailable:
          ++unavailable;
          break;
        default:
          ++other;
          break;
      }
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  // Hot-swap verification, while the server is still live: the swap future
  // must have resolved to version 2, and the post-flip steady state must
  // reuse every plan and pool block (same architecture -> nothing compiles,
  // nothing fresh-mallocs). A few settle forwards absorb the one-off warmup
  // traffic shapes before the measured window.
  int swap_verdict = 0;  // 0 ok, else exit code 5.
  if (multi_tenant && swap_at > 0) {
    StatusOr<int64_t> swapped = swap_future.get();
    if (!swapped.has_value()) {
      std::fprintf(stderr, "HOT-SWAP FAILED: %s\n", swapped.status().ToString().c_str());
      swap_verdict = 5;
    } else if (*swapped != 2) {
      std::fprintf(stderr, "HOT-SWAP: unexpected version %lld (want 2)\n",
                   static_cast<long long>(*swapped));
      swap_verdict = 5;
    } else {
      auto probe_once = [&]() -> StatusOr<serve::InferenceResponse> {
        serve::InferenceRequest request;
        request.tenant = tenant_names[0];
        request.vertices.push_back(
            static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(num_vertices))));
        request.deadline_ms = -1.0;
        return server.Infer(std::move(request));
      };
      for (int i = 0; i < 3; ++i) (void)probe_once();  // Settle.
      const uint64_t misses_before = PlanCache::Get().misses();
      const uint64_t mallocs_before = TensorAllocator::Get().fresh_mallocs();
      int64_t fresh_answers = 0;
      for (int i = 0; i < 5; ++i) {
        StatusOr<serve::InferenceResponse> answer = probe_once();
        if (answer.has_value() && !answer->degraded && answer->model_version == 2) {
          ++fresh_answers;
        }
      }
      const uint64_t miss_delta = PlanCache::Get().misses() - misses_before;
      const uint64_t malloc_delta = TensorAllocator::Get().fresh_mallocs() - mallocs_before;
      std::printf("hot-swap steady state: %lld/5 fresh v2 answers, plan misses +%llu, fresh mallocs +%llu\n",
                  static_cast<long long>(fresh_answers),
                  static_cast<unsigned long long>(miss_delta),
                  static_cast<unsigned long long>(malloc_delta));
      if (fresh_answers != 5 || miss_delta != 0 || malloc_delta != 0) {
        std::fprintf(stderr, "HOT-SWAP: post-flip steady state not warm\n");
        swap_verdict = 5;
      }
    }
  }

  server.Shutdown();
  FaultInjector::Get().DisarmAll();

  const serve::ServerStats stats = server.stats();
  const serve::LatencySummary latency = server.latency_summary();
  std::printf("\n--- client view (%lld requests in %.2f s, %.0f qps achieved) ---\n",
              static_cast<long long>(requests), wall_s,
              static_cast<double>(requests) / wall_s);
  std::printf("fresh %lld | degraded %lld | shed %lld | expired %lld | unavailable %lld | other %lld\n",
              static_cast<long long>(ok), static_cast<long long>(degraded),
              static_cast<long long>(shed), static_cast<long long>(expired),
              static_cast<long long>(unavailable), static_cast<long long>(other));
  std::printf("requests that paid retries: %lld\n", static_cast<long long>(retried_requests));
  if (worst_trace != 0) {
    // The tail reservoir guarantees this trace is in the export even when
    // the head sampler skipped it: the slowest-N competition is exactly what
    // an unsampled-but-slow request wins.
    std::printf("slowest answered request: %.2f ms, trace %s%s\n", worst_ms,
                trace::TraceIdHex(worst_trace).c_str(),
                worst_sampled ? " (head-sampled)" : " (tail-retained)");
  }
  std::printf("\n--- server view ---\n");
  std::printf("submitted %lld = served %lld + degraded %lld + shed %lld + expired %lld + failed %lld\n",
              static_cast<long long>(stats.submitted), static_cast<long long>(stats.served),
              static_cast<long long>(stats.degraded), static_cast<long long>(stats.shed),
              static_cast<long long>(stats.expired), static_cast<long long>(stats.failed));
  std::printf("forward passes %lld | retries %lld | unit-boundary deadline aborts %lld | boot retries %lld\n",
              static_cast<long long>(stats.batches), static_cast<long long>(stats.retries),
              static_cast<long long>(stats.deadline_unit_aborts),
              static_cast<long long>(stats.boot_retries));
  std::printf("breaker: trips %lld, probes %lld, recoveries %lld (state now: %s)\n",
              static_cast<long long>(stats.breaker_trips),
              static_cast<long long>(stats.breaker_probes),
              static_cast<long long>(stats.breaker_recoveries),
              serve::BreakerStateName(
                  server.tenant_breaker_state(server.tenant_names().front()).value()));
  std::printf("latency over %lld answers: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, max %.2f ms\n",
              static_cast<long long>(latency.count), latency.p50_ms, latency.p95_ms,
              latency.p99_ms, latency.max_ms);
  std::printf("traces: %lld started, %lld head-sampled, %lld anomalous; retained %lld anomaly + "
              "%lld sampled + %lld tail (spans dropped %lld)\n",
              static_cast<long long>(stats.trace.started),
              static_cast<long long>(stats.trace.head_sampled),
              static_cast<long long>(stats.trace.anomalies_observed),
              static_cast<long long>(stats.trace.retained_anomaly),
              static_cast<long long>(stats.trace.retained_sampled),
              static_cast<long long>(stats.trace.retained_tail),
              static_cast<long long>(stats.trace.spans_dropped));
  if (multi_tenant) {
    std::printf("hot-swaps: %lld flipped, %lld failed, %lld old generations retired\n",
                static_cast<long long>(stats.swaps), static_cast<long long>(stats.swap_failures),
                static_cast<long long>(stats.swap_retired));
  }

  // Per-tenant accounting and QoS verdicts. Every tenant must satisfy the
  // identity exactly; non-rogue tenants must additionally stay inside the
  // p99 bound when one was asserted.
  int tenant_identity_verdict = 0;  // 0 ok, else exit code 3.
  int victim_p99_verdict = 0;       // 0 ok, else exit code 4.
  if (multi_tenant) {
    std::printf("\n--- per-tenant view ---\n");
    for (const std::string& name : server.tenant_names()) {
      const serve::TenantStats t = *server.tenant_stats(name);
      const serve::LatencySummary lat = *server.tenant_latency_summary(name);
      const char* breaker = serve::BreakerStateName(*server.tenant_breaker_state(name));
      const bool rogue = (name == rogue_name);
      std::printf(
          "%s%s: submitted %lld = served %lld + degraded %lld + shed %lld (quota %lld) + "
          "expired %lld + failed %lld | retries %lld | breaker %s (trips %lld) | "
          "p50 %.2f ms p99 %.2f ms\n",
          name.c_str(), rogue ? " [rogue]" : "", static_cast<long long>(t.submitted),
          static_cast<long long>(t.served), static_cast<long long>(t.degraded),
          static_cast<long long>(t.shed), static_cast<long long>(t.quota_shed),
          static_cast<long long>(t.expired), static_cast<long long>(t.failed),
          static_cast<long long>(t.retries), breaker, static_cast<long long>(t.breaker_trips),
          lat.p50_ms, lat.p99_ms);
      const int64_t t_accounted = t.served + t.degraded + t.shed + t.expired + t.failed;
      if (t_accounted != t.submitted) {
        std::fprintf(stderr, "TENANT ACCOUNTING MISMATCH (%s): submitted %lld != accounted %lld\n",
                     name.c_str(), static_cast<long long>(t.submitted),
                     static_cast<long long>(t_accounted));
        tenant_identity_verdict = 3;
      }
      if (!rogue && assert_victim_p99_ms > 0.0 && lat.p99_ms > assert_victim_p99_ms) {
        std::fprintf(stderr, "VICTIM P99 EXCEEDED (%s): %.2f ms > %.2f ms\n", name.c_str(),
                     lat.p99_ms, assert_victim_p99_ms);
        victim_p99_verdict = 4;
      }
    }
  }

  if (!profile_path.empty()) {
    if (profiler.WriteChromeTrace(profile_path)) {
      std::printf("profile: %zu spans -> %s\n", profiler.events().size(), profile_path.c_str());
    } else {
      std::fprintf(stderr, "profile: failed to write %s\n", profile_path.c_str());
    }
  }

  metrics::MetricsRegistry& metrics_registry = metrics::MetricsRegistry::Get();
  if (!metrics_out.empty()) {
    if (metrics_registry.WriteJsonFile(metrics_out)) {
      std::printf("metrics: %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "metrics: failed to write %s\n", metrics_out.c_str());
    }
  }
  if (!metrics_text.empty()) {
    if (metrics_registry.WriteTextFile(metrics_text)) {
      std::printf("metrics: %s\n", metrics_text.c_str());
    } else {
      std::fprintf(stderr, "metrics: failed to write %s\n", metrics_text.c_str());
    }
  }
  if (!events_out.empty()) {
    if (FlightRecorder::Get().DumpToFile(events_out)) {
      std::printf("events: %s\n", events_out.c_str());
    } else {
      std::fprintf(stderr, "events: failed to write %s\n", events_out.c_str());
    }
  }
  if (!trace_out.empty()) {
    if (server.DumpTraces(trace_out)) {
      std::printf("traces: %s\n", trace_out.c_str());
    } else {
      std::fprintf(stderr, "traces: failed to write %s\n", trace_out.c_str());
    }
  }

  if (multi_tenant && swap_at > 0 && swap_verdict == 0 &&
      (stats.swaps != 1 || stats.swap_failures != 0)) {
    std::fprintf(stderr, "HOT-SWAP: expected exactly 1 clean swap, saw %lld (failures %lld)\n",
                 static_cast<long long>(stats.swaps),
                 static_cast<long long>(stats.swap_failures));
    swap_verdict = 5;
  }
  if (multi_tenant && swap_at > 0) {
    std::remove(swap_ckpt.c_str());
    std::remove((swap_ckpt + ".prev").c_str());
  }

  const int64_t accounted =
      stats.served + stats.degraded + stats.shed + stats.expired + stats.failed;
  if (accounted != stats.submitted) {
    std::fprintf(stderr, "ACCOUNTING MISMATCH: submitted %lld != accounted %lld\n",
                 static_cast<long long>(stats.submitted), static_cast<long long>(accounted));
    std::fprintf(stderr, "--- flight recorder ---\n%s", FlightRecorder::Get().Dump().c_str());
    return 3;
  }
  if (tenant_identity_verdict != 0) {
    std::fprintf(stderr, "--- flight recorder ---\n%s", FlightRecorder::Get().Dump().c_str());
    return tenant_identity_verdict;
  }
  if (victim_p99_verdict != 0) return victim_p99_verdict;
  if (swap_verdict != 0) return swap_verdict;
  return 0;
}

}  // namespace
}  // namespace seastar

int main(int argc, char** argv) { return seastar::Run(argc, argv); }
