// Hardened multi-tenant inference server over trained GNN models.
//
// The pipeline, per docs/INTERNALS.md §11 and §16:
//
//   Submit -> [per-tenant quota] -> [bounded admission queue] -> [micro-batcher]
//                 |  over cap           |  full: shed            weighted-fair
//                 v                     v                        leader pick
//            kResourceExhausted    kResourceExhausted                |
//                                                                    v
//                                              execute against the entry each
//                                              request *pinned at admission*
//                                              (RCU hot-swap), retry w/ backoff,
//                                              per-tenant circuit breaker ->
//                                              per-tenant degraded LKG cache
//
// One serving thread owns execution: it applies staged weight swaps between
// batches, forms batches, runs the forward under the batch's deadline
// (ScopedDeadline; the executors poll it at unit boundaries and abort
// expired work), retries transient faults with exponential backoff, asks the
// owning tenant's circuit breaker before every batch, and fulfills each
// request's promise. Clients only touch the queue, so client threads never
// contend on model state.
//
// Multi-tenancy: a ModelRegistry holds the (model, graph, version) entries;
// each tenant names the model id it is served by, carries its own admission
// quota and fair-share weight (enforced in AdmissionQueue), its own circuit
// breaker and last-known-good cache, and its own accounting — the identity
//   submitted == served + degraded + shed + expired + failed
// holds per tenant, and globally as the sum over tenants. Every way a
// request ends goes through one private function (Settle), which moves the
// tenant's counters, mirrors them into the metrics registry, finishes the
// trace and fulfils the promise.
//
// Hot swap (zero downtime): RequestHotSwap stages version N+1 on the calling
// thread (checkpoint load + weight copy; serving continues unaffected), then
// the serving thread warms it with one forward — all plans come from the
// process-wide PlanCache and all tensors from the allocator pool, so a swap
// of the same architecture compiles nothing — seeds the affected tenants'
// LKG caches from the warm logits, atomically publishes the new entry, and
// pokes those tenants' breakers so an OPEN breaker probes the new weights
// immediately. Requests admitted before the flip pinned the old entry and
// are served by it; the old generation retires only after the last such
// request drains.
//
// Warm-path guarantees inherited from PR 3: after the first forward, every
// plan comes from the PlanCache and every tensor from the allocator pool —
// a steady-state request performs zero fresh mallocs and zero compilations,
// which is what makes micro-batching windows of a millisecond meaningful.
#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/tracing.h"
#include "src/core/models/model.h"
#include "src/graph/datasets.h"
#include "src/serve/admission_queue.h"
#include "src/serve/batcher.h"
#include "src/serve/circuit_breaker.h"
#include "src/serve/model_registry.h"
#include "src/serve/request.h"

namespace seastar {

class Profiler;

namespace serve {

// One serving tenant: a named traffic class bound to a registry model id,
// with its own QoS knobs and failure domain.
struct TenantConfig {
  std::string name = "default";
  std::string model_id = "default";
  // Weighted-fair share of batch dispatches relative to other tenants.
  double weight = 1.0;
  // Cap on this tenant's queued backlog (admission quota); 0 = bounded only
  // by the shared queue capacity.
  int max_queued = 0;
  // Fault-injection spec (src/common/fault.h grammar) armed around *this
  // tenant's* forward executions only — the "misbehaving tenant" drill knob.
  // Arms the process FaultInjector for the duration of the tenant's batch,
  // so it must not be combined with externally armed global faults. "" = off.
  std::string fault_spec;
};

struct ServeConfig {
  // ---- Admission ---------------------------------------------------------
  int queue_capacity = 64;  // Requests beyond this are shed at the door.
  double default_deadline_ms = 100.0;  // For requests with deadline_ms == 0.

  // ---- Tenants -----------------------------------------------------------
  // Empty = one default tenant (weight 1, no quota) bound to the registry's
  // single entry. Names must be unique; an empty request.tenant routes to
  // tenants[0].
  std::vector<TenantConfig> tenants;

  // ---- Batching ----------------------------------------------------------
  int max_batch = 8;
  double max_batch_delay_ms = 1.0;

  // ---- Retry policy (transient faults: injected allocation failures,
  //      exceptions escaping pool workers) --------------------------------
  int max_retries = 2;                 // Attempts = 1 + max_retries.
  double retry_base_backoff_ms = 0.5;  // Backoff = base * 2^attempt.

  // ---- Circuit breaker (instantiated per tenant) -------------------------
  int breaker_trip_after = 3;              // Consecutive batch failures.
  double breaker_probe_interval_ms = 25.0;  // One probe per interval while open.
  // Serve last-known-good cached predictions while the breaker is open (or
  // when retries are exhausted); false fails those requests instead.
  bool degraded_fallback = true;

  // ---- Boot --------------------------------------------------------------
  // Trained snapshot restored into the *default tenant's* model before
  // serving; "" serves the registered weights as-is. Multi-model fleets
  // instead pass per-model checkpoints to ModelRegistry::Register.
  std::string checkpoint_path;
  int boot_retries = 3;  // Retries for transient checkpoint-read faults.
  // Run one forward per distinct model at Start() to compile plans, warm the
  // allocator pool, and seed the last-known-good caches.
  bool warmup = true;

  // ---- Observability -----------------------------------------------------
  // Span sink, driven from the serving thread (plus boot-time spans before
  // the thread starts). Null = off.
  Profiler* profiler = nullptr;

  // Per-request distributed tracing (tracing.h). On by default: every
  // request gets a span tree; *retention* is what sampling decides. The head
  // sampler keeps ~1% of clean traffic and the tail reservoir keeps the
  // slowest-N plus every anomalous request (shed / expired / degraded /
  // retried / breaker-tripped / failed), so the requests worth debugging are
  // always exportable even at head_sample_rate = 0.
  trace::TracerConfig tracing;
};

// Monotone counters; every snapshot satisfies
//   submitted == served + degraded + shed + expired + failed.
// A request counts as submitted at the moment it ends, together with its
// outcome, so in-flight requests (queue_depth(), the inflight gauge) are in
// neither side. Rejected requests never enter the serving pipeline and sit
// outside that identity; quota_shed is the subset of shed attributed to a
// tenant's own admission quota (not the shared capacity). The identity
// fields are the sums of the per-tenant counters (plus rejections that named
// no known tenant), taken under a single lock. The same increments are
// mirrored into the process metrics registry (seastar_serve_*_total), so the
// identity can be checked from a --metrics-out snapshot too.
struct ServerStats {
  int64_t submitted = 0;  // Requests admitted or shed (validated, not rejected) that ended.
  int64_t rejected = 0;   // Invalid (bad vertices / fingerprint / tenant), not started, or closed.
  int64_t shed = 0;       // Turned away at the door (capacity or quota).
  int64_t quota_shed = 0;  // Subset of shed: the tenant's own quota.
  int64_t served = 0;     // Fresh forward-pass answers.
  int64_t degraded = 0;   // Answered from the last-known-good cache.
  int64_t expired = 0;    // Deadline passed (in queue or mid-execution).
  int64_t failed = 0;     // Everything else (retries exhausted, no LKG, ...).
  int64_t retries = 0;        // Transient-fault retry attempts paid.
  int64_t batches = 0;        // Forward passes attempted (incl. retries).
  int64_t breaker_trips = 0;        // Summed over tenants.
  int64_t breaker_recoveries = 0;
  int64_t breaker_probes = 0;
  int64_t deadline_unit_aborts = 0;  // Executions aborted at a unit boundary.
  int64_t boot_retries = 0;          // Checkpoint-read retries during Start().
  int64_t swaps = 0;           // Hot-swaps flipped live.
  int64_t swap_failures = 0;   // Staged swaps that failed warmup/publish.
  int64_t swap_retired = 0;    // Old generations fully drained and retired.
  // Tracer counters (started/finished/retained/evicted/...); zeroed when
  // tracing is disabled.
  trace::TracerStats trace;
};

// Per-tenant slice of the identity, plus that tenant's breaker counters.
// For every tenant, submitted == served + degraded + shed + expired + failed
// holds exactly (quota_shed ⊆ shed), and the per-tenant counters sum to the
// global ServerStats identity fields.
struct TenantStats {
  int64_t submitted = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  int64_t quota_shed = 0;
  int64_t served = 0;
  int64_t degraded = 0;
  int64_t expired = 0;
  int64_t failed = 0;
  int64_t retries = 0;
  int64_t batches = 0;
  int64_t breaker_trips = 0;
  int64_t breaker_recoveries = 0;
  int64_t breaker_probes = 0;
};

struct LatencySummary {
  int64_t count = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

class Server {
 public:
  // Single-tenant compatibility: serves `model` (which, with `data`, must
  // outlive the server) as model id "default" through an internally owned
  // registry. Borrowed models cannot hot-swap.
  Server(GnnModel& model, const Dataset& data, ServeConfig config);

  // Multi-tenant: serves the entries of `registry` (pre-populated by the
  // caller; shared so swap tooling can address it too). Every tenant in
  // `config.tenants` must resolve to a registered model id by Start().
  Server(std::shared_ptr<ModelRegistry> registry, ServeConfig config);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Boots (checkpoint restore with transient-fault retries, one warmup
  // forward per distinct model) and starts the serving thread. Must be
  // called once before Submit.
  Status Start();

  // Closes admission, drains queued requests (every outstanding future is
  // fulfilled), fails pending swaps, and joins the serving thread. Idempotent.
  void Shutdown();

  // Admits a request (routing by request.tenant). The returned future is
  // always eventually fulfilled — immediately with a Status for
  // invalid/shed/closed requests, by the serving thread otherwise.
  std::future<StatusOr<InferenceResponse>> Submit(InferenceRequest request);

  // Blocking convenience wrapper.
  StatusOr<InferenceResponse> Infer(InferenceRequest request);

  // Zero-downtime weight hot-swap: stages `checkpoint_path` as the next
  // version of `model_id` on the calling thread (tag-checked load + weight
  // copy into a fresh factory-built model), then hands it to the serving
  // thread, which — between batches — runs the warmup forward, seeds the
  // affected tenants' LKG caches, publishes the entry, and resets their
  // breakers' backend state. The future resolves with the new version number
  // after the flip (or the staging/warmup error). Requires Start().
  std::future<StatusOr<int64_t>> RequestHotSwap(const std::string& model_id,
                                                const std::string& checkpoint_path);

  // Blocking convenience wrapper around RequestHotSwap.
  StatusOr<int64_t> HotSwap(const std::string& model_id, const std::string& checkpoint_path);

  // The (model, graph, version) identity requests may pin via
  // model_fingerprint — the default tenant's *live* entry (changes on swap).
  uint64_t serving_fingerprint() const;

  ServerStats stats() const;
  StatusOr<TenantStats> tenant_stats(const std::string& tenant) const;
  std::vector<std::string> tenant_names() const;

  StatusOr<BreakerState> tenant_breaker_state(const std::string& tenant) const;

  // Percentiles over end-to-end latency of answered (served or degraded)
  // requests, all tenants pooled. Served from a log-bucketed histogram:
  // quantiles carry the bucket's relative error (<= 1/16) instead of being
  // exact, in exchange for an O(1)-memory record path with no lock and no
  // allocation.
  LatencySummary latency_summary() const;
  StatusOr<LatencySummary> tenant_latency_summary(const std::string& tenant) const;

  int queue_depth() const { return queue_.size(); }
  ModelRegistry& registry() { return *registry_; }

  // ---- Tracing ------------------------------------------------------------
  // The retained traces (tail reservoir + anomalies + head-sampled) as
  // Chrome-trace JSON (chrome://tracing / Perfetto loadable): one pid per
  // tenant, one tid per request, spans as complete events. Empty-but-valid
  // JSON when tracing is disabled.
  std::string TracesJson() const;
  // Writes TracesJson() to `path`; false on I/O error or tracing disabled.
  bool DumpTraces(const std::string& path) const;
  // Null when config.tracing.enabled is false.
  const trace::Tracer* tracer() const { return tracer_.get(); }

 private:
  struct AttemptResult {
    Status status;       // OK on success.
    bool retryable = false;
    Tensor logits;       // Defined on success: [N, num_classes].
    bool unit_abort = false;  // Execution aborted at a deadline check.
  };

  // The ways a request ends, each indexing the counter it moves. kSubmitted
  // is not an ending but the counter every ending except a rejection also
  // moves: a request enters the identity's left side as it leaves for one
  // bin on the right, so the identity holds at every instant.
  enum class Outcome : int {
    kSubmitted,
    kRejected,
    kShed,
    kQuotaShed,
    kServed,
    kDegraded,
    kExpired,
    kFailed,
  };
  static constexpr int kNumOutcomes = 8;
  using OutcomeCounts = std::array<int64_t, kNumOutcomes>;

  // Per-tenant runtime state. Counters are guarded by stats_mutex_, the LKG
  // tensor by lkg_mutex_; the breaker guards itself.
  struct Tenant {
    uint32_t index = 0;
    TenantConfig config;
    std::unique_ptr<CircuitBreaker> breaker;
    Tensor lkg;               // Last-known-good full-graph logits.
    OutcomeCounts counts{};   // The only store of the identity counters.
    int64_t retries = 0;
    int64_t batches = 0;
    metrics::Histogram latency_hist{"tenant_latency_ms"};
    // Registry handles per Outcome (label baked into the metric name) so the
    // per-request path never performs a registry lookup.
    std::array<metrics::Counter*, kNumOutcomes> counters{};
  };

  // A staged hot-swap awaiting the serving thread's warm + flip.
  struct PendingSwap {
    std::shared_ptr<const ModelEntry> staged;
    std::promise<StatusOr<int64_t>> promise;
  };

  void ServeLoop();
  void ServeBatch(std::vector<std::unique_ptr<PendingRequest>> batch);
  // One forward pass of `entry` under `deadline`; classifies failures.
  AttemptResult RunForwardOnce(const ModelEntry& entry, const Deadline& deadline);
  // Execute with retry/backoff. Callers update LKG caches on success.
  AttemptResult ExecuteWithRetries(const ModelEntry& entry, const Deadline& deadline,
                                   int* retries_paid);
  void FulfillFromLogits(const Tensor& logits, std::vector<std::unique_ptr<PendingRequest>>& batch,
                         Tenant& tenant, bool degraded, int retries_paid);
  void FailBatch(std::vector<std::unique_ptr<PendingRequest>>& batch, Tenant& tenant,
                 const Status& status);
  Status RestoreFromCheckpoint(const ModelEntry& entry);
  // Applies queued swaps: warm forward, LKG seed, publish, breaker reset.
  void ProcessPendingSwaps();
  // Emits retire events for drained old generations.
  void PollRetirements();
  Tenant* FindTenant(const std::string& name) const;

  // The one place a request ends, and the only writer of the identity
  // counters: moves the counters `outcome` moves for `tenant` (null only for
  // a rejection that reached no tenant, which counts globally) and mirrors
  // them into the registry, flags and finishes the trace, records latency
  // (answers) or a flight-recorder event (anomalies), and fulfils the
  // promise with `answer`.
  void Settle(Tenant* tenant, PendingRequest& pending, Outcome outcome,
              StatusOr<InferenceResponse> answer);

  // Adds identity counts into a ServerStats or a TenantStats.
  template <typename Stats>
  static void AddCounts(const OutcomeCounts& counts, Stats& stats);

  // Adds `n` to a global counter outside the identity (retries, batches,
  // unit aborts, boot and swap counters) and to its registry mirror.
  void Count(int64_t ServerStats::*field, metrics::Counter* mirror, int64_t n = 1);

  const ServeConfig config_;
  Profiler* profiler_;  // Hoisted: non-null only when enabled.
  // Owns every RequestTrace (pooled); null when tracing is disabled, so the
  // per-request cost with tracing off is one pointer test.
  std::unique_ptr<trace::Tracer> tracer_;

  std::shared_ptr<ModelRegistry> registry_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::map<std::string, uint32_t> tenant_index_;

  AdmissionQueue queue_;
  MicroBatcher batcher_;

  std::thread serving_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::mutex shutdown_mutex_;  // Serializes join() across concurrent Shutdowns.

  // Staged swaps handed from RequestHotSwap callers to the serving thread.
  std::mutex swap_mutex_;
  std::deque<PendingSwap> pending_swaps_;

  // Per-tenant last-known-good logits, written by the serving thread after
  // every successful forward, read by it for degraded serving. Guarded for
  // the stats/test readers.
  mutable std::mutex lkg_mutex_;

  // Guards every counter: the tenants' identity counters, and stats_, which
  // holds the counters outside the identity (retries, batches, boot and swap
  // counters) plus rejections that reached no tenant. stats() sums under one
  // critical section. Breaker counters stay with each tenant's breaker.
  mutable std::mutex stats_mutex_;
  ServerStats stats_;
  std::atomic<uint64_t> next_request_id_{1};

  // End-to-end latency of answered requests, all tenants pooled, for
  // latency_summary(). Per-server (the registry's
  // seastar_serve_request_latency_ms is process-wide and would mix servers
  // in tests).
  metrics::Histogram latency_hist_{"latency_ms"};
};

}  // namespace serve
}  // namespace seastar

#endif  // SRC_SERVE_SERVER_H_
