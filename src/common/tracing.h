// Per-request distributed tracing for the serving stack.
//
// The Profiler (profiler.h) answers "where did this *run* spend its time";
// the metrics registry answers "what are the totals". Neither can answer the
// production question the multi-tenant server raises: *why was request X
// slow* — was it queue wait behind a bursting tenant, a retry after a
// transient fault, a breaker-open degraded detour, or the forward itself?
// This module records a span tree per request, keyed by a 64-bit trace id
// assigned at admission, covering the whole lifecycle: admission/quota
// decision, queue wait (with the tenant's stride-scheduler position), batch
// formation (leader vs. follower), execution (per retry attempt, per shard
// pass, per fused-unit launch), degraded fallback, and fulfillment.
//
// Propagation follows deadline.h's ambient pattern: the serving thread
// installs the batch leader's trace in a thread-local (ScopedTraceContext),
// and executor internals record spans through AmbientSpan without any
// signature change. With no trace installed — training, benches, tests —
// every hook is one thread-local load and a null test.
//
// Sampling is two-tier, so tracing can stay on in production:
//  * Head sampler — a cheap deterministic function of the trace id admits
//    ~head_sample_rate of requests (default 1%) for unconditional retention.
//    Deterministic + seeded means tests (and repeated runs) see a stable
//    subset.
//  * Tail reservoir — always on, regardless of the head rate (even 0%):
//    every *anomalous* request (shed / expired / degraded / retried /
//    breaker-involved / failed) is retained, and the slowest-N non-anomalous
//    requests are kept in a min-heap keyed on end-to-end latency. p99
//    outliers are never lost to sampling.
//
// Cost discipline: every request is traced (retention, not recording, is
// what sampling decides — a tail outlier can only be kept if its spans were
// recorded), so recording must be near-free: spans are fixed-size POD
// records appended to a pre-reserved per-trace buffer; trace objects are
// pooled and recycled, so steady state performs no fresh allocation, no
// registry lookups, and no locks outside StartTrace/FinishTrace's
// uncontended pool mutex. Span mutation is single-owner by construction
// (client thread before the queue push, serving thread after the pop; the
// queue mutex orders the handoff), so it takes no locks at all.
//
// Export is Chrome-trace JSON (chrome://tracing, Perfetto): one pid per
// tenant, one tid per request, spans as "X" complete events. See
// docs/INTERNALS.md §17 for the span taxonomy.
#ifndef SRC_COMMON_TRACING_H_
#define SRC_COMMON_TRACING_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace seastar {

class JsonWriter;

namespace trace {

// Anomaly classes. Any nonzero flag set makes a trace unconditionally
// reservoir-retained at finish, regardless of head sampling.
enum AnomalyFlag : uint32_t {
  kShed = 1u << 0,      // Turned away at the door (capacity or quota).
  kExpired = 1u << 1,   // Deadline passed (queued, mid-execution, or at fulfillment).
  kDegraded = 1u << 2,  // Answered from the last-known-good cache.
  kRetried = 1u << 3,   // Paid at least one transient-fault retry.
  kBreaker = 1u << 4,   // Tripped the breaker, or served while it was open.
  kFailed = 1u << 5,    // Fresh answer impossible and no fallback.
};

// "shed|retried" rendering for exports and logs; "clean" when flags == 0.
std::string FlagNames(uint32_t flags);

// One node of a request's span tree. POD-sized so recording is a handful of
// stores into a pre-reserved vector slot; names come from the static span
// taxonomy, dynamic annotations (a fused unit's label) go into the
// fixed-width detail buffer.
struct Span {
  const char* name = "";        // Static taxonomy name ("request", "queue", ...).
  char detail[24] = {};         // Truncated dynamic annotation; "" = none.
  const char* a_name = nullptr; // Labels for the integer args; null = unused.
  const char* b_name = nullptr;
  int64_t a = 0;
  int64_t b = 0;
  int64_t start_us = 0;         // Relative to the owning Tracer's epoch.
  int64_t dur_us = -1;          // -1 while open.
  int32_t parent = -1;          // Index of the parent span; -1 = root.
};

class Tracer;

// The span tree of one request, owned by its Tracer (pooled and recycled).
// Spans are appended by whichever thread currently owns the request — never
// two at once — so mutation is lock-free. Begin/End follow stack discipline
// (an inner span closes before its parent); AddSpan records an already-
// closed interval measured elsewhere (e.g. queue wait, admission→dequeue).
class RequestTrace {
 public:
  using Clock = std::chrono::steady_clock;

  uint64_t trace_id() const { return trace_id_; }
  bool sampled() const { return sampled_; }
  uint32_t tenant_index() const { return tenant_index_; }
  uint64_t request_id() const { return request_id_; }

  void AddFlag(uint32_t flag) { flags_ |= flag; }
  uint32_t flags() const { return flags_; }

  // Opens a span as a child of the innermost open span. Returns a token for
  // EndSpan, or -1 when the per-trace span budget is exhausted (the drop is
  // counted; End of a -1 token is a no-op).
  int BeginSpan(const char* name);
  int BeginSpanAt(const char* name, Clock::time_point start);
  void EndSpan(int token);

  // Records a closed interval measured by the caller, as a child of the
  // innermost open span.
  int AddSpan(const char* name, Clock::time_point start, Clock::time_point end);

  void SetDetail(int token, std::string_view detail);
  void SetArg(int token, const char* a_name, int64_t a);
  void SetArgs(int token, const char* a_name, int64_t a, const char* b_name, int64_t b);

  int num_spans() const { return static_cast<int>(spans_.size()); }
  const Span& span(int index) const { return spans_[static_cast<size_t>(index)]; }
  int64_t dropped_spans() const { return dropped_spans_; }

  // Set by FinishTrace.
  double total_ms() const { return total_ms_; }
  const char* outcome() const { return outcome_; }

 private:
  friend class Tracer;
  RequestTrace() = default;

  void Reset(uint64_t trace_id, bool sampled, uint32_t tenant_index, uint64_t request_id,
             Clock::time_point epoch, int max_spans);
  int64_t RelMicros(Clock::time_point tp) const;
  int Append(const char* name, int64_t start_us, int64_t dur_us);

  uint64_t trace_id_ = 0;
  uint64_t request_id_ = 0;
  uint32_t tenant_index_ = 0;
  uint32_t flags_ = 0;
  bool sampled_ = false;
  int32_t open_ = -1;  // Innermost open span: parent for the next Begin/Add.
  int max_spans_ = 0;
  int64_t dropped_spans_ = 0;
  double total_ms_ = 0.0;
  char outcome_[16] = "open";
  Clock::time_point epoch_{};
  std::vector<Span> spans_;  // Capacity survives pool recycling.
};

struct TracerConfig {
  bool enabled = true;
  // Head tier: fraction of traces retained unconditionally (deterministic in
  // the trace id, so a fixed seed admits a stable subset). 0 disables the
  // head tier; the tail reservoir still runs.
  double head_sample_rate = 0.01;
  // Tail tier: the slowest-N non-anomalous finished traces, by total_ms.
  int tail_keep = 32;
  // Newest-kept ring capacities for head-sampled and anomalous traces.
  // Overflowing traces are re-offered to the tail heap before recycling, so
  // the slowest requests survive even a flood of anomalies.
  int sampled_keep = 256;
  int anomaly_keep = 8192;
  // Span budget per trace; recording beyond it drops (counted) rather than
  // growing without bound.
  int max_spans_per_trace = 96;
  // Mixed into trace ids (and thus the head sampler). Fixed seed => fully
  // deterministic ids and sampling decisions.
  uint64_t seed = 0;
};

// Counters exported as the `trace` section of ServerStats.
struct TracerStats {
  int64_t started = 0;
  int64_t finished = 0;
  int64_t head_sampled = 0;        // Sampler admissions among started traces.
  int64_t anomalies_observed = 0;  // Finished with any anomaly flag.
  int64_t retained_sampled = 0;    // Currently held, per store.
  int64_t retained_anomaly = 0;
  int64_t retained_tail = 0;
  int64_t evicted = 0;             // Recycled out of a retention store.
  int64_t spans_dropped = 0;       // Spans beyond the per-trace budget.
  int64_t pool_misses = 0;         // StartTrace allocations not served by the pool.
};

// Owns trace lifecycle, sampling, the tail reservoir, and export. StartTrace
// and FinishTrace are thread-safe (client threads start, the serving thread
// finishes — sheds finish on the client thread); everything between is the
// single-owner span recording above.
class Tracer {
 public:
  using Clock = RequestTrace::Clock;

  explicit Tracer(TracerConfig config);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Begins a trace (never null). The returned object stays valid until
  // FinishTrace; callers must finish every started trace exactly once.
  RequestTrace* StartTrace(uint32_t tenant_index, uint64_t request_id);

  // Closes open spans, stamps outcome/total, and decides retention:
  // anomalous traces go to the anomaly ring, head-sampled ones to the
  // sampled ring, everything else competes for the slowest-N tail heap;
  // losers are recycled into the pool. `trace` must not be used afterwards.
  void FinishTrace(RequestTrace* trace, double total_ms, const char* outcome);

  // The deterministic head-sampling decision (exposed for tests).
  static bool HeadSampled(uint64_t trace_id, double rate);

  // Chrome-trace pid naming: pid = tenant index, named "tenant:<name>".
  void SetTenantName(uint32_t index, std::string name);

  TracerStats stats() const;
  const TracerConfig& config() const { return config_; }
  Clock::time_point epoch() const { return epoch_; }

  // Visits every retained trace (anomaly ring, sampled ring, tail heap) under
  // the tracer mutex. For tests and custom exporters.
  void ForEachRetained(const std::function<void(const RequestTrace&)>& fn) const;

  // Chrome-trace JSON: {"displayTimeUnit", "traceEvents": [...], "traceStats"}.
  // One pid per tenant, one tid per request; ts/dur in microseconds since the
  // tracer epoch. Loadable in chrome://tracing / Perfetto.
  void WriteChromeTrace(JsonWriter& writer) const;
  std::string ChromeTraceJson() const;
  bool WriteChromeTraceFile(const std::string& path) const;

 private:
  std::unique_ptr<RequestTrace> Acquire();  // Caller holds mutex_.
  void Recycle(std::unique_ptr<RequestTrace> trace);  // Caller holds mutex_.
  // Offers to the slowest-N heap; recycles the loser. Caller holds mutex_.
  void OfferTail(std::unique_ptr<RequestTrace> trace);

  const TracerConfig config_;
  const Clock::time_point epoch_;

  mutable std::mutex mutex_;
  uint64_t next_trace_ = 1;
  TracerStats stats_;
  std::vector<std::unique_ptr<RequestTrace>> pool_;
  std::deque<std::unique_ptr<RequestTrace>> sampled_;    // FIFO; newest kept.
  std::deque<std::unique_ptr<RequestTrace>> anomalies_;  // FIFO; newest kept.
  std::vector<std::unique_ptr<RequestTrace>> tail_;      // Min-heap by total_ms.
  std::map<uint32_t, std::string> tenant_names_;
};

// ---- Ambient propagation (the ScopedDeadline pattern) -----------------------

namespace trace_internal {
extern thread_local RequestTrace* tls_trace;
}  // namespace trace_internal

// Installs `trace` as the calling thread's ambient trace for the scope's
// lifetime (nests; restores the previous on exit). Null is a no-op scope.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(RequestTrace* trace) : previous_(trace_internal::tls_trace) {
    trace_internal::tls_trace = trace;
  }
  ~ScopedTraceContext() { trace_internal::tls_trace = previous_; }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  RequestTrace* previous_;
};

inline RequestTrace* CurrentTrace() { return trace_internal::tls_trace; }

// The ambient trace's id, 0 when none — what the flight recorder stamps on
// every event for crash correlation.
inline uint64_t CurrentTraceId() {
  const RequestTrace* trace = trace_internal::tls_trace;
  return trace != nullptr ? trace->trace_id() : 0;
}

// RAII span against the ambient trace. With no trace installed (training,
// benches) construction is one thread-local load and a null test — the same
// budget as CheckExecutionDeadline — so executor hooks cost nothing when the
// serving stack is not the caller.
class AmbientSpan {
 public:
  explicit AmbientSpan(const char* name) : trace_(trace_internal::tls_trace) {
    if (trace_ != nullptr) {
      token_ = trace_->BeginSpan(name);
    }
  }
  ~AmbientSpan() {
    if (trace_ != nullptr) {
      trace_->EndSpan(token_);
    }
  }

  AmbientSpan(const AmbientSpan&) = delete;
  AmbientSpan& operator=(const AmbientSpan&) = delete;

  bool active() const { return trace_ != nullptr; }
  void Detail(std::string_view detail) {
    if (trace_ != nullptr) {
      trace_->SetDetail(token_, detail);
    }
  }
  void Arg(const char* a_name, int64_t a) {
    if (trace_ != nullptr) {
      trace_->SetArg(token_, a_name, a);
    }
  }
  void Args(const char* a_name, int64_t a, const char* b_name, int64_t b) {
    if (trace_ != nullptr) {
      trace_->SetArgs(token_, a_name, a, b_name, b);
    }
  }

 private:
  RequestTrace* trace_;
  int token_ = -1;
};

// 16-digit lowercase hex rendering of a trace id — the format used in
// Chrome-trace args, metrics exemplars, and drill reports.
std::string TraceIdHex(uint64_t trace_id);

}  // namespace trace
}  // namespace seastar

#endif  // SRC_COMMON_TRACING_H_
