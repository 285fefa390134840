// Run-scoped profiler: the observability substrate behind the paper's
// evaluation (§7, Figs. 10-12), which is entirely about *measured* kernel
// behaviour — per-operator time, peak memory, neighbour-access locality.
//
// A Profiler is a passive sink threaded through the execution API via
// RunContext (see src/exec/runtime.h). The executors open one span per fused
// execution unit (Seastar) or per backend operator (baselines) and attach
// the counters the paper's figures are built from: wall time, FAT-group
// geometry, block-scheduler dispatch counts per mode, edges traversed, bytes
// materialized, and allocator watermark deltas. The training loops add
// epoch/phase/batch spans on top, so a trace shows the full nesting
//
//   epoch > forward/backward/step > vertex_program > unit/op
//
// Overhead discipline: when no profiler is installed (ctx.profiler == null)
// or the profiler is constructed disabled, every hook is a pointer test on
// the *orchestration* path only — the per-edge kernel loops never branch on
// profiling state (hot-loop counters accumulate into per-worker buffers that
// are only allocated and merged when a span is actually open). Span
// begin/end happens on the thread that owns the run, so the event list
// needs no locks.
//
// Export: Chrome-trace JSON ("X" complete events, load in chrome://tracing
// or https://ui.perfetto.dev) and a per-(category, name) summary table.
#ifndef SRC_COMMON_PROFILER_H_
#define SRC_COMMON_PROFILER_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/common/stopwatch.h"

namespace seastar {

// One closed span. Counters default to zero / empty, meaning "not
// applicable"; exporters omit them.
struct ProfileEvent {
  std::string name;      // e.g. "unit0:Mul+AggSum", "AggSum", "epoch"
  std::string category;  // "epoch" | "phase" | "batch" | "program" | "unit" | "op" | "bench"
  double start_us = 0.0;  // Relative to the profiler's construction.
  double dur_us = -1.0;   // < 0 while the span is still open.

  // Kernel-behaviour counters (chrome://tracing shows them in the args pane).
  int64_t edges = 0;               // Edges traversed by the span's kernels.
  int64_t bytes_materialized = 0;  // Tensor bytes written to memory.
  int64_t fat_groups = 0;          // FAT groups (= key vertices) covered.
  int32_t fat_group_size = 0;      // Lanes per FAT group (2^k).
  int64_t num_blocks = 0;          // Simulated thread blocks launched.
  int32_t block_size = 0;          // Threads per block.
  int64_t dispatches = 0;          // Block-scheduler dispatch grants.
  int64_t kernel_launches = 0;     // Kernel launches attributed to the span.
  int64_t alloc_delta_bytes = 0;   // Allocator live-byte delta (signed).
  int64_t peak_delta_bytes = 0;    // Allocator watermark rise within span.
  // Steady-state caching counters (ISSUE 3): whether this span's plan came
  // from the PlanCache, and how the span's allocations split between pool
  // reuse (hits) and fresh OS mallocs (misses).
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;
  std::string schedule;            // Block-dispatch mode name; "" if n/a.
  std::string simd_isa;            // Dispatched row-kernel ISA; "" if n/a.
};

// The sink. Thread-compatible, not thread-safe: Begin/End/Mutable must be
// called from the single thread orchestrating the run (worker threads report
// through per-worker buffers owned by the executors, merged before End).
class Profiler {
 public:
  explicit Profiler(bool enabled = true) : enabled_(enabled) {}

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  bool enabled() const { return enabled_; }

  // Opens a span and returns its token (-1 when disabled). Spans may nest;
  // close them in LIFO order for a well-formed trace.
  int64_t Begin(std::string name, std::string category);

  // The open (or closed) span for `token`; nullptr when disabled or the
  // token is invalid. Pointers stay valid across later Begin calls (events
  // live in a deque), so counters can be attached any time before export.
  ProfileEvent* Mutable(int64_t token);

  // Stamps the span's duration.
  void End(int64_t token);

  const std::deque<ProfileEvent>& events() const { return events_; }
  void Clear() { events_.clear(); }

  // Sum of closed-span durations for `category`, in microseconds.
  double TotalUs(const std::string& category) const;

  // Chrome Trace Event Format (JSON object with a "traceEvents" array of
  // "X" complete events; timestamps in microseconds).
  std::string ChromeTraceJson() const;
  bool WriteChromeTrace(const std::string& path) const;

  // Aggregated per-(category, name) table: count, total/avg ms, edges,
  // bytes materialized, dispatches, kernel launches.
  std::string SummaryTable() const;

 private:
  bool enabled_;
  Stopwatch clock_;
  std::deque<ProfileEvent> events_;
};

// RAII span. Inactive (all no-ops) when `profiler` is null or disabled,
// which is the zero-overhead path every hook takes by default.
class ProfileScope {
 public:
  ProfileScope() = default;
  ProfileScope(Profiler* profiler, std::string name, std::string category) {
    if (profiler != nullptr && profiler->enabled()) {
      profiler_ = profiler;
      token_ = profiler->Begin(std::move(name), std::move(category));
    }
  }
  ~ProfileScope() {
    if (profiler_ != nullptr) {
      profiler_->End(token_);
    }
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  // The span to attach counters to; nullptr when inactive.
  ProfileEvent* event() { return profiler_ != nullptr ? profiler_->Mutable(token_) : nullptr; }

  explicit operator bool() const { return profiler_ != nullptr; }

 private:
  Profiler* profiler_ = nullptr;
  int64_t token_ = -1;
};

}  // namespace seastar

#endif  // SRC_COMMON_PROFILER_H_
