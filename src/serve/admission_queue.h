// Bounded admission queue: the load-shedding front door of the server.
//
// Admission control is the first line of overload defense (Clipper-style
// serving): a queue that grows without bound converts overload into
// unbounded latency for *every* request, while a bounded queue converts it
// into fast, explicit rejection for the requests that would have missed
// their deadlines anyway. Capacity is therefore a hard bound checked at
// push; the caller surfaces the rejection to the client immediately
// ("shed") without ever touching the execution path.
//
// Multi-tenant isolation happens here, on both sides of the queue:
//
//  * Admission quotas — each tenant may cap its own queued backlog
//    (max_queued). A bursting tenant hits its quota and sheds *its own*
//    requests while the shared capacity stays available to everyone else;
//    without the quota, one tenant's burst fills the global queue and the
//    victims shed at the door instead.
//  * Weighted-fair dequeue — batch leaders are picked by stride scheduling
//    across the per-tenant subqueues: tenant t accumulates `pass` at rate
//    1/weight per dispatched batch, and the non-empty subqueue with the
//    lowest pass goes next. Long-run dispatch shares converge to the weight
//    ratio while staying work-conserving (an idle tenant forfeits its share
//    instead of stalling the queue), and a tenant returning from idle
//    resumes at the current virtual time rather than bursting to "catch up"
//    on slots it never queued for.
//
// The pop side serves the micro-batcher: PopAnyUntil blocks for the batch
// leader, PopMatchingUntil waits for *compatible* followers (same batch key,
// same tenant) until the batching window closes. Followers ride on the
// leader's fairness charge — a batch costs one forward regardless of
// occupancy, so fairness is accounted per batch, not per request. Both honor
// Close(), which drains producers and wakes all waiters for shutdown.
#ifndef SRC_SERVE_ADMISSION_QUEUE_H_
#define SRC_SERVE_ADMISSION_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/serve/request.h"

namespace seastar {
namespace serve {

// Outcome of TryPush. Distinguishing quota sheds from capacity sheds lets
// the server attribute the shed to the bursting tenant in its per-tenant
// accounting (both are "shed" in the global identity).
enum class AdmitResult {
  kAdmitted,
  kShedCapacity,  // Shared queue at capacity.
  kShedQuota,     // The tenant's own max_queued backlog cap.
  kClosed,        // Queue closed (server shutting down).
};

const char* AdmitResultName(AdmitResult result);

class AdmissionQueue {
 public:
  // Starts with one tenant (index 0, weight 1, no quota) so single-tenant
  // callers need no configuration.
  explicit AdmissionQueue(int capacity);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  // Declares tenant `index` (contiguous from 0; growing the tenant set
  // re-uses or appends subqueues). `weight` > 0 sets the fair-share ratio;
  // `max_queued` > 0 caps this tenant's queued backlog, 0 means bounded only
  // by the shared capacity. Must be called before requests for `index` are
  // pushed; not thread-safe against concurrent pushes for the same index.
  void ConfigureTenant(uint32_t index, double weight, int max_queued);

  // Admits `request` (routing by request->tenant_index) or sheds/rejects it
  // without blocking. Takes ownership only on kAdmitted; a shed or rejected
  // request stays with the caller, who answers it.
  AdmitResult TryPush(std::unique_ptr<PendingRequest>&& request);

  // Pops the next batch leader under weighted-fair scheduling, blocking
  // until a request is available or `until` passes (or the queue closes).
  // Null on timeout/closed-and-empty. Charges the leader's tenant one
  // dispatch on its fairness meter.
  std::unique_ptr<PendingRequest> PopAnyUntil(std::chrono::steady_clock::time_point until);

  // Pops the oldest request of `tenant_index` whose batch_key equals `key`,
  // blocking until one arrives or `until` passes. Other requests stay
  // queued. Followers are not charged on the fairness meter (see above).
  std::unique_ptr<PendingRequest> PopMatchingUntil(
      uint32_t tenant_index, uint64_t key, std::chrono::steady_clock::time_point until);

  // Wakes every waiter and rejects all future pushes. Queued requests remain
  // poppable so shutdown can drain and fail them explicitly.
  void Close();
  bool closed() const;

  int size() const;
  int size(uint32_t tenant_index) const;
  int capacity() const { return capacity_; }

  // The stride scheduler's view of one tenant at this instant, read under a
  // single lock acquisition so the pair is consistent: the tenant's pass and
  // the queue's virtual time. `pass - virtual_time` is how far behind the
  // dispatch frontier the tenant is (≤ 0 means it goes next among non-empty
  // subqueues) — the admission span records both so a trace shows *why* a
  // request waited: a large gap is fair-share debt, not server slowness.
  struct StridePosition {
    double pass = 0.0;
    double virtual_time = 0.0;
    int queued = 0;  // This tenant's backlog, same instant.
  };
  StridePosition stride_position(uint32_t tenant_index) const;

 private:
  struct SubQueue {
    SubQueue() = default;
    // Hand-written because libstdc++'s deque move is not noexcept, which
    // would make vector::resize copy (ill-formed for unique_ptr elements).
    SubQueue(SubQueue&& other) noexcept
        : queue(std::move(other.queue)),
          weight(other.weight),
          max_queued(other.max_queued),
          pass(other.pass) {}
    SubQueue& operator=(SubQueue&& other) noexcept {
      queue = std::move(other.queue);
      weight = other.weight;
      max_queued = other.max_queued;
      pass = other.pass;
      return *this;
    }

    std::deque<std::unique_ptr<PendingRequest>> queue;
    double weight = 1.0;
    int max_queued = 0;  // 0 = no per-tenant cap.
    double pass = 0.0;   // Stride-scheduling virtual time; lowest goes next.
  };

  // Index of the non-empty subqueue with the lowest pass, or -1. Caller
  // holds mutex_.
  int PickTenantLocked() const;

  const int capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::vector<SubQueue> tenants_;
  int total_size_ = 0;
  // Pass of the most recently dispatched tenant: the queue's virtual time.
  // Tenants waking from idle clamp up to it so fairness is measured over
  // time actually contended.
  double virtual_time_ = 0.0;
  bool closed_ = false;
};

}  // namespace serve
}  // namespace seastar

#endif  // SRC_SERVE_ADMISSION_QUEUE_H_
