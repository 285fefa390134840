#include "src/serve/admission_queue.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace seastar {
namespace serve {

const char* AdmitResultName(AdmitResult result) {
  switch (result) {
    case AdmitResult::kAdmitted:
      return "admitted";
    case AdmitResult::kShedCapacity:
      return "shed-capacity";
    case AdmitResult::kShedQuota:
      return "shed-quota";
    case AdmitResult::kClosed:
      return "closed";
  }
  return "?";
}

AdmissionQueue::AdmissionQueue(int capacity) : capacity_(capacity) {
  SEASTAR_CHECK_GT(capacity, 0);
  tenants_.resize(1);  // Default tenant: weight 1, no quota.
}

void AdmissionQueue::ConfigureTenant(uint32_t index, double weight, int max_queued) {
  SEASTAR_CHECK_GT(weight, 0.0);
  SEASTAR_CHECK_GE(max_queued, 0);
  std::lock_guard<std::mutex> lock(mutex_);
  SEASTAR_CHECK_LE(index, tenants_.size()) << "tenant indices must be contiguous";
  if (index == tenants_.size()) {
    tenants_.emplace_back();
  }
  tenants_[index].weight = weight;
  tenants_[index].max_queued = max_queued;
}

AdmitResult AdmissionQueue::TryPush(std::unique_ptr<PendingRequest>&& request) {
  SEASTAR_CHECK(request != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      return AdmitResult::kClosed;
    }
    SEASTAR_CHECK_LT(request->tenant_index, tenants_.size())
        << "request routed to unconfigured tenant index";
    SubQueue& sub = tenants_[request->tenant_index];
    // Quota before capacity: when a bursting tenant exceeds both, the shed
    // is attributed to its own cap, not the shared resource.
    if (sub.max_queued > 0 && static_cast<int>(sub.queue.size()) >= sub.max_queued) {
      return AdmitResult::kShedQuota;
    }
    if (total_size_ >= capacity_) {
      return AdmitResult::kShedCapacity;
    }
    if (sub.queue.empty()) {
      // Returning from idle: resume at the current virtual time instead of
      // replaying the backlog of passes accumulated while absent — stride
      // fairness is over contended time only.
      sub.pass = std::max(sub.pass, virtual_time_);
    }
    sub.queue.push_back(std::move(request));
    ++total_size_;
  }
  ready_.notify_all();
  return AdmitResult::kAdmitted;
}

int AdmissionQueue::PickTenantLocked() const {
  int best = -1;
  for (size_t t = 0; t < tenants_.size(); ++t) {
    if (tenants_[t].queue.empty()) {
      continue;
    }
    if (best < 0 || tenants_[t].pass < tenants_[best].pass) {
      best = static_cast<int>(t);
    }
  }
  return best;
}

std::unique_ptr<PendingRequest> AdmissionQueue::PopAnyUntil(
    std::chrono::steady_clock::time_point until) {
  std::unique_lock<std::mutex> lock(mutex_);
  ready_.wait_until(lock, until, [this] { return closed_ || total_size_ > 0; });
  const int pick = PickTenantLocked();
  if (pick < 0) {
    return nullptr;
  }
  SubQueue& sub = tenants_[pick];
  std::unique_ptr<PendingRequest> head = std::move(sub.queue.front());
  sub.queue.pop_front();
  --total_size_;
  // Charge one dispatch: the tenant's pass advances by its stride (1/weight),
  // and the queue's virtual time follows the dispatched tenant.
  virtual_time_ = sub.pass;
  sub.pass += 1.0 / sub.weight;
  head->dequeued_at = std::chrono::steady_clock::now();
  return head;
}

std::unique_ptr<PendingRequest> AdmissionQueue::PopMatchingUntil(
    uint32_t tenant_index, uint64_t key, std::chrono::steady_clock::time_point until) {
  std::unique_lock<std::mutex> lock(mutex_);
  SEASTAR_CHECK_LT(tenant_index, tenants_.size());
  for (;;) {
    SubQueue& sub = tenants_[tenant_index];
    auto it = std::find_if(sub.queue.begin(), sub.queue.end(),
                           [key](const std::unique_ptr<PendingRequest>& r) {
                             return r->batch_key == key;
                           });
    if (it != sub.queue.end()) {
      std::unique_ptr<PendingRequest> match = std::move(*it);
      sub.queue.erase(it);
      --total_size_;
      match->dequeued_at = std::chrono::steady_clock::now();
      return match;
    }
    if (closed_ || ready_.wait_until(lock, until) == std::cv_status::timeout) {
      return nullptr;
    }
  }
}

void AdmissionQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

bool AdmissionQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

int AdmissionQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_size_;
}

int AdmissionQueue::size(uint32_t tenant_index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  SEASTAR_CHECK_LT(tenant_index, tenants_.size());
  return static_cast<int>(tenants_[tenant_index].queue.size());
}

AdmissionQueue::StridePosition AdmissionQueue::stride_position(uint32_t tenant_index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  SEASTAR_CHECK_LT(tenant_index, tenants_.size());
  const SubQueue& sub = tenants_[tenant_index];
  StridePosition position;
  position.pass = sub.pass;
  position.virtual_time = virtual_time_;
  position.queued = static_cast<int>(sub.queue.size());
  return position;
}

}  // namespace serve
}  // namespace seastar
