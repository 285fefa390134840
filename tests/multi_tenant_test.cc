// Tests for the multi-tenant serving runtime (src/serve/): the model
// registry's RCU generation protocol, per-model checkpoint namespacing,
// batch-key separation across tenants and weights versions, weighted-fair
// scheduling and quota isolation at the server level, a rogue-tenant drill
// (fault-injected tenant must not hurt its neighbors), zero-downtime weight
// hot-swap under load (version pinning, drain-then-retire, warm-path
// steady-state), and breaker interaction with backend replacement.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault.h"
#include "src/common/flight_recorder.h"
#include "src/common/metrics.h"
#include "src/core/checkpoint.h"
#include "src/core/executor_factory.h"
#include "src/core/models/gcn.h"
#include "src/exec/plan_cache.h"
#include "src/serve/model_registry.h"
#include "src/serve/server.h"
#include "src/tensor/allocator.h"

namespace seastar {
namespace {

using serve::BreakerState;
using serve::InferenceRequest;
using serve::InferenceResponse;
using serve::ModelEntry;
using serve::ModelEntryInfo;
using serve::ModelRegistry;
using serve::ServeConfig;
using serve::Server;
using serve::ServerStats;
using serve::TenantConfig;
using serve::TenantStats;

Dataset SmallDataset() {
  DatasetOptions options;
  options.scale = 0.05;
  options.max_feature_dim = 16;
  return MakeDataset(*FindDataset("cora"), options);
}

std::shared_ptr<const Executor> SeastarBackend() {
  return std::move(*ExecutorFactory::Create("seastar"));
}

std::unique_ptr<Gcn> SmallGcn(const Dataset& data) {
  GcnConfig config;
  config.hidden_dim = 8;
  return std::make_unique<Gcn>(data, config, SeastarBackend());
}

serve::ModelFactory GcnFactory(const Dataset& data) {
  return [&data]() -> std::unique_ptr<GnnModel> { return SmallGcn(data); };
}

InferenceRequest RequestFor(std::vector<int32_t> vertices, const std::string& tenant = "",
                            double deadline_ms = -1.0) {
  InferenceRequest request;
  request.vertices = std::move(vertices);
  request.deadline_ms = deadline_ms;
  request.tenant = tenant;
  return request;
}

// Snapshots `model`'s current weights as a tagged checkpoint for `model_id`,
// optionally nudging every parameter by `delta` first so distinct versions
// are distinguishable by their logits.
std::string WriteTaggedCheckpoint(GnnModel& model, const std::string& model_id,
                                  const std::string& path, float delta = 0.0f) {
  if (delta != 0.0f) {
    for (Var& p : model.Parameters()) {
      Tensor value = p.value();
      float* data = value.data();
      for (int64_t i = 0; i < value.numel(); ++i) {
        data[i] += delta;
      }
    }
  }
  TrainCheckpoint checkpoint;
  checkpoint.model_tag = model_id;
  for (const Var& p : model.Parameters()) {
    checkpoint.parameters.push_back(p.value().Clone());
  }
  Status saved = SaveCheckpoint(checkpoint, path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  return path;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void AssertTenantIdentity(const TenantStats& t, const std::string& who) {
  EXPECT_EQ(t.submitted, t.served + t.degraded + t.shed + t.expired + t.failed)
      << "per-tenant accounting identity violated for " << who;
}

// ---- Registry basics ----------------------------------------------------------------------------

TEST(ModelRegistryTest, RegisterLookupAndDuplicateRejection) {
  Dataset data = SmallDataset();
  ModelRegistry registry;
  auto a = registry.Register("model-a", data, GcnFactory(data));
  ASSERT_TRUE(a.has_value()) << a.status().ToString();
  EXPECT_EQ(a.value()->version(), 1);
  EXPECT_NE(a.value()->fingerprint(), 0u);

  auto borrowed_model = SmallGcn(data);
  auto b = registry.RegisterBorrowed("model-b", *borrowed_model, data);
  ASSERT_TRUE(b.has_value()) << b.status().ToString();

  EXPECT_EQ(registry.Lookup("model-a").get(), a.value().get());
  EXPECT_EQ(registry.Lookup("model-b").get(), b.value().get());
  EXPECT_EQ(registry.Lookup("model-c"), nullptr);
  EXPECT_EQ(registry.size(), 2u);

  auto dup = registry.Register("model-a", data, GcnFactory(data));
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);

  // Swappability: factory-backed yes, borrowed no.
  bool saw_a = false, saw_b = false;
  for (const ModelEntryInfo& info : registry.List()) {
    if (info.model_id == "model-a") {
      saw_a = true;
      EXPECT_TRUE(info.swappable);
    }
    if (info.model_id == "model-b") {
      saw_b = true;
      EXPECT_FALSE(info.swappable);
    }
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);

  auto no_swap = registry.PrepareSwap("model-b", "/nonexistent.ckpt");
  EXPECT_EQ(no_swap.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ModelRegistryTest, FingerprintsSeparateModelsAndVersions) {
  // The regression this guards: two tenants with identical architectures and
  // graphs (or two weights generations of one model) must never share a
  // batch key, or one's requests would be answered with the other's weights.
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  const uint64_t a1 = serve::ComputeEntryFingerprint("model-a", 1, *model, data);
  const uint64_t b1 = serve::ComputeEntryFingerprint("model-b", 1, *model, data);
  const uint64_t a2 = serve::ComputeEntryFingerprint("model-a", 2, *model, data);
  EXPECT_NE(a1, b1);  // Same architecture+graph, different model id.
  EXPECT_NE(a1, a2);  // Same model id, different weights version.
  EXPECT_NE(a1, 0u);
  EXPECT_NE(b1, 0u);
}

TEST(ModelRegistryTest, PublishFlipsAndRetiresAfterDrain) {
  Dataset data = SmallDataset();
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", data, GcnFactory(data)).has_value());

  auto live = registry.Lookup("m");
  const std::string path = TempPath("seastar_mt_publish.ckpt");
  WriteTaggedCheckpoint(live->model(), "m", path, /*delta=*/0.25f);

  auto staged = registry.PrepareSwap("m", path);
  ASSERT_TRUE(staged.has_value()) << staged.status().ToString();
  EXPECT_EQ(staged.value()->version(), 2);
  // Staging is invisible until Publish.
  EXPECT_EQ(registry.Lookup("m")->version(), 1);

  auto replaced = registry.Publish(staged.value());
  ASSERT_TRUE(replaced.has_value());
  EXPECT_EQ(replaced.value()->version(), 1);
  EXPECT_EQ(registry.Lookup("m")->version(), 2);

  // A stale re-publish of the old generation must be refused.
  auto stale = registry.Publish(replaced.value());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);

  // v1 is still pinned (by `live` and `replaced`): not retired yet.
  EXPECT_TRUE(registry.PollRetired().empty());
  EXPECT_EQ(registry.pending_retirements(), 1);
  replaced = ErrorStatus(StatusCode::kInternal) << "dropped";
  live.reset();
  std::vector<serve::RetiredEntry> retired = registry.PollRetired();
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0].model_id, "m");
  EXPECT_EQ(retired[0].version, 1);
  // Exactly once.
  EXPECT_TRUE(registry.PollRetired().empty());
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");
}

// ---- Checkpoint namespacing ---------------------------------------------------------------------

TEST(CheckpointNamespaceTest, PathForModelKeepsExtensionAndSanitizes) {
  EXPECT_EQ(CheckpointPathForModel("ckpt/fleet.ckpt", "gcn-a"), "ckpt/fleet.gcn-a.ckpt");
  EXPECT_EQ(CheckpointPathForModel("fleet", "gcn-a"), "fleet.gcn-a");
  EXPECT_EQ(CheckpointPathForModel("a.b/fleet", "m"), "a.b/fleet.m");
  EXPECT_EQ(CheckpointPathForModel("fleet.ckpt", "we/ird id"), "fleet.we_ird_id.ckpt");
  EXPECT_EQ(CheckpointPathForModel("fleet.ckpt", ""), "fleet.model.ckpt");
}

TEST(CheckpointNamespaceTest, TagMismatchIsRejectedAndFallsBackToPrev) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  const std::string path = TempPath("seastar_mt_tag.ckpt");

  // Generation 1: tagged for model-a. Saving generation 2 rotates it to
  // .prev; generation 2 simulates another model's rotation clobbering the
  // slot (wrong tag).
  WriteTaggedCheckpoint(*model, "model-a", path);
  WriteTaggedCheckpoint(*model, "model-b", path);

  // Untagged expectation: both load fine.
  EXPECT_TRUE(LoadCheckpoint(path).has_value());
  // Tag-checked against model-b: primary matches.
  StatusOr<TrainCheckpoint> as_b = LoadCheckpoint(path, "model-b");
  ASSERT_TRUE(as_b.has_value()) << as_b.status().ToString();
  EXPECT_EQ(as_b->model_tag, "model-b");
  // Tag-checked against model-a: primary is alien, but .prev still holds
  // model-a's weights — the fallback must recover them.
  StatusOr<TrainCheckpoint> as_a = LoadCheckpoint(path, "model-a");
  ASSERT_TRUE(as_a.has_value()) << as_a.status().ToString();
  EXPECT_EQ(as_a->model_tag, "model-a");
  // Tag-checked against a third model: both generations alien.
  StatusOr<TrainCheckpoint> as_c = LoadCheckpoint(path, "model-c");
  ASSERT_FALSE(as_c.has_value());
  EXPECT_EQ(as_c.status().code(), StatusCode::kFailedPrecondition);

  // Untagged legacy snapshots pass any expectation.
  const std::string legacy = TempPath("seastar_mt_legacy.ckpt");
  WriteTaggedCheckpoint(*model, "", legacy);
  EXPECT_TRUE(LoadCheckpoint(legacy, "anything").has_value());

  for (const std::string& p : {path, legacy}) {
    std::filesystem::remove(p);
    std::filesystem::remove(p + ".prev");
  }
}

// ---- Server-level tenancy -----------------------------------------------------------------------

ServeConfig ThreeTenantConfig() {
  ServeConfig config;
  config.queue_capacity = 64;
  config.max_batch = 8;
  config.max_batch_delay_ms = 0.5;
  TenantConfig a;
  a.name = "alpha";
  a.model_id = "model-a";
  a.weight = 2.0;
  TenantConfig b;
  b.name = "beta";
  b.model_id = "model-b";
  TenantConfig c;
  c.name = "gamma";
  c.model_id = "model-a";  // Shares alpha's model, separate QoS domain.
  config.tenants = {a, b, c};
  return config;
}

TEST(MultiTenantServeTest, RoutesTenantsToTheirModelsAndKeepsPerTenantIdentity) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto registry = std::make_shared<ModelRegistry>();
  ASSERT_TRUE(registry->Register("model-a", data, GcnFactory(data)).has_value());
  ASSERT_TRUE(registry->Register("model-b", data, GcnFactory(data)).has_value());
  const Tensor expected_a = registry->Lookup("model-a")->model().Forward(false).value();
  const Tensor expected_b = registry->Lookup("model-b")->model().Forward(false).value();

  Server server(registry, ThreeTenantConfig());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.tenant_names(), (std::vector<std::string>{"alpha", "beta", "gamma"}));

  StatusOr<InferenceResponse> ra = server.Infer(RequestFor({0, 2}, "alpha"));
  StatusOr<InferenceResponse> rb = server.Infer(RequestFor({0, 2}, "beta"));
  ASSERT_TRUE(ra.has_value()) << ra.status().ToString();
  ASSERT_TRUE(rb.has_value()) << rb.status().ToString();
  EXPECT_EQ(ra->model_id, "model-a");
  EXPECT_EQ(rb->model_id, "model-b");
  EXPECT_EQ(ra->tenant, "alpha");
  EXPECT_EQ(rb->tenant, "beta");
  for (int64_t j = 0; j < expected_a.dim(1); ++j) {
    EXPECT_FLOAT_EQ(ra->logits.at(0, j), expected_a.at(0, j));
    EXPECT_FLOAT_EQ(rb->logits.at(0, j), expected_b.at(0, j));
  }

  // An empty tenant routes to tenants[0]; unknown tenants are rejected.
  StatusOr<InferenceResponse> rd = server.Infer(RequestFor({1}));
  ASSERT_TRUE(rd.has_value());
  EXPECT_EQ(rd->tenant, "alpha");
  StatusOr<InferenceResponse> ru = server.Infer(RequestFor({1}, "nobody"));
  EXPECT_EQ(ru.status().code(), StatusCode::kInvalidArgument);

  server.Shutdown();
  int64_t tenant_sum = 0;
  for (const std::string& name : server.tenant_names()) {
    StatusOr<TenantStats> t = server.tenant_stats(name);
    ASSERT_TRUE(t.has_value());
    AssertTenantIdentity(t.value(), name);
    tenant_sum += t->submitted;
  }
  const ServerStats global = server.stats();
  EXPECT_EQ(tenant_sum, global.submitted);  // Tenant slices sum to the global.
  StatusOr<TenantStats> alpha = server.tenant_stats("alpha");
  EXPECT_EQ(alpha->served, 2);  // ra + rd.
  EXPECT_FALSE(server.tenant_stats("nobody").has_value());
}

TEST(MultiTenantServeTest, TenantsNeverShareABatchEvenOnTheSameModel) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto registry = std::make_shared<ModelRegistry>();
  ASSERT_TRUE(registry->Register("model-a", data, GcnFactory(data)).has_value());
  ASSERT_TRUE(registry->Register("model-b", data, GcnFactory(data)).has_value());

  ServeConfig config = ThreeTenantConfig();
  config.max_batch = 32;
  config.max_batch_delay_ms = 20.0;  // Wide window: same-key requests coalesce.
  Server server(registry, config);
  ASSERT_TRUE(server.Start().ok());

  // Burst for alpha and gamma — same model id, distinct tenants. If the
  // batch key ignored the tenant they would coalesce and one tenant's stats
  // would absorb the other's requests.
  std::vector<std::future<StatusOr<InferenceResponse>>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(server.Submit(RequestFor({i % 4}, "alpha")));
    futures.push_back(server.Submit(RequestFor({i % 4}, "gamma")));
  }
  for (auto& future : futures) {
    StatusOr<InferenceResponse> r = future.get();
    ASSERT_TRUE(r.has_value()) << r.status().ToString();
    // A batch larger than one tenant's share would prove cross-tenant
    // coalescing; every response must come from a single-tenant batch.
    EXPECT_LE(r->batch_size, 10);
  }
  server.Shutdown();
  StatusOr<TenantStats> alpha = server.tenant_stats("alpha");
  StatusOr<TenantStats> gamma = server.tenant_stats("gamma");
  EXPECT_EQ(alpha->served, 10);
  EXPECT_EQ(gamma->served, 10);
  AssertTenantIdentity(alpha.value(), "alpha");
  AssertTenantIdentity(gamma.value(), "gamma");
}

TEST(MultiTenantServeTest, QuotaShedsOnlyTheOffendingTenant) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto registry = std::make_shared<ModelRegistry>();
  ASSERT_TRUE(registry->Register("model-a", data, GcnFactory(data)).has_value());
  ASSERT_TRUE(registry->Register("model-b", data, GcnFactory(data)).has_value());

  ServeConfig config = ThreeTenantConfig();
  config.tenants[1].max_queued = 2;  // beta's quota.
  Server server(registry, config);
  ASSERT_TRUE(server.Start().ok());

  // Stall serving so pushes pile up in the queue.
  FaultInjector::Get().ArmProbabilistic(FaultSite::kSimtWorker, 1.0, /*seed=*/5);
  std::vector<std::future<StatusOr<InferenceResponse>>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(server.Submit(RequestFor({0}, "beta")));
  }
  // The shared queue (capacity 64) still has room for everyone else.
  for (int i = 0; i < 10; ++i) {
    futures.push_back(server.Submit(RequestFor({0}, "alpha")));
  }
  FaultInjector::Get().DisarmAll();
  for (auto& future : futures) {
    EXPECT_NO_THROW(future.get());
  }
  server.Shutdown();

  StatusOr<TenantStats> beta = server.tenant_stats("beta");
  StatusOr<TenantStats> alpha = server.tenant_stats("alpha");
  EXPECT_GT(beta->quota_shed, 0);
  EXPECT_EQ(beta->quota_shed, beta->shed);  // All of beta's sheds are its own quota.
  EXPECT_EQ(alpha->shed, 0);  // The victim shed nothing.
  EXPECT_EQ(alpha->served, 10);
  AssertTenantIdentity(beta.value(), "beta");
  AssertTenantIdentity(alpha.value(), "alpha");
  const ServerStats global = server.stats();
  EXPECT_EQ(global.quota_shed, beta->quota_shed);
  EXPECT_EQ(global.shed, global.quota_shed);  // No capacity sheds in this run.
  bool quota_shed_traced = false;
  server.tracer()->ForEachRetained([&](const trace::RequestTrace& t) {
    quota_shed_traced = quota_shed_traced || (std::strcmp(t.outcome(), "quota_shed") == 0 &&
                                              (t.flags() & trace::kShed) != 0);
  });
  EXPECT_TRUE(quota_shed_traced);
}

TEST(MultiTenantServeTest, RogueTenantFaultsDoNotDegradeItsNeighbors) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto registry = std::make_shared<ModelRegistry>();
  ASSERT_TRUE(registry->Register("model-a", data, GcnFactory(data)).has_value());
  ASSERT_TRUE(registry->Register("model-b", data, GcnFactory(data)).has_value());

  ServeConfig config = ThreeTenantConfig();
  // Every forward the rogue runs hits an injected allocation fault; retries
  // are exhausted quickly and its breaker trips.
  config.tenants[1].fault_spec = "alloc:p=1.0:seed=7";
  config.tenants[1].max_queued = 4;
  config.max_retries = 1;
  config.retry_base_backoff_ms = 0.05;
  config.breaker_trip_after = 2;
  config.breaker_probe_interval_ms = 5.0;
  Server server(registry, config);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::future<StatusOr<InferenceResponse>>> futures;
  for (int round = 0; round < 12; ++round) {
    futures.push_back(server.Submit(RequestFor({round % 5}, "beta")));
    futures.push_back(server.Submit(RequestFor({round % 5}, "alpha")));
    futures.push_back(server.Submit(RequestFor({round % 5}, "gamma")));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& future : futures) {
    EXPECT_NO_THROW(future.get());
  }
  server.Shutdown();

  StatusOr<TenantStats> alpha = server.tenant_stats("alpha");
  StatusOr<TenantStats> beta = server.tenant_stats("beta");
  StatusOr<TenantStats> gamma = server.tenant_stats("gamma");
  // Victims: every request served fresh, zero degraded/failed/expired.
  EXPECT_EQ(alpha->served, 12);
  EXPECT_EQ(gamma->served, 12);
  EXPECT_EQ(alpha->degraded + alpha->failed + alpha->expired + alpha->shed, 0);
  EXPECT_EQ(gamma->degraded + gamma->failed + gamma->expired + gamma->shed, 0);
  // The rogue paid for its own faults: degraded (LKG) or failed answers, a
  // tripped breaker, retries — none of which leaked into the victims' stats.
  EXPECT_GT(beta->degraded + beta->failed, 0);
  EXPECT_EQ(beta->served, 0);
  EXPECT_GE(beta->breaker_trips, 1);
  EXPECT_EQ(alpha->breaker_trips, 0);
  EXPECT_EQ(gamma->breaker_trips, 0);
  for (const auto* t : {&alpha, &beta, &gamma}) {
    AssertTenantIdentity(t->value(), "tenant");
  }
  // The rogue's breaker is scoped to it alone.
  EXPECT_NE(server.tenant_breaker_state("beta").value(), BreakerState::kClosed);
  EXPECT_EQ(server.tenant_breaker_state("alpha").value(), BreakerState::kClosed);
}

// ---- Hot swap -----------------------------------------------------------------------------------

TEST(MultiTenantServeTest, HotSwapUnderLoadLosesNothingAndPinsVersions) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto registry = std::make_shared<ModelRegistry>();
  ASSERT_TRUE(registry->Register("model-a", data, GcnFactory(data)).has_value());

  ServeConfig config;
  config.queue_capacity = 256;
  config.max_batch = 8;
  config.max_batch_delay_ms = 0.2;
  TenantConfig tenant;
  tenant.name = "alpha";
  tenant.model_id = "model-a";
  config.tenants = {tenant};
  Server server(registry, config);
  ASSERT_TRUE(server.Start().ok());
  const uint64_t fingerprint_v1 = server.serving_fingerprint();

  // Stage v2 = current weights nudged, written as a tagged checkpoint.
  const std::string path = TempPath("seastar_mt_swap.ckpt");
  {
    auto scratch = SmallGcn(data);
    WriteTaggedCheckpoint(*scratch, "model-a", path, /*delta=*/0.125f);
  }

  // Sustained submission across the swap point.
  std::atomic<bool> stop{false};
  std::vector<std::future<StatusOr<InferenceResponse>>> futures;
  std::mutex futures_mutex;
  std::thread load([&] {
    int i = 0;
    while (!stop.load()) {
      auto f = server.Submit(RequestFor({i++ % 6}, "alpha"));
      std::lock_guard<std::mutex> lock(futures_mutex);
      futures.push_back(std::move(f));
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  StatusOr<int64_t> swapped = server.HotSwap("model-a", path);
  ASSERT_TRUE(swapped.has_value()) << swapped.status().ToString();
  EXPECT_EQ(swapped.value(), 2);
  EXPECT_NE(server.serving_fingerprint(), fingerprint_v1);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  load.join();

  // Every in-flight request was served by the version it was admitted
  // against; versions are monotone in admission order; nothing was lost.
  int64_t last_version = 1;
  int64_t v1_answers = 0, v2_answers = 0;
  for (auto& future : futures) {
    StatusOr<InferenceResponse> r = future.get();
    ASSERT_TRUE(r.has_value()) << r.status().ToString();
    EXPECT_FALSE(r->degraded);
    EXPECT_GE(r->model_version, last_version);
    last_version = r->model_version;
    (r->model_version == 1 ? v1_answers : v2_answers)++;
  }
  EXPECT_GT(v1_answers, 0);  // The swap happened mid-stream...
  EXPECT_GT(v2_answers, 0);  // ...and traffic continued on the new weights.

  // Zero requests shed or failed because of the swap.
  const ServerStats mid = server.stats();
  EXPECT_EQ(mid.shed, 0);
  EXPECT_EQ(mid.failed, 0);
  EXPECT_EQ(mid.expired, 0);
  EXPECT_EQ(mid.swaps, 1);
  EXPECT_EQ(mid.swap_failures, 0);

  // v1 drains and retires (in-flight pins released at fulfillment).
  for (int i = 0; i < 100 && server.stats().swap_retired == 0; ++i) {
    ASSERT_TRUE(server.Infer(RequestFor({0}, "alpha")).has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.stats().swap_retired, 1);
  EXPECT_EQ(registry->pending_retirements(), 0);

  // Post-flip steady state: same architecture -> every plan from the cache,
  // every tensor from the pool. A settle round first (response-tensor shapes
  // seen before may still miss the pool on the very first post-flip gather).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server.Infer(RequestFor({1, 2}, "alpha")).has_value());
  }
  PlanCache& plans = PlanCache::Get();
  TensorAllocator& allocator = TensorAllocator::Get();
  const uint64_t misses_before = plans.misses();
  const uint64_t mallocs_before = allocator.fresh_mallocs();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.Infer(RequestFor({1, 2}, "alpha")).has_value());
  }
  EXPECT_EQ(plans.misses(), misses_before);
  EXPECT_EQ(allocator.fresh_mallocs(), mallocs_before);

  // Swap lifecycle left its trail in the flight recorder.
  bool saw_flip = false, saw_retire = false;
  for (const FlightEvent& event : FlightRecorder::Get().Snapshot()) {
    if (std::strcmp(event.category, "swap") != 0) {
      continue;
    }
    if (std::strncmp(event.detail, "flip", 4) == 0) {
      saw_flip = true;
    }
    if (std::strncmp(event.detail, "retire", 6) == 0) {
      saw_retire = true;
    }
  }
  EXPECT_TRUE(saw_flip);
  EXPECT_TRUE(saw_retire);

  server.Shutdown();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");
}

TEST(MultiTenantServeTest, SwapFailuresLeaveTheOldVersionServing) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto registry = std::make_shared<ModelRegistry>();
  ASSERT_TRUE(registry->Register("model-a", data, GcnFactory(data)).has_value());
  ServeConfig config;
  TenantConfig tenant;
  tenant.name = "alpha";
  tenant.model_id = "model-a";
  config.tenants = {tenant};
  Server server(registry, config);
  ASSERT_TRUE(server.Start().ok());

  // Missing checkpoint: staging fails, v1 stays live.
  StatusOr<int64_t> missing = server.HotSwap("model-a", "/nonexistent/v2.ckpt");
  EXPECT_FALSE(missing.has_value());
  EXPECT_EQ(registry->Lookup("model-a")->version(), 1);

  // Wrong-tag checkpoint: the tag check refuses it before any weights move.
  const std::string alien = TempPath("seastar_mt_alien.ckpt");
  {
    auto scratch = SmallGcn(data);
    WriteTaggedCheckpoint(*scratch, "someone-else", alien);
  }
  StatusOr<int64_t> mismatched = server.HotSwap("model-a", alien);
  EXPECT_EQ(mismatched.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry->Lookup("model-a")->version(), 1);
  EXPECT_GE(server.stats().swap_failures, 2);
  EXPECT_EQ(server.stats().swaps, 0);

  // Serving never blinked.
  EXPECT_TRUE(server.Infer(RequestFor({0}, "alpha")).has_value());
  server.Shutdown();
  std::filesystem::remove(alien);
  std::filesystem::remove(alien + ".prev");
}

TEST(MultiTenantServeTest, OpenBreakerProbesTheSwappedVersionAndCloses) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto registry = std::make_shared<ModelRegistry>();
  ASSERT_TRUE(registry->Register("model-a", data, GcnFactory(data)).has_value());
  ServeConfig config;
  config.max_retries = 0;
  config.breaker_trip_after = 2;
  // So long that only NoteBackendReplaced's backdating can admit a probe
  // within this test's lifetime: recovery proves the swap reset the clock.
  config.breaker_probe_interval_ms = 60000.0;
  TenantConfig tenant;
  tenant.name = "alpha";
  tenant.model_id = "model-a";
  config.tenants = {tenant};
  Server server(registry, config);
  ASSERT_TRUE(server.Start().ok());

  // Trip the breaker on v1 with a sustained outage.
  FaultInjector::Get().Arm(FaultSite::kTensorAlloc, /*after_n=*/0, /*count=*/1'000'000'000);
  for (int i = 0; i < 8 && server.tenant_breaker_state("alpha").value() != BreakerState::kOpen;
       ++i) {
    StatusOr<InferenceResponse> r = server.Infer(RequestFor({0}, "alpha"));
    ASSERT_TRUE(r.has_value()) << r.status().ToString();
  }
  ASSERT_EQ(server.tenant_breaker_state("alpha").value(), BreakerState::kOpen);
  FaultInjector::Get().DisarmAll();
  TensorAllocator::Get().ClearInjectedFailure();

  // While open (and far from the probe interval), answers are degraded.
  StatusOr<InferenceResponse> during = server.Infer(RequestFor({1}, "alpha"));
  ASSERT_TRUE(during.has_value());
  EXPECT_TRUE(during->degraded);

  // Swap in v2. The breaker's failure history described v1; the very next
  // batch must probe v2 and close on its success.
  const std::string path = TempPath("seastar_mt_breaker_swap.ckpt");
  {
    auto scratch = SmallGcn(data);
    WriteTaggedCheckpoint(*scratch, "model-a", path, /*delta=*/0.0625f);
  }
  StatusOr<int64_t> swapped = server.HotSwap("model-a", path);
  ASSERT_TRUE(swapped.has_value()) << swapped.status().ToString();

  StatusOr<InferenceResponse> after = server.Infer(RequestFor({2}, "alpha"));
  ASSERT_TRUE(after.has_value()) << after.status().ToString();
  EXPECT_FALSE(after->degraded);
  EXPECT_EQ(after->model_version, 2);
  EXPECT_EQ(server.tenant_breaker_state("alpha").value(), BreakerState::kClosed);
  StatusOr<TenantStats> stats = server.tenant_stats("alpha");
  EXPECT_GE(stats->breaker_recoveries, 1);

  server.Shutdown();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");
}

// ---- Metrics ------------------------------------------------------------------------------------

TEST(MultiTenantServeTest, PerTenantMetricsMirrorTenantStats) {
  ScopedFaultClear clear;
  metrics::MetricsRegistry& metrics_registry = metrics::MetricsRegistry::Get();
  const auto counter = [&metrics_registry](const std::string& name) {
    return metrics_registry.GetCounter(name)->value();
  };
  // Tests share the process registry: work on deltas against unique names.
  const std::vector<std::string> tenants = {"mt-metrics-alpha", "mt-metrics-beta",
                                            "mt-metrics-gamma"};
  const std::vector<std::string> outcomes = {"submitted", "rejected", "shed",    "quota_shed",
                                             "served",    "degraded", "expired", "failed"};
  const auto tenant_counter = [&counter](const std::string& outcome, const std::string& tenant) {
    return counter("seastar_serve_tenant_" + outcome + "_total{tenant=\"" + tenant + "\"}");
  };
  std::map<std::string, int64_t> before;
  for (const std::string& tenant : tenants) {
    for (const std::string& outcome : outcomes) {
      before[tenant + "/" + outcome] = tenant_counter(outcome, tenant);
    }
  }
  const int64_t swaps0 = counter("seastar_serve_swaps_total");

  Dataset data = SmallDataset();
  auto registry = std::make_shared<ModelRegistry>();
  ASSERT_TRUE(registry->Register("model-a", data, GcnFactory(data)).has_value());
  ServeConfig config;
  config.queue_capacity = 6;
  config.warmup = false;  // No last-known-good answers before a tenant's first success.
  config.max_retries = 0;
  config.breaker_trip_after = 1000;  // Every failure reaches the fallback decision.
  for (const std::string& name : tenants) {
    TenantConfig tenant;
    tenant.name = name;
    tenant.model_id = "model-a";
    config.tenants.push_back(tenant);
  }
  config.tenants[1].max_queued = 2;
  Server server(registry, config);
  ASSERT_TRUE(server.Start().ok());

  // Served (seeding alpha's and gamma's last-known-good answers), and
  // rejected: once by a tenant, once naming no tenant.
  ASSERT_TRUE(server.Infer(RequestFor({0}, tenants[0])).has_value());
  ASSERT_TRUE(server.Infer(RequestFor({1}, tenants[2])).has_value());
  EXPECT_FALSE(server.Infer(RequestFor({-1}, tenants[0])).has_value());
  EXPECT_FALSE(server.Infer(RequestFor({0}, "mt-metrics-nobody")).has_value());

  // Every forward fails: gamma answers from its cache, beta has none.
  FaultInjector::Get().Arm(FaultSite::kTensorAlloc, /*after_n=*/0, /*count=*/1'000'000'000);
  StatusOr<InferenceResponse> cached = server.Infer(RequestFor({2}, tenants[2]));
  StatusOr<InferenceResponse> failed = server.Infer(RequestFor({2}, tenants[1]));
  FaultInjector::Get().DisarmAll();
  TensorAllocator::Get().ClearInjectedFailure();
  ASSERT_TRUE(cached.has_value()) << cached.status().ToString();
  EXPECT_TRUE(cached->degraded);
  EXPECT_FALSE(failed.has_value());

  // Stalled serving: once the serving thread holds gamma's first request in
  // a stalled forward, gamma's hopeless deadline expires, beta bursts past
  // its quota and alpha past the shared capacity.
  FaultInjector::Get().ArmProbabilistic(FaultSite::kSimtWorker, 1.0, /*seed=*/5);
  std::vector<std::future<StatusOr<InferenceResponse>>> futures;
  futures.push_back(server.Submit(RequestFor({3}, tenants[2])));
  while (server.queue_depth() > 0) {
    std::this_thread::yield();
  }
  futures.push_back(server.Submit(RequestFor({3}, tenants[2], /*deadline_ms=*/0.05)));
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.Submit(RequestFor({0}, tenants[1])));
  }
  for (int i = 0; i < 12; ++i) {
    futures.push_back(server.Submit(RequestFor({0}, tenants[0])));
  }
  FaultInjector::Get().DisarmAll();
  for (auto& future : futures) {
    EXPECT_NO_THROW(future.get());
  }

  const std::string path = TempPath("seastar_mt_metrics_swap.ckpt");
  {
    auto scratch = SmallGcn(data);
    WriteTaggedCheckpoint(*scratch, "model-a", path, /*delta=*/0.5f);
  }
  ASSERT_TRUE(server.HotSwap("model-a", path).has_value());
  server.Shutdown();
  EXPECT_EQ(counter("seastar_serve_swaps_total") - swaps0, 1);

  // Each tenant's exported series equals its tenant_stats() field, and the
  // global identity fields are the sums over tenants (plus the rejection
  // that named no tenant, which only counts globally).
  std::vector<int64_t> sums(outcomes.size(), 0);
  for (const std::string& tenant : tenants) {
    StatusOr<TenantStats> stats = server.tenant_stats(tenant);
    ASSERT_TRUE(stats.has_value());
    AssertTenantIdentity(stats.value(), tenant);
    const std::vector<int64_t> fields = {stats->submitted, stats->rejected, stats->shed,
                                         stats->quota_shed, stats->served,  stats->degraded,
                                         stats->expired,   stats->failed};
    for (size_t i = 0; i < outcomes.size(); ++i) {
      EXPECT_EQ(tenant_counter(outcomes[i], tenant) - before[tenant + "/" + outcomes[i]],
                fields[i])
          << tenant << " " << outcomes[i];
      sums[i] += fields[i];
    }
  }
  const ServerStats global = server.stats();
  const std::vector<int64_t> global_fields = {global.submitted, global.rejected, global.shed,
                                              global.quota_shed, global.served, global.degraded,
                                              global.expired,   global.failed};
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(global_fields[i], sums[i] + (outcomes[i] == "rejected" ? 1 : 0)) << outcomes[i];
    EXPECT_GT(sums[i], 0) << "no request ended as " << outcomes[i];
  }
  EXPECT_GT(global.shed, global.quota_shed);  // Capacity sheds too.
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");
}

}  // namespace
}  // namespace seastar
