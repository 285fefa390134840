#include "src/exec/seastar_executor.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <new>

#include "src/common/deadline.h"
#include "src/common/logging.h"
#include "src/common/profiler.h"
#include "src/common/tracing.h"
#include "src/exec/compiled_program.h"
#include "src/exec/kernel_counter.h"
#include "src/exec/plan_cache.h"
#include "src/exec/row_kernels.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/allocator.h"
#include "src/tensor/simd.h"

namespace seastar {
namespace {

// Per-worker hot-loop counter, cacheline-padded against false sharing.
struct alignas(64) WorkerEdgeCount {
  int64_t edges = 0;
};

// The identity and all-zero index arrays of every run (Index::kItem /
// Index::kZero).
struct StaticIndex {
  int32_t item[kMaxRunRows];
  int32_t zero[kMaxRunRows];
};

const StaticIndex& RunIndex() {
  static const StaticIndex index = [] {
    StaticIndex built{};
    for (int32_t r = 0; r < kMaxRunRows; ++r) {
      built.item[r] = r;
    }
    return built;
  }();
  return index;
}

// What a worker's steps bind against for one run of rows: its register
// files, this run's tensors, and the index array of every Index kind.
struct Frame {
  float* key_regs = nullptr;
  float* edge_regs = nullptr;
  float* const* node_base = nullptr;
  const int32_t* index[kNumIndex] = {};
};

inline RowRef Bind(const StepOperand& op, const Frame& frame) {
  float* base = nullptr;
  switch (op.home) {
    case Home::kImm:
      base = const_cast<float*>(&op.imm);
      break;
    case Home::kKeyRegs:
      base = frame.key_regs + op.offset;
      break;
    case Home::kEdgeRegs:
      base = frame.edge_regs + op.offset;
      break;
    case Home::kNode:
      base = frame.node_base[op.node];
      break;
  }
  return {base, frame.index[static_cast<int>(op.index)], op.stride};
}

inline void RunSteps(const std::vector<Step>& steps, const Frame& frame, int64_t rows) {
  for (const Step& step : steps) {
    const RowArgs args{Bind(step.out, frame), Bind(step.a, frame), Bind(step.b, frame),
                       step.width,            step.a.width,        step.b.width,
                       step.attr};
    step.kernel(args, rows);
  }
}

// Floats of one worker's scratch row: key-register file (one row per block
// vertex), edge-register file (one row per chunk slot), then the int32
// per-slot index arrays and per-vertex last-type arrays.
struct WorkerLayout {
  int64_t key_floats = 0;
  int64_t edge_floats = 0;
  int64_t int_words = 0;
  int64_t stride = 0;  // Multiple of 16 floats: every row starts on a cache line.

  WorkerLayout(const CompiledUnit& unit, int64_t block_vertices) {
    key_floats = block_vertices * unit.key_stride;
    edge_floats = static_cast<int64_t>(unit.chunk_slots) * unit.edge_stride;
    int_words = 3 * static_cast<int64_t>(unit.chunk_slots) + unit.typed_aggs * block_vertices;
    stride = (key_floats + edge_floats + int_words + 15) & ~int64_t{15};
  }
};

// Runs one block of key vertices (CSR positions [first, last)) through a
// unit (Algorithm 1): key-side steps, then the block's CSR slots chunk by
// chunk through the edge steps and aggregations, then the post steps.
void RunBlock(const CompiledUnit& unit, const Csr& csr, const WorkerLayout& layout,
              float* worker, float* const* node_base, int64_t typed_rows, int64_t first,
              int64_t last) {
  const StaticIndex& run_index = RunIndex();
  const int64_t n = last - first;
  const int32_t* keys = csr.position_vertex.data() + first;
  float* const key_file = worker;
  // The int32 arrays start their lifetime here, in the float scratch.
  int32_t* const ints = new (worker + layout.key_floats + layout.edge_floats)
      int32_t[static_cast<size_t>(layout.int_words)];

  Frame frame;
  frame.node_base = node_base;
  frame.index[static_cast<int>(Index::kZero)] = run_index.zero;
  frame.index[static_cast<int>(Index::kItem)] = run_index.item;
  const auto run_key_steps = [&](const std::vector<Step>& steps) {
    for (int64_t i0 = 0; i0 < n; i0 += kMaxRunRows) {
      frame.key_regs = key_file + i0 * unit.key_stride;
      frame.index[static_cast<int>(Index::kKey)] = keys + i0;
      RunSteps(steps, frame, std::min<int64_t>(kMaxRunRows, n - i0));
    }
  };

  // 1. Loop-invariant key-side ops.
  run_key_steps(unit.key_steps);

  if (unit.needs_edge_loop) {
    const int64_t chunk = unit.chunk_slots;
    const int64_t* offsets = csr.offsets.data() + first;
    int32_t* slot_keys = ints;
    int32_t* slot_locals = ints + chunk;
    int32_t* slot_typed = ints + 2 * chunk;
    int32_t* prev_types = ints + 3 * chunk;
    const int32_t* edge_types = csr.edge_types.empty() ? nullptr : csr.edge_types.data();

    AggArgs agg_base;
    agg_base.acc_stride = unit.key_stride;
    agg_base.offsets = offsets;
    agg_base.num_vertices = n;
    agg_base.typed_rows = typed_rows;
    agg_base.keys = keys;
    const auto agg_args = [&](const AggStep& agg) {
      AggArgs args = agg_base;
      args.w = agg.width;
      args.wa = agg.a.width;
      args.wb = agg.b.width;
      args.acc = key_file + agg.acc;
      args.inner = key_file + agg.inner;
      args.prev_type = agg.prev_type >= 0 ? prev_types + agg.prev_type * n : nullptr;
      args.typed_out = agg.node >= 0 ? node_base[agg.node] : nullptr;
      return args;
    };
    // 2. Aggregation initialization (Alg. 1 line 7).
    for (const AggStep& agg : unit.aggs) {
      InitAggregation(agg.kind, agg_args(agg));
    }

    // 3. The block's CSR slots, one chunk at a time (Alg. 1 lines 8-14).
    frame.key_regs = key_file;
    frame.edge_regs = worker + layout.key_floats;
    frame.index[static_cast<int>(Index::kKey)] = slot_keys;
    frame.index[static_cast<int>(Index::kKeyLocal)] = slot_locals;
    frame.index[static_cast<int>(Index::kTyped)] = slot_typed;
    int64_t v = 0;  // First block vertex whose slots reach the chunk.
    for (int64_t s0 = offsets[0]; s0 < offsets[n]; s0 += chunk) {
      const int64_t s1 = std::min(s0 + chunk, offsets[n]);
      while (offsets[v + 1] <= s0) {
        ++v;
      }
      frame.index[static_cast<int>(Index::kNbr)] = csr.nbr_ids.data() + s0;
      frame.index[static_cast<int>(Index::kEid)] = csr.edge_ids.data() + s0;
      if (unit.uses_slot_keys || unit.uses_slot_locals) {
        for (int64_t i = v; i < n && offsets[i] < s1; ++i) {
          const int64_t hi = std::min(offsets[i + 1], s1) - s0;
          for (int64_t r = std::max(offsets[i], s0) - s0; r < hi; ++r) {
            slot_keys[r] = keys[i];
            slot_locals[r] = static_cast<int32_t>(i);
          }
        }
      }
      if (unit.uses_slot_typed) {
        for (int64_t r = 0; r < s1 - s0; ++r) {
          const int64_t type = edge_types != nullptr ? edge_types[s0 + r] : 0;
          slot_typed[r] = static_cast<int32_t>(type * typed_rows + csr.nbr_ids[s0 + r]);
        }
      }
      RunSteps(unit.edge_steps, frame, s1 - s0);
      for (const AggStep& agg : unit.aggs) {
        AggArgs args = agg_args(agg);
        args.a = Bind(agg.a, frame);
        args.b = Bind(agg.b, frame);
        args.first_vertex = v;
        args.s0 = s0;
        args.s1 = s1;
        args.edge_type = edge_types != nullptr ? edge_types + s0 : run_index.zero;
        agg.kernel(args);
      }
    }

    // 4. Aggregation output (Alg. 1 lines 15-16).
    for (const AggStep& agg : unit.aggs) {
      FinishAggregation(agg.kind, agg_args(agg),
                        agg.node >= 0 && agg.kind != OpKind::kAggTypedToSrc
                            ? node_base[agg.node]
                            : nullptr);
    }
  }

  // 5. Post-aggregation vertex ops (Alg. 1 line 17).
  run_key_steps(unit.post_steps);
}

}  // namespace

ExecutionPlan SeastarExecutor::Plan(const GirGraph& gir) const {
  FusionOptions fusion_options;
  fusion_options.enable_fusion = options_.enable_fusion;
  return BuildExecutionPlan(gir, fusion_options);
}

RunResult SeastarExecutor::Run(const GirGraph& gir, const Graph& graph,
                               const FeatureMap& features, const RunContext& ctx) const {
  // Hoisted once: with no (enabled) profiler installed every hook below is a
  // null-pointer test on the orchestration path only.
  Profiler* profiler =
      ctx.profiler != nullptr && ctx.profiler->enabled() ? ctx.profiler : nullptr;
  ProfileScope run_span(profiler, "seastar", "exec");
  const TensorAllocator& allocator = TensorAllocator::Get();
  const uint64_t run_live_before = allocator.live_bytes();
  const uint64_t run_peak_before = allocator.peak_bytes();
  const uint64_t run_pool_hits_before = allocator.pool_hits();
  const uint64_t run_fresh_mallocs_before = allocator.fresh_mallocs();

  // Plan + lower to steps once per distinct GIR, process-wide (keyed on
  // content fingerprint and fusion options): epoch N>1 reuses the compiled
  // steps and only builds this run's node-id -> base pointer table.
  FusionOptions fusion_options;
  fusion_options.enable_fusion = options_.enable_fusion;
  bool plan_hit = false;
  const std::shared_ptr<const CompiledProgram> program =
      PlanCache::Get().GetOrCompile(gir, fusion_options, &plan_hit);
  const ExecutionPlan& plan = program->plan;

  const int64_t num_vertices = graph.num_vertices();
  const int64_t num_edges = graph.num_edges();
  const int32_t num_types = graph.num_edge_types();

  // Materialized tensors by node id.
  auto saved = std::make_shared<std::map<int32_t, Tensor>>();
  // Leaf bindings by node id (not owned by `saved` — caller inputs, plus the
  // graph's cached degree tensors).
  std::map<int32_t, Tensor> leaf_value;

  // Bind leaves. Scalars (P-typed constants and arithmetic on them) were
  // already evaluated at compile time into program->scalar_value.
  for (const Node& node : gir.nodes()) {
    switch (node.kind) {
      case OpKind::kInput: {
        if (node.type == GraphType::kEdge) {
          auto it = features.edge.find(node.name);
          SEASTAR_CHECK(it != features.edge.end()) << "missing edge feature '" << node.name << "'";
          SEASTAR_CHECK_EQ(it->second.dim(0), num_edges);
          SEASTAR_CHECK_EQ(it->second.dim(1), node.width);
          leaf_value[node.id] = it->second;
        } else {
          auto it = features.vertex.find(node.name);
          SEASTAR_CHECK(it != features.vertex.end())
              << "missing vertex feature '" << node.name << "'";
          SEASTAR_CHECK_EQ(it->second.dim(0), num_vertices);
          SEASTAR_CHECK_EQ(it->second.dim(1), node.width);
          leaf_value[node.id] = it->second;
        }
        break;
      }
      case OpKind::kInputTypedSrc: {
        auto it = features.typed_vertex.find(node.name);
        SEASTAR_CHECK(it != features.typed_vertex.end())
            << "missing typed feature '" << node.name << "'";
        SEASTAR_CHECK_EQ(it->second.ndim(), 3);
        SEASTAR_CHECK_EQ(it->second.dim(0), num_types);
        SEASTAR_CHECK_EQ(it->second.dim(1), num_vertices);
        SEASTAR_CHECK_EQ(it->second.dim(2), node.width);
        leaf_value[node.id] = it->second;
        break;
      }
      case OpKind::kDegree:
        // Shallow copies of the graph's lazily-built caches.
        leaf_value[node.id] =
            node.type == GraphType::kDst ? graph.InDegreeTensor() : graph.OutDegreeTensor();
        break;
      default:
        break;
    }
  }

  // Allocate materialized tensors (served from the allocator's pool in
  // steady state — same shapes every epoch).
  for (int32_t id = 0; id < gir.num_nodes(); ++id) {
    if (!plan.materialized[static_cast<size_t>(id)]) {
      continue;
    }
    const Node& node = gir.node(id);
    Tensor tensor;
    if (node.kind == OpKind::kAggTypedToSrc) {
      tensor = Tensor::Zeros({num_types, num_vertices, node.width});
    } else if (node.type == GraphType::kEdge) {
      tensor = Tensor({num_edges, node.width});
    } else {
      tensor = Tensor({num_vertices, node.width});
    }
    (*saved)[id] = std::move(tensor);
  }

  // Per-run base-pointer table, indexed by node id: steps bind their tensor
  // operands through it.
  std::vector<float*> node_base(static_cast<size_t>(gir.num_nodes()), nullptr);
  for (auto& [id, tensor] : leaf_value) {
    node_base[static_cast<size_t>(id)] = tensor.data();
  }
  for (auto& [id, tensor] : *saved) {
    node_base[static_cast<size_t>(id)] = tensor.data();
  }

  // ---- Run each unit ----------------------------------------------------------------------------
  for (size_t unit_index = 0; unit_index < plan.units.size(); ++unit_index) {
    // A fused unit is the smallest schedulable quantum: poll the ambient
    // request deadline here so an expired request aborts before claiming the
    // SIMT pool for another kernel. No-deadline runs pay one TLS load.
    CheckExecutionDeadline("seastar unit");
    const FusedUnit& fused = plan.units[unit_index];
    ProfileScope unit_span(
        profiler, profiler != nullptr ? program->unit_labels[unit_index] : std::string(),
        "unit");
    // Per-unit launch span on the ambient request trace: the finest grain of
    // tail-latency attribution ("which fused kernel ate the budget").
    trace::AmbientSpan trace_unit_span("unit");
    trace_unit_span.Detail(program->unit_labels[unit_index]);
    AddKernelLaunches(1);

    const CompiledUnit& unit = program->units[unit_index];
    const Csr& csr =
        unit.orientation == GraphType::kDst ? graph.in_csr() : graph.out_csr();
    const int num_workers = ThreadPool::Current().num_threads() + 1;
    const FatGeometry geometry =
        program->GeometryFor(unit_index, num_vertices, options_.block_size);

    // Per-worker scratch sized to one block, one 64-byte-aligned row per
    // worker so concurrent blocks never share a cache line. A pooled Tensor
    // rather than fresh vectors: in steady state (same GIR, same pool) the
    // allocation is a pool hit, so the whole epoch runs with zero fresh
    // mallocs.
    const WorkerLayout layout(
        unit, std::min<int64_t>(geometry.groups_per_block, std::max<int64_t>(num_vertices, 1)));
    Tensor scratch_tensor({num_workers * layout.stride + 16});
    float* const scratch_base = reinterpret_cast<float*>(
        (reinterpret_cast<uintptr_t>(scratch_tensor.data()) + 63) & ~uintptr_t{63});
    for (int worker = 0; worker < num_workers; ++worker) {
      SEASTAR_CHECK_EQ(reinterpret_cast<uintptr_t>(scratch_base + worker * layout.stride) % 64,
                       0u);
    }
    SEASTAR_CHECK(!unit.uses_slot_typed ||
                  static_cast<int64_t>(num_types) * num_vertices <= INT32_MAX)
        << "typed rows overflow the int32 slot index";

    // Profiling-only per-worker traversal counters, merged after the launch
    // (never touched when profiling is off; one padded slot per worker so
    // the edge loop stays contention-free when it is on).
    std::vector<WorkerEdgeCount> edge_counts(
        profiler != nullptr ? static_cast<size_t>(num_workers) : 0);
    WorkerEdgeCount* edge_slots = edge_counts.empty() ? nullptr : edge_counts.data();

    SimtLaunchStats launch_stats;
    SimtLaunchParams launch;
    launch.num_blocks = geometry.num_blocks;
    launch.schedule = options_.schedule;
    launch.chunk_size = options_.dynamic_chunk;
    launch.stats = profiler != nullptr ? &launch_stats : nullptr;
    LaunchBlocks(launch, [&](int64_t block_id, int worker) {
      const int64_t first = geometry.FirstItemOfBlock(block_id);
      const int64_t last = std::min<int64_t>(first + geometry.groups_per_block, num_vertices);
      if (edge_slots != nullptr && unit.needs_edge_loop) {
        edge_slots[worker].edges +=
            csr.offsets[static_cast<size_t>(last)] - csr.offsets[static_cast<size_t>(first)];
      }
      RunBlock(unit, csr, layout, scratch_base + worker * layout.stride, node_base.data(),
               num_vertices, first, last);
    });

    if (ProfileEvent* event = unit_span.event()) {
      int64_t edges = 0;
      for (const WorkerEdgeCount& count : edge_counts) {
        edges += count.edges;
      }
      event->edges = edges;
      event->fat_groups = num_vertices;
      event->fat_group_size = geometry.group_size;
      event->num_blocks = geometry.num_blocks;
      event->block_size = geometry.block_size;
      event->dispatches = launch_stats.dispatches;
      event->schedule = BlockScheduleName(options_.schedule);
      event->kernel_launches = 1;
      event->simd_isa = simd::SimdIsaName();
      for (int32_t id : fused.nodes) {
        if (!plan.materialized[static_cast<size_t>(id)]) {
          continue;
        }
        const Node& node = gir.node(id);
        const int64_t rows = node.kind == OpKind::kAggTypedToSrc
                                 ? static_cast<int64_t>(num_types) * num_vertices
                                 : (node.type == GraphType::kEdge ? num_edges : num_vertices);
        event->bytes_materialized += rows * node.width * static_cast<int64_t>(sizeof(float));
      }
    }
  }

  if (ProfileEvent* event = run_span.event()) {
    event->kernel_launches = static_cast<int64_t>(plan.units.size());
    event->alloc_delta_bytes = static_cast<int64_t>(allocator.live_bytes()) -
                               static_cast<int64_t>(run_live_before);
    event->peak_delta_bytes = static_cast<int64_t>(allocator.peak_bytes()) -
                              static_cast<int64_t>(run_peak_before);
    event->plan_cache_hits = plan_hit ? 1 : 0;
    event->plan_cache_misses = plan_hit ? 0 : 1;
    event->pool_hits = static_cast<int64_t>(allocator.pool_hits() - run_pool_hits_before);
    event->pool_misses =
        static_cast<int64_t>(allocator.fresh_mallocs() - run_fresh_mallocs_before);
  }

  RunResult result;
  result.saved = saved;
  for (size_t i = 0; i < gir.outputs().size(); ++i) {
    const int32_t id = gir.outputs()[i];
    auto it = saved->find(id);
    if (it != saved->end()) {
      result.outputs[gir.output_names()[i]] = it->second;
      continue;
    }
    // An output may be a leaf itself, e.g. a backward GIR whose input
    // gradient is exactly the incoming output gradient (identity adjoint).
    auto leaf_it = leaf_value.find(id);
    SEASTAR_CHECK(leaf_it != leaf_value.end()) << "output %" << id << " was not materialized";
    result.outputs[gir.output_names()[i]] = leaf_it->second;
  }
  return result;
}

}  // namespace seastar
