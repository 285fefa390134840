#include "src/exec/seastar_executor.h"

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstring>

#include "src/common/deadline.h"
#include "src/common/logging.h"
#include "src/common/profiler.h"
#include "src/common/tracing.h"
#include "src/exec/compiled_program.h"
#include "src/exec/kernel_counter.h"
#include "src/exec/plan_cache.h"
#include "src/exec/pointwise.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/allocator.h"
#include "src/tensor/simd.h"

namespace seastar {
namespace {

inline const float* Resolve(const Operand& op, const float* scratch, int64_t key, int64_t nbr,
                            int64_t eid, int32_t etype, int64_t typed_stride) {
  switch (op.src) {
    case Src::kReg:
      return scratch + op.reg;
    case Src::kKeyRow:
      return op.base + key * op.width;
    case Src::kNbrRow:
      return op.base + nbr * op.width;
    case Src::kEdgeRow:
      return op.base + eid * op.width;
    case Src::kTypedRow:
      return op.base + (static_cast<int64_t>(etype) * typed_stride + nbr) * op.width;
    case Src::kScalar:
      return &op.scalar;
  }
  return nullptr;
}

// Evaluates one pointwise instruction into scratch.
inline void EvalInstr(const Instr& instr, float* scratch, const float* a, const float* b) {
  PointwiseApply(instr.kind, instr.attr, scratch + instr.out_reg, instr.width, a, instr.a.width,
                 b, instr.b.width);
}

inline void AtomicStoreRow(float* dst, const float* src, int32_t width) {
  // Benign overwrite of identical values from concurrent FAT groups;
  // relaxed atomics keep it defined behaviour.
  for (int32_t j = 0; j < width; ++j) {
    std::atomic_ref<float>(dst[j]).store(src[j], std::memory_order_relaxed);
  }
}

// Per-worker hot-loop counter, cacheline-padded against false sharing.
struct alignas(64) WorkerEdgeCount {
  int64_t edges = 0;
};

// ---- FastPath edge loops ------------------------------------------------------------------------
// Operand resolution for the specialized loops: registers, immediates and key
// rows do not change across one vertex's edge loop and collapse to a single
// pointer; nbr/edge rows index their base per slot.
enum class RowVary : uint8_t { kFixed, kNbr, kEdge };

inline RowVary ClassifyRow(const Operand& op, const float* scratch, int64_t key,
                           const float** fixed) {
  switch (op.src) {
    case Src::kReg:
      *fixed = scratch + op.reg;
      return RowVary::kFixed;
    case Src::kScalar:
      *fixed = &op.scalar;
      return RowVary::kFixed;
    case Src::kKeyRow:
      *fixed = op.base + key * op.width;
      return RowVary::kFixed;
    case Src::kNbrRow:
      return RowVary::kNbr;
    case Src::kEdgeRow:
      return RowVary::kEdge;
    case Src::kTypedRow:
      break;  // Excluded by fast-path detection.
  }
  return RowVary::kFixed;
}

// Fused replacements for the interpreted edge loop (semantics identical; see
// FastPath in compiled_program.h). These exist because per-edge dispatch —
// two operand switches, an op switch and an agg switch — costs more than the
// arithmetic itself at GNN feature widths. Every row goes through the
// runtime-dispatched SIMD kernels of src/tensor/simd.h, so the rounding of
// each column is fixed by those kernels, not by per-site code generation.
inline void RunFastEdgeLoop(const CompiledUnit& unit, const Csr& csr, float* scratch, float* acc,
                            int64_t key, int64_t begin, int64_t end) {
  const AggInstr& agg = unit.aggs[0];
  const int32_t w = agg.width;

  if (unit.fast_path == FastPath::kCopySum) {
    const Operand& in = agg.input;
    const float* fixed = nullptr;
    const RowVary vary = ClassifyRow(in, scratch, key, &fixed);
    const auto row = [&](int64_t slot) {
      return vary == RowVary::kFixed
                 ? fixed
                 : in.base + (vary == RowVary::kNbr ? csr.nbr_ids[static_cast<size_t>(slot)]
                                                    : csr.edge_ids[static_cast<size_t>(slot)]) *
                                 in.width;
    };
    if (in.width == 1 && w > 1) {
      for (int64_t slot = begin; slot < end; ++slot) {
        simd::AddScalarRow(acc, row(slot)[0], w);
      }
    } else {
      for (int64_t slot = begin; slot < end; ++slot) {
        simd::AddRow(acc, row(slot), w);
      }
    }
    return;
  }

  // kMulSum: acc[j] += a[j] * b[j], width-1 broadcast on either operand.
  const Instr& mul = unit.edge[0];
  const int32_t wa = mul.a.width;
  const int32_t wb = mul.b.width;
  const float* a_fixed = nullptr;
  const float* b_fixed = nullptr;
  const RowVary a_vary = ClassifyRow(mul.a, scratch, key, &a_fixed);
  const RowVary b_vary = ClassifyRow(mul.b, scratch, key, &b_fixed);
  const auto a_row = [&](int64_t slot) {
    return a_vary == RowVary::kFixed
               ? a_fixed
               : mul.a.base + (a_vary == RowVary::kNbr ? csr.nbr_ids[static_cast<size_t>(slot)]
                                                       : csr.edge_ids[static_cast<size_t>(slot)]) *
                                  wa;
  };
  const auto b_row = [&](int64_t slot) {
    return b_vary == RowVary::kFixed
               ? b_fixed
               : mul.b.base + (b_vary == RowVary::kNbr ? csr.nbr_ids[static_cast<size_t>(slot)]
                                                       : csr.edge_ids[static_cast<size_t>(slot)]) *
                                  wb;
  };
  if (wa == w && wb == 1) {
    for (int64_t slot = begin; slot < end; ++slot) {
      simd::AxpyRow(acc, a_row(slot), b_row(slot)[0], w);
    }
  } else if (wa == 1 && wb == w) {
    for (int64_t slot = begin; slot < end; ++slot) {
      simd::AxpyRow(acc, b_row(slot), a_row(slot)[0], w);
    }
  } else if (wa == w && wb == w) {
    for (int64_t slot = begin; slot < end; ++slot) {
      simd::MulAddRow(acc, a_row(slot), b_row(slot), w);
    }
  } else {
    // Unusual width mix; broadcast-indexed scalar form.
    for (int64_t slot = begin; slot < end; ++slot) {
      const float* x = a_row(slot);
      const float* y = b_row(slot);
      for (int32_t j = 0; j < w; ++j) {
        acc[j] = __builtin_fmaf(x[wa == 1 ? 0 : j], y[wb == 1 ? 0 : j], acc[j]);
      }
    }
  }
}

// Key-side instructions (loop-invariant pre ops and post-aggregation ops):
// evaluated once per key vertex, materialized as key rows when planned.
inline void RunKeyInstrs(const std::vector<Instr>& instrs, float* scratch, int64_t key,
                         int64_t typed_stride) {
  for (const Instr& instr : instrs) {
    const float* a = Resolve(instr.a, scratch, key, /*nbr=*/0, /*eid=*/0, 0, typed_stride);
    const float* b =
        instr.binary ? Resolve(instr.b, scratch, key, 0, 0, 0, typed_stride) : nullptr;
    EvalInstr(instr, scratch, a, b);
    if (instr.mat == MatKind::kKeyRow) {
      std::memcpy(instr.mat_base + key * instr.width, scratch + instr.out_reg,
                  static_cast<size_t>(instr.width) * sizeof(float));
    }
  }
}

// One key vertex of a fast-path unit: its single sum/mean aggregation
// initializes to zero and finalizes with at most a scale and a row store.
inline void RunFastVertex(const CompiledUnit& unit, const Csr& csr, float* scratch, int64_t key,
                          int64_t begin, int64_t end) {
  const AggInstr& agg = unit.aggs[0];
  float* acc = scratch + agg.acc_reg;
  std::fill_n(acc, agg.width, 0.0f);
  RunFastEdgeLoop(unit, csr, scratch, acc, key, begin, end);
  if (agg.kind == OpKind::kAggMean) {
    simd::ScaleRow(acc, end > begin ? 1.0f / static_cast<float>(end - begin) : 0.0f, agg.width);
  }
  if (agg.materialized) {
    std::memcpy(agg.mat_base + key * agg.width, acc,
                static_cast<size_t>(agg.width) * sizeof(float));
  }
}

// Key vertices [first, last) of a fast-path unit without key-side
// instructions: per vertex only the zeroed accumulator, the fused edge loop,
// the mean scale and the row store. The same body as RunFastVertex, but with
// the unit's fields read once per block instead of once per vertex; at
// narrow rows (GCN's 16- and 7-wide serving layers) that per-vertex
// overhead is a large share of the unit.
inline void RunBareFastBlock(const CompiledUnit& unit, const Csr& csr, float* scratch,
                             int64_t first, int64_t last, int64_t* edges) {
  const AggInstr& agg = unit.aggs[0];
  const int32_t w = agg.width;
  float* const acc = scratch + agg.acc_reg;
  const bool mean = agg.kind == OpKind::kAggMean;
  for (int64_t k = first; k < last; ++k) {
    const int64_t key = csr.position_vertex[static_cast<size_t>(k)];
    const int64_t begin = csr.offsets[static_cast<size_t>(k)];
    const int64_t end = csr.offsets[static_cast<size_t>(k) + 1];
    if (edges != nullptr) {
      *edges += end - begin;
    }
    for (int32_t j = 0; j < w; ++j) {
      acc[j] = 0.0f;
    }
    RunFastEdgeLoop(unit, csr, scratch, acc, key, begin, end);
    if (mean) {
      simd::ScaleRow(acc, end > begin ? 1.0f / static_cast<float>(end - begin) : 0.0f, w);
    }
    std::memcpy(agg.mat_base + key * w, acc, static_cast<size_t>(w) * sizeof(float));
  }
}

// One key vertex of any other unit: every aggregation kind, typed
// (two-level) aggregations flushed at edge-type boundaries (§6.3.5).
inline void RunInterpretedVertex(const CompiledUnit& unit, const Csr& csr, float* scratch,
                                 int64_t key, int64_t begin, int64_t end, int64_t typed_stride) {
  // 2. Aggregation initialization (Alg. 1 line 7).
  for (const AggInstr& agg : unit.aggs) {
    float* acc = scratch + agg.acc_reg;
    const float init =
        (agg.kind == OpKind::kAggMax || agg.kind == OpKind::kAggTypeSumThenMax) ? -FLT_MAX
                                                                                : 0.0f;
    for (int32_t j = 0; j < agg.width; ++j) {
      acc[j] = init;
    }
    if (agg.inner_reg > 0 || agg.kind == OpKind::kAggTypeSumThenMax ||
        agg.kind == OpKind::kAggTypedToSrc) {
      float* inner = scratch + agg.inner_reg;
      for (int32_t j = 0; j < agg.width; ++j) {
        inner[j] = 0.0f;
      }
    }
  }

  const int64_t degree = end - begin;
  int32_t prev_type = -1;
  // 3. Edge-sequential loop (Alg. 1 lines 8-14).
  for (int64_t slot = begin; slot < end; ++slot) {
    const int64_t nbr = csr.nbr_ids[static_cast<size_t>(slot)];
    const int64_t eid = csr.edge_ids[static_cast<size_t>(slot)];
    const int32_t etype =
        csr.edge_types.empty() ? 0 : csr.edge_types[static_cast<size_t>(slot)];

    // Edge-type boundary: flush two-level aggregations (§6.3.5).
    if (unit.has_typed_agg && etype != prev_type && prev_type >= 0) {
      for (const AggInstr& agg : unit.aggs) {
        float* inner = scratch + agg.inner_reg;
        float* acc = scratch + agg.acc_reg;
        if (agg.kind == OpKind::kAggTypeSumThenMax) {
          for (int32_t j = 0; j < agg.width; ++j) {
            acc[j] = std::max(acc[j], inner[j]);
            inner[j] = 0.0f;
          }
        } else if (agg.kind == OpKind::kAggTypedToSrc) {
          float* row = agg.mat_base +
                       (static_cast<int64_t>(prev_type) * agg.typed_rows + key) * agg.width;
          std::memcpy(row, inner, static_cast<size_t>(agg.width) * sizeof(float));
          for (int32_t j = 0; j < agg.width; ++j) {
            inner[j] = 0.0f;
          }
        }
      }
    }
    prev_type = etype;

    for (const Instr& instr : unit.edge) {
      const float* a = Resolve(instr.a, scratch, key, nbr, eid, etype, typed_stride);
      const float* b =
          instr.binary ? Resolve(instr.b, scratch, key, nbr, eid, etype, typed_stride)
                       : nullptr;
      EvalInstr(instr, scratch, a, b);
      if (instr.mat == MatKind::kEdgeRow) {
        std::memcpy(instr.mat_base + eid * instr.width, scratch + instr.out_reg,
                    static_cast<size_t>(instr.width) * sizeof(float));
      } else if (instr.mat == MatKind::kNbrRow) {
        AtomicStoreRow(instr.mat_base + nbr * instr.width, scratch + instr.out_reg,
                       instr.width);
      }
    }
    for (const AggInstr& agg : unit.aggs) {
      const float* value =
          Resolve(agg.input, scratch, key, nbr, eid, etype, typed_stride);
      const int32_t wv = agg.input.width;
      switch (agg.kind) {
        case OpKind::kAggSum:
        case OpKind::kAggMean: {
          float* acc = scratch + agg.acc_reg;
          for (int32_t j = 0; j < agg.width; ++j) {
            acc[j] += value[wv == 1 ? 0 : j];
          }
          break;
        }
        case OpKind::kAggMax: {
          float* acc = scratch + agg.acc_reg;
          for (int32_t j = 0; j < agg.width; ++j) {
            acc[j] = std::max(acc[j], value[wv == 1 ? 0 : j]);
          }
          break;
        }
        case OpKind::kAggTypeSumThenMax:
        case OpKind::kAggTypedToSrc: {
          float* inner = scratch + agg.inner_reg;
          for (int32_t j = 0; j < agg.width; ++j) {
            inner[j] += value[wv == 1 ? 0 : j];
          }
          break;
        }
        default:
          break;
      }
    }
  }

  // 4. Aggregation output (Alg. 1 lines 15-16).
  for (const AggInstr& agg : unit.aggs) {
    float* acc = scratch + agg.acc_reg;
    if (unit.has_typed_agg && prev_type >= 0) {
      float* inner = scratch + agg.inner_reg;
      if (agg.kind == OpKind::kAggTypeSumThenMax) {
        for (int32_t j = 0; j < agg.width; ++j) {
          acc[j] = std::max(acc[j], inner[j]);
        }
      } else if (agg.kind == OpKind::kAggTypedToSrc) {
        float* row = agg.mat_base +
                     (static_cast<int64_t>(prev_type) * agg.typed_rows + key) * agg.width;
        std::memcpy(row, inner, static_cast<size_t>(agg.width) * sizeof(float));
      }
    }
    if (agg.kind == OpKind::kAggMean) {
      const float inv = degree > 0 ? 1.0f / static_cast<float>(degree) : 0.0f;
      simd::ScaleRow(acc, inv, agg.width);
    }
    if ((agg.kind == OpKind::kAggMax || agg.kind == OpKind::kAggTypeSumThenMax) &&
        degree == 0) {
      for (int32_t j = 0; j < agg.width; ++j) {
        acc[j] = 0.0f;
      }
    }
    if (agg.materialized && agg.kind != OpKind::kAggTypedToSrc) {
      std::memcpy(agg.mat_base + key * agg.width, acc,
                  static_cast<size_t>(agg.width) * sizeof(float));
    }
  }
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

  // Plan + register-compile once per distinct GIR, process-wide (keyed on
  // content fingerprint and fusion options): epoch N>1 reuses the compiled
  // template and only rebinds base pointers below.
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

  // Per-run base-pointer table, indexed by node id; PatchUnit splices these
  // into copies of the compiled templates.
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

    CompiledUnit unit = program->units[unit_index];  // Copy the template...
    PatchUnit(&unit, node_base, num_vertices);       // ...and bind this run's pointers.

    const Csr& csr =
        unit.orientation == GraphType::kDst ? graph.in_csr() : graph.out_csr();

    // ---- Launch -------------------------------------------------------------------------------
    const int64_t typed_stride = num_vertices;
    const int num_workers = ThreadPool::Current().num_threads() + 1;

    // Per-worker register scratch, one cacheline-aligned row per worker so
    // concurrent FAT groups never false-share. A pooled Tensor rather than
    // fresh vectors: in steady state (same GIR, same pool) the allocation is
    // a pool hit, so the whole epoch runs with zero fresh mallocs.
    const int64_t scratch_stride =
        (static_cast<int64_t>(std::max(unit.scratch_floats, 1)) + 15) & ~int64_t{15};
    Tensor scratch_tensor = Tensor::Zeros({num_workers, scratch_stride});
    float* scratch_base = scratch_tensor.data();

    // Profiling-only per-worker traversal counters, merged after the launch
    // (never touched when profiling is off; one padded slot per worker so
    // the edge loop stays contention-free when it is on).
    std::vector<WorkerEdgeCount> edge_counts(
        profiler != nullptr ? static_cast<size_t>(num_workers) : 0);
    WorkerEdgeCount* edge_slots = edge_counts.empty() ? nullptr : edge_counts.data();

    const FatGeometry geometry =
        program->GeometryFor(unit_index, num_vertices, options_.block_size);
    SimtLaunchStats launch_stats;
    SimtLaunchParams launch;
    launch.num_blocks = geometry.num_blocks;
    launch.schedule = options_.schedule;
    launch.chunk_size = options_.dynamic_chunk;
    launch.stats = profiler != nullptr ? &launch_stats : nullptr;

    // Chosen from the compiled unit: a fast-path unit whose only per-vertex
    // work is its aggregation runs the bare block loop.
    const bool bare = unit.fast_path != FastPath::kNone && unit.invariant.empty() &&
                      unit.post.empty() && unit.aggs[0].materialized;
    LaunchBlocks(launch, [&](int64_t block_id, int worker) {
      float* scratch = scratch_base + worker * scratch_stride;
      const int64_t first = geometry.FirstItemOfBlock(block_id);
      const int64_t last = std::min<int64_t>(first + geometry.groups_per_block, num_vertices);
      if (bare) {
        RunBareFastBlock(unit, csr, scratch, first, last,
                         edge_slots != nullptr ? &edge_slots[worker].edges : nullptr);
        return;
      }
      for (int64_t k = first; k < last; ++k) {
        const int64_t key = unit.needs_edge_loop || !csr.position_vertex.empty()
                                ? csr.position_vertex[static_cast<size_t>(k)]
                                : k;
        // 1. Loop-invariant key-side ops.
        RunKeyInstrs(unit.invariant, scratch, key, typed_stride);
        const int64_t begin = unit.needs_edge_loop ? csr.offsets[static_cast<size_t>(k)] : 0;
        const int64_t end = unit.needs_edge_loop ? csr.offsets[static_cast<size_t>(k) + 1] : 0;
        if (edge_slots != nullptr) {
          edge_slots[worker].edges += end - begin;
        }
        // 2-4. Aggregation init, edge-sequential loop and output (Alg. 1
        // lines 7-16): fused fast path when the unit's shape allows,
        // interpreted otherwise.
        if (unit.fast_path != FastPath::kNone) {
          RunFastVertex(unit, csr, scratch, key, begin, end);
        } else {
          RunInterpretedVertex(unit, csr, scratch, key, begin, end, typed_stride);
        }
        // 5. Post-aggregation vertex ops (Alg. 1 line 17).
        RunKeyInstrs(unit.post, scratch, key, typed_stride);
      }
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
      if (unit.fast_path != FastPath::kNone) {
        event->simd_isa = simd::SimdIsaName();
      }
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
