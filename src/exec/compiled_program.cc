#include "src/exec/compiled_program.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace seastar {
namespace {

// Trace label for a fused unit: "unit3:Mul+AggSum".
std::string UnitLabel(const GirGraph& gir, const FusedUnit& fused, size_t index) {
  std::string label = "unit" + std::to_string(index) + ":";
  for (size_t i = 0; i < fused.nodes.size(); ++i) {
    if (label.size() > 48) {
      label += "+…";
      break;
    }
    if (i > 0) {
      label += "+";
    }
    label += OpKindName(gir.node(fused.nodes[i]).kind);
  }
  return label;
}

// Where a unit's node lives while the unit runs.
struct Place {
  Home home = Home::kKeyRegs;
  int32_t offset = 0;
};

// Lowers one fused unit to steps (see CompiledUnit).
CompiledUnit LowerUnit(const GirGraph& gir, const ExecutionPlan& plan, const FusedUnit& fused,
                       const std::vector<float>& scalar_value) {
  CompiledUnit unit;
  unit.orientation = fused.orientation;
  unit.needs_edge_loop = fused.needs_edge_loop;
  const auto materialized = [&](int32_t id) { return plan.materialized[static_cast<size_t>(id)]; };
  const auto typed_agg = [](OpKind kind) {
    return kind == OpKind::kAggTypeSumThenMax || kind == OpKind::kAggTypedToSrc;
  };
  // Key-side (invariant and post) nodes have the orientation's type; edge
  // nodes are E-typed or neighbour-side.
  const auto on_edge = [&](const Node& node) {
    return !IsAggregation(node.kind) &&
           plan.stage[static_cast<size_t>(node.id)] != NodeStage::kPost &&
           node.type != unit.orientation && node.type != GraphType::kParam;
  };

  // The unit's one edge op, when it is a register-only multiply feeding the
  // unit's single sum or mean: folded into the aggregation as a fused
  // multiply-sum (one fma per column).
  int32_t fused_mul = -1;
  {
    std::vector<int32_t> edge_nodes;
    std::vector<int32_t> agg_nodes;
    bool typed = false;
    for (int32_t id : fused.nodes) {
      const Node& node = gir.node(id);
      if (IsAggregation(node.kind)) {
        agg_nodes.push_back(id);
        typed = typed || typed_agg(node.kind);
      } else if (on_edge(node)) {
        edge_nodes.push_back(id);
      }
    }
    if (unit.needs_edge_loop && !typed && agg_nodes.size() == 1 && edge_nodes.size() == 1) {
      const Node& agg = gir.node(agg_nodes[0]);
      const Node& mul = gir.node(edge_nodes[0]);
      const bool sum_like = agg.kind == OpKind::kAggSum || agg.kind == OpKind::kAggMean;
      const auto plain = [&](int32_t input) {
        return gir.node(input).kind != OpKind::kInputTypedSrc;
      };
      if (sum_like && mul.kind == OpKind::kMul && !materialized(mul.id) &&
          agg.inputs[0] == mul.id && mul.width == agg.width && plain(mul.inputs[0]) &&
          plain(mul.inputs[1])) {
        fused_mul = mul.id;
      }
    }
  }

  // Register allocation: key-side values and accumulators in the key file,
  // edge values in the edge file. A materialized key or edge row is its own
  // home; a neighbour row is computed into an edge register and then stored.
  std::map<int32_t, Place> place;
  int32_t key_cursor = 0;
  int32_t edge_cursor = 0;
  for (int32_t id : fused.nodes) {
    const Node& node = gir.node(id);
    unit.max_width = std::max(unit.max_width, node.width);
    if (id == fused_mul) {
      continue;
    }
    if (IsAggregation(node.kind)) {
      place[id] = {Home::kKeyRegs, key_cursor};
      key_cursor += node.width;
      if (typed_agg(node.kind)) {
        key_cursor += node.width;  // The per-type partial sum.
      }
    } else if (on_edge(node)) {
      if (materialized(id) && node.type == GraphType::kEdge) {
        place[id] = {Home::kNode, 0};
      } else {
        place[id] = {Home::kEdgeRegs, edge_cursor};
        edge_cursor += node.width;
      }
    } else if (materialized(id)) {
      place[id] = {Home::kNode, 0};
    } else {
      place[id] = {Home::kKeyRegs, key_cursor};
      key_cursor += node.width;
    }
  }
  unit.key_stride = key_cursor;
  unit.edge_stride = edge_cursor;
  unit.chunk_slots = std::clamp<int32_t>(kEdgeFileFloats / std::max(edge_cursor, 1), 16,
                                         kMaxRunRows);

  // The operand reading node `id` from a key-side (per-vertex) or an edge
  // (per-slot) step.
  const auto operand = [&](int32_t id, bool edge_stage) {
    const Node& in = gir.node(id);
    StepOperand op;
    op.width = in.width;
    op.stride = in.width;
    auto it = place.find(id);
    if (it != place.end()) {
      op.home = it->second.home;
      op.offset = it->second.offset;
      if (op.home == Home::kKeyRegs) {
        op.index = edge_stage ? Index::kKeyLocal : Index::kItem;
        op.stride = unit.key_stride;
      } else if (op.home == Home::kEdgeRegs) {
        op.index = Index::kItem;
        op.stride = unit.edge_stride;
      } else {
        op.node = id;
        op.index = in.type == GraphType::kEdge ? Index::kEid : Index::kKey;
      }
    } else if (in.type == GraphType::kParam) {
      op.home = Home::kImm;
      op.index = Index::kZero;
      op.imm = scalar_value[static_cast<size_t>(id)];
    } else {
      op.home = Home::kNode;
      op.node = id;
      if (in.kind == OpKind::kInputTypedSrc) {
        op.index = Index::kTyped;
      } else if (in.type == GraphType::kEdge) {
        op.index = Index::kEid;
      } else {
        op.index = in.type == unit.orientation ? Index::kKey : Index::kNbr;
      }
    }
    SEASTAR_CHECK(edge_stage || op.index == Index::kZero || op.index == Index::kItem ||
                  op.index == Index::kKey)
        << "key-side op reads node %" << id << " per edge";
    if (edge_stage) {
      unit.uses_slot_keys = unit.uses_slot_keys || op.index == Index::kKey;
      unit.uses_slot_locals = unit.uses_slot_locals || op.index == Index::kKeyLocal;
      unit.uses_slot_typed = unit.uses_slot_typed || op.index == Index::kTyped;
    }
    return op;
  };

  for (int32_t id : fused.nodes) {
    const Node& node = gir.node(id);
    if (id == fused_mul) {
      continue;
    }
    if (IsAggregation(node.kind)) {
      AggStep agg;
      agg.kind = node.kind;
      agg.width = node.width;
      agg.acc = place.at(id).offset;
      agg.inner = agg.acc + node.width;
      if (fused_mul >= 0) {
        const Node& mul = gir.node(fused_mul);
        agg.fused_mul = true;
        agg.a = operand(mul.inputs[0], /*edge_stage=*/true);
        agg.b = operand(mul.inputs[1], /*edge_stage=*/true);
      } else {
        agg.a = operand(node.inputs[0], /*edge_stage=*/true);
        agg.b = agg.a;
      }
      if (typed_agg(node.kind)) {
        agg.prev_type = unit.typed_aggs++;
      }
      if (materialized(id)) {
        agg.node = id;
      }
      agg.kernel = SelectAggKernel(node.kind, agg.fused_mul, agg.width, agg.a.width, agg.b.width);
      unit.aggs.push_back(agg);
      continue;
    }
    const bool edge_stage = on_edge(node);
    Step step;
    step.kind = node.kind;
    step.width = node.width;
    step.attr = node.attr;
    step.a = operand(node.inputs[0], edge_stage);
    step.b = node.inputs.size() > 1 ? operand(node.inputs[1], edge_stage) : step.a;
    step.out = operand(id, edge_stage);
    step.kernel = SelectRowKernel(node.kind, step.width, step.a.width, step.b.width);
    std::vector<Step>& list = plan.stage[static_cast<size_t>(id)] == NodeStage::kPost
                                  ? unit.post_steps
                                  : (edge_stage ? unit.edge_steps : unit.key_steps);
    list.push_back(step);
    if (edge_stage && materialized(id) && node.type != GraphType::kEdge) {
      // A neighbour-side value: concurrent workers store identical rows.
      Step store;
      store.kernel = &AtomicCopyRows;
      store.width = node.width;
      store.a = step.out;
      store.b = step.out;
      store.out.home = Home::kNode;
      store.out.node = id;
      store.out.index = Index::kNbr;
      store.out.width = node.width;
      store.out.stride = node.width;
      unit.edge_steps.push_back(store);
    }
  }
  SEASTAR_CHECK(unit.needs_edge_loop || (unit.edge_steps.empty() && unit.aggs.empty()))
      << "edge ops in a unit without an edge loop";
  return unit;
}

}  // namespace

FatGeometry CompiledProgram::GeometryFor(size_t unit_index, int64_t num_items,
                                         int block_size) const {
  const GeometryKey key{unit_index, num_items, block_size};
  std::lock_guard<std::mutex> lock(geometry_mutex_);
  auto it = geometry_cache_.find(key);
  if (it == geometry_cache_.end()) {
    it = geometry_cache_
             .emplace(key, FatGeometry::Compute(num_items, units[unit_index].max_width,
                                                block_size))
             .first;
  }
  return it->second;
}

std::shared_ptr<CompiledProgram> CompileProgram(const GirGraph& gir,
                                                const FusionOptions& options) {
  auto result = std::make_shared<CompiledProgram>();
  CompiledProgram& program = *result;
  program.plan = BuildExecutionPlan(gir, options);
  const ExecutionPlan& plan = program.plan;

  // Host-side evaluation of P-typed scalars. These depend only on kConst
  // attrs (inputs of a P node are themselves P, in topological order), so
  // they are part of the compile artifact.
  program.scalar_value.assign(static_cast<size_t>(gir.num_nodes()), 0.0f);
  std::vector<float>& scalar_value = program.scalar_value;
  for (const Node& node : gir.nodes()) {
    if (node.kind == OpKind::kConst) {
      scalar_value[static_cast<size_t>(node.id)] = node.attr;
      continue;
    }
    if (node.type != GraphType::kParam || IsLeaf(node.kind)) {
      continue;
    }
    const auto sv = [&](int32_t id) { return scalar_value[static_cast<size_t>(id)]; };
    float value = 0.0f;
    switch (node.kind) {
      case OpKind::kAdd:
        value = sv(node.inputs[0]) + sv(node.inputs[1]);
        break;
      case OpKind::kSub:
        value = sv(node.inputs[0]) - sv(node.inputs[1]);
        break;
      case OpKind::kMul:
        value = sv(node.inputs[0]) * sv(node.inputs[1]);
        break;
      case OpKind::kDiv:
        value = sv(node.inputs[0]) / sv(node.inputs[1]);
        break;
      case OpKind::kNeg:
        value = -sv(node.inputs[0]);
        break;
      case OpKind::kExp:
        value = std::exp(sv(node.inputs[0]));
        break;
      default:
        SEASTAR_LOG(Fatal) << "unsupported scalar op " << OpKindName(node.kind);
    }
    scalar_value[static_cast<size_t>(node.id)] = value;
  }

  program.units.reserve(plan.units.size());
  program.unit_labels.reserve(plan.units.size());
  for (size_t unit_index = 0; unit_index < plan.units.size(); ++unit_index) {
    const FusedUnit& fused = plan.units[unit_index];
    program.unit_labels.push_back(UnitLabel(gir, fused, unit_index));
    program.units.push_back(LowerUnit(gir, plan, fused, scalar_value));
  }
  return result;
}

}  // namespace seastar
