// The per-GIR compile artifact of the Seastar executor, split out of the
// executor so it can be cached across runs (see plan_cache.h).
//
// Compiling a GIR — fusion planning, register allocation, lowering every
// fused unit to a flat list of steps — depends only on the GIR's content and
// the fusion options, never on the graph or the feature bindings. A step is
// one GIR op run over a run of rows by a row kernel chosen here
// (row_kernels.h); everything the kernel needs except the per-run base
// pointers is fixed at compile time: the op, its width/broadcast pattern,
// each operand's home and row index, and where the result goes. Operands
// backed by a per-run tensor (leaf features, degree tensors, other units'
// materialized values) carry the GIR node id; the launch reads the base
// from its per-run node-id table when it binds the step, once per run of
// rows. The compiled program is never copied or patched per run.
//
// FAT geometry is cached here too, keyed by (unit, num_items, block_size):
// geometry depends only on those plus the unit's max feature width, so a
// graph change (different num_vertices) or option change (block_size) misses
// naturally and recomputes — no explicit invalidation hook needed.
#ifndef SRC_EXEC_COMPILED_PROGRAM_H_
#define SRC_EXEC_COMPILED_PROGRAM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/exec/row_kernels.h"
#include "src/gir/fusion.h"
#include "src/gir/ir.h"
#include "src/parallel/simt.h"

namespace seastar {

// Where an operand's (or output's) base pointer comes from.
enum class Home : uint8_t {
  kImm,       // The operand's own immediate (a P-typed value).
  kKeyRegs,   // The worker's key-register file: one row per block vertex.
  kEdgeRegs,  // The worker's edge-register file: one row per chunk slot.
  kNode,      // This run's tensor of GIR node `node`.
};

// Which index array addresses an operand's rows: row r of a run is
// base + index[r] * stride.
enum class Index : uint8_t {
  kZero,      // Row 0 for every r (immediates).
  kItem,      // r itself: the run's own register rows.
  kKeyLocal,  // Block-local row of the slot's key vertex (key registers read per edge).
  kKey,       // Key vertex id.
  kNbr,       // Neighbour vertex id of the slot.
  kEid,       // Edge id of the slot.
  kTyped,     // edge_type * num_vertices + neighbour id.
};
inline constexpr int kNumIndex = 7;

// Rows per run of a step: the launch's identity and all-zero index arrays
// have this length, so an edge chunk or a key-side run is at most this long.
inline constexpr int32_t kMaxRunRows = 512;
// Target size of a worker's edge-register file; wide units get shorter
// chunks (at least 16 slots).
inline constexpr int32_t kEdgeFileFloats = 8192;

struct StepOperand {
  Home home = Home::kImm;
  Index index = Index::kZero;
  int32_t offset = 0;  // Column offset inside a register file.
  int32_t node = -1;   // kNode: the GIR node whose tensor backs the rows.
  int32_t width = 1;
  int32_t stride = 1;  // Floats between consecutive rows.
  float imm = 0.0f;
};

// One pointwise op (or a neighbour-row store) over a run of rows.
struct Step {
  OpKind kind = OpKind::kIdentity;
  RowKernel kernel = nullptr;
  int32_t width = 1;  // Output width (input width for the reductions).
  float attr = 0.0f;
  StepOperand a;
  StepOperand b;
  StepOperand out;
};

// One aggregation, accumulated chunk by chunk into key registers.
struct AggStep {
  OpKind kind = OpKind::kAggSum;
  AggKernel kernel = nullptr;
  bool fused_mul = false;  // acc += a * b (the unit's only edge op, folded in).
  int32_t width = 1;
  StepOperand a;
  StepOperand b;           // fused_mul only.
  int32_t acc = 0;         // Key-register column of the accumulator.
  int32_t inner = 0;       // Key-register column of the per-type partial sum.
  int32_t prev_type = -1;  // Typed kinds: which per-vertex last-type array.
  int32_t node = -1;       // Materialized result node; -1 = register only.
};

struct CompiledUnit {
  GraphType orientation = GraphType::kDst;
  bool needs_edge_loop = false;
  std::vector<Step> key_steps;   // Loop-invariant key-side ops, per block vertex.
  std::vector<Step> edge_steps;  // Per-edge ops, per chunk of CSR slots.
  std::vector<AggStep> aggs;
  std::vector<Step> post_steps;  // Post-aggregation key-side ops.
  int32_t key_stride = 0;        // Floats per key-register row.
  int32_t edge_stride = 0;       // Floats per edge-register row.
  int32_t chunk_slots = 1;       // CSR slots per edge run.
  int32_t typed_aggs = 0;        // Per-vertex last-type arrays needed.
  // Per-slot index arrays the edge steps read, filled per chunk.
  bool uses_slot_keys = false;    // Index::kKey.
  bool uses_slot_locals = false;  // Index::kKeyLocal.
  bool uses_slot_typed = false;   // Index::kTyped (also the typed aggregations' edge types).
  int32_t max_width = 1;
};

// Everything about a GIR that survives from one run to the next. Immutable
// after CompileProgram (the geometry cache is a mutable memo); shared across
// threads via shared_ptr<const CompiledProgram>.
class CompiledProgram {
 public:
  ExecutionPlan plan;
  std::vector<CompiledUnit> units;
  std::vector<std::string> unit_labels;  // "unit3:Mul+AggSum" trace labels.
  // Host-side values of P-typed nodes (constants and arithmetic on
  // constants), indexed by node id. P values cannot depend on features or the
  // graph, so they are fixed at compile time.
  std::vector<float> scalar_value;

  // FAT geometry for one unit, memoized per (num_items, block_size).
  FatGeometry GeometryFor(size_t unit_index, int64_t num_items, int block_size) const;

 private:
  struct GeometryKey {
    size_t unit;
    int64_t items;
    int block;
    bool operator<(const GeometryKey& o) const {
      if (unit != o.unit) return unit < o.unit;
      if (items != o.items) return items < o.items;
      return block < o.block;
    }
  };
  mutable std::mutex geometry_mutex_;
  mutable std::map<GeometryKey, FatGeometry> geometry_cache_;
};

// Plans (fusion + materialization) and lowers `gir` to steps. Returned via
// shared_ptr because CompiledProgram owns a mutex (the geometry memo) and is
// therefore immovable.
std::shared_ptr<CompiledProgram> CompileProgram(const GirGraph& gir, const FusionOptions& options);

}  // namespace seastar

#endif  // SRC_EXEC_COMPILED_PROGRAM_H_
