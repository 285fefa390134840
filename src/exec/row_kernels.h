// Row kernels of the fused units: the loops a compiled step runs over a run
// of rows (a chunk of CSR slots, or a block's key vertices).
//
// A kernel is chosen per step at compile time (CompileProgram), templated on
// everything that does not change between rows — the op kind, the
// width/broadcast pattern, the aggregation kind — and called through a
// function pointer once per run. Every operand and output row is addressed
// the same way, `base + idx[r] * stride`: the index arrays (identity, slot
// key, neighbour id, edge id, typed row, all-zero for an immediate) are set
// up by the launch, so one kernel body serves every operand source and the
// per-row work has no branches beyond the op itself.
#ifndef SRC_EXEC_ROW_KERNELS_H_
#define SRC_EXEC_ROW_KERNELS_H_

#include <cstdint>

#include "src/gir/ir.h"

namespace seastar {

// One operand (or output) of a run: row r lives at base + idx[r] * stride.
struct RowRef {
  float* base = nullptr;
  const int32_t* idx = nullptr;
  int64_t stride = 0;

  float* Row(int64_t r) const { return base + static_cast<int64_t>(idx[r]) * stride; }
};

// A pointwise step over rows [0, n).
struct RowArgs {
  RowRef out;
  RowRef a;
  RowRef b;
  int32_t w = 1;   // Output width (input width for the reductions).
  int32_t wa = 1;
  int32_t wb = 1;
  float attr = 0.0f;
};
using RowKernel = void (*)(const RowArgs& args, int64_t n);

// An aggregation over the CSR slots [s0, s1) of one chunk, for the block's
// key vertices. Slot s of the chunk is row s - s0 of the inputs; vertex i's
// accumulator rows live at acc + i * acc_stride (and inner + i * acc_stride).
struct AggArgs {
  RowRef a;  // The aggregated value (the left factor of a fused multiply-sum).
  RowRef b;  // The right factor of a fused multiply-sum.
  int32_t w = 1;
  int32_t wa = 1;
  int32_t wb = 1;
  float* acc = nullptr;
  float* inner = nullptr;
  int64_t acc_stride = 0;
  const int64_t* offsets = nullptr;  // The block's slice of Csr::offsets.
  int64_t first_vertex = 0;          // First block vertex whose slots reach s0.
  int64_t num_vertices = 0;          // Vertices in the block.
  int64_t s0 = 0;
  int64_t s1 = 0;
  // Typed aggregations only.
  const int32_t* edge_type = nullptr;  // Per chunk row.
  int32_t* prev_type = nullptr;        // Per block vertex; -1 before its first slot.
  float* typed_out = nullptr;          // [num_types, typed_rows, w] result stack.
  int64_t typed_rows = 0;
  const int32_t* keys = nullptr;       // Key vertex id per block vertex.
};
using AggKernel = void (*)(const AggArgs& args);

// The kernel computing `kind` (a pointwise op) into rows of width `w` from
// inputs of widths `wa`, `wb`.
RowKernel SelectRowKernel(OpKind kind, int32_t w, int32_t wa, int32_t wb);

// Copies rows with relaxed atomic stores: materialization onto neighbour
// rows, which concurrent workers may write with identical values.
void AtomicCopyRows(const RowArgs& args, int64_t n);

// The kernel accumulating one chunk for aggregation `kind`. `fused_mul`
// selects the fused multiply-sum (acc += a * b with one fma per column, the
// simd:: row kernels), used only where the unit's single edge op is a
// multiply feeding a sum or mean.
AggKernel SelectAggKernel(OpKind kind, bool fused_mul, int32_t w, int32_t wa, int32_t wb);

// Resets the accumulators (and, for typed kinds, the per-type partial sums
// and last-seen types) of the block's vertices before its first chunk.
void InitAggregation(OpKind kind, const AggArgs& args);

// Completes the block's vertices after its last chunk (Alg. 1 lines 15-16):
// flushes the last edge type, divides a mean by the degree, zeroes the max
// of a vertex without edges, and stores each row to key row `keys[i]` of
// `mat` (null = not materialized; typed stacks are written by the flushes).
void FinishAggregation(OpKind kind, const AggArgs& args, float* mat);

}  // namespace seastar

#endif  // SRC_EXEC_ROW_KERNELS_H_
