#include "src/exec/row_kernels.h"

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cstring>

#include "src/common/logging.h"
#include "src/exec/pointwise.h"
#include "src/tensor/simd.h"

namespace seastar {
namespace {

// Width/broadcast pattern of a step, fixed at compile time.
enum class Pattern : uint8_t {
  kScalar,  // Every width is 1.
  kWW,      // Both inputs full width.
  kW1,      // b broadcasts.
  k1W,      // a broadcasts.
  kMixed,   // Anything else: the per-column indexed form.
};

Pattern PatternOf(int32_t w, int32_t wa, int32_t wb) {
  if (w == 1 && wa == 1 && wb == 1) {
    return Pattern::kScalar;
  }
  if (wa == w && wb == 1) {
    return Pattern::kW1;
  }
  if (wa == 1 && wb == w) {
    return Pattern::k1W;
  }
  if (wa == w && wb == w) {
    return Pattern::kWW;
  }
  return Pattern::kMixed;
}

// ---- Pointwise steps ---------------------------------------------------------------------------

template <OpKind K, Pattern P>
void BinaryRows(const RowArgs& r, int64_t n) {
  const int32_t w = r.w;
  const float attr = r.attr;
  for (int64_t s = 0; s < n; ++s) {
    float* o = r.out.Row(s);
    const float* x = r.a.Row(s);
    const float* y = r.b.Row(s);
    if constexpr (P == Pattern::kScalar) {
      o[0] = PointwiseColumn<K>(x[0], y[0], attr);
    } else if constexpr (P == Pattern::kW1) {
      const float t = y[0];
      for (int32_t j = 0; j < w; ++j) {
        o[j] = PointwiseColumn<K>(x[j], t, attr);
      }
    } else if constexpr (P == Pattern::k1W) {
      const float t = x[0];
      for (int32_t j = 0; j < w; ++j) {
        o[j] = PointwiseColumn<K>(t, y[j], attr);
      }
    } else if constexpr (P == Pattern::kWW) {
      for (int32_t j = 0; j < w; ++j) {
        o[j] = PointwiseColumn<K>(x[j], y[j], attr);
      }
    } else {
      for (int32_t j = 0; j < w; ++j) {
        o[j] = PointwiseColumn<K>(x[r.wa == 1 ? 0 : j], y[r.wb == 1 ? 0 : j], attr);
      }
    }
  }
}

// Unary ops: kScalar, k1W (a width-1 input broadcast — Identity only) or
// kWW (input as wide as the output).
template <OpKind K, Pattern P>
void UnaryRows(const RowArgs& r, int64_t n) {
  const int32_t w = r.w;
  const float attr = r.attr;
  for (int64_t s = 0; s < n; ++s) {
    float* o = r.out.Row(s);
    const float* x = r.a.Row(s);
    if constexpr (P == Pattern::kScalar) {
      o[0] = PointwiseColumn<K>(x[0], 0.0f, attr);
    } else if constexpr (P == Pattern::k1W) {
      const float t = x[0];
      for (int32_t j = 0; j < w; ++j) {
        o[j] = PointwiseColumn<K>(t, 0.0f, attr);
      }
    } else {
      for (int32_t j = 0; j < w; ++j) {
        o[j] = PointwiseColumn<K>(x[j], 0.0f, attr);
      }
    }
  }
}

void DotProductRows(const RowArgs& r, int64_t n) {
  for (int64_t s = 0; s < n; ++s) {
    r.out.Row(s)[0] = DotProductRow(r.a.Row(s), r.wa, r.b.Row(s), r.wb);
  }
}

void ReduceWidthSumRows(const RowArgs& r, int64_t n) {
  for (int64_t s = 0; s < n; ++s) {
    r.out.Row(s)[0] = ReduceWidthSumRow(r.a.Row(s), r.wa);
  }
}

template <OpKind K>
RowKernel BinaryKernel(Pattern p) {
  switch (p) {
    case Pattern::kScalar:
      return &BinaryRows<K, Pattern::kScalar>;
    case Pattern::kW1:
      return &BinaryRows<K, Pattern::kW1>;
    case Pattern::k1W:
      return &BinaryRows<K, Pattern::k1W>;
    case Pattern::kWW:
      return &BinaryRows<K, Pattern::kWW>;
    case Pattern::kMixed:
      break;
  }
  return &BinaryRows<K, Pattern::kMixed>;
}

template <OpKind K>
RowKernel UnaryKernel(int32_t w, int32_t wa) {
  if (w == 1) {
    return &UnaryRows<K, Pattern::kScalar>;
  }
  return wa == 1 ? &UnaryRows<K, Pattern::k1W> : &UnaryRows<K, Pattern::kWW>;
}

// ---- Aggregations ------------------------------------------------------------------------------

// Calls f(i, lo, hi) for every block vertex i with slots in the chunk,
// [lo, hi) being its chunk rows, in CSR slot order.
template <typename F>
inline void ForEachVertexRun(const AggArgs& g, F f) {
  for (int64_t i = g.first_vertex; i < g.num_vertices; ++i) {
    const int64_t begin = g.offsets[i];
    if (begin >= g.s1) {
      break;
    }
    const int64_t lo = std::max(begin, g.s0) - g.s0;
    const int64_t hi = std::min(g.offsets[i + 1], g.s1) - g.s0;
    if (lo < hi) {
      f(i, lo, hi);
    }
  }
}

struct AddInto {
  float operator()(float acc, float x) const { return acc + x; }
};
struct MaxInto {
  float operator()(float acc, float x) const { return std::max(acc, x); }
};

// acc = combine(acc, value), one combine per column and slot.
template <typename Combine, Pattern P>
void ReduceRows(const AggArgs& g) {
  const Combine combine;
  const int32_t w = g.w;
  ForEachVertexRun(g, [&](int64_t i, int64_t lo, int64_t hi) {
    float* acc = g.acc + i * g.acc_stride;
    if constexpr (P == Pattern::kScalar) {
      float value = acc[0];
      for (int64_t r = lo; r < hi; ++r) {
        value = combine(value, g.a.Row(r)[0]);
      }
      acc[0] = value;
    } else {
      for (int64_t r = lo; r < hi; ++r) {
        const float* x = g.a.Row(r);
        for (int32_t j = 0; j < w; ++j) {
          acc[j] = combine(acc[j], x[P == Pattern::k1W ? 0 : j]);
        }
      }
    }
  });
}

template <typename Combine>
AggKernel ReduceKernel(int32_t w, int32_t wa) {
  if (w == 1) {
    return &ReduceRows<Combine, Pattern::kScalar>;
  }
  return wa == 1 ? &ReduceRows<Combine, Pattern::k1W> : &ReduceRows<Combine, Pattern::kWW>;
}

// acc += a * b with one fma per column: the simd:: row kernels of the
// multiply-sum shape, in the order of the broadcast tests they always had.
template <Pattern P>
void MulSumRows(const AggArgs& g) {
  const int32_t w = g.w;
  ForEachVertexRun(g, [&](int64_t i, int64_t lo, int64_t hi) {
    float* acc = g.acc + i * g.acc_stride;
    for (int64_t r = lo; r < hi; ++r) {
      const float* x = g.a.Row(r);
      const float* y = g.b.Row(r);
      if constexpr (P == Pattern::kW1) {
        simd::AxpyRow(acc, x, y[0], w);
      } else if constexpr (P == Pattern::k1W) {
        simd::AxpyRow(acc, y, x[0], w);
      } else if constexpr (P == Pattern::kWW) {
        simd::MulAddRow(acc, x, y, w);
      } else {
        for (int32_t j = 0; j < w; ++j) {
          acc[j] = __builtin_fmaf(x[g.wa == 1 ? 0 : j], y[g.wb == 1 ? 0 : j], acc[j]);
        }
      }
    }
  });
}

// Closes vertex i's partial sum of edge type `type` (§6.3.5): into the outer
// max, or out as that type's row of the typed result stack.
template <OpKind K>
inline void FlushType(const AggArgs& g, int64_t i, int32_t type) {
  float* inner = g.inner + i * g.acc_stride;
  if constexpr (K == OpKind::kAggTypeSumThenMax) {
    float* acc = g.acc + i * g.acc_stride;
    for (int32_t j = 0; j < g.w; ++j) {
      acc[j] = std::max(acc[j], inner[j]);
    }
  } else {
    float* row = g.typed_out + (static_cast<int64_t>(type) * g.typed_rows + g.keys[i]) * g.w;
    std::memcpy(row, inner, static_cast<size_t>(g.w) * sizeof(float));
  }
  std::fill_n(inner, g.w, 0.0f);
}

template <OpKind K>
void TypedRows(const AggArgs& g) {
  ForEachVertexRun(g, [&](int64_t i, int64_t lo, int64_t hi) {
    float* inner = g.inner + i * g.acc_stride;
    int32_t& prev = g.prev_type[i];
    for (int64_t r = lo; r < hi; ++r) {
      const int32_t type = g.edge_type[r];
      if (prev >= 0 && type != prev) {
        FlushType<K>(g, i, prev);
      }
      prev = type;
      const float* x = g.a.Row(r);
      for (int32_t j = 0; j < g.w; ++j) {
        inner[j] += x[g.wa == 1 ? 0 : j];
      }
    }
  });
}

}  // namespace

RowKernel SelectRowKernel(OpKind kind, int32_t w, int32_t wa, int32_t wb) {
  return DispatchPointwise(kind, [&]<OpKind K>() -> RowKernel {
    if constexpr (K == OpKind::kDotProduct) {
      return &DotProductRows;
    } else if constexpr (K == OpKind::kReduceWidthSum) {
      return &ReduceWidthSumRows;
    } else if constexpr (ShapeOf(K) == PointwiseShape::kUnary) {
      return UnaryKernel<K>(w, wa);
    } else {
      return BinaryKernel<K>(PatternOf(w, wa, wb));
    }
  });
}

void AtomicCopyRows(const RowArgs& args, int64_t n) {
  // Benign overwrite of identical values from concurrent workers; relaxed
  // atomics keep it defined behaviour.
  for (int64_t s = 0; s < n; ++s) {
    float* o = args.out.Row(s);
    const float* x = args.a.Row(s);
    for (int32_t j = 0; j < args.w; ++j) {
      std::atomic_ref<float>(o[j]).store(x[j], std::memory_order_relaxed);
    }
  }
}

AggKernel SelectAggKernel(OpKind kind, bool fused_mul, int32_t w, int32_t wa, int32_t wb) {
  if (fused_mul) {
    switch (PatternOf(w, wa, wb)) {
      case Pattern::kScalar:
      case Pattern::kW1:
        return &MulSumRows<Pattern::kW1>;
      case Pattern::k1W:
        return &MulSumRows<Pattern::k1W>;
      case Pattern::kWW:
        return &MulSumRows<Pattern::kWW>;
      case Pattern::kMixed:
        return &MulSumRows<Pattern::kMixed>;
    }
  }
  switch (kind) {
    case OpKind::kAggSum:
    case OpKind::kAggMean:
      return ReduceKernel<AddInto>(w, wa);
    case OpKind::kAggMax:
      return ReduceKernel<MaxInto>(w, wa);
    case OpKind::kAggTypeSumThenMax:
      return &TypedRows<OpKind::kAggTypeSumThenMax>;
    case OpKind::kAggTypedToSrc:
      return &TypedRows<OpKind::kAggTypedToSrc>;
    default:
      SEASTAR_LOG(Fatal) << "not a fused aggregation: " << OpKindName(kind);
  }
  return nullptr;
}

void InitAggregation(OpKind kind, const AggArgs& g) {
  const bool max_like = kind == OpKind::kAggMax || kind == OpKind::kAggTypeSumThenMax;
  const bool typed = kind == OpKind::kAggTypeSumThenMax || kind == OpKind::kAggTypedToSrc;
  for (int64_t i = 0; i < g.num_vertices; ++i) {
    std::fill_n(g.acc + i * g.acc_stride, g.w, max_like ? -FLT_MAX : 0.0f);
    if (typed) {
      std::fill_n(g.inner + i * g.acc_stride, g.w, 0.0f);
      g.prev_type[i] = -1;
    }
  }
}

void FinishAggregation(OpKind kind, const AggArgs& g, float* mat) {
  for (int64_t i = 0; i < g.num_vertices; ++i) {
    float* acc = g.acc + i * g.acc_stride;
    const int64_t degree = g.offsets[i + 1] - g.offsets[i];
    switch (kind) {
      case OpKind::kAggMean:
        simd::ScaleRow(acc, degree > 0 ? 1.0f / static_cast<float>(degree) : 0.0f, g.w);
        break;
      case OpKind::kAggTypeSumThenMax:
        if (g.prev_type[i] >= 0) {
          FlushType<OpKind::kAggTypeSumThenMax>(g, i, g.prev_type[i]);
        }
        [[fallthrough]];
      case OpKind::kAggMax:
        if (degree == 0) {
          std::fill_n(acc, g.w, 0.0f);
        }
        break;
      case OpKind::kAggTypedToSrc:
        if (g.prev_type[i] >= 0) {
          FlushType<OpKind::kAggTypedToSrc>(g, i, g.prev_type[i]);
        }
        continue;  // Its rows are the typed stack, written by the flushes.
      default:
        break;
    }
    if (mat != nullptr) {
      std::memcpy(mat + static_cast<int64_t>(g.keys[i]) * g.w, acc,
                  static_cast<size_t>(g.w) * sizeof(float));
    }
  }
}

}  // namespace seastar
