// Scalar/vector evaluation of pointwise GIR ops, shared by the fused units'
// row kernels (src/exec/row_kernels.cc) and the baseline executors so all
// backends compute identical arithmetic (differences between systems must
// come from strategy, not math).
//
// Every op is defined once, as the expression for one column
// (PointwiseColumn<K>). The callers only differ in how they walk columns and
// rows; the per-column expression — and therefore how the compiler contracts
// it (e.g. TanhGrad's 1 - y*y) — is the same everywhere.
#ifndef SRC_EXEC_POINTWISE_H_
#define SRC_EXEC_POINTWISE_H_

#include <cmath>

#include "src/common/logging.h"
#include "src/gir/ir.h"

namespace seastar {

// How an op's columns map onto its inputs.
enum class PointwiseShape : uint8_t {
  kBinary,  // out[j] = f(a[j], b[j]), width-1 broadcast on either side.
  kUnary,   // out[j] = f(a[j]) (Identity also broadcasts a width-1 input).
  kReduce,  // out[0] = sum over the input width (DotProduct, ReduceWidthSum).
};

constexpr PointwiseShape ShapeOf(OpKind kind) {
  switch (kind) {
    case OpKind::kNeg:
    case OpKind::kExp:
    case OpKind::kLog:
    case OpKind::kRelu:
    case OpKind::kLeakyRelu:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kIdentity:
      return PointwiseShape::kUnary;
    case OpKind::kDotProduct:
    case OpKind::kReduceWidthSum:
      return PointwiseShape::kReduce;
    default:
      return PointwiseShape::kBinary;
  }
}

// One output column of a binary or unary op (unary ops ignore y). The *Grad
// ops take (grad, saved forward value).
template <OpKind K>
inline float PointwiseColumn(float x, float y, float attr) {
  if constexpr (K == OpKind::kAdd) {
    return x + y;
  } else if constexpr (K == OpKind::kSub) {
    return x - y;
  } else if constexpr (K == OpKind::kMul) {
    return x * y;
  } else if constexpr (K == OpKind::kDiv) {
    return x / y;
  } else if constexpr (K == OpKind::kEqualMask) {
    return x == y ? 1.0f : 0.0f;
  } else if constexpr (K == OpKind::kNeg) {
    return -x;
  } else if constexpr (K == OpKind::kExp) {
    return std::exp(x);
  } else if constexpr (K == OpKind::kLog) {
    return std::log(x);
  } else if constexpr (K == OpKind::kRelu) {
    return x > 0.0f ? x : 0.0f;
  } else if constexpr (K == OpKind::kLeakyRelu) {
    return x > 0.0f ? x : attr * x;
  } else if constexpr (K == OpKind::kSigmoid) {
    return 1.0f / (1.0f + std::exp(-x));
  } else if constexpr (K == OpKind::kTanh) {
    return std::tanh(x);
  } else if constexpr (K == OpKind::kIdentity) {
    return x;
  } else if constexpr (K == OpKind::kReluGrad) {
    return y > 0.0f ? x : 0.0f;
  } else if constexpr (K == OpKind::kLeakyReluGrad) {
    return y > 0.0f ? x : attr * x;
  } else if constexpr (K == OpKind::kSigmoidGrad) {
    return x * y * (1.0f - y);
  } else if constexpr (K == OpKind::kTanhGrad) {
    return x * (1.0f - y * y);
  } else {
    static_assert(K == OpKind::kAdd, "not a column-wise pointwise op");
    return 0.0f;
  }
}

// The reductions, summing over the input width `wa` in column order.
inline float DotProductRow(const float* a, int32_t wa, const float* b, int32_t wb) {
  float acc = 0.0f;
  for (int32_t j = 0; j < wa; ++j) {
    acc += a[j] * b[wb == 1 ? 0 : j];
  }
  return acc;
}

inline float ReduceWidthSumRow(const float* a, int32_t wa) {
  float acc = 0.0f;
  for (int32_t j = 0; j < wa; ++j) {
    acc += a[j];
  }
  return acc;
}

// Applies a binary op with the broadcast pattern hoisted out of the element
// loop: each variant is a tight loop over constant-stride operands the
// compiler can autovectorize, instead of a per-element `wa == 1 ? 0 : j`
// select. Semantics identical to the indexed form for every width mix.
template <typename F>
inline void BinaryBroadcastLoop(float* out, int32_t w, const float* a, int32_t wa, const float* b,
                                int32_t wb, F f) {
  if (wa == w && wb == 1) {
    const float s = b[0];
    for (int32_t j = 0; j < w; ++j) {
      out[j] = f(a[j], s);
    }
  } else if (wa == 1 && wb == w) {
    const float s = a[0];
    for (int32_t j = 0; j < w; ++j) {
      out[j] = f(s, b[j]);
    }
  } else if (wa == w && wb == w) {
    for (int32_t j = 0; j < w; ++j) {
      out[j] = f(a[j], b[j]);
    }
  } else {
    for (int32_t j = 0; j < w; ++j) {
      out[j] = f(a[wa == 1 ? 0 : j], b[wb == 1 ? 0 : j]);
    }
  }
}

template <OpKind K>
inline void PointwiseApplyAs(float attr, float* out, int32_t w, const float* a, int32_t wa,
                             const float* b, int32_t wb) {
  if constexpr (ShapeOf(K) == PointwiseShape::kBinary) {
    BinaryBroadcastLoop(out, w, a, wa, b, wb,
                        [attr](float x, float y) { return PointwiseColumn<K>(x, y, attr); });
  } else if constexpr (K == OpKind::kDotProduct) {
    out[0] = DotProductRow(a, wa, b, wb);
  } else if constexpr (K == OpKind::kReduceWidthSum) {
    out[0] = ReduceWidthSumRow(a, wa);
  } else {
    for (int32_t j = 0; j < w; ++j) {
      out[j] = PointwiseColumn<K>(a[wa == 1 ? 0 : j], 0.0f, attr);
    }
  }
}

// Calls f.template operator()<K>() for the pointwise op `kind`; aborts on a
// non-pointwise kind. The one switch from a runtime OpKind to the templates
// above.
template <typename F>
inline auto DispatchPointwise(OpKind kind, F&& f) {
  switch (kind) {
#define SEASTAR_POINTWISE_CASE(K) \
  case OpKind::K:                 \
    return f.template operator()<OpKind::K>();
    SEASTAR_POINTWISE_CASE(kAdd)
    SEASTAR_POINTWISE_CASE(kSub)
    SEASTAR_POINTWISE_CASE(kMul)
    SEASTAR_POINTWISE_CASE(kDiv)
    SEASTAR_POINTWISE_CASE(kDotProduct)
    SEASTAR_POINTWISE_CASE(kEqualMask)
    SEASTAR_POINTWISE_CASE(kNeg)
    SEASTAR_POINTWISE_CASE(kExp)
    SEASTAR_POINTWISE_CASE(kLog)
    SEASTAR_POINTWISE_CASE(kRelu)
    SEASTAR_POINTWISE_CASE(kLeakyRelu)
    SEASTAR_POINTWISE_CASE(kSigmoid)
    SEASTAR_POINTWISE_CASE(kTanh)
    SEASTAR_POINTWISE_CASE(kIdentity)
    SEASTAR_POINTWISE_CASE(kReduceWidthSum)
    SEASTAR_POINTWISE_CASE(kReluGrad)
    SEASTAR_POINTWISE_CASE(kLeakyReluGrad)
    SEASTAR_POINTWISE_CASE(kSigmoidGrad)
    SEASTAR_POINTWISE_CASE(kTanhGrad)
#undef SEASTAR_POINTWISE_CASE
    default:
      break;
  }
  SEASTAR_LOG(Fatal) << "not a pointwise op: " << OpKindName(kind);
  return f.template operator()<OpKind::kIdentity>();
}

// out[0..w) = op(a, b) with width-1 broadcast on either operand. For
// kDotProduct / kReduceWidthSum, w is the *input* width and out has width 1.
inline void PointwiseApply(OpKind kind, float attr, float* out, int32_t w, const float* a,
                           int32_t wa, const float* b, int32_t wb) {
  DispatchPointwise(kind, [&]<OpKind K>() { PointwiseApplyAs<K>(attr, out, w, a, wa, b, wb); });
}

}  // namespace seastar

#endif  // SRC_EXEC_POINTWISE_H_
