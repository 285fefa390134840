// Shared SIMD row kernels for the fused multiply-sum and the dense ops.
//
// These are the 8/16-wide inner loops of the fused units' multiply-sum
// aggregation (see src/exec/row_kernels.cc) and of the dense GEMM. They
// exist as out-of-line, runtime-dispatched functions for two reasons:
//
//  * Bit-reproducibility across call sites. Every kernel here is
//    elementwise-independent across columns (one fma / add per column, no
//    horizontal operations), and every caller reaches the same dispatched
//    function, so a column's rounding never depends on which loop called it.
//    Inlining the loops separately at each call site would instead leave the
//    rounding behaviour (FMA contraction, vector tails) to whatever the
//    optimizer chose per site.
//
//  * Portable builds stay fast. With SEASTAR_NATIVE_ARCH=OFF the translation
//    units compile for baseline x86-64 (SSE2), but the AVX2+FMA variants are
//    compiled via `__attribute__((target(...)))` and selected at process
//    start with __builtin_cpu_supports — a portable binary still runs the
//    wide kernels on machines that have them, and falls back to the scalar
//    loops (correct, just slower) everywhere else.
//
// Dispatch is resolved once into function pointers at static-init time;
// callers pay an indirect call per *row segment*, never per element. The
// chosen ISA is queryable (SimdIsaName) so executors can attribute kernel
// time to the dispatch that actually ran.
#ifndef SRC_TENSOR_SIMD_H_
#define SRC_TENSOR_SIMD_H_

#include <cstdint>

namespace seastar {
namespace simd {

// Name of the dispatched implementation: "avx2" or "scalar".
const char* SimdIsaName();

// acc[i] += x[i] * s                   (multiply-sum, one side width-1)
extern void (*AxpyRow)(float* acc, const float* x, float s, int64_t n);
// acc[i] += x[i] * y[i]                (multiply-sum, both sides width-w)
extern void (*MulAddRow)(float* acc, const float* x, const float* y, int64_t n);
// x[i] *= s                            (AggMean finalization)
extern void (*ScaleRow)(float* x, float s, int64_t n);

// Dense-GEMM micro-kernels (the 16-column panels of ops.cc's GemmRowMajor).
// C[rows][16] = A[rows][k] @ B[k][16], row-major; A rows strided by lda, B
// rows by ldb, C rows by ldo. Written as explicit intrinsics because the
// shape that makes a GEMM fast — a 4-row × 16-column block of accumulators
// living in 8 vector registers while each streamed B row is reused 4 times —
// is exactly the shape autovectorizers lose when the strides are runtime
// values. Every output element is one k-ascending fma chain, so results are
// deterministic across row counts and panel splits.
extern void (*GemmTile4x16)(const float* pa, int64_t lda, const float* pb, int64_t ldb,
                            float* po, int64_t ldo, int64_t k);
extern void (*GemmTile1x16)(const float* pa, const float* pb, int64_t ldb, float* po, int64_t k);

}  // namespace simd
}  // namespace seastar

#endif  // SRC_TENSOR_SIMD_H_
