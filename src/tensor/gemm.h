// Cache-blocked, register-tiled single-precision GEMM with fused epilogues —
// the hot-path compute engine behind MatMul/MatMulEx (docs/PERFORMANCE.md).
//
// Scheme (BLIS-style): B is packed once into kNr-wide column panels, then
// the output is walked in kMc-row tiles; within a tile, kKc-deep slices of A
// are packed into kMr-row panels and an 8x8 register-tile micro-kernel
// accumulates C. The optional epilogue (bias add + activation) runs per row
// tile while C is still cache-hot, so fused Linear layers never materialize
// the intermediate pre-activation tensor.
//
// Determinism contract (docs/RUNTIME.md): tile geometry is a pure function
// of (m, k, n); runtime::ParallelFor distributes whole row tiles, each
// written by exactly one chunk; every C element accumulates in ascending-k
// order regardless of blocking boundaries or thread count. Results are
// bit-identical for any MSD_THREADS value.
#ifndef MSDMIXER_TENSOR_GEMM_H_
#define MSDMIXER_TENSOR_GEMM_H_

#include <cstdint>

namespace msd {
namespace gemm {

// Epilogue activation fused into the GEMM output pass. Formulas match the
// elementwise kernels in tensor_ops.cc exactly (same expressions, so a fused
// layer and a composed MatMul+Add+Act agree to the last code path).
enum class Activation { kIdentity, kRelu, kGelu, kTanh, kSigmoid };

// C[m,n] = act(A[m,k] @ B[k,n] + bias[n]).
//  * `c` may be uninitialized; every element is written (no zero-fill pass).
//  * `bias` is nullptr (none) or n floats.
//  * `pre`, when non-null, receives the pre-activation A@B + bias — the
//    value autograd needs for activation backward. Ignored for kIdentity.
// Parallel over row tiles via runtime::ParallelFor; safe to call from inside
// a parallel region (nested loops run inline per the runtime contract).
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, const float* bias = nullptr,
          Activation act = Activation::kIdentity, float* pre = nullptr);

// The shared bias+activation epilogue: bias add (when non-null) and `act`
// over `rows` contiguous C rows of width n, applied while the tile is
// cache-hot. `pre`, when non-null, receives the post-bias pre-activation.
// Exposed so the quantized kernel (tensor/qgemm.h) fuses its dequant output
// into the exact same formulas — one epilogue, every GEMM flavor.
void EpilogueBiasAct(float* c, float* pre, int64_t rows, int64_t n,
                     const float* bias, Activation act);

// Weight gradient of a shared-weight product: C[k,n] = A^T @ G, where A is
// [rows, k] and G is [rows, n], both row-major — every leading row of a
// rank-N Linear input flattened. `c` may be uninitialized.
//
// Rows split into fixed chunks (runtime::NumChunks over `rows` at a fixed
// row grain); each chunk packs its A^T panels straight from row-major A and
// its G panels into thread-local pack scratch, runs the micro-kernel into
// its own [k,n] partial (chunk 0 writes `c` itself), and the partials fold
// in ParallelReduce's fixed-order tree over chunk indices. Every element
// therefore sums its rows in an order fixed by `rows` alone: bit-identical
// for any MSD_THREADS value. The partials buffer is taken before the
// parallel region; the region itself allocates nothing beyond each
// worker's grow-only pack scratch.
void GemmWeightGrad(const float* a, const float* g, float* c, int64_t rows,
                    int64_t k, int64_t n);

// Split form for batched products that reuse one B: pack once, multiply
// many. `packed` must hold PackedBPanelFloats(k, n) floats.
int64_t PackedBPanelFloats(int64_t k, int64_t n);
void PackB(const float* b, int64_t k, int64_t n, float* packed);
void GemmPrepacked(const float* a, const float* packed_b, float* c, int64_t m,
                   int64_t k, int64_t n, const float* bias, Activation act,
                   float* pre);

}  // namespace gemm
}  // namespace msd

#endif  // MSDMIXER_TENSOR_GEMM_H_
