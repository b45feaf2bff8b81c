// Pure (non-differentiable) tensor kernels. The autograd layer composes
// these into differentiable ops; models should normally use the autograd
// wrappers instead of calling these directly.
//
// Binary elementwise ops follow NumPy broadcasting: shapes are right-aligned
// and a dimension of size 1 stretches to match its counterpart.
#ifndef MSDMIXER_TENSOR_TENSOR_OPS_H_
#define MSDMIXER_TENSOR_TENSOR_OPS_H_

#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace msd {

// ---- Broadcasting --------------------------------------------------------

// The shape both inputs broadcast to; fatal if incompatible.
Shape BroadcastShapes(const Shape& a, const Shape& b);

// Materializes `t` broadcast to `target` (fatal if not broadcastable).
Tensor ExpandTo(const Tensor& t, const Shape& target);

// Sums `t` down to `target` shape, reversing a broadcast. Used by autograd
// to reduce an output gradient back to an input's shape.
Tensor ReduceTo(const Tensor& t, const Shape& target);

// ---- Elementwise binary (broadcasting) -----------------------------------
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);
Tensor Minimum(const Tensor& a, const Tensor& b);
// 1.0 where the predicate holds, else 0.0.
Tensor Greater(const Tensor& a, const Tensor& b);
Tensor GreaterEqual(const Tensor& a, const Tensor& b);

// Scalar conveniences.
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

// ---- Elementwise unary ----------------------------------------------------
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Square(const Tensor& a);
Tensor Relu(const Tensor& a);
// GELU: 0.5 * x * (1 + erf(x / sqrt(2))), erf by the vectorized rational
// approximation of tensor/gelu.h (within 1e-6 absolute of the exact form).
// Byte-identical to the fused MatMulEx(kGelu) epilogue.
Tensor Gelu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Clamp(const Tensor& a, float lo, float hi);
// -1, 0, or +1 per element.
Tensor Sign(const Tensor& a);
// GELU derivative Phi(x) + x * phi(x), by tensor/gelu.h (within 1e-6
// absolute of the exact form).
Tensor GeluGrad(const Tensor& a);

// ---- Matrix multiplication -------------------------------------------------
// a: [..., m, k], b: [..., k, n] -> [..., m, n]; batch dims broadcast.
// Rank-2 x rank-2 is the plain matrix product. Backed by the blocked GEMM in
// tensor/gemm.h; results are bit-identical for any MSD_THREADS value.
Tensor MatMul(const Tensor& a, const Tensor& b);

// Fused variant: act(a @ b + bias), with `bias` an optional rank-1 [n]
// vector added per output row and the activation applied in the GEMM
// epilogue — no intermediate bias-add or pre-activation tensor is
// materialized. When `pre_out` is non-null and act != kIdentity it receives
// a @ b + bias (the value an activation backward differentiates at); for
// kIdentity it aliases the returned output.
Tensor MatMulEx(const Tensor& a, const Tensor& b, const Tensor& bias,
                gemm::Activation act, Tensor* pre_out = nullptr);

// Weight gradient of a shared rank-2 operand: for a [..., m, k] and the
// output gradient g [..., m, n] (same leading dims), returns the [k, n] sum
// over every leading row of a^T @ g — what MatMul(Transpose(a, -1, -2), g)
// reduced over its batch dims computes, as one row-chunked GEMM with no
// transposed copy and no per-batch intermediate (gemm::GemmWeightGrad).
// Bit-identical for any MSD_THREADS value; counts one tensor/matmul_calls
// and 2*rows*k*n tensor/matmul_flops.
Tensor MatMulWeightGrad(const Tensor& a, const Tensor& g);

// ---- Reductions ------------------------------------------------------------
// Scalar (rank-0) total.
Tensor SumAll(const Tensor& a);
Tensor MeanAll(const Tensor& a);
float MaxAbs(const Tensor& a);

// Reduce over `dims` (each in [-rank, rank)). With keepdim the reduced axes
// stay as size-1 dims; otherwise they are removed.
Tensor Sum(const Tensor& a, std::vector<int64_t> dims, bool keepdim);
Tensor Mean(const Tensor& a, std::vector<int64_t> dims, bool keepdim);
Tensor MaxReduce(const Tensor& a, int64_t dim, bool keepdim);

// Index of the maximum along `dim` (ties -> lowest index), as floats.
Tensor ArgMax(const Tensor& a, int64_t dim);

// ---- Movement ---------------------------------------------------------------
// Reorders axes: out.dim(i) == in.dim(perm[i]). Materializes a new buffer.
Tensor Permute(const Tensor& a, const std::vector<int64_t>& perm);
// Swaps two axes.
Tensor Transpose(const Tensor& a, int64_t dim0, int64_t dim1);
// Elements [start, start+length) along `dim`.
Tensor Slice(const Tensor& a, int64_t dim, int64_t start, int64_t length);
// Concatenation along `dim`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& parts, int64_t dim);
// Pads `dim` with `value`: `before` elements in front, `after` at the back.
Tensor Pad(const Tensor& a, int64_t dim, int64_t before, int64_t after,
           float value);
// Stacks equal-shaped tensors along a new leading dimension.
Tensor Stack(const std::vector<Tensor>& parts);

// ---- Normalization helpers ---------------------------------------------------
Tensor Softmax(const Tensor& a, int64_t dim);

// ---- Caller-owned-output entry points (docs/COMPILER.md) -------------------
// The plan executor (serve/plan.h) replays a traced forward into
// preplanned arena buffers through these. Each allocating op above is a thin
// wrapper over its *Into twin, so the interpreted and planned paths run the
// same kernel loop — bit-identity between them holds by construction.
// `out` must be defined with the op's exact result shape (Sum: the kept
// element count; its shape may be the keepdim or squeezed form). An input
// may alias `out` exactly (same buffer, same numel — the planner's in-place
// reuse) but never partially.
void AddInto(const Tensor& a, const Tensor& b, Tensor& out);
void SubInto(const Tensor& a, const Tensor& b, Tensor& out);
void MulInto(const Tensor& a, const Tensor& b, Tensor& out);
void DivInto(const Tensor& a, const Tensor& b, Tensor& out);
void AddScalarInto(const Tensor& a, float s, Tensor& out);
void MulScalarInto(const Tensor& a, float s, Tensor& out);
void NegInto(const Tensor& a, Tensor& out);
void ExpInto(const Tensor& a, Tensor& out);
void LogInto(const Tensor& a, Tensor& out);
void SqrtInto(const Tensor& a, Tensor& out);
void AbsInto(const Tensor& a, Tensor& out);
void SquareInto(const Tensor& a, Tensor& out);
void ReluInto(const Tensor& a, Tensor& out);
void GeluInto(const Tensor& a, Tensor& out);
void SigmoidInto(const Tensor& a, Tensor& out);
void TanhInto(const Tensor& a, Tensor& out);
// act(a @ b + bias) into `out` (no pre-activation output: the frozen
// inference path never differentiates).
void MatMulExInto(const Tensor& a, const Tensor& b, const Tensor& bias,
                  gemm::Activation act, Tensor& out);
// Freeze-time helper for the serving planner: packs a rank-2 GEMM operand
// b [k, n] into the panel layout gemm::GemmPrepacked consumes, as a rank-1
// tensor of gemm::PackedBPanelFloats(k, n) floats.
Tensor PackGemmB(const Tensor& b);
// act(a @ b + bias) where `b_packed` came from PackGemmB of a [k, n] weight
// (shared-B products only: every batch row multiplies the same b). Bit-
// identical to MatMulExInto — GemmPrepacked is the exact tail of Gemm —
// minus the per-call B pack and its buffer.
void MatMulExPrepackedInto(const Tensor& a, const Tensor& b_packed, int64_t k,
                           int64_t n, const Tensor& bias, gemm::Activation act,
                           Tensor& out);
// Reduce over `dims` (already normalized: sorted, deduped, non-negative,
// non-empty). `out` holds the kept elements.
void SumInto(const Tensor& a, const std::vector<int64_t>& dims, Tensor& out);
void PermuteInto(const Tensor& a, const std::vector<int64_t>& perm,
                 Tensor& out);
void SliceInto(const Tensor& a, int64_t dim, int64_t start, int64_t length,
               Tensor& out);
void PadInto(const Tensor& a, int64_t dim, int64_t before, int64_t after,
             float value, Tensor& out);
// Straight element copy (same numel; shapes may differ by reshape).
void CopyInto(const Tensor& a, Tensor& out);

// Fused peephole kernels (plan-only; tensor_ops never records these — the
// planner rewrites recorded pairs into them). Each is bit-identical to the
// unfused pair: the first stage's result is rounded through the output
// buffer before the second stage reads it (see kernels.h Zip3KernelInto).
// (a - b) / c — the RevIN/scaler normalize chain.
void SubDivInto(const Tensor& a, const Tensor& b, const Tensor& c,
                Tensor& out);
// a * b + c — the denormalize / inverse-transform chain.
void MulAddInto(const Tensor& a, const Tensor& b, const Tensor& c,
                Tensor& out);
// a - Slice(src, dim, start, length) — the per-scale residual-subtract
// chain, without materializing the sliced component.
void SliceSubInto(const Tensor& a, const Tensor& src, int64_t dim,
                  int64_t start, int64_t length, Tensor& out);

// ---- Testing utilities --------------------------------------------------------
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);
float MaxAbsDiff(const Tensor& a, const Tensor& b);
bool HasNonFinite(const Tensor& a);

// Normalizes an axis index (accepts negatives) against `rank`.
int64_t NormalizeDim(int64_t dim, int64_t rank);

}  // namespace msd

#endif  // MSDMIXER_TENSOR_TENSOR_OPS_H_
