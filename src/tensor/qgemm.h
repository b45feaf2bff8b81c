// Int8 quantized GEMM kernel family for the planned serving path
// (docs/PERFORMANCE.md, docs/COMPILER.md).
//
// Scheme: weights are quantized once at session-freeze time — symmetric
// per-output-channel int8 (scale[j] = absmax of column j / 127, values
// round-to-nearest-even, saturated to [-127, 127]) — and packed into
// 8-wide column panels with consecutive k values interleaved in quads, so
// one 64-bit broadcast of four int16 activations feeds two vpmaddwd steps
// covering four ascending-k products for eight columns. Activations are
// quantized per request, per row (dynamic absmax -> scale), stored
// sign-extended as int16. The int8 x int8 products accumulate in int32
// registers; a fused dequant epilogue (acc * a_scale[m] * b_scale[n]) writes
// fp32 straight into C, and bias + activation run while the row tile is
// cache-hot — no int32 intermediate ever round-trips memory. The quantized
// epilogue is gemm::EpilogueBiasAct itself, gelu included (the shared
// vectorized rational-erf GELU of tensor/gelu.h, within 1e-6 of the exact
// erf form), so an int8 layer differs from its fp32 twin only by the
// integer arithmetic.
//
// Determinism contract (docs/RUNTIME.md): integer accumulation is exact, so
// blocking and thread count cannot change a single bit; the dequant and
// activation apply one fixed per-element float expression. Results are
// bit-identical for any MSD_THREADS value. The scalar fallback (sanitizer
// legs build with MSD_NATIVE_ARCH=OFF) computes the identical integer sums
// and the identical dequant expression, so a given build is deterministic
// end to end.
#ifndef MSDMIXER_TENSOR_QGEMM_H_
#define MSDMIXER_TENSOR_QGEMM_H_

#include <cstdint>

#include "tensor/gemm.h"

namespace msd {
namespace qgemm {

// Largest inner dimension the int32 accumulator provably cannot overflow
// (every int8 x int8 product is at most 127 * 127 = 16129, and k * 16129
// must stay below 2^31). QGemmPrepacked checks it; the planner gates
// quantization eligibility on it.
inline constexpr int64_t kMaxK = int64_t{1} << 17;

// int8 count of a packed weight panel for a [k, n] matrix: columns padded to
// the 8-wide panel, k padded to a multiple of four (pad values are zero and
// contribute nothing).
int64_t PackedQuantBInt8s(int64_t k, int64_t n);

// Float count of the per-channel scale vector: one scale per column, padded
// to the 8-wide panel so the dequant epilogue can load full vectors.
int64_t QuantBScaleFloats(int64_t n);

// int16 count of one quantized activation row: k padded to a multiple of
// four.
int64_t QuantARowInt16s(int64_t k);

// Freeze-time weight quantization: per-output-channel symmetric int8.
// `b` is [k, n] row-major; `packed` holds PackedQuantBInt8s(k, n) values in
// the quad-interleaved panel layout QGemmPrepacked consumes; `scales` holds
// QuantBScaleFloats(n) floats (scale[j] = absmax_j / 127; an all-zero column
// gets scale 0 and quantized values 0; padding scales are 0).
void QuantizeWeightsPerChannel(const float* b, int64_t k, int64_t n,
                               int8_t* packed, float* scales);

// Per-row dynamic activation quantization: scale[i] = absmax of row i / 127,
// values round-to-nearest-even (the ambient FE_TONEAREST mode), saturated to
// [-127, 127], stored as int16 with rows of QuantARowInt16s(k) (pad is
// zero). An all-zero row gets scale 0. NaN values are left out of the
// absmax and quantize to 0, identically in the AVX2 and scalar paths.
// Deterministic per row for any thread count.
void QuantizeActivationsPerRow(const float* a, int64_t m, int64_t k,
                               int16_t* a_q, float* a_scales);

// C[m,n] = act(float(sum_k a_q[i,kk] * b_q[kk,j]) * a_scale[i] * b_scale[j]
//              + bias[j]).
// `a_q`/`a_scales` come from QuantizeActivationsPerRow, `packed_b`/`b_scales`
// from QuantizeWeightsPerChannel. Same kMc row-tile parallel geometry as
// gemm::GemmPrepacked; `bias` is nullptr or n floats; every C element is
// written (c may be uninitialized). Requires k <= 2^17 so the int32
// accumulator cannot overflow (max |product| per step is 127*127 = 16129).
void QGemmPrepacked(const int16_t* a_q, const float* a_scales,
                    const int8_t* packed_b, const float* b_scales, float* c,
                    int64_t m, int64_t k, int64_t n, const float* bias,
                    gemm::Activation act);

}  // namespace qgemm
}  // namespace msd

#endif  // MSDMIXER_TENSOR_QGEMM_H_
