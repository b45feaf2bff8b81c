// The one erf-form GELU of the library, forward and derivative, shared by
// every caller: the fused fp32 GEMM epilogue (gemm::EpilogueBiasAct, which
// the int8 kernel's dequant epilogue also runs), the standalone and planned
// Gelu/GeluInto, and the autograd GeluGrad (docs/PERFORMANCE.md).
//
//   Forward:    GELU(x)  = 0.5 * x * (1 + erf(x / sqrt(2)))
//   Derivative: GELU'(x) = Phi(x) + x * phi(x)
//
// erf is a clamped odd rational approximation: t * P(t^2) / Q(t^2) with
// numerator degree 13 and denominator degree 8, t clamped to [-4, 4] and
// the clamped lanes pinned to exactly +-1 (erf(4) = 1 - 1.5e-8 rounds to
// 1.0f), so Phi is exactly 0 or 1 in the tails. phi uses an exp2
// range-reduced degree-6 polynomial. Both stay within 1e-6 absolute of the
// double-precision reference over every finite input
// (tests/gelu_test.cc sweeps [-10, 10]).
//
// Determinism: eight lanes at a time through one compiled copy (gelu.cc);
// a tail shorter than eight goes through the same vector code via a
// zero-padded buffer. Every output element is therefore a fixed function of
// its input element alone — independent of its position, span length,
// chunk and thread — so fused, standalone and planned GELU are
// byte-identical by construction.
//
// Special values: NaN in gives NaN out; GELU(+inf) = +inf and
// GELU(-inf) = NaN (-inf * Phi(-inf) = -inf * 0); GELU(+-0) = +-0.
// GELU'(x) is evaluated at x clamped to [-10, 10], where x * phi(x) is
// below 1e-21: GELU'(+inf) = 1 and GELU'(-inf) = GELU'(-10) ~ -7.7e-22.
#ifndef MSDMIXER_TENSOR_GELU_H_
#define MSDMIXER_TENSOR_GELU_H_

#include <cstdint>

namespace msd {
namespace gelu {

// y[i] = GELU(x[i]) for i in [0, n). `y` may alias `x` exactly.
void Forward(const float* x, float* y, int64_t n);

// d[i] = GELU'(x[i]) for i in [0, n). `d` may alias `x` exactly.
void Derivative(const float* x, float* d, int64_t n);

}  // namespace gelu
}  // namespace msd

#endif  // MSDMIXER_TENSOR_GELU_H_
