#include "tensor/gelu.h"

#include <cstring>

#include "tensor/kernels.h"

namespace msd {
namespace gelu {

namespace {

using kernel::AsV8;
using kernel::V8;
typedef int32_t I8 __attribute__((vector_size(8 * sizeof(int32_t))));
typedef uint32_t U8 __attribute__((vector_size(8 * sizeof(uint32_t))));
typedef double D8 __attribute__((vector_size(8 * sizeof(double))));

constexpr int64_t kLanes = 8;
constexpr float kRsqrt2 = 0.70710678118654752f;
constexpr float kInvSqrt2Pi = 0.39894228040143268f;

// erf(t) ~ t * P(t^2) / Q(t^2) on [-4, 4]: weighted minimax fit (weight
// 1 + |t|, the growth of the forward error 0.5 * |x| * |erf error|), max
// |error| 1.73e-7 / (1 + |t|). Coefficients ascend in t^2.
constexpr double kErfP[] = {
    1.1283779851539005,    2.2574188932093674e-1, 5.4010259253632937e-2,
    4.8116807884207983e-3, 1.6930661134475873e-4, -2.0641583062161176e-6,
    1.9284232186145854e-8};
constexpr double kErfQ[] = {1.0, 5.3338052393651026e-1, 1.2569633293155407e-1,
                            1.6575899936300458e-2, 1.2285459105319968e-3};

// Lane-wise clamp to [lo, hi] that passes NaN through: a comparison
// against NaN is false, so the select keeps the input lane.
void ClampNanPreserving(V8* v, float lo, float hi) {
  const V8 vlo = V8{} + lo;
  const V8 vhi = V8{} + hi;
  *v = *v < vlo ? vlo : *v;
  *v = *v > vhi ? vhi : *v;
}

// erf for eight lanes: clamped odd rational, clamped lanes pinned to +-1.
// P and Q are evaluated in double: in float their rounding alone reaches
// ~6 ulp of erf near |t| = 4, which 0.5 * |x| amplifies past the 1e-6
// budget, while the double form leaves only the fit error, at ~2x the
// float cost.
void ErfV8(const V8* t_in, V8* out) {
  V8 t = *t_in;
  ClampNanPreserving(&t, -4.0f, 4.0f);
  const D8 td = __builtin_convertvector(t, D8);
  const D8 s = td * td;
  D8 p = D8{} + kErfP[6];
  for (int i = 5; i >= 0; --i) p = p * s + kErfP[i];
  D8 q = D8{} + kErfQ[4];
  for (int i = 3; i >= 0; --i) q = q * s + kErfQ[i];
  const V8 r = __builtin_convertvector(td * p / q, V8);
  const V8 one = V8{} + 1.0f;
  *out = t == 4.0f * one ? one : (t == -4.0f * one ? -one : r);
}

// e^z for eight lanes, z in [-87, 0] (the only caller passes z >= -50):
// exp2 range reduction with a degree-6 polynomial on the fractional part,
// relative error ~1e-7.
void ExpNonPosV8(const V8* z_in, V8* out) {
  const V8 t = *z_in * 1.44269504088896341f;
  // Round to nearest even via the 1.5 * 2^23 shifter (exact for |t| < 2^22;
  // the build never enables -ffast-math, which could fold it away).
  const V8 shifter = V8{} + 12582912.0f;
  const V8 r = (t + shifter) - shifter;
  const V8 f = t - r;
  V8 p = V8{} + 1.54035303933816e-4f;
  p = p * f + 1.33335581464284e-3f;
  p = p * f + 9.61812910762848e-3f;
  p = p * f + 5.55041086648216e-2f;
  p = p * f + 2.40226506959101e-1f;
  p = p * f + 6.93147180559945e-1f;
  p = p * f + 1.0f;
  // Scale by 2^r via exponent-field arithmetic; r >= -126 for z >= -87.
  // (GCC vector casts between equal-size vector types reinterpret bits.)
  const U8 e = ((U8)__builtin_convertvector(r, I8) + 127u) << 23;
  *out = p * (V8)e;
}

void GeluV8(const float* x_ptr, float* y_ptr) {
  const V8 x = *AsV8(x_ptr);
  const V8 t = x * kRsqrt2;
  V8 e;
  ErfV8(&t, &e);
  *AsV8(y_ptr) = (x * 0.5f) * (1.0f + e);
}

void GeluDerivativeV8(const float* x_ptr, float* d_ptr) {
  V8 x = *AsV8(x_ptr);
  ClampNanPreserving(&x, -10.0f, 10.0f);
  const V8 t = x * kRsqrt2;
  V8 e;
  ErfV8(&t, &e);
  const V8 z = x * x * -0.5f;
  V8 ez;
  ExpNonPosV8(&z, &ez);
  *AsV8(d_ptr) = 0.5f * (1.0f + e) + x * (ez * kInvSqrt2Pi);
}

// Full vectors in place; the tail through a zero-padded buffer, so every
// element runs the identical vector instruction sequence.
template <void (*KernelV8)(const float*, float*)>
void Apply(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) KernelV8(x + i, y + i);
  if (i < n) {
    float buf[kLanes] = {};
    const size_t bytes = static_cast<size_t>(n - i) * sizeof(float);
    std::memcpy(buf, x + i, bytes);
    KernelV8(buf, buf);
    std::memcpy(y + i, buf, bytes);
  }
}

}  // namespace

// msd-hot-path: every GELU of every MLP block, fused or standalone.
void Forward(const float* x, float* y, int64_t n) { Apply<GeluV8>(x, y, n); }

// msd-hot-path: autograd GELU backward, standalone and fused MatMulEx.
void Derivative(const float* x, float* d, int64_t n) {
  Apply<GeluDerivativeV8>(x, d, n);
}

}  // namespace gelu
}  // namespace msd
