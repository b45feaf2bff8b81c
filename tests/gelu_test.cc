// Properties of the shared vectorized GELU (tensor/gelu.h): every element's
// bits are independent of its position and span length, the special values
// are pinned, forward and derivative stay within 1e-6 of a double-precision
// reference, and the fused MatMulEx epilogue is byte-identical to the
// standalone op.
#include "tensor/gelu.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace {

using SpanFn = void (*)(const float*, float*, int64_t);

double RefGelu(double x) { return 0.5 * x * (1.0 + std::erf(x / std::sqrt(2.0))); }

double RefGeluDerivative(double x) {
  const double phi = std::exp(-0.5 * x * x) / std::sqrt(2.0 * M_PI);
  return 0.5 * (1.0 + std::erf(x / std::sqrt(2.0))) + x * phi;
}

std::vector<float> RandomValues(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0f, 3.0f);
  std::vector<float> v(n);
  for (float& x : v) x = dist(rng);
  return v;
}

float Apply(SpanFn fn, float x) {
  float y = 0.0f;
  fn(&x, &y, 1);
  return y;
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

TEST(GeluTest, EveryLengthAndOffsetMatchesTheEightWidePath) {
  const std::vector<float> x = RandomValues(64, 1);
  for (SpanFn fn : {&gelu::Forward, &gelu::Derivative}) {
    // Reference: one call over the whole buffer, all full vectors.
    std::vector<float> ref(x.size());
    fn(x.data(), ref.data(), static_cast<int64_t>(x.size()));
    for (int64_t offset = 0; offset < 8; ++offset) {
      for (int64_t len = 1; len <= 17; ++len) {
        std::vector<float> out(static_cast<size_t>(len) + 1, -7.0f);
        fn(x.data() + offset, out.data(), len);
        EXPECT_EQ(std::memcmp(out.data(), ref.data() + offset,
                              static_cast<size_t>(len) * sizeof(float)),
                  0)
            << "offset " << offset << " len " << len;
        EXPECT_EQ(out[static_cast<size_t>(len)], -7.0f) << "wrote past n";
        // In place (y aliases x exactly).
        std::vector<float> inplace(x.begin() + offset,
                                   x.begin() + offset + len);
        fn(inplace.data(), inplace.data(), len);
        EXPECT_EQ(std::memcmp(inplace.data(), ref.data() + offset,
                              static_cast<size_t>(len) * sizeof(float)),
                  0)
            << "in place, offset " << offset << " len " << len;
      }
    }
  }
}

TEST(GeluTest, SpecialValuesArePinned) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min() * 1000.0f;

  // Signed zeros keep their sign; denormals scale by 1/2 (erf(t) ~ 0).
  EXPECT_TRUE(SameBits(Apply(gelu::Forward, 0.0f), 0.0f));
  EXPECT_TRUE(SameBits(Apply(gelu::Forward, -0.0f), -0.0f));
  EXPECT_EQ(Apply(gelu::Forward, denorm), 0.5f * denorm);
  EXPECT_EQ(Apply(gelu::Forward, -denorm), -0.5f * denorm);
  EXPECT_EQ(Apply(gelu::Derivative, 0.0f), 0.5f);
  EXPECT_EQ(Apply(gelu::Derivative, -0.0f), 0.5f);
  EXPECT_EQ(Apply(gelu::Derivative, denorm), 0.5f);

  // The clamp edge: x / sqrt(2) >= 4 pins erf to exactly +-1, so GELU is
  // exactly x on the right and -0 on the left from there on.
  const float edge = 4.0f / 0.70710678118654752f;
  for (float x : {edge, 6.0f, 100.0f, 1e30f}) {
    EXPECT_EQ(Apply(gelu::Forward, x), x) << x;
    EXPECT_TRUE(SameBits(Apply(gelu::Forward, -x), -0.0f)) << -x;
  }
  // Just inside the edge the approximation is continuous with it.
  const float inside = std::nextafter(edge, 0.0f);
  EXPECT_NEAR(Apply(gelu::Forward, inside), RefGelu(inside), 1e-6);
  EXPECT_NEAR(Apply(gelu::Forward, -inside), RefGelu(-inside), 1e-6);
  // The derivative is evaluated at x clamped to [-10, 10].
  EXPECT_EQ(Apply(gelu::Derivative, 10.0f), 1.0f);
  EXPECT_EQ(Apply(gelu::Derivative, 1e30f), 1.0f);
  EXPECT_TRUE(SameBits(Apply(gelu::Derivative, -1e30f),
                       Apply(gelu::Derivative, -10.0f)));
  EXPECT_LT(std::fabs(Apply(gelu::Derivative, -10.0f)), 1e-21f);

  // Infinities: GELU(+inf) = +inf; GELU(-inf) = -inf * Phi(-inf) =
  // -inf * 0 = NaN (documented in gelu.h).
  EXPECT_EQ(Apply(gelu::Forward, inf), inf);
  EXPECT_TRUE(std::isnan(Apply(gelu::Forward, -inf)));
  EXPECT_EQ(Apply(gelu::Derivative, inf), 1.0f);
  EXPECT_TRUE(SameBits(Apply(gelu::Derivative, -inf),
                       Apply(gelu::Derivative, -10.0f)));

  // NaN in, NaN out — also next to finite lanes of the same vector.
  EXPECT_TRUE(std::isnan(Apply(gelu::Forward, nan)));
  EXPECT_TRUE(std::isnan(Apply(gelu::Derivative, nan)));
  float mixed[8] = {1.0f, nan, -2.0f, 0.5f, nan, 3.0f, -0.25f, 7.0f};
  float out[8];
  gelu::Forward(mixed, out, 8);
  for (int i = 0; i < 8; ++i) {
    if (std::isnan(mixed[i])) {
      EXPECT_TRUE(std::isnan(out[i])) << i;
    } else {
      EXPECT_TRUE(SameBits(out[i], Apply(gelu::Forward, mixed[i]))) << i;
    }
  }
}

// Dense sweep of [-10, 10]: every float on a 2^-16 grid (~1.3M points).
std::vector<float> DenseSweep() {
  std::vector<float> x;
  for (int64_t i = -(int64_t{10} << 16); i <= (int64_t{10} << 16); ++i) {
    x.push_back(static_cast<float>(std::ldexp(static_cast<double>(i), -16)));
  }
  return x;
}

TEST(GeluTest, ForwardWithin1e6OfDoubleReference) {
  const std::vector<float> x = DenseSweep();
  std::vector<float> y(x.size());
  gelu::Forward(x.data(), y.data(), static_cast<int64_t>(x.size()));
  double worst = 0.0;
  float worst_x = 0.0f;
  for (size_t i = 0; i < x.size(); ++i) {
    const double err = std::fabs(y[i] - RefGelu(x[i]));
    if (err > worst) {
      worst = err;
      worst_x = x[i];
    }
  }
  EXPECT_LE(worst, 1e-6) << "at x = " << worst_x;
}

TEST(GeluTest, DerivativeWithin1e6OfDoubleReference) {
  const std::vector<float> x = DenseSweep();
  std::vector<float> d(x.size());
  gelu::Derivative(x.data(), d.data(), static_cast<int64_t>(x.size()));
  double worst = 0.0;
  float worst_x = 0.0f;
  for (size_t i = 0; i < x.size(); ++i) {
    const double err = std::fabs(d[i] - RefGeluDerivative(x[i]));
    if (err > worst) {
      worst = err;
      worst_x = x[i];
    }
  }
  EXPECT_LE(worst, 1e-6) << "at x = " << worst_x;
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

TEST(GeluTest, FusedMatMulExEqualsStandaloneGelu) {
  Rng rng(31);
  // n = 5 and 13 leave partial vectors in every epilogue row.
  for (const Shape& b_shape : {Shape{7, 64}, Shape{20, 5}, Shape{33, 13}}) {
    Tensor a = Tensor::RandNormal({3, 70, b_shape[0]}, 0, 1, rng);
    Tensor b = Tensor::RandNormal(b_shape, 0, 1, rng);
    Tensor bias = Tensor::RandNormal({b_shape[1]}, 0, 1, rng);
    const Tensor fused = MatMulEx(a, b, bias, gemm::Activation::kGelu);
    const Tensor pre = Add(MatMulEx(a, b, Tensor(), gemm::Activation::kIdentity),
                           bias);
    EXPECT_TRUE(BitIdentical(fused, Gelu(pre)))
        << ShapeToString(b_shape);
    Tensor into = Tensor::Uninitialized(pre.shape());
    GeluInto(pre, into);
    EXPECT_TRUE(BitIdentical(fused, into)) << ShapeToString(b_shape);
  }
}

}  // namespace
}  // namespace msd
