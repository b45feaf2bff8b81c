// Int8 quantized GEMM kernel tests (tensor/qgemm.h, docs/PERFORMANCE.md):
// quantizer round-trip properties, the packed kernel against a naive integer
// reference across edge geometries, bit-identity across thread counts, and
// — satellite coverage — the fp32 gemm::GemmPrepacked against a triple-loop
// reference on tile- and block-boundary shapes.
#include "tensor/qgemm.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/parallel.h"
#include "tensor/gemm.h"

namespace msd {
namespace {

std::vector<float> RandomVec(size_t n, uint32_t seed, float scale = 1.0f) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0f, scale);
  std::vector<float> v(n);
  for (float& x : v) x = dist(rng);
  return v;
}

// The reference integer pipeline: quantize exactly like the production
// quantizers (same expressions), accumulate in plain int32 ascending-k
// order, dequantize with the same per-element float expression. The packed
// kernel must match this bit for bit on every epilogue, gelu included: the
// quantized epilogue is gemm::EpilogueBiasAct itself.
int8_t RefQuant(float v, float inv_scale) {
  if (inv_scale == 0.0f) return 0;
  float q = std::nearbyintf(v * inv_scale);
  if (q > 127.0f) q = 127.0f;
  if (q < -127.0f) q = -127.0f;
  return static_cast<int8_t>(q);
}

void RefQGemm(const std::vector<float>& a, const std::vector<float>& b,
              int64_t m, int64_t k, int64_t n, const float* bias,
              gemm::Activation act, std::vector<float>* c) {
  // Per-column weight quant.
  std::vector<float> b_scale(static_cast<size_t>(n), 0.0f);
  for (int64_t j = 0; j < n; ++j) {
    float mx = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      mx = std::max(mx, std::fabs(b[static_cast<size_t>(kk * n + j)]));
    }
    b_scale[static_cast<size_t>(j)] = mx / 127.0f;
  }
  std::vector<int8_t> bq(static_cast<size_t>(k * n));
  for (int64_t j = 0; j < n; ++j) {
    const float inv =
        b_scale[static_cast<size_t>(j)] > 0.0f
            ? 1.0f / b_scale[static_cast<size_t>(j)]
            : 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      bq[static_cast<size_t>(kk * n + j)] =
          RefQuant(b[static_cast<size_t>(kk * n + j)], inv);
    }
  }
  // Per-row activation quant.
  std::vector<float> a_scale(static_cast<size_t>(m), 0.0f);
  std::vector<int8_t> aq(static_cast<size_t>(m * k));
  for (int64_t i = 0; i < m; ++i) {
    float mx = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      mx = std::max(mx, std::fabs(a[static_cast<size_t>(i * k + kk)]));
    }
    a_scale[static_cast<size_t>(i)] = mx / 127.0f;
    const float inv = mx > 0.0f ? 127.0f / mx : 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      aq[static_cast<size_t>(i * k + kk)] =
          RefQuant(a[static_cast<size_t>(i * k + kk)], inv);
    }
  }
  c->assign(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> pre(static_cast<size_t>(n));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<int32_t>(aq[static_cast<size_t>(i * k + kk)]) *
               static_cast<int32_t>(bq[static_cast<size_t>(kk * n + j)]);
      }
      pre[static_cast<size_t>(j)] = static_cast<float>(acc) *
                                    a_scale[static_cast<size_t>(i)] *
                                    b_scale[static_cast<size_t>(j)];
    }
    float* row = c->data() + i * n;
    std::memcpy(row, pre.data(), static_cast<size_t>(n) * sizeof(float));
    gemm::EpilogueBiasAct(row, nullptr, 1, n, bias, act);
  }
}

// Runs the production pipeline (quantize weights + activations, packed
// kernel) for one geometry.
void RunQGemm(const std::vector<float>& a, const std::vector<float>& b,
              int64_t m, int64_t k, int64_t n, const float* bias,
              gemm::Activation act, std::vector<float>* c) {
  std::vector<int8_t> bq(static_cast<size_t>(qgemm::PackedQuantBInt8s(k, n)));
  std::vector<float> bs(static_cast<size_t>(qgemm::QuantBScaleFloats(n)));
  qgemm::QuantizeWeightsPerChannel(b.data(), k, n, bq.data(), bs.data());
  std::vector<int16_t> aq(static_cast<size_t>(m * qgemm::QuantARowInt16s(k)));
  std::vector<float> as(static_cast<size_t>(m));
  qgemm::QuantizeActivationsPerRow(a.data(), m, k, aq.data(), as.data());
  c->assign(static_cast<size_t>(m * n), -1234.5f);  // every element written
  qgemm::QGemmPrepacked(aq.data(), as.data(), bq.data(), bs.data(), c->data(),
                        m, k, n, bias, act);
}

// ---- Quantizer properties ---------------------------------------------------

TEST(QuantizerTest, WeightScalesAreColumnAbsmaxOver127) {
  const int64_t k = 13, n = 11;
  std::vector<float> b = RandomVec(static_cast<size_t>(k * n), 5, 2.0f);
  std::vector<int8_t> packed(
      static_cast<size_t>(qgemm::PackedQuantBInt8s(k, n)));
  std::vector<float> scales(static_cast<size_t>(qgemm::QuantBScaleFloats(n)));
  qgemm::QuantizeWeightsPerChannel(b.data(), k, n, packed.data(),
                                   scales.data());
  for (int64_t j = 0; j < n; ++j) {
    float mx = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      mx = std::max(mx, std::fabs(b[static_cast<size_t>(kk * n + j)]));
    }
    EXPECT_FLOAT_EQ(scales[static_cast<size_t>(j)], mx / 127.0f) << j;
  }
  // Padding columns carry scale 0.
  for (int64_t j = n; j < qgemm::QuantBScaleFloats(n); ++j) {
    EXPECT_EQ(scales[static_cast<size_t>(j)], 0.0f);
  }
}

TEST(QuantizerTest, ActivationRoundTripWithinHalfStep) {
  const int64_t m = 7, k = 29;
  std::vector<float> a = RandomVec(static_cast<size_t>(m * k), 6, 3.0f);
  std::vector<int16_t> aq(static_cast<size_t>(m * qgemm::QuantARowInt16s(k)));
  std::vector<float> as(static_cast<size_t>(m));
  qgemm::QuantizeActivationsPerRow(a.data(), m, k, aq.data(), as.data());
  const int64_t row_stride = qgemm::QuantARowInt16s(k);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float v = a[static_cast<size_t>(i * k + kk)];
      const float deq =
          static_cast<float>(aq[static_cast<size_t>(i * row_stride + kk)]) *
          as[static_cast<size_t>(i)];
      // |error| <= scale/2 for values inside the clamp range.
      EXPECT_LE(std::fabs(deq - v), as[static_cast<size_t>(i)] * 0.5f + 1e-7f)
          << "row " << i << " col " << kk;
      EXPECT_LE(std::abs(aq[static_cast<size_t>(i * row_stride + kk)]), 127);
    }
    // k padding inside the row stride is zero.
    for (int64_t kk = k; kk < row_stride; ++kk) {
      EXPECT_EQ(aq[static_cast<size_t>(i * row_stride + kk)], 0);
    }
  }
}

TEST(QuantizerTest, NanQuantizesAlikeInVectorBlockAndScalarTail) {
  // k = 17: index 3 falls in the 16-wide vector block, index 16 in the
  // scalar tail (on builds without AVX2 both run the scalar loop).
  const int64_t k = 17;
  std::vector<float> a(static_cast<size_t>(k), 0.5f);
  a[3] = std::numeric_limits<float>::quiet_NaN();
  a[16] = std::numeric_limits<float>::quiet_NaN();
  std::vector<int16_t> aq(static_cast<size_t>(qgemm::QuantARowInt16s(k)));
  float scale = 0.0f;
  qgemm::QuantizeActivationsPerRow(a.data(), 1, k, aq.data(), &scale);
  // NaN stays out of the absmax, so the finite values keep full range.
  EXPECT_EQ(scale, 0.5f / 127.0f);
  EXPECT_EQ(aq[3], aq[16]);
  EXPECT_EQ(aq[3], 0);
  for (int64_t kk = 0; kk < k; ++kk) {
    EXPECT_LE(std::abs(static_cast<int>(aq[static_cast<size_t>(kk)])), 127)
        << kk;
    if (kk != 3 && kk != 16) {
      EXPECT_EQ(aq[static_cast<size_t>(kk)], 127) << kk;
    }
  }
}

TEST(QuantizerTest, ZeroRowAndZeroColumnQuantizeToZero) {
  const int64_t m = 3, k = 9, n = 5;
  std::vector<float> a = RandomVec(static_cast<size_t>(m * k), 7);
  std::vector<float> b = RandomVec(static_cast<size_t>(k * n), 8);
  for (int64_t kk = 0; kk < k; ++kk) {
    a[static_cast<size_t>(1 * k + kk)] = 0.0f;  // zero row 1
    b[static_cast<size_t>(kk * n + 2)] = 0.0f;  // zero column 2
  }
  std::vector<float> c;
  RunQGemm(a, b, m, k, n, nullptr, gemm::Activation::kIdentity, &c);
  for (int64_t j = 0; j < n; ++j) {
    EXPECT_EQ(c[static_cast<size_t>(1 * n + j)], 0.0f) << "row 1, col " << j;
  }
  for (int64_t i = 0; i < m; ++i) {
    EXPECT_EQ(c[static_cast<size_t>(i * n + 2)], 0.0f) << "col 2, row " << i;
  }
}

// ---- Kernel vs reference ----------------------------------------------------

struct Geometry {
  int64_t m, k, n;
};

// Edge geometries: off-tile rows (kQr=4 groups), off-panel columns (kNr=8),
// off-quad k (quads of 4), the degenerate K=1 / N=1 / M=1 shapes, and a
// paper-scale shape crossing every blocking boundary.
const Geometry kGeometries[] = {
    {1, 1, 1},   {1, 7, 1},    {2, 3, 5},     {4, 4, 8},    {5, 9, 11},
    {7, 24, 32}, {8, 128, 96}, {13, 65, 17},  {64, 256, 8}, {65, 257, 9},
    {96, 24, 32}, {33, 1, 40}, {40, 513, 1},  {128, 31, 72},
};

TEST(QGemmKernelTest, BitExactAgainstNaiveIntegerReference) {
  for (const Geometry& g : kGeometries) {
    SCOPED_TRACE("m=" + std::to_string(g.m) + " k=" + std::to_string(g.k) +
                 " n=" + std::to_string(g.n));
    std::vector<float> a =
        RandomVec(static_cast<size_t>(g.m * g.k), 11 + g.m, 1.5f);
    std::vector<float> b =
        RandomVec(static_cast<size_t>(g.k * g.n), 13 + g.n, 1.5f);
    std::vector<float> bias = RandomVec(static_cast<size_t>(g.n), 17);
    for (gemm::Activation act :
         {gemm::Activation::kIdentity, gemm::Activation::kRelu,
          gemm::Activation::kGelu, gemm::Activation::kTanh,
          gemm::Activation::kSigmoid}) {
      std::vector<float> got, want;
      RunQGemm(a, b, g.m, g.k, g.n, bias.data(), act, &got);
      RefQGemm(a, b, g.m, g.k, g.n, bias.data(), act, &want);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(float)),
                0)
          << "act " << static_cast<int>(act);
    }
    // No-bias identity as well (the nullptr epilogue path).
    std::vector<float> got, want;
    RunQGemm(a, b, g.m, g.k, g.n, nullptr, gemm::Activation::kIdentity, &got);
    RefQGemm(a, b, g.m, g.k, g.n, nullptr, gemm::Activation::kIdentity,
             &want);
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0);
  }
}

TEST(QGemmKernelTest, GeluEpilogueWithinApproximationTolerance) {
  // The quantized gelu epilogue against the exact erf form evaluated in
  // double on the identity epilogue's output (pre-activation + bias, which
  // BitExactAgainstNaiveIntegerReference pins bit for bit). The shared
  // GELU approximation stays within 1e-6 absolute; 1e-5 leaves room for
  // the float rounding of the larger outputs.
  const Geometry g{33, 40, 27};
  std::vector<float> a = RandomVec(static_cast<size_t>(g.m * g.k), 3, 1.5f);
  std::vector<float> b = RandomVec(static_cast<size_t>(g.k * g.n), 4, 1.5f);
  std::vector<float> bias = RandomVec(static_cast<size_t>(g.n), 5);
  std::vector<float> got, pre;
  RunQGemm(a, b, g.m, g.k, g.n, bias.data(), gemm::Activation::kGelu, &got);
  RunQGemm(a, b, g.m, g.k, g.n, bias.data(), gemm::Activation::kIdentity,
           &pre);
  for (size_t i = 0; i < got.size(); ++i) {
    const double x = pre[i];
    const double want = 0.5 * x * (1.0 + std::erf(x / std::sqrt(2.0)));
    EXPECT_NEAR(got[i], want, 1e-5) << i << " x=" << x;
  }
}

TEST(QGemmKernelTest, BitIdenticalAcrossThreadCounts) {
  const Geometry g{197, 130, 51};  // crosses kMc=64 row tiles unevenly
  std::vector<float> a = RandomVec(static_cast<size_t>(g.m * g.k), 21, 2.0f);
  std::vector<float> b = RandomVec(static_cast<size_t>(g.k * g.n), 22, 2.0f);
  std::vector<float> bias = RandomVec(static_cast<size_t>(g.n), 23);
  std::vector<float> base;
  {
    runtime::ScopedThreads threads(1);
    RunQGemm(a, b, g.m, g.k, g.n, bias.data(), gemm::Activation::kGelu,
             &base);
  }
  for (int64_t t : {int64_t{2}, int64_t{8}}) {
    runtime::ScopedThreads threads(t);
    std::vector<float> got;
    RunQGemm(a, b, g.m, g.k, g.n, bias.data(), gemm::Activation::kGelu, &got);
    EXPECT_EQ(
        std::memcmp(got.data(), base.data(), base.size() * sizeof(float)), 0)
        << t << " threads";
  }
}

TEST(QGemmKernelTest, SaturatesExtremeValuesWithoutOverflow) {
  // Huge dynamic range: quantization saturates at ±127 and the int32
  // accumulator stays in range for k up to kMaxK by construction.
  const int64_t m = 5, k = 300, n = 9;
  std::vector<float> a = RandomVec(static_cast<size_t>(m * k), 31, 1e6f);
  std::vector<float> b = RandomVec(static_cast<size_t>(k * n), 32, 1e-6f);
  std::vector<float> got, want;
  RunQGemm(a, b, m, k, n, nullptr, gemm::Activation::kIdentity, &got);
  RefQGemm(a, b, m, k, n, nullptr, gemm::Activation::kIdentity, &want);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0);
  for (float v : got) EXPECT_TRUE(std::isfinite(v));
}

// ---- fp32 GemmPrepacked edge geometry (satellite coverage) ------------------

void RefGemm(const std::vector<float>& a, const std::vector<float>& b,
             int64_t m, int64_t k, int64_t n, const float* bias,
             gemm::Activation act, std::vector<float>* c) {
  c->assign(static_cast<size_t>(m * n), 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    float* row = c->data() + i * n;
    for (int64_t j = 0; j < n; ++j) {
      // Ascending-k accumulation — the documented determinism order.
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a[static_cast<size_t>(i * k + kk)] *
               b[static_cast<size_t>(kk * n + j)];
      }
      row[j] = acc;
    }
    gemm::EpilogueBiasAct(row, nullptr, 1, n, bias, act);
  }
}

// Shapes straddling every fp32 blocking boundary: the 8x8 register tile
// (kMr=8, kNr=8), the Mc=64 row block, and the Kc=256 depth block — plus
// K=1 and N=1 degenerate panels.
const Geometry kFp32Geometries[] = {
    {1, 1, 1},    {1, 256, 1},  {7, 9, 7},     {8, 8, 8},    {9, 255, 9},
    {63, 256, 8}, {64, 257, 9}, {65, 512, 16}, {16, 1, 24},  {24, 513, 1},
    {70, 260, 23},
};

TEST(GemmPrepackedEdgeTest, MatchesNaiveReferenceAtBlockBoundaries) {
  for (const Geometry& g : kFp32Geometries) {
    SCOPED_TRACE("m=" + std::to_string(g.m) + " k=" + std::to_string(g.k) +
                 " n=" + std::to_string(g.n));
    std::vector<float> a =
        RandomVec(static_cast<size_t>(g.m * g.k), 41 + g.m);
    std::vector<float> b =
        RandomVec(static_cast<size_t>(g.k * g.n), 43 + g.n);
    std::vector<float> bias = RandomVec(static_cast<size_t>(g.n), 47);
    std::vector<float> packed(
        static_cast<size_t>(gemm::PackedBPanelFloats(g.k, g.n)));
    gemm::PackB(b.data(), g.k, g.n, packed.data());
    for (gemm::Activation act :
         {gemm::Activation::kIdentity, gemm::Activation::kRelu}) {
      std::vector<float> got(static_cast<size_t>(g.m * g.n), -99.0f);
      gemm::GemmPrepacked(a.data(), packed.data(), got.data(), g.m, g.k, g.n,
                          bias.data(), act, nullptr);
      std::vector<float> want;
      RefGemm(a, b, g.m, g.k, g.n, bias.data(), act, &want);
      for (size_t i = 0; i < got.size(); ++i) {
        // fp32 blocking reorders nothing (ascending-k contract), but FMA
        // contraction differences against the naive loop allow tiny ulp
        // drift; bound it tightly relative to the accumulation depth.
        EXPECT_NEAR(got[i], want[i],
                    2e-5f * static_cast<float>(g.k) + 1e-5f)
            << "act " << static_cast<int>(act) << " idx " << i;
      }
    }
    // Prepacked path agrees with the one-shot Gemm entry point bit for bit
    // (same kernels, same order).
    std::vector<float> one(static_cast<size_t>(g.m * g.n), 0.0f);
    std::vector<float> two(static_cast<size_t>(g.m * g.n), 0.0f);
    gemm::Gemm(a.data(), b.data(), one.data(), g.m, g.k, g.n, bias.data(),
               gemm::Activation::kIdentity, nullptr);
    gemm::GemmPrepacked(a.data(), packed.data(), two.data(), g.m, g.k, g.n,
                        bias.data(), gemm::Activation::kIdentity, nullptr);
    EXPECT_EQ(std::memcmp(one.data(), two.data(), one.size() * sizeof(float)),
              0);
  }
}

TEST(GemmPrepackedEdgeTest, BitIdenticalAcrossThreadCounts) {
  const Geometry g{130, 300, 45};  // crosses Mc and Kc blocks unevenly
  std::vector<float> a = RandomVec(static_cast<size_t>(g.m * g.k), 51);
  std::vector<float> b = RandomVec(static_cast<size_t>(g.k * g.n), 52);
  std::vector<float> packed(
      static_cast<size_t>(gemm::PackedBPanelFloats(g.k, g.n)));
  gemm::PackB(b.data(), g.k, g.n, packed.data());
  std::vector<float> base(static_cast<size_t>(g.m * g.n));
  {
    runtime::ScopedThreads threads(1);
    gemm::GemmPrepacked(a.data(), packed.data(), base.data(), g.m, g.k, g.n,
                        nullptr, gemm::Activation::kIdentity, nullptr);
  }
  for (int64_t t : {int64_t{2}, int64_t{8}}) {
    runtime::ScopedThreads threads(t);
    std::vector<float> got(static_cast<size_t>(g.m * g.n));
    gemm::GemmPrepacked(a.data(), packed.data(), got.data(), g.m, g.k, g.n,
                        nullptr, gemm::Activation::kIdentity, nullptr);
    EXPECT_EQ(
        std::memcmp(got.data(), base.data(), base.size() * sizeof(float)), 0)
        << t << " threads";
  }
}

}  // namespace
}  // namespace msd
