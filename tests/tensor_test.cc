// Unit and property tests for the tensor library.
#include "tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <numeric>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "runtime/parallel.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace {

TEST(TensorTest, DefaultConstructedIsUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
}

TEST(TensorTest, ZerosHasCorrectShapeAndContents) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_TRUE(t.defined());
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(t.at({i, j}), 0.0f);
    }
  }
}

TEST(TensorTest, NegativeAxisAccess) {
  Tensor t = Tensor::Zeros({2, 3, 4});
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(-3), 2);
}

TEST(TensorTest, FullAndScalar) {
  Tensor t = Tensor::Full({2, 2}, 3.5f);
  EXPECT_EQ(t.at({1, 1}), 3.5f);
  Tensor s = Tensor::Scalar(-2.0f);
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.item(), -2.0f);
}

TEST(TensorTest, ArangeContents) {
  Tensor t = Tensor::Arange(5);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(t.at({i}), static_cast<float>(i));
}

TEST(TensorTest, CopyIsShallowCloneIsDeep) {
  Tensor a = Tensor::Zeros({3});
  Tensor alias = a;
  Tensor deep = a.Clone();
  a.data()[0] = 7.0f;
  EXPECT_EQ(alias.at({0}), 7.0f);
  EXPECT_EQ(deep.at({0}), 0.0f);
}

TEST(TensorTest, ReshapeSharesStorageAndInfersDim) {
  Tensor a = Tensor::Arange(12);
  Tensor b = a.Reshape({3, -1});
  EXPECT_EQ(b.dim(1), 4);
  b.data()[0] = 99.0f;
  EXPECT_EQ(a.at({0}), 99.0f);
}

TEST(TensorTest, ReshapeBadCountDies) {
  Tensor a = Tensor::Arange(12);
  EXPECT_DEATH(a.Reshape({5, 3}), "changes element count");
}

TEST(TensorTest, SetAndAtRoundTrip) {
  Tensor a = Tensor::Zeros({2, 2});
  a.set({0, 1}, 5.0f);
  EXPECT_EQ(a.at({0, 1}), 5.0f);
  EXPECT_EQ(a.at({1, 0}), 0.0f);
}

TEST(TensorTest, RandomFactoriesDeterministic) {
  Rng rng1(42), rng2(42);
  Tensor a = Tensor::RandNormal({4, 4}, 0.0f, 1.0f, rng1);
  Tensor b = Tensor::RandNormal({4, 4}, 0.0f, 1.0f, rng2);
  EXPECT_TRUE(AllClose(a, b, 0.0f, 0.0f));
}

TEST(TensorTest, RandUniformWithinRange) {
  Rng rng(7);
  Tensor a = Tensor::RandUniform({100}, -2.0f, 3.0f, rng);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_GE(a.data()[i], -2.0f);
    EXPECT_LT(a.data()[i], 3.0f);
  }
}

// ---- Elementwise & broadcasting -------------------------------------------

TEST(TensorOpsTest, AddSameShape) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {10, 20, 30, 40});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.at({0, 0}), 11.0f);
  EXPECT_EQ(c.at({1, 1}), 44.0f);
}

TEST(TensorOpsTest, BroadcastRowVector) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3}, {10, 20, 30});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.at({0, 0}), 11.0f);
  EXPECT_EQ(c.at({1, 2}), 36.0f);
}

TEST(TensorOpsTest, BroadcastColumnVector) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({2, 1}, {100, 200});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.at({0, 2}), 103.0f);
  EXPECT_EQ(c.at({1, 0}), 204.0f);
}

TEST(TensorOpsTest, BroadcastScalarTensor) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor c = Mul(a, Tensor::Scalar(2.0f));
  EXPECT_EQ(c.at({1, 1}), 8.0f);
}

TEST(TensorOpsTest, BroadcastBothSides) {
  Tensor a({2, 1}, {1, 2});
  Tensor b({1, 3}, {10, 20, 30});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_EQ(c.at({1, 2}), 32.0f);
}

TEST(TensorOpsTest, IncompatibleBroadcastDies) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({2, 4});
  EXPECT_DEATH(Add(a, b), "not broadcastable");
}

TEST(TensorOpsTest, SubMulDiv) {
  Tensor a({3}, {6, 8, 10});
  Tensor b({3}, {2, 4, 5});
  EXPECT_TRUE(AllClose(Sub(a, b), Tensor({3}, {4, 4, 5})));
  EXPECT_TRUE(AllClose(Mul(a, b), Tensor({3}, {12, 32, 50})));
  EXPECT_TRUE(AllClose(Div(a, b), Tensor({3}, {3, 2, 2})));
}

TEST(TensorOpsTest, MaximumMinimumGreater) {
  Tensor a({3}, {1, 5, 3});
  Tensor b({3}, {2, 4, 3});
  EXPECT_TRUE(AllClose(Maximum(a, b), Tensor({3}, {2, 5, 3})));
  EXPECT_TRUE(AllClose(Minimum(a, b), Tensor({3}, {1, 4, 3})));
  EXPECT_TRUE(AllClose(Greater(a, b), Tensor({3}, {0, 1, 0})));
  EXPECT_TRUE(AllClose(GreaterEqual(a, b), Tensor({3}, {0, 1, 1})));
}

TEST(TensorOpsTest, UnaryOps) {
  Tensor a({4}, {-1.0f, 0.0f, 1.0f, 2.0f});
  EXPECT_TRUE(AllClose(Neg(a), Tensor({4}, {1, 0, -1, -2})));
  EXPECT_TRUE(AllClose(Abs(a), Tensor({4}, {1, 0, 1, 2})));
  EXPECT_TRUE(AllClose(Square(a), Tensor({4}, {1, 0, 1, 4})));
  EXPECT_TRUE(AllClose(Relu(a), Tensor({4}, {0, 0, 1, 2})));
  EXPECT_NEAR(Exp(a).at({3}), std::exp(2.0f), 1e-5f);
  EXPECT_NEAR(Sqrt(Tensor({1}, {9.0f})).at({0}), 3.0f, 1e-6f);
  EXPECT_NEAR(Sigmoid(Tensor({1}, {0.0f})).at({0}), 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(Tensor({1}, {0.0f})).at({0}), 0.0f, 1e-6f);
}

TEST(TensorOpsTest, GeluKnownValues) {
  // GELU(0) = 0, GELU(x) -> x for large x, GELU(-x) small.
  Tensor x({3}, {0.0f, 10.0f, -10.0f});
  Tensor y = Gelu(x);
  EXPECT_NEAR(y.at({0}), 0.0f, 1e-6f);
  EXPECT_NEAR(y.at({1}), 10.0f, 1e-4f);
  EXPECT_NEAR(y.at({2}), 0.0f, 1e-4f);
  // GELU(1) ~ 0.841345 with exact erf formulation.
  EXPECT_NEAR(Gelu(Tensor({1}, {1.0f})).at({0}), 0.841345f, 1e-5f);
}

TEST(TensorOpsTest, ClampBounds) {
  Tensor a({4}, {-5, 0, 5, 10});
  EXPECT_TRUE(AllClose(Clamp(a, -1.0f, 6.0f), Tensor({4}, {-1, 0, 5, 6})));
}

// ---- MatMul -----------------------------------------------------------------

TEST(TensorOpsTest, MatMul2D) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.at({0, 0}), 58.0f);
  EXPECT_EQ(c.at({0, 1}), 64.0f);
  EXPECT_EQ(c.at({1, 0}), 139.0f);
  EXPECT_EQ(c.at({1, 1}), 154.0f);
}

TEST(TensorOpsTest, MatMulIdentity) {
  Rng rng(3);
  Tensor a = Tensor::RandNormal({5, 5}, 0, 1, rng);
  Tensor eye = Tensor::Zeros({5, 5});
  for (int64_t i = 0; i < 5; ++i) eye.set({i, i}, 1.0f);
  EXPECT_TRUE(AllClose(MatMul(a, eye), a));
  EXPECT_TRUE(AllClose(MatMul(eye, a), a));
}

TEST(TensorOpsTest, MatMulBatched) {
  // Two independent 2x2 systems in one batch.
  Tensor a({2, 2, 2}, {1, 0, 0, 1, 2, 0, 0, 2});
  Tensor b({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2, 2}));
  EXPECT_EQ(c.at({0, 0, 0}), 1.0f);
  EXPECT_EQ(c.at({0, 1, 1}), 4.0f);
  EXPECT_EQ(c.at({1, 0, 0}), 10.0f);
  EXPECT_EQ(c.at({1, 1, 1}), 16.0f);
}

TEST(TensorOpsTest, MatMulBroadcastBatch) {
  // [2,2,3] x [3,2] broadcasts rhs across the batch.
  Rng rng(11);
  Tensor a = Tensor::RandNormal({2, 2, 3}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({3, 2}, 0, 1, rng);
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2, 2}));
  // Check batch 1 equals the standalone 2D product.
  Tensor a1 = Slice(a, 0, 1, 1).Reshape({2, 3});
  EXPECT_TRUE(AllClose(Slice(c, 0, 1, 1).Reshape({2, 2}), MatMul(a1, b)));
}

TEST(TensorOpsTest, MatMulInnerDimMismatchDies) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({4, 2});
  EXPECT_DEATH(MatMul(a, b), "inner dims mismatch");
}

TEST(TensorOpsTest, MatMulExMatchesComposedOps) {
  // The fused epilogue must agree with MatMul + Add + activation composed
  // from separate kernels. Tolerance, not memcmp: the fused path may
  // contract the bias add differently under -ffp-contract.
  Rng rng(19);
  Tensor a = Tensor::RandNormal({3, 5, 20}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({20, 8}, 0, 1, rng);
  Tensor bias = Tensor::RandNormal({8}, 0, 1, rng);
  Tensor base = Add(MatMul(a, b), bias);
  EXPECT_TRUE(AllClose(
      MatMulEx(a, b, bias, gemm::Activation::kIdentity), base, 1e-5f));
  EXPECT_TRUE(AllClose(
      MatMulEx(a, b, bias, gemm::Activation::kRelu), Relu(base), 1e-5f));
  EXPECT_TRUE(AllClose(
      MatMulEx(a, b, bias, gemm::Activation::kGelu), Gelu(base), 1e-5f));
  EXPECT_TRUE(AllClose(
      MatMulEx(a, b, bias, gemm::Activation::kTanh), Tanh(base), 1e-5f));
  EXPECT_TRUE(AllClose(MatMulEx(a, b, bias, gemm::Activation::kSigmoid),
                       Sigmoid(base), 1e-5f));
  // Without a bias the fused product reduces to plain MatMul exactly.
  Tensor plain = MatMulEx(a, b, Tensor(), gemm::Activation::kIdentity);
  EXPECT_TRUE(AllClose(plain, MatMul(a, b), 0.0f, 0.0f));
}

TEST(TensorOpsTest, MatMulExBiasShapeMismatchDies) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({3, 4});
  Tensor bias = Tensor::Zeros({5});
  EXPECT_DEATH(MatMulEx(a, b, bias, gemm::Activation::kIdentity), "bias");
}

// Double-precision A^T @ G over every leading row, the definition
// MatMulWeightGrad must agree with up to float rounding.
std::vector<double> WeightGradReference(const Tensor& a, const Tensor& g) {
  const int64_t k = a.dim(-1);
  const int64_t n = g.dim(-1);
  const int64_t rows = k == 0 ? 0 : a.numel() / k;
  std::vector<double> ref(static_cast<size_t>(k * n), 0.0);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t i = 0; i < k; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        ref[static_cast<size_t>(i * n + j)] +=
            static_cast<double>(a.data()[r * k + i]) * g.data()[r * n + j];
      }
    }
  }
  return ref;
}

TEST(TensorOpsTest, MatMulWeightGradMatchesReference) {
  // Rows from none to several chunks (2037 = 3*7*97 is no multiple of the
  // 256-row grain; 1400 puts more than one 256-row slice in each chunk),
  // k past one 64-row block of C, and k/n tails under the 8x8 tile.
  struct Case {
    Shape a;
    int64_t n;
  };
  const Case cases[] = {{{5, 3}, 4},
                        {{3, 7, 97, 7}, 32},
                        {{2, 700, 70}, 9},
                        {{2, 3, 11, 130}, 17},
                        {{2, 0, 5}, 3}};
  Rng rng(41);
  for (const Case& c : cases) {
    Tensor a = Tensor::RandNormal(c.a, 0, 1, rng);
    Shape g_shape = c.a;
    g_shape.back() = c.n;
    Tensor g = Tensor::RandNormal(g_shape, 0, 1, rng);
    Tensor dw = MatMulWeightGrad(a, g);
    ASSERT_EQ(dw.shape(), (Shape{c.a.back(), c.n}));
    const std::vector<double> ref = WeightGradReference(a, g);
    const double tol = 1e-5 * std::sqrt(static_cast<double>(a.numel()));
    for (int64_t e = 0; e < dw.numel(); ++e) {
      ASSERT_NEAR(dw.data()[e], ref[static_cast<size_t>(e)], tol)
          << ShapeToString(c.a) << " x " << c.n << " element " << e;
    }
  }
}

TEST(TensorOpsTest, MatMulWeightGradCountsOneCallAndItsFlops) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& calls = registry.GetCounter("tensor/matmul_calls");
  obs::Counter& flops = registry.GetCounter("tensor/matmul_flops");
  const int64_t calls0 = calls.value();
  const int64_t flops0 = flops.value();
  MatMulWeightGrad(Tensor::Ones({3, 5, 4}), Tensor::Ones({3, 5, 6}));
  EXPECT_EQ(calls.value() - calls0, 1);
  EXPECT_EQ(flops.value() - flops0, 2 * 15 * 4 * 6);
}

TEST(TensorOpsTest, MatMulWeightGradLeadingDimMismatchDies) {
  EXPECT_DEATH(MatMulWeightGrad(Tensor::Zeros({2, 3, 4}),
                                Tensor::Zeros({3, 2, 5})),
               "leading dims mismatch");
}

// ---- Reductions --------------------------------------------------------------

TEST(TensorOpsTest, PrefixSumMatchesSerialAscendingReference) {
  // SumInto's prefix path (bias gradients) parallelizes over kept columns
  // only, so each output must equal the serial r-ascending sum bit for bit
  // at every pool size, for kept widths below, at and past its column grain.
  const int64_t kept_widths[] = {1, 7, 32, 65};
  Rng rng(43);
  for (int64_t kept : kept_widths) {
    Tensor a = Tensor::RandNormal({3, 5, 701, kept}, 0, 10, rng);
    const int64_t reduced = 3 * 5 * 701;
    std::vector<float> ref(static_cast<size_t>(kept), 0.0f);
    for (int64_t r = 0; r < reduced; ++r) {
      for (int64_t i = 0; i < kept; ++i) {
        ref[static_cast<size_t>(i)] += a.data()[r * kept + i];
      }
    }
    for (int64_t threads : {1, 2, 8}) {
      runtime::ScopedThreads scoped(threads);
      Tensor out = Sum(a, {0, 1, 2}, /*keepdim=*/false);
      ASSERT_EQ(out.numel(), kept);
      EXPECT_EQ(std::memcmp(out.data(), ref.data(),
                            static_cast<size_t>(kept) * sizeof(float)),
                0)
          << "kept " << kept << " at " << threads << " threads";
    }
  }
}


TEST(TensorOpsTest, SumAllAndMeanAll) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(SumAll(a).item(), 21.0f);
  EXPECT_NEAR(MeanAll(a).item(), 3.5f, 1e-6f);
}

TEST(TensorOpsTest, SumAlongDim) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s0 = Sum(a, {0}, /*keepdim=*/false);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_TRUE(AllClose(s0, Tensor({3}, {5, 7, 9})));
  Tensor s1 = Sum(a, {1}, /*keepdim=*/true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_TRUE(AllClose(s1, Tensor({2, 1}, {6, 15})));
}

TEST(TensorOpsTest, SumMultipleDims) {
  Tensor a = Tensor::Ones({2, 3, 4});
  Tensor s = Sum(a, {0, 2}, /*keepdim=*/false);
  EXPECT_EQ(s.shape(), (Shape{3}));
  EXPECT_TRUE(AllClose(s, Tensor::Full({3}, 8.0f)));
}

TEST(TensorOpsTest, SumNegativeDim) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(AllClose(Sum(a, {-1}, false), Tensor({2}, {6, 15})));
}

TEST(TensorOpsTest, MeanAlongDim) {
  Tensor a({2, 2}, {1, 3, 5, 7});
  EXPECT_TRUE(AllClose(Mean(a, {1}, false), Tensor({2}, {2, 6})));
}

TEST(TensorOpsTest, MaxReduceAndArgMax) {
  Tensor a({2, 3}, {1, 9, 3, 8, 2, 7});
  Tensor mx = MaxReduce(a, 1, false);
  EXPECT_TRUE(AllClose(mx, Tensor({2}, {9, 8})));
  Tensor am = ArgMax(a, 1);
  EXPECT_TRUE(AllClose(am, Tensor({2}, {1, 0})));
}

TEST(TensorOpsTest, ArgMaxTieBreaksLow) {
  Tensor a({1, 3}, {5, 5, 5});
  EXPECT_EQ(ArgMax(a, 1).at({0}), 0.0f);
}

// ---- Movement ------------------------------------------------------------------

TEST(TensorOpsTest, PermuteMatchesManualTranspose) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Permute(a, {1, 0});
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(t.at({j, i}), a.at({i, j}));
    }
  }
}

TEST(TensorOpsTest, Permute3D) {
  Rng rng(5);
  Tensor a = Tensor::RandNormal({2, 3, 4}, 0, 1, rng);
  Tensor p = Permute(a, {2, 0, 1});
  EXPECT_EQ(p.shape(), (Shape{4, 2, 3}));
  EXPECT_EQ(p.at({3, 1, 2}), a.at({1, 2, 3}));
}

TEST(TensorOpsTest, PermuteRoundTrip) {
  Rng rng(6);
  Tensor a = Tensor::RandNormal({3, 4, 5}, 0, 1, rng);
  Tensor p = Permute(a, {1, 2, 0});
  Tensor back = Permute(p, {2, 0, 1});
  EXPECT_TRUE(AllClose(back, a, 0.0f, 0.0f));
}

TEST(TensorOpsTest, TransposeSwapsAxes) {
  Rng rng(9);
  Tensor a = Tensor::RandNormal({2, 3, 4}, 0, 1, rng);
  Tensor t = Transpose(a, -1, -2);
  EXPECT_EQ(t.shape(), (Shape{2, 4, 3}));
  EXPECT_EQ(t.at({1, 3, 2}), a.at({1, 2, 3}));
}

TEST(TensorOpsTest, SliceMiddle) {
  Tensor a = Tensor::Arange(10).Reshape({2, 5});
  Tensor s = Slice(a, 1, 1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 3}));
  EXPECT_TRUE(AllClose(s, Tensor({2, 3}, {1, 2, 3, 6, 7, 8})));
}

TEST(TensorOpsTest, SliceOutOfRangeDies) {
  Tensor a = Tensor::Zeros({2, 5});
  EXPECT_DEATH(Slice(a, 1, 3, 3), "out of range");
}

TEST(TensorOpsTest, ConcatAlongDim) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 1}, {9, 10});
  Tensor c = Concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  EXPECT_TRUE(AllClose(c, Tensor({2, 3}, {1, 2, 9, 3, 4, 10})));
}

TEST(TensorOpsTest, ConcatThenSliceRoundTrip) {
  Rng rng(10);
  Tensor a = Tensor::RandNormal({2, 3, 4}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({2, 5, 4}, 0, 1, rng);
  Tensor c = Concat({a, b}, 1);
  EXPECT_TRUE(AllClose(Slice(c, 1, 0, 3), a, 0.0f, 0.0f));
  EXPECT_TRUE(AllClose(Slice(c, 1, 3, 5), b, 0.0f, 0.0f));
}

TEST(TensorOpsTest, PadFrontBack) {
  Tensor a({1, 3}, {1, 2, 3});
  Tensor p = Pad(a, 1, 2, 1, 0.0f);
  EXPECT_EQ(p.shape(), (Shape{1, 6}));
  EXPECT_TRUE(AllClose(p, Tensor({1, 6}, {0, 0, 1, 2, 3, 0})));
}

TEST(TensorOpsTest, PadWithValue) {
  Tensor a({2}, {1, 2});
  Tensor p = Pad(a, 0, 1, 0, -7.0f);
  EXPECT_TRUE(AllClose(p, Tensor({3}, {-7, 1, 2})));
}

// ---- Softmax & helpers -----------------------------------------------------------

TEST(TensorOpsTest, SoftmaxSumsToOne) {
  Rng rng(12);
  Tensor a = Tensor::RandNormal({4, 7}, 0, 3, rng);
  Tensor s = Softmax(a, 1);
  Tensor sums = Sum(s, {1}, false);
  EXPECT_TRUE(AllClose(sums, Tensor::Ones({4}), 1e-5f, 1e-5f));
}

TEST(TensorOpsTest, SoftmaxStableForLargeInputs) {
  Tensor a({1, 2}, {1000.0f, 1001.0f});
  Tensor s = Softmax(a, 1);
  EXPECT_FALSE(HasNonFinite(s));
  EXPECT_GT(s.at({0, 1}), s.at({0, 0}));
}

TEST(TensorOpsTest, ExpandToAndReduceToInverse) {
  Tensor a({2, 1}, {3, 4});
  Tensor e = ExpandTo(a, {2, 5});
  EXPECT_EQ(e.shape(), (Shape{2, 5}));
  EXPECT_EQ(e.at({1, 4}), 4.0f);
  Tensor r = ReduceTo(Tensor::Ones({2, 5}), {2, 1});
  EXPECT_TRUE(AllClose(r, Tensor({2, 1}, {5, 5})));
}

TEST(TensorOpsTest, ReduceToDropsLeadingDims) {
  Tensor t = Tensor::Ones({4, 2, 3});
  Tensor r = ReduceTo(t, {2, 3});
  EXPECT_TRUE(AllClose(r, Tensor::Full({2, 3}, 4.0f)));
}

TEST(TensorOpsTest, HasNonFiniteDetectsNaN) {
  Tensor a({2}, {1.0f, std::numeric_limits<float>::quiet_NaN()});
  EXPECT_TRUE(HasNonFinite(a));
  EXPECT_FALSE(HasNonFinite(Tensor::Ones({3})));
}

// ---- Property-style sweeps --------------------------------------------------------

class BroadcastSweep
    : public ::testing::TestWithParam<std::tuple<Shape, Shape>> {};

TEST_P(BroadcastSweep, AddCommutes) {
  const auto& [sa, sb] = GetParam();
  Rng rng(17);
  Tensor a = Tensor::RandNormal(sa, 0, 1, rng);
  Tensor b = Tensor::RandNormal(sb, 0, 1, rng);
  EXPECT_TRUE(AllClose(Add(a, b), Add(b, a), 0.0f, 0.0f));
}

TEST_P(BroadcastSweep, MulDistributesOverAdd) {
  const auto& [sa, sb] = GetParam();
  Rng rng(18);
  Tensor a = Tensor::RandNormal(sa, 0, 1, rng);
  Tensor b = Tensor::RandNormal(sb, 0, 1, rng);
  Tensor c = Tensor::RandNormal(sb, 0, 1, rng);
  Tensor lhs = Mul(a, Add(b, c));
  Tensor rhs = Add(Mul(a, b), Mul(a, c));
  EXPECT_TRUE(AllClose(lhs, rhs, 1e-5f, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastSweep,
    ::testing::Values(std::make_tuple(Shape{3}, Shape{3}),
                      std::make_tuple(Shape{2, 3}, Shape{3}),
                      std::make_tuple(Shape{2, 3}, Shape{1, 3}),
                      std::make_tuple(Shape{2, 1, 4}, Shape{3, 1}),
                      std::make_tuple(Shape{5, 1}, Shape{1, 7}),
                      std::make_tuple(Shape{2, 3, 4}, Shape{2, 3, 4})));

class MatMulSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(MatMulSweep, MatchesNaiveTripleLoop) {
  const auto& [m, k, n] = GetParam();
  Rng rng(19);
  Tensor a = Tensor::RandNormal({m, k}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({k, n}, 0, 1, rng);
  Tensor c = MatMul(a, b);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += a.at({i, kk}) * b.at({kk, j});
      EXPECT_NEAR(c.at({i, j}), acc, 1e-4f);
    }
  }
}

TEST_P(MatMulSweep, AssociativeWithVector) {
  const auto& [m, k, n] = GetParam();
  Rng rng(20);
  Tensor a = Tensor::RandNormal({m, k}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({k, n}, 0, 1, rng);
  Tensor v = Tensor::RandNormal({n, 1}, 0, 1, rng);
  Tensor lhs = MatMul(MatMul(a, b), v);
  Tensor rhs = MatMul(a, MatMul(b, v));
  EXPECT_TRUE(AllClose(lhs, rhs, 1e-3f, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatMulSweep,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(7, 5, 3),
                                           std::make_tuple(16, 16, 16),
                                           std::make_tuple(1, 8, 1)));

class ReductionSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(ReductionSweep, SumOverEachAxisMatchesTotal) {
  const Shape shape = GetParam();
  Rng rng(21);
  Tensor a = Tensor::RandNormal(shape, 0, 1, rng);
  const float total = SumAll(a).item();
  for (int64_t d = 0; d < a.rank(); ++d) {
    EXPECT_NEAR(SumAll(Sum(a, {d}, false)).item(), total, 1e-3f);
  }
}

TEST_P(ReductionSweep, PermutePreservesSum) {
  const Shape shape = GetParam();
  Rng rng(22);
  Tensor a = Tensor::RandNormal(shape, 0, 1, rng);
  std::vector<int64_t> perm(shape.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::reverse(perm.begin(), perm.end());
  EXPECT_NEAR(SumAll(Permute(a, perm)).item(), SumAll(a).item(), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ReductionSweep,
                         ::testing::Values(Shape{4}, Shape{2, 5}, Shape{3, 4, 5},
                                           Shape{2, 3, 4, 5}));

}  // namespace
}  // namespace msd
