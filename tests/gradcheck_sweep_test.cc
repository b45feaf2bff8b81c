// Exhaustive gradient verification: every differentiable op in
// autograd/ops.h and every nn/core module gets a CheckGradient case with a
// fixed seed. Registered as the single ctest `gradcheck_sweep` (it is one
// logical gate; per-case names still show up in the gtest output).
//
// Non-scalar outputs are scalarized as SumAll(op(x) * probe) with a fixed
// random probe, so an op that scrambles its layout (bad permute/reshape
// backward) cannot cancel the error the way plain SumAll would.
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "core/mlp_block.h"
#include "core/msd_mixer.h"
#include "core/patch_coder.h"
#include "nn/attention.h"
#include "nn/conv_layer.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/revin.h"
#include "tensor/tensor.h"

namespace msd {
namespace {

using OpFn = std::function<Variable(const Variable&)>;

struct SweepCase {
  std::string name;  // must be a valid gtest identifier
  std::function<GradCheckResult()> run;
};

Tensor Uniform(Shape shape, float lo, float hi, uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandUniform(std::move(shape), lo, hi, rng);
}

// Magnitudes in [0.3, 1.0] with random signs: keeps inputs at least 30x the
// finite-difference step away from the kinks of Abs/Relu/Div/MAE at 0.
Tensor AwayFromZero(Shape shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::RandUniform(std::move(shape), 0.3f, 1.0f, rng);
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (rng.Bernoulli(0.5)) p[i] = -p[i];
  }
  return t;
}

// Scalarizes `op` with a fixed random probe and runs CheckGradient at `x0`.
GradCheckResult CheckScalarized(const OpFn& op, const Tensor& x0,
                                uint64_t probe_seed,
                                const GradCheckOptions& options = {}) {
  Shape out_shape;
  {
    NoGradGuard no_grad;
    out_shape = op(Variable(x0)).shape();
  }
  Rng rng(probe_seed);
  const Variable probe(Tensor::RandUniform(out_shape, 0.5f, 1.5f, rng));
  const auto f = [&op, &probe](const Variable& x) {
    return SumAll(Mul(op(x), probe));
  };
  return CheckGradient(f, x0, options);
}

// ---- Case table ------------------------------------------------------------

void AddOpCases(std::vector<SweepCase>* cases) {
  auto add = [cases](std::string name, std::function<GradCheckResult()> run) {
    cases->push_back({std::move(name), std::move(run)});
  };

  // Elementwise binary, both argument slots, plus broadcasting both ways.
  add("Add_lhs", [] {
    const Variable c(Uniform({2, 3}, -1.0f, 1.0f, 11));
    return CheckScalarized([&](const Variable& x) { return Add(x, c); },
                           Uniform({2, 3}, -1.0f, 1.0f, 12), 13);
  });
  add("Add_rhs", [] {
    const Variable c(Uniform({2, 3}, -1.0f, 1.0f, 21));
    return CheckScalarized([&](const Variable& x) { return Add(c, x); },
                           Uniform({2, 3}, -1.0f, 1.0f, 22), 23);
  });
  add("Add_broadcast_suffix", [] {
    const Variable c(Uniform({3}, -1.0f, 1.0f, 31));
    return CheckScalarized([&](const Variable& x) { return Add(x, c); },
                           Uniform({2, 3}, -1.0f, 1.0f, 32), 33);
  });
  add("Add_broadcast_reduce", [] {
    // x is the *small* side: its gradient must reduce over the broadcast dim.
    const Variable c(Uniform({2, 3}, -1.0f, 1.0f, 41));
    return CheckScalarized([&](const Variable& x) { return Add(c, x); },
                           Uniform({3}, -1.0f, 1.0f, 42), 43);
  });
  add("Sub_lhs", [] {
    const Variable c(Uniform({2, 3}, -1.0f, 1.0f, 51));
    return CheckScalarized([&](const Variable& x) { return Sub(x, c); },
                           Uniform({2, 3}, -1.0f, 1.0f, 52), 53);
  });
  add("Sub_rhs", [] {
    const Variable c(Uniform({2, 3}, -1.0f, 1.0f, 61));
    return CheckScalarized([&](const Variable& x) { return Sub(c, x); },
                           Uniform({2, 3}, -1.0f, 1.0f, 62), 63);
  });
  add("Mul_lhs", [] {
    const Variable c(Uniform({2, 3}, -1.0f, 1.0f, 71));
    return CheckScalarized([&](const Variable& x) { return Mul(x, c); },
                           Uniform({2, 3}, -1.0f, 1.0f, 72), 73);
  });
  add("Mul_rhs", [] {
    const Variable c(Uniform({2, 3}, -1.0f, 1.0f, 81));
    return CheckScalarized([&](const Variable& x) { return Mul(c, x); },
                           Uniform({2, 3}, -1.0f, 1.0f, 82), 83);
  });
  add("Mul_broadcast_reduce", [] {
    const Variable c(Uniform({2, 3}, -1.0f, 1.0f, 91));
    return CheckScalarized([&](const Variable& x) { return Mul(c, x); },
                           Uniform({3}, -1.0f, 1.0f, 92), 93);
  });
  add("Div_lhs", [] {
    const Variable c(AwayFromZero({2, 3}, 101));
    return CheckScalarized([&](const Variable& x) { return Div(x, c); },
                           Uniform({2, 3}, -1.0f, 1.0f, 102), 103);
  });
  add("Div_rhs", [] {
    const Variable c(Uniform({2, 3}, -1.0f, 1.0f, 111));
    return CheckScalarized([&](const Variable& x) { return Div(c, x); },
                           AwayFromZero({2, 3}, 112), 113);
  });

  add("AddScalar", [] {
    return CheckScalarized(
        [](const Variable& x) { return AddScalar(x, 0.7f); },
        Uniform({2, 3}, -1.0f, 1.0f, 121), 122);
  });
  add("MulScalar", [] {
    return CheckScalarized(
        [](const Variable& x) { return MulScalar(x, -1.3f); },
        Uniform({2, 3}, -1.0f, 1.0f, 131), 132);
  });

  // Elementwise unary; domains bounded away from kinks/poles.
  add("Neg", [] {
    return CheckScalarized([](const Variable& x) { return Neg(x); },
                           Uniform({2, 3}, -1.0f, 1.0f, 141), 142);
  });
  add("Exp", [] {
    return CheckScalarized([](const Variable& x) { return Exp(x); },
                           Uniform({2, 3}, -1.0f, 1.0f, 151), 152);
  });
  add("Log", [] {
    return CheckScalarized([](const Variable& x) { return Log(x); },
                           Uniform({2, 3}, 0.5f, 2.0f, 161), 162);
  });
  add("Sqrt", [] {
    return CheckScalarized([](const Variable& x) { return Sqrt(x); },
                           Uniform({2, 3}, 0.25f, 2.0f, 171), 172);
  });
  add("Square", [] {
    return CheckScalarized([](const Variable& x) { return Square(x); },
                           Uniform({2, 3}, -1.0f, 1.0f, 181), 182);
  });
  add("Abs", [] {
    return CheckScalarized([](const Variable& x) { return Abs(x); },
                           AwayFromZero({2, 3}, 191), 192);
  });
  add("Relu", [] {
    return CheckScalarized([](const Variable& x) { return Relu(x); },
                           AwayFromZero({2, 3}, 201), 202);
  });
  add("Gelu", [] {
    return CheckScalarized([](const Variable& x) { return Gelu(x); },
                           Uniform({2, 3}, -2.0f, 2.0f, 211), 212);
  });
  add("Sigmoid", [] {
    return CheckScalarized([](const Variable& x) { return Sigmoid(x); },
                           Uniform({2, 3}, -2.0f, 2.0f, 221), 222);
  });
  add("Tanh", [] {
    return CheckScalarized([](const Variable& x) { return Tanh(x); },
                           Uniform({2, 3}, -2.0f, 2.0f, 231), 232);
  });

  // Linear algebra.
  add("MatMul_lhs", [] {
    const Variable c(Uniform({3, 4}, -1.0f, 1.0f, 241));
    return CheckScalarized([&](const Variable& x) { return MatMul(x, c); },
                           Uniform({2, 3}, -1.0f, 1.0f, 242), 243);
  });
  add("MatMul_rhs", [] {
    const Variable c(Uniform({2, 3}, -1.0f, 1.0f, 251));
    return CheckScalarized([&](const Variable& x) { return MatMul(c, x); },
                           Uniform({3, 4}, -1.0f, 1.0f, 252), 253);
  });
  add("MatMul_batched", [] {
    const Variable c(Uniform({2, 3, 4}, -1.0f, 1.0f, 261));
    return CheckScalarized([&](const Variable& x) { return MatMul(x, c); },
                           Uniform({2, 2, 3}, -1.0f, 1.0f, 262), 263);
  });
  add("MatMul_batch_broadcast", [] {
    // Rank-2 rhs broadcast over the batch dim: its gradient must reduce.
    const Variable c(Uniform({2, 2, 3}, -1.0f, 1.0f, 271));
    return CheckScalarized([&](const Variable& x) { return MatMul(c, x); },
                           Uniform({3, 4}, -1.0f, 1.0f, 272), 273);
  });
  // Fused GEMM epilogues (MatMulEx): every activation, each argument slot.
  // The backward recovers dz from the activation output (gelu from the saved
  // pre-activation), so each slot exercises a different recovery formula.
  add("MatMulEx_identity_bias", [] {
    const Variable a(Uniform({2, 3}, -1.0f, 1.0f, 2001));
    const Variable b(Uniform({3, 4}, -1.0f, 1.0f, 2002));
    return CheckScalarized(
        [&](const Variable& x) {
          return MatMulEx(a, b, x, gemm::Activation::kIdentity);
        },
        Uniform({4}, -1.0f, 1.0f, 2003), 2004);
  });
  add("MatMulEx_relu_lhs", [] {
    // Bias of magnitude >= 0.5 pushes the pre-activations away from relu's
    // kink so the finite-difference probe cannot cross it.
    const Variable b(Uniform({3, 4}, -1.0f, 1.0f, 2011));
    const Variable bias(AwayFromZero({4}, 2012));
    return CheckScalarized(
        [&](const Variable& x) {
          return MatMulEx(x, b, bias, gemm::Activation::kRelu);
        },
        Uniform({2, 3}, -0.1f, 0.1f, 2013), 2014);
  });
  add("MatMulEx_gelu_lhs", [] {
    const Variable b(Uniform({3, 4}, -1.0f, 1.0f, 2021));
    const Variable bias(Uniform({4}, -1.0f, 1.0f, 2022));
    return CheckScalarized(
        [&](const Variable& x) {
          return MatMulEx(x, b, bias, gemm::Activation::kGelu);
        },
        Uniform({2, 3}, -1.0f, 1.0f, 2023), 2024);
  });
  add("MatMulEx_gelu_rhs", [] {
    const Variable a(Uniform({2, 3}, -1.0f, 1.0f, 2031));
    const Variable bias(Uniform({4}, -1.0f, 1.0f, 2032));
    return CheckScalarized(
        [&](const Variable& x) {
          return MatMulEx(a, x, bias, gemm::Activation::kGelu);
        },
        Uniform({3, 4}, -1.0f, 1.0f, 2033), 2034);
  });
  add("MatMulEx_gelu_bias", [] {
    const Variable a(Uniform({2, 3}, -1.0f, 1.0f, 2041));
    const Variable b(Uniform({3, 4}, -1.0f, 1.0f, 2042));
    return CheckScalarized(
        [&](const Variable& x) {
          return MatMulEx(a, b, x, gemm::Activation::kGelu);
        },
        Uniform({4}, -1.0f, 1.0f, 2043), 2044);
  });
  add("MatMulEx_tanh_lhs", [] {
    const Variable b(Uniform({3, 4}, -1.0f, 1.0f, 2051));
    const Variable bias(Uniform({4}, -1.0f, 1.0f, 2052));
    return CheckScalarized(
        [&](const Variable& x) {
          return MatMulEx(x, b, bias, gemm::Activation::kTanh);
        },
        Uniform({2, 3}, -1.0f, 1.0f, 2053), 2054);
  });
  add("MatMulEx_sigmoid_bias", [] {
    const Variable a(Uniform({2, 3}, -1.0f, 1.0f, 2061));
    const Variable b(Uniform({3, 4}, -1.0f, 1.0f, 2062));
    return CheckScalarized(
        [&](const Variable& x) {
          return MatMulEx(a, b, x, gemm::Activation::kSigmoid);
        },
        Uniform({4}, -1.0f, 1.0f, 2063), 2064);
  });
  add("MatMulEx_batched_gelu", [] {
    // Rank-3 lhs against a shared rank-2 rhs: the flattened single-GEMM
    // path, with the bias gradient reducing over batch and rows.
    const Variable b(Uniform({3, 4}, -1.0f, 1.0f, 2071));
    const Variable bias(Uniform({4}, -1.0f, 1.0f, 2072));
    return CheckScalarized(
        [&](const Variable& x) {
          return MatMulEx(x, b, bias, gemm::Activation::kGelu);
        },
        Uniform({2, 2, 3}, -1.0f, 1.0f, 2073), 2074);
  });
  add("MatMulEx_rank4_gelu_rhs", [] {
    // Rank-4 lhs against a shared rank-2 weight (the MSD-Mixer MLP shape):
    // the weight gradient sums every leading row in one reduction GEMM.
    const Variable a(Uniform({2, 2, 3, 3}, -1.0f, 1.0f, 2081));
    const Variable bias(Uniform({4}, -1.0f, 1.0f, 2082));
    return CheckScalarized(
        [&](const Variable& x) {
          return MatMulEx(a, x, bias, gemm::Activation::kGelu);
        },
        Uniform({3, 4}, -1.0f, 1.0f, 2083), 2084);
  });
  add("MatMulEx_rank4_gelu_bias", [] {
    // Same shapes, bias slot: dz reduced over three leading dims and rows.
    const Variable a(Uniform({2, 2, 3, 3}, -1.0f, 1.0f, 2091));
    const Variable b(Uniform({3, 4}, -1.0f, 1.0f, 2092));
    return CheckScalarized(
        [&](const Variable& x) {
          return MatMulEx(a, b, x, gemm::Activation::kGelu);
        },
        Uniform({4}, -1.0f, 1.0f, 2093), 2094);
  });
  add("Conv2d_input", [] {
    const Variable k(Uniform({3, 2, 3, 3}, -0.5f, 0.5f, 281));
    return CheckScalarized(
        [&](const Variable& x) { return Conv2d(x, k, 2, 1); },
        Uniform({1, 2, 5, 5}, -1.0f, 1.0f, 282), 283);
  });
  add("Conv2d_kernel", [] {
    const Variable in(Uniform({1, 2, 5, 5}, -1.0f, 1.0f, 291));
    return CheckScalarized(
        [&](const Variable& x) { return Conv2d(in, x, 2, 1); },
        Uniform({3, 2, 3, 3}, -0.5f, 0.5f, 292), 293);
  });

  // Reductions.
  add("Sum_dim", [] {
    return CheckScalarized(
        [](const Variable& x) { return Sum(x, {1}, false); },
        Uniform({2, 3, 4}, -1.0f, 1.0f, 301), 302);
  });
  add("Sum_keepdim", [] {
    return CheckScalarized(
        [](const Variable& x) { return Sum(x, {0, 2}, true); },
        Uniform({2, 3, 4}, -1.0f, 1.0f, 311), 312);
  });
  add("Mean_dim", [] {
    return CheckScalarized(
        [](const Variable& x) { return Mean(x, {2}, false); },
        Uniform({2, 3, 4}, -1.0f, 1.0f, 321), 322);
  });
  add("SumAll", [] {
    return CheckGradient([](const Variable& x) { return SumAll(x); },
                         Uniform({2, 3, 4}, -1.0f, 1.0f, 331));
  });
  add("MeanAll", [] {
    return CheckGradient([](const Variable& x) { return MeanAll(x); },
                         Uniform({2, 3, 4}, -1.0f, 1.0f, 341));
  });

  // Movement: the probe scalarization is what makes these meaningful — a
  // backward that permutes gradients into the wrong slots still sums to the
  // same total under plain SumAll.
  add("Reshape", [] {
    return CheckScalarized(
        [](const Variable& x) { return Reshape(x, {4, 6}); },
        Uniform({2, 3, 4}, -1.0f, 1.0f, 351), 352);
  });
  add("Permute", [] {
    return CheckScalarized(
        [](const Variable& x) { return Permute(x, {2, 0, 1}); },
        Uniform({2, 3, 4}, -1.0f, 1.0f, 361), 362);
  });
  add("Transpose", [] {
    return CheckScalarized(
        [](const Variable& x) { return Transpose(x, 0, 2); },
        Uniform({2, 3, 4}, -1.0f, 1.0f, 371), 372);
  });
  add("Slice", [] {
    return CheckScalarized(
        [](const Variable& x) { return Slice(x, 1, 1, 2); },
        Uniform({2, 3, 4}, -1.0f, 1.0f, 381), 382);
  });
  add("Pad", [] {
    return CheckScalarized(
        [](const Variable& x) { return Pad(x, 2, 1, 2, 0.5f); },
        Uniform({2, 3, 4}, -1.0f, 1.0f, 391), 392);
  });
  add("Concat_repeated_input", [] {
    // x appears twice: its gradient is the sum of two slices' contributions.
    const Variable c(Uniform({2, 2, 4}, -1.0f, 1.0f, 401));
    return CheckScalarized(
        [&](const Variable& x) { return Concat({x, c, x}, 1); },
        Uniform({2, 3, 4}, -1.0f, 1.0f, 402), 403);
  });

  // Composite.
  add("Softmax", [] {
    return CheckScalarized(
        [](const Variable& x) { return Softmax(x, 1); },
        Uniform({2, 5}, -2.0f, 2.0f, 411), 412);
  });
  add("LogSoftmax", [] {
    return CheckScalarized(
        [](const Variable& x) { return LogSoftmax(x, 1); },
        Uniform({2, 5}, -2.0f, 2.0f, 421), 422);
  });
}

void AddModuleCases(std::vector<SweepCase>* cases) {
  auto add = [cases](std::string name, std::function<GradCheckResult()> run) {
    cases->push_back({std::move(name), std::move(run)});
  };

  // All modules run in eval mode: CheckGradient requires a pure function, and
  // eval freezes the stochastic ones (Dropout, DropPath).
  add("Module_Linear", [] {
    Rng rng(1001);
    Linear module(4, 5, rng);
    module.SetTraining(false);
    return CheckScalarized(
        [&](const Variable& x) { return module.Forward(x); },
        Uniform({2, 3, 4}, -1.0f, 1.0f, 1002), 1003);
  });
  add("Module_LayerNorm", [] {
    LayerNorm module(4);
    module.SetTraining(false);
    return CheckScalarized(
        [&](const Variable& x) { return module.Forward(x); },
        Uniform({2, 3, 4}, -1.0f, 1.0f, 1012), 1013);
  });
  add("Module_Dropout_eval_identity", [] {
    Rng rng(1021);
    Dropout module(0.5f, rng);
    module.SetTraining(false);
    return CheckScalarized(
        [&](const Variable& x) { return module.Forward(x); },
        Uniform({2, 3}, -1.0f, 1.0f, 1022), 1023);
  });
  add("Module_Sequential", [] {
    Rng rng(1031);
    Sequential module;
    module.Add(std::make_unique<Linear>(4, 6, rng))
        .Add(std::make_unique<Activation>(ActivationKind::kGelu))
        .Add(std::make_unique<Linear>(6, 2, rng));
    module.SetTraining(false);
    return CheckScalarized(
        [&](const Variable& x) { return module.Forward(x); },
        Uniform({2, 4}, -1.0f, 1.0f, 1032), 1033);
  });
  add("Module_Conv2dLayer", [] {
    Rng rng(1041);
    Conv2dLayer module(2, 3, 3, rng, /*stride=*/2, /*padding=*/1);
    module.SetTraining(false);
    return CheckScalarized(
        [&](const Variable& x) { return module.Forward(x); },
        Uniform({1, 2, 5, 5}, -1.0f, 1.0f, 1042), 1043);
  });
  add("Module_MultiHeadSelfAttention", [] {
    Rng rng(1051);
    MultiHeadSelfAttention module(8, 2, rng);
    module.SetTraining(false);
    return CheckScalarized(
        [&](const Variable& x) { return module.Forward(x); },
        Uniform({1, 4, 8}, -1.0f, 1.0f, 1052), 1053);
  });
  add("Module_TransformerEncoderBlock", [] {
    Rng rng(1061);
    TransformerEncoderBlock module(8, 2, 16, rng);
    module.SetTraining(false);
    return CheckScalarized(
        [&](const Variable& x) { return module.Forward(x); },
        Uniform({1, 3, 8}, -1.0f, 1.0f, 1062), 1063);
  });
  add("RevIn_normalize", [] {
    return CheckScalarized(
        [](const Variable& x) {
          return RevInNormalize(x, ComputeRevInStats(x));
        },
        Uniform({2, 2, 6}, -1.0f, 1.0f, 1072), 1073);
  });
  add("RevIn_roundtrip", [] {
    return CheckScalarized(
        [](const Variable& x) {
          const RevInStats stats = ComputeRevInStats(x);
          return RevInDenormalize(RevInNormalize(x, stats), stats);
        },
        Uniform({2, 2, 6}, -1.0f, 1.0f, 1082), 1083);
  });

  // Losses are scalar-valued already; no probe needed.
  add("Loss_Mse", [] {
    const Variable target(Uniform({2, 3, 4}, -1.0f, 1.0f, 1091));
    return CheckGradient(
        [&](const Variable& x) { return MseLoss(x, target); },
        Uniform({2, 3, 4}, -1.0f, 1.0f, 1092));
  });
  add("Loss_Mae", [] {
    // Prediction = target + offsets of magnitude >= 0.3: the |error| kink at
    // 0 stays out of reach of the finite-difference step.
    const Tensor target = Uniform({2, 3, 4}, -1.0f, 1.0f, 1101);
    const Tensor offset = AwayFromZero({2, 3, 4}, 1102);
    Tensor x0 = target.Clone();
    for (int64_t i = 0; i < x0.numel(); ++i) {
      x0.data()[i] += offset.data()[i];
    }
    const Variable target_var(target);
    return CheckGradient(
        [&](const Variable& x) { return MaeLoss(x, target_var); }, x0);
  });
  add("Loss_MaskedMse", [] {
    const Variable target(Uniform({2, 3, 4}, -1.0f, 1.0f, 1111));
    Tensor mask = Tensor::Zeros({2, 3, 4});
    for (int64_t i = 0; i < mask.numel(); i += 2) mask.data()[i] = 1.0f;
    return CheckGradient(
        [&](const Variable& x) { return MaskedMseLoss(x, target, mask); },
        Uniform({2, 3, 4}, -1.0f, 1.0f, 1112));
  });
  add("Loss_Huber_quadratic", [] {
    const Tensor target = Uniform({2, 3, 4}, -1.0f, 1.0f, 1121);
    Tensor x0 = target.Clone();
    Rng rng(1122);
    // Errors in [0.3, 0.7]: inside the quadratic region of delta = 1, away
    // from both the zero kink and the delta transition.
    for (int64_t i = 0; i < x0.numel(); ++i) {
      const float e = rng.Uniform(0.3f, 0.7f);
      x0.data()[i] += rng.Bernoulli(0.5) ? e : -e;
    }
    const Variable target_var(target);
    return CheckGradient(
        [&](const Variable& x) { return HuberLoss(x, target_var, 1.0f); }, x0);
  });
  add("Loss_Huber_linear", [] {
    const Tensor target = Uniform({2, 3, 4}, -1.0f, 1.0f, 1131);
    Tensor x0 = target.Clone();
    Rng rng(1132);
    // Errors in [1.3, 1.7]: the linear region of delta = 1.
    for (int64_t i = 0; i < x0.numel(); ++i) {
      const float e = rng.Uniform(1.3f, 1.7f);
      x0.data()[i] += rng.Bernoulli(0.5) ? e : -e;
    }
    const Variable target_var(target);
    return CheckGradient(
        [&](const Variable& x) { return HuberLoss(x, target_var, 1.0f); }, x0);
  });
  add("Loss_CrossEntropy", [] {
    const Tensor labels({3}, {0.0f, 3.0f, 1.0f});
    return CheckGradient(
        [&](const Variable& x) { return CrossEntropyLoss(x, labels); },
        Uniform({3, 4}, -2.0f, 2.0f, 1141));
  });

  // MSD-Mixer building blocks and the full model.
  add("Core_MlpBlock", [] {
    Rng rng(1151);
    MlpBlock module(4, 8, /*drop_path=*/0.2f, rng);
    module.SetTraining(false);
    return CheckScalarized(
        [&](const Variable& x) { return module.Forward(x); },
        Uniform({2, 3, 4}, -1.0f, 1.0f, 1152), 1153);
  });
  add("Core_AxisMlpBlock", [] {
    Rng rng(1161);
    AxisMlpBlock module(/*axis=*/1, /*features=*/3, /*hidden=*/6,
                        /*drop_path=*/0.0f, rng);
    module.SetTraining(false);
    return CheckScalarized(
        [&](const Variable& x) { return module.Forward(x); },
        Uniform({2, 3, 4}, -1.0f, 1.0f, 1162), 1163);
  });
  add("Core_PatchEncoder", [] {
    Rng rng(1171);
    PatchCoderDims dims;
    dims.channels = 2;
    dims.num_patches = 3;
    dims.patch_size = 4;
    dims.model_dim = 5;
    dims.hidden_dim = 6;
    PatchEncoder module(dims, rng);
    module.SetTraining(false);
    return CheckScalarized(
        [&](const Variable& x) { return module.Forward(x); },
        Uniform({1, 2, 3, 4}, -1.0f, 1.0f, 1172), 1173);
  });
  add("Core_PatchDecoder", [] {
    Rng rng(1181);
    PatchCoderDims dims;
    dims.channels = 2;
    dims.num_patches = 3;
    dims.patch_size = 4;
    dims.model_dim = 5;
    dims.hidden_dim = 6;
    PatchDecoder module(dims, rng);
    module.SetTraining(false);
    return CheckScalarized(
        [&](const Variable& x) { return module.Forward(x); },
        Uniform({1, 2, 3, 5}, -1.0f, 1.0f, 1182), 1183);
  });
  add("Core_MsdMixer_forecast", [] {
    Rng rng(1191);
    MsdMixerConfig config;
    config.input_length = 8;
    config.channels = 2;
    config.patch_sizes = {4, 2};
    config.model_dim = 4;
    config.hidden_dim = 8;
    config.drop_path = 0.0f;
    config.task = TaskType::kForecast;
    config.horizon = 4;
    MsdMixer model(config, rng);
    model.SetTraining(false);
    return CheckScalarized(
        [&](const Variable& x) { return model.Run(x).prediction; },
        Uniform({1, 2, 8}, -1.0f, 1.0f, 1192), 1193);
  });
  add("Core_MsdMixer_residual", [] {
    Rng rng(1201);
    MsdMixerConfig config;
    config.input_length = 8;
    config.channels = 2;
    config.patch_sizes = {4, 2};
    config.model_dim = 4;
    config.hidden_dim = 8;
    config.drop_path = 0.0f;
    config.task = TaskType::kForecast;
    config.horizon = 4;
    MsdMixer model(config, rng);
    model.SetTraining(false);
    return CheckScalarized(
        [&](const Variable& x) { return model.Run(x).residual; },
        Uniform({1, 2, 8}, -1.0f, 1.0f, 1202), 1203);
  });
  add("Core_MsdMixer_classification", [] {
    Rng rng(1211);
    MsdMixerConfig config;
    config.input_length = 8;
    config.channels = 2;
    config.patch_sizes = {4, 2};
    config.model_dim = 4;
    config.hidden_dim = 8;
    config.drop_path = 0.0f;
    config.task = TaskType::kClassification;
    config.num_classes = 3;
    MsdMixer model(config, rng);
    model.SetTraining(false);
    return CheckScalarized(
        [&](const Variable& x) { return model.Run(x).prediction; },
        Uniform({1, 2, 8}, -1.0f, 1.0f, 1212), 1213);
  });
  add("Core_MsdMixer_reconstruction", [] {
    Rng rng(1221);
    MsdMixerConfig config;
    config.input_length = 8;
    config.channels = 2;
    config.patch_sizes = {4, 2};
    config.model_dim = 4;
    config.hidden_dim = 8;
    config.drop_path = 0.0f;
    config.task = TaskType::kReconstruction;
    MsdMixer model(config, rng);
    model.SetTraining(false);
    return CheckScalarized(
        [&](const Variable& x) { return model.Run(x).prediction; },
        Uniform({1, 2, 8}, -1.0f, 1.0f, 1222), 1223);
  });
}

std::vector<SweepCase> BuildCases() {
  std::vector<SweepCase> cases;
  AddOpCases(&cases);
  AddModuleCases(&cases);
  return cases;
}

class GradcheckSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(GradcheckSweep, AnalyticMatchesNumeric) {
  const GradCheckResult result = GetParam().run();
  EXPECT_TRUE(result.ok) << GetParam().name << ": " << result.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    All, GradcheckSweep, ::testing::ValuesIn(BuildCases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace msd
