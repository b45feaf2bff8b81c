// Bit-determinism suite for the parallel runtime: forward losses, gradients,
// reductions, and fully trained models must be byte-identical for every
// MSD_THREADS value (the contract in docs/RUNTIME.md). Comparisons are exact
// — memcmp over float buffers, no tolerances.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "autograd/ops.h"
#include "core/msd_mixer.h"
#include "data/window_dataset.h"
#include "runtime/parallel.h"
#include "tasks/task_model.h"
#include "tasks/trainer.h"
#include "tensor/fft.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace {

constexpr int64_t kThreadCounts[] = {1, 2, 8};

void ExpectBitIdentical(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.defined());
  ASSERT_TRUE(b.defined());
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.numel()) * sizeof(float)),
            0)
      << what << " differs bitwise across thread counts";
}

MsdMixerConfig SmallForecastConfig() {
  MsdMixerConfig config;
  config.input_length = 48;
  config.channels = 3;
  config.patch_sizes = {12, 4, 1};
  config.model_dim = 8;
  config.hidden_dim = 16;
  config.drop_path = 0.0f;
  config.task = TaskType::kForecast;
  config.horizon = 24;
  return config;
}

TEST(DeterminismTest, ElementwiseAndMatMulKernels) {
  Rng rng(5);
  Tensor a = Tensor::RandNormal({4, 7, 96}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({4, 7, 96}, 0, 1, rng);
  Tensor m1 = Tensor::RandNormal({33, 65}, 0, 1, rng);
  Tensor m2 = Tensor::RandNormal({65, 17}, 0, 1, rng);
  Tensor bias = Tensor::RandNormal({96}, 0, 1, rng);

  std::vector<Tensor> sums, gelus, mats, biased;
  for (int64_t threads : kThreadCounts) {
    runtime::ScopedThreads scoped(threads);
    sums.push_back(Add(a, b));
    gelus.push_back(Gelu(a));
    mats.push_back(MatMul(m1, m2));
    biased.push_back(Add(a, bias));
  }
  for (size_t k = 1; k < sums.size(); ++k) {
    ExpectBitIdentical(sums[0], sums[k], "Add");
    ExpectBitIdentical(gelus[0], gelus[k], "Gelu");
    ExpectBitIdentical(mats[0], mats[k], "MatMul");
    ExpectBitIdentical(biased[0], biased[k], "broadcast Add");
  }
}

TEST(DeterminismTest, ReductionsAndFft) {
  Rng rng(11);
  // Large enough to split into many chunks; values span magnitudes so the
  // combine order would show in the low bits if it varied.
  Tensor t = Tensor::RandNormal({32, 7, 512}, 0, 100, rng);
  Tensor series = Tensor::RandNormal({7, 256}, 0, 1, rng);

  std::vector<Tensor> sum_all;
  std::vector<float> max_abs;
  std::vector<std::vector<int64_t>> periods;
  for (int64_t threads : kThreadCounts) {
    runtime::ScopedThreads scoped(threads);
    sum_all.push_back(SumAll(t));
    max_abs.push_back(MaxAbs(t));
    periods.push_back(TopPeriodsFft(series, 3));
  }
  for (size_t k = 1; k < sum_all.size(); ++k) {
    ExpectBitIdentical(sum_all[0], sum_all[k], "SumAll");
    EXPECT_EQ(max_abs[0], max_abs[k]);  // exact: no tolerance
    EXPECT_EQ(periods[0], periods[k]);
  }
}

TEST(DeterminismTest, BlockedGemmShapeSweep) {
  // Shapes chosen to hit every edge of the blocked GEMM (tensor/gemm.h):
  // m/n tails smaller than the 8x8 register tile, k spilling past the 256
  // k-slice, and m spanning several 64-row parallel tiles. The tiling is a
  // pure function of the shape, so each product must be byte-stable across
  // pool sizes.
  const int64_t shapes[][3] = {
      {5, 300, 2}, {33, 65, 17}, {257, 64, 9}, {64, 256, 64}};
  Rng rng(23);
  for (const auto& s : shapes) {
    Tensor a = Tensor::RandNormal({s[0], s[1]}, 0, 1, rng);
    Tensor b = Tensor::RandNormal({s[1], s[2]}, 0, 1, rng);
    std::vector<Tensor> outs;
    for (int64_t threads : kThreadCounts) {
      runtime::ScopedThreads scoped(threads);
      outs.push_back(MatMul(a, b));
    }
    for (size_t k = 1; k < outs.size(); ++k) {
      ExpectBitIdentical(outs[0], outs[k], "blocked GEMM");
    }
  }
}

TEST(DeterminismTest, BatchedAndFusedMatMulBitIdentical) {
  Rng rng(29);
  // Shared-B batch (the flattened single-GEMM fast path).
  Tensor a = Tensor::RandNormal({6, 5, 4, 24}, 0, 1, rng);
  Tensor w = Tensor::RandNormal({24, 16}, 0, 1, rng);
  Tensor bias = Tensor::RandNormal({16}, 0, 1, rng);
  // True batched product (per-batch GEMM dispatch).
  Tensor ab = Tensor::RandNormal({3, 4, 12, 20}, 0, 1, rng);
  Tensor bb = Tensor::RandNormal({3, 4, 20, 8}, 0, 1, rng);

  const gemm::Activation acts[] = {
      gemm::Activation::kIdentity, gemm::Activation::kRelu,
      gemm::Activation::kGelu, gemm::Activation::kTanh,
      gemm::Activation::kSigmoid};
  std::vector<Tensor> shared, batched;
  std::vector<std::vector<Tensor>> fused;
  for (int64_t threads : kThreadCounts) {
    runtime::ScopedThreads scoped(threads);
    shared.push_back(MatMul(a, w));
    batched.push_back(MatMul(ab, bb));
    std::vector<Tensor> per_act;
    for (gemm::Activation act : acts) {
      per_act.push_back(MatMulEx(a, w, bias, act));
    }
    fused.push_back(std::move(per_act));
  }
  for (size_t k = 1; k < shared.size(); ++k) {
    ExpectBitIdentical(shared[0], shared[k], "shared-B batched MatMul");
    ExpectBitIdentical(batched[0], batched[k], "true-batched MatMul");
    for (size_t i = 0; i < fused[0].size(); ++i) {
      ExpectBitIdentical(fused[0][i], fused[k][i], "fused MatMulEx epilogue");
    }
  }
}

TEST(DeterminismTest, FusedEpilogueGradientsBitIdentical) {
  // Shared-weight Linear inputs. 48 rows fit one row chunk of the
  // weight-gradient GEMM; the rank-4 MSD-Mixer MLP shape has 2037 rows
  // (3*7*97), eight chunks and no multiple of the 256-row grain, so the
  // partial-fold tree runs; the last shape adds k past one 64-row block.
  struct Case {
    Shape a;
    int64_t n;
  };
  const Case cases[] = {
      {{4, 12, 20}, 8}, {{3, 7, 97, 7}, 32}, {{2, 3, 50, 70}, 9}};
  const gemm::Activation acts[] = {
      gemm::Activation::kIdentity, gemm::Activation::kRelu,
      gemm::Activation::kGelu, gemm::Activation::kTanh,
      gemm::Activation::kSigmoid};
  Rng rng(31);
  for (const Case& c : cases) {
    Tensor at = Tensor::RandNormal(c.a, 0, 1, rng);
    Tensor wt = Tensor::RandNormal({c.a.back(), c.n}, 0, 0.3f, rng);
    Tensor biast = Tensor::RandNormal({c.n}, 0, 1, rng);
    for (gemm::Activation act : acts) {
      std::vector<Tensor> da, dw, dbias;
      for (int64_t threads : kThreadCounts) {
        runtime::ScopedThreads scoped(threads);
        Variable a(at, /*requires_grad=*/true);
        Variable w(wt, /*requires_grad=*/true);
        Variable bias(biast, /*requires_grad=*/true);
        MeanAll(Square(MatMulEx(a, w, bias, act))).Backward();
        da.push_back(a.grad().Clone());
        dw.push_back(w.grad().Clone());
        dbias.push_back(bias.grad().Clone());
      }
      for (size_t k = 1; k < da.size(); ++k) {
        ExpectBitIdentical(da[0], da[k], "MatMulEx grad a");
        ExpectBitIdentical(dw[0], dw[k], "MatMulEx grad b");
        ExpectBitIdentical(dbias[0], dbias[k], "MatMulEx grad bias");
      }
    }
  }
}

TEST(DeterminismTest, RfftSpectraExactAcrossThreadCounts) {
  Rng rng(37);
  Tensor noise = Tensor::RandNormal({300}, 0, 1, rng);
  std::vector<float> values(noise.data(), noise.data() + noise.numel());
  Tensor series = Tensor::RandNormal({16, 512}, 0, 1, rng);

  std::vector<std::vector<double>> spectra;
  std::vector<std::vector<int64_t>> periods;
  for (int64_t threads : kThreadCounts) {
    runtime::ScopedThreads scoped(threads);
    spectra.push_back(AmplitudeSpectrum(values));
    periods.push_back(TopPeriodsFft(series, 4));
  }
  for (size_t k = 1; k < spectra.size(); ++k) {
    // Exact double equality: the rfft itself is serial and the channel fan
    // out merges in fixed order, so not even the low bits may move.
    EXPECT_EQ(spectra[0], spectra[k]);
    EXPECT_EQ(periods[0], periods[k]);
  }
}

TEST(DeterminismTest, ForwardLossBitIdenticalAcrossThreadCounts) {
  Rng model_rng(7);
  MsdMixer mixer(SmallForecastConfig(), model_rng);
  mixer.SetTraining(false);
  Rng data_rng(3);
  Tensor x = Tensor::RandNormal({8, 3, 48}, 0, 1, data_rng);
  Tensor y = Tensor::RandNormal({8, 3, 24}, 0, 1, data_rng);

  NoGradGuard guard;
  std::vector<Tensor> predictions;
  std::vector<float> losses;
  for (int64_t threads : kThreadCounts) {
    runtime::ScopedThreads scoped(threads);
    MsdMixerOutput out = mixer.Run(Variable(x));
    predictions.push_back(out.prediction.value());
    losses.push_back(
        MeanAll(Square(Sub(out.prediction, Variable(y)))).item());
  }
  for (size_t k = 1; k < predictions.size(); ++k) {
    ExpectBitIdentical(predictions[0], predictions[k], "forward prediction");
    EXPECT_EQ(losses[0], losses[k]);
  }
}

TEST(DeterminismTest, GradientsBitIdenticalAcrossThreadCounts) {
  Rng model_rng(7);
  MsdMixer mixer(SmallForecastConfig(), model_rng);
  Rng data_rng(3);
  Tensor x = Tensor::RandNormal({8, 3, 48}, 0, 1, data_rng);
  Tensor y = Tensor::RandNormal({8, 3, 24}, 0, 1, data_rng);

  std::vector<std::vector<Tensor>> grads;
  for (int64_t threads : kThreadCounts) {
    runtime::ScopedThreads scoped(threads);
    for (Variable& p : mixer.Parameters()) p.ZeroGrad();
    MsdMixerOutput out = mixer.Run(Variable(x));
    Variable loss = Add(MeanAll(Square(Sub(out.prediction, Variable(y)))),
                        MulScalar(ResidualLoss(out.residual, {}), 0.3f));
    loss.Backward();
    std::vector<Tensor> snapshot;
    for (Variable& p : mixer.Parameters()) {
      ASSERT_TRUE(p.has_grad());
      snapshot.push_back(p.grad().Clone());
    }
    grads.push_back(std::move(snapshot));
  }
  for (size_t k = 1; k < grads.size(); ++k) {
    ASSERT_EQ(grads[0].size(), grads[k].size());
    for (size_t p = 0; p < grads[0].size(); ++p) {
      ExpectBitIdentical(grads[0][p], grads[k][p], "parameter gradient");
    }
  }
}

TEST(DeterminismTest, TrainedModelBitIdenticalAcrossThreadCounts) {
  Rng series_rng(13);
  Tensor series = Tensor::RandNormal({3, 300}, 0, 1, series_rng);
  Rng probe_rng(17);
  Tensor probe = Tensor::RandNormal({4, 3, 48}, 0, 1, probe_rng);

  std::vector<Tensor> outputs;
  std::vector<std::vector<float>> epoch_losses;
  for (int64_t threads : kThreadCounts) {
    // Identical seeds per run; only the pool size differs. TrainerConfig's
    // own `threads` knob is exercised here instead of ScopedThreads.
    Rng model_rng(7);
    MsdMixer mixer(SmallForecastConfig(), model_rng);
    MsdMixerTaskModel model(&mixer, /*lambda=*/0.3f);
    ForecastWindowDataset data(series, 48, 24, 4);
    TrainerConfig trainer;
    trainer.epochs = 2;
    trainer.batch_size = 8;
    trainer.max_batches_per_epoch = 4;
    trainer.threads = threads;
    TrainStats stats = Train(model, data, trainer, ForecastMseTaskLoss);
    epoch_losses.push_back(stats.epoch_losses);

    NoGradGuard guard;
    runtime::ScopedThreads scoped(threads);
    outputs.push_back(model.Forward(Variable(probe)).prediction.value());
  }
  for (size_t k = 1; k < outputs.size(); ++k) {
    // Training losses are exactly equal epoch by epoch...
    EXPECT_EQ(epoch_losses[0], epoch_losses[k]);
    // ...and so is every byte the trained model produces.
    ExpectBitIdentical(outputs[0], outputs[k], "trained-model output");
  }
}

}  // namespace
}  // namespace msd
