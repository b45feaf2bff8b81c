// google-benchmark microbenchmarks for the substrate kernels that dominate
// MSD-Mixer training: matmul, FFT, permute, patching, the residual-loss ACF,
// a full forward/backward step, and a whole trainer epoch.
//
// Besides the standard google-benchmark flags, accepts
//   --metrics-out <path>  combined metrics-registry + span-aggregate JSON
//   --trace-out <path>    chrome://tracing event file
//   --threads <n>         global pool size for the whole run (docs/RUNTIME.md)
// so kernel-level telemetry (tensor/matmul, tensor/fft, train/epoch spans)
// lands in BENCH_*.json trajectories.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "autograd/ops.h"
#include "bench_util.h"
#include "core/msd_mixer.h"
#include "core/patching.h"
#include "core/residual_loss.h"
#include "metrics/metrics.h"
#include "runtime/parallel.h"
#include "tasks/trainer.h"
#include "tensor/fft.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace {

void BM_MatMul2D(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::RandNormal({n, n}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({n, n}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul2D)->Arg(32)->Arg(64)->Arg(128);

void BM_BatchedMatMul(benchmark::State& state) {
  Rng rng(1);
  // The mixer's typical inner shape: [B, C, L', p] x [p, h].
  Tensor a = Tensor::RandNormal({32, 7, 4, 24}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({24, 32}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
}
BENCHMARK(BM_BatchedMatMul);

void BM_BiasAddSuffixBroadcast(benchmark::State& state) {
  Rng rng(1);
  Tensor a = Tensor::RandNormal({32, 7, 4, 32}, 0, 1, rng);
  Tensor bias = Tensor::RandNormal({32}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Add(a, bias));
  }
}
BENCHMARK(BM_BiasAddSuffixBroadcast);

void BM_PermuteLastTwo(benchmark::State& state) {
  Rng rng(1);
  Tensor a = Tensor::RandNormal({32, 7, 24, 32}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Transpose(a, -1, -2));
  }
}
BENCHMARK(BM_PermuteLastTwo);

void BM_PermuteGeneric(benchmark::State& state) {
  Rng rng(1);
  Tensor a = Tensor::RandNormal({32, 7, 24, 32}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Permute(a, {0, 3, 2, 1}));
  }
}
BENCHMARK(BM_PermuteGeneric);

void BM_PatchUnpatch(benchmark::State& state) {
  Rng rng(1);
  Variable x(Tensor::RandNormal({32, 7, 96}, 0, 1, rng));
  for (auto _ : state) {
    Variable p = Patch(x, state.range(0));
    benchmark::DoNotOptimize(Unpatch(p, 96));
  }
}
BENCHMARK(BM_PatchUnpatch)->Arg(24)->Arg(5)->Arg(1);

void BM_Fft(benchmark::State& state) {
  Rng rng(1);
  Tensor series = Tensor::RandNormal({7, 256}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopPeriodsFft(series, 3));
  }
}
BENCHMARK(BM_Fft);

void BM_TrainerEpoch(benchmark::State& state) {
  Rng rng(1);
  MsdMixerConfig config;
  config.input_length = 48;
  config.channels = 3;
  config.patch_sizes = {12, 4, 1};
  config.model_dim = 8;
  config.hidden_dim = 16;
  config.task = TaskType::kForecast;
  config.horizon = 24;
  Tensor series = Tensor::RandNormal({3, 400}, 0, 1, rng);
  ForecastWindowDataset data(series, 48, 24, 4);
  TrainerConfig trainer;
  trainer.epochs = 1;
  trainer.batch_size = 16;
  trainer.max_batches_per_epoch = 4;
  trainer.telemetry = TelemetrySink::kRegistry;
  for (auto _ : state) {
    state.PauseTiming();
    Rng model_rng(7);
    MsdMixer mixer(config, model_rng);
    MsdMixerTaskModel model(&mixer, /*lambda=*/0.3f);
    state.ResumeTiming();
    TrainStats stats = Train(model, data, trainer, ForecastMseTaskLoss);
    benchmark::DoNotOptimize(stats.total_wall_seconds);
  }
}
BENCHMARK(BM_TrainerEpoch);

void BM_ResidualLossForwardBackward(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    Variable z(Tensor::RandNormal({16, 7, 96}, 0, 1, rng), true);
    ResidualLossOptions options;
    options.max_lag = state.range(0);
    ResidualLoss(z, options).Backward();
    benchmark::DoNotOptimize(z.grad());
  }
}
BENCHMARK(BM_ResidualLossForwardBackward)->Arg(24)->Arg(95);

void BM_AutocorrelationMatrix(benchmark::State& state) {
  Rng rng(1);
  Tensor series = Tensor::RandNormal({7, 96}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AutocorrelationMatrix(series));
  }
}
BENCHMARK(BM_AutocorrelationMatrix);

void BM_MixerTrainStep(benchmark::State& state) {
  Rng rng(1);
  MsdMixerConfig config;
  config.input_length = 96;
  config.channels = 7;
  config.patch_sizes = {24, 12, 6, 2, 1};
  config.model_dim = 16;
  config.hidden_dim = 32;
  config.drop_path = 0.0f;
  config.task = TaskType::kForecast;
  config.horizon = 96;
  MsdMixer mixer(config, rng);
  Tensor x = Tensor::RandNormal({32, 7, 96}, 0, 1, rng);
  Tensor y = Tensor::RandNormal({32, 7, 96}, 0, 1, rng);
  for (auto _ : state) {
    for (Variable& p : mixer.Parameters()) p.ZeroGrad();
    MsdMixerOutput out = mixer.Run(Variable(x));
    Variable loss = Add(MeanAll(Square(Sub(out.prediction, Variable(y)))),
                        MulScalar(ResidualLoss(out.residual,
                                               {2.0f, true, 24}),
                                  0.5f));
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_MixerTrainStep);

void BM_Rfft(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Tensor noise = Tensor::RandNormal({static_cast<int64_t>(n)}, 0, 1, rng);
  std::vector<double> x(n);
  for (size_t i = 0; i < n; ++i) x[i] = noise.data()[i];
  std::vector<std::complex<double>> out;
  for (auto _ : state) {
    Rfft(x.data(), n, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Rfft)->Arg(256)->Arg(4096);

// One shared-weight Linear layer trained for a step: the fused gelu forward,
// then the backward that builds dA (one GEMM), dW (one row-chunked
// weight-gradient GEMM over every leading row) and dbias (SumInto's prefix
// path). The backward is ~3/4 of the time. Shapes are the channel-mix and
// inter-patch layouts at B=32, C=7, L=96, h=32: channel mixing has 3072
// rows and k = C = 7, inter-patch mixing 224 rows and k = L = 96.
void BM_LinearBackward(benchmark::State& state, Shape in_shape) {
  Rng rng(1);
  const int64_t k = in_shape.back();
  Tensor at = Tensor::RandNormal(in_shape, 0, 1, rng);
  Tensor wt = Tensor::RandNormal({k, 32}, 0, 0.2f, rng);
  Tensor biast = Tensor::RandNormal({32}, 0, 1, rng);
  Variable a(at, /*requires_grad=*/true);
  Variable w(wt, /*requires_grad=*/true);
  Variable bias(biast, /*requires_grad=*/true);
  for (auto _ : state) {
    a.ZeroGrad();
    w.ZeroGrad();
    bias.ZeroGrad();
    SumAll(MatMulEx(a, w, bias, gemm::Activation::kGelu)).Backward();
    benchmark::DoNotOptimize(w.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * (at.numel() / k) * k * 32);
}
BENCHMARK_CAPTURE(BM_LinearBackward, channel_mix, Shape{32, 1, 96, 7});
BENCHMARK_CAPTURE(BM_LinearBackward, inter_patch, Shape{32, 7, 1, 96});

// ---- Thread-scaling sweeps --------------------------------------------------
// The same kernel at pool sizes 1/2/4 (Arg is the thread count). check.sh's
// release leg records this family as BENCH_threads.json; outputs are
// bit-identical across the sweep, so only wall-clock should move.

void BM_MatMulThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::RandNormal({128, 128}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({128, 128}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 128 * 128 * 128);
}
BENCHMARK(BM_MatMulThreads)->Arg(1)->Arg(2)->Arg(4);

// GEMM shape family at the layer shapes BM_MixerTrainStep actually runs
// (B=32, C=7, L=96, patch 24, d=16, h=32, horizon 96), with the fused
// bias/activation epilogues the model uses at each site.

// Patch embedding: [B, C, L', p] x [p, d] + bias (shared-B flatten path).
void BM_GemmPatchEmbedThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::RandNormal({32, 7, 4, 24}, 0, 1, rng);
  Tensor w = Tensor::RandNormal({24, 16}, 0, 1, rng);
  Tensor bias = Tensor::RandNormal({16}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MatMulEx(a, w, bias, gemm::Activation::kIdentity));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 7 * 4 * 24 * 16);
}
BENCHMARK(BM_GemmPatchEmbedThreads)->Arg(1)->Arg(2)->Arg(4);

// Mixing MLP first layer: [B, C, L', d] x [d, h] + bias + gelu, fused.
void BM_GemmChannelMixThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::RandNormal({32, 7, 4, 16}, 0, 1, rng);
  Tensor w = Tensor::RandNormal({16, 32}, 0, 1, rng);
  Tensor bias = Tensor::RandNormal({32}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulEx(a, w, bias, gemm::Activation::kGelu));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 7 * 4 * 16 * 32);
}
BENCHMARK(BM_GemmChannelMixThreads)->Arg(1)->Arg(2)->Arg(4);

// Forecast head projection: [B, C, L'*d] x [L'*d, H] + bias.
void BM_GemmHeadThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::RandNormal({32, 7, 64}, 0, 1, rng);
  Tensor w = Tensor::RandNormal({64, 96}, 0, 1, rng);
  Tensor bias = Tensor::RandNormal({96}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MatMulEx(a, w, bias, gemm::Activation::kIdentity));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 7 * 64 * 96);
}
BENCHMARK(BM_GemmHeadThreads)->Arg(1)->Arg(2)->Arg(4);

// Channel-parallel real-input FFT (period detection path): per-channel rfft
// fans out across the pool, merge order is fixed, so outputs stay
// bit-identical while wall-clock scales.
void BM_RfftThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Tensor series = Tensor::RandNormal({16, 512}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopPeriodsFft(series, 3));
  }
}
BENCHMARK(BM_RfftThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_ElementwiseThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::RandNormal({64, 7, 512}, 0, 1, rng);
  Tensor b = Tensor::RandNormal({64, 7, 512}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gelu(Add(a, b)));
  }
  state.SetItemsProcessed(state.iterations() * a.numel());
}
BENCHMARK(BM_ElementwiseThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_MixerStepThreads(benchmark::State& state) {
  runtime::ScopedThreads scoped(state.range(0));
  Rng rng(1);
  MsdMixerConfig config;
  config.input_length = 96;
  config.channels = 7;
  config.patch_sizes = {24, 12, 6, 2, 1};
  config.model_dim = 16;
  config.hidden_dim = 32;
  config.task = TaskType::kForecast;
  config.horizon = 96;
  MsdMixer mixer(config, rng);
  Tensor x = Tensor::RandNormal({32, 7, 96}, 0, 1, rng);
  Tensor y = Tensor::RandNormal({32, 7, 96}, 0, 1, rng);
  for (auto _ : state) {
    for (Variable& p : mixer.Parameters()) p.ZeroGrad();
    MsdMixerOutput out = mixer.Run(Variable(x));
    Variable loss = Add(MeanAll(Square(Sub(out.prediction, Variable(y)))),
                        MulScalar(ResidualLoss(out.residual,
                                               {2.0f, true, 24}),
                                  0.5f));
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_MixerStepThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_MixerInference(benchmark::State& state) {
  Rng rng(1);
  MsdMixerConfig config;
  config.input_length = 96;
  config.channels = 7;
  config.patch_sizes = {24, 12, 6, 2, 1};
  config.model_dim = 16;
  config.hidden_dim = 32;
  config.task = TaskType::kForecast;
  config.horizon = 96;
  MsdMixer mixer(config, rng);
  mixer.SetTraining(false);
  Tensor x = Tensor::RandNormal({32, 7, 96}, 0, 1, rng);
  NoGradGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mixer.Run(Variable(x)).prediction.value());
  }
}
BENCHMARK(BM_MixerInference);

}  // namespace
}  // namespace msd

int main(int argc, char** argv) {
  // Peel off our flags before google-benchmark sees (and rejects) them;
  // remember the full original argv for the export at the end.
  msd::bench::InitThreads(argc, argv);
  const std::string metrics_out = msd::bench::MetricsOutPath(argc, argv);
  const std::string trace_out = msd::bench::TraceOutPath(argc, argv);
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics-out" || arg == "--trace-out" || arg == "--threads") {
      ++i;  // skip the value
      continue;
    }
    if (arg.rfind("--metrics-out=", 0) == 0 ||
        arg.rfind("--trace-out=", 0) == 0 || arg.rfind("--threads=", 0) == 0) {
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  // Stamp the repo's own compile mode into the JSON context: recorded
  // baselines must come from Release builds, and tools/bench_compare
  // refuses files whose msd_build_type is not "release" (the library's
  // library_build_type reports how *benchmark* was packaged, not this tree).
  benchmark::AddCustomContext("msd_build_type", msd::bench::BuildTypeString());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bool ok = true;
  if (!metrics_out.empty()) ok = msd::bench::WriteTelemetryReport(metrics_out);
  if (!trace_out.empty()) {
    ok = msd::obs::Profiler::Global().WriteChromeTrace(trace_out) && ok;
  }
  return ok ? 0 : 1;
}
