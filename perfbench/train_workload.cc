// `train`: the paper-scale forecaster trained through tasks::Train, then
// scored with EvaluateForecast. Autograd, nn, core, optim, tensor, runtime
// and data do all the work; no serving layer runs.
//
// Untraced: repeated identical training runs (same seed) give the step-time
// samples and must reproduce the loss sequence bit for bit. Traced: one
// tasks::Train run, then the same steps replayed through the public step
// functions (MsdMixer::Run, ResidualLoss, Variable::Backward, ClipGradNorm,
// Adam::Step) inside spans — its losses must equal tasks::Train's, which
// proves the replay is the same computation — plus standalone probes of
// MsdMixerLayer::Decompose at each scale and the channel-mix MatMulEx.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "core/msd_mixer.h"
#include "core/residual_loss.h"
#include "data/scaler.h"
#include "data/window_dataset.h"
#include "datagen/long_term.h"
#include "optim/optimizer.h"
#include "support.h"
#include "tasks/evaluate.h"
#include "tasks/task_model.h"
#include "tasks/trainer.h"
#include "tensor/pool.h"
#include "tensor/tensor_ops.h"
#include "workloads.h"

namespace perfbench {
namespace {

using msd::Tensor;
using msd::Variable;

constexpr int64_t kLookback = 96;
constexpr int64_t kHorizon = 96;
constexpr int64_t kBatch = 32;
// One optimizer step per trainer epoch, so TrainStats::epoch_seconds holds
// per-step wall times. >= 100 steps keeps ten samples beyond p90.
constexpr int64_t kSteps = 100;
constexpr float kLambda = 0.5f;
constexpr int kSetupReps = 41;
constexpr int kEvalPassesPerRun = 3;

msd::MsdMixerConfig PaperScaleConfig() {
  msd::MsdMixerConfig config;
  config.input_length = kLookback;
  config.channels = 7;
  config.patch_sizes = {24, 12, 6, 2, 1};
  config.model_dim = 16;
  config.hidden_dim = 32;
  config.drop_path = 0.0f;
  config.task = msd::TaskType::kForecast;
  config.horizon = kHorizon;
  config.use_instance_norm = true;
  return config;
}

msd::ResidualLossOptions PaperScaleResidualLoss() {
  msd::ResidualLossOptions options;
  options.max_lag = 24;
  return options;
}

msd::TrainerConfig PaperScaleTrainer(uint64_t seed) {
  msd::TrainerConfig config;
  config.epochs = kSteps;
  config.max_batches_per_epoch = 1;
  config.batch_size = kBatch;
  config.lr = 4e-3f;
  config.weight_decay = 1e-4f;
  config.grad_clip = 5.0f;
  config.cosine_lr = true;
  config.seed = seed;
  config.threads = kComputeThreads;
  config.telemetry = msd::TelemetrySink::kStats;
  return config;
}

// Everything a training run needs, built from the seed alone.
struct TrainSetup {
  std::unique_ptr<msd::ForecastWindowDataset> train;
  std::unique_ptr<msd::ForecastWindowDataset> test;
  std::unique_ptr<msd::MsdMixer> mixer;
};

TrainSetup BuildSetup(uint64_t seed) {
  TrainSetup setup;
  const Tensor series = msd::GenerateSeries(
      msd::LongTermConfig(msd::LongTermDataset::kEttM1, seed));
  const msd::SeriesSplits splits =
      msd::SplitSeries(series, msd::SplitSpec{0.7, 0.1});
  msd::StandardScaler scaler;
  scaler.Fit(splits.train);
  setup.train = std::make_unique<msd::ForecastWindowDataset>(
      scaler.Transform(splits.train), kLookback, kHorizon);
  setup.test = std::make_unique<msd::ForecastWindowDataset>(
      scaler.Transform(splits.test), kLookback, kHorizon);
  msd::Rng rng(seed);
  setup.mixer = std::make_unique<msd::MsdMixer>(PaperScaleConfig(), rng);
  return setup;
}

// A fresh model with the seed's initial weights.
std::unique_ptr<msd::MsdMixer> FreshMixer(uint64_t seed) {
  msd::Rng rng(seed);
  return std::make_unique<msd::MsdMixer>(PaperScaleConfig(), rng);
}

bool AllFinite(const std::vector<float>& values) {
  for (float v : values) {
    if (!std::isfinite(v)) return false;
  }
  return !values.empty();
}

bool BitIdentical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Replays tasks::Train's step sequence for `config` through the public step
// functions, one span per call. Returns the per-step losses.
std::vector<float> TracedTrainLoop(msd::MsdMixer& mixer,
                                   const msd::Dataset& data,
                                   const msd::TrainerConfig& config,
                                   SpanLog* spans,
                                   std::vector<double>* step_ms) {
  msd::pool::MemoryScope memory_scope;
  msd::Rng rng(config.seed);
  msd::DataLoader loader(&data, config.batch_size, /*shuffle=*/true, rng);
  msd::Adam opt(mixer.Parameters(), config.lr, 0.9f, 0.999f, 1e-8f,
                config.weight_decay, /*decoupled=*/true);
  msd::CosineLr schedule(&opt, config.epochs);
  const msd::ResidualLossOptions residual_options = PaperScaleResidualLoss();
  mixer.SetTraining(true);
  std::vector<float> losses;
  for (int64_t step = 0; step < config.epochs; ++step) {
    const int64_t t0 = NowNs();
    ScopedSpan step_span(spans, "train.step", -1, step);
    const int64_t parent = step_span.id();
    schedule.SetEpoch(step);
    msd::Batch batch;
    {
      ScopedSpan s(spans, "data.get_batch", parent, step);
      batch = loader.GetBatch(0);
    }
    opt.ZeroGrad();
    msd::MsdMixerOutput out;
    {
      ScopedSpan s(spans, "core.forward", parent, step);
      out = mixer.Run(Variable(batch.input));
    }
    // Same node order as MsdMixerTaskModel::Forward + Train: the weighted
    // Residual Loss first, then the task loss, then their sum.
    Variable aux;
    {
      ScopedSpan s(spans, "core.residual_loss", parent, step);
      aux = msd::MulScalar(msd::ResidualLoss(out.residual, residual_options),
                           kLambda);
    }
    Variable loss;
    {
      ScopedSpan s(spans, "nn.task_loss", parent, step);
      loss = msd::Add(msd::ForecastMseTaskLoss(out.prediction, batch), aux);
    }
    {
      ScopedSpan s(spans, "autograd.backward", parent, step);
      loss.Backward();
    }
    {
      ScopedSpan s(spans, "optim.clip", parent, step);
      msd::ClipGradNorm(opt.params(), config.grad_clip);
    }
    {
      ScopedSpan s(spans, "optim.step", parent, step);
      opt.Step();
    }
    losses.push_back(loss.item());
    loader.Reshuffle();
    step_ms->push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  mixer.SetTraining(false);
  return losses;
}

void TraceLayers(const TrainSetup& setup, uint64_t seed, SpanLog* spans,
                 Report* report) {
  const msd::MsdMixerConfig config = PaperScaleConfig();
  msd::Rng rng(seed ^ 0x5eedULL);
  const Tensor x = Tensor::RandNormal({kBatch, 7, kLookback}, 0, 1, rng);
  for (int64_t p : config.patch_sizes) {
    msd::MsdMixerLayer layer(config, p, rng);
    const std::string name = "core.decompose_p" + std::to_string(p);
    const double us = MedianSpanUs(spans, name.c_str(), 10, [&] {
      msd::MsdMixerLayer::Result r = layer.Decompose(Variable(x));
      (void)r;
    });
    report->AddLayer(name + "_us", us, "us", spans->Count(name));
  }

  // The channel-mix MLP's first GEMM: rows = B * L, k = C, n = hidden.
  const Tensor a = Tensor::RandNormal({kBatch * kLookback, 7}, 0, 1, rng);
  const Tensor b = Tensor::RandNormal({7, config.hidden_dim}, 0, 1, rng);
  const Tensor bias = Tensor::RandNormal({config.hidden_dim}, 0, 1, rng);
  for (auto [act, name] :
       {std::pair{msd::gemm::Activation::kGelu, "tensor.gemm_gelu"},
        std::pair{msd::gemm::Activation::kIdentity, "tensor.gemm_identity"}}) {
    const double us = MedianSpanUs(spans, name, 50, [&] {
      Tensor c = msd::MatMulEx(a, b, bias, act);
      (void)c;
    });
    report->AddLayer(std::string(name) + "_us", us, "us", spans->Count(name));
  }

  msd::MsdMixerTaskModel model(setup.mixer.get(), kLambda,
                               PaperScaleResidualLoss());
  const int64_t batches = (setup.test->Size() + kBatch - 1) / kBatch;
  const double eval_us = MedianSpanUs(spans, "tasks.evaluate_forecast", 3, [&] {
    msd::RegressionScores s = msd::EvaluateForecast(model, *setup.test, kBatch);
    (void)s;
  });
  report->AddLayer("tasks.eval_batch_us", eval_us / static_cast<double>(batches),
                   "us", spans->Count("tasks.evaluate_forecast") * batches);
}

}  // namespace

void RunTrain(const Options& options, SpanLog* spans, Report* report) {
  // Set-up: data generation, splits, scaling, windowing and model build.
  // Timed in chunks of kSetupReps, here and after every training run: one
  // set-up takes a few ms, so a single chunk would catch the machine at one
  // moment only, and the median of the chunks spread over the run does not.
  std::vector<double> setup_s;
  auto time_setups = [&] {
    for (int i = 0; i < kSetupReps; ++i) {
      const int64_t t0 = NowNs();
      const TrainSetup built = BuildSetup(options.seed);
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
  };
  time_setups();
  const TrainSetup setup = BuildSetup(options.seed);
  const msd::TrainerConfig trainer = PaperScaleTrainer(options.seed);

  std::vector<float> reference_losses;
  std::vector<double> step_ms;
  std::vector<double> windows_per_s;
  auto check_losses = [&](const std::vector<float>& losses, const char* run) {
    ++report->attempted;
    if (!AllFinite(losses)) {
      ++report->failed;
      report->Fail(std::string(run) + ": non-finite training loss");
    } else if (reference_losses.empty()) {
      reference_losses = losses;
    } else if (!BitIdentical(losses, reference_losses)) {
      ++report->failed;
      report->Fail(std::string(run) +
                   ": loss sequence differs from the first run of this seed");
    }
  };

  // Evaluation: the interpreted no-grad forward over the test split, one
  // EvaluateForecast call per batch of windows so each batch is timed.
  // Passes follow every training run, so a slow stretch of the machine
  // spreads over both measurements.
  std::vector<msd::VectorDataset> eval_batches;
  for (int64_t first = 0; first < setup.test->Size(); first += kBatch) {
    std::vector<msd::Sample> samples;
    for (int64_t i = first; i < std::min(first + kBatch, setup.test->Size());
         ++i) {
      samples.push_back(setup.test->Get(i));
    }
    eval_batches.emplace_back(std::move(samples));
  }
  std::unique_ptr<msd::MsdMixer> eval_mixer = FreshMixer(options.seed);
  msd::MsdMixerTaskModel eval_model(eval_mixer.get(), kLambda,
                                    PaperScaleResidualLoss());
  std::vector<double> eval_wps;
  std::vector<double> eval_batch_ms;
  auto run_eval_passes = [&]() {
    for (int i = 0; i < kEvalPassesPerRun; ++i) {
      double total_s = 0.0;
      for (const msd::VectorDataset& batch : eval_batches) {
        const int64_t t0 = NowNs();
        const msd::RegressionScores scores =
            msd::EvaluateForecast(eval_model, batch, kBatch);
        const double s = static_cast<double>(NowNs() - t0) / 1e9;
        total_s += s;
        eval_batch_ms.push_back(s * 1e3);
        ++report->attempted;
        if (!std::isfinite(scores.mse) || !std::isfinite(scores.mae)) {
          ++report->failed;
          report->Fail("EvaluateForecast returned a non-finite score");
        }
      }
      eval_wps.push_back(static_cast<double>(setup.test->Size()) / total_s);
    }
  };

  const int64_t start = NowNs();
  auto run_trainer = [&]() {
    std::unique_ptr<msd::MsdMixer> mixer = FreshMixer(options.seed);
    msd::MsdMixerTaskModel model(mixer.get(), kLambda,
                                 PaperScaleResidualLoss());
    const msd::TrainStats stats = msd::Train(model, *setup.train, trainer,
                                             msd::ForecastMseTaskLoss);
    for (double s : stats.epoch_seconds) step_ms.push_back(s * 1e3);
    windows_per_s.push_back(static_cast<double>(kSteps * kBatch) /
                            stats.total_wall_seconds);
    check_losses(stats.batch_losses, "tasks::Train");
    run_eval_passes();
    time_setups();
  };
  // At least two identically seeded runs (the bit-identity check), more
  // while the time budget lasts.
  run_trainer();
  if (spans == nullptr) {
    // Stop before a run that would end past the budget.
    auto projected_end_s = [&] {
      const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
      return elapsed * (1.0 + 1.0 / static_cast<double>(windows_per_s.size()));
    };
    do {
      run_trainer();
    } while (projected_end_s() < options.seconds);
  } else {
    const int64_t nodes0 = CounterValue("autograd/nodes_created");
    const int64_t flops0 = CounterValue("tensor/matmul_flops");
    const int64_t bytes0 = CounterValue("tensor/alloc_bytes");
    const int64_t hits0 = CounterValue("tensor/pool_hits");
    const int64_t misses0 = CounterValue("tensor/pool_misses");
    const int64_t calls0 = CounterValue("runtime/parallel_calls");
    std::unique_ptr<msd::MsdMixer> mixer = FreshMixer(options.seed);
    std::vector<double> traced_step_ms;
    const int64_t t0 = NowNs();
    const std::vector<float> losses = TracedTrainLoop(
        *mixer, *setup.train, trainer, spans, &traced_step_ms);
    const double traced_wall_s = static_cast<double>(NowNs() - t0) / 1e9;
    check_losses(losses, "traced step replay");
    const double steps = static_cast<double>(kSteps);
    auto per_step = [&](const char* name, int64_t base) {
      return static_cast<double>(CounterValue(name) - base) / steps;
    };
    const double hits = static_cast<double>(CounterValue("tensor/pool_hits") - hits0);
    const double misses =
        static_cast<double>(CounterValue("tensor/pool_misses") - misses0);

    report->AddLayer("data.get_batch_us", spans->MedianSelfUs("data.get_batch"),
                     "us", kSteps);
    report->AddLayer("core.forward_us", spans->MedianSelfUs("core.forward"),
                     "us", kSteps);
    report->AddLayer("core.residual_loss_us",
                     spans->MedianSelfUs("core.residual_loss"), "us", kSteps);
    report->AddLayer("autograd.backward_us",
                     spans->MedianSelfUs("autograd.backward"), "us", kSteps);
    report->AddLayer("autograd.nodes_per_step",
                     per_step("autograd/nodes_created", nodes0), "count",
                     kSteps);
    report->AddLayer("optim.clip_us", spans->MedianSelfUs("optim.clip"), "us",
                     kSteps);
    report->AddLayer("optim.step_us", spans->MedianSelfUs("optim.step"), "us",
                     kSteps);
    report->AddLayer("tensor.matmul_flops_per_step",
                     per_step("tensor/matmul_flops", flops0), "flop", kSteps);
    report->AddLayer("tensor.alloc_bytes_per_step",
                     per_step("tensor/alloc_bytes", bytes0), "B", kSteps);
    report->AddLayer("tensor.pool_hit_ratio",
                     hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
                     static_cast<int64_t>(hits + misses));
    report->AddLayer("runtime.parallel_calls_per_step",
                     per_step("runtime/parallel_calls", calls0), "count",
                     kSteps);
    report->AddLayer("train.step_self_us", spans->MedianSelfUs("train.step"),
                     "us", kSteps);
    TraceLayers(setup, options.seed, spans, report);
    run_eval_passes();

    const double untraced_p50 = Quantile(step_ms, 0.5);
    const double traced_p50 = Quantile(traced_step_ms, 0.5);
    char note[200];
    std::snprintf(note, sizeof(note),
                  "tracing overhead: train_step_p50_ms untraced %.3f traced "
                  "%.3f (%+.2f%%); traced train_windows_per_s %.2f",
                  untraced_p50, traced_p50,
                  100.0 * (traced_p50 / untraced_p50 - 1.0),
                  static_cast<double>(kSteps * kBatch) /
                      traced_wall_s);
    report->notes.push_back(note);
  }

  const Summary steps = Summarize(step_ms);
  const Summary batches = Summarize(eval_batch_ms);
  if (!SupportsQuantile(steps.n, 0.9) || !SupportsQuantile(batches.n, 0.9)) {
    report->Fail("too few samples for a supported p90");
  }
  report->AddEndToEnd("setup_s", Quantile(setup_s, 0.5), "s",
                      static_cast<int64_t>(setup_s.size()));
  report->AddEndToEnd("throughput_per_s", Quantile(windows_per_s, 0.5), "1/s",
                      static_cast<int64_t>(windows_per_s.size()));
  report->AddEndToEnd("p50_ms", steps.p50, "ms", steps.n);
  report->AddEndToEnd("tail_ms", Quantile(step_ms, 0.9), "ms", steps.n);
  report->AddEndToEnd("batch_p50_ms", batches.p50, "ms", batches.n);
  report->AddEndToEnd("batch_tail_ms", Quantile(eval_batch_ms, 0.9), "ms",
                      batches.n);
  char named[200];
  std::snprintf(named, sizeof(named),
                "named: train_windows_per_s %.2f train_step_p50_ms %.3f "
                "train_step_p90_ms %.3f eval_windows_per_s %.2f (n=%zu)",
                Quantile(windows_per_s, 0.5), steps.p50,
                Quantile(step_ms, 0.9), Quantile(eval_wps, 0.5),
                eval_wps.size());
  report->notes.push_back(named);
  report->AddEndToEnd("peak_rss_mb", PeakRssMb(), "MB", 1);
}

}  // namespace perfbench
