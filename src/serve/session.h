// Frozen inference session (docs/SERVING.md).
//
// An InferenceSession owns an eval-mode MSD-Mixer restored from an MSDCKPT
// checkpoint and answers Predict requests with no autograd tape and no
// weight mutation:
//
//  * Frozen: weights load once at Create(); SetTraining(false) is applied
//    immediately and every forward runs under NoGradGuard, so no request
//    can record a tape or touch gradients (regression-tested via the
//    autograd/nodes_recorded counter).
//  * Thread-safe: concurrent PredictBatch calls are serialized on an
//    internal mutex. Within a batch the GEMM engine already spreads work
//    across the MSD_THREADS pool, so inter-batch concurrency adds nothing
//    on a single node; the mutex keeps the forward pass trivially safe.
//  * Deterministic: outputs are bit-identical for any MSD_THREADS value and
//    for any batch composition — row b of PredictBatch equals the
//    single-request Predict of window b (tests/serve_test.cc).
//  * Planned: unless MSD_PLAN=0, Create() freezes one CompiledPlan per batch
//    size (1..max_batch) — a flat kernel schedule over one arena that all
//    of the session's plans share (serve/plan.h, docs/COMPILER.md) — and
//    PredictBatch replays the plan instead of interpreting the module graph.
//    Planned outputs are bit-identical to the interpreted path (enforced by
//    a freeze-time memcmp and swept in tests/plan_test.cc); batch sizes
//    whose plan could not be built fall back to the interpreter
//    (serve/plan_fallbacks).
//
// Shape contract per task head (C = channels, L = input_length):
//   kForecast        [C, L] -> [C, horizon]        (original units)
//   kClassification  [C, L] -> [num_classes]       (logits)
//   kReconstruction  [C, L] -> [C, L]              (scaled units)
#ifndef MSDMIXER_SERVE_SESSION_H_
#define MSDMIXER_SERVE_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/msd_mixer.h"
#include "data/scaler.h"
#include "serve/plan.h"
#include "serve/trace.h"

namespace msd {
namespace serve {

struct InferenceSessionConfig {
  // Architecture; must match the checkpoint (LoadCheckpoint verifies every
  // parameter name and shape).
  MsdMixerConfig model;
  // Optional per-channel standardization applied to inputs; forecast
  // outputs are mapped back through InverseTransform. Unfitted = identity.
  StandardScaler scaler;
  // Upper bound on rows per PredictBatch call.
  int64_t max_batch = 32;
  // Seed for the throwaway weight init that the checkpoint overwrites.
  uint64_t seed = 1;
  // Test/bench hook: busy-spin this long inside the locked forward pass to
  // emulate a slower model. 0 (the default) disables the hook; real
  // deployments never set it.
  int64_t synthetic_compute_us = 0;
  // Int8 inference (docs/PERFORMANCE.md): ask the planner to rewrite
  // eligible constant-weight GEMM steps to the quantized kernels
  // (tensor/qgemm.h). Per-step calibration against the fp32 plan decides
  // adoption; see CompileOptions. The MSD_QUANT environment variable, when
  // set, overrides this field ("0" forces off, anything else forces on).
  // Off by default — the fp32 path stays bit-identical to prior releases.
  bool quantize = false;
  // Calibration gate forwarded to CompileOptions::quant_max_rel_error.
  float quant_max_rel_error = 0.05f;
};

class InferenceSession {
 public:
  // Builds the model, restores `checkpoint_path`, freezes, plans.
  static StatusOr<std::unique_ptr<InferenceSession>> Create(
      const InferenceSessionConfig& config, const std::string& checkpoint_path);

  // Single request: input [C, L]; output per the task-head table above.
  StatusOr<Tensor> Predict(const Tensor& window);

  // Batched: inputs [B, C, L] with 1 <= B <= max_batch; outputs gain the
  // same leading B axis. Row b is bit-identical to Predict of window b.
  //
  // Trace protocol: when `trace` is null (a direct caller) this is an
  // admission point — the session mints a TraceContext, observes the
  // serve/compute_us histogram itself and pushes a compute span for sampled
  // calls. When the MicroBatcher passes a context, the session only fills
  // compute_start/compute_end and the batcher attributes the interval to
  // each member of the batch.
  StatusOr<Tensor> PredictBatch(const Tensor& batch,
                                TraceContext* trace = nullptr);

  // Reconstruction sessions only: per-window anomaly score [B] = mean
  // squared reconstruction error over channels and time (scaled units, the
  // same quantity tasks/evaluate.h thresholds).
  StatusOr<Tensor> AnomalyScores(const Tensor& batch);

  const MsdMixerConfig& model_config() const { return config_.model; }
  int64_t max_batch() const { return config_.max_batch; }

  // True when Create() ran the planner (MSD_PLAN unset or != "0").
  bool planned() const { return use_plan_; }
  // True when plans were compiled with the quantization pass requested
  // (config.quantize, overridden by MSD_QUANT when set). Individual steps
  // may still have fallen back fp32; see PlanStats::num_quantized.
  bool quantized() const { return use_quant_; }
  // The frozen plan serving batch size `b`, or null when that size fell
  // back to the interpreter (or planning is off). Exposed for tests and
  // the selftest's schedule dump.
  const CompiledPlan* plan_for(int64_t b) const {
    if (b < 1 || b > static_cast<int64_t>(plans_.size())) return nullptr;
    return plans_[static_cast<size_t>(b) - 1].get();
  }

 private:
  explicit InferenceSession(const InferenceSessionConfig& config);

  Status ValidateBatch(const Tensor& batch) const;
  // The reply chain, interpreted under NoGradGuard: scale the raw [B, C, L]
  // batch, run the mixer, and (forecast heads) map the output back through
  // the inverse transform. Every plan is traced from exactly this function.
  Tensor Interpret(const Tensor& batch);
  // The locked forward pass: replays `plan` when given, else runs
  // Interpret.
  Tensor RunLocked(CompiledPlan* plan, const Tensor& batch);
  // Freezes one CompiledPlan per batch size 1..max_batch into one shared
  // arena and publishes the serve/arena_bytes gauge. Sizes that refuse to
  // compile stay null.
  void BuildPlans();

  InferenceSessionConfig config_;
  std::unique_ptr<MsdMixer> mixer_;
  std::mutex model_mu_;
  bool use_plan_ = false;
  // Resolved quantization request (config.quantize / MSD_QUANT override).
  bool use_quant_ = false;
  // Index b-1 serves batch size b; null entries fall back to Interpret.
  std::vector<std::unique_ptr<CompiledPlan>> plans_;
};

// Convenience for checkpoints written by ForecastPipeline::Save: reads the
// `.meta` sidecar for the patch ladder and scaler statistics, then Create()s
// a forecast session whose Predict is bit-identical to
// ForecastPipeline::Predict on the same lookback window.
struct ForecastSessionOptions {
  int64_t lookback = 96;
  int64_t horizon = 24;
  int64_t model_dim = 16;
  int64_t hidden_dim = 32;
  bool use_instance_norm = true;
  int64_t max_batch = 32;
  // Forwarded to InferenceSessionConfig::quantize (int8 plan rewriting,
  // docs/PERFORMANCE.md); MSD_QUANT still overrides when set.
  bool quantize = false;
};

StatusOr<std::unique_ptr<InferenceSession>> CreateForecastSession(
    const std::string& checkpoint_path, const ForecastSessionOptions& options);

}  // namespace serve
}  // namespace msd

#endif  // MSDMIXER_SERVE_SESSION_H_
