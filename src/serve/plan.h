// Session-freeze inference compiler (docs/COMPILER.md).
//
// A CompiledPlan is built once per (session, batch size) at freeze time:
// the planner records one interpreted forward through the op trace
// (tensor/optrace.h), flattens it into a static schedule of kernel calls
// with fully resolved shapes, rewrites fusible pairs into the fused kernels
// (SubDiv / MulAdd / SliceSub), runs lifetime analysis over every traced
// buffer, and packs all intermediates into ONE arena with first-fit offset
// reuse — one arena per session, which its plans share. Execute() then
// replays the schedule into the preplanned arena views: no pool lookups, no
// tensor allocations, no shared_ptr churn per op — the only steady-state
// costs outside the kernels themselves are two memcpys (input staging,
// result export) and one control block for the reply tensor's owner.
//
// Correctness contract: Execute(x) is bit-identical (memcmp) to the
// interpreted forward it was traced from, for any MSD_THREADS value. The
// planner enforces this mechanically — Compile() replays the example input
// through the freshly built plan and memcmps against the traced output,
// discarding the plan on any mismatch — and the fused kernels round every
// intermediate through memory so compiler FMA contraction cannot change
// bits (tensor/kernels.h Zip3KernelInto). tests/plan_test.cc sweeps the
// contract across task heads, thread counts, and batch sizes.
//
// Thread safety: Execute mutates the arena, so replays into one arena must
// be serialized. The plans of a session share one arena (SharedArenas), and
// that is safe: every one of them runs under the session's model mutex;
// Execute stages the input and exports the reply into a result block before
// that lock is released; and no step reads an arena byte it did not write in
// the same replay.
#ifndef MSDMIXER_SERVE_PLAN_H_
#define MSDMIXER_SERVE_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/arena.h"
#include "tensor/optrace.h"
#include "tensor/tensor.h"

namespace msd {
namespace serve {

// Aggregate facts about a built plan, for gauges, logs, and tests.
struct PlanStats {
  int64_t traced_ops = 0;    // ops recorded by the interpreted forward
  int64_t num_ops = 0;       // schedule length after fusion
  int64_t num_fused = 0;     // peephole rewrites applied
  int64_t num_inplace = 0;   // outputs aliased onto a dying operand's region
  int64_t num_prepacked = 0;  // constant GEMM weights packed at freeze time
  int64_t num_regions = 0;   // arena regions after aliasing
  int64_t arena_bytes = 0;   // bytes the region layout needs
  int64_t num_quantized = 0;        // GEMM steps rewritten to int8
  int64_t num_quant_fallbacks = 0;  // candidates kept fp32 by calibration
  int64_t quant_arena_bytes = 0;    // activation-quant scratch needed
};

// Knobs for CompiledPlan::Compile. Defaults reproduce the fp32 plan exactly.
struct CompileOptions {
  // Rewrite eligible constant-weight rank-2 GEMM steps to the int8 kernels
  // (tensor/qgemm.h): weights quantize at freeze time, activations per
  // request. Every candidate is calibrated against the fp32 step it
  // replaces; see quant_max_rel_error. Off by default — an fp32 plan stays
  // bit-identical to the interpreted forward.
  bool quantize = false;
  // Calibration gate: a candidate whose quantized output deviates from the
  // fp32 step output on the freeze example by more than this relative
  // Frobenius error stays fp32 (counted in num_quant_fallbacks).
  float quant_max_rel_error = 0.05f;
};

// One arena region's placement and lifetime, exposed for the planner tests
// (offset disjointness under overlapping lifetimes is an invariant there).
struct RegionInfo {
  int64_t offset = 0;      // byte offset into the arena, 64-aligned
  int64_t bytes = 0;       // payload size (0 for zero-numel buffers)
  int64_t first_def = 0;   // earliest defining step (-1: staged input)
  int64_t last_use = 0;    // latest reading step (num_ops: plan output)
};

// The arenas a session's plans share. Compile builds into each one that is
// large enough and otherwise replaces it with a larger arena; plans built
// earlier keep theirs alive.
struct SharedArenas {
  std::shared_ptr<arena::Arena> activations;
  std::shared_ptr<arena::Arena> quant;
};

class CompiledPlan {
 public:
  // The forward to freeze: takes the request batch, returns the reply.
  using ForwardFn = std::function<Tensor(const Tensor&)>;

  // Records one interpreted run of `fn` on `example`, builds the schedule +
  // memory plan, and validates it by replaying `example` and memcmp-ing
  // against the interpreted output. Returns null — with a reason in
  // `why_not` when provided — if the trace hit an unsupported op or the
  // validation replay was not bit-identical. With options.quantize, a
  // quantization pass then runs AFTER that fp32 validation: each prepacked
  // GEMM step is re-executed int8 against the example and adopted only when
  // its output stays within options.quant_max_rel_error of the fp32 step
  // (per-step fallback otherwise) — so a quantized plan's fp32 remainder is
  // still the validated schedule, and the bit-identity contract narrows to
  // "identical except the adopted int8 steps". With `shared` null the plan
  // owns its arenas; otherwise they come from (and grow) `shared`.
  static std::unique_ptr<CompiledPlan> Compile(
      const ForwardFn& fn, const Tensor& example,
      std::string* why_not = nullptr,
      const CompileOptions& options = CompileOptions(),
      SharedArenas* shared = nullptr);

  // Replays the schedule on `input` (must match input_shape()). The reply
  // tensor is backed by a recycled result block, not the tensor pool.
  // Callers must serialize calls per arena (see thread-safety note above).
  Tensor Execute(const Tensor& input);

  const PlanStats& stats() const { return stats_; }
  const Shape& input_shape() const { return input_shape_; }
  const Shape& output_shape() const { return output_shape_; }

  // Region table for the planner tests.
  std::vector<RegionInfo> Regions() const;

  // Human-readable schedule: one line per step with kind, shapes, region
  // offsets, and the module path that produced the op.
  std::string DebugString() const;

  ~CompiledPlan();

 private:
  // Recycles result-block buffers across requests. shared_ptr-owned so a
  // reply tensor can outlive the plan (its deleter keeps the pool alive).
  class ResultPool;

  // One schedule entry: a kernel kind plus prebuilt operand/output views
  // into the arena (or directly into pinned constant buffers).
  struct Step;

  CompiledPlan();

  // Runs one schedule step (the Execute switch body); shared between
  // Execute and the quantization pass's calibration replay.
  void RunStep(Step& s);

  // The quantization pass (options.quantize): replays `example` step by
  // step in fp32, re-executes each prepacked GEMM step int8 into scratch,
  // and adopts candidates within `max_rel_error` of their fp32 output.
  // Calibration always compares against fp32 *inputs* (the replay keeps
  // fp32 results in the arena), so per-step error never compounds.
  void QuantizePass(const Tensor& example, float max_rel_error,
                    std::shared_ptr<arena::Arena>& scratch);

  Tensor input_view_;   // staging region, input_shape_
  Tensor output_view_;  // final region, output_shape_
  Shape input_shape_;
  Shape output_shape_;
  std::vector<Step> steps_;
  // Pinned constant tensors (weights, scaler stats, traced literals); holding
  // them keeps every non-arena operand buffer alive for the plan's lifetime.
  std::vector<Tensor> constants_;
  std::shared_ptr<arena::Arena> arena_;
  // Activation-quant scratch shared by every quantized step (a quantized
  // activation dies within its own step, so one arena sized for the largest
  // step suffices): int16 rows at offset 0, per-row scales above them.
  std::shared_ptr<arena::Arena> quant_arena_;
  int64_t quant_scales_offset_ = 0;  // byte offset of the scale block
  std::shared_ptr<ResultPool> results_;
  PlanStats stats_;
  std::vector<RegionInfo> regions_;
};

}  // namespace serve
}  // namespace msd

#endif  // MSDMIXER_SERVE_PLAN_H_
