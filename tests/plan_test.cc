// Session-freeze inference compiler tests (docs/COMPILER.md): bit-identity
// of planned execution against the interpreted oracle across task heads,
// thread counts, and batch sizes; arena lifetime edge cases (in-place
// aliasing, zero-numel intermediates, max_batch=1 degenerate plans); region
// disjointness under overlapping lifetimes; and the zero-pool-traffic
// steady-state contract.
#include "serve/plan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "nn/serialize.h"
#include "obs/metrics.h"
#include "runtime/parallel.h"
#include "serve/session.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace {

// This suite asserts fp32 bit-exactness (planned == interpreted). Pin the
// int8 quantization pass off so a harness-level MSD_QUANT=1 sweep (the
// check.sh quantized ctest leg) cannot turn these fixtures into quantized
// sessions; the quantized contracts live in tests/quant_plan_test.cc.
const bool kQuantPinnedOff = [] {
  ::setenv("MSD_QUANT", "0", /*overwrite=*/1);
  return true;
}();

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "plan_test_" + std::to_string(::getpid()) +
         "_" + name;
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

// Pins MSD_PLAN for the lifetime of a scope; Create() reads it once.
class ScopedPlanEnv {
 public:
  explicit ScopedPlanEnv(const char* value) {
    const char* old = std::getenv("MSD_PLAN");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv("MSD_PLAN", value, /*overwrite=*/1);
  }
  ~ScopedPlanEnv() {
    if (had_old_) {
      ::setenv("MSD_PLAN", old_.c_str(), 1);
    } else {
      ::unsetenv("MSD_PLAN");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

MsdMixerConfig SmallConfig(TaskType task) {
  MsdMixerConfig config;
  config.input_length = 32;
  config.channels = 2;
  config.patch_sizes = {8, 4, 1};
  config.model_dim = 8;
  config.hidden_dim = 16;
  config.drop_path = 0.0f;
  config.task = task;
  config.horizon = 8;
  config.num_classes = 3;
  return config;
}

StandardScaler FittedScaler(int64_t channels) {
  Rng rng(99);
  StandardScaler scaler;
  scaler.Fit(Tensor::RandNormal({channels, 64}, 1.5f, 2.0f, rng));
  return scaler;
}

std::unique_ptr<serve::InferenceSession> MakeSession(
    TaskType task, bool planned, int64_t max_batch = 4,
    bool with_scaler = true, const std::string& tag = "s") {
  ScopedPlanEnv env(planned ? "1" : "0");
  MsdMixerConfig config = SmallConfig(task);
  Rng rng(17);
  MsdMixer mixer(config, rng);
  const std::string path = TempPath("plan_" + tag + ".msdckpt");
  EXPECT_TRUE(SaveCheckpoint(mixer, path).ok());
  serve::InferenceSessionConfig sc;
  sc.model = config;
  if (with_scaler) sc.scaler = FittedScaler(config.channels);
  sc.max_batch = max_batch;
  auto session = serve::InferenceSession::Create(sc, path);
  std::remove(path.c_str());
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

Tensor RandomBatch(uint64_t seed, int64_t b) {
  Rng rng(seed);
  return Tensor::RandNormal({b, 2, 32}, 0.0f, 1.0f, rng);
}

// ---- Bit-identity sweep -----------------------------------------------------

// The hard contract: for every task head, the planned forward is memcmp-
// identical to the interpreted one, at every supported batch size and for
// MSD_THREADS 1 and 4. The batch sizes interleave because a session's plans
// share one arena: each call runs over bytes another plan wrote last, and
// an earlier reply must survive the later calls byte for byte.
TEST(PlanBitIdentityTest, MatchesInterpreterAcrossTasksThreadsAndBatches) {
  const TaskType tasks[] = {TaskType::kForecast, TaskType::kClassification,
                            TaskType::kReconstruction};
  for (TaskType task : tasks) {
    SCOPED_TRACE(static_cast<int>(task));
    auto planned = MakeSession(task, /*planned=*/true, /*max_batch=*/4);
    auto interp = MakeSession(task, /*planned=*/false, /*max_batch=*/4);
    ASSERT_TRUE(planned->planned());
    ASSERT_FALSE(interp->planned());
    const int64_t sequence[] = {4, 1, 3, 1, 4};
    Tensor first_reply;
    Tensor first_snapshot;
    for (size_t call = 0; call < std::size(sequence); ++call) {
      const int64_t b = sequence[call];
      ASSERT_NE(planned->plan_for(b), nullptr) << "batch " << b;
      const Tensor batch = RandomBatch(7 + call, b);
      Tensor out1, out4;
      {
        runtime::ScopedThreads threads(1);
        auto p = planned->PredictBatch(batch);
        auto i = interp->PredictBatch(batch);
        ASSERT_TRUE(p.ok() && i.ok());
        EXPECT_TRUE(BitIdentical(p.value(), i.value()))
            << "planned != interpreted, batch " << b << ", 1 thread";
        out1 = p.value();
      }
      {
        runtime::ScopedThreads threads(4);
        auto p = planned->PredictBatch(batch);
        auto i = interp->PredictBatch(batch);
        ASSERT_TRUE(p.ok() && i.ok());
        EXPECT_TRUE(BitIdentical(p.value(), i.value()))
            << "planned != interpreted, batch " << b << ", 4 threads";
        out4 = p.value();
      }
      EXPECT_TRUE(BitIdentical(out1, out4))
          << "planned output depends on thread count, batch " << b;
      if (call == 0) {
        first_reply = out1;
        first_snapshot = out1.Clone();
      }
    }
    EXPECT_TRUE(BitIdentical(first_reply, first_snapshot))
        << "a later call through the shared arena changed an earlier reply";
  }
}

// Without a fitted scaler the planned chain is the bare module graph; the
// contract must hold there too (no normalize/denormalize fusion sites).
TEST(PlanBitIdentityTest, MatchesInterpreterWithoutScaler) {
  auto planned = MakeSession(TaskType::kForecast, /*planned=*/true, 2,
                             /*with_scaler=*/false, "noscale_p");
  auto interp = MakeSession(TaskType::kForecast, /*planned=*/false, 2,
                            /*with_scaler=*/false, "noscale_i");
  const Tensor batch = RandomBatch(21, 2);
  auto p = planned->PredictBatch(batch);
  auto i = interp->PredictBatch(batch);
  ASSERT_TRUE(p.ok() && i.ok());
  EXPECT_TRUE(BitIdentical(p.value(), i.value()));
}

// ---- Plan structure ---------------------------------------------------------

TEST(PlanStructureTest, FusionAndInPlaceReuseFire) {
  // input_length 30 with patch sizes {8, 4, 1}: two scales pad (30 -> 32),
  // so Unpatch emits a Slice and the residual subtract has SliceSub sites
  // in addition to the scaler's SubDiv / MulAdd pair.
  ScopedPlanEnv env("1");
  MsdMixerConfig config = SmallConfig(TaskType::kForecast);
  config.input_length = 30;
  Rng rng(17);
  MsdMixer mixer(config, rng);
  const std::string path = TempPath("plan_stats.msdckpt");
  ASSERT_TRUE(SaveCheckpoint(mixer, path).ok());
  serve::InferenceSessionConfig sc;
  sc.model = config;
  sc.scaler = FittedScaler(config.channels);
  sc.max_batch = 2;
  auto session_or = serve::InferenceSession::Create(sc, path);
  std::remove(path.c_str());
  ASSERT_TRUE(session_or.ok()) << session_or.status().ToString();
  auto session = std::move(session_or).value();
  const serve::CompiledPlan* plan = session->plan_for(2);
  ASSERT_NE(plan, nullptr);
  const serve::PlanStats& stats = plan->stats();
  // Scaler normalize (SubDiv) + forecast denormalize (MulAdd) + the two
  // padded scales' residual subtracts (SliceSub).
  EXPECT_GE(stats.num_fused, 4) << plan->DebugString();
  EXPECT_EQ(stats.num_ops, stats.traced_ops - stats.num_fused);
  EXPECT_GT(stats.num_inplace, 0) << plan->DebugString();
  // Every Linear weight is a frozen rank-2 constant: all of them prepack.
  EXPECT_GT(stats.num_prepacked, 0) << plan->DebugString();
  // Aliasing must actually shrink the region count below one-per-op.
  EXPECT_LT(stats.num_regions, stats.num_ops);
  EXPECT_GT(stats.arena_bytes, 0);
}

TEST(PlanStructureTest, RegionsWithOverlappingLifetimesAreDisjoint) {
  auto session = MakeSession(TaskType::kForecast, /*planned=*/true, 3,
                             /*with_scaler=*/true, "regions");
  // The plans share one arena, so the gauge reports the largest plan's
  // layout, not a sum over batch sizes.
  int64_t largest = 0;
  for (int64_t b = 1; b <= 3; ++b) {
    ASSERT_NE(session->plan_for(b), nullptr);
    largest = std::max(largest, session->plan_for(b)->stats().arena_bytes);
  }
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetGauge("serve/arena_bytes").value(),
      static_cast<double>(largest));
  for (int64_t b = 1; b <= 3; ++b) {
    const serve::CompiledPlan* plan = session->plan_for(b);
    ASSERT_NE(plan, nullptr);
    const std::vector<serve::RegionInfo> regions = plan->Regions();
    ASSERT_FALSE(regions.empty());
    int64_t arena_end = 0;
    for (const serve::RegionInfo& r : regions) {
      EXPECT_GE(r.offset, 0);
      EXPECT_EQ(r.offset % arena::kAlignment, 0);
      arena_end = std::max(arena_end, r.offset + r.bytes);
    }
    EXPECT_EQ(arena_end, plan->stats().arena_bytes);
    for (size_t i = 0; i < regions.size(); ++i) {
      for (size_t j = i + 1; j < regions.size(); ++j) {
        const serve::RegionInfo& a = regions[i];
        const serve::RegionInfo& c = regions[j];
        if (a.bytes == 0 || c.bytes == 0) continue;
        const bool lifetimes_overlap =
            a.first_def <= c.last_use && c.first_def <= a.last_use;
        if (!lifetimes_overlap) continue;
        const bool bytes_overlap =
            a.offset < c.offset + c.bytes && c.offset < a.offset + a.bytes;
        EXPECT_FALSE(bytes_overlap)
            << "regions " << i << "/" << j << " share bytes while both live";
      }
    }
  }
}

// ---- Steady-state allocation contract ---------------------------------------

TEST(PlanSteadyStateTest, PlannedPathDoesNotTouchTheTensorPool) {
  auto session = MakeSession(TaskType::kForecast, /*planned=*/true, 2,
                             /*with_scaler=*/true, "pool");
  const Tensor batch = RandomBatch(31, 2);
  // One call before counting settles the result-block free list.
  ASSERT_TRUE(session->PredictBatch(batch).ok());
  obs::Counter& hits =
      obs::MetricsRegistry::Global().GetCounter("tensor/pool_hits");
  obs::Counter& misses =
      obs::MetricsRegistry::Global().GetCounter("tensor/pool_misses");
  obs::Counter& plan_ops =
      obs::MetricsRegistry::Global().GetCounter("serve/plan_ops");
  const int64_t hits0 = hits.value();
  const int64_t misses0 = misses.value();
  const int64_t ops0 = plan_ops.value();
  constexpr int kCalls = 16;
  for (int i = 0; i < kCalls; ++i) {
    auto out = session->PredictBatch(batch);
    ASSERT_TRUE(out.ok());
  }
  EXPECT_EQ(hits.value(), hits0) << "planned path drew from the tensor pool";
  EXPECT_EQ(misses.value(), misses0) << "planned path allocated via the pool";
  EXPECT_EQ(plan_ops.value() - ops0,
            kCalls * session->plan_for(2)->stats().num_ops);
}

// ---- Compile() edge cases ---------------------------------------------------

// A diamond of elementwise ops: the planner's in-place pass must not alias
// the output of Add(t, t) over t while the later Sub still reads t.
TEST(PlanCompileTest, AliasedResidualReuseStaysCorrect) {
  Rng rng(5);
  const Tensor x = Tensor::RandNormal({3, 8}, 0.0f, 1.0f, rng);
  auto fn = [](const Tensor& in) {
    Tensor t = Relu(Add(in, in));
    Tensor u = Mul(t, t);      // may alias onto t only if t were dead — it
    Tensor v = Sub(u, t);      // is not: this op still reads it
    return Add(v, in);         // and `in` must never be overwritten
  };
  std::string why_not;
  auto plan = serve::CompiledPlan::Compile(fn, x, &why_not);
  ASSERT_NE(plan, nullptr) << why_not;
  const Tensor expected = fn(x);
  for (int round = 0; round < 3; ++round) {
    Tensor got = plan->Execute(x);
    EXPECT_TRUE(BitIdentical(got, expected)) << "round " << round;
  }
  EXPECT_GT(plan->stats().num_inplace, 0) << plan->DebugString();
}

// Zero-numel intermediates get zero-byte regions and must flow through
// slicing, padding, and elementwise kernels without faulting.
TEST(PlanCompileTest, ZeroLengthIntermediates) {
  Rng rng(6);
  const Tensor x = Tensor::RandNormal({2, 6}, 0.0f, 1.0f, rng);
  auto fn = [](const Tensor& in) {
    Tensor empty = Slice(in, 1, 0, 0);            // [2, 0]
    Tensor doubled = Add(empty, empty);           // zero-numel elementwise
    Tensor refilled = Pad(doubled, 1, 0, 6, 2.5f);  // [2, 6] of pad value
    return Mul(refilled, in);
  };
  std::string why_not;
  auto plan = serve::CompiledPlan::Compile(fn, x, &why_not);
  ASSERT_NE(plan, nullptr) << why_not;
  EXPECT_TRUE(BitIdentical(plan->Execute(x), fn(x)));
  bool saw_zero_byte_region = false;
  for (const serve::RegionInfo& r : plan->Regions()) {
    if (r.bytes == 0) saw_zero_byte_region = true;
  }
  EXPECT_TRUE(saw_zero_byte_region);
}

// Unsupported ops must poison the trace: Compile refuses with a reason
// instead of freezing a wrong schedule.
TEST(PlanCompileTest, UnsupportedOpRefusesWithReason) {
  Rng rng(7);
  const Tensor x = Tensor::RandNormal({2, 4}, 0.0f, 1.0f, rng);
  auto fn = [](const Tensor& in) { return Maximum(in, Neg(in)); };
  std::string why_not;
  auto plan = serve::CompiledPlan::Compile(fn, x, &why_not);
  EXPECT_EQ(plan, nullptr);
  EXPECT_NE(why_not.find("Maximum"), std::string::npos) << why_not;
}

// max_batch = 1: the degenerate single-plan session still plans, still
// matches the interpreter, and rejects anything larger.
TEST(PlanCompileTest, MaxBatchOneDegeneratePlan) {
  auto planned = MakeSession(TaskType::kReconstruction, /*planned=*/true,
                             /*max_batch=*/1, /*with_scaler=*/true, "b1p");
  auto interp = MakeSession(TaskType::kReconstruction, /*planned=*/false,
                            /*max_batch=*/1, /*with_scaler=*/true, "b1i");
  ASSERT_NE(planned->plan_for(1), nullptr);
  EXPECT_EQ(planned->plan_for(2), nullptr);
  const Tensor batch = RandomBatch(41, 1);
  auto p = planned->PredictBatch(batch);
  auto i = interp->PredictBatch(batch);
  ASSERT_TRUE(p.ok() && i.ok());
  EXPECT_TRUE(BitIdentical(p.value(), i.value()));
  EXPECT_FALSE(planned->PredictBatch(RandomBatch(42, 2)).ok());
}

// Replies are exported out of the arena: they must stay stable after later
// Execute calls overwrite the arena, and may outlive the plan itself.
TEST(PlanCompileTest, RepliesSurviveArenaReuseAndPlanDestruction) {
  Rng rng(8);
  const Tensor x = Tensor::RandNormal({2, 5}, 0.0f, 1.0f, rng);
  const Tensor y = Tensor::RandNormal({2, 5}, 3.0f, 1.0f, rng);
  auto fn = [](const Tensor& in) { return Sqrt(Abs(Mul(in, in))); };
  auto plan = serve::CompiledPlan::Compile(fn, x);
  ASSERT_NE(plan, nullptr);
  Tensor first = plan->Execute(x);
  const Tensor snapshot = first.Clone();
  Tensor second = plan->Execute(y);
  EXPECT_TRUE(BitIdentical(first, snapshot)) << "arena reuse clobbered reply";
  plan.reset();
  EXPECT_TRUE(BitIdentical(first, snapshot)) << "reply died with the plan";
  EXPECT_TRUE(BitIdentical(second, fn(y)));
}

}  // namespace
}  // namespace msd
