// Multi-tenant registry tests (docs/SERVING.md): manifest parsing
// (duplicates, version regressions, bad keys), ServedModel admission
// quotas, atomic hot-swap semantics — in-flight requests finish on the
// session they were admitted to while new requests route to the
// replacement — plus a concurrent Get/Swap hammer the TSan leg runs, and
// the ModelService text protocol (MODEL prefix, LIST, RELOAD, STATS),
// including an in-band RELOAD that swaps one model of two.
#include "serve/registry.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/series_builder.h"
#include "nn/serialize.h"
#include "obs/json.h"
#include "runtime/worker.h"
#include "serve/protocol.h"
#include "tasks/pipeline.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace {

// Quantization decisions depend on per-step calibration; pin the pass off so
// a harness-level MSD_QUANT=1 sweep cannot perturb the bit-identity checks.
const bool kQuantPinnedOff = [] {
  ::setenv("MSD_QUANT", "0", /*overwrite=*/1);
  return true;
}();

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "registry_test_" +
         std::to_string(::getpid()) + "_" + name;
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

MsdMixerConfig SmallConfig(int64_t horizon = 8) {
  MsdMixerConfig config;
  config.input_length = 32;
  config.channels = 2;
  config.patch_sizes = {8, 4, 1};
  config.model_dim = 8;
  config.hidden_dim = 16;
  config.drop_path = 0.0f;
  config.task = TaskType::kForecast;
  config.horizon = horizon;
  return config;
}

Tensor RandomWindow(uint64_t seed) {
  Rng rng(seed);
  return Tensor::RandNormal({2, 32}, 0.0f, 1.0f, rng);
}

// Random-init session with per-model weights (`seed`): distinct seeds give
// distinct outputs, so version crossing is detectable bit-for-bit.
std::unique_ptr<serve::InferenceSession> MakeSession(
    uint64_t seed, int64_t horizon = 8, int64_t synthetic_compute_us = 0) {
  MsdMixerConfig config = SmallConfig(horizon);
  Rng rng(seed);
  MsdMixer mixer(config, rng);
  const std::string path =
      TempPath("ckpt_" + std::to_string(seed) + ".msdckpt");
  EXPECT_TRUE(SaveCheckpoint(mixer, path).ok());
  serve::InferenceSessionConfig sc;
  sc.model = config;
  sc.max_batch = 8;
  sc.synthetic_compute_us = synthetic_compute_us;
  auto session = serve::InferenceSession::Create(sc, path);
  std::remove(path.c_str());
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  return std::move(session).value();
}

serve::MicroBatcherConfig FastBatcher() {
  serve::MicroBatcherConfig bc;
  bc.max_batch = 8;
  bc.max_delay_us = 500;
  bc.queue_capacity = 64;
  return bc;
}

std::shared_ptr<serve::ServedModel> MakeServed(
    const std::string& name, int64_t version, uint64_t seed,
    int64_t max_inflight = 0, int64_t synthetic_compute_us = 0,
    int64_t horizon = 8) {
  serve::ManifestEntry entry;
  entry.name = name;
  entry.version = version;
  entry.checkpoint = "(in-memory)";
  entry.lookback = 32;
  entry.horizon = horizon;
  entry.max_inflight = max_inflight;
  return std::make_shared<serve::ServedModel>(
      entry, MakeSession(seed, horizon, synthetic_compute_us), FastBatcher());
}

// ---- manifest parsing ----------------------------------------------------

TEST(ManifestTest, ParsesEntriesDefaultsAndComments) {
  auto m = serve::ParseManifest(
      "# fleet\n"
      "model name=alpha version=3 checkpoint=a.msdckpt lookback=48 "
      "horizon=12 model_dim=24 hidden_dim=40 max_batch=4 quantize=1 "
      "instance_norm=0\n"
      "\n"
      "model name=beta version=1 checkpoint=b.msdckpt default=1 "
      "max_inflight=7  # trailing comment\n");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  ASSERT_EQ(m.value().entries.size(), 2u);
  const serve::ManifestEntry& a = m.value().entries[0];
  EXPECT_EQ(a.name, "alpha");
  EXPECT_EQ(a.version, 3);
  EXPECT_EQ(a.checkpoint, "a.msdckpt");
  EXPECT_EQ(a.lookback, 48);
  EXPECT_EQ(a.horizon, 12);
  EXPECT_EQ(a.model_dim, 24);
  EXPECT_EQ(a.hidden_dim, 40);
  EXPECT_EQ(a.max_batch, 4);
  EXPECT_TRUE(a.quantize);
  EXPECT_FALSE(a.use_instance_norm);
  EXPECT_FALSE(a.is_default);
  const serve::ManifestEntry& b = m.value().entries[1];
  EXPECT_EQ(b.max_inflight, 7);
  EXPECT_TRUE(b.is_default);
  EXPECT_EQ(m.value().default_model, "beta");
}

TEST(ManifestTest, DefaultFallsBackToFirstEntry) {
  auto m = serve::ParseManifest(
      "model name=a version=1 checkpoint=a.msdckpt\n"
      "model name=b version=1 checkpoint=b.msdckpt\n");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().default_model, "a");
}

TEST(ManifestTest, RejectsDuplicateName) {
  auto m = serve::ParseManifest(
      "model name=a version=1 checkpoint=a.msdckpt\n"
      "model name=a version=2 checkpoint=a2.msdckpt\n");
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.status().message().find("duplicate model 'a'"),
            std::string::npos)
      << m.status().ToString();
  // The diagnostic cites the first declaration's line.
  EXPECT_NE(m.status().message().find("line 1"), std::string::npos);
}

TEST(ManifestTest, RejectsVersionRegression) {
  auto m = serve::ParseManifest(
      "model name=a version=5 checkpoint=a.msdckpt\n"
      "model name=a version=4 checkpoint=old.msdckpt\n");
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.status().message().find("version regression"),
            std::string::npos)
      << m.status().ToString();
  // Equal versions are a regression too: versions must strictly increase.
  auto eq = serve::ParseManifest(
      "model name=a version=5 checkpoint=a.msdckpt\n"
      "model name=a version=5 checkpoint=same.msdckpt\n");
  ASSERT_FALSE(eq.ok());
  EXPECT_NE(eq.status().message().find("version regression"),
            std::string::npos);
}

TEST(ManifestTest, RejectsBadKeysValuesAndMissingFields) {
  EXPECT_FALSE(serve::ParseManifest("server name=a\n").ok());
  EXPECT_FALSE(
      serve::ParseManifest("model name=a version=1\n").ok());  // no ckpt
  EXPECT_FALSE(
      serve::ParseManifest("model name=a checkpoint=a.msdckpt\n").ok());
  EXPECT_FALSE(
      serve::ParseManifest("model version=1 checkpoint=a.msdckpt\n").ok());
  EXPECT_FALSE(serve::ParseManifest(
                   "model name=Alpha version=1 checkpoint=a.msdckpt\n")
                   .ok());  // names are [a-z0-9_]+
  EXPECT_FALSE(serve::ParseManifest(
                   "model name=a version=zero checkpoint=a.msdckpt\n")
                   .ok());
  EXPECT_FALSE(serve::ParseManifest(
                   "model name=a version=0 checkpoint=a.msdckpt\n")
                   .ok());  // versions start at 1
  EXPECT_FALSE(serve::ParseManifest(
                   "model name=a version=1 checkpoint=a.msdckpt lookback=0\n")
                   .ok());
  EXPECT_FALSE(serve::ParseManifest(
                   "model name=a version=1 checkpoint=a.msdckpt default=2\n")
                   .ok());
  auto unknown = serve::ParseManifest(
      "model name=a version=1 checkpoint=a.msdckpt color=red\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("unknown key 'color'"),
            std::string::npos);
}

TEST(ManifestTest, RejectsMultipleDefaultsAndEmpty) {
  auto two = serve::ParseManifest(
      "model name=a version=1 checkpoint=a.msdckpt default=1\n"
      "model name=b version=1 checkpoint=b.msdckpt default=1\n");
  ASSERT_FALSE(two.ok());
  EXPECT_NE(two.status().message().find("only one model"), std::string::npos);
  EXPECT_FALSE(serve::ParseManifest("# nothing but comments\n").ok());
}

// ---- registry routing and swap -------------------------------------------

TEST(ModelRegistryTest, GetRoutesDefaultNamedAndUnknown) {
  serve::ModelRegistry registry(FastBatcher());
  ASSERT_TRUE(registry.Add(MakeServed("alpha", 1, 11)).ok());
  ASSERT_TRUE(registry.Add(MakeServed("beta", 1, 22)).ok());
  registry.set_default_model("alpha");

  auto by_name = registry.Get("beta");
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ(by_name.value()->name(), "beta");
  auto by_default = registry.Get("");
  ASSERT_TRUE(by_default.ok());
  EXPECT_EQ(by_default.value()->name(), "alpha");
  auto unknown = registry.Get("ghost");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  const auto models = registry.List();
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0]->name(), "alpha");  // sorted
  EXPECT_EQ(models[1]->name(), "beta");
}

TEST(ModelRegistryTest, AddRejectsDuplicateName) {
  serve::ModelRegistry registry(FastBatcher());
  ASSERT_TRUE(registry.Add(MakeServed("m", 1, 11)).ok());
  Status dup = registry.Add(MakeServed("m", 2, 12));
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
}

TEST(ModelRegistryTest, SwapRejectsRegressionAndUnknownName) {
  serve::ModelRegistry registry(FastBatcher());
  ASSERT_TRUE(registry.Add(MakeServed("m", 3, 11)).ok());
  Status regression = registry.Swap(MakeServed("m", 3, 12));
  EXPECT_EQ(regression.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(regression.message().find("version regression"),
            std::string::npos);
  Status unknown = registry.Swap(MakeServed("ghost", 1, 13));
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
  // The live model is untouched by either failure.
  EXPECT_EQ(registry.Get("m").value()->version(), 3);
}

TEST(ModelRegistryTest, InFlightRequestFinishesOnOldSessionAcrossSwap) {
  const Tensor window = RandomWindow(500);
  serve::ModelRegistry registry(FastBatcher());
  // v1 pads every forward with a 20ms busy-spin so the swap happens while
  // the request is mid-compute on v1's batcher.
  ASSERT_TRUE(
      registry
          .Add(MakeServed("m", 1, 11, /*max_inflight=*/0,
                          /*synthetic_compute_us=*/20000))
          .ok());
  auto v1 = registry.Get("m");
  ASSERT_TRUE(v1.ok());
  const Tensor expect_v1 = v1.value()->session()->Predict(window).value();

  std::promise<StatusOr<Tensor>> inflight_promise;
  std::future<StatusOr<Tensor>> inflight = inflight_promise.get_future();
  ASSERT_TRUE(v1.value()
                  ->SubmitAsync(Tensor(window),
                                [&inflight_promise](StatusOr<Tensor> r) {
                                  inflight_promise.set_value(std::move(r));
                                })
                  .ok());

  auto v2 = MakeServed("m", 2, 22);
  const Tensor expect_v2 = v2->session()->Predict(window).value();
  ASSERT_TRUE(registry.Swap(std::move(v2)).ok());

  // New lookups route to v2 immediately...
  auto now_live = registry.Get("m");
  ASSERT_TRUE(now_live.ok());
  EXPECT_EQ(now_live.value()->version(), 2);
  auto fresh = now_live.value()->Handle(window);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(BitIdentical(fresh.value(), expect_v2));

  // ...while the admitted request completes on the session it was admitted
  // to — the v1 bytes, not v2's.
  StatusOr<Tensor> old_result = inflight.get();
  ASSERT_TRUE(old_result.ok()) << old_result.status().ToString();
  EXPECT_TRUE(BitIdentical(old_result.value(), expect_v1));
  EXPECT_FALSE(BitIdentical(old_result.value(), expect_v2));

  v1 = StatusOr<std::shared_ptr<serve::ServedModel>>(
      Status::Internal("dropped"));
  registry.ReapRetired();
}

TEST(ServedModelTest, QuotaRejectsBeyondMaxInflight) {
  const Tensor window = RandomWindow(600);
  auto model = MakeServed("quota", 1, 33, /*max_inflight=*/1,
                          /*synthetic_compute_us=*/20000);
  const int64_t rejected_before = model->rejected_total();

  std::promise<StatusOr<Tensor>> slot_promise;
  std::future<StatusOr<Tensor>> slot = slot_promise.get_future();
  ASSERT_TRUE(model
                  ->SubmitAsync(Tensor(window),
                                [&slot_promise](StatusOr<Tensor> r) {
                                  slot_promise.set_value(std::move(r));
                                })
                  .ok());
  // The single quota slot is taken until the callback runs.
  auto over = model->Handle(window);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(model->rejected_total(), rejected_before + 1);

  ASSERT_TRUE(slot.get().ok());
  // The slot is released on completion; admission works again.
  EXPECT_TRUE(model->Handle(window).ok());
}

TEST(ModelRegistryTest, ConcurrentGetAndSwapHammer) {
  const Tensor window = RandomWindow(700);
  constexpr int64_t kVersions = 5;
  constexpr int64_t kReaders = 4;
  constexpr int64_t kRequestsPerReader = 30;

  // Every version's expected bytes, computed up front: a reply that matches
  // none of them means a torn swap or a cross-version batch.
  std::vector<std::shared_ptr<serve::ServedModel>> versions;
  std::vector<Tensor> expected;
  for (int64_t v = 1; v <= kVersions; ++v) {
    versions.push_back(
        MakeServed("m", v, /*seed=*/100 + static_cast<uint64_t>(v)));
    expected.push_back(
        versions.back()->session()->Predict(window).value());
  }

  serve::ModelRegistry registry(FastBatcher());
  ASSERT_TRUE(registry.Add(versions[0]).ok());
  registry.set_default_model("m");

  std::atomic<int64_t> bad_replies{0};
  std::atomic<int64_t> failed{0};
  runtime::WorkerGroup readers;
  readers.Start(kReaders, [&](int64_t) {
    for (int64_t i = 0; i < kRequestsPerReader; ++i) {
      auto model = registry.Get("m");
      if (!model.ok()) {
        failed.fetch_add(1);
        continue;
      }
      auto reply = model.value()->Handle(window);
      if (!reply.ok()) {
        failed.fetch_add(1);
        continue;
      }
      bool matched = false;
      for (const Tensor& want : expected) {
        if (BitIdentical(reply.value(), want)) {
          matched = true;
          break;
        }
      }
      if (!matched) bad_replies.fetch_add(1);
    }
  });
  for (int64_t v = 2; v <= kVersions; ++v) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(registry.Swap(versions[static_cast<size_t>(v) - 1]).ok());
  }
  readers.Join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(bad_replies.load(), 0);
  EXPECT_EQ(registry.Get("m").value()->version(), kVersions);
  registry.ReapRetired();
}

// ---- Reload from a pipeline checkpoint -----------------------------------

Tensor ReloadSeries(uint64_t seed) {
  SeriesConfig config;
  config.name = "registry_test";
  config.length = 300;
  config.seed = seed;
  for (int c = 0; c < 2; ++c) {
    ChannelSpec channel;
    channel.level = 1.0 + c;
    channel.seasonals.push_back({24.0, 1.0, 0.3 * c, 2});
    channel.noise_sigma = 0.05;
    config.channels.push_back(channel);
  }
  return GenerateSeries(config);
}

TEST(ModelRegistryTest, ReloadBuildsNextVersionFromCheckpoint) {
  const Tensor series = ReloadSeries(42);
  ForecastPipelineConfig pc;
  pc.lookback = 32;
  pc.horizon = 8;
  pc.trainer.epochs = 1;
  pc.trainer.batch_size = 16;
  pc.trainer.max_batches_per_epoch = 4;
  pc.trainer.early_stop_patience = 0;
  ForecastPipeline pipe_v1(pc, /*seed=*/5);
  ForecastPipeline pipe_v2(pc, /*seed=*/13);
  pipe_v1.Fit(series);
  pipe_v2.Fit(series);
  const std::string ckpt_v1 = TempPath("reload_v1.msdckpt");
  const std::string ckpt_v2 = TempPath("reload_v2.msdckpt");
  ASSERT_TRUE(pipe_v1.Save(ckpt_v1).ok());
  ASSERT_TRUE(pipe_v2.Save(ckpt_v2).ok());

  auto manifest = serve::ParseManifest(
      "model name=m version=1 checkpoint=" + ckpt_v1 +
      " lookback=32 horizon=8 max_batch=4\n");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  {
    serve::ModelRegistry registry(FastBatcher());
    ASSERT_TRUE(registry.Load(manifest.value()).ok());
    EXPECT_EQ(registry.default_model(), "m");
    EXPECT_EQ(registry.Get("m").value()->version(), 1);

    Status reloaded = registry.Reload("m", ckpt_v2);
    ASSERT_TRUE(reloaded.ok()) << reloaded.ToString();
    auto live = registry.Get("m");
    ASSERT_TRUE(live.ok());
    EXPECT_EQ(live.value()->version(), 2);
    EXPECT_EQ(live.value()->entry().checkpoint, ckpt_v2);

    // The reloaded model serves exactly the v2 checkpoint's bytes.
    serve::ForecastSessionOptions so;
    so.lookback = 32;
    so.horizon = 8;
    so.max_batch = 1;
    auto oracle = serve::CreateForecastSession(ckpt_v2, so);
    ASSERT_TRUE(oracle.ok());
    const Tensor window = Slice(series, 1, 0, pc.lookback);
    auto served = live.value()->Handle(window);
    ASSERT_TRUE(served.ok());
    EXPECT_TRUE(BitIdentical(served.value(),
                             oracle.value()->Predict(window).value()));

    // A bad checkpoint must not disturb the live version.
    EXPECT_FALSE(registry.Reload("m", "does_not_exist.msdckpt").ok());
    EXPECT_FALSE(registry.Reload("ghost", ckpt_v2).ok());
    EXPECT_EQ(registry.Get("m").value()->version(), 2);
  }
  std::remove(ckpt_v1.c_str());
  std::remove((ckpt_v1 + ".meta").c_str());
  std::remove(ckpt_v2.c_str());
  std::remove((ckpt_v2 + ".meta").c_str());
}

// ---- ModelService protocol -----------------------------------------------

// The oracle must see exactly the bytes the service parses: request lines
// are %.6g-rounded, so expected replies are computed from the round-tripped
// window text (the determinism contract then makes them byte-identical).
std::string ExpectedReply(serve::InferenceSession* session,
                          const std::string& line) {
  auto window = serve::ParseWindowLine(line, /*channels=*/0, /*length=*/0);
  EXPECT_TRUE(window.ok());
  auto out = session->Predict(window.value());
  EXPECT_TRUE(out.ok());
  return serve::FormatTensorLine(out.value());
}

TEST(ModelServiceTest, ModelPrefixRoutingListAndErrors) {
  serve::ModelRegistry registry(FastBatcher());
  ASSERT_TRUE(
      registry.Add(MakeServed("alpha", 1, 11, 0, 0, /*horizon=*/8)).ok());
  ASSERT_TRUE(
      registry.Add(MakeServed("beta", 2, 22, 0, 0, /*horizon=*/4)).ok());
  registry.set_default_model("alpha");
  serve::ModelService service(&registry);

  const std::string line = serve::FormatTensorLine(RandomWindow(800));
  const std::string want_alpha =
      ExpectedReply(registry.Get("alpha").value()->session(), line);
  const std::string want_beta =
      ExpectedReply(registry.Get("beta").value()->session(), line);
  EXPECT_NE(want_alpha, want_beta);  // different horizons, different shapes

  EXPECT_EQ(service.HandleLine("MODEL alpha " + line), want_alpha);
  EXPECT_EQ(service.HandleLine("MODEL beta " + line), want_beta);
  // No prefix routes to the default model.
  EXPECT_EQ(service.HandleLine(line), want_alpha);

  const std::string unknown = service.HandleLine("MODEL ghost " + line);
  EXPECT_EQ(unknown.rfind("ERROR NotFound", 0), 0u) << unknown;

  obs::JsonValue list;
  ASSERT_TRUE(obs::JsonParse(service.HandleLine("LIST"), &list));
  ASSERT_TRUE(list.is_object());
  EXPECT_EQ(list.Find("default")->str, "alpha");
  ASSERT_TRUE(list.Find("models")->is_array());
  EXPECT_EQ(list.Find("models")->array.size(), 2u);

  obs::JsonValue stats;
  ASSERT_TRUE(obs::JsonParse(service.HandleLine("STATS"), &stats));
  const obs::JsonValue* models = stats.Find("models");
  ASSERT_NE(models, nullptr);
  ASSERT_NE(models->Find("alpha"), nullptr);
  EXPECT_EQ(models->Find("beta")->Find("version")->number, 2.0);
  EXPECT_GE(models->Find("alpha")->Find("requests_total")->number, 2.0);

  // RELOAD arity and target errors.
  const std::string bad_arity = service.HandleLine("RELOAD alpha");
  EXPECT_EQ(bad_arity.rfind("ERROR InvalidArgument", 0), 0u) << bad_arity;
  const std::string bad_target =
      service.HandleLine("RELOAD ghost some.msdckpt");
  EXPECT_EQ(bad_target.rfind("ERROR NotFound", 0), 0u) << bad_target;
}

TEST(ModelServiceTest, PoisonedLineIsRejectedAndCoBatchedReplyUnchanged) {
  serve::ModelRegistry registry(FastBatcher());
  ASSERT_TRUE(registry.Add(MakeServed("alpha", 1, 11)).ok());
  registry.set_default_model("alpha");
  serve::ModelService service(&registry);
  const std::string good = serve::FormatTensorLine(RandomWindow(910));
  const std::string solo = service.HandleLine("MODEL alpha " + good);
  ASSERT_NE(solo.rfind("ERROR", 0), 0u) << solo;
  std::string poisoned = serve::FormatTensorLine(RandomWindow(911));
  poisoned.replace(0, poisoned.find(','), "nan");

  // Good and poisoned lines interleaved inside one batching window (500 us):
  // admitted, the NaN row would share every batched GEMM with the good rows.
  constexpr int kPairs = 3;
  std::vector<std::promise<std::string>> good_replies(kPairs);
  std::vector<std::string> poisoned_replies(kPairs);
  for (int i = 0; i < kPairs; ++i) {
    service.HandleLineAsync("MODEL alpha " + good,
                            [&good_replies, i](std::string reply) {
                              good_replies[static_cast<size_t>(i)].set_value(
                                  std::move(reply));
                            });
    service.HandleLineAsync("MODEL alpha " + poisoned,
                            [&poisoned_replies, i](std::string reply) {
                              poisoned_replies[static_cast<size_t>(i)] =
                                  std::move(reply);
                            });
  }
  for (int i = 0; i < kPairs; ++i) {
    // Rejected inline at parse time, before admission.
    EXPECT_EQ(poisoned_replies[static_cast<size_t>(i)].rfind(
                  "ERROR InvalidArgument", 0),
              0u)
        << poisoned_replies[static_cast<size_t>(i)];
    EXPECT_EQ(good_replies[static_cast<size_t>(i)].get_future().get(), solo);
  }
}

TEST(ModelServiceTest, HandleLineAsyncAnswersExactlyOnce) {
  serve::ModelRegistry registry(FastBatcher());
  ASSERT_TRUE(registry.Add(MakeServed("alpha", 1, 11)).ok());
  registry.set_default_model("alpha");
  serve::ModelService service(&registry);
  const std::string line = serve::FormatTensorLine(RandomWindow(900));
  const std::string want =
      ExpectedReply(registry.Get("alpha").value()->session(), line);

  // Data line: answered later, on a batcher worker.
  std::promise<std::string> data_promise;
  std::atomic<int> data_calls{0};
  service.HandleLineAsync(line, [&](std::string reply) {
    data_calls.fetch_add(1);
    data_promise.set_value(std::move(reply));
  });
  EXPECT_EQ(data_promise.get_future().get(), want);
  EXPECT_EQ(data_calls.load(), 1);

  // Admin and admission failures answer inline on the calling thread.
  std::string admin_reply;
  service.HandleLineAsync("LIST",
                          [&](std::string reply) { admin_reply = reply; });
  EXPECT_NE(admin_reply.find("\"default\":\"alpha\""), std::string::npos);
  std::string notfound_reply;
  service.HandleLineAsync("MODEL ghost " + line,
                          [&](std::string reply) { notfound_reply = reply; });
  EXPECT_EQ(notfound_reply.rfind("ERROR NotFound", 0), 0u);
}

TEST(ModelServiceTest, ReloadSwapsOneModelAndKeepsItOnBadCheckpoint) {
  const Tensor series = ReloadSeries(43);
  ForecastPipelineConfig pc;
  pc.lookback = 32;
  pc.horizon = 8;
  pc.trainer.epochs = 1;
  pc.trainer.batch_size = 16;
  pc.trainer.max_batches_per_epoch = 4;
  pc.trainer.early_stop_patience = 0;
  ForecastPipeline pipe_v1(pc, /*seed=*/5);
  ForecastPipeline pipe_v2(pc, /*seed=*/13);
  pipe_v1.Fit(series);
  pipe_v2.Fit(series);
  const std::string ckpt_v1 = TempPath("service_v1.msdckpt");
  const std::string ckpt_v2 = TempPath("service_v2.msdckpt");
  ASSERT_TRUE(pipe_v1.Save(ckpt_v1).ok());
  ASSERT_TRUE(pipe_v2.Save(ckpt_v2).ok());
  auto manifest = serve::ParseManifest("model name=alpha version=1 "
                                       "checkpoint=" + ckpt_v1 +
                                       " lookback=32 horizon=8\n");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  serve::ForecastSessionOptions so;
  so.lookback = 32;
  so.horizon = 8;
  auto oracle_v2 = serve::CreateForecastSession(ckpt_v2, so);
  ASSERT_TRUE(oracle_v2.ok()) << oracle_v2.status().ToString();
  {
    serve::ModelRegistry registry(FastBatcher());
    ASSERT_TRUE(registry.Load(manifest.value()).ok());
    ASSERT_TRUE(
        registry.Add(MakeServed("beta", 1, 22, 0, 0, /*horizon=*/4)).ok());
    serve::ModelService service(&registry);

    const std::string line_alpha =
        "MODEL alpha " + serve::FormatTensorLine(Slice(series, 1, 0, 32));
    const std::string line_beta =
        "MODEL beta " + serve::FormatTensorLine(RandomWindow(920));
    const std::string want_v2 = ExpectedReply(
        oracle_v2.value().get(),
        serve::FormatTensorLine(Slice(series, 1, 0, 32)));
    const std::string beta_before = service.HandleLine(line_beta);
    ASSERT_NE(beta_before.rfind("ERROR", 0), 0u) << beta_before;
    // v1 and v2 answer differently, so the swap is observable.
    ASSERT_NE(service.HandleLine(line_alpha), want_v2);

    EXPECT_EQ(service.HandleLine("RELOAD alpha " + ckpt_v2), "OK alpha v2");
    EXPECT_EQ(service.HandleLine(line_alpha), want_v2);
    EXPECT_EQ(service.HandleLine(line_beta), beta_before);
    obs::JsonValue stats;
    ASSERT_TRUE(obs::JsonParse(service.HandleLine("STATS"), &stats));
    EXPECT_EQ(stats.Find("models")->Find("alpha")->Find("version")->number,
              2.0);
    EXPECT_EQ(stats.Find("models")->Find("beta")->Find("version")->number,
              1.0);

    // A missing checkpoint is an error, and alpha stays on v2.
    const std::string bad =
        service.HandleLine("RELOAD alpha does_not_exist.msdckpt");
    EXPECT_EQ(bad.rfind("ERROR", 0), 0u) << bad;
    EXPECT_EQ(registry.Get("alpha").value()->version(), 2);
    EXPECT_EQ(service.HandleLine(line_alpha), want_v2);
  }
  std::remove(ckpt_v1.c_str());
  std::remove((ckpt_v1 + ".meta").c_str());
  std::remove(ckpt_v2.c_str());
  std::remove((ckpt_v2 + ".meta").c_str());
}

}  // namespace
}  // namespace msd
