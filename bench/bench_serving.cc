// Closed-loop load test for the serving subsystem (docs/SERVING.md).
//
// Builds a small random-init MSD-Mixer, snapshots it to a checkpoint,
// restores it into a frozen serve::InferenceSession behind a
// serve::ServedModel, and hammers it (ServedModel::Handle) from N client
// threads until --requests requests have
// completed. Reports throughput and p50/p95/p99 end-to-end latency twice —
// from the clients' own clocks AND from the server-side serve/e2e_us
// histogram (Histogram::ValueAtQuantile) — and cross-checks that the two
// agree within 10%, so the histogram the server exports is trustworthy as
// the gated source of truth. Exits nonzero on any failed request, any
// correctness mismatch, a server/client quantile disagreement, or a broken
// backpressure/cancellation contract.
//
//   bench_serving [--requests N] [--clients N] [--workers N]
//                 [--max-batch N] [--max-delay-us N] [--threads N]
//                 [--metrics-out FILE] [--trace-out FILE]
//                 [--telemetry-out FILE] [--telemetry-interval-ms N]
//                 [--trace-sample N] [--ring-trace-out FILE]
//                 [--quantile-tolerance PCT] [--quantile-slack-us US]
//                 [--quantize]
//                 [--churn] [--conns N] [--churn-requests N]
//
// --quantize appends a second load phase against an int8-quantized session
// (InferenceSessionConfig::quantize, docs/PERFORMANCE.md): same request
// count, same closed loop, latencies published as the
// serve/quant_latency_p{50,95,99}_us and serve/quant_throughput_rps gauges
// so one --metrics-out snapshot carries both legs side by side. The phase
// fails the run if any quantized response differs from the quantized
// session's own direct Predict (batch-composition invariance must survive
// quantization).
//
// --telemetry-out streams periodic JSONL registry snapshots from a live
// obs::TelemetryExporter while the load runs; --ring-trace-out dumps the
// sampled request ring (1-in---trace-sample) as chrome://tracing JSON.
// --quantile-tolerance loosens the server-vs-client agreement gate (percent,
// default 10): client tails absorb future-wakeup scheduling jitter the
// server-side histogram never sees, so short runs on loaded machines (the
// ctest smoke runs next to the whole suite) need more headroom than a
// dedicated multi-thousand-request recording. --quantile-slack-us (absolute
// microseconds, default 30) floors that tolerance: one millisecond-scale
// wake spike in a 200-request tail dwarfs any percentage of a ~1ms quant
// latency, so the smoke passes a spike-sized slack.
//
// --churn appends the multi-tenant churn phase (docs/SERVING.md): a
// two-model manifest (alpha/beta, different horizons) behind a ModelRegistry
// and an epoll SocketServer, hammered by --conns concurrent blocking AF_UNIX
// client connections (default 128) in closed loop until --churn-requests
// complete. Halfway through, one client fires "RELOAD alpha <v2 ckpt>" —
// a live hot-swap under full load. Every data reply is string-compared
// against precomputed oracles (the determinism contract makes correct
// replies byte-identical): beta replies must match beta's oracle, alpha
// replies must match either the v1 or the v2 oracle, and at least one of
// each must be observed. Any failed request, any reply matching neither
// version, a missing swap, or a RELOAD error fails the run. Latencies land
// in the serve/multi_latency_p{50,95,99}_us and serve/multi_throughput_rps
// gauges for the check.sh --serve-baseline gate. The phase runs LAST so the
// single-model quantile-agreement check above stays unpolluted.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench_util.h"
#include "datagen/series_builder.h"
#include "nn/serialize.h"
#include "obs/exporter.h"
#include "obs/ring.h"
#include "runtime/worker.h"
#include "serve/netio.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/trace.h"
#include "tasks/pipeline.h"
#include "tensor/tensor_ops.h"

namespace {

using namespace msd;

int64_t IntFlag(int argc, char** argv, const std::string& flag,
                int64_t fallback) {
  const std::string v = bench::FlagValue(argc, argv, flag);
  if (v.empty()) return fallback;
  const int64_t n = std::atoll(v.c_str());
  if (n <= 0) {
    std::fprintf(stderr, "invalid %s value '%s'\n", flag.c_str(), v.c_str());
    std::exit(2);
  }
  return n;
}

double Percentile(std::vector<double>* sorted_inout, double q) {
  std::vector<double>& v = *sorted_inout;
  if (v.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

// Verifies the bounded-queue contract on an idle (not Start()ed) batcher:
// admission up to capacity, kResourceExhausted past it, kCancelled for
// everything pending at Stop(). Returns false on any violation.
bool CheckBackpressure(serve::InferenceSession* session) {
  serve::MicroBatcherConfig config;
  config.queue_capacity = 8;
  serve::MicroBatcher batcher(session, config);
  const Tensor window = Tensor::Zeros({session->model_config().channels,
                                       session->model_config().input_length});
  std::vector<serve::ResultFuture> pending;
  for (int64_t i = 0; i < config.queue_capacity; ++i) {
    serve::ResultFuture f;
    if (!batcher.Submit(window, &f).ok()) {
      std::fprintf(stderr, "backpressure: admission %lld rejected early\n",
                   (long long)i);
      return false;
    }
    pending.push_back(std::move(f));
  }
  serve::ResultFuture overflow;
  Status rejected = batcher.Submit(window, &overflow);
  if (rejected.code() != StatusCode::kResourceExhausted) {
    std::fprintf(stderr, "backpressure: expected ResourceExhausted, got %s\n",
                 rejected.ToString().c_str());
    return false;
  }
  batcher.Stop();
  for (auto& f : pending) {
    if (f.get().status().code() != StatusCode::kCancelled) {
      std::fprintf(stderr, "backpressure: pending request not Cancelled\n");
      return false;
    }
  }
  return true;
}

// One closed-loop load phase: `clients` threads hammer `model` with their
// per-client windows until `requests` requests complete, verifying every
// response bit-for-bit against `expected` (the session's own direct
// Predict). Returns the merged, sorted latency sample plus failure counts.
struct LoadResult {
  std::vector<double> sorted_latencies_us;
  double wall_s = 0.0;
  int64_t failures = 0;
  int64_t mismatches = 0;
};

LoadResult RunClosedLoop(serve::ServedModel* model,
                         const std::vector<Tensor>& windows,
                         const std::vector<Tensor>& expected,
                         int64_t requests, int64_t clients) {
  std::atomic<int64_t> issued{0};
  std::atomic<int64_t> failures{0};
  std::atomic<int64_t> mismatches{0};
  std::vector<std::vector<double>> latencies(static_cast<size_t>(clients));
  const auto start = std::chrono::steady_clock::now();
  {
    runtime::WorkerGroup group;
    group.Start(clients, [&](int64_t client) {
      auto& mine = latencies[static_cast<size_t>(client)];
      const Tensor& window = windows[static_cast<size_t>(client)];
      const Tensor& want = expected[static_cast<size_t>(client)];
      while (issued.fetch_add(1) < requests) {
        const auto t0 = std::chrono::steady_clock::now();
        StatusOr<Tensor> got = model->Handle(window);
        const auto t1 = std::chrono::steady_clock::now();
        if (!got.ok()) {
          // Closed-loop clients never overflow the queue; any error is a bug.
          failures.fetch_add(1);
          continue;
        }
        mine.push_back(static_cast<double>(
            std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                .count()));
        if (std::memcmp(got.value().data(), want.data(),
                        sizeof(float) * static_cast<size_t>(want.numel())) !=
            0) {
          mismatches.fetch_add(1);
        }
      }
    });
    group.Join();
  }
  LoadResult result;
  result.wall_s = std::chrono::duration_cast<std::chrono::duration<double>>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  for (auto& v : latencies) {
    result.sorted_latencies_us.insert(result.sorted_latencies_us.end(),
                                      v.begin(), v.end());
  }
  std::sort(result.sorted_latencies_us.begin(),
            result.sorted_latencies_us.end());
  result.failures = failures.load();
  result.mismatches = mismatches.load();
  return result;
}

bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

// --- multi-tenant churn phase (--churn) -----------------------------------

// Blocking AF_UNIX connect with a short retry loop: when --conns clients
// dial simultaneously the listener's backlog can momentarily fill, which
// surfaces as EAGAIN/ECONNREFUSED rather than queuing on some kernels.
int ConnectUnixRetry(const std::string& path) {
  for (int attempt = 0; attempt < 500; ++attempt) {
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    int rc;
    do {
      rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc == 0) return fd;
    close(fd);
    if (errno != EAGAIN && errno != ECONNREFUSED && errno != ENOENT) {
      return -1;
    }
    usleep(2000);
  }
  return -1;
}

// Sends one request line and reads exactly one '\n'-framed reply. The churn
// clients are strictly one-line-at-a-time, so request/reply pairing is
// unambiguous (see the ordering note in serve/netio.h).
std::string SocketRoundTrip(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t w =
        send(fd, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return "ERROR Internal: client write failed";
    sent += static_cast<size_t>(w);
  }
  std::string reply;
  char c;
  for (;;) {
    const ssize_t n = read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return "ERROR Internal: client read failed";
    if (c == '\n') break;
    reply.push_back(c);
  }
  return reply;
}

Tensor ChurnSeries(uint64_t seed) {
  SeriesConfig config;
  config.name = "churn";
  config.length = 400;
  config.seed = seed;
  for (int c = 0; c < 2; ++c) {
    ChannelSpec channel;
    channel.level = 1.0 + c;
    channel.seasonals.push_back({24.0, 1.0, 0.4 * c, 2});
    channel.noise_sigma = 0.05;
    config.channels.push_back(channel);
  }
  return GenerateSeries(config);
}

// Trains the three churn checkpoints (alpha v1, alpha v2, beta), runs the
// socket churn load, verifies every reply, publishes the serve/multi_*
// gauges. Returns false on any contract violation.
bool RunChurnPhase(int64_t conns, int64_t requests, int64_t workers,
                   int64_t max_batch, int64_t max_delay_us) {
  // Replies race with client-side closes at shutdown; writes must error,
  // not kill the process (the SocketServer itself uses MSG_NOSIGNAL).
  std::signal(SIGPIPE, SIG_IGN);
  const Tensor series_a = ChurnSeries(21);
  const Tensor series_b = ChurnSeries(33);

  // Different horizons per tenant: a misrouted reply has the wrong shape
  // on top of the wrong bytes.
  ForecastPipelineConfig pa;
  pa.lookback = 32;
  pa.horizon = 8;
  pa.trainer.epochs = 2;
  pa.trainer.batch_size = 16;
  pa.trainer.max_batches_per_epoch = 8;
  pa.trainer.early_stop_patience = 0;
  ForecastPipelineConfig pb = pa;
  pb.horizon = 4;
  ForecastPipeline pipe_a(pa, /*seed=*/5);
  ForecastPipeline pipe_a2(pa, /*seed=*/13);  // the hot-swap replacement
  ForecastPipeline pipe_b(pb, /*seed=*/9);
  pipe_a.Fit(series_a);
  pipe_a2.Fit(series_a);
  pipe_b.Fit(series_b);

  char prefix[96];
  std::snprintf(prefix, sizeof(prefix), "bench_serving_mm_%d", (int)getpid());
  const std::string ckpt_a = std::string(prefix) + "_a.msdckpt";
  const std::string ckpt_a2 = std::string(prefix) + "_a2.msdckpt";
  const std::string ckpt_b = std::string(prefix) + "_b.msdckpt";
  const auto cleanup = [&]() {
    for (const std::string& p : {ckpt_a, ckpt_a2, ckpt_b}) {
      std::remove(p.c_str());
      std::remove((p + ".meta").c_str());
    }
  };
  if (!pipe_a.Save(ckpt_a).ok() || !pipe_a2.Save(ckpt_a2).ok() ||
      !pipe_b.Save(ckpt_b).ok()) {
    std::fprintf(stderr, "churn: checkpoint save failed\n");
    cleanup();
    return false;
  }

  const std::string manifest_text =
      "model name=alpha version=1 checkpoint=" + ckpt_a +
      " lookback=32 horizon=8 max_batch=" + std::to_string(max_batch) +
      " default=1\n"
      "model name=beta version=1 checkpoint=" + ckpt_b +
      " lookback=32 horizon=4 max_batch=" + std::to_string(max_batch) + "\n";
  auto manifest = serve::ParseManifest(manifest_text);
  if (!manifest.ok()) {
    std::fprintf(stderr, "churn: manifest rejected: %s\n",
                 manifest.status().ToString().c_str());
    cleanup();
    return false;
  }

  // Oracle sessions (max_batch 1: only Predict is needed, so only the
  // batch-1 plan is compiled). The oracle must see exactly the bytes the
  // server parses: request lines are %.6g-rounded, so expected replies are
  // computed from the round-tripped window text, making a correct reply
  // byte-identical and a version-crossed one a guaranteed mismatch.
  serve::ForecastSessionOptions oa;
  oa.lookback = 32;
  oa.horizon = 8;
  oa.max_batch = 1;
  serve::ForecastSessionOptions ob = oa;
  ob.horizon = 4;
  auto oracle_a1 = serve::CreateForecastSession(ckpt_a, oa);
  auto oracle_a2 = serve::CreateForecastSession(ckpt_a2, oa);
  auto oracle_b = serve::CreateForecastSession(ckpt_b, ob);
  if (!oracle_a1.ok() || !oracle_a2.ok() || !oracle_b.ok()) {
    std::fprintf(stderr, "churn: oracle session create failed\n");
    cleanup();
    return false;
  }
  auto expect = [](serve::InferenceSession* session, const std::string& line) {
    auto window = serve::ParseWindowLine(line, /*channels=*/0, /*length=*/0);
    if (!window.ok()) return "ERROR " + window.status().ToString();
    auto out = session->Predict(window.value());
    return out.ok() ? serve::FormatTensorLine(out.value())
                    : "ERROR " + out.status().ToString();
  };

  // K distinct request lines per tenant and their expected replies — for
  // alpha, under BOTH versions, since requests admitted just before the
  // swap legitimately finish on v1 while later ones answer from v2.
  constexpr int64_t kLines = 16;
  std::vector<std::string> lines_a, lines_b, want_a1, want_a2, want_b;
  for (int64_t i = 0; i < kLines; ++i) {
    const int64_t offset = 4 * i;
    lines_a.push_back(
        serve::FormatTensorLine(Slice(series_a, 1, offset, pa.lookback)));
    lines_b.push_back(
        serve::FormatTensorLine(Slice(series_b, 1, offset, pb.lookback)));
    want_a1.push_back(expect(oracle_a1.value().get(), lines_a.back()));
    want_a2.push_back(expect(oracle_a2.value().get(), lines_a.back()));
    want_b.push_back(expect(oracle_b.value().get(), lines_b.back()));
  }

  std::atomic<int64_t> issued{0};
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> failures{0};
  std::atomic<int64_t> unmatched{0};
  std::atomic<int64_t> v1_replies{0};
  std::atomic<int64_t> v2_replies{0};
  std::atomic<int64_t> connect_failures{0};
  std::atomic<int64_t> reload_failures{0};
  std::atomic<bool> reload_fired{false};
  std::mutex sample_mu;
  std::string first_bad;  // first unexpected reply, for the failure report
  std::vector<std::vector<double>> latencies(static_cast<size_t>(conns));
  double wall_s = 0.0;

  {
    // Destruction order (serve/netio.h): the SocketServer must outlive the
    // registry — draining batchers Post() completions through its wake fd.
    serve::SocketServerConfig scfg;
    scfg.path = std::string("/tmp/") + prefix + ".sock";
    scfg.max_conns = conns + 8;
    scfg.backlog = 256;
    serve::MicroBatcherConfig cbc;
    cbc.max_batch = max_batch;
    cbc.max_delay_us = max_delay_us;
    cbc.queue_capacity = std::max<int64_t>(256, 2 * conns);
    cbc.num_workers = workers;
    std::unique_ptr<serve::SocketServer> socket_server;
    runtime::WorkerGroup loop_thread;
    serve::ModelRegistry registry(cbc);
    Status loaded = registry.Load(manifest.value());
    if (!loaded.ok()) {
      std::fprintf(stderr, "churn: registry load failed: %s\n",
                   loaded.ToString().c_str());
      cleanup();
      return false;
    }
    serve::ModelService service(&registry);
    socket_server = std::make_unique<serve::SocketServer>(
        scfg, [&service](std::string req, std::function<void(std::string)> rp) {
          service.HandleLineAsync(std::move(req), std::move(rp));
        });
    Status listening = socket_server->Listen();
    if (!listening.ok()) {
      std::fprintf(stderr, "churn: socket listen failed: %s\n",
                   listening.ToString().c_str());
      cleanup();
      return false;
    }
    loop_thread.Start(1, [&socket_server](int64_t) { socket_server->Run(); });

    const auto start = std::chrono::steady_clock::now();
    {
      runtime::WorkerGroup clients_group;
      clients_group.Start(conns, [&](int64_t c) {
        const int fd = ConnectUnixRetry(scfg.path);
        if (fd < 0) {
          connect_failures.fetch_add(1);
          return;
        }
        auto& mine = latencies[static_cast<size_t>(c)];
        // Even connections drive alpha (the hot-swapped tenant), odd ones
        // beta — both models stay under load through the swap.
        const bool is_alpha = (c % 2 == 0);
        for (;;) {
          // The mid-run hot-swap: the first client to see the halfway mark
          // issues RELOAD in-band on its own connection, under full load.
          if (issued.load(std::memory_order_relaxed) >= requests / 2 &&
              !reload_fired.exchange(true)) {
            const std::string r =
                SocketRoundTrip(fd, "RELOAD alpha " + ckpt_a2);
            if (r != "OK alpha v2") {
              reload_failures.fetch_add(1);
              std::lock_guard<std::mutex> lock(sample_mu);
              if (first_bad.empty()) first_bad = "RELOAD: " + r;
            }
          }
          const int64_t i = issued.fetch_add(1);
          if (i >= requests) break;
          const size_t k = static_cast<size_t>((c + i) % kLines);
          const std::string& line = is_alpha ? lines_a[k] : lines_b[k];
          const std::string request =
              (is_alpha ? "MODEL alpha " : "MODEL beta ") + line;
          const auto t0 = std::chrono::steady_clock::now();
          const std::string reply = SocketRoundTrip(fd, request);
          const auto t1 = std::chrono::steady_clock::now();
          completed.fetch_add(1);
          mine.push_back(static_cast<double>(
              std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
                  .count()));
          bool bad = false;
          if (reply.rfind("ERROR", 0) == 0) {
            failures.fetch_add(1);
            bad = true;
          } else if (is_alpha) {
            // The version-crossing check: every alpha reply must be byte-
            // identical to exactly the v1 or the v2 oracle for its line.
            if (reply == want_a1[k]) {
              v1_replies.fetch_add(1);
            } else if (reply == want_a2[k]) {
              v2_replies.fetch_add(1);
            } else {
              unmatched.fetch_add(1);
              bad = true;
            }
          } else if (reply != want_b[k]) {
            unmatched.fetch_add(1);
            bad = true;
          }
          if (bad) {
            std::lock_guard<std::mutex> lock(sample_mu);
            if (first_bad.empty()) first_bad = request + " -> " + reply;
          }
        }
        close(fd);
      });
      clients_group.Join();
    }
    wall_s = std::chrono::duration_cast<std::chrono::duration<double>>(
                 std::chrono::steady_clock::now() - start)
                 .count();
    socket_server->Shutdown();
    loop_thread.Join();
  }
  cleanup();

  std::vector<double> merged;
  for (auto& v : latencies) merged.insert(merged.end(), v.begin(), v.end());
  std::sort(merged.begin(), merged.end());
  const double p50 = Percentile(&merged, 0.50);
  const double p95 = Percentile(&merged, 0.95);
  const double p99 = Percentile(&merged, 0.99);
  const double throughput =
      wall_s > 0.0 ? static_cast<double>(merged.size()) / wall_s : 0.0;
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("serve/multi_latency_p50_us").Set(p50);
  registry.GetGauge("serve/multi_latency_p95_us").Set(p95);
  registry.GetGauge("serve/multi_latency_p99_us").Set(p99);
  registry.GetGauge("serve/multi_throughput_rps").Set(throughput);
  const int64_t swaps = registry.GetCounter("serve/registry_swaps").value();

  bench::TablePrinter table({"metric (churn)", "value"}, {24, 18});
  table.PrintHeader();
  table.PrintRow({"connections", std::to_string(conns)});
  table.PrintRow({"requests completed", std::to_string(merged.size())});
  table.PrintRow({"alpha v1 replies", std::to_string(v1_replies.load())});
  table.PrintRow({"alpha v2 replies", std::to_string(v2_replies.load())});
  table.PrintRow({"registry swaps", std::to_string(swaps)});
  table.PrintRow({"throughput (req/s)", bench::Fmt(throughput, 1)});
  table.PrintRow({"p50 latency (us)", bench::Fmt(p50, 0)});
  table.PrintRow({"p95 latency (us)", bench::Fmt(p95, 0)});
  table.PrintRow({"p99 latency (us)", bench::Fmt(p99, 0)});
  table.PrintRule();

  bool ok = true;
  if (connect_failures.load() != 0) {
    std::fprintf(stderr, "churn: %lld/%lld connections failed to connect\n",
                 (long long)connect_failures.load(), (long long)conns);
    ok = false;
  }
  if (completed.load() != requests) {
    std::fprintf(stderr, "churn: only %lld/%lld requests completed\n",
                 (long long)completed.load(), (long long)requests);
    ok = false;
  }
  if (failures.load() != 0) {
    std::fprintf(stderr, "churn: %lld requests failed\n",
                 (long long)failures.load());
    ok = false;
  }
  if (unmatched.load() != 0) {
    std::fprintf(stderr,
                 "churn: %lld replies matched neither the v1 nor the v2 "
                 "oracle (version crossing or corruption)\n",
                 (long long)unmatched.load());
    ok = false;
  }
  if (reload_failures.load() != 0 || !reload_fired.load()) {
    std::fprintf(stderr, "churn: mid-run RELOAD did not succeed\n");
    ok = false;
  }
  if (v1_replies.load() < 1 || v2_replies.load() < 1) {
    std::fprintf(stderr,
                 "churn: expected alpha replies from both versions, got "
                 "v1=%lld v2=%lld\n",
                 (long long)v1_replies.load(), (long long)v2_replies.load());
    ok = false;
  }
  if (!ok && !first_bad.empty()) {
    std::fprintf(stderr, "churn: first unexpected reply: %.200s\n",
                 first_bad.c_str());
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitThreads(argc, argv);
  const int64_t requests = IntFlag(argc, argv, "--requests", 2000);
  const int64_t clients = IntFlag(argc, argv, "--clients", 4);
  const int64_t workers = IntFlag(argc, argv, "--workers", 2);
  const int64_t max_batch = IntFlag(argc, argv, "--max-batch", 8);
  // 200us coalescing window: long enough for the 4 closed-loop clients to
  // batch, short enough that the batcher's wait does not dominate a ~1-2ms
  // forward — at 1000us the delay floor hid compute-level changes (the int8
  // path included) from the p50 the serving baseline gates on.
  const int64_t max_delay_us = IntFlag(argc, argv, "--max-delay-us", 200);
  const int64_t trace_sample = IntFlag(argc, argv, "--trace-sample", 16);

  obs::TraceRing::Global().SetSampleEvery(trace_sample);
  obs::TelemetryExporterOptions exporter_options;
  exporter_options.path = bench::FlagValue(argc, argv, "--telemetry-out");
  exporter_options.interval_ms =
      IntFlag(argc, argv, "--telemetry-interval-ms", 200);
  obs::TelemetryExporter exporter(exporter_options);
  if (!exporter.Start()) {
    std::fprintf(stderr, "cannot open telemetry output %s\n",
                 exporter_options.path.c_str());
    return 1;
  }

  // Small forecast model: big enough to exercise every layer, small enough
  // that the bench is queue-bound rather than GEMM-bound.
  MsdMixerConfig mc = bench::MixerConfig(TaskType::kForecast, /*channels=*/3,
                                         /*input_length=*/48, /*horizon=*/12,
                                         /*period=*/24);
  Rng rng(7);
  MsdMixer reference(mc, rng);
  const std::string ckpt = "bench_serving_ckpt.msdckpt";
  Status saved = SaveCheckpoint(reference, ckpt);
  if (!saved.ok()) {
    std::fprintf(stderr, "checkpoint save failed: %s\n",
                 saved.ToString().c_str());
    return 1;
  }

  const bool quantize = HasFlag(argc, argv, "--quantize");
  serve::InferenceSessionConfig sc;
  sc.model = mc;
  sc.max_batch = max_batch;
  auto session_or = serve::InferenceSession::Create(sc, ckpt);
  // The quantized phase restores the SAME checkpoint into an int8 session,
  // so both legs serve identical weights.
  std::unique_ptr<serve::InferenceSession> quant_session;
  if (quantize) {
    serve::InferenceSessionConfig qsc = sc;
    qsc.quantize = true;
    auto quant_or = serve::InferenceSession::Create(qsc, ckpt);
    if (!quant_or.ok()) {
      std::fprintf(stderr, "quantized session create failed: %s\n",
                   quant_or.status().ToString().c_str());
      std::remove(ckpt.c_str());
      return 1;
    }
    quant_session = std::move(quant_or).value();
  }
  std::remove(ckpt.c_str());
  if (!session_or.ok()) {
    std::fprintf(stderr, "session create failed: %s\n",
                 session_or.status().ToString().c_str());
    return 1;
  }
  serve::MicroBatcherConfig bc;
  bc.max_batch = max_batch;
  bc.max_delay_us = max_delay_us;
  bc.queue_capacity = std::max<int64_t>(64, 2 * clients);
  bc.num_workers = workers;
  // ServedModel reads only the name and version (per-model metrics) and the
  // admission quota (unlimited) from its entry.
  serve::ManifestEntry entry;
  entry.name = "bench";
  entry.version = 1;
  serve::ServedModel model(entry, std::move(session_or).value(), bc);
  serve::InferenceSession* session = model.session();

  // Distinct per-client request windows, so the correctness check exercises
  // batches of mixed rows.
  std::vector<Tensor> windows;
  Rng data_rng(99);
  for (int64_t i = 0; i < clients; ++i) {
    windows.push_back(Tensor::RandNormal({mc.channels, mc.input_length}, 0.0f,
                                         1.0f, data_rng));
  }
  // Ground truth outside the serving path (single-request API).
  std::vector<Tensor> expected;
  for (const Tensor& w : windows) {
    auto direct = session->Predict(w);
    if (!direct.ok()) {
      std::fprintf(stderr, "direct predict failed: %s\n",
                   direct.status().ToString().c_str());
      return 1;
    }
    expected.push_back(direct.value());
  }

  LoadResult load = RunClosedLoop(&model, windows, expected, requests,
                                  clients);
  model.batcher().Stop();

  std::vector<double>& merged = load.sorted_latencies_us;
  const double p50 = Percentile(&merged, 0.50);
  const double p95 = Percentile(&merged, 0.95);
  const double p99 = Percentile(&merged, 0.99);
  const double throughput =
      load.wall_s > 0.0 ? static_cast<double>(merged.size()) / load.wall_s
                        : 0.0;

  // Exact client-side percentiles as gauges, so --metrics-out snapshots are
  // comparable across runs by tools/bench_compare.
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetGauge("serve/latency_p50_us").Set(p50);
  registry.GetGauge("serve/latency_p95_us").Set(p95);
  registry.GetGauge("serve/latency_p99_us").Set(p99);
  registry.GetGauge("serve/throughput_rps").Set(throughput);

  // Server-side quantiles from the serve/e2e_us histogram: the same request
  // population measured inside the batcher, read back via ValueAtQuantile.
  const obs::Histogram& e2e = serve::Instruments().e2e_us;
  const double server_p50 = e2e.ValueAtQuantile(0.50);
  const double server_p95 = e2e.ValueAtQuantile(0.95);
  const double server_p99 = e2e.ValueAtQuantile(0.99);

  bench::TablePrinter table({"metric", "value"}, {24, 18});
  table.PrintHeader();
  table.PrintRow({"requests completed", std::to_string(merged.size())});
  table.PrintRow({"clients x workers", std::to_string(clients) + " x " +
                                           std::to_string(workers)});
  table.PrintRow({"throughput (req/s)", bench::Fmt(throughput, 1)});
  table.PrintRow({"p50 latency (us)", bench::Fmt(p50, 0)});
  table.PrintRow({"p95 latency (us)", bench::Fmt(p95, 0)});
  table.PrintRow({"p99 latency (us)", bench::Fmt(p99, 0)});
  table.PrintRow({"server p50 (us)", bench::Fmt(server_p50, 0)});
  table.PrintRow({"server p95 (us)", bench::Fmt(server_p95, 0)});
  table.PrintRow({"server p99 (us)", bench::Fmt(server_p99, 0)});
  table.PrintRule();

  const bool backpressure_ok = CheckBackpressure(session);

  bool ok = true;
  if (static_cast<int64_t>(merged.size()) < requests) {
    std::fprintf(stderr, "only %zu/%lld requests completed\n", merged.size(),
                 (long long)requests);
    ok = false;
  }
  if (load.failures != 0) {
    std::fprintf(stderr, "%lld requests failed\n", (long long)load.failures);
    ok = false;
  }
  if (load.mismatches != 0) {
    std::fprintf(stderr, "%lld responses differed from direct Predict\n",
                 (long long)load.mismatches);
    ok = false;
  }
  if (!backpressure_ok) ok = false;

  // Server-side vs client-side agreement: both sides measured every
  // completed request, so the interpolated histogram quantiles must land
  // within --quantile-tolerance percent of the exact client numbers.
  // --quantile-slack-us is the absolute floor under the relative tolerance:
  // the client's number includes the scheduler delay resuming the waiting
  // thread after the future resolves, which the server-side histogram
  // (correctly) never sees — one multi-millisecond wake spike in a small
  // sample's tail breaks any relative bound when the latencies themselves
  // are ~1ms, so short smoke runs pass a slack sized to that spike while
  // the dedicated check.sh recording keeps the strict default.
  const int64_t tolerance_pct =
      IntFlag(argc, argv, "--quantile-tolerance", 10);
  const double slack_us = static_cast<double>(
      IntFlag(argc, argv, "--quantile-slack-us", 30));
  const struct {
    const char* name;
    double q;
    double client;
    double server;
  } quantiles[] = {{"p50", 0.50, p50, server_p50},
                   {"p95", 0.95, p95, server_p95},
                   {"p99", 0.99, p99, server_p99}};
  for (const auto& q : quantiles) {
    // A quantile whose tail holds fewer than ~5 samples is pinned to one or
    // two extreme order statistics, where the client's scheduler wake-up
    // jitter (invisible to the server-side histogram) dominates; comparing
    // there measures the OS, not the telemetry. p99 needs >= 500 requests.
    const double tail_samples =
        (1.0 - q.q) * static_cast<double>(merged.size());
    if (tail_samples < 5.0) {
      std::printf("skipping %s agreement check (%zu requests leave %.0f "
                  "tail samples; need >= 5)\n",
                  q.name, merged.size(), tail_samples);
      continue;
    }
    const double tolerance =
        std::max(static_cast<double>(tolerance_pct) / 100.0 * q.client,
                 slack_us);
    if (std::abs(q.server - q.client) > tolerance) {
      std::fprintf(stderr,
                   "server-side %s (%.0f us) disagrees with client-side "
                   "(%.0f us) by more than %lld%%\n",
                   q.name, q.server, q.client,
                   static_cast<long long>(tolerance_pct));
      ok = false;
    }
  }

  // ---- Quantized phase (--quantize) ----------------------------------------
  // Same closed loop against the int8 session; latencies land in the
  // serve/quant_* gauges so one snapshot carries both legs.
  if (quantize) {
    serve::ManifestEntry quant_entry = entry;
    quant_entry.name = "bench_int8";
    serve::ServedModel quant_model(quant_entry, std::move(quant_session), bc);
    std::vector<Tensor> quant_expected;
    for (const Tensor& w : windows) {
      auto direct = quant_model.session()->Predict(w);
      if (!direct.ok()) {
        std::fprintf(stderr, "quantized direct predict failed: %s\n",
                     direct.status().ToString().c_str());
        return 1;
      }
      quant_expected.push_back(direct.value());
    }
    LoadResult quant_load = RunClosedLoop(&quant_model, windows,
                                          quant_expected, requests, clients);
    quant_model.batcher().Stop();
    std::vector<double>& qmerged = quant_load.sorted_latencies_us;
    const double qp50 = Percentile(&qmerged, 0.50);
    const double qp95 = Percentile(&qmerged, 0.95);
    const double qp99 = Percentile(&qmerged, 0.99);
    const double qthroughput =
        quant_load.wall_s > 0.0
            ? static_cast<double>(qmerged.size()) / quant_load.wall_s
            : 0.0;
    registry.GetGauge("serve/quant_latency_p50_us").Set(qp50);
    registry.GetGauge("serve/quant_latency_p95_us").Set(qp95);
    registry.GetGauge("serve/quant_latency_p99_us").Set(qp99);
    registry.GetGauge("serve/quant_throughput_rps").Set(qthroughput);

    bench::TablePrinter quant_table({"metric (int8)", "value"}, {24, 18});
    quant_table.PrintHeader();
    quant_table.PrintRow(
        {"requests completed", std::to_string(qmerged.size())});
    quant_table.PrintRow({"throughput (req/s)", bench::Fmt(qthroughput, 1)});
    quant_table.PrintRow({"p50 latency (us)", bench::Fmt(qp50, 0)});
    quant_table.PrintRow({"p95 latency (us)", bench::Fmt(qp95, 0)});
    quant_table.PrintRow({"p99 latency (us)", bench::Fmt(qp99, 0)});
    quant_table.PrintRow(
        {"p50 speedup vs fp32",
         qp50 > 0.0 ? bench::Fmt(p50 / qp50, 2) + "x" : "n/a"});
    quant_table.PrintRule();

    if (static_cast<int64_t>(qmerged.size()) < requests) {
      std::fprintf(stderr, "quantized: only %zu/%lld requests completed\n",
                   qmerged.size(), (long long)requests);
      ok = false;
    }
    if (quant_load.failures != 0) {
      std::fprintf(stderr, "quantized: %lld requests failed\n",
                   (long long)quant_load.failures);
      ok = false;
    }
    if (quant_load.mismatches != 0) {
      // Quantization must preserve batch-composition invariance: row b of a
      // quantized batch equals the quantized single-request Predict.
      std::fprintf(stderr,
                   "quantized: %lld responses differed from direct Predict\n",
                   (long long)quant_load.mismatches);
      ok = false;
    }
  }

  // ---- Multi-tenant churn phase (--churn) ----------------------------------
  // Runs last: its multi-model socket traffic would otherwise pollute the
  // serve/e2e_us population the agreement check above reads.
  if (HasFlag(argc, argv, "--churn")) {
    const int64_t conns = IntFlag(argc, argv, "--conns", 128);
    const int64_t churn_requests =
        IntFlag(argc, argv, "--churn-requests", 4000);
    if (!RunChurnPhase(conns, churn_requests, workers, max_batch,
                       max_delay_us)) {
      ok = false;
    }
  }

  // Final flush so the JSONL's last snapshot carries the end-state gauges
  // and the complete serve/e2e_us histogram.
  exporter.Stop();

  const std::string ring_trace = bench::FlagValue(argc, argv, "--ring-trace-out");
  if (!ring_trace.empty()) {
    const std::string json = obs::TraceRing::Global().ChromeTraceJson();
    std::FILE* f = std::fopen(ring_trace.c_str(), "w");
    if (f == nullptr ||
        std::fwrite(json.data(), 1, json.size(), f) != json.size()) {
      std::fprintf(stderr, "cannot write %s\n", ring_trace.c_str());
      ok = false;
    }
    if (f != nullptr) std::fclose(f);
  }

  if (!bench::ExportTelemetry(argc, argv)) ok = false;
  return ok ? 0 : 1;
}
