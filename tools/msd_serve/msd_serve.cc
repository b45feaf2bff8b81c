// Serving CLI (docs/SERVING.md): restores one or many ForecastPipeline
// checkpoints into frozen serve::InferenceSessions behind a
// serve::ModelRegistry and answers text-protocol requests — one window per
// line, channels separated by ';', values by ','; the reply is the forecast
// in the same layout or "ERROR <code>: <message>". Requests may address a
// model explicitly with a "MODEL <name> " prefix; without it the manifest's
// default model answers.
//
//   msd_serve <checkpoint> [--lookback N] [--horizon N] [--model-dim N]
//             [--hidden-dim N] [--max-batch N] [--max-inflight N]
//             [--max-delay-us N] [--workers N] [--socket PATH]
//             [--max-conns N] [--backlog N] [--telemetry-out FILE]
//             [--telemetry-interval-ms N] [--trace-sample N]
//   msd_serve --manifest FILE [--max-batch N] [--max-delay-us N] ...
//   msd_serve --selftest [--telemetry-out FILE]
//
// --manifest FILE serves a whole fleet: one `model name=... version=...
// checkpoint=...` line per tenant (serve/registry.h documents the keys).
// The single-checkpoint form is sugar for a one-entry manifest whose model
// is named "default". --max-batch (default 32, the ManifestEntry default)
// sizes both the single-checkpoint session's plans and every batcher's
// coalescing window, so the batcher fills every plan the session compiled.
//
// By default requests are read from stdin and answered on stdout (shell
// pipelines, smoke tests); a stdin line longer than the socket transport's
// max_line_bytes (1 MiB) is answered with one ERROR and skipped. With
// --socket PATH the tool listens on an AF_UNIX stream socket through
// serve::SocketServer — an epoll loop that multiplexes up to --max-conns
// concurrent connections and resolves requests through the batchers' async
// path, so slow clients never block each other. Admin commands: STATS
// (per-model counters included), LIST, RELOAD <model> <checkpoint> (atomic
// hot-swap; in-flight requests finish on the old session), TRACE <path>.
//
// --selftest is a smoke test of this binary: it saves one tiny checkpoint,
// writes a one-entry manifest, and brings up the same stack main runs
// (RunServingStack) with --manifest and --socket. Over one socket
// connection it checks a data reply against an oracle session over the
// same checkpoint, then STATS, LIST, TRACE and one RELOAD; it feeds the
// stdin front-end an oversized line and a good one, and validates the
// telemetry JSONL. Under MSD_QUANT=1 it also requires the served plan to
// have adopted int8 steps. The protocol's full contract lives in the gtest
// suites (serve_test, registry_test, netio_test). This is the
// msd_serve_selftest ctest.
//
// Telemetry: a background obs::TelemetryExporter appends a JSONL registry
// snapshot to --telemetry-out every --telemetry-interval-ms and services
// the `TRACE <path>` admin command (chrome://tracing dump of the sampled
// request ring; --trace-sample N keeps 1-in-N requests, 0 disables).
//
// All transport IO lives here or in serve/netio.cc (raw non-blocking
// syscalls); the no-blocking-io-in-serve-hot-path lint rule keeps the
// engine itself free of buffered stdio. SIGPIPE is ignored process-wide so
// a vanished client surfaces as EPIPE on write, not a process kill.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "datagen/series_builder.h"
#include "obs/exporter.h"
#include "obs/json.h"
#include "obs/ring.h"
#include "runtime/worker.h"
#include "serve/netio.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "tasks/pipeline.h"
#include "tensor/tensor_ops.h"

namespace {

using namespace msd;

std::string FlagValue(int argc, char** argv, const std::string& flag) {
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag && i + 1 < argc) return argv[i + 1];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return "";
}

// Every numeric flag and the least value it accepts. They are checked before
// anything is built, so a bad value gets usage instead of an MSD_CHECK abort.
struct IntFlagSpec {
  const char* name;
  int64_t min;
};
constexpr IntFlagSpec kIntFlags[] = {
    {"--lookback", 1},      {"--horizon", 1},
    {"--model-dim", 1},     {"--hidden-dim", 1},
    {"--max-batch", 1},     {"--max-inflight", 0},
    {"--max-delay-us", 0},  {"--workers", 1},
    {"--max-conns", 1},     {"--backlog", 1},
    {"--trace-sample", 0},  {"--telemetry-interval-ms", 1},
};

// True when every numeric flag present is a whole decimal integer (no
// trailing characters, no overflow) at or above its minimum; otherwise
// names the first bad one on stderr.
bool IntFlagsValid(int argc, char** argv) {
  for (const IntFlagSpec& spec : kIntFlags) {
    const std::string v = FlagValue(argc, argv, spec.name);
    if (v.empty()) continue;
    errno = 0;
    char* end = nullptr;
    const long long parsed = std::strtoll(v.c_str(), &end, 10);
    if (errno != 0 || end == v.c_str() || *end != '\0' || parsed < spec.min) {
      std::fprintf(stderr, "%s needs an integer >= %lld, got '%s'\n",
                   spec.name, (long long)spec.min, v.c_str());
      return false;
    }
  }
  return true;
}

// A numeric flag's value; IntFlagsValid has checked it.
int64_t IntFlag(int argc, char** argv, const std::string& flag,
                int64_t fallback) {
  const std::string v = FlagValue(argc, argv, flag);
  return v.empty() ? fallback : std::atoll(v.c_str());
}

bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <checkpoint> [--lookback N] [--horizon N]\n"
               "          [--model-dim N] [--hidden-dim N]\n"
               "          [--max-batch N (default 32)] [--max-inflight N]\n"
               "          [--max-delay-us N] [--workers N]\n"
               "          [--socket PATH] [--max-conns N] [--backlog N]\n"
               "          [--telemetry-out FILE] [--telemetry-interval-ms N]\n"
               "          [--trace-sample N]\n"
               "       %s --manifest FILE [serving flags as above]\n"
               "       %s --selftest [--telemetry-out FILE]\n",
               argv0, argv0, argv0);
}

std::string ReadAll(std::FILE* f) {
  std::string out;
  char chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) out.append(chunk, n);
  return out;
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  *out = ReadAll(f);
  std::fclose(f);
  return true;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

// Reads `path` and checks every line is a self-contained JSON snapshot with
// the schema the exporter promises ({"ts_ms":..,"seq":..,"metrics":{...}}
// with the serve counters present). Returns the number of problems found.
int ValidateTelemetryFile(const std::string& path, int64_t min_lines) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    std::fprintf(stderr, "telemetry: cannot open %s\n", path.c_str());
    return 1;
  }
  int failures = 0;
  const std::vector<std::string> lines = SplitLines(text);
  for (size_t i = 0; i < lines.size(); ++i) {
    const long long line_no = static_cast<long long>(i) + 1;
    obs::JsonValue doc;
    if (!obs::JsonParse(lines[i], &doc) || !doc.is_object()) {
      std::fprintf(stderr, "telemetry: line %lld is not valid JSON\n",
                   line_no);
      ++failures;
      continue;
    }
    const obs::JsonValue* ts = doc.Find("ts_ms");
    const obs::JsonValue* seq = doc.Find("seq");
    const obs::JsonValue* metrics = doc.Find("metrics");
    if (ts == nullptr || !ts->is_number() || seq == nullptr ||
        !seq->is_number() || metrics == nullptr || !metrics->is_object()) {
      std::fprintf(stderr, "telemetry: line %lld misses ts_ms/seq/metrics\n",
                   line_no);
      ++failures;
      continue;
    }
    const obs::JsonValue* counters = metrics->Find("counters");
    if (counters == nullptr ||
        counters->Find("serve/requests_total") == nullptr) {
      std::fprintf(stderr,
                   "telemetry: line %lld misses serve/requests_total\n",
                   line_no);
      ++failures;
    }
  }
  if (static_cast<int64_t>(lines.size()) < min_lines) {
    std::fprintf(stderr, "telemetry: %s has %zu lines, expected >= %lld\n",
                 path.c_str(), lines.size(), (long long)min_lines);
    ++failures;
  }
  return failures;
}

// Serves `in` line by line onto `out`; EOF terminates cleanly. Lines are
// limited like the socket transport's: a line longer than
// SocketServerConfig::max_line_bytes is answered with one ERROR and
// skipped, so the client stays in step with its replies.
int ServeStdin(serve::ModelService& service, std::FILE* in, std::FILE* out) {
  const size_t max_line =
      static_cast<size_t>(serve::SocketServerConfig().max_line_bytes);
  for (;;) {
    std::string line;
    bool oversized = false;
    int c;
    while ((c = getc_unlocked(in)) != EOF && c != '\n') {
      if (line.size() < max_line) {
        line.push_back(static_cast<char>(c));
      } else {
        oversized = true;
      }
    }
    if (c == EOF && line.empty()) return 0;
    const std::string reply =
        oversized ? "ERROR " + Status::InvalidArgument(
                                   "request line exceeds " +
                                   std::to_string(max_line) + " bytes")
                                   .ToString()
                  : service.HandleLine(line);
    std::fprintf(out, "%s\n", reply.c_str());
    std::fflush(out);
  }
}

// What a run does with the live stack: main serves stdin or the socket,
// --selftest drives it. `socket` is null without --socket. Returns the
// process exit code.
using StackBody = std::function<int(
    serve::ModelRegistry&, serve::ModelService&, serve::SocketServer*)>;

// Brings up the serving stack from the command-line flags — the manifest
// (or single-checkpoint sugar), registry, service, telemetry exporter and,
// with --socket, a listening SocketServer — and hands it to `body`.
int RunServingStack(int argc, char** argv, const StackBody& body) {
  const std::string manifest_path = FlagValue(argc, argv, "--manifest");
  if ((manifest_path.empty() && (argc < 2 || argv[1][0] == '-')) ||
      !IntFlagsValid(argc, argv)) {
    Usage(argv[0]);
    return 2;
  }
  const int64_t max_batch =
      IntFlag(argc, argv, "--max-batch", serve::ManifestEntry().max_batch);

  serve::Manifest manifest;
  if (!manifest_path.empty()) {
    std::string text;
    if (!ReadFileToString(manifest_path, &text)) {
      std::fprintf(stderr, "cannot read manifest %s\n", manifest_path.c_str());
      return 1;
    }
    auto parsed = serve::ParseManifest(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "manifest %s rejected: %s\n", manifest_path.c_str(),
                   parsed.status().ToString().c_str());
      return 1;
    }
    manifest = std::move(parsed).value();
  } else {
    // Single-checkpoint sugar: a one-entry manifest named "default".
    serve::ManifestEntry entry;
    entry.name = "default";
    entry.version = 1;
    entry.checkpoint = argv[1];
    entry.lookback = IntFlag(argc, argv, "--lookback", entry.lookback);
    entry.horizon = IntFlag(argc, argv, "--horizon", entry.horizon);
    entry.model_dim = IntFlag(argc, argv, "--model-dim", entry.model_dim);
    entry.hidden_dim = IntFlag(argc, argv, "--hidden-dim", entry.hidden_dim);
    entry.max_batch = max_batch;
    entry.max_inflight =
        IntFlag(argc, argv, "--max-inflight", entry.max_inflight);
    manifest.default_model = entry.name;
    manifest.entries.push_back(std::move(entry));
  }

  serve::MicroBatcherConfig bc;
  bc.max_batch = max_batch;
  bc.max_delay_us = IntFlag(argc, argv, "--max-delay-us", 2000);
  bc.num_workers = IntFlag(argc, argv, "--workers", 1);

  // Declared before the registry: destroyed after it, so completions from
  // draining batchers can still Post safely (serve/netio.h lifecycle note).
  std::unique_ptr<serve::SocketServer> socket_server;
  serve::ModelRegistry registry(bc);
  Status loaded = registry.Load(manifest);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load models: %s\n",
                 loaded.ToString().c_str());
    return 1;
  }
  for (const auto& model : registry.List()) {
    std::fprintf(stderr,
                 "loaded %s v%lld from %s: %lld channels, lookback %lld -> "
                 "horizon %lld%s\n",
                 model->name().c_str(), (long long)model->version(),
                 model->entry().checkpoint.c_str(),
                 (long long)model->session()->model_config().channels,
                 (long long)model->entry().lookback,
                 (long long)model->entry().horizon,
                 model->name() == registry.default_model() ? " (default)"
                                                           : "");
  }
  serve::ModelService service(&registry);

  const int64_t sample = IntFlag(argc, argv, "--trace-sample", 16);
  obs::TraceRing::Global().SetSampleEvery(sample);
  // The exporter always runs (the TRACE admin command needs it); without
  // --telemetry-out it only services dump requests, no snapshot file.
  obs::TelemetryExporterOptions exporter_options;
  exporter_options.path = FlagValue(argc, argv, "--telemetry-out");
  exporter_options.interval_ms =
      IntFlag(argc, argv, "--telemetry-interval-ms", 1000);
  obs::TelemetryExporter exporter(exporter_options);
  if (!exporter.Start()) {
    std::fprintf(stderr, "cannot open telemetry output %s\n",
                 exporter_options.path.c_str());
    return 1;
  }
  service.SetExporter(&exporter);

  int rc = 0;
  const std::string socket_path = FlagValue(argc, argv, "--socket");
  if (!socket_path.empty()) {
    serve::SocketServerConfig sc;
    sc.path = socket_path;
    sc.max_conns = IntFlag(argc, argv, "--max-conns", sc.max_conns);
    sc.backlog = IntFlag(argc, argv, "--backlog", sc.backlog);
    socket_server = std::make_unique<serve::SocketServer>(
        sc, [&service](std::string line, std::function<void(std::string)> rp) {
          service.HandleLineAsync(line, std::move(rp));
        });
    Status listening = socket_server->Listen();
    if (!listening.ok()) {
      std::fprintf(stderr, "cannot listen on %s: %s\n", socket_path.c_str(),
                   listening.ToString().c_str());
      rc = 1;
    } else {
      std::fprintf(stderr, "listening on %s (max %lld connections)\n",
                   socket_path.c_str(), (long long)sc.max_conns);
    }
  }
  if (rc == 0) rc = body(registry, service, socket_server.get());
  exporter.Stop();
  return rc;
}

// --- blocking AF_UNIX client helpers (selftest) ----------------------------

int ConnectUnix(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  int rc;
  do {
    rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// Sends one request line and reads exactly one '\n'-framed reply.
std::string RoundTrip(int fd, const std::string& line) {
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

Tensor SelfTestSeries() {
  SeriesConfig series_config;
  series_config.name = "selftest";
  series_config.length = 200;
  series_config.seed = 21;
  for (int c = 0; c < 2; ++c) {
    ChannelSpec channel;
    channel.level = 1.0 + c;
    channel.seasonals.push_back({24.0, 1.0, 0.4 * c, 2});
    channel.noise_sigma = 0.05;
    series_config.channels.push_back(channel);
  }
  return GenerateSeries(series_config);
}

// The socket and stdin checks against the live stack; returns the number
// of failures. `want` is the oracle's reply to the data line `line`.
int DriveStack(serve::ModelRegistry& registry, serve::ModelService& service,
               serve::SocketServer* socket, const std::string& ckpt,
               const std::string& trace_path, const std::string& line,
               const std::string& want) {
  int failures = 0;
  auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "selftest: %s\n", what.c_str());
      ++failures;
    }
  };

  // MSD_QUANT=1 must put the served plan on the int8 path, not leave every
  // step on its fp32 fallback (tools/check.sh runs the selftest both ways).
  serve::InferenceSession* session = registry.Get("").value()->session();
  if (session->quantized()) {
    const serve::CompiledPlan* plan = session->plan_for(1);
    check(plan != nullptr && plan->stats().num_quantized > 0,
          "MSD_QUANT=1 but the batch-1 plan adopted no int8 steps");
  }

  runtime::WorkerGroup loop_thread;
  loop_thread.Start(1, [socket](int64_t) { socket->Run(); });
  const int fd = ConnectUnix(socket->path());
  check(fd >= 0, "socket connect failed");
  if (fd >= 0) {
    const std::string reply = RoundTrip(fd, line);
    check(reply == want, "data reply differs from the oracle session:\n"
                         "  got:  " + reply + "\n  want: " + want);

    const std::string stats = RoundTrip(fd, "STATS");
    obs::JsonValue stats_doc;
    const obs::JsonValue* models = nullptr;
    check(obs::JsonParse(stats, &stats_doc) &&
              stats_doc.Find("requests_total") != nullptr &&
              stats_doc.Find("e2e_us") != nullptr &&
              (models = stats_doc.Find("models")) != nullptr &&
              models->Find("default") != nullptr,
          "bad STATS reply: " + stats);

    const std::string list = RoundTrip(fd, "LIST");
    obs::JsonValue list_doc;
    check(obs::JsonParse(list, &list_doc) && list_doc.is_object() &&
              list_doc.Find("default") != nullptr &&
              list_doc.Find("default")->str == "default" &&
              list_doc.Find("models") != nullptr &&
              list_doc.Find("models")->array.size() == 1,
          "bad LIST reply: " + list);

    // TRACE: the dump parses and holds the three per-request phase spans.
    const std::string trace_reply = RoundTrip(fd, "TRACE " + trace_path);
    std::string trace_json;
    obs::JsonValue trace_doc;
    const obs::JsonValue* events = nullptr;
    bool saw_queue = false, saw_assembly = false, saw_compute = false;
    if (trace_reply.rfind("OK", 0) == 0 &&
        ReadFileToString(trace_path, &trace_json) &&
        obs::JsonParse(trace_json, &trace_doc) &&
        (events = trace_doc.Find("traceEvents")) != nullptr &&
        events->is_array()) {
      for (const obs::JsonValue& event : events->array) {
        const obs::JsonValue* name = event.Find("name");
        if (name == nullptr || !name->is_string()) continue;
        saw_queue = saw_queue || name->str == "queue";
        saw_assembly = saw_assembly || name->str == "batch_assembly";
        saw_compute = saw_compute || name->str == "compute";
      }
    }
    check(saw_queue && saw_assembly && saw_compute,
          "TRACE dump missing or without the request phase spans: " +
              trace_reply);
    std::remove(trace_path.c_str());

    // RELOAD from the same checkpoint: v2 answers exactly what v1 did.
    const std::string reload = RoundTrip(fd, "RELOAD default " + ckpt);
    check(reload == "OK default v2", "RELOAD failed: " + reload);
    check(RoundTrip(fd, line) == want, "post-RELOAD reply differs");
    close(fd);
  }
  socket->Shutdown();
  loop_thread.Join();

  // The stdin front-end: an oversized line gets exactly one ERROR and the
  // next line is answered normally.
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  check(in != nullptr && out != nullptr, "cannot create temp files");
  if (in != nullptr && out != nullptr) {
    const size_t max_line =
        static_cast<size_t>(serve::SocketServerConfig().max_line_bytes);
    std::string oversized;
    while (oversized.size() <= max_line) oversized += "0.5,";
    oversized += "0.5";
    std::fprintf(in, "%s\n%s\n", oversized.c_str(), line.c_str());
    std::rewind(in);
    ServeStdin(service, in, out);
    std::rewind(out);
    const std::vector<std::string> lines = SplitLines(ReadAll(out));
    check(lines.size() == 2 &&
              lines[0].rfind("ERROR InvalidArgument", 0) == 0 &&
              lines[1] == want,
          "stdin front-end answered an oversized line with " +
              std::to_string(lines.size()) + " replies, want 2");
  }
  if (in != nullptr) std::fclose(in);
  if (out != nullptr) std::fclose(out);
  return failures;
}

int SelfTest(int argc, char** argv) {
  const Tensor series = SelfTestSeries();
  ForecastPipelineConfig pc;
  pc.lookback = 32;
  pc.horizon = 8;
  pc.trainer.epochs = 1;
  pc.trainer.batch_size = 16;
  pc.trainer.max_batches_per_epoch = 4;
  pc.trainer.early_stop_patience = 0;
  ForecastPipeline pipeline(pc, /*seed=*/5);
  pipeline.Fit(series);

  const std::string prefix =
      "msd_serve_selftest_" + std::to_string(static_cast<int>(getpid()));
  const std::string ckpt = prefix + ".msdckpt";
  const std::string manifest_path = prefix + ".manifest";
  const std::string trace_path = prefix + "_trace.json";
  const std::string socket_path = "/tmp/" + prefix + ".sock";
  if (!pipeline.Save(ckpt).ok()) {
    std::fprintf(stderr, "selftest: checkpoint save failed\n");
    return 1;
  }
  std::FILE* mf = std::fopen(manifest_path.c_str(), "w");
  if (mf == nullptr) {
    std::fprintf(stderr, "selftest: cannot write %s\n", manifest_path.c_str());
    return 1;
  }
  std::fprintf(mf, "model name=default version=1 checkpoint=%s lookback=%lld "
                   "horizon=%lld\n",
               ckpt.c_str(), (long long)pc.lookback, (long long)pc.horizon);
  std::fclose(mf);

  // The oracle is a direct session over the same checkpoint, created under
  // the same MSD_PLAN / MSD_QUANT environment. It sees exactly the bytes
  // the server parses (the request line is %.6g-rounded), so a correct
  // reply is byte-identical.
  serve::ForecastSessionOptions options;
  options.lookback = pc.lookback;
  options.horizon = pc.horizon;
  auto oracle = serve::CreateForecastSession(ckpt, options);
  if (!oracle.ok()) {
    std::fprintf(stderr, "selftest: oracle session failed: %s\n",
                 oracle.status().ToString().c_str());
    return 1;
  }
  const std::string line =
      serve::FormatTensorLine(Slice(series, 1, 0, pc.lookback));
  auto window = serve::ParseWindowLine(line, 0, 0);
  auto predicted = oracle.value()->Predict(window.value());
  if (!predicted.ok()) {
    std::fprintf(stderr, "selftest: oracle predict failed: %s\n",
                 predicted.status().ToString().c_str());
    return 1;
  }
  const std::string want = serve::FormatTensorLine(predicted.value());

  // Main's own flag path: --manifest, --socket, every request sampled so
  // the TRACE dump is never empty, and the caller's --telemetry-out.
  const std::string telemetry_path = FlagValue(argc, argv, "--telemetry-out");
  std::vector<std::string> args = {argv[0],       "--manifest",
                                   manifest_path, "--socket",
                                   socket_path,   "--trace-sample",
                                   "1"};
  if (!telemetry_path.empty()) {
    args.push_back("--telemetry-out");
    args.push_back(telemetry_path);
  }
  std::vector<char*> stack_argv;
  for (std::string& arg : args) stack_argv.push_back(arg.data());
  int failures = RunServingStack(
      static_cast<int>(stack_argv.size()), stack_argv.data(),
      [&](serve::ModelRegistry& registry, serve::ModelService& service,
          serve::SocketServer* socket) {
        return DriveStack(registry, service, socket, ckpt, trace_path, line,
                          want);
      });
  if (!telemetry_path.empty()) {
    // At least the t=0 and flush-on-shutdown snapshots must be present.
    failures += ValidateTelemetryFile(telemetry_path, /*min_lines=*/2);
  }
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".meta").c_str());
  std::remove(manifest_path.c_str());
  std::printf("selftest %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A client that disappears mid-reply must surface as EPIPE on the write,
  // not kill the server (serve/netio.h's MSG_NOSIGNAL covers socket sends;
  // this covers stdout and any straggler).
  std::signal(SIGPIPE, SIG_IGN);
  if (HasFlag(argc, argv, "--selftest")) return SelfTest(argc, argv);
  return RunServingStack(
      argc, argv,
      [](serve::ModelRegistry&, serve::ModelService& service,
         serve::SocketServer* socket) {
        if (socket != nullptr) {
          socket->Run();
          return 0;
        }
        std::fprintf(stderr, "ready: one request per line on stdin\n");
        return ServeStdin(service, stdin, stdout);
      });
}
