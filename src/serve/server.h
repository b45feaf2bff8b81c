// Serving front-end (docs/SERVING.md).
//
// ServerLoop glues a frozen InferenceSession to a MicroBatcher and exposes
// the two call surfaces the tools use:
//
//  * Handle(window)   — synchronous Tensor-in/Tensor-out: submits to the
//    batcher and blocks on the request future. This is what load-generator
//    clients (bench/bench_serving.cc) call from many threads at once.
//  * HandleLine(line) — the text protocol used by tools/msd_serve over
//    stdin or a unix socket. One request per line; channels are separated
//    by ';', values within a channel by ','. The response uses the same
//    layout, or "ERROR <code>: <message>" on failure. Transport IO stays in
//    the tools — this file only transforms strings (the
//    no-blocking-io-in-serve-hot-path lint rule bans stdio here).
//
// Admin commands (HandleLine, docs/OBSERVABILITY.md):
//  * "STATS"        — one JSON line of serve/* counters, gauges and
//    histogram-derived p50/p95/p99 (Histogram::ValueAtQuantile).
//  * "TRACE <path>" — dumps the sampled obs::TraceRing as chrome://tracing
//    JSON to <path> via the attached TelemetryExporter (SetExporter); the
//    exporter thread does the write, this thread only waits for the result.
//
// Lifecycle: Start() spawns the batcher workers, Stop() drains in-flight
// requests (they resolve with kCancelled) and joins. The destructor Stop()s.
#ifndef MSDMIXER_SERVE_SERVER_H_
#define MSDMIXER_SERVE_SERVER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "serve/batcher.h"
#include "serve/session.h"

namespace msd {
namespace obs {
class TelemetryExporter;
}  // namespace obs

namespace serve {

class ServerLoop {
 public:
  // `session` must outlive the server.
  ServerLoop(InferenceSession* session, const MicroBatcherConfig& config);

  void Start() { batcher_.Start(); }
  void Stop() { batcher_.Stop(); }

  // Submits `window` ([channels, length]) and waits for the result.
  // timeout_us: <0 uses the batcher default, 0 disables the deadline.
  StatusOr<Tensor> Handle(const Tensor& window, int64_t timeout_us = -1);

  // Parses one text-protocol request line (or an admin command, see the file
  // comment), runs Handle, renders the reply. Never throws; malformed input
  // yields an "ERROR ..." string.
  std::string HandleLine(const std::string& line);

  // Attaches the exporter the TRACE admin command routes dumps through.
  // Optional; without one TRACE answers with an error. `exporter` must
  // outlive the server.
  void SetExporter(obs::TelemetryExporter* exporter) { exporter_ = exporter; }

  // The STATS reply: one JSON object with serve counters/gauges and
  // p50/p95/p99 for each serve latency histogram.
  std::string StatsLine() const;

  InferenceSession* session() { return session_; }
  MicroBatcher& batcher() { return batcher_; }

 private:
  InferenceSession* session_;
  MicroBatcher batcher_;
  obs::TelemetryExporter* exporter_ = nullptr;
};

// Text-protocol helpers, exposed for tests and tools.
//
// ParseWindowLine: "1,2,3;4,5,6" -> [2, 3] tensor. Every channel must have
// the same number of values and match the expected [channels, length] if
// those are positive. Non-finite values ("nan", "inf", overflowing literals
// like "1e999") are rejected with kInvalidArgument.
StatusOr<Tensor> ParseWindowLine(const std::string& line, int64_t channels,
                                 int64_t length);

// Strips leading/trailing ASCII whitespace (the transport's framing), so
// admin commands match regardless of trailing newlines.
std::string TrimmedLine(const std::string& line);

// The process-wide serve/* snapshot both front-ends render for STATS: one
// JSON object with the request counters, gauges, and p50/p95/p99 for each
// latency histogram (Histogram::ValueAtQuantile).
std::string ServeStatsJson();

// The TRACE admin command, shared by ServerLoop and the multi-model
// ModelService (serve/registry.h): dumps the sampled obs::TraceRing as
// chrome://tracing JSON to `path` via `exporter` (the exporter thread does
// the file write). Returns the protocol reply ("OK <path>" or "ERROR ...").
std::string HandleTraceDump(const std::string& path,
                            obs::TelemetryExporter* exporter);

// FormatTensorLine: inverse rendering — rank-1 tensors become one
// comma-separated channel; rank-2 rows are joined with ';'. %.6g floats.
std::string FormatTensorLine(const Tensor& tensor);

}  // namespace serve
}  // namespace msd

#endif  // MSDMIXER_SERVE_SERVER_H_
