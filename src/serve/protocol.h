// Text-protocol helpers (docs/SERVING.md) behind ModelService
// (serve/registry.h), the one serving front-end.
//
// One request per line; channels are separated by ';', values within a
// channel by ','. The reply uses the same layout, or
// "ERROR <code>: <message>" on failure. Transport IO stays in the tools and
// serve/netio.cc — this file only transforms strings (the
// no-blocking-io-in-serve-hot-path lint rule bans stdio here).
//
// Admin replies rendered here (docs/OBSERVABILITY.md):
//  * STATS        — ServeStatsJson: one JSON line of serve/* counters,
//    gauges and histogram-derived p50/p95/p99
//    (Histogram::ValueAtQuantile).
//  * TRACE <path> — HandleTraceDump: dumps the sampled obs::TraceRing as
//    chrome://tracing JSON to <path> via the attached TelemetryExporter; the
//    exporter thread does the write, the caller only waits for the result.
#ifndef MSDMIXER_SERVE_PROTOCOL_H_
#define MSDMIXER_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "tensor/tensor.h"

namespace msd {
namespace obs {
class TelemetryExporter;
}  // namespace obs

namespace serve {

// ParseWindowLine: "1,2,3;4,5,6" -> [2, 3] tensor. Every channel must have
// the same number of values and match the expected [channels, length] if
// those are positive. Non-finite values ("nan", "inf", overflowing literals
// like "1e999") are rejected with kInvalidArgument.
StatusOr<Tensor> ParseWindowLine(const std::string& line, int64_t channels,
                                 int64_t length);

// Strips leading/trailing ASCII whitespace (the transport's framing), so
// admin commands match regardless of trailing newlines.
std::string TrimmedLine(const std::string& line);

// The process-wide serve/* snapshot the STATS reply starts from: one JSON
// object with the request counters, gauges, and p50/p95/p99 for each
// latency histogram (Histogram::ValueAtQuantile).
std::string ServeStatsJson();

// The TRACE admin command: dumps the sampled obs::TraceRing as
// chrome://tracing JSON to `path` via `exporter` (the exporter thread does
// the file write). Returns the protocol reply ("OK <path>" or "ERROR ...").
std::string HandleTraceDump(const std::string& path,
                            obs::TelemetryExporter* exporter);

// FormatTensorLine: inverse rendering — rank-1 tensors become one
// comma-separated channel; rank-2 rows are joined with ';'. %.6g floats.
std::string FormatTensorLine(const Tensor& tensor);

}  // namespace serve
}  // namespace msd

#endif  // MSDMIXER_SERVE_PROTOCOL_H_
