#include "serve/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "obs/exporter.h"
#include "serve/trace.h"

namespace msd {
namespace serve {

std::string TrimmedLine(const std::string& line) {
  size_t begin = 0;
  size_t end = line.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(line[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(line[end - 1])) != 0) {
    --end;
  }
  return line.substr(begin, end - begin);
}

StatusOr<Tensor> ParseWindowLine(const std::string& line, int64_t channels,
                                 int64_t length) {
  std::vector<std::vector<float>> rows(1);
  const char* cursor = line.c_str();
  const char* end = cursor + line.size();
  while (cursor < end) {
    char* next = nullptr;
    const float value = std::strtof(cursor, &next);
    if (next == cursor) {
      return Status::InvalidArgument("unparseable value at offset " +
                                     std::to_string(cursor - line.c_str()));
    }
    // strtof accepts "nan", "inf" and overflowing literals such as "1e999"
    // (-> inf); reject them here so they never reach a batch.
    if (!std::isfinite(value)) {
      return Status::InvalidArgument("non-finite value at offset " +
                                     std::to_string(cursor - line.c_str()));
    }
    rows.back().push_back(value);
    cursor = next;
    while (cursor < end && (*cursor == ' ' || *cursor == '\t')) ++cursor;
    if (cursor < end) {
      if (*cursor == ';') {
        rows.emplace_back();
        ++cursor;
      } else if (*cursor == ',') {
        ++cursor;
      } else if (*cursor == '\r' || *cursor == '\n') {
        break;
      } else {
        return Status::InvalidArgument(
            std::string("unexpected character '") + *cursor + "' in request");
      }
    }
  }
  if (rows.back().empty()) rows.pop_back();
  if (rows.empty()) return Status::InvalidArgument("empty request line");
  const size_t per_channel = rows.front().size();
  for (const auto& row : rows) {
    if (row.size() != per_channel) {
      return Status::InvalidArgument("ragged channels: expected " +
                                     std::to_string(per_channel) +
                                     " values per channel");
    }
  }
  if (channels > 0 && static_cast<int64_t>(rows.size()) != channels) {
    return Status::InvalidArgument(
        "expected " + std::to_string(channels) + " channels, got " +
        std::to_string(rows.size()));
  }
  if (length > 0 && static_cast<int64_t>(per_channel) != length) {
    return Status::InvalidArgument(
        "expected " + std::to_string(length) + " values per channel, got " +
        std::to_string(per_channel));
  }
  Tensor window({static_cast<int64_t>(rows.size()),
                 static_cast<int64_t>(per_channel)});
  for (int64_t c = 0; c < window.dim(0); ++c) {
    for (int64_t t = 0; t < window.dim(1); ++t) {
      window.set({c, t}, rows[static_cast<size_t>(c)][static_cast<size_t>(t)]);
    }
  }
  return window;
}

std::string FormatTensorLine(const Tensor& tensor) {
  MSD_CHECK(tensor.defined());
  MSD_CHECK(tensor.rank() == 1 || tensor.rank() == 2)
      << "text protocol renders rank-1/rank-2 outputs";
  const int64_t rows = tensor.rank() == 2 ? tensor.dim(0) : 1;
  const int64_t cols = tensor.rank() == 2 ? tensor.dim(1) : tensor.dim(0);
  std::string out;
  out.reserve(static_cast<size_t>(rows * cols) * 10);
  char buffer[48];
  for (int64_t r = 0; r < rows; ++r) {
    if (r > 0) out.push_back(';');
    for (int64_t c = 0; c < cols; ++c) {
      if (c > 0) out.push_back(',');
      const float v =
          tensor.rank() == 2 ? tensor.at({r, c}) : tensor.at({c});
      std::snprintf(buffer, sizeof(buffer), "%.6g", static_cast<double>(v));
      out += buffer;
    }
  }
  return out;
}

std::string ServeStatsJson() {
  ServeInstruments& m = Instruments();
  char buf[256];
  std::string out = "{";
  std::snprintf(
      buf, sizeof(buf),
      "\"requests_total\":%lld,\"rejected_total\":%lld,"
      "\"timeouts_total\":%lld,\"deadline_miss\":%lld,\"batches_total\":%lld,",
      static_cast<long long>(m.requests.value()),
      static_cast<long long>(m.rejected.value()),
      static_cast<long long>(m.timeouts.value()),
      static_cast<long long>(m.deadline_miss.value()),
      static_cast<long long>(m.batches.value()));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\"queue_depth\":%.0f,\"inflight\":%.0f",
                m.queue_depth.value(), m.inflight.value());
  out += buf;
  const struct {
    const char* key;
    const obs::Histogram* hist;
  } latencies[] = {{"queue_us", &m.queue_us},
                   {"batch_assembly_us", &m.batch_assembly_us},
                   {"compute_us", &m.compute_us},
                   {"e2e_us", &m.e2e_us}};
  for (const auto& entry : latencies) {
    std::snprintf(buf, sizeof(buf),
                  ",\"%s\":{\"count\":%lld,\"p50\":%.1f,\"p95\":%.1f,"
                  "\"p99\":%.1f}",
                  entry.key, static_cast<long long>(entry.hist->count()),
                  entry.hist->ValueAtQuantile(0.5),
                  entry.hist->ValueAtQuantile(0.95),
                  entry.hist->ValueAtQuantile(0.99));
    out += buf;
  }
  out += "}";
  return out;
}

std::string HandleTraceDump(const std::string& path,
                            obs::TelemetryExporter* exporter) {
  if (path.empty()) {
    return "ERROR " +
           Status::InvalidArgument("TRACE needs a destination path").ToString();
  }
  if (exporter == nullptr) {
    return "ERROR " + Status::Internal(
                          "no telemetry exporter attached; TRACE "
                          "requires --telemetry support in the host tool")
                          .ToString();
  }
  // The exporter thread owns the file write; we only wait for the result,
  // so no blocking I/O happens in src/serve itself.
  if (exporter->RequestTraceDump(path).get()) return "OK " + path;
  return "ERROR " +
         Status::Internal("trace dump to " + path + " failed").ToString();
}

}  // namespace serve
}  // namespace msd
