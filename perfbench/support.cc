#include "support.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

bool SupportsQuantile(int64_t n, double q) {
  // Samples strictly above the q-quantile: n - ceil(q * n). The epsilon
  // keeps 0.99 * 1000 from rounding up to 991.
  const double at_or_below = std::ceil(q * static_cast<double>(n) - 1e-9);
  return static_cast<double>(n) - at_or_below >= 10.0;
}

double HighestSupportedQuantile(int64_t n) {
  for (double q : {0.999, 0.99, 0.9, 0.5}) {
    if (SupportsQuantile(n, q)) return q;
  }
  return 0.0;
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.n = static_cast<int64_t>(values.size());
  s.p50 = Quantile(values, 0.5);
  s.tail_q = HighestSupportedQuantile(s.n);
  s.tail = s.tail_q > 0.0 ? Quantile(values, s.tail_q) : 0.0;
  return s;
}

std::vector<int64_t> PoissonScheduleNs(double rate_per_s, double duration_s,
                                       uint64_t seed) {
  std::vector<int64_t> out;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return out;
  uint64_t state = seed;
  auto next_uniform = [&state]() {
    // SplitMix64, top 53 bits -> (0, 1].
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return (static_cast<double>(z >> 11) + 1.0) * 0x1.0p-53;
  };
  const double end_ns = duration_s * 1e9;
  double t = 0.0;
  out.reserve(static_cast<size_t>(rate_per_s * duration_s * 1.2) + 16);
  for (;;) {
    t += -std::log(next_uniform()) / rate_per_s * 1e9;
    if (t >= end_ns) break;
    out.push_back(static_cast<int64_t>(t));
  }
  return out;
}

double DrainRatePerS(const std::vector<std::vector<double>>& bursts) {
  double replies = 0.0;
  double total_ms = 0.0;
  for (const std::vector<double>& burst : bursts) {
    if (burst.empty()) continue;
    replies += static_cast<double>(burst.size());
    total_ms += *std::max_element(burst.begin(), burst.end());
  }
  return total_ms > 0.0 ? replies / total_ms * 1e3 : 0.0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || s.parent >= static_cast<int64_t>(spans.size())) {
      continue;
    }
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t a = std::max(s.start_ns, p.start_ns);
    const int64_t b = std::min(s.end_ns, p.end_ns);
    if (b > a) children[static_cast<size_t>(s.parent)].push_back({a, b});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_a = 0;
    int64_t cur_b = -1;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > cur_b) {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (open) covered += cur_b - cur_a;
    self[i] = std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns - covered);
  }
  return self;
}

int64_t SpanLog::Add(std::string name, int64_t start_ns, int64_t end_ns,
                     int64_t parent, int64_t request_id) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), start_ns, end_ns, parent, request_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t SpanLog::Open(std::string name, int64_t parent, int64_t request_id) {
  return Add(std::move(name), NowNs(), 0, parent, request_id);
}

void SpanLog::Close(int64_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double SpanLog::MedianSelfUs(const std::string& name) const {
  const std::vector<Span> spans = Snapshot();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::vector<double> us;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) us.push_back(static_cast<double>(self[i]) / 1e3);
  }
  return Quantile(std::move(us), 0.5);
}

int64_t SpanLog::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::count_if(spans_.begin(), spans_.end(),
                       [&](const Span& s) { return s.name == name; });
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request_id\":" << s.request_id << ",\"self_ns\":" << self[i]
        << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, int64_t parent,
                       int64_t request_id)
    : log_(log) {
  if (log_ != nullptr) id_ = log_->Open(name, parent, request_id);
}

ScopedSpan::~ScopedSpan() {
  if (log_ != nullptr) log_->Close(id_);
}

void Report::AddEndToEnd(std::string name, double value, std::string unit,
                         int64_t samples) {
  end_to_end.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::AddLayer(std::string name, double value, std::string unit,
                      int64_t samples) {
  layers.push_back({std::move(name), value, std::move(unit), samples});
}

namespace {

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %-8s n=%lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
}

}  // namespace

void Report::Print() const {
  std::printf("workload %s  seed %llu  trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), traced ? 1 : 0);
  const double failed_frac =
      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
  std::printf("  attempted %lld  failed %lld  failed_frac %.6f\n",
              static_cast<long long>(attempted), static_cast<long long>(failed),
              failed_frac);
  for (const std::string& note : notes) std::printf("  %s\n", note.c_str());
  PrintTable("end-to-end:", end_to_end);
  if (traced) PrintTable("per-layer:", layers);
  for (const std::string& e : errors) std::printf("  ERROR %s\n", e.c_str());

  const std::vector<Metric>& out = traced ? layers : end_to_end;
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < out.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.10g", out[i].value);
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
