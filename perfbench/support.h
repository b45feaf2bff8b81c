// Measurement helpers shared by the perfbench workloads: percentile
// summaries, the open-loop Poisson schedule, the backlog drain rate, the
// in-memory span log with self-time arithmetic, and the result report that
// prints the metric table plus the final one-line JSON object.
//
// Nothing here depends on the MSD-Mixer library, so support_test.cc checks
// the arithmetic in isolation.
#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic clock in nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

// ---- Percentiles -------------------------------------------------------------

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

// True when a sample of `n` leaves at least ten samples strictly beyond the
// q-quantile, the least support a reported tail percentile needs.
bool SupportsQuantile(int64_t n, double q);

// The highest of p99.9 / p99 / p90 / p50 that SupportsQuantile(n, .); 0 when
// not even the median has ten samples beyond it.
double HighestSupportedQuantile(int64_t n);

struct Summary {
  int64_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  // HighestSupportedQuantile(n)
  double tail = 0.0;    // value at tail_q
};
Summary Summarize(const std::vector<double>& values);

// ---- Open-loop load ----------------------------------------------------------

// Poisson arrival offsets (ns from the phase start, ascending) at `rate_per_s`
// over `duration_s`. The same (rate, duration, seed) always yields the same
// schedule; the generator is a portable SplitMix64 stream, not a
// library-defined std:: distribution.
std::vector<int64_t> PoissonScheduleNs(double rate_per_s, double duration_s,
                                       uint64_t seed);

// Capacity as the drain rate of backlogs: each burst holds, for every request
// of a burst offered all at once, its reply time in ms after the burst.
// Returns all replies over the summed time to each burst's last reply, per
// second; 0 when there is no reply or no time.
double DrainRatePerS(const std::vector<std::vector<double>>& bursts);

// ---- Spans -------------------------------------------------------------------

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;      // index into the log, -1 for a root span
  int64_t request_id = -1;  // shared by the spans of one request/step
};

// Span self time: its duration minus the part of its interval covered by
// its direct children (overlapping children counted once, clipped to the
// parent's interval). Indexed like `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Thread-safe append-only span store. A null SpanLog* means "untraced";
// ScopedSpan accepts it and records nothing.
class SpanLog {
 public:
  int64_t Add(std::string name, int64_t start_ns, int64_t end_ns,
              int64_t parent, int64_t request_id);
  // Opens a span ending at Close(id).
  int64_t Open(std::string name, int64_t parent, int64_t request_id);
  void Close(int64_t id);
  std::vector<Span> Snapshot() const;
  // Median self time (us) of the spans named `name`; 0 if there are none.
  double MedianSelfUs(const std::string& name) const;
  int64_t Count(const std::string& name) const;
  // One JSON object per line: name, start_ns, end_ns, parent, request_id,
  // self_ns.
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent = -1,
             int64_t request_id = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_ = -1;
};

// Calls `fn` once to warm up, then `reps` times inside spans named `name`;
// returns the median self time (us) of all spans of that name.
template <typename Fn>
double MedianSpanUs(SpanLog* spans, const char* name, int reps, Fn fn) {
  fn();
  for (int i = 0; i < reps; ++i) {
    ScopedSpan s(spans, name, -1, i);
    fn();
  }
  return spans->MedianSelfUs(name);
}

// ---- Report ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;  // observations behind the value
};

struct Report {
  std::string workload;
  uint64_t seed = 0;
  bool traced = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // any entry makes the run incorrect
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  // Free-form lines printed with the table (tracing overhead, phases).
  std::vector<std::string> notes;

  void Fail(const std::string& why) { errors.push_back(why); }
  void AddEndToEnd(std::string name, double value, std::string unit,
                   int64_t samples);
  void AddLayer(std::string name, double value, std::string unit,
                int64_t samples);
  bool correct() const { return errors.empty() && failed == 0; }
  // The human-readable table (stdout) followed by the final JSON line: the
  // end-to-end metrics when untraced, the per-layer metrics when traced.
  void Print() const;
};

// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
