// The three BENCHMARK.json workloads. Each fills a Report: the end-to-end
// metrics always, the per-layer ledger and span log when traced.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "support.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  // Where traced runs write their span log and untraced/traced comparison;
  // scratch files (checkpoints, socket) go here too.
  std::string out_dir = ".bench_build/out";
};

// Compute pool size for every workload; training and the planned serving
// GEMMs both fan out over it.
inline constexpr int64_t kComputeThreads = 2;

inline int64_t CounterValue(const char* name) {
  return msd::obs::MetricsRegistry::Global().GetCounter(name).value();
}

// The paper-scale forecaster (C=7, L=96, H=96, patches {24,12,6,2,1},
// d=16, h=32) trained with AdamW, clipping, cosine LR and the Residual
// Loss, then EvaluateForecast on the test split.
void RunTrain(const Options& options, SpanLog* spans, Report* report);

// One planned fp32 paper-scale model behind the registry + epoll socket
// server, under open-loop Poisson load.
void RunServeFp32(const Options& options, SpanLog* spans, Report* report);

// Two tenants (alpha: paper-scale int8, beta: small fp32) behind one socket
// server with 3:1 traffic, plus an in-band RELOAD of alpha under load.
void RunServeFleetInt8(const Options& options, SpanLog* spans, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
