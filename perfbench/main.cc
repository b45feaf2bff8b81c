// perfbench: one command for every BENCHMARK.json workload.
//
//   perfbench --workload train|serve_fp32|serve_fleet_int8 --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints a metric table (name, value, unit, sample count) and, as the last
// stdout line, one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). Exits 1 on any incorrect output or failed operation.
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runtime/parallel.h"
#include "support.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options->seconds <= 0.0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty();
}

// mkdir -p for a relative path.
bool MakeDirs(const std::string& path) {
  for (size_t pos = 0; pos != std::string::npos;) {
    pos = path.find('/', pos + 1);
    const std::string prefix = path.substr(0, pos);
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload train|serve_fp32|"
                 "serve_fleet_int8 --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n");
    return 2;
  }
  if (!MakeDirs(options.out_dir)) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 options.out_dir.c_str(), std::strerror(errno));
    return 2;
  }
  msd::runtime::SetNumThreads(perfbench::kComputeThreads);

  perfbench::Report report;
  report.workload = options.workload;
  report.seed = options.seed;
  report.traced = options.trace;
  perfbench::SpanLog span_log;
  perfbench::SpanLog* spans = options.trace ? &span_log : nullptr;
  if (options.workload == "train") {
    perfbench::RunTrain(options, spans, &report);
  } else if (options.workload == "serve_fp32") {
    perfbench::RunServeFp32(options, spans, &report);
  } else if (options.workload == "serve_fleet_int8") {
    perfbench::RunServeFleetInt8(options, spans, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 options.workload.c_str());
    return 2;
  }
  if (spans != nullptr) {
    const std::string path = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".spans.jsonl";
    if (!spans->WriteJsonl(path)) report.Fail("cannot write " + path);
    report.notes.push_back("spans written to " + path);
  }
  if (report.attempted < 1) report.Fail("no operation was attempted");
  report.Print();
  return report.correct() ? 0 : 1;
}
