// `serve_fp32` and `serve_fleet_int8`: frozen sessions behind the same
// ModelRegistry + ModelService + epoll SocketServer stack msd_serve runs,
// driven over AF_UNIX by an open-loop Poisson load generator.
//
// The generator is two threads: this one sends on schedule (non-blocking
// writes, so a stalled server never delays a send), a receiver thread reads
// replies. Each tenant has its own pipelined connection; its model has one
// batcher worker, so replies come back in send order and pair with the
// per-connection FIFO of outstanding requests. Latency runs from the
// *scheduled* send time (no coordinated omission); the generator's own
// lateness is measured too, and a phase where it ran late is invalid.
//
// Every reply is compared byte for byte with an oracle: a separate
// max_batch=1 session of the same checkpoint (int8 for alpha) answering
// Predict on ParseWindowLine of the exact request text.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/msd_mixer.h"
#include "data/scaler.h"
#include "data/window_dataset.h"
#include "datagen/long_term.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "runtime/worker.h"
#include "serve/netio.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "serve/trace.h"
#include "support.h"
#include "tasks/pipeline.h"
#include "tensor/tensor_ops.h"
#include "workloads.h"

namespace msd {
namespace serve {
// The text-protocol helpers of the msd_serve library. Declared here instead
// of including their header so the benchmark does not depend on which
// serving front-end header hosts them.
StatusOr<Tensor> ParseWindowLine(const std::string& line, int64_t channels,
                                 int64_t length);
std::string FormatTensorLine(const Tensor& tensor);
}  // namespace serve
}  // namespace msd

namespace perfbench {
namespace {

using msd::Tensor;

// A phase is invalid when the generator's own lateness p99 exceeds this:
// the load was not offered on schedule, and whatever stalled the sender
// (the host, mostly) stalled the server's threads too.
constexpr double kMaxLagMs = 2.0;
// Shares of --seconds: the capacity bursts, the lo and hi phases (each split
// into kRounds), and the reload phase. At 30 s: about 7.5 s of bursts, 10.5 s
// of lo (2100 requests at 200 rps), 7.5 s of hi, a 5.1 s reload phase.
constexpr double kBurstShare = 0.25;
constexpr double kLoShare = 0.35;
constexpr double kHiShare = 0.25;
constexpr double kReloadShare = 0.17;
// Re-runs of phases together take at most about this share of --seconds
// (7.5 s at 30), so a slow machine cannot stretch a run by more, and every
// workload's runs together stay within the benchmark's time limit.
constexpr double kRetryShare = 0.25;
// A phase the generator could not offer on schedule is re-run this many
// times in all before it is reported invalid.
constexpr int kPhaseAttempts = 5;
// Capacity bursts and the lo and hi phases run as this many alternating
// rounds of a burst, a lo part, a burst and a hi part.
constexpr int kRounds = 6;
constexpr int kSetupReps = 3;
constexpr int64_t kLinesPerTenant = 64;
constexpr int64_t kMaxBatch = 32;

struct TenantSpec {
  std::string name;
  int64_t channels;
  int64_t lookback;
  int64_t horizon;
  std::vector<int64_t> patch_sizes;
  bool quantize;
  double share;  // of the offered load
};

// The paper-scale shape: C=7, L=96, H=96, patches {24,12,6,2,1}, d=16, h=32.
TenantSpec PaperScale(std::string name, bool quantize, double share) {
  return {std::move(name), 7, 96, 96, {24, 12, 6, 2, 1}, quantize, share};
}

struct WorkloadSpec {
  std::vector<TenantSpec> tenants;
  bool prefix_model;  // send "MODEL <name> " before each window
  double lo_rps;      // batches mostly of size 1
  double hi_rps;      // 30-40% of the drain-rate capacity on a 4-core box
  double burst_rps;   // rough capacity; sizes the bursts, not a limit
  bool reload;        // final phase: in-band RELOAD of tenants[0] at lo rate
};

// One tenant as the generator sees it: request lines and oracle replies.
struct Tenant {
  TenantSpec spec;
  std::string checkpoint;
  std::string checkpoint_v2;  // reload target (reload workloads only)
  std::vector<std::string> lines;  // full request lines, prefix included
  std::vector<std::string> payloads;  // window text only
  std::vector<std::string> want;
  std::vector<std::string> want_v2;
  bool accept_v2 = false;  // only during the reload phase
};

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Writes a seeded, untrained checkpoint (+ .meta with a scaler fitted on
// the generated series' train split) and returns the raw test split.
Tensor WriteCheckpoint(const TenantSpec& spec, uint64_t data_seed,
                       uint64_t init_seed, const std::string& path,
                       std::string* error) {
  const Tensor full = msd::GenerateSeries(
      msd::LongTermConfig(msd::LongTermDataset::kEttM1, data_seed));
  const Tensor series = msd::Slice(full, 0, 0, spec.channels);
  const msd::SeriesSplits splits =
      msd::SplitSeries(series, msd::SplitSpec{0.7, 0.1});
  msd::StandardScaler scaler;
  scaler.Fit(splits.train);
  msd::MsdMixerConfig config;
  config.input_length = spec.lookback;
  config.channels = spec.channels;
  config.patch_sizes = spec.patch_sizes;
  config.model_dim = 16;
  config.hidden_dim = 32;
  config.task = msd::TaskType::kForecast;
  config.horizon = spec.horizon;
  config.use_instance_norm = true;
  msd::Rng rng(init_seed);
  msd::MsdMixer mixer(config, rng);
  msd::Status saved = msd::SaveCheckpoint(mixer, path);
  if (saved.ok()) saved = msd::SaveForecastMeta(path, spec.patch_sizes, scaler);
  if (!saved.ok()) *error = saved.ToString();
  return splits.test;
}

std::string ManifestLine(const TenantSpec& spec, const std::string& ckpt,
                         bool is_default) {
  return "model name=" + spec.name + " version=1 checkpoint=" + ckpt +
         " lookback=" + std::to_string(spec.lookback) +
         " horizon=" + std::to_string(spec.horizon) +
         " model_dim=16 hidden_dim=32 instance_norm=1 max_batch=" +
         std::to_string(kMaxBatch) + " quantize=" +
         (spec.quantize ? "1" : "0") + (is_default ? " default=1" : "") + "\n";
}

msd::serve::MicroBatcherConfig BatcherConfig() {
  msd::serve::MicroBatcherConfig config;
  config.max_batch = kMaxBatch;
  config.max_delay_us = 2000;  // msd_serve's default coalescing window
  // Deep enough that overload shows as latency, never as refusals.
  config.queue_capacity = 1 << 14;
  config.num_workers = 1;
  return config;
}

msd::serve::ForecastSessionOptions SessionOptions(const TenantSpec& spec,
                                                  int64_t max_batch) {
  msd::serve::ForecastSessionOptions options;
  options.lookback = spec.lookback;
  options.horizon = spec.horizon;
  options.model_dim = 16;
  options.hidden_dim = 32;
  options.use_instance_norm = true;
  options.max_batch = max_batch;
  options.quantize = spec.quantize;
  return options;
}

// ---- load generator -----------------------------------------------------------

struct Pending {
  int64_t sched_ns = 0;  // absolute scheduled send time
  int64_t index = -1;    // request index in the phase; -1 = admin command
  int32_t tenant = 0;
  int32_t line = 0;
};

// One AF_UNIX client connection. `out` is touched only by the sender, `in`
// only by the receiver; `pending` is shared under `mu`.
struct Client {
  int fd = -1;
  std::mutex mu;
  std::deque<Pending> pending;
  std::string out;
  size_t out_off = 0;
  std::string in;
  ~Client() {
    if (fd >= 0) close(fd);
  }
};

int ConnectUnix(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  int rc;
  do {
    rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 || fcntl(fd, F_SETFL, O_NONBLOCK) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// Writes what the socket takes; false on a hard error.
bool Flush(Client* c) {
  while (c->out_off < c->out.size()) {
    const ssize_t n = send(c->fd, c->out.data() + c->out_off,
                           c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c->out_off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      return false;
    }
  }
  c->out.clear();
  c->out_off = 0;
  return true;
}

struct PhaseSpec {
  std::string name;
  double rps = 0.0;
  double seconds = 0.0;
  uint64_t seed = 0;
  // > 0: instead of a Poisson schedule, offer this many requests all at
  // once (a capacity burst; `rps` and `seconds` are unused, and latencies
  // are reply times after the burst).
  int64_t burst = 0;
  // >= 0: send `admin_line` on the admin connection at this offset.
  double admin_at_s = -1.0;
  std::string admin_line;
};

struct PhaseResult {
  std::string name;
  int64_t sent = 0;
  int64_t completed = 0;
  int64_t errors = 0;      // ERROR replies (refusals included)
  int64_t mismatches = 0;  // replies differing from the oracle
  int64_t unresolved = 0;  // no reply before the drain deadline
  int64_t v1 = 0;          // reload phase: replies per version of tenant 0
  int64_t v2 = 0;
  bool io_error = false;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  double offered_rps = 0.0;  // requests scheduled per second of the phase
  double drain_ms = 0.0;     // last reply after the last scheduled send
  std::string admin_reply;
  double admin_s = -1.0;     // admin send -> reply
  int64_t parallel_calls = 0;  // runtime/parallel_calls during the phase
  std::string first_bad;

  int64_t failures() const { return errors + mismatches + unresolved; }
  double lag_p99_ms() const { return Quantile(lag_ms, 0.99); }
  bool valid() const { return !io_error && lag_p99_ms() <= kMaxLagMs; }
};

// Folds one sub-phase into a running total of the same kind of phase.
void Append(PhaseResult* into, const PhaseResult& part) {
  into->name = part.name;
  into->sent += part.sent;
  into->completed += part.completed;
  into->errors += part.errors;
  into->mismatches += part.mismatches;
  into->unresolved += part.unresolved;
  into->io_error = into->io_error || part.io_error;
  into->latency_ms.insert(into->latency_ms.end(), part.latency_ms.begin(),
                          part.latency_ms.end());
  into->lag_ms.insert(into->lag_ms.end(), part.lag_ms.begin(),
                      part.lag_ms.end());
  if (into->first_bad.empty()) into->first_bad = part.first_bad;
}

// Pools the sub-phases the generator offered on schedule; when none was,
// pools them all (the result then reads invalid).
PhaseResult PoolValid(const std::vector<PhaseResult>& parts) {
  PhaseResult pooled;
  const bool any_valid = std::any_of(parts.begin(), parts.end(),
                                     [](const PhaseResult& p) { return p.valid(); });
  for (const PhaseResult& p : parts) {
    if (p.valid() || !any_valid) Append(&pooled, p);
  }
  return pooled;
}

class LoadGen {
 public:
  // clients[i] carries tenant i; `admin` (may be null) carries commands.
  LoadGen(std::vector<Tenant>* tenants, std::vector<Client*> clients,
          Client* admin)
      : tenants_(tenants), clients_(std::move(clients)), admin_(admin) {
    for (Client* c : clients_) all_.push_back(c);
    if (admin_ != nullptr) all_.push_back(admin_);
  }

  PhaseResult Run(const PhaseSpec& spec, SpanLog* spans) {
    PhaseResult r;
    r.name = spec.name;
    const std::vector<int64_t> sched =
        spec.burst > 0
            ? std::vector<int64_t>(static_cast<size_t>(spec.burst), 0)
            : PoissonScheduleNs(spec.rps, spec.seconds, spec.seed);
    // Tenant and window of each arrival, from the same seed.
    std::vector<Pending> plan(sched.size());
    {
      uint64_t state = Mix(spec.seed, 0x7e4a47ULL);
      for (size_t i = 0; i < sched.size(); ++i) {
        state = Mix(state, i);
        const double u = static_cast<double>(state >> 11) * 0x1.0p-53;
        int32_t t = 0;
        double acc = (*tenants_)[0].spec.share;
        while (u >= acc && t + 1 < static_cast<int32_t>(tenants_->size())) {
          acc += (*tenants_)[static_cast<size_t>(++t)].spec.share;
        }
        plan[i].tenant = t;
        plan[i].line = static_cast<int32_t>((state >> 7) % kLinesPerTenant);
        plan[i].index = static_cast<int64_t>(i);
      }
    }
    r.latency_ms.assign(sched.size(), -1.0);
    const int64_t t0 = NowNs() + 2'000'000;
    std::atomic<int64_t> outstanding{0};
    std::atomic<bool> sending_done{false};
    int64_t last_reply_ns = 0;
    std::mutex result_mu;  // guards r's reply-side fields

    std::thread receiver([&] {
      Receive(spec, t0, spans, &outstanding, &sending_done, &r, &result_mu,
              &last_reply_ns);
    });

    // Sender-side failures; merged into r after the receiver is joined (the
    // receiver writes r under result_mu).
    bool send_error = false;
    bool admin_sent = spec.admin_at_s < 0.0 || admin_ == nullptr;
    const int64_t admin_ns =
        t0 + static_cast<int64_t>(std::max(0.0, spec.admin_at_s) * 1e9);
    for (size_t i = 0; i < sched.size() && !send_error; ++i) {
      const int64_t due = t0 + sched[i];
      if (!admin_sent && admin_ns <= due) {
        WaitUntil(admin_ns, &send_error);
        Enqueue(admin_, {NowNs(), -1, 0, 0}, spec.admin_line, &outstanding,
                &send_error);
        admin_sent = true;
      }
      WaitUntil(due, &send_error);
      // A burst is late by design: only a schedule can be offered late.
      if (spec.burst == 0) {
        r.lag_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
      }
      Pending p = plan[i];
      p.sched_ns = due;
      const Tenant& tenant = (*tenants_)[static_cast<size_t>(p.tenant)];
      Enqueue(clients_[static_cast<size_t>(p.tenant)], p,
              tenant.lines[static_cast<size_t>(p.line)], &outstanding,
              &send_error);
      ++r.sent;
    }
    if (!admin_sent) {
      WaitUntil(admin_ns, &send_error);
      Enqueue(admin_, {NowNs(), -1, 0, 0}, spec.admin_line, &outstanding,
              &send_error);
    }
    // Flush the tail (a stalled server may still hold the socket buffers).
    const int64_t flush_deadline = NowNs() + 20'000'000'000LL;
    while (!send_error && AnyOutput() && NowNs() < flush_deadline) {
      PollWritable(5'000'000, &send_error);
    }
    sending_done.store(true);
    receiver.join();
    r.io_error = r.io_error || send_error;

    r.offered_rps =
        spec.burst > 0 ? 0.0 : static_cast<double>(r.sent) / spec.seconds;
    const int64_t last_due =
        r.sent > 0 ? t0 + sched[static_cast<size_t>(r.sent - 1)] : t0;
    r.drain_ms = static_cast<double>(std::max<int64_t>(0, last_reply_ns - last_due)) / 1e6;
    std::vector<double> done;
    for (double v : r.latency_ms) {
      if (v >= 0.0) done.push_back(v);
    }
    r.completed = static_cast<int64_t>(done.size());
    r.unresolved = r.sent - r.completed - r.errors - r.mismatches;
    r.latency_ms = std::move(done);
    // Leftover FIFO entries belong to requests that never got a reply.
    for (Client* c : all_) {
      std::lock_guard<std::mutex> lock(c->mu);
      c->pending.clear();
      c->in.clear();
    }
    return r;
  }

 private:
  void Enqueue(Client* c, const Pending& p, const std::string& line,
               std::atomic<int64_t>* outstanding, bool* send_error) {
    {
      std::lock_guard<std::mutex> lock(c->mu);
      c->pending.push_back(p);
    }
    outstanding->fetch_add(1);
    c->out += line;
    c->out += '\n';
    if (!Flush(c)) *send_error = true;
  }

  bool AnyOutput() const {
    for (Client* c : all_) {
      if (c->out_off < c->out.size()) return true;
    }
    return false;
  }

  // Waits up to `timeout_ns` for a client with queued output to become
  // writable, then flushes it.
  void PollWritable(int64_t timeout_ns, bool* send_error) {
    std::vector<pollfd> fds;
    std::vector<Client*> owners;
    for (Client* c : all_) {
      if (c->out_off < c->out.size()) {
        fds.push_back({c->fd, POLLOUT, 0});
        owners.push_back(c);
      }
    }
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                      static_cast<long>(timeout_ns % 1'000'000'000)};
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents != 0 && !Flush(owners[i])) *send_error = true;
    }
  }

  // Sleeps until the absolute steady-clock time `ns`, flushing queued
  // output meanwhile.
  void WaitUntil(int64_t ns, bool* send_error) {
    for (;;) {
      const int64_t now = NowNs();
      if (now >= ns) return;
      if (AnyOutput()) {
        PollWritable(ns - now, send_error);
      } else {
        const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                          static_cast<long>(ns % 1'000'000'000)};
        clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
      }
    }
  }

  void Receive(const PhaseSpec& spec, int64_t t0, SpanLog* spans,
               std::atomic<int64_t>* outstanding,
               std::atomic<bool>* sending_done, PhaseResult* r,
               std::mutex* result_mu, int64_t* last_reply_ns) {
    // Generous: a RELOAD stalls the event loop for the whole session build.
    const int64_t give_up =
        t0 + static_cast<int64_t>(spec.seconds * 1e9) + 20'000'000'000LL;
    std::vector<pollfd> fds;
    for (Client* c : all_) fds.push_back({c->fd, POLLIN, 0});
    char buf[1 << 16];
    while (NowNs() < give_up) {
      if (sending_done->load() && outstanding->load() == 0) break;
      if (poll(fds.data(), fds.size(), 2) <= 0) continue;
      for (size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        Client* c = all_[i];
        const ssize_t n = read(c->fd, buf, sizeof(buf));
        if (n <= 0) {
          if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
          std::lock_guard<std::mutex> lock(*result_mu);
          r->io_error = true;
          if (r->first_bad.empty()) r->first_bad = "connection closed";
          return;
        }
        c->in.append(buf, static_cast<size_t>(n));
        size_t start = 0;
        for (size_t nl; (nl = c->in.find('\n', start)) != std::string::npos;
             start = nl + 1) {
          const int64_t now = NowNs();
          Pending p;
          bool have = false;
          {
            std::lock_guard<std::mutex> lock(c->mu);
            if (!c->pending.empty()) {
              p = c->pending.front();
              c->pending.pop_front();
              have = true;
            }
          }
          const std::string reply = c->in.substr(start, nl - start);
          std::lock_guard<std::mutex> lock(*result_mu);
          if (!have) {
            ++r->mismatches;
            if (r->first_bad.empty()) r->first_bad = "unsolicited: " + reply;
            continue;
          }
          outstanding->fetch_sub(1);
          *last_reply_ns = std::max(*last_reply_ns, now);
          if (p.index < 0) {
            r->admin_reply = reply;
            r->admin_s = static_cast<double>(now - p.sched_ns) / 1e9;
            if (spans != nullptr) {
              spans->Add("serve.client.admin", p.sched_ns, now, -1, -1);
            }
            continue;
          }
          Classify(p, reply, now, spans, r);
        }
        c->in.erase(0, start);
      }
    }
  }

  void Classify(const Pending& p, const std::string& reply, int64_t now,
                SpanLog* spans, PhaseResult* r) {
    const Tenant& t = (*tenants_)[static_cast<size_t>(p.tenant)];
    const size_t line = static_cast<size_t>(p.line);
    bool ok = false;
    if (reply.rfind("ERROR", 0) == 0) {
      ++r->errors;
    } else if (reply == t.want[line]) {
      ok = true;
      if (p.tenant == 0) ++r->v1;
    } else if (t.accept_v2 && reply == t.want_v2[line]) {
      ok = true;
      ++r->v2;
    } else {
      ++r->mismatches;
    }
    if (!ok) {
      if (r->first_bad.empty()) {
        r->first_bad = t.spec.name + " line " + std::to_string(line) + " -> " +
                       reply.substr(0, 160);
      }
      return;
    }
    r->latency_ms[static_cast<size_t>(p.index)] =
        static_cast<double>(now - p.sched_ns) / 1e6;
    if (spans != nullptr) {
      spans->Add("serve.client.request", p.sched_ns, now, -1, p.index);
    }
  }

  std::vector<Tenant>* tenants_;
  std::vector<Client*> clients_;
  Client* admin_;
  std::vector<Client*> all_;
};

// ---- the workload -------------------------------------------------------------

// Clears the serve/* stage histograms so the next phase is read alone.
void ResetStageHistograms(msd::serve::ServeInstruments& stages) {
  stages.queue_us.Reset();
  stages.batch_assembly_us.Reset();
  stages.compute_us.Reset();
  stages.e2e_us.Reset();
  stages.batch_size.Reset();
}

class ServeWorkload {
 public:
  ServeWorkload(const Options& options, WorkloadSpec spec, SpanLog* spans,
                Report* report)
      : options_(options), spec_(std::move(spec)), spans_(spans),
        report_(report) {}

  void Run();

 private:
  std::string Path(const std::string& leaf) const {
    return options_.out_dir + "/" + options_.workload + "-" +
           std::to_string(getpid()) + "-" + leaf;
  }
  bool WriteCheckpoints(std::vector<Tensor>* test_splits);
  bool BuildOracles(const std::vector<Tensor>& test_splits);
  // Runs `phase`, re-running it (kPhaseAttempts in all) while the generator
  // ran late; counts every request as attempted and every failure as failed.
  PhaseResult Measure(LoadGen& gen, const PhaseSpec& phase, bool count);
  void TraceLayers(msd::serve::ModelRegistry& registry);
  void Cleanup();

  const Options& options_;
  WorkloadSpec spec_;
  SpanLog* spans_;
  Report* report_;
  std::vector<Tenant> tenants_;
  std::string manifest_text_;
  uint64_t phase_counter_ = 0;
  // Time left for re-running phases; none is re-run once it is spent.
  int64_t retry_budget_ns_ = 0;
};

bool ServeWorkload::WriteCheckpoints(std::vector<Tensor>* test_splits) {
  tenants_.clear();
  test_splits->clear();
  manifest_text_.clear();
  for (size_t i = 0; i < spec_.tenants.size(); ++i) {
    Tenant t;
    t.spec = spec_.tenants[i];
    t.checkpoint = Path(t.spec.name + "-v1.ckpt");
    std::string error;
    // The series (hence scaler and request windows) come from the run seed;
    // the weights do not: int8 calibration adopts or rejects GEMM steps by
    // weight statistics, and a seed-dependent plan would make the served
    // model itself differ between seeds.
    const uint64_t data_seed = Mix(options_.seed, 11 + i);
    test_splits->push_back(
        WriteCheckpoint(t.spec, data_seed, 101 + i, t.checkpoint, &error));
    if (spec_.reload && i == 0 && error.empty()) {
      t.checkpoint_v2 = Path(t.spec.name + "-v2.ckpt");
      WriteCheckpoint(t.spec, data_seed, 201 + i, t.checkpoint_v2, &error);
    }
    if (!error.empty()) {
      report_->Fail("checkpoint write failed: " + error);
      return false;
    }
    manifest_text_ += ManifestLine(t.spec, t.checkpoint, i == 0);
    tenants_.push_back(std::move(t));
  }
  return true;
}

bool ServeWorkload::BuildOracles(const std::vector<Tensor>& test_splits) {
  for (size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& t = tenants_[i];
    auto oracle = msd::serve::CreateForecastSession(
        t.checkpoint, SessionOptions(t.spec, /*max_batch=*/1));
    std::unique_ptr<msd::serve::InferenceSession> oracle_v2;
    if (!t.checkpoint_v2.empty()) {
      auto v2 = msd::serve::CreateForecastSession(t.checkpoint_v2,
                                                  SessionOptions(t.spec, 1));
      if (!v2.ok()) {
        report_->Fail("oracle v2: " + v2.status().ToString());
        return false;
      }
      oracle_v2 = std::move(v2).value();
    }
    if (!oracle.ok()) {
      report_->Fail("oracle: " + oracle.status().ToString());
      return false;
    }
    const Tensor& test = test_splits[i];
    const int64_t span = test.dim(1) - t.spec.lookback;
    auto answer = [](msd::serve::InferenceSession* s, const std::string& text) {
      auto window = msd::serve::ParseWindowLine(text, 0, 0);
      if (!window.ok()) return "ERROR " + window.status().ToString();
      auto out = s->Predict(window.value());
      return out.ok() ? msd::serve::FormatTensorLine(out.value())
                      : "ERROR " + out.status().ToString();
    };
    for (int64_t k = 0; k < kLinesPerTenant; ++k) {
      const int64_t offset = k * span / kLinesPerTenant;
      const std::string payload = msd::serve::FormatTensorLine(
          msd::Slice(test, 1, offset, t.spec.lookback));
      t.payloads.push_back(payload);
      t.lines.push_back(spec_.prefix_model ? "MODEL " + t.spec.name + " " + payload
                                           : payload);
      t.want.push_back(answer(oracle.value().get(), payload));
      if (oracle_v2 != nullptr) {
        t.want_v2.push_back(answer(oracle_v2.get(), payload));
        if (t.want_v2.back() == t.want.back()) {
          report_->Fail("v1 and v2 oracles agree; versions indistinguishable");
          return false;
        }
      }
      if (t.want.back().rfind("ERROR", 0) == 0) {
        report_->Fail("oracle rejected its own window: " + t.want.back());
        return false;
      }
    }
  }
  return true;
}

PhaseResult ServeWorkload::Measure(LoadGen& gen, const PhaseSpec& phase,
                                   bool count) {
  PhaseSpec p = phase;
  PhaseResult r;
  for (int attempt = 0; attempt < kPhaseAttempts; ++attempt) {
    p.seed = Mix(options_.seed, 1000 + phase_counter_++);
    // Server-side readings cover exactly the attempt that is kept.
    ResetStageHistograms(msd::serve::Instruments());
    const int64_t calls0 = CounterValue("runtime/parallel_calls");
    const int64_t started = NowNs();
    r = gen.Run(p, spans_);
    if (attempt > 0) retry_budget_ns_ -= NowNs() - started;
    r.parallel_calls = CounterValue("runtime/parallel_calls") - calls0;
    if (count) {
      report_->attempted += r.sent + (p.admin_at_s >= 0.0 ? 1 : 0);
      report_->failed += r.failures();
    }
    if (r.failures() > 0 && count) {
      report_->Fail(p.name + ": " + std::to_string(r.failures()) +
                    " failed requests; first: " + r.first_bad);
    }
    if (r.valid() || r.admin_s >= 0.0 || retry_budget_ns_ <= 0) break;
  }
  char note[240];
  std::snprintf(note, sizeof(note),
                "phase %-10s rps %8.1f sent %6lld p50 %8.3f ms p99 %9.3f ms "
                "lag_p99 %.3f ms drain %.1f ms%s",
                p.name.c_str(),
                p.burst > 0 ? DrainRatePerS({r.latency_ms}) : r.offered_rps,
                static_cast<long long>(r.sent), Quantile(r.latency_ms, 0.5),
                Quantile(r.latency_ms, 0.99), r.lag_p99_ms(), r.drain_ms,
                r.valid() ? "" : " INVALID");
  report_->notes.push_back(note);
  return r;
}

void ServeWorkload::Cleanup() {
  for (const Tenant& t : tenants_) {
    for (const std::string& p : {t.checkpoint, t.checkpoint_v2}) {
      if (p.empty()) continue;
      std::remove(p.c_str());
      std::remove((p + ".meta").c_str());
    }
  }
}

void ServeWorkload::Run() {
  std::signal(SIGPIPE, SIG_IGN);
  // Set-up, repeated: seeded checkpoints, then every session Create, plan
  // compile and int8 calibration (ModelRegistry::Load), then Listen.
  std::vector<double> setup_s;
  std::vector<Tensor> test_splits;
  auto registry = std::make_unique<msd::serve::ModelRegistry>(BatcherConfig());
  for (int rep = 0; rep < kSetupReps; ++rep) {
    registry.reset();  // the previous rep's sessions go away untimed
    const int64_t t1 = NowNs();
    if (!WriteCheckpoints(&test_splits)) return Cleanup();
    const auto manifest = msd::serve::ParseManifest(manifest_text_);
    if (!manifest.ok()) {
      report_->Fail("manifest: " + manifest.status().ToString());
      return Cleanup();
    }
    registry = std::make_unique<msd::serve::ModelRegistry>(BatcherConfig());
    const msd::Status loaded = registry->Load(manifest.value());
    if (!loaded.ok()) {
      report_->Fail("registry load: " + loaded.ToString());
      return Cleanup();
    }
    setup_s.push_back(static_cast<double>(NowNs() - t1) / 1e9);
  }
  if (!BuildOracles(test_splits)) return Cleanup();

  msd::serve::ModelService service(registry.get());
  msd::serve::SocketServerConfig server_config;
  server_config.path = Path("sock");
  server_config.max_conns = 8;
  // Torn down explicitly at the end: Shutdown and join the loop, then the
  // registry (draining batchers may still Post replies), then the server —
  // the order serve/netio.h requires.
  auto server = std::make_unique<msd::serve::SocketServer>(
      server_config,
      [&service](std::string line, std::function<void(std::string)> reply) {
        service.HandleLineAsync(line, std::move(reply));
      });
  const msd::Status listening = server->Listen();
  if (!listening.ok()) {
    report_->Fail("listen: " + listening.ToString());
    return Cleanup();
  }
  msd::runtime::WorkerGroup loop;
  loop.Start(1, [&server](int64_t) { server->Run(); });

  std::vector<std::unique_ptr<Client>> owned;
  std::vector<Client*> clients;
  for (size_t i = 0; i <= tenants_.size(); ++i) {
    owned.push_back(std::make_unique<Client>());
    owned.back()->fd = ConnectUnix(server_config.path);
    if (owned.back()->fd < 0) report_->Fail("connect failed");
    if (i < tenants_.size()) clients.push_back(owned.back().get());
  }
  if (report_->errors.empty()) {
    LoadGen gen(&tenants_, clients, owned.back().get());
    msd::serve::ServeInstruments& stages = msd::serve::Instruments();
    const int64_t start = NowNs();
    retry_budget_ns_ =
        static_cast<int64_t>(kRetryShare * options_.seconds * 1e9);

    // Capacity: bursts offered all at once keep every batcher at max_batch
    // until the backlog drains; the drain rate is the most the server
    // sustains. A warm-up burst goes first, checked but not measured.
    PhaseSpec burst;
    burst.name = "burst";
    burst.burst = std::max<int64_t>(
        kMaxBatch, std::llround(spec_.burst_rps * kBurstShare *
                                options_.seconds / (2 * kRounds)));
    if (spans_ == nullptr) {
      PhaseSpec warmup = burst;
      warmup.name = "warmup";
      warmup.burst = 4 * kMaxBatch;
      Measure(gen, warmup, true);
    }

    PhaseSpec lo;
    lo.name = "lo";
    lo.rps = spec_.lo_rps;
    lo.seconds = kLoShare * options_.seconds;
    PhaseSpec hi;
    hi.name = "hi";
    hi.rps = spec_.hi_rps;
    hi.seconds = kHiShare * options_.seconds;
    PhaseResult lo_untraced;
    if (spans_ != nullptr) {
      // The untraced twin of the traced lo phase: the tracing overhead.
      SpanLog* saved = spans_;
      spans_ = nullptr;
      lo_untraced = Measure(gen, lo, true);
      spans_ = saved;
    }
    const int64_t hits0 = CounterValue("tensor/pool_hits");
    const int64_t misses0 = CounterValue("tensor/pool_misses");
    PhaseResult lo_r;
    PhaseResult hi_r;
    double server_e2e_lo_us = 0.0;
    double capacity = 0.0;  // drain rate over every burst
    int64_t capacity_n = 0;
    if (spans_ == nullptr) {
      // Alternate bursts and short lo and hi phases so that a slow stretch
      // of the machine lands on all three instead of deciding one of them.
      PhaseSpec lo_part = lo;
      PhaseSpec hi_part = hi;
      lo_part.seconds /= kRounds;
      hi_part.seconds /= kRounds;
      std::vector<PhaseResult> lo_parts;
      std::vector<PhaseResult> hi_parts;
      std::vector<std::vector<double>> bursts;
      auto run_burst = [&] {
        PhaseResult b = Measure(gen, burst, true);
        capacity_n += b.completed;
        if (b.failures() == 0) bursts.push_back(std::move(b.latency_ms));
      };
      for (int round = 0; round < kRounds; ++round) {
        run_burst();
        lo_parts.push_back(Measure(gen, lo_part, true));
        run_burst();
        hi_parts.push_back(Measure(gen, hi_part, true));
      }
      capacity = DrainRatePerS(bursts);
      lo_r = PoolValid(lo_parts);
      hi_r = PoolValid(hi_parts);
    } else {
      lo_r = Measure(gen, lo, true);
      server_e2e_lo_us = stages.e2e_us.ValueAtQuantile(0.5);
      hi_r = Measure(gen, hi, true);
    }
    const double hits = static_cast<double>(CounterValue("tensor/pool_hits") - hits0);
    const double misses =
        static_cast<double>(CounterValue("tensor/pool_misses") - misses0);
    const double q50 = stages.queue_us.ValueAtQuantile(0.5);
    const double a50 = stages.batch_assembly_us.ValueAtQuantile(0.5);
    const double c50 = stages.compute_us.ValueAtQuantile(0.5);
    const double e50 = stages.e2e_us.ValueAtQuantile(0.5);
    const int64_t hi_n = stages.e2e_us.count();

    PhaseResult reload_r;
    if (spec_.reload) {
      tenants_[0].accept_v2 = true;
      PhaseSpec reload;
      reload.name = "reload";
      reload.rps = spec_.lo_rps;
      reload.seconds = kReloadShare * options_.seconds;
      reload.admin_at_s = 1.0;
      reload.admin_line =
          "RELOAD " + tenants_[0].spec.name + " " + tenants_[0].checkpoint_v2;
      reload_r = Measure(gen, reload, true);
      const std::string want = "OK " + tenants_[0].spec.name + " v2";
      if (reload_r.admin_reply != want) {
        ++report_->failed;
        report_->Fail("RELOAD replied '" + reload_r.admin_reply + "'");
      }
      if (reload_r.v1 == 0 || reload_r.v2 == 0) {
        ++report_->failed;
        report_->Fail("reload phase saw v1 " + std::to_string(reload_r.v1) +
                      " / v2 " + std::to_string(reload_r.v2) +
                      " replies; both versions expected");
      }
    }
    for (const PhaseResult* r :
         std::initializer_list<const PhaseResult*>{&lo_r, &hi_r, &reload_r}) {
      if (!r->name.empty() && !r->valid()) {
        report_->notes.push_back(
            "INVALID " + r->name + ": the generator ran late (lag p99 " +
            std::to_string(r->lag_p99_ms()) +
            " ms) in every attempt; its latencies include the machine's stall");
      }
    }
    char elapsed[96];
    std::snprintf(elapsed, sizeof(elapsed), "measured phases took %.1f s",
                  static_cast<double>(NowNs() - start) / 1e9);
    report_->notes.push_back(elapsed);

    const Summary lo_s = Summarize(lo_r.latency_ms);
    const Summary hi_s = Summarize(hi_r.latency_ms);
    std::vector<double> all_lag = lo_r.lag_ms;
    all_lag.insert(all_lag.end(), hi_r.lag_ms.begin(), hi_r.lag_ms.end());

    if (spans_ == nullptr) {
      report_->AddEndToEnd("setup_s", Quantile(setup_s, 0.5), "s",
                           static_cast<int64_t>(setup_s.size()));
      report_->AddEndToEnd("peak_rss_mb", PeakRssMb(), "MB", 1);
      report_->AddEndToEnd("throughput_per_s", capacity, "1/s", capacity_n);
      report_->AddEndToEnd("p50_ms", lo_s.p50, "ms", lo_s.n);
      report_->AddEndToEnd("tail_ms", Quantile(lo_r.latency_ms, 0.9), "ms",
                           lo_s.n);
      report_->AddEndToEnd("batch_p50_ms", hi_s.p50, "ms", hi_s.n);
      report_->AddEndToEnd("batch_tail_ms", Quantile(hi_r.latency_ms, 0.9),
                           "ms", hi_s.n);
      char line[200];
      // The p99s are the highest percentiles the samples support.
      std::snprintf(line, sizeof(line),
                    "named: capacity_rps %.2f lo_p50_ms %.3f lo_p90_ms %.3f "
                    "lo_p%g_ms %.3f hi_p50_ms %.3f hi_p90_ms %.3f "
                    "hi_p%g_ms %.3f",
                    capacity, lo_s.p50, Quantile(lo_r.latency_ms, 0.9),
                    100 * lo_s.tail_q, lo_s.tail, hi_s.p50,
                    Quantile(hi_r.latency_ms, 0.9), 100 * hi_s.tail_q,
                    hi_s.tail);
      report_->notes.push_back(line);
      if (spec_.reload) {
        std::snprintf(line, sizeof(line),
                      "named: reload_s %.4f (n=1) reload_p99_ms %.3f (n=%lld)",
                      reload_r.admin_s, Quantile(reload_r.latency_ms, 0.99),
                      static_cast<long long>(reload_r.latency_ms.size()));
        report_->notes.push_back(line);
      }
    } else {
      const double calls_per_req =
          lo_r.completed > 0
              ? static_cast<double>(lo_r.parallel_calls) / lo_r.completed
                             : 0.0;
      report_->AddLayer("serve.batcher.queue_p50_us", q50, "us", hi_n);
      report_->AddLayer("serve.batcher.queue_p99_us",
                        stages.queue_us.ValueAtQuantile(0.99), "us", hi_n);
      report_->AddLayer("serve.batcher.assembly_p50_us", a50, "us", hi_n);
      report_->AddLayer("serve.batcher.compute_p50_us", c50, "us", hi_n);
      report_->AddLayer("serve.batcher.compute_p99_us",
                        stages.compute_us.ValueAtQuantile(0.99), "us", hi_n);
      const int64_t batches = stages.batch_size.count();
      report_->AddLayer("serve.batcher.batch_size_mean",
                        batches > 0 ? stages.batch_size.sum() / batches : 0.0,
                        "count", batches);
      report_->AddLayer("serve.netio.overhead_p50_us",
                        lo_s.p50 * 1e3 - server_e2e_lo_us, "us", lo_s.n);
      report_->AddLayer("runtime.parallel_calls_per_request", calls_per_req,
                        "count", lo_r.completed);
      report_->AddLayer("tensor.pool_hit_ratio",
                        hits + misses > 0 ? hits / (hits + misses) : 0.0,
                        "ratio", static_cast<int64_t>(hits + misses));
      report_->AddLayer("gen.lag_p99_ms", Quantile(all_lag, 0.99), "ms",
                        static_cast<int64_t>(all_lag.size()));
      if (spec_.reload) {
        report_->AddLayer("serve.reload.inband_s", reload_r.admin_s, "s", 1);
        report_->AddLayer("serve.reload.phase_p99_ms",
                          Quantile(reload_r.latency_ms, 0.99), "ms",
                          static_cast<int64_t>(reload_r.latency_ms.size()));
      }
      char note[240];
      std::snprintf(note, sizeof(note),
                    "hi stage sum at p50: queue %.1f + assembly %.1f + "
                    "compute %.1f = %.1f us vs serve/e2e_us p50 %.1f us "
                    "(ratio %.3f)",
                    q50, a50, c50, q50 + a50 + c50, e50,
                    e50 > 0 ? (q50 + a50 + c50) / e50 : 0.0);
      report_->notes.push_back(note);
      std::snprintf(note, sizeof(note),
                    "tracing overhead: lo_p50_ms untraced %.3f traced %.3f; "
                    "lo_p99_ms untraced %.3f traced %.3f",
                    Quantile(lo_untraced.latency_ms, 0.5), lo_s.p50,
                    Quantile(lo_untraced.latency_ms, 0.99),
                    Quantile(lo_r.latency_ms, 0.99));
      report_->notes.push_back(note);
      TraceLayers(*registry);
    }
  }
  server->Shutdown();
  loop.Join();
  owned.clear();
  registry.reset();
  server.reset();
  Cleanup();
}

void ServeWorkload::TraceLayers(msd::serve::ModelRegistry& registry) {
  const Tenant& t = tenants_[0];
  // A standalone session of the primary tenant: Create, then the plan's
  // batch-1 and batch-max replays.
  msd::obs::MetricsRegistry& metrics = msd::obs::MetricsRegistry::Global();
  const int64_t qsteps0 = CounterValue("serve/quant_steps");
  const int64_t qfall0 = CounterValue("serve/quant_fallbacks");
  std::unique_ptr<msd::serve::InferenceSession> session;
  {
    ScopedSpan s(spans_, "serve.plan.create");
    auto created = msd::serve::CreateForecastSession(
        t.checkpoint, SessionOptions(t.spec, kMaxBatch));
    if (!created.ok()) {
      report_->Fail("create: " + created.status().ToString());
      return;
    }
    session = std::move(created).value();
  }
  report_->AddLayer("serve.plan.create_s",
                    spans_->MedianSelfUs("serve.plan.create") / 1e6, "s", 1);
  report_->AddLayer("serve.plan.arena_bytes",
                    metrics.GetGauge("serve/arena_bytes").value(), "B", 1);
  report_->AddLayer("serve.plan.quant_steps",
                    static_cast<double>(CounterValue("serve/quant_steps") -
                                        qsteps0),
                    "count", 1);
  report_->AddLayer("serve.plan.quant_fallbacks",
                    static_cast<double>(CounterValue("serve/quant_fallbacks") -
                                        qfall0),
                    "count", 1);

  msd::Rng rng(Mix(options_.seed, 9));
  const Tensor b1 =
      Tensor::RandNormal({1, t.spec.channels, t.spec.lookback}, 0, 1, rng);
  const Tensor bmax = Tensor::RandNormal(
      {kMaxBatch, t.spec.channels, t.spec.lookback}, 0, 1, rng);
  report_->AddLayer("serve.plan.predict_b1_us",
                    MedianSpanUs(spans_, "serve.plan.predict_b1", 200,
                           [&] { (void)session->PredictBatch(b1); }),
                    "us", 200);
  report_->AddLayer("serve.plan.predict_bmax_us",
                    MedianSpanUs(spans_, "serve.plan.predict_bmax", 20,
                           [&] { (void)session->PredictBatch(bmax); }),
                    "us", 20);

  const std::string& payload = t.payloads[0];
  const Tensor reply =
      msd::serve::ParseWindowLine(t.want[0], 0, 0).value();
  report_->AddLayer(
      "serve.protocol.parse_us",
      MedianSpanUs(spans_, "serve.protocol.parse", 200,
             [&] { (void)msd::serve::ParseWindowLine(payload, 0, 0); }),
      "us", 200);
  report_->AddLayer("serve.protocol.format_us",
                    MedianSpanUs(spans_, "serve.protocol.format", 200,
                           [&] { (void)msd::serve::FormatTensorLine(reply); }),
                    "us", 200);

  if (spec_.reload) {
    // The registry-level swap the in-band RELOAD runs, called directly.
    msd::Status reloaded;
    {
      ScopedSpan s(spans_, "serve.registry.reload");
      reloaded = registry.Reload(t.spec.name, t.checkpoint);
    }
    ++report_->attempted;
    if (!reloaded.ok()) {
      ++report_->failed;
      report_->Fail("Reload: " + reloaded.ToString());
    }
    report_->AddLayer("serve.registry.reload_s",
                      spans_->MedianSelfUs("serve.registry.reload") / 1e6, "s",
                      1);
  }
}

}  // namespace

void RunServeFp32(const Options& options, SpanLog* spans, Report* report) {
  WorkloadSpec spec;
  spec.tenants = {PaperScale("main", /*quantize=*/false, 1.0)};
  spec.prefix_model = false;
  spec.lo_rps = 200;
  spec.hi_rps = 360;
  spec.burst_rps = 800;
  spec.reload = false;
  ServeWorkload(options, std::move(spec), spans, report).Run();
}

void RunServeFleetInt8(const Options& options, SpanLog* spans, Report* report) {
  WorkloadSpec spec;
  spec.tenants = {PaperScale("alpha", /*quantize=*/true, 0.75),
                  {"beta", 3, 48, 12, {12, 6, 2, 1}, false, 0.25}};
  spec.prefix_model = true;
  spec.lo_rps = 200;
  spec.hi_rps = 600;
  spec.burst_rps = 1800;
  spec.reload = true;
  ServeWorkload(options, std::move(spec), spans, report).Run();
}

}  // namespace perfbench
