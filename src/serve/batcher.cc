#include "serve/batcher.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace serve {

MicroBatcher::MicroBatcher(InferenceSession* session,
                           const MicroBatcherConfig& config)
    : session_(session), config_(config) {
  MSD_CHECK(session != nullptr);
  MSD_CHECK_GE(config_.max_batch, 1);
  MSD_CHECK_GE(config_.queue_capacity, 1);
  MSD_CHECK_GE(config_.num_workers, 1);
  MSD_CHECK_GE(config_.max_delay_us, 0);
  // A batch can never exceed what one PredictBatch call accepts.
  config_.max_batch = std::min(config_.max_batch, session->max_batch());
}

MicroBatcher::~MicroBatcher() { Stop(); }

void MicroBatcher::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MSD_CHECK(!stopped_) << "MicroBatcher cannot restart after Stop()";
    if (started_) return;
    started_ = true;
  }
  workers_.Start(config_.num_workers, [this](int64_t) { WorkerLoop(); });
}

void MicroBatcher::Stop() {
  std::deque<Request> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    drained.swap(queue_);
    Instruments().queue_depth.Set(0.0);
  }
  cv_.notify_all();
  workers_.Join();
  for (Request& request : drained) {
    request.done(
        Status::Cancelled("micro-batcher stopped before the request ran"));
    DecInflight();
  }
}

ResultCallback FutureCallback(ResultFuture* future) {
  // Shared: std::function needs a copyable target, std::promise is move-only.
  auto promise = std::make_shared<std::promise<StatusOr<Tensor>>>();
  *future = promise->get_future();
  return [promise](StatusOr<Tensor> result) {
    promise->set_value(std::move(result));
  };
}

Status MicroBatcher::Submit(Tensor window, ResultFuture* result,
                            int64_t timeout_us) {
  MSD_CHECK(result != nullptr);
  ResultFuture future;
  Status admitted =
      SubmitAsync(std::move(window), FutureCallback(&future), timeout_us);
  if (admitted.ok()) *result = std::move(future);
  return admitted;
}

Status MicroBatcher::SubmitAsync(Tensor window, ResultCallback done,
                                 int64_t timeout_us) {
  MSD_CHECK(done != nullptr);
  if (!window.defined() || window.rank() != 2 ||
      window.dim(0) != session_->model_config().channels ||
      window.dim(1) != session_->model_config().input_length) {
    return Status::InvalidArgument(
        "window must be [" +
        std::to_string(session_->model_config().channels) + ", " +
        std::to_string(session_->model_config().input_length) + "]");
  }
  if (timeout_us < 0) timeout_us = config_.default_timeout_us;

  Request request;
  request.input = std::move(window);
  request.done = std::move(done);
  // Minting assigns the monotonic request id, the 1-in-N sampling bit and
  // the enqueue timestamp every downstream phase is measured against.
  request.trace = MintTraceContext();
  request.deadline = timeout_us > 0
                         ? request.trace.enqueue +
                               std::chrono::microseconds(timeout_us)
                         : Clock::time_point::max();

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      return Status::Cancelled("micro-batcher is stopped");
    }
    if (static_cast<int64_t>(queue_.size()) >= config_.queue_capacity) {
      Instruments().rejected.Add(1);
      return Status::ResourceExhausted(
          "request queue full (" + std::to_string(config_.queue_capacity) +
          " pending); retry with backoff");
    }
    queue_.push_back(std::move(request));
    const double depth = static_cast<double>(queue_.size());
    Instruments().queue_depth.Set(depth);
    Instruments().queue_depth_peak.SetMax(depth);
    Instruments().requests.Add(1);
    Instruments().inflight.Set(static_cast<double>(
        inflight_.fetch_add(1, std::memory_order_relaxed) + 1));
  }
  cv_.notify_one();
  return Status::OK();
}

void MicroBatcher::DecInflight() {
  Instruments().inflight.Set(static_cast<double>(
      inflight_.fetch_sub(1, std::memory_order_relaxed) - 1));
}

int64_t MicroBatcher::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

// msd-hot-path: per-batch worker cycle; every request's latency includes it.
void MicroBatcher::WorkerLoop() {
  const auto max_delay = std::chrono::microseconds(config_.max_delay_us);
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
      if (stopped_) return;
      // Coalesce: wait for more requests until the batch is full or the
      // oldest pending request has aged out. The deadline is re-derived from
      // the current front each pass — another worker may have taken the
      // requests we were originally batching behind.
      while (!stopped_ && !queue_.empty() &&
             static_cast<int64_t>(queue_.size()) < config_.max_batch) {
        const auto batch_deadline = queue_.front().trace.enqueue + max_delay;
        if (Clock::now() >= batch_deadline) break;
        cv_.wait_until(lock, batch_deadline);
      }
      if (stopped_) return;
      if (queue_.empty()) continue;
      const int64_t take =
          std::min<int64_t>(static_cast<int64_t>(queue_.size()),
                            config_.max_batch);
      batch.reserve(static_cast<size_t>(take));
      for (int64_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      Instruments().queue_depth.Set(static_cast<double>(queue_.size()));
    }
    ProcessBatch(std::move(batch));
  }
}

void MicroBatcher::ProcessBatch(std::vector<Request> batch) {
  // The queue-wait phase ends here for every member: the batch is off the
  // queue and owned by this worker.
  const auto dequeue = Clock::now();
  // Expired requests resolve immediately and never occupy batch rows.
  std::vector<Request> live;
  live.reserve(batch.size());
  for (Request& request : batch) {
    request.trace.dequeue = dequeue;
    if (dequeue >= request.deadline) {
      Instruments().timeouts.Add(1);
      // serve/deadline_miss counts exactly the kDeadlineExceeded outcomes.
      Instruments().deadline_miss.Add(1);
      request.done(
          Status::DeadlineExceeded("request timed out in the batch queue"));
      DecInflight();
    } else {
      live.push_back(std::move(request));
    }
  }
  if (live.empty()) return;

  std::vector<Tensor> inputs;
  inputs.reserve(live.size());
  for (const Request& request : live) inputs.push_back(request.input);
  // The session fills compute_start/compute_end into `compute_trace` and
  // skips its own direct-call observation: the batcher attributes the shared
  // compute interval to every member of the batch below.
  TraceContext compute_trace;
  StatusOr<Tensor> outputs =
      session_->PredictBatch(Stack(inputs), &compute_trace);

  Instruments().batches.Add(1);
  Instruments().batch_size.Observe(static_cast<double>(live.size()));

  if (!outputs.ok()) {
    for (Request& request : live) {
      request.done(outputs.status());
      DecInflight();
    }
    return;
  }
  const Tensor& stacked = outputs.value();
  const auto done = Clock::now();
  for (size_t i = 0; i < live.size(); ++i) {
    TraceContext& trace = live[i].trace;
    trace.compute_start = compute_trace.compute_start;
    trace.compute_end = compute_trace.compute_end;
    // Row i of the stacked output, with the batch axis dropped.
    Tensor row = Slice(stacked, 0, static_cast<int64_t>(i), 1);
    Shape squeezed(row.shape().begin() + 1, row.shape().end());
    Instruments().queue_us.Observe(
        static_cast<double>(ToMicros(trace.dequeue - trace.enqueue)));
    Instruments().batch_assembly_us.Observe(
        static_cast<double>(ToMicros(trace.compute_start - trace.dequeue)));
    Instruments().compute_us.Observe(static_cast<double>(
        ToMicros(trace.compute_end - trace.compute_start)));
    Instruments().e2e_us.Observe(
        static_cast<double>(ToMicros(done - trace.enqueue)));
    if (trace.sampled) PushRequestSpans(trace);
    // Telemetry must land before the request resolves: a client that reads
    // STATS/TRACE immediately after its reply must see its own request's
    // histograms and spans, not race this thread for them.
    live[i].done(row.Reshape(std::move(squeezed)));
    DecInflight();
  }
}

}  // namespace serve
}  // namespace msd
