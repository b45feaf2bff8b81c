// Sampled lock-free trace ring for request-level serving telemetry
// (docs/OBSERVABILITY.md).
//
// The serving hot path (serve::MicroBatcher / InferenceSession) records one
// TraceSpan per phase (queue / batch_assembly / compute) of every sampled
// request. Recording must not add locks to the request path, so the ring is
// a fixed-capacity array of atomic slots:
//
//  * Push() claims a ticket with one relaxed fetch_add and writes the span's
//    fields as relaxed atomic stores, publishing with a release store of the
//    slot's sequence number. Capacity overflow silently overwrites the
//    oldest slot (drop-oldest), so the ring always holds the most recent
//    window of sampled traffic.
//  * Snapshot() (admin/debug path) acquires nothing: it reads each slot's
//    sequence before and after copying the payload and discards slots a
//    concurrent writer was mid-publish on, so a dump taken under load is a
//    consistent sample, never a torn record.
//  * Sampled(id) implements 1-in-N request sampling: `id % sample_every == 0`
//    with sample_every == 0 disabling tracing entirely. The decision is made
//    once at request admission and carried in the request's TraceContext.
//
// ChromeTraceJson() renders the snapshot as a chrome://tracing "traceEvents"
// array: one "X" (complete) event per span, with the request id as the tid
// so every sampled request gets its own row of queue/batch/compute spans.
// The ring itself never touches a file — callers (the TelemetryExporter
// worker, tools) own all I/O.
#ifndef MSDMIXER_OBS_RING_H_
#define MSDMIXER_OBS_RING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace msd {
namespace obs {

// One recorded phase of one request. `name` must be a string literal (it is
// stored as a pointer and never freed).
struct TraceSpan {
  int64_t request_id = 0;
  const char* name = "";
  int64_t start_us = 0;  // MonotonicNowNs()-based microseconds
  int64_t dur_us = 0;
};

class TraceRing {
 public:
  // The process-wide ring the serving stack records into.
  static TraceRing& Global();

  // `capacity` slots, rounded up to at least 1. Existing contents are
  // dropped when the capacity changes.
  explicit TraceRing(int64_t capacity = 4096);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  // Hot path: one relaxed ticket fetch_add, a CAS claiming the slot, field
  // stores + release publish. Never blocks, never allocates; overwrites the
  // oldest slot when full. A span whose slot another writer holds, or that
  // already holds a newer span, is dropped (still counted by pushed()).
  void Push(const TraceSpan& span);

  // 1-in-N sampling decision for a request id; 0 disables sampling.
  bool Sampled(int64_t request_id) const {
    const int64_t n = sample_every_.load(std::memory_order_relaxed);
    return n > 0 && request_id % n == 0;
  }
  void SetSampleEvery(int64_t n) {
    sample_every_.store(n < 0 ? 0 : n, std::memory_order_relaxed);
  }
  int64_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  // Drops all recorded spans (capacity and sampling rate are kept). Not
  // linearizable against concurrent Push; meant for test isolation and
  // admin resets, like MetricsRegistry::ResetAll.
  void Clear();

  // Re-sizes the ring (drops contents). Not safe concurrently with Push.
  void SetCapacity(int64_t capacity);

  int64_t capacity() const { return capacity_; }
  // Total spans ever pushed (including overwritten ones).
  int64_t pushed() const { return next_.load(std::memory_order_relaxed); }

  // Consistent copy of the current contents, oldest first. Slots being
  // concurrently rewritten are skipped.
  std::vector<TraceSpan> Snapshot() const;

  // chrome://tracing / Perfetto "traceEvents" JSON of Snapshot().
  std::string ChromeTraceJson() const;

 private:
  // All-atomic payload so a reader racing a (wrapped-around) writer is a
  // benign relaxed-load race, filtered out by the seq re-check — TSan-clean
  // without a lock. seq holds ticket+1 of the last completed write; 0 means
  // the slot was never written.
  struct Slot {
    std::atomic<int64_t> seq{0};
    std::atomic<int64_t> request_id{0};
    std::atomic<const char*> name{""};
    std::atomic<int64_t> start_us{0};
    std::atomic<int64_t> dur_us{0};
  };

  int64_t capacity_ = 0;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<int64_t> next_{0};
  std::atomic<int64_t> sample_every_{16};
};

}  // namespace obs
}  // namespace msd

#endif  // MSDMIXER_OBS_RING_H_
