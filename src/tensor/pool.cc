#include "tensor/pool.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"

namespace msd {
namespace pool {

namespace {

// Smallest block is 32 floats (128 B); classes double from there. 27 classes
// tops out at 32 << 26 = 2^31 floats (8 GiB) — anything larger bypasses the
// cache entirely and is freed straight back to the OS.
constexpr int64_t kMinBlockFloats = 32;
constexpr int kNumClasses = 27;
constexpr int kOversize = -1;

int ClassFor(int64_t numel) {
  int64_t capacity = kMinBlockFloats;
  for (int c = 0; c < kNumClasses; ++c) {
    if (numel <= capacity) return c;
    capacity <<= 1;
  }
  return kOversize;
}

int64_t ClassCapacity(int cls) { return kMinBlockFloats << cls; }

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<int64_t>(std::strtoll(value, nullptr, 10));
}

bool PoolEnabledFromEnv() {
  const char* value = std::getenv("MSD_DISABLE_POOL");
  const bool disabled =
      value != nullptr && *value != '\0' && std::string(value) != "0";
  return !disabled;
}

class Pool {
 public:
  static Pool& Instance();

  std::shared_ptr<float[]> Allocate(int64_t numel);
  void Release(float* block, int64_t capacity, int cls);

  bool enabled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return enabled_;
  }
  void set_enabled(bool enabled) {
    std::lock_guard<std::mutex> lock(mu_);
    enabled_ = enabled;
  }

  void Trim();
  PoolStats GetStats() const;

  void EnterScope();
  void ExitScope();

  Pool()  // public for construct_at in Instance(); use Instance(), not this
      : enabled_(PoolEnabledFromEnv()),
        cap_bytes_(EnvInt64("MSD_POOL_CAP_MB", 512) * (1 << 20)) {}

 private:
  float* RawAllocate(int64_t capacity) {
    return std::allocator<float>().allocate(static_cast<size_t>(capacity));
  }
  void RawFree(float* block, int64_t capacity) {
    std::allocator<float>().deallocate(block, static_cast<size_t>(capacity));
  }

  void UpdateCachedGauge(int64_t bytes_cached) {
    static obs::Gauge& gauge =
        obs::MetricsRegistry::Global().GetGauge("tensor/pool_bytes_cached");
    gauge.Set(static_cast<double>(bytes_cached));
  }

  mutable std::mutex mu_;
  bool enabled_;
  int64_t cap_bytes_;
  int64_t bytes_cached_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t scope_depth_ = 0;
  std::vector<float*> free_lists_[kNumClasses];
};

// The block deleter embedded in every Tensor storage shared_ptr. Recycles
// cache-eligible blocks; oversize blocks free directly.
struct BlockDeleter {
  int64_t capacity = 0;
  int cls = kOversize;
  void operator()(float* block) const {
    Pool::Instance().Release(block, capacity, cls);
  }
};

Pool& Pool::Instance() {
  // Intentionally leaked (allocator + construct_at rather than a
  // function-local static object): block deleters can run during static
  // destruction — e.g. a static Tensor destroyed after main — and must find
  // the pool alive. Mirrors the leaked obs::MetricsRegistry::Global().
  // Cached blocks stay reachable through this pointer, so LeakSanitizer
  // does not report them.
  static Pool* instance = [] {
    Pool* p = std::allocator<Pool>().allocate(1);
    return std::construct_at(p);
  }();
  return *instance;
}

std::shared_ptr<float[]> Pool::Allocate(int64_t numel) {
  MSD_CHECK_GE(numel, 0);
  static obs::Counter& pool_hits =
      obs::MetricsRegistry::Global().GetCounter("tensor/pool_hits");
  static obs::Counter& pool_misses =
      obs::MetricsRegistry::Global().GetCounter("tensor/pool_misses");

  const int cls = ClassFor(numel);
  const int64_t capacity = cls == kOversize ? numel : ClassCapacity(cls);
  float* block = nullptr;
  if (cls != kOversize) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<float*>& list = free_lists_[cls];
    if (!list.empty()) {
      block = list.back();
      list.pop_back();
      bytes_cached_ -= capacity * static_cast<int64_t>(sizeof(float));
      ++hits_;
      UpdateCachedGauge(bytes_cached_);
    } else {
      ++misses_;
    }
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
  }
  if (block != nullptr) {
    pool_hits.Add(1);
  } else {
    pool_misses.Add(1);
    block = RawAllocate(capacity);
  }
  return std::shared_ptr<float[]>(block, BlockDeleter{capacity, cls});
}

void Pool::Release(float* block, int64_t capacity, int cls) {
  if (cls != kOversize) {
    const int64_t bytes = capacity * static_cast<int64_t>(sizeof(float));
    std::lock_guard<std::mutex> lock(mu_);
    if (enabled_ && bytes_cached_ + bytes <= cap_bytes_) {
      free_lists_[cls].push_back(block);
      bytes_cached_ += bytes;
      UpdateCachedGauge(bytes_cached_);
      return;
    }
  }
  RawFree(block, capacity);
}

void Pool::Trim() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int cls = 0; cls < kNumClasses; ++cls) {
      for (float* block : free_lists_[cls]) RawFree(block, ClassCapacity(cls));
      free_lists_[cls].clear();
    }
    bytes_cached_ = 0;
    UpdateCachedGauge(0);
  }
#if defined(__GLIBC__)
  // free() alone does not return these blocks to the OS after the first
  // trim: freeing an mmap-served block raises glibc's dynamic mmap
  // threshold, so the next scope's large blocks come from the heap and
  // stay resident once freed. Each later scope then starts on top of the
  // previous one's fragments and peak RSS climbs with the number of scopes
  // (~+22 MB on the third paper-scale tasks::Train of one process).
  // malloc_trim hands every free heap page back, so each scope starts from
  // the same resident set.
  malloc_trim(0);
#endif
}

PoolStats Pool::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PoolStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.bytes_cached = bytes_cached_;
  for (int cls = 0; cls < kNumClasses; ++cls) {
    stats.blocks_cached += static_cast<int64_t>(free_lists_[cls].size());
  }
  return stats;
}

void Pool::EnterScope() {
  std::lock_guard<std::mutex> lock(mu_);
  ++scope_depth_;
}

void Pool::ExitScope() {
  bool outermost = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    MSD_CHECK_GT(scope_depth_, 0);
    outermost = --scope_depth_ == 0;
  }
  if (outermost) Trim();
}

}  // namespace

// msd-hot-path-safe: THE sanctioned hot-path allocator — steady state is a
// size-class freelist pop under a short lock, not a system allocation.
std::shared_ptr<float[]> AllocateShared(int64_t numel) {
  return Pool::Instance().Allocate(numel);
}

bool Enabled() { return Pool::Instance().enabled(); }

void SetEnabled(bool enabled) { Pool::Instance().set_enabled(enabled); }

void Trim() { Pool::Instance().Trim(); }

PoolStats GetStats() { return Pool::Instance().GetStats(); }

MemoryScope::MemoryScope() { Pool::Instance().EnterScope(); }

MemoryScope::~MemoryScope() { Pool::Instance().ExitScope(); }

}  // namespace pool
}  // namespace msd
