// Size-class tensor memory pool (docs/PERFORMANCE.md).
//
// Every Tensor buffer is drawn from a process-wide free-list allocator:
// requests round up to a power-of-two size class and reuse a previously
// freed block of that class when one is cached, so steady-state training
// epochs stop hitting the system allocator entirely. Blocks return to the
// cache through the shared_ptr deleter, which makes recycling transparent
// to everything above Tensor.
//
// Semantics:
//  * Recycled blocks are NOT zeroed. Tensor's zero-initializing constructor
//    fills explicitly; Tensor::Uninitialized keeps its overwrite contract.
//  * The cache is trimmed (released to the OS, with glibc's malloc_trim so
//    freed heap pages really go back) when the outermost MemoryScope exits,
//    and capped at MSD_POOL_CAP_MB (default 512) — returning a block that
//    would exceed the cap frees it instead. Repeated scopes in one process
//    therefore peak at the same RSS.
//  * MSD_DISABLE_POOL=1 (or SetEnabled(false)) bypasses caching: every
//    allocation is fresh and every free is immediate. Numerics are
//    identical either way — the pool only changes where bytes live.
//  * Thread-safe: one mutex guards the free lists. Allocation is not on
//    the per-element hot path (kernels allocate once per output tensor),
//    so a single lock is cheaper than per-thread caches and keeps the
//    accounting exact.
//
// Telemetry (src/obs): counters tensor/pool_hits and tensor/pool_misses,
// gauge tensor/pool_bytes_cached.
#ifndef MSDMIXER_TENSOR_POOL_H_
#define MSDMIXER_TENSOR_POOL_H_

#include <cstdint>
#include <memory>

namespace msd {
namespace pool {

// Uninitialized float buffer holding at least `numel` elements (numel >= 0;
// zero-element requests still return a unique live block so Tensor identity
// semantics hold). The deleter recycles the block into the pool.
std::shared_ptr<float[]> AllocateShared(int64_t numel);

// Whether freed blocks are cached for reuse. The initial value honors the
// MSD_DISABLE_POOL environment variable; tests flip it via SetEnabled.
// Disabling does not drop already-cached blocks — call Trim() for that.
bool Enabled();
void SetEnabled(bool enabled);

// Releases every cached block back to the OS.
void Trim();

// Point-in-time pool accounting (process-wide, monotonic counters).
struct PoolStats {
  int64_t hits = 0;          // allocations served from the cache
  int64_t misses = 0;        // allocations that went to the OS
  int64_t bytes_cached = 0;  // bytes currently held in free lists
  int64_t blocks_cached = 0;
};
PoolStats GetStats();

// Bounds the cache lifetime: while at least one MemoryScope is alive the
// cache persists across iterations (the steady-state reuse the trainer
// wants); when the outermost scope exits the cache is trimmed so batch
// programs do not hold peak-epoch memory after training. Scopes nest.
class MemoryScope {
 public:
  MemoryScope();
  ~MemoryScope();
  MemoryScope(const MemoryScope&) = delete;
  MemoryScope& operator=(const MemoryScope&) = delete;
};

}  // namespace pool
}  // namespace msd

#endif  // MSDMIXER_TENSOR_POOL_H_
