#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.h"
#include "runtime/parallel.h"
#include "tensor/gelu.h"
#include "tensor/kernels.h"
#include "tensor/pool.h"

namespace msd {
namespace gemm {

namespace {

// Register tile: 8 rows x 8 columns of C accumulate in registers (one
// 8-float vector per row on AVX2+; GCC vectorizes the fixed-bound j loops).
constexpr int64_t kMr = 8;
constexpr int64_t kNr = 8;
// Cache blocking: kMc rows of C per parallel tile (the unit ParallelFor
// distributes), kKc-deep A/B slices so a packed B panel (kKc * kNr floats =
// 8 KiB) and the A panel stay resident in L1/L2 across the tile.
constexpr int64_t kMc = 64;
constexpr int64_t kKc = 256;
// Weight-gradient row chunking (GemmWeightGrad): at least one full kKc
// slice of rows per chunk, so a chunk's partial costs one [k,n] fold
// against >= 256 rows of micro-kernel work.
constexpr int64_t kWeightGradRowGrain = kKc;

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Packs the [mc, kc] block of A starting at `a` (row stride `lda`) into
// kMr-row panels: panel ip holds columns kk = 0..kc-1 as 8 consecutive
// row values, zero-padded past mc so the micro-kernel never branches on row
// count (padded rows compute into accumulator lanes that are never stored).
void PackA(const float* a, int64_t lda, int64_t mc, int64_t kc, float* packed) {
  const int64_t panels = CeilDiv(mc, kMr);
  for (int64_t ip = 0; ip < panels; ++ip) {
    float* dst = packed + ip * kMr * kc;
    const int64_t rows = std::min(kMr, mc - ip * kMr);
    for (int64_t ii = 0; ii < rows; ++ii) {
      const float* src = a + (ip * kMr + ii) * lda;
      for (int64_t kk = 0; kk < kc; ++kk) dst[kk * kMr + ii] = src[kk];
    }
    for (int64_t ii = rows; ii < kMr; ++ii) {
      for (int64_t kk = 0; kk < kc; ++kk) dst[kk * kMr + ii] = 0.0f;
    }
  }
}

// Transposed PackA for the weight gradient: packs the [mc, kc] block of A^T
// whose element (i, rr) is a[rr * lda + i] — rr walks rows of a row-major
// [rows, k] input — into the same kMr-row panel layout PackA produces. Each
// panel step copies kMr contiguous floats of one input row.
void PackATransposed(const float* a, int64_t lda, int64_t mc, int64_t kc,
                     float* packed) {
  const int64_t panels = CeilDiv(mc, kMr);
  for (int64_t rr = 0; rr < kc; ++rr) {
    const float* src = a + rr * lda;
    for (int64_t ip = 0; ip < panels; ++ip) {
      float* dst = packed + ip * kMr * kc + rr * kMr;
      const int64_t cols = std::min(kMr, mc - ip * kMr);
      for (int64_t ii = 0; ii < cols; ++ii) dst[ii] = src[ip * kMr + ii];
      for (int64_t ii = cols; ii < kMr; ++ii) dst[ii] = 0.0f;
    }
  }
}

// Packs column panels [jp_begin, jp_end) of the [k, n] block of B at `b`
// (row stride `ldb`): panel jp holds columns [jp*kNr, jp*kNr + kNr) for
// every k, kk-major, zero-padded past n. Serial; PackB fans it out.
void PackBPanels(const float* b, int64_t ldb, int64_t k, int64_t n,
                 int64_t jp_begin, int64_t jp_end, float* packed) {
  for (int64_t jp = jp_begin; jp < jp_end; ++jp) {
    float* dst = packed + jp * k * kNr;
    const int64_t j0 = jp * kNr;
    const int64_t cols = std::min(kNr, n - j0);
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* src = b + kk * ldb + j0;
      for (int64_t jj = 0; jj < cols; ++jj) dst[kk * kNr + jj] = src[jj];
      for (int64_t jj = cols; jj < kNr; ++jj) dst[kk * kNr + jj] = 0.0f;
    }
  }
}

// One C row of the register tile (kNr floats) is one kernel::V8. Explicit
// GCC vector type: the scalar x vector broadcast-FMA form below compiles to
// one fused multiply-add per row per k step, where plain nested loops tempt
// the auto-vectorizer into cross-row permute shuffles that run ~2x slower.
using kernel::AsV8;
using kernel::V8;
static_assert(sizeof(V8) == kNr * sizeof(float), "one V8 per tile row");

// 8x8 micro-kernel: C_tile (+)= Ap @ Bp over a kc-deep slice. `first` means
// this is the k=0 slice, so the accumulator starts at zero and C (which may
// be uninitialized) is not read. Rows/cols beyond mr/nr are computed against
// packed zero padding and simply not stored.
void MicroKernel(const float* ap, const float* bp, int64_t kc, float* c,
                 int64_t ldc, bool first, int64_t mr, int64_t nr) {
  const bool full = mr == kMr && nr == kNr;
  V8 acc[kMr];
  if (first) {
    for (int64_t i = 0; i < kMr; ++i) acc[i] = V8{};
  } else if (full) {
    for (int64_t i = 0; i < kMr; ++i) acc[i] = *AsV8(c + i * ldc);
  } else {
    float edge[kMr][kNr] = {};
    for (int64_t i = 0; i < mr; ++i) {
      for (int64_t j = 0; j < nr; ++j) edge[i][j] = c[i * ldc + j];
    }
    for (int64_t i = 0; i < kMr; ++i) acc[i] = *AsV8(edge[i]);
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const V8 bv = *AsV8(bp + kk * kNr);
    const float* arow = ap + kk * kMr;
    for (int64_t i = 0; i < kMr; ++i) acc[i] += arow[i] * bv;
  }
  if (full) {
    for (int64_t i = 0; i < kMr; ++i) *AsV8(c + i * ldc) = acc[i];
  } else {
    float edge[kMr][kNr];
    for (int64_t i = 0; i < mr; ++i) *AsV8(edge[i]) = acc[i];
    for (int64_t i = 0; i < mr; ++i) {
      for (int64_t j = 0; j < nr; ++j) c[i * ldc + j] = edge[i][j];
    }
  }
}

// Per-thread pack buffers: the A panel every GEMM packs, and the G panel
// only GemmWeightGrad packs (Gemm's B is packed once, outside the region).
enum class PackSlot { kA = 0, kB = 1 };

// msd-hot-path-safe: thread-local grow-only pack scratch. The A slot is
// bounded by kMc * kKc floats (64 KiB) and the B slot by kKc rows of the
// padded gradient width, so each worker allocates at most once per slot
// and every later GEMM reuses the buffer — no pool lookups and no
// shared_ptr churn from inside the parallel region, which is what lets the
// planned serving path (serve/plan.h) run with zero steady-state pool
// traffic. The packers fully write every element the micro-kernel reads,
// so a dirty recycled buffer is fine (the pool made the same promise).
float* PackScratch(PackSlot slot, int64_t floats) {
  struct Scratch {
    float* data = nullptr;
    int64_t cap = 0;
    ~Scratch() {
      if (data != nullptr) {
        std::allocator<float>().deallocate(data, static_cast<size_t>(cap));
      }
    }
  };
  thread_local Scratch slots[2];
  Scratch& scratch = slots[static_cast<int>(slot)];
  if (floats > scratch.cap) {
    if (scratch.data != nullptr) {
      std::allocator<float>().deallocate(scratch.data,
                                         static_cast<size_t>(scratch.cap));
    }
    scratch.data = std::allocator<float>().allocate(static_cast<size_t>(floats));
    scratch.cap = floats;
  }
  return scratch.data;
}

}  // namespace

// Bias add + activation over `rows` finished C rows, applied while the tile
// is cache-hot. Formulas are byte-for-byte those of tensor_ops.cc's Relu /
// Gelu / Sigmoid / Tanh kernels; gelu is gelu::Forward itself, the
// vectorized rational-erf form (|error| <= 1e-6 against the exact erf
// GELU, gelu.h). `pre` (optional) receives the post-bias pre-activation
// values. Public (gemm.h) so the quantized kernel's dequant output runs
// through the very same expressions.
void EpilogueBiasAct(float* c, float* pre, int64_t rows, int64_t n,
                     const float* bias, Activation act) {
  for (int64_t r = 0; r < rows; ++r) {
    float* row = c + r * n;
    float* pre_row = pre == nullptr ? nullptr : pre + r * n;
    if (bias != nullptr) {
      for (int64_t j = 0; j < n; ++j) row[j] += bias[j];
    }
    if (pre_row != nullptr && act != Activation::kIdentity) {
      for (int64_t j = 0; j < n; ++j) pre_row[j] = row[j];
    }
    switch (act) {
      case Activation::kIdentity:
        break;
      case Activation::kRelu:
        for (int64_t j = 0; j < n; ++j) {
          row[j] = row[j] > 0.0f ? row[j] : 0.0f;
        }
        break;
      case Activation::kGelu:
        gelu::Forward(row, row, n);
        break;
      case Activation::kTanh:
        for (int64_t j = 0; j < n; ++j) row[j] = std::tanh(row[j]);
        break;
      case Activation::kSigmoid:
        for (int64_t j = 0; j < n; ++j) {
          row[j] = 1.0f / (1.0f + std::exp(-row[j]));
        }
        break;
    }
  }
}

int64_t PackedBPanelFloats(int64_t k, int64_t n) {
  return CeilDiv(n, kNr) * kNr * std::max<int64_t>(k, 1);
}

void PackB(const float* b, int64_t k, int64_t n, float* packed) {
  const int64_t n_panels = CeilDiv(n, kNr);
  // Each packed element is written by exactly one chunk.
  runtime::ParallelFor(0, n_panels, kernel::GrainForWork(k * kNr),
                       [&](int64_t pb, int64_t pe) {
                         PackBPanels(b, n, k, n, pb, pe, packed);
                       });
}

// msd-hot-path: innermost training/serving compute kernel.
void GemmPrepacked(const float* a, const float* packed_b, float* c, int64_t m,
                   int64_t k, int64_t n, const float* bias, Activation act,
                   float* pre) {
  if (m == 0 || n == 0) return;
  const int64_t row_tiles = CeilDiv(m, kMc);
  const int64_t n_panels = CeilDiv(n, kNr);
  // One whole row tile per loop iteration: the chunk partition (a pure
  // function of row_tiles and the grain) decides only which thread runs a
  // tile, never how the tile accumulates.
  runtime::ParallelFor(0, row_tiles, 1, [&](int64_t tb, int64_t te) {
    float* a_pack = PackScratch(PackSlot::kA, kMc * std::min(k, kKc));
    for (int64_t t = tb; t < te; ++t) {
      const int64_t i0 = t * kMc;
      const int64_t mc = std::min(kMc, m - i0);
      const int64_t m_panels = CeilDiv(mc, kMr);
      if (k == 0) {
        // Empty inner dimension: the product is all zeros by convention.
        std::fill(c + i0 * n, c + (i0 + mc) * n, 0.0f);
      }
      for (int64_t kc0 = 0; kc0 < k; kc0 += kKc) {
        const int64_t kc = std::min(kKc, k - kc0);
        PackA(a + i0 * k + kc0, k, mc, kc, a_pack);
        const bool first = kc0 == 0;
        for (int64_t jp = 0; jp < n_panels; ++jp) {
          const float* bp = packed_b + jp * k * kNr + kc0 * kNr;
          const int64_t j0 = jp * kNr;
          const int64_t nr = std::min(kNr, n - j0);
          for (int64_t ip = 0; ip < m_panels; ++ip) {
            const int64_t mr = std::min(kMr, mc - ip * kMr);
            MicroKernel(a_pack + ip * kMr * kc, bp, kc,
                        c + (i0 + ip * kMr) * n + j0, n, first, mr, nr);
          }
        }
      }
      if (bias != nullptr || act != Activation::kIdentity) {
        EpilogueBiasAct(c + i0 * n, pre == nullptr ? nullptr : pre + i0 * n,
                        mc, n, bias, act);
      }
    }
  });
}

void GemmWeightGrad(const float* a, const float* g, float* c, int64_t rows,
                    int64_t k, int64_t n) {
  if (k == 0 || n == 0) return;
  if (rows == 0) {
    std::fill(c, c + k * n, 0.0f);
    return;
  }
  const int64_t chunks = runtime::NumChunks(rows, kWeightGradRowGrain);
  const int64_t k_blocks = CeilDiv(k, kMc);
  const int64_t n_panels = CeilDiv(n, kNr);
  // Partials of chunks 1.. (chunk 0 accumulates straight into c), taken
  // before the parallel region.
  std::shared_ptr<float[]> spill;
  if (chunks > 1) spill = pool::AllocateShared((chunks - 1) * k * n);
  const auto partial = [&](int64_t chunk) {
    return chunk == 0 ? c : spill.get() + (chunk - 1) * k * n;
  };
  // One work item = one row chunk x one kMc-row block of C. Items write
  // disjoint partial rows, so large-k products with few rows (the head)
  // still spread across the pool.
  runtime::ParallelFor(0, chunks * k_blocks, 1, [&](int64_t tb, int64_t te) {
    float* a_pack = PackScratch(PackSlot::kA, kMc * kKc);
    float* g_pack = PackScratch(PackSlot::kB, n_panels * kNr * kKc);
    for (int64_t t = tb; t < te; ++t) {
      const int64_t chunk = t / k_blocks;
      const auto [rb, re] = runtime::ChunkBounds(0, rows, chunks, chunk);
      const int64_t i0 = (t % k_blocks) * kMc;
      const int64_t mc = std::min(kMc, k - i0);
      const int64_t m_panels = CeilDiv(mc, kMr);
      float* out = partial(chunk) + i0 * n;
      for (int64_t r0 = rb; r0 < re; r0 += kKc) {
        const int64_t kc = std::min(kKc, re - r0);
        PackATransposed(a + r0 * k + i0, k, mc, kc, a_pack);
        PackBPanels(g + r0 * n, n, kc, n, 0, n_panels, g_pack);
        const bool first = r0 == rb;
        for (int64_t jp = 0; jp < n_panels; ++jp) {
          const int64_t j0 = jp * kNr;
          const int64_t nr = std::min(kNr, n - j0);
          for (int64_t ip = 0; ip < m_panels; ++ip) {
            const int64_t mr = std::min(kMr, mc - ip * kMr);
            MicroKernel(a_pack + ip * kMr * kc, g_pack + jp * kc * kNr, kc,
                        out + ip * kMr * n + j0, n, first, mr, nr);
          }
        }
      }
    }
  });
  // ParallelReduce's fixed-order tree over chunk indices.
  const int64_t size = k * n;
  for (int64_t stride = 1; stride < chunks; stride *= 2) {
    for (int64_t i = 0; i + stride < chunks; i += 2 * stride) {
      float* dst = partial(i);
      const float* src = partial(i + stride);
      for (int64_t e = 0; e < size; ++e) dst[e] += src[e];
    }
  }
}

// msd-hot-path: innermost training/serving compute kernel.
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, const float* bias, Activation act, float* pre) {
  if (m == 0 || n == 0) return;
  std::shared_ptr<float[]> packed = pool::AllocateShared(PackedBPanelFloats(k, n));
  PackB(b, k, n, packed.get());
  GemmPrepacked(a, packed.get(), c, m, k, n, bias, act, pre);
}

}  // namespace gemm
}  // namespace msd
