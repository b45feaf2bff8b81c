// Unified kernel dispatch layer: generic elementwise / reduction templates
// that route every tensor kernel through the parallel runtime
// (runtime/parallel.h, docs/RUNTIME.md).
//
// MapKernel   — out[i] = f(a[i])
// ZipKernel   — broadcasted out[i] = f(a[...], b[...])
// ReduceKernel— whole-tensor reduction with fixed-order tree combine
//
// All three inherit the runtime's determinism contract: chunk boundaries
// derive from element counts and the grain constants below, never the
// thread count, so results are bit-identical for any MSD_THREADS value.
// Internal header: tensor kernels (tensor_ops.cc, conv.cc, fft.cc) only.
#ifndef MSDMIXER_TENSOR_KERNELS_H_
#define MSDMIXER_TENSOR_KERNELS_H_

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/debug.h"
#include "runtime/parallel.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace msd {
namespace kernel {

#if MSD_DEBUG_CHECKS_ENABLED

// Shape/metadata consistency at kernel entry. Storage is always contiguous
// row-major in this library, so strides are derived from the shape; the
// invariant that can break (via memory corruption or a future view feature
// gone wrong) is the cached element count diverging from the shape product.
inline void DebugValidateTensor(const Tensor& t, const char* op) {
  MSD_CHECK(t.defined()) << "debug check: undefined tensor passed to " << op;
  MSD_CHECK_EQ(t.numel(), NumElementsOf(t.shape()))
      << "debug check: tensor metadata corrupted at entry of " << op
      << " (shape " << ShapeToString(t.shape()) << ")";
}

// Alias-overlap guard for elementwise kernels: every kernel writes a freshly
// allocated output, so any overlap with an input buffer means the allocator
// or a future in-place path handed out aliasing storage.
inline void DebugCheckNoAlias(const Tensor& out, const Tensor& in,
                              const char* op) {
  MSD_CHECK(!debug::RangesOverlap(
      out.data(), out.numel() * static_cast<int64_t>(sizeof(float)),
      in.data(), in.numel() * static_cast<int64_t>(sizeof(float))))
      << "debug check: output of " << op << " aliases an input buffer "
      << "(shapes " << ShapeToString(out.shape()) << " / "
      << ShapeToString(in.shape()) << ")";
}

// Alias policy for the *Into entry points, whose outputs are caller-owned
// (plan arena slots): an input either aliases the output EXACTLY (same base
// pointer and same element count — the planner's in-place reuse, safe for
// elementwise read-before-write at equal indices) or is fully disjoint.
// Partial overlap is always a bug.
inline void DebugCheckIntoAlias(const Tensor& out, const Tensor& in,
                                const char* op) {
  if (out.data() == in.data() && out.numel() == in.numel()) return;
  DebugCheckNoAlias(out, in, op);
}

#define MSD_DEBUG_VALIDATE_TENSOR(t, op) ::msd::kernel::DebugValidateTensor(t, op)
#define MSD_DEBUG_CHECK_NO_ALIAS(out, in, op) \
  ::msd::kernel::DebugCheckNoAlias(out, in, op)
#define MSD_DEBUG_CHECK_INTO_ALIAS(out, in, op) \
  ::msd::kernel::DebugCheckIntoAlias(out, in, op)

#else  // !MSD_DEBUG_CHECKS_ENABLED

// Arguments are referenced (but not evaluated) so loop variables that exist
// only to be validated do not trip -Wunused-variable.
#define MSD_DEBUG_VALIDATE_TENSOR(t, op) \
  ((void)sizeof(&(t)), (void)(op))
#define MSD_DEBUG_CHECK_NO_ALIAS(out, in, op) \
  ((void)sizeof(&(out)), (void)sizeof(&(in)), (void)(op))
#define MSD_DEBUG_CHECK_INTO_ALIAS(out, in, op) \
  ((void)sizeof(&(out)), (void)sizeof(&(in)), (void)(op))

#endif  // MSD_DEBUG_CHECKS_ENABLED

// Eight fp32 lanes as a GCC vector type: one AVX register under
// -march=native, two SSE registers (or scalar code) otherwise. aligned(4)
// permits unaligned loads; may_alias makes the float* punning well-defined.
// Loads/stores go through pointer casts, and helpers take vectors by
// pointer, never by value: without AVX (sanitizer legs build with
// -DMSD_NATIVE_ARCH=OFF) a 32-byte vector in a function signature trips
// -Werror=psabi, while pointers to vector types have a stable ABI.
typedef float V8 __attribute__((vector_size(8 * sizeof(float)), aligned(4),
                                may_alias));
inline const V8* AsV8(const float* p) { return reinterpret_cast<const V8*>(p); }
inline V8* AsV8(float* p) { return reinterpret_cast<V8*>(p); }

// Minimum elements per chunk for elementwise kernels: small enough to spread
// mixer-sized tensors across the pool, large enough that chunk dispatch is
// noise next to the loop body. Chunk *boundaries* derive from these grains
// and the element count only — never the thread count.
inline constexpr int64_t kElementwiseGrain = 4096;
// Reductions chunk coarser: each chunk's partial costs a combine step.
inline constexpr int64_t kReduceGrain = 8192;

// Grain for loops whose iteration does `work` elements' worth of compute
// (rows, matrices, memcpy blocks): aims chunks at ~kElementwiseGrain
// elements each.
inline int64_t GrainForWork(int64_t work) {
  return std::max<int64_t>(1, kElementwiseGrain / std::max<int64_t>(1, work));
}

// Strides for `shape` right-aligned into the rank of `out`, with 0 stride
// for broadcast (size-1 against larger) dimensions.
inline std::vector<int64_t> BroadcastStrides(const Shape& shape,
                                             const Shape& out) {
  const int64_t out_rank = static_cast<int64_t>(out.size());
  const int64_t in_rank = static_cast<int64_t>(shape.size());
  const auto in_strides = RowMajorStrides(shape);
  std::vector<int64_t> strides(static_cast<size_t>(out_rank), 0);
  for (int64_t i = 0; i < in_rank; ++i) {
    const int64_t out_axis = out_rank - in_rank + i;
    if (shape[static_cast<size_t>(i)] == out[static_cast<size_t>(out_axis)]) {
      strides[static_cast<size_t>(out_axis)] =
          in_strides[static_cast<size_t>(i)];
    } else {
      MSD_CHECK_EQ(shape[static_cast<size_t>(i)], 1)
          << "shape " << ShapeToString(shape) << " does not broadcast to "
          << ShapeToString(out);
      strides[static_cast<size_t>(out_axis)] = 0;
    }
  }
  return strides;
}

// True when `suffix` equals the trailing dims of `shape` (so a contiguous
// buffer of the suffix shape tiles the larger one exactly).
inline bool IsSuffixShape(const Shape& suffix, const Shape& shape) {
  if (suffix.size() > shape.size()) return false;
  for (size_t i = 0; i < suffix.size(); ++i) {
    if (suffix[suffix.size() - 1 - i] != shape[shape.size() - 1 - i]) {
      return false;
    }
  }
  return true;
}

// Unflattens linear index `i` of `shape` into `index` and returns the dot
// product with `strides` — the chunk-entry offset for strided kernels.
inline int64_t UnflattenOffset(int64_t i, const Shape& shape,
                               const std::vector<int64_t>& strides,
                               std::vector<int64_t>& index) {
  int64_t off = 0;
  for (int64_t axis = static_cast<int64_t>(shape.size()) - 1; axis >= 0;
       --axis) {
    const size_t u = static_cast<size_t>(axis);
    index[u] = i % shape[u];
    i /= shape[u];
    off += index[u] * strides[u];
  }
  return off;
}

// MapSpanKernelInto: elementwise unary op into a caller-owned output (same
// shape), handed whole chunks: span(in, out, count) maps in[0, count) to
// out[0, count). For span kernels whose per-element bits do not depend on
// the element's position in the span (gelu.h), so the fixed chunking is
// invisible in the output.
template <typename S>
void MapSpanKernelInto(const Tensor& a, Tensor& out, S span) {
  MSD_CHECK(a.defined());
  MSD_CHECK(out.defined());
  MSD_DEBUG_VALIDATE_TENSOR(a, "MapKernel");
  MSD_CHECK(out.shape() == a.shape())
      << "MapKernelInto output shape " << ShapeToString(out.shape())
      << " != input " << ShapeToString(a.shape());
  MSD_DEBUG_CHECK_INTO_ALIAS(out, a, "MapKernel");
  const float* pa = a.data();
  float* po = out.data();
  runtime::ParallelFor(0, a.numel(), kElementwiseGrain,
                       [&](int64_t cb, int64_t ce) {
                         span(pa + cb, po + cb, ce - cb);
                       });
}

// MapKernelInto: per-element form of MapSpanKernelInto. The allocating
// MapKernel below delegates here, so the interpreted and planned paths
// execute the same loop — bit-identity by construction.
template <typename F>
void MapKernelInto(const Tensor& a, Tensor& out, F f) {
  MapSpanKernelInto(a, out, [&f](const float* in, float* o, int64_t count) {
    for (int64_t i = 0; i < count; ++i) o[i] = f(in[i]);
  });
}

// MapKernel: elementwise unary op, parallel over fixed chunks.
template <typename F>
Tensor MapKernel(const Tensor& a, F f) {
  MSD_CHECK(a.defined());
  Tensor out = Tensor::Uninitialized(a.shape());
  MapKernelInto(a, out, f);
  return out;
}

// ZipKernelInto: broadcasted elementwise binary op into a caller-owned
// output of the broadcast shape. Each output element is written by exactly
// one chunk, so results are independent of chunk execution order. An input
// may alias the output exactly (planner in-place reuse): every path below
// reads input element i no later than it writes output element i.
template <typename F>
void ZipKernelInto(const Tensor& a, const Tensor& b, Tensor& out, F f) {
  MSD_CHECK(a.defined());
  MSD_CHECK(b.defined());
  MSD_CHECK(out.defined());
  MSD_DEBUG_VALIDATE_TENSOR(a, "ZipKernel");
  MSD_DEBUG_VALIDATE_TENSOR(b, "ZipKernel");
  MSD_DEBUG_CHECK_INTO_ALIAS(out, a, "ZipKernel");
  MSD_DEBUG_CHECK_INTO_ALIAS(out, b, "ZipKernel");
  // Fast path: identical shapes.
  if (a.shape() == b.shape()) {
    MSD_CHECK(out.shape() == a.shape())
        << "ZipKernelInto output shape " << ShapeToString(out.shape())
        << " != broadcast " << ShapeToString(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    runtime::ParallelFor(0, out.numel(), kElementwiseGrain,
                         [&](int64_t cb, int64_t ce) {
                           for (int64_t i = cb; i < ce; ++i) {
                             po[i] = f(pa[i], pb[i]);
                           }
                         });
    return;
  }
  // Fast path: one side tiles the other as a suffix (e.g. bias add) — the
  // common case in Linear layers and per-channel scaling. `b_tiles_a`
  // preserves the argument order of `f` when b is the large side.
  const bool b_tiles_a = b.numel() > 0 && IsSuffixShape(b.shape(), a.shape());
  const bool a_tiles_b = a.numel() > 0 && IsSuffixShape(a.shape(), b.shape());
  if (b_tiles_a || a_tiles_b) {
    const Tensor& big = b_tiles_a ? a : b;
    const Tensor& small = b_tiles_a ? b : a;
    MSD_CHECK(out.shape() == big.shape())
        << "ZipKernelInto output shape " << ShapeToString(out.shape())
        << " != broadcast " << ShapeToString(big.shape());
    const float* pbig = big.data();
    const float* psmall = small.data();
    float* po = out.data();
    const int64_t inner = small.numel();
    const int64_t outer = big.numel() / inner;
    runtime::ParallelFor(0, outer, GrainForWork(inner),
                         [&](int64_t cb, int64_t ce) {
      for (int64_t o = cb; o < ce; ++o) {
        const float* row = pbig + o * inner;
        float* dst = po + o * inner;
        if (b_tiles_a) {
          for (int64_t i = 0; i < inner; ++i) dst[i] = f(row[i], psmall[i]);
        } else {
          for (int64_t i = 0; i < inner; ++i) dst[i] = f(psmall[i], row[i]);
        }
      }
    });
    return;
  }
  // General case: odometer walk over the broadcast output shape. Each chunk
  // re-derives its input offsets from its first linear index, so chunks are
  // independent.
  const Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  MSD_CHECK(out.shape() == out_shape)
      << "ZipKernelInto output shape " << ShapeToString(out.shape())
      << " != broadcast " << ShapeToString(out_shape);
  const auto sa = BroadcastStrides(a.shape(), out_shape);
  const auto sb = BroadcastStrides(b.shape(), out_shape);
  const int64_t rank = static_cast<int64_t>(out_shape.size());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  runtime::ParallelFor(0, out.numel(), kElementwiseGrain,
                       [&](int64_t cb, int64_t ce) {
    std::vector<int64_t> index(static_cast<size_t>(rank), 0);
    int64_t oa = UnflattenOffset(cb, out_shape, sa, index);
    int64_t ob = UnflattenOffset(cb, out_shape, sb, index);
    for (int64_t i = cb; i < ce; ++i) {
      po[i] = f(pa[oa], pb[ob]);
      // Odometer increment.
      for (int64_t axis = rank - 1; axis >= 0; --axis) {
        const size_t u = static_cast<size_t>(axis);
        ++index[u];
        oa += sa[u];
        ob += sb[u];
        if (index[u] < out_shape[u]) break;
        oa -= sa[u] * out_shape[u];
        ob -= sb[u] * out_shape[u];
        index[u] = 0;
      }
    }
  });
}

// ZipKernel: broadcasted elementwise binary op, parallel over the output.
template <typename F>
Tensor ZipKernel(const Tensor& a, const Tensor& b, F f) {
  MSD_CHECK(a.defined());
  MSD_CHECK(b.defined());
  Tensor out = Tensor::Uninitialized(BroadcastShapes(a.shape(), b.shape()));
  ZipKernelInto(a, b, out, f);
  return out;
}

// Zip3KernelInto: fused ternary op out = g(f(a, b), c), the kernel behind
// the planner's SubDiv/MulAdd peepholes. Evaluated in TWO chunk-local
// passes: pass 1 writes f(a, b) into the output chunk, pass 2 folds c in
// reading the stored value back. The memory round-trip forces f's result to
// a rounded float32 exactly like the unfused op pair did, so the fusion is
// bit-identical by construction — a single-expression g(f(a,b),c) would let
// the compiler contract a*b+c into an FMA (-ffp-contract) and change bits.
// The chunk (<= kElementwiseGrain elements) stays cache-resident between
// passes, which is where the fusion's bandwidth win comes from.
template <typename F, typename G>
void Zip3KernelInto(const Tensor& a, const Tensor& b, const Tensor& c,
                    Tensor& out, F f, G g) {
  MSD_CHECK(a.defined());
  MSD_CHECK(b.defined());
  MSD_CHECK(c.defined());
  MSD_CHECK(out.defined());
  MSD_DEBUG_VALIDATE_TENSOR(a, "Zip3Kernel");
  MSD_DEBUG_VALIDATE_TENSOR(b, "Zip3Kernel");
  MSD_DEBUG_VALIDATE_TENSOR(c, "Zip3Kernel");
  // Pass 2 reads c after pass 1 overwrote the output chunk, so c may never
  // alias the output (the planner only reuses the first operand's slot).
  MSD_DEBUG_CHECK_INTO_ALIAS(out, a, "Zip3Kernel");
  MSD_DEBUG_CHECK_NO_ALIAS(out, b, "Zip3Kernel");
  MSD_DEBUG_CHECK_NO_ALIAS(out, c, "Zip3Kernel");
  const Shape out_shape =
      BroadcastShapes(BroadcastShapes(a.shape(), b.shape()), c.shape());
  MSD_CHECK(out.shape() == out_shape)
      << "Zip3KernelInto output shape " << ShapeToString(out.shape())
      << " != broadcast " << ShapeToString(out_shape);
  const auto sa = BroadcastStrides(a.shape(), out_shape);
  const auto sb = BroadcastStrides(b.shape(), out_shape);
  const auto sc = BroadcastStrides(c.shape(), out_shape);
  const int64_t rank = static_cast<int64_t>(out_shape.size());
  const float* pa = a.data();
  const float* pb = b.data();
  const float* pc = c.data();
  float* po = out.data();
  // Contiguity (stride pattern == full row-major) lets a pass run as a
  // dense loop instead of the odometer.
  const auto dense = RowMajorStrides(out_shape);
  const bool a_dense = sa == dense;
  const bool b_dense = sb == dense;
  const bool c_dense = sc == dense;
  runtime::ParallelFor(0, out.numel(), kElementwiseGrain,
                       [&](int64_t cb, int64_t ce) {
    std::vector<int64_t> index(static_cast<size_t>(rank), 0);
    // Pass 1: out[i] = f(a, b) over the chunk.
    if (a_dense && b_dense) {
      for (int64_t i = cb; i < ce; ++i) po[i] = f(pa[i], pb[i]);
    } else {
      int64_t oa = UnflattenOffset(cb, out_shape, sa, index);
      int64_t ob = UnflattenOffset(cb, out_shape, sb, index);
      for (int64_t i = cb; i < ce; ++i) {
        po[i] = f(pa[oa], pb[ob]);
        for (int64_t axis = rank - 1; axis >= 0; --axis) {
          const size_t u = static_cast<size_t>(axis);
          ++index[u];
          oa += sa[u];
          ob += sb[u];
          if (index[u] < out_shape[u]) break;
          oa -= sa[u] * out_shape[u];
          ob -= sb[u] * out_shape[u];
          index[u] = 0;
        }
      }
    }
    // Pass 2: out[i] = g(out[i], c) over the same (cache-hot) chunk.
    if (c_dense) {
      for (int64_t i = cb; i < ce; ++i) po[i] = g(po[i], pc[i]);
    } else {
      std::fill(index.begin(), index.end(), 0);
      int64_t oc = UnflattenOffset(cb, out_shape, sc, index);
      for (int64_t i = cb; i < ce; ++i) {
        po[i] = g(po[i], pc[oc]);
        for (int64_t axis = rank - 1; axis >= 0; --axis) {
          const size_t u = static_cast<size_t>(axis);
          ++index[u];
          oc += sc[u];
          if (index[u] < out_shape[u]) break;
          oc -= sc[u] * out_shape[u];
          index[u] = 0;
        }
      }
    }
  });
}

// ReduceKernel: whole-tensor reduction. Per-chunk partials are combined with
// runtime::ParallelReduce's fixed-order tree, so the result is bit-identical
// for every MSD_THREADS value. T must not be bool (std::vector<bool> packs
// bits and concurrent chunk writes would race) — use int for predicates.
template <typename T, typename MapFn, typename CombineFn>
T ReduceKernel(const Tensor& a, T identity, const MapFn& map_chunk,
               const CombineFn& combine) {
  static_assert(!std::is_same_v<T, bool>,
                "use int partials: vector<bool> bits race across chunks");
  MSD_CHECK(a.defined());
  return runtime::ParallelReduce(0, a.numel(), kReduceGrain, identity,
                                 map_chunk, combine);
}

}  // namespace kernel
}  // namespace msd

#endif  // MSDMIXER_TENSOR_KERNELS_H_
