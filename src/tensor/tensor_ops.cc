#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "common/debug.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "runtime/parallel.h"
#include "tensor/gelu.h"
#include "tensor/kernels.h"
#include "tensor/optrace.h"

namespace msd {

using kernel::BroadcastStrides;
using kernel::GrainForWork;
using kernel::MapKernel;
using kernel::MapKernelInto;
using kernel::MapSpanKernelInto;
using kernel::ReduceKernel;
using kernel::ZipKernel;
using kernel::ZipKernelInto;
using kernel::Zip3KernelInto;

namespace {

// Appends one op to an active capture (callers guard with optrace::Active()
// so operand vectors are only materialized while tracing).
void RecordOp(optrace::OpKind kind, std::vector<Tensor> inputs,
              const Tensor& out) {
  optrace::RecordedOp op;
  op.kind = kind;
  op.inputs = std::move(inputs);
  op.output = out;
  optrace::Record(std::move(op));
}

// Resolves and validates reduction dims; returns a sorted, deduped list of
// non-negative axes.
std::vector<int64_t> NormalizeDims(std::vector<int64_t> dims, int64_t rank) {
  for (auto& d : dims) d = NormalizeDim(d, rank);
  std::sort(dims.begin(), dims.end());
  dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
  return dims;
}

// Shape of `a` with the (sorted) reduced axes removed.
Shape SqueezeDims(const Tensor& a, const std::vector<int64_t>& dims) {
  Shape squeezed;
  for (int64_t i = 0; i < a.rank(); ++i) {
    if (!std::binary_search(dims.begin(), dims.end(), i)) {
      squeezed.push_back(a.dim(i));
    }
  }
  return squeezed;
}

// Serial odometer over every element of `a`, calling
// visit(i, out_off, dim_pos): `i` the linear input index, `out_off` the
// offset under `out_strides` (0-stride on reduced axes folds many inputs
// onto one output slot), `dim_pos` the current index along `track_dim`
// (-1 to skip tracking). Shared by the generic Sum / MaxReduce / ArgMax
// paths; stays serial because output slots are written by many iterations.
template <typename V>
void ReduceVisit(const Tensor& a, const std::vector<int64_t>& out_strides,
                 int64_t track_dim, V visit) {
  const int64_t rank = a.rank();
  const Shape& in_shape = a.shape();
  std::vector<int64_t> index(static_cast<size_t>(rank), 0);
  int64_t off = 0;
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) {
    visit(i, off,
          track_dim >= 0 ? index[static_cast<size_t>(track_dim)] : int64_t{0});
    for (int64_t axis = rank - 1; axis >= 0; --axis) {
      const size_t u = static_cast<size_t>(axis);
      ++index[u];
      off += out_strides[u];
      if (index[u] < in_shape[u]) break;
      off -= out_strides[u] * in_shape[u];
      index[u] = 0;
    }
  }
}

}  // namespace

int64_t NormalizeDim(int64_t dim, int64_t rank) {
  if (dim < 0) dim += rank;
  MSD_CHECK_GE(dim, 0) << "axis out of range for rank " << rank;
  MSD_CHECK_LT(dim, rank) << "axis out of range for rank " << rank;
  return dim;
}

Shape BroadcastShapes(const Shape& a, const Shape& b) {
  const int64_t rank = std::max<int64_t>(static_cast<int64_t>(a.size()),
                                         static_cast<int64_t>(b.size()));
  Shape out(static_cast<size_t>(rank), 1);
  for (int64_t i = 0; i < rank; ++i) {
    const int64_t ai = static_cast<int64_t>(a.size()) - rank + i;
    const int64_t bi = static_cast<int64_t>(b.size()) - rank + i;
    const int64_t da = ai >= 0 ? a[static_cast<size_t>(ai)] : 1;
    const int64_t db = bi >= 0 ? b[static_cast<size_t>(bi)] : 1;
    if (da == db || db == 1) {
      out[static_cast<size_t>(i)] = da;
    } else if (da == 1) {
      out[static_cast<size_t>(i)] = db;
    } else {
      MSD_FATAL("shapes " << ShapeToString(a) << " and " << ShapeToString(b)
                          << " are not broadcastable");
    }
  }
  return out;
}

Tensor ExpandTo(const Tensor& t, const Shape& target) {
  // Implemented as a broadcast-add with zeros of the target shape.
  if (t.shape() == target) return t;
  return Add(t, Tensor::Zeros(target));
}

Tensor ReduceTo(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  const int64_t t_rank = t.rank();
  const int64_t target_rank = static_cast<int64_t>(target.size());
  MSD_CHECK_GE(t_rank, target_rank)
      << "cannot reduce " << ShapeToString(t.shape()) << " to "
      << ShapeToString(target);
  std::vector<int64_t> reduce_dims;
  for (int64_t i = 0; i < t_rank; ++i) {
    const int64_t ti = i - (t_rank - target_rank);
    const int64_t target_dim = ti >= 0 ? target[static_cast<size_t>(ti)] : -1;
    if (target_dim != t.dim(i)) {
      MSD_CHECK(target_dim == 1 || target_dim == -1)
          << "cannot reduce " << ShapeToString(t.shape()) << " to "
          << ShapeToString(target);
      reduce_dims.push_back(i);
    }
  }
  Tensor reduced = Sum(t, reduce_dims, /*keepdim=*/true);
  return reduced.Reshape(target);
}

// The per-element lambdas live in one place so the allocating op, its *Into
// twin, and the planner's fused kernels all apply identical arithmetic.
namespace lam {
inline constexpr auto add = [](float x, float y) { return x + y; };
inline constexpr auto sub = [](float x, float y) { return x - y; };
inline constexpr auto mul = [](float x, float y) { return x * y; };
inline constexpr auto div = [](float x, float y) { return x / y; };
}  // namespace lam

// msd-hot-path-safe: plan-executor kernel entry — writes a caller-owned
// arena slot through the same fixed-chunk loop the interpreted path runs;
// no pool traffic, no locks (contract tested by tests/plan_test.cc).
void AddInto(const Tensor& a, const Tensor& b, Tensor& out) {
  ZipKernelInto(a, b, out, lam::add);
}
// msd-hot-path-safe: same contract as AddInto.
void SubInto(const Tensor& a, const Tensor& b, Tensor& out) {
  ZipKernelInto(a, b, out, lam::sub);
}
// msd-hot-path-safe: same contract as AddInto.
void MulInto(const Tensor& a, const Tensor& b, Tensor& out) {
  ZipKernelInto(a, b, out, lam::mul);
}
// msd-hot-path-safe: same contract as AddInto.
void DivInto(const Tensor& a, const Tensor& b, Tensor& out) {
  ZipKernelInto(a, b, out, lam::div);
}
// msd-hot-path-safe: same contract as AddInto.
void AddScalarInto(const Tensor& a, float s, Tensor& out) {
  MapKernelInto(a, out, [s](float x) { return x + s; });
}
// msd-hot-path-safe: same contract as AddInto.
void MulScalarInto(const Tensor& a, float s, Tensor& out) {
  MapKernelInto(a, out, [s](float x) { return x * s; });
}
// msd-hot-path-safe: same contract as AddInto.
void NegInto(const Tensor& a, Tensor& out) {
  MapKernelInto(a, out, [](float x) { return -x; });
}
// msd-hot-path-safe: same contract as AddInto.
void ExpInto(const Tensor& a, Tensor& out) {
  MapKernelInto(a, out, [](float x) { return std::exp(x); });
}
// msd-hot-path-safe: same contract as AddInto.
void LogInto(const Tensor& a, Tensor& out) {
  MapKernelInto(a, out, [](float x) { return std::log(x); });
}
// msd-hot-path-safe: same contract as AddInto.
void SqrtInto(const Tensor& a, Tensor& out) {
  MapKernelInto(a, out, [](float x) { return std::sqrt(x); });
}
// msd-hot-path-safe: same contract as AddInto.
void AbsInto(const Tensor& a, Tensor& out) {
  MapKernelInto(a, out, [](float x) { return std::fabs(x); });
}
// msd-hot-path-safe: same contract as AddInto.
void SquareInto(const Tensor& a, Tensor& out) {
  MapKernelInto(a, out, [](float x) { return x * x; });
}
// msd-hot-path-safe: same contract as AddInto.
void ReluInto(const Tensor& a, Tensor& out) {
  MapKernelInto(a, out, [](float x) { return x > 0.0f ? x : 0.0f; });
}
// msd-hot-path-safe: same contract as AddInto; the span kernel is the
// fused epilogue's own gelu::Forward, so fused == standalone bytewise.
void GeluInto(const Tensor& a, Tensor& out) {
  MapSpanKernelInto(a, out, gelu::Forward);
}
// msd-hot-path-safe: same contract as AddInto.
void SigmoidInto(const Tensor& a, Tensor& out) {
  MapKernelInto(a, out, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}
// msd-hot-path-safe: same contract as AddInto.
void TanhInto(const Tensor& a, Tensor& out) {
  MapKernelInto(a, out, [](float x) { return std::tanh(x); });
}

// msd-hot-path-safe: fused (a - b) / c; two chunk-local passes round the
// subtraction through memory, so bits match the unfused Sub+Div pair.
void SubDivInto(const Tensor& a, const Tensor& b, const Tensor& c,
                Tensor& out) {
  Zip3KernelInto(a, b, c, out, lam::sub, lam::div);
}
// msd-hot-path-safe: fused a * b + c; same rounding contract as SubDivInto
// (the memory round-trip defeats FMA contraction).
void MulAddInto(const Tensor& a, const Tensor& b, const Tensor& c,
                Tensor& out) {
  Zip3KernelInto(a, b, c, out, lam::mul, lam::add);
}

namespace {

Tensor AllocZip(const Tensor& a, const Tensor& b) {
  MSD_CHECK(a.defined());
  MSD_CHECK(b.defined());
  return Tensor::Uninitialized(BroadcastShapes(a.shape(), b.shape()));
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = AllocZip(a, b);
  AddInto(a, b, out);
  if (optrace::Active()) RecordOp(optrace::OpKind::kAdd, {a, b}, out);
  return out;
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor out = AllocZip(a, b);
  SubInto(a, b, out);
  if (optrace::Active()) RecordOp(optrace::OpKind::kSub, {a, b}, out);
  return out;
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  Tensor out = AllocZip(a, b);
  MulInto(a, b, out);
  if (optrace::Active()) RecordOp(optrace::OpKind::kMul, {a, b}, out);
  return out;
}
Tensor Div(const Tensor& a, const Tensor& b) {
  Tensor out = AllocZip(a, b);
  DivInto(a, b, out);
  if (optrace::Active()) RecordOp(optrace::OpKind::kDiv, {a, b}, out);
  return out;
}
Tensor Maximum(const Tensor& a, const Tensor& b) {
  if (optrace::Active()) optrace::RecordUnsupported("Maximum");
  return ZipKernel(a, b, [](float x, float y) { return std::max(x, y); });
}
Tensor Minimum(const Tensor& a, const Tensor& b) {
  if (optrace::Active()) optrace::RecordUnsupported("Minimum");
  return ZipKernel(a, b, [](float x, float y) { return std::min(x, y); });
}
Tensor Greater(const Tensor& a, const Tensor& b) {
  if (optrace::Active()) optrace::RecordUnsupported("Greater");
  return ZipKernel(a, b, [](float x, float y) { return x > y ? 1.0f : 0.0f; });
}
Tensor GreaterEqual(const Tensor& a, const Tensor& b) {
  if (optrace::Active()) optrace::RecordUnsupported("GreaterEqual");
  return ZipKernel(a, b, [](float x, float y) { return x >= y ? 1.0f : 0.0f; });
}

Tensor AddScalar(const Tensor& a, float s) {
  Tensor out = Tensor::Uninitialized(a.shape());
  AddScalarInto(a, s, out);
  if (optrace::Active()) {
    optrace::RecordedOp op;
    op.kind = optrace::OpKind::kAddScalar;
    op.inputs = {a};
    op.output = out;
    op.scalar = s;
    optrace::Record(std::move(op));
  }
  return out;
}
Tensor MulScalar(const Tensor& a, float s) {
  Tensor out = Tensor::Uninitialized(a.shape());
  MulScalarInto(a, s, out);
  if (optrace::Active()) {
    optrace::RecordedOp op;
    op.kind = optrace::OpKind::kMulScalar;
    op.inputs = {a};
    op.output = out;
    op.scalar = s;
    optrace::Record(std::move(op));
  }
  return out;
}

namespace {

// Shared body for the recorded unary ops.
template <typename IntoFn>
Tensor UnaryOp(const Tensor& a, optrace::OpKind kind, IntoFn into) {
  Tensor out = Tensor::Uninitialized(a.shape());
  into(a, out);
  if (optrace::Active()) RecordOp(kind, {a}, out);
  return out;
}

}  // namespace

Tensor Neg(const Tensor& a) {
  return UnaryOp(a, optrace::OpKind::kNeg, NegInto);
}
Tensor Exp(const Tensor& a) {
  return UnaryOp(a, optrace::OpKind::kExp, ExpInto);
}
Tensor Log(const Tensor& a) {
  return UnaryOp(a, optrace::OpKind::kLog, LogInto);
}
Tensor Sqrt(const Tensor& a) {
  return UnaryOp(a, optrace::OpKind::kSqrt, SqrtInto);
}
Tensor Abs(const Tensor& a) {
  return UnaryOp(a, optrace::OpKind::kAbs, AbsInto);
}
Tensor Square(const Tensor& a) {
  return UnaryOp(a, optrace::OpKind::kSquare, SquareInto);
}
Tensor Relu(const Tensor& a) {
  return UnaryOp(a, optrace::OpKind::kRelu, ReluInto);
}
Tensor Gelu(const Tensor& a) {
  return UnaryOp(a, optrace::OpKind::kGelu, GeluInto);
}
Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(a, optrace::OpKind::kSigmoid, SigmoidInto);
}
Tensor Tanh(const Tensor& a) {
  return UnaryOp(a, optrace::OpKind::kTanh, TanhInto);
}
Tensor Clamp(const Tensor& a, float lo, float hi) {
  if (optrace::Active()) optrace::RecordUnsupported("Clamp");
  return MapKernel(a, [lo, hi](float x) { return std::min(hi, std::max(lo, x)); });
}
Tensor Sign(const Tensor& a) {
  if (optrace::Active()) optrace::RecordUnsupported("Sign");
  return MapKernel(a, [](float x) { return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f); });
}
Tensor GeluGrad(const Tensor& a) {
  if (optrace::Active()) optrace::RecordUnsupported("GeluGrad");
  MSD_CHECK(a.defined());
  Tensor out = Tensor::Uninitialized(a.shape());
  MapSpanKernelInto(a, out, gelu::Derivative);
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  return MatMulEx(a, b, Tensor(), gemm::Activation::kIdentity, nullptr);
}

namespace {

// Expected result shape of a (possibly batched, broadcast) matmul; also
// validates operand/bias shapes.
Shape MatMulOutShape(const Tensor& a, const Tensor& b, const Tensor& bias) {
  MSD_DEBUG_VALIDATE_TENSOR(a, "MatMul");
  MSD_DEBUG_VALIDATE_TENSOR(b, "MatMul");
  MSD_CHECK_GE(a.rank(), 2);
  MSD_CHECK_GE(b.rank(), 2);
  const int64_t m = a.dim(-2);
  const int64_t k = a.dim(-1);
  const int64_t n = b.dim(-1);
  MSD_CHECK_EQ(k, b.dim(-2)) << "matmul inner dims mismatch: "
                             << ShapeToString(a.shape()) << " x "
                             << ShapeToString(b.shape());
  if (bias.defined()) {
    MSD_DEBUG_VALIDATE_TENSOR(bias, "MatMulEx bias");
    MSD_CHECK_EQ(bias.rank(), 1) << "MatMulEx bias must be rank-1 [n]";
    MSD_CHECK_EQ(bias.dim(0), n) << "MatMulEx bias length mismatch";
  }
  Shape a_batch(a.shape().begin(), a.shape().end() - 2);
  Shape b_batch(b.shape().begin(), b.shape().end() - 2);
  Shape out_shape = BroadcastShapes(a_batch, b_batch);
  out_shape.push_back(m);
  out_shape.push_back(n);
  return out_shape;
}

// Shared GEMM body: the allocating MatMulEx and the plan executor's
// MatMulExInto both land here, so the two paths run identical arithmetic.
// `pre_ptr` receives a @ b + bias when non-null (training only).
// msd-hot-path-safe: the audited GEMM chokepoint — writes `out` (pool- or
// arena-backed) via gemm::Gemm; counter adds are relaxed atomics.
void MatMulExImpl(const Tensor& a, const Tensor& b, const Tensor& bias,
                  gemm::Activation act, Tensor& out, float* pre_ptr) {
  MSD_SPAN("tensor/matmul");
  const int64_t m = a.dim(-2);
  const int64_t k = a.dim(-1);
  const int64_t n = b.dim(-1);
  Shape a_batch(a.shape().begin(), a.shape().end() - 2);
  Shape b_batch(b.shape().begin(), b.shape().end() - 2);
  const Shape batch = BroadcastShapes(a_batch, b_batch);
  const int64_t batch_numel = NumElementsOf(batch);

  static obs::Counter& matmul_calls =
      obs::MetricsRegistry::Global().GetCounter("tensor/matmul_calls");
  static obs::Counter& matmul_flops =
      obs::MetricsRegistry::Global().GetCounter("tensor/matmul_flops");
  matmul_calls.Add(1);
  matmul_flops.Add(2 * batch_numel * m * k * n);

  const float* bias_ptr = bias.defined() ? bias.data() : nullptr;
  if (out.numel() == 0) return;

  // Shared-B fast path: when b carries no real batch dims, the batched
  // product is one [batch*m, k] x [k, n] GEMM over a's contiguous buffer —
  // B is packed once and there are no per-batch offset tables at all. This
  // covers every Linear layer (rank-N input x rank-2 weight).
  if (NumElementsOf(b_batch) == 1) {
    gemm::Gemm(a.data(), b.data(), out.data(), batch_numel * m, k, n,
               bias_ptr, act, pre_ptr);
    return;
  }

  // True-batched path (e.g. attention scores): one GEMM per batch matrix,
  // parallel over batches; nested GEMM loops run inline per the runtime
  // contract. Batch offsets come from a stack odometer — no per-call heap
  // offset tables.
  constexpr int64_t kMaxBatchRank = 16;
  const int64_t batch_rank = static_cast<int64_t>(batch.size());
  MSD_CHECK_LE(batch_rank, kMaxBatchRank)
      << "MatMul supports at most " << kMaxBatchRank << " batch dims";
  const auto sa = BroadcastStrides(a_batch, batch);
  const auto sb = BroadcastStrides(b_batch, batch);
  const int64_t a_mat = m * k;
  const int64_t b_mat = k * n;
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  runtime::ParallelFor(0, batch_numel, GrainForWork(m * k * n),
                       [&](int64_t bb, int64_t be) {
    // Unflatten the chunk's first batch index, then advance by odometer.
    int64_t index[kMaxBatchRank] = {0};
    int64_t oa = 0;
    int64_t ob = 0;
    int64_t rest = bb;
    for (int64_t axis = batch_rank - 1; axis >= 0; --axis) {
      const size_t u = static_cast<size_t>(axis);
      index[u] = rest % batch[u];
      rest /= batch[u];
      oa += index[u] * sa[u];
      ob += index[u] * sb[u];
    }
    for (int64_t batch_i = bb; batch_i < be; ++batch_i) {
      gemm::Gemm(pa + oa * a_mat, pb + ob * b_mat, po + batch_i * m * n, m, k,
                 n, bias_ptr, act,
                 pre_ptr == nullptr ? nullptr : pre_ptr + batch_i * m * n);
      for (int64_t axis = batch_rank - 1; axis >= 0; --axis) {
        const size_t u = static_cast<size_t>(axis);
        ++index[u];
        oa += sa[u];
        ob += sb[u];
        if (index[u] < batch[u]) break;
        oa -= sa[u] * batch[u];
        ob -= sb[u] * batch[u];
        index[u] = 0;
      }
    }
  });
}

}  // namespace

Tensor MatMulEx(const Tensor& a, const Tensor& b, const Tensor& bias,
                gemm::Activation act, Tensor* pre_out) {
  Shape out_shape = MatMulOutShape(a, b, bias);
  // The GEMM writes every output element; no zero-fill pre-pass.
  Tensor out = Tensor::Uninitialized(std::move(out_shape));
  float* pre_ptr = nullptr;
  if (pre_out != nullptr) {
    if (act == gemm::Activation::kIdentity) {
      *pre_out = out;  // pre-activation == output; share storage
    } else {
      *pre_out = Tensor::Uninitialized(out.shape());
      pre_ptr = pre_out->data();
    }
  }
  MatMulExImpl(a, b, bias, act, out, pre_ptr);
  if (optrace::Active()) {
    if (pre_ptr != nullptr) {
      // A distinct pre-activation buffer only exists under autograd; replay
      // has nowhere to put it, so a capture that sees one is poisoned.
      optrace::RecordUnsupported("MatMulEx pre_out");
    } else {
      optrace::RecordedOp op;
      op.kind = optrace::OpKind::kMatMulEx;
      op.inputs = {a, b};
      if (bias.defined()) op.inputs.push_back(bias);
      op.output = out;
      op.act = act;
      optrace::Record(std::move(op));
    }
  }
  return out;
}

// msd-hot-path-safe: same contract as AddInto (GEMM chokepoint audited in
// MatMulExImpl above).
void MatMulExInto(const Tensor& a, const Tensor& b, const Tensor& bias,
                  gemm::Activation act, Tensor& out) {
  MSD_CHECK(out.defined());
  MSD_CHECK(out.shape() == MatMulOutShape(a, b, bias))
      << "MatMulExInto output shape mismatch: " << ShapeToString(out.shape());
  MatMulExImpl(a, b, bias, act, out, nullptr);
}

Tensor PackGemmB(const Tensor& b) {
  MSD_CHECK(b.defined());
  MSD_CHECK_EQ(b.rank(), 2) << "PackGemmB packs shared [k, n] operands";
  const int64_t k = b.dim(0);
  const int64_t n = b.dim(1);
  Tensor packed = Tensor::Uninitialized({gemm::PackedBPanelFloats(k, n)});
  gemm::PackB(b.data(), k, n, packed.data());
  return packed;
}

// msd-hot-path-safe: same contract as MatMulExInto's shared-B fast path —
// one flat GEMM over preplanned buffers, with the per-call B pack already
// hoisted to freeze time.
void MatMulExPrepackedInto(const Tensor& a, const Tensor& b_packed, int64_t k,
                           int64_t n, const Tensor& bias, gemm::Activation act,
                           Tensor& out) {
  MSD_SPAN("tensor/matmul");
  MSD_CHECK(a.defined() && b_packed.defined() && out.defined());
  MSD_CHECK_GE(a.rank(), 2);
  MSD_CHECK_EQ(a.dim(-1), k);
  MSD_CHECK_EQ(b_packed.numel(), gemm::PackedBPanelFloats(k, n));
  const int64_t m = k == 0 ? out.numel() / std::max<int64_t>(n, 1)
                           : a.numel() / k;
  MSD_CHECK_EQ(out.numel(), m * n);
  static obs::Counter& matmul_calls =
      obs::MetricsRegistry::Global().GetCounter("tensor/matmul_calls");
  static obs::Counter& matmul_flops =
      obs::MetricsRegistry::Global().GetCounter("tensor/matmul_flops");
  matmul_calls.Add(1);
  matmul_flops.Add(2 * m * k * n);
  if (out.numel() == 0) return;
  const float* bias_ptr = bias.defined() ? bias.data() : nullptr;
  gemm::GemmPrepacked(a.data(), b_packed.data(), out.data(), m, k, n, bias_ptr,
                      act, nullptr);
}

Tensor MatMulWeightGrad(const Tensor& a, const Tensor& g) {
  MSD_SPAN("tensor/matmul_weight_grad");
  MSD_DEBUG_VALIDATE_TENSOR(a, "MatMulWeightGrad");
  MSD_DEBUG_VALIDATE_TENSOR(g, "MatMulWeightGrad");
  MSD_CHECK_GE(a.rank(), 2);
  MSD_CHECK_EQ(g.rank(), a.rank())
      << "MatMulWeightGrad operands: " << ShapeToString(a.shape()) << " / "
      << ShapeToString(g.shape());
  int64_t rows = 1;
  for (int64_t i = 0; i + 1 < a.rank(); ++i) {
    MSD_CHECK_EQ(a.dim(i), g.dim(i))
        << "MatMulWeightGrad leading dims mismatch: "
        << ShapeToString(a.shape()) << " / " << ShapeToString(g.shape());
    rows *= a.dim(i);
  }
  const int64_t k = a.dim(-1);
  const int64_t n = g.dim(-1);
  static obs::Counter& matmul_calls =
      obs::MetricsRegistry::Global().GetCounter("tensor/matmul_calls");
  static obs::Counter& matmul_flops =
      obs::MetricsRegistry::Global().GetCounter("tensor/matmul_flops");
  matmul_calls.Add(1);
  matmul_flops.Add(2 * rows * k * n);
  // Backward-only: a replayed plan never differentiates.
  if (optrace::Active()) optrace::RecordUnsupported("MatMulWeightGrad");
  Tensor out = Tensor::Uninitialized({k, n});
  gemm::GemmWeightGrad(a.data(), g.data(), out.data(), rows, k, n);
  return out;
}

Tensor SumAll(const Tensor& a) {
  if (optrace::Active()) optrace::RecordUnsupported("SumAll");
  const float* p = a.data();
  const double acc = ReduceKernel(
      a, 0.0,
      [p](int64_t cb, int64_t ce) {
        double partial = 0.0;
        for (int64_t i = cb; i < ce; ++i) partial += p[i];
        return partial;
      },
      [](double x, double y) { return x + y; });
  return Tensor::Scalar(static_cast<float>(acc));
}

Tensor MeanAll(const Tensor& a) {
  MSD_CHECK_GT(a.numel(), 0);
  return Tensor::Scalar(SumAll(a).item() / static_cast<float>(a.numel()));
}

float MaxAbs(const Tensor& a) {
  // Scalar escape hatch: the value leaves the tensor graph, so a replay
  // could not recompute anything derived from it.
  if (optrace::Active()) optrace::RecordUnsupported("MaxAbs");
  const float* p = a.data();
  return ReduceKernel(
      a, 0.0f,
      [p](int64_t cb, int64_t ce) {
        float best = 0.0f;
        for (int64_t i = cb; i < ce; ++i) best = std::max(best, std::fabs(p[i]));
        return best;
      },
      [](float x, float y) { return std::max(x, y); });
}

// Minimum kept columns per chunk of SumInto's prefix path (bias gradients:
// kept = n features, reduced = every row).
constexpr int64_t kPrefixColumnGrain = 64;

// msd-hot-path-safe: same contract as AddInto. `dims` arrives pre-normalized
// (sorted, deduped, non-negative, non-empty); `out` holds the kept elements
// (keepdim or squeezed form — the kernels index linearly either way).
void SumInto(const Tensor& a, const std::vector<int64_t>& dims, Tensor& out) {
  MSD_CHECK(a.defined());
  MSD_CHECK(out.defined());
  MSD_CHECK(!dims.empty());
  const int64_t rank = a.rank();
  Shape keep_shape = a.shape();
  int64_t reduced = 1;
  for (int64_t d : dims) {
    MSD_CHECK_GE(d, 0);
    MSD_CHECK_LT(d, rank);
    reduced *= a.dim(d);
    keep_shape[static_cast<size_t>(d)] = 1;
  }
  MSD_CHECK_EQ(out.numel(), NumElementsOf(keep_shape))
      << "SumInto output must hold the kept elements";
  // The reduction seeds out with zero then accumulates, so unlike the
  // elementwise kernels the output may never alias the input.
  MSD_DEBUG_CHECK_NO_ALIAS(out, a, "SumInto");

  // Fast path: reducing a contiguous prefix of axes (e.g. bias gradients)
  // or a contiguous suffix (e.g. per-row sums). Both parallelize over the
  // *kept* elements, so each output slot keeps the serial kernel's
  // accumulation order.
  const bool is_prefix =
      dims.back() == static_cast<int64_t>(dims.size()) - 1;
  const bool is_suffix = dims.front() == rank - static_cast<int64_t>(dims.size());
  const float* pa = a.data();
  float* po = out.data();
  if (is_prefix || is_suffix) {
    const int64_t kept = a.numel() / std::max<int64_t>(1, reduced);
    if (is_prefix) {
      // Sum `reduced` stacked blocks of length `kept`; r ascends innermost
      // per output element, matching the serial block order. Chunks span at
      // least kPrefixColumnGrain columns, so each row visit is a contiguous
      // vector run instead of a one-column strided walk.
      std::fill(po, po + kept, 0.0f);
      runtime::ParallelFor(0, kept,
                           std::max(kPrefixColumnGrain, GrainForWork(reduced)),
                           [&](int64_t cb, int64_t ce) {
        for (int64_t r = 0; r < reduced; ++r) {
          const float* block = pa + r * kept;
          for (int64_t i = cb; i < ce; ++i) po[i] += block[i];
        }
      });
    } else {
      // Row sums: `kept` rows of length `reduced`.
      runtime::ParallelFor(0, kept, GrainForWork(reduced),
                           [&](int64_t cb, int64_t ce) {
        for (int64_t i = cb; i < ce; ++i) {
          const float* row = pa + i * reduced;
          float acc = 0.0f;
          for (int64_t j = 0; j < reduced; ++j) acc += row[j];
          po[i] = acc;
        }
      });
    }
    return;
  }

  // out_strides has 0 on reduced axes, so many input positions map to the
  // same output slot, accumulating the reduction.
  std::fill(po, po + out.numel(), 0.0f);
  ReduceVisit(a, BroadcastStrides(keep_shape, a.shape()), -1,
              [&](int64_t i, int64_t off, int64_t) { po[off] += pa[i]; });
}

Tensor Sum(const Tensor& a, std::vector<int64_t> dims, bool keepdim) {
  MSD_CHECK(a.defined());
  MSD_DEBUG_VALIDATE_TENSOR(a, "Sum");
  const int64_t rank = a.rank();
  dims = NormalizeDims(std::move(dims), rank);
  if (dims.empty()) return a.Clone();  // Clone records kCopy when tracing

  Shape keep_shape = a.shape();
  for (int64_t d : dims) keep_shape[static_cast<size_t>(d)] = 1;
  Tensor out =
      Tensor::Uninitialized(keepdim ? keep_shape : SqueezeDims(a, dims));
  SumInto(a, dims, out);
  if (optrace::Active()) {
    optrace::RecordedOp op;
    op.kind = optrace::OpKind::kSum;
    op.inputs = {a};
    op.output = out;
    op.dims = dims;
    optrace::Record(std::move(op));
  }
  return out;
}

Tensor Mean(const Tensor& a, std::vector<int64_t> dims, bool keepdim) {
  const int64_t rank = a.rank();
  auto norm = NormalizeDims(dims, rank);
  int64_t count = 1;
  for (int64_t d : norm) count *= a.dim(d);
  MSD_CHECK_GT(count, 0);
  return MulScalar(Sum(a, std::move(dims), keepdim), 1.0f / static_cast<float>(count));
}

Tensor MaxReduce(const Tensor& a, int64_t dim, bool keepdim) {
  if (optrace::Active()) optrace::RecordUnsupported("MaxReduce");
  const int64_t rank = a.rank();
  dim = NormalizeDim(dim, rank);
  Shape keep_shape = a.shape();
  keep_shape[static_cast<size_t>(dim)] = 1;
  Tensor out = Tensor::Full(keep_shape, -std::numeric_limits<float>::infinity());
  const float* pa = a.data();
  float* po = out.data();
  ReduceVisit(a, BroadcastStrides(keep_shape, a.shape()), -1,
              [&](int64_t i, int64_t off, int64_t) {
                po[off] = std::max(po[off], pa[i]);
              });
  if (keepdim) return out;
  return out.Reshape(SqueezeDims(a, {dim}));
}

Tensor ArgMax(const Tensor& a, int64_t dim) {
  if (optrace::Active()) optrace::RecordUnsupported("ArgMax");
  const int64_t rank = a.rank();
  dim = NormalizeDim(dim, rank);
  Shape keep_shape = a.shape();
  keep_shape[static_cast<size_t>(dim)] = 1;
  Tensor best = Tensor::Full(keep_shape, -std::numeric_limits<float>::infinity());
  Tensor arg(keep_shape);
  const float* pa = a.data();
  float* pbest = best.data();
  float* parg = arg.data();
  ReduceVisit(a, BroadcastStrides(keep_shape, a.shape()), dim,
              [&](int64_t i, int64_t off, int64_t pos) {
                if (pa[i] > pbest[off]) {
                  pbest[off] = pa[i];
                  parg[off] = static_cast<float>(pos);
                }
              });
  const Shape squeezed = SqueezeDims(a, {dim});
  if (squeezed.empty()) return arg.Reshape({});
  return arg.Reshape(squeezed);
}

namespace {

// Validates `perm` against `a` and returns (normalized perm, result shape).
std::pair<std::vector<int64_t>, Shape> PermuteOutShape(
    const Tensor& a, const std::vector<int64_t>& perm) {
  MSD_DEBUG_VALIDATE_TENSOR(a, "Permute");
  const int64_t rank = a.rank();
  MSD_CHECK_EQ(static_cast<int64_t>(perm.size()), rank);
  std::vector<bool> seen(static_cast<size_t>(rank), false);
  std::vector<int64_t> norm(static_cast<size_t>(rank));
  Shape out_shape(static_cast<size_t>(rank));
  for (int64_t i = 0; i < rank; ++i) {
    const int64_t p = NormalizeDim(perm[static_cast<size_t>(i)], rank);
    MSD_CHECK(!seen[static_cast<size_t>(p)]) << "duplicate axis in permutation";
    seen[static_cast<size_t>(p)] = true;
    norm[static_cast<size_t>(i)] = p;
    out_shape[static_cast<size_t>(i)] = a.dim(p);
  }
  return {std::move(norm), std::move(out_shape)};
}

}  // namespace

// msd-hot-path-safe: same contract as AddInto (the gather path's odometer
// index vector is chunk-local and audited with it).
void PermuteInto(const Tensor& a, const std::vector<int64_t>& perm,
                 Tensor& out) {
  auto [norm, out_shape] = PermuteOutShape(a, perm);
  const int64_t rank = a.rank();
  MSD_CHECK(out.shape() == out_shape)
      << "PermuteInto output shape mismatch: " << ShapeToString(out.shape());
  // A gather can never run in place: output slot i reads input slot
  // sigma(i) while slot i may still be pending.
  MSD_DEBUG_CHECK_NO_ALIAS(out, a, "PermuteInto");
  // Fast path: swapping the last two axes (batched 2D transpose), the
  // dominant movement pattern in the mixer's axis-MLP blocks. Parallel over
  // batch matrices — each writes a disjoint output block.
  if (rank >= 2) {
    bool last_two_swap = true;
    for (int64_t i = 0; i < rank - 2; ++i) {
      if (norm[static_cast<size_t>(i)] != i) {
        last_two_swap = false;
        break;
      }
    }
    last_two_swap = last_two_swap &&
                    norm[static_cast<size_t>(rank - 2)] == rank - 1 &&
                    norm[static_cast<size_t>(rank - 1)] == rank - 2;
    if (last_two_swap) {
      const int64_t rows = a.dim(-2);
      const int64_t cols = a.dim(-1);
      const int64_t batch = a.numel() / std::max<int64_t>(1, rows * cols);
      const float* pa = a.data();
      float* po = out.data();
      runtime::ParallelFor(0, batch, GrainForWork(rows * cols),
                           [&](int64_t bb, int64_t be) {
        for (int64_t b = bb; b < be; ++b) {
          const float* src = pa + b * rows * cols;
          float* dst = po + b * rows * cols;
          for (int64_t r = 0; r < rows; ++r) {
            const float* s = src + r * cols;
            for (int64_t c = 0; c < cols; ++c) dst[c * rows + r] = s[c];
          }
        }
      });
      return;
    }
  }

  const auto in_strides = RowMajorStrides(a.shape());
  // Stride to advance in the *input* when the i-th *output* axis increments.
  std::vector<int64_t> gather_strides(static_cast<size_t>(rank));
  for (int64_t i = 0; i < rank; ++i) {
    gather_strides[static_cast<size_t>(i)] =
        in_strides[static_cast<size_t>(norm[static_cast<size_t>(i)])];
  }
  const float* pa = a.data();
  float* po = out.data();
  runtime::ParallelFor(0, a.numel(), kernel::kElementwiseGrain,
                       [&](int64_t cb, int64_t ce) {
    std::vector<int64_t> index(static_cast<size_t>(rank), 0);
    int64_t off = kernel::UnflattenOffset(cb, out_shape, gather_strides, index);
    for (int64_t i = cb; i < ce; ++i) {
      po[i] = pa[off];
      for (int64_t axis = rank - 1; axis >= 0; --axis) {
        const size_t u = static_cast<size_t>(axis);
        ++index[u];
        off += gather_strides[u];
        if (index[u] < out_shape[u]) break;
        off -= gather_strides[u] * out_shape[u];
        index[u] = 0;
      }
    }
  });
}

Tensor Permute(const Tensor& a, const std::vector<int64_t>& perm) {
  auto [norm, out_shape] = PermuteOutShape(a, perm);
  Tensor out = Tensor::Uninitialized(std::move(out_shape));
  PermuteInto(a, norm, out);
  if (optrace::Active()) {
    optrace::RecordedOp op;
    op.kind = optrace::OpKind::kPermute;
    op.inputs = {a};
    op.output = out;
    op.dims = std::move(norm);
    optrace::Record(std::move(op));
  }
  return out;
}

Tensor Transpose(const Tensor& a, int64_t dim0, int64_t dim1) {
  const int64_t rank = a.rank();
  dim0 = NormalizeDim(dim0, rank);
  dim1 = NormalizeDim(dim1, rank);
  std::vector<int64_t> perm(static_cast<size_t>(rank));
  for (int64_t i = 0; i < rank; ++i) perm[static_cast<size_t>(i)] = i;
  std::swap(perm[static_cast<size_t>(dim0)], perm[static_cast<size_t>(dim1)]);
  return Permute(a, perm);
}

namespace {

// Validates slice bounds; `dim` must already be normalized.
void CheckSliceArgs(const Tensor& a, int64_t dim, int64_t start,
                    int64_t length) {
  MSD_DEBUG_VALIDATE_TENSOR(a, "Slice");
  MSD_CHECK_GE(start, 0);
  MSD_CHECK_GE(length, 0);
  MSD_CHECK_LE(start + length, a.dim(dim))
      << "slice [" << start << ", " << start + length << ") out of range on axis "
      << dim << " of " << ShapeToString(a.shape());
}

}  // namespace

// msd-hot-path-safe: same contract as AddInto (row-block memcpy loop).
void SliceInto(const Tensor& a, int64_t dim, int64_t start, int64_t length,
               Tensor& out) {
  const int64_t rank = a.rank();
  dim = NormalizeDim(dim, rank);
  CheckSliceArgs(a, dim, start, length);
  Shape out_shape = a.shape();
  out_shape[static_cast<size_t>(dim)] = length;
  MSD_CHECK(out.shape() == out_shape)
      << "SliceInto output shape mismatch: " << ShapeToString(out.shape());
  // memcpy forbids overlap, and a slice is a shift — never an exact alias.
  MSD_DEBUG_CHECK_NO_ALIAS(out, a, "SliceInto");
  // View the tensor as [outer, a.dim(dim), inner] and copy row blocks.
  int64_t outer = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= a.dim(i);
  int64_t inner = 1;
  for (int64_t i = dim + 1; i < rank; ++i) inner *= a.dim(i);
  const int64_t in_dim = a.dim(dim);
  if (out.numel() == 0) return;
  const float* pa = a.data();
  float* po = out.data();
  runtime::ParallelFor(0, outer, GrainForWork(length * inner),
                       [&](int64_t cb, int64_t ce) {
    for (int64_t o = cb; o < ce; ++o) {
      const float* src = pa + (o * in_dim + start) * inner;
      float* dst = po + o * length * inner;
      std::memcpy(dst, src, static_cast<size_t>(length * inner) * sizeof(float));
    }
  });
}

// msd-hot-path-safe: batch assembly over pool-backed tensors; the small
// shape vectors are audited with it.
Tensor Slice(const Tensor& a, int64_t dim, int64_t start, int64_t length) {
  const int64_t rank = a.rank();
  dim = NormalizeDim(dim, rank);
  CheckSliceArgs(a, dim, start, length);
  Shape out_shape = a.shape();
  out_shape[static_cast<size_t>(dim)] = length;
  Tensor out = Tensor::Uninitialized(std::move(out_shape));
  SliceInto(a, dim, start, length, out);
  if (optrace::Active()) {
    optrace::RecordedOp op;
    op.kind = optrace::OpKind::kSlice;
    op.inputs = {a};
    op.output = out;
    op.dim = dim;
    op.start = start;
    op.length = length;
    optrace::Record(std::move(op));
  }
  return out;
}

// msd-hot-path-safe: same contract as AddInto. Fused
// out = a - Slice(src, dim, start, length): the residual-subtract chain
// without materializing the sliced component. The subtraction reads src
// directly at the sliced offsets, so per element it is bitwise the
// unfused Slice-then-SubInto pair (same two operands, one fsub).
void SliceSubInto(const Tensor& a, const Tensor& src, int64_t dim,
                  int64_t start, int64_t length, Tensor& out) {
  const int64_t rank = src.rank();
  dim = NormalizeDim(dim, rank);
  CheckSliceArgs(src, dim, start, length);
  Shape slice_shape = src.shape();
  slice_shape[static_cast<size_t>(dim)] = length;
  MSD_CHECK(a.shape() == slice_shape)
      << "SliceSubInto: minuend shape " << ShapeToString(a.shape())
      << " != slice shape " << ShapeToString(slice_shape);
  MSD_CHECK(out.shape() == slice_shape)
      << "SliceSubInto output shape mismatch: " << ShapeToString(out.shape());
  MSD_DEBUG_CHECK_INTO_ALIAS(out, a, "SliceSubInto");
  MSD_DEBUG_CHECK_NO_ALIAS(out, src, "SliceSubInto");
  int64_t outer = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= src.dim(i);
  int64_t inner = 1;
  for (int64_t i = dim + 1; i < rank; ++i) inner *= src.dim(i);
  const int64_t in_dim = src.dim(dim);
  if (out.numel() == 0) return;
  const float* pa = a.data();
  const float* ps = src.data();
  float* po = out.data();
  runtime::ParallelFor(0, outer, GrainForWork(length * inner),
                       [&](int64_t cb, int64_t ce) {
    for (int64_t o = cb; o < ce; ++o) {
      const float* row_a = pa + o * length * inner;
      const float* row_s = ps + (o * in_dim + start) * inner;
      float* dst = po + o * length * inner;
      for (int64_t i = 0; i < length * inner; ++i) dst[i] = row_a[i] - row_s[i];
    }
  });
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t dim) {
  if (optrace::Active()) optrace::RecordUnsupported("Concat");
  MSD_CHECK(!parts.empty());
  for (const Tensor& p : parts) MSD_DEBUG_VALIDATE_TENSOR(p, "Concat");
  const int64_t rank = parts[0].rank();
  dim = NormalizeDim(dim, rank);
  int64_t total = 0;
  for (const Tensor& p : parts) {
    MSD_CHECK_EQ(p.rank(), rank);
    for (int64_t i = 0; i < rank; ++i) {
      if (i != dim) {
        MSD_CHECK_EQ(p.dim(i), parts[0].dim(i))
            << "concat shape mismatch on axis " << i;
      }
    }
    total += p.dim(dim);
  }
  Shape out_shape = parts[0].shape();
  out_shape[static_cast<size_t>(dim)] = total;
  Tensor out = Tensor::Uninitialized(out_shape);
  int64_t outer = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= out.dim(i);
  int64_t inner = 1;
  for (int64_t i = dim + 1; i < rank; ++i) inner *= out.dim(i);
  float* po = out.data();
  int64_t dst_offset_rows = 0;
  for (const Tensor& p : parts) {
    const int64_t p_dim = p.dim(dim);
    const float* pp = p.data();
    runtime::ParallelFor(0, outer, GrainForWork(p_dim * inner),
                         [&](int64_t cb, int64_t ce) {
      for (int64_t o = cb; o < ce; ++o) {
        float* dst = po + (o * total + dst_offset_rows) * inner;
        const float* src = pp + o * p_dim * inner;
        std::memcpy(dst, src, static_cast<size_t>(p_dim * inner) * sizeof(float));
      }
    });
    dst_offset_rows += p_dim;
  }
  return out;
}

// msd-hot-path-safe: same contract as AddInto (fill plus row memcpy).
void PadInto(const Tensor& a, int64_t dim, int64_t before, int64_t after,
             float value, Tensor& out) {
  MSD_DEBUG_VALIDATE_TENSOR(a, "Pad");
  const int64_t rank = a.rank();
  dim = NormalizeDim(dim, rank);
  MSD_CHECK_GE(before, 0);
  MSD_CHECK_GE(after, 0);
  Shape out_shape = a.shape();
  out_shape[static_cast<size_t>(dim)] += before + after;
  MSD_CHECK(out.shape() == out_shape)
      << "PadInto output shape mismatch: " << ShapeToString(out.shape());
  // The fill pre-pass would clobber an aliased input.
  MSD_DEBUG_CHECK_NO_ALIAS(out, a, "PadInto");
  if (out.numel() == 0) return;
  out.Fill(value);
  int64_t outer = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= a.dim(i);
  int64_t inner = 1;
  for (int64_t i = dim + 1; i < rank; ++i) inner *= a.dim(i);
  const int64_t in_dim = a.dim(dim);
  const int64_t out_dim = out.dim(dim);
  if (a.numel() == 0) return;
  const float* pa = a.data();
  float* po = out.data();
  runtime::ParallelFor(0, outer, GrainForWork(in_dim * inner),
                       [&](int64_t cb, int64_t ce) {
    for (int64_t o = cb; o < ce; ++o) {
      float* dst = po + (o * out_dim + before) * inner;
      const float* src = pa + o * in_dim * inner;
      std::memcpy(dst, src, static_cast<size_t>(in_dim * inner) * sizeof(float));
    }
  });
}

Tensor Pad(const Tensor& a, int64_t dim, int64_t before, int64_t after,
           float value) {
  const int64_t rank = a.rank();
  const int64_t norm_dim = NormalizeDim(dim, rank);
  Shape out_shape = a.shape();
  out_shape[static_cast<size_t>(norm_dim)] += before + after;
  Tensor out = Tensor::Uninitialized(std::move(out_shape));
  PadInto(a, norm_dim, before, after, value, out);
  if (optrace::Active()) {
    optrace::RecordedOp op;
    op.kind = optrace::OpKind::kPad;
    op.inputs = {a};
    op.output = out;
    op.dim = norm_dim;
    op.before = before;
    op.after = after;
    op.pad_value = value;
    optrace::Record(std::move(op));
  }
  return out;
}

// msd-hot-path-safe: same contract as AddInto (straight element copy;
// shapes may differ by reshape, numel must match).
void CopyInto(const Tensor& a, Tensor& out) {
  MSD_CHECK(a.defined());
  MSD_CHECK(out.defined());
  MSD_CHECK_EQ(a.numel(), out.numel());
  if (out.numel() == 0) return;
  if (out.data() == a.data()) return;  // exact alias: copy is a no-op
  MSD_DEBUG_CHECK_NO_ALIAS(out, a, "CopyInto");
  std::memcpy(out.data(), a.data(),
              static_cast<size_t>(a.numel()) * sizeof(float));
}

// msd-hot-path-safe: same contract as Slice.
Tensor Stack(const std::vector<Tensor>& parts) {
  if (optrace::Active()) optrace::RecordUnsupported("Stack");
  MSD_CHECK(!parts.empty());
  const Shape& base = parts[0].shape();
  Shape out_shape;
  out_shape.push_back(static_cast<int64_t>(parts.size()));
  out_shape.insert(out_shape.end(), base.begin(), base.end());
  Tensor out = Tensor::Uninitialized(out_shape);
  const int64_t chunk = parts[0].numel();
  float* po = out.data();
  runtime::ParallelFor(
      0, static_cast<int64_t>(parts.size()), 1, [&](int64_t cb, int64_t ce) {
        for (int64_t i = cb; i < ce; ++i) {
          MSD_CHECK(parts[static_cast<size_t>(i)].shape() == base)
              << "stack shape mismatch";
          std::memcpy(po + i * chunk, parts[static_cast<size_t>(i)].data(),
                      static_cast<size_t>(chunk) * sizeof(float));
        }
      });
  return out;
}

Tensor Softmax(const Tensor& a, int64_t dim) {
  // Composed from parallel kernels: MaxReduce / ZipKernel / MapKernel / Sum
  // all dispatch through the runtime.
  const Tensor max = MaxReduce(a, dim, /*keepdim=*/true);
  const Tensor e = Exp(Sub(a, max));
  const Tensor z = Sum(e, {dim}, /*keepdim=*/true);
  return Div(e, z);
}

bool AllClose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  // int partials, not bool: std::vector<bool> packs bits, and concurrent
  // chunk writes to adjacent bits would race.
  return ReduceKernel(
             a, 1,
             [&](int64_t cb, int64_t ce) {
               for (int64_t i = cb; i < ce; ++i) {
                 const float diff = std::fabs(pa[i] - pb[i]);
                 if (diff > atol + rtol * std::fabs(pb[i])) return 0;
               }
               return 1;
             },
             [](int x, int y) { return x & y; }) != 0;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  MSD_CHECK(a.shape() == b.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  return ReduceKernel(
      a, 0.0f,
      [&](int64_t cb, int64_t ce) {
        float best = 0.0f;
        for (int64_t i = cb; i < ce; ++i) {
          best = std::max(best, std::fabs(pa[i] - pb[i]));
        }
        return best;
      },
      [](float x, float y) { return std::max(x, y); });
}

bool HasNonFinite(const Tensor& a) {
  const float* p = a.data();
  return ReduceKernel(
             a, 0,
             [p](int64_t cb, int64_t ce) {
               for (int64_t i = cb; i < ce; ++i) {
                 if (!std::isfinite(p[i])) return 1;
               }
               return 0;
             },
             [](int x, int y) { return x | y; }) != 0;
}

}  // namespace msd
