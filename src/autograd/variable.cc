#include "autograd/variable.h"

#include <algorithm>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "runtime/parallel.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"

namespace msd {

namespace {

// Graph recording toggle for NoGradGuard. Tape construction stays on the
// thread that runs the training loop (parallelism lives below the op layer,
// in src/runtime/); thread_local keeps the toggle safe for pool workers that
// run forward math inside kernels.
thread_local bool g_grad_enabled = true;

#if MSD_DEBUG_CHECKS_ENABLED
// Tape-lint registry of requires-grad leaves created on this thread, used by
// the dropped-leaf scan at the end of Backward(). Expired entries are pruned
// on every sweep so the registry tracks live parameters only.
thread_local std::vector<std::weak_ptr<AutogradNode>> g_debug_leaves;
#endif

// In-place dst += src (same shape). Parallel over fixed chunks: each element
// is touched by exactly one chunk, so accumulation stays deterministic.
void AddInto(Tensor& dst, const Tensor& src) {
  MSD_CHECK(dst.shape() == src.shape());
  float* d = dst.data();
  const float* s = src.data();
  const int64_t n = dst.numel();
  MSD_DCHECK(!debug::RangesOverlap(
      d, n * static_cast<int64_t>(sizeof(float)), s,
      n * static_cast<int64_t>(sizeof(float))))
      << "gradient accumulation would read its own output buffer";
  runtime::ParallelFor(0, n, kernel::kElementwiseGrain,
                       [&](int64_t cb, int64_t ce) {
                         for (int64_t i = cb; i < ce; ++i) d[i] += s[i];
                       });
}

}  // namespace

void AccumulateGrad(AutogradNode& node, const Tensor& g) {
  if (!node.requires_grad) return;
  Tensor reduced = ReduceTo(g, node.value.shape());
#if MSD_DEBUG_CHECKS_ENABLED
  {
    const int64_t bad = debug::FirstNonFinite(reduced.data(), reduced.numel());
    MSD_CHECK_EQ(bad, -1) << "debug check: non-finite gradient (element "
                          << bad << " of shape "
                          << ShapeToString(node.value.shape()) << ")";
  }
#endif
  if (!node.grad.defined()) {
    // Clone: `reduced` may alias `g` (ReduceTo is a pass-through when shapes
    // match) and the caller may reuse that buffer.
    node.grad = reduced.Clone();
  } else {
    AddInto(node.grad, reduced);
  }
}

Variable::Variable(Tensor value, bool requires_grad) {
  MSD_CHECK(value.defined());
  node_ = std::make_shared<AutogradNode>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
#if MSD_DEBUG_CHECKS_ENABLED
  if (requires_grad) g_debug_leaves.push_back(node_);
#endif
}

const Tensor& Variable::value() const {
  MSD_CHECK(defined());
  return node_->value;
}

Tensor& Variable::mutable_value() {
  MSD_CHECK(defined());
  return node_->value;
}

const Tensor& Variable::grad() const {
  MSD_CHECK(defined());
  return node_->grad;
}

Tensor& Variable::mutable_grad() {
  MSD_CHECK(defined());
  return node_->grad;
}

bool Variable::has_grad() const { return defined() && node_->grad.defined(); }

void Variable::ZeroGrad() {
  MSD_CHECK(defined());
  node_->grad = Tensor();
}

bool Variable::requires_grad() const {
  MSD_CHECK(defined());
  return node_->requires_grad;
}

void Variable::Backward() const {
  MSD_CHECK(defined());
  MSD_CHECK_EQ(node_->value.numel(), 1)
      << "Backward() must start from a scalar loss";
  MSD_SPAN("autograd/backward");
#if MSD_DEBUG_CHECKS_ENABLED
  if (!g_grad_enabled) {
    debug::EmitTapeDiagnostic(
        "autograd: Backward() while gradient recording is disabled — a "
        "NoGradGuard is active (or was leaked), so this graph predates the "
        "guard and later steps will silently record nothing");
  }
#endif

  // Iterative post-order DFS to produce a topological order (parents before
  // children in `topo`), then sweep in reverse.
  std::vector<AutogradNode*> topo;
  std::unordered_set<AutogradNode*> visited;
  struct Frame {
    AutogradNode* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  size_t max_depth = 0;
  if (visited.insert(node_.get()).second) {
    stack.push_back({node_.get(), 0});
  }
  while (!stack.empty()) {
    max_depth = std::max(max_depth, stack.size());
    Frame& top = stack.back();
    if (top.next_parent < top.node->parents.size()) {
      AutogradNode* parent = top.node->parents[top.next_parent++].get();
      if (visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      topo.push_back(top.node);
      stack.pop_back();
    }
  }

  {
    // Tape telemetry: how big/deep the graphs we differentiate are.
    static obs::Counter& backward_calls =
        obs::MetricsRegistry::Global().GetCounter("autograd/backward_calls");
    static obs::Histogram& tape_nodes =
        obs::MetricsRegistry::Global().GetHistogram(
            "autograd/tape_nodes", {100.0, 1000.0, 10000.0, 100000.0});
    static obs::Gauge& tape_depth =
        obs::MetricsRegistry::Global().GetGauge("autograd/max_tape_depth");
    backward_calls.Add(1);
    tape_nodes.Observe(static_cast<double>(topo.size()));
    tape_depth.SetMax(static_cast<double>(max_depth));
  }

#if MSD_DEBUG_CHECKS_ENABLED
  // Tape lint: a second sweep over nodes whose backward closures already ran
  // double-accumulates gradients — the classic backward-after-backward bug.
  // Report once per sweep, not per node.
  bool reported_consumed = false;
  for (AutogradNode* n : topo) {
    if (n->backward_fn && n->debug_swept && !reported_consumed) {
      reported_consumed = true;
      debug::EmitTapeDiagnostic(
          "autograd: Backward() on an already-consumed tape — a node's "
          "backward closure is running a second time without the forward "
          "pass being recomputed, so gradients double-accumulate");
    }
  }
#endif

  node_->grad = Tensor::Ones(node_->value.shape());
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    AutogradNode* n = *it;
    if (n->backward_fn && n->grad.defined()) {
      // Per-node-kind attribution; compiles out with profiling off.
      MSD_SPAN(n->kind);
      n->backward_fn(*n);
#if MSD_DEBUG_CHECKS_ENABLED
      n->debug_swept = true;
#endif
    }
    // Free intermediate gradients (keep leaves', i.e. parameters').
    if (n->backward_fn) n->grad = Tensor();
  }

#if MSD_DEBUG_CHECKS_ENABLED
  // Tape lint: requires-grad leaves consumed by a recorded op but never
  // reached by a sweep were cut out of the graph (typically by a Detach() or
  // a value-level rebuild on the path to the loss) — they will never train.
  // Heuristic: a leaf feeding a *different* pending graph also trips this;
  // see docs/ANALYSIS.md. Capped to avoid drowning the sink.
  {
    int64_t reported_dropped = 0;
    std::vector<std::weak_ptr<AutogradNode>> live;
    live.reserve(g_debug_leaves.size());
    for (const auto& weak : g_debug_leaves) {
      std::shared_ptr<AutogradNode> leaf = weak.lock();
      if (!leaf) continue;  // parameter died; prune
      live.push_back(weak);
      if (visited.count(leaf.get()) > 0) {
        // Reached by this sweep: the "used" mark is consumed.
        leaf->debug_used_in_graph = false;
      } else if (leaf->debug_used_in_graph && !leaf->grad.defined() &&
                 reported_dropped < 8) {
        ++reported_dropped;
        leaf->debug_used_in_graph = false;  // report each drop once
        debug::EmitTapeDiagnostic(
            "autograd: requires-grad leaf of shape " +
            ShapeToString(leaf->value.shape()) +
            " was consumed by a recorded op but not reached by Backward() — "
            "dropped from the graph (Detach() on the path to the loss?)");
      }
    }
    g_debug_leaves.swap(live);
  }
#endif
}

Variable Variable::Detach() const {
  MSD_CHECK(defined());
  return Variable(node_->value, /*requires_grad=*/false);
}

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

bool NoGradGuard::GradEnabled() { return g_grad_enabled; }

}  // namespace msd
