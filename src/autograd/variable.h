// Reverse-mode automatic differentiation over Tensor.
//
// A Variable is a cheap handle to a node in a dynamically-built computation
// graph (a "tape"). Differentiable ops (autograd/ops.h) create new nodes that
// remember their parents and a closure computing parent gradients from the
// node's own gradient. Calling Backward() on a scalar Variable runs a reverse
// topological sweep, accumulating gradients into every reachable node with
// requires_grad set (typically model parameters).
//
// Lifetime: children hold shared_ptrs to parents, never vice versa, so a
// graph is freed as soon as the last Variable referring to its sink dies.
// Leaf parameters survive across training steps; intermediate nodes do not.
#ifndef MSDMIXER_AUTOGRAD_VARIABLE_H_
#define MSDMIXER_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/debug.h"
#include "tensor/tensor.h"

namespace msd {

struct AutogradNode {
  Tensor value;
  // Undefined until the first gradient contribution arrives.
  Tensor grad;
  bool requires_grad = false;
  std::vector<std::shared_ptr<AutogradNode>> parents;
  // Reads this->grad and accumulates into parents' grads. Null for leaves
  // and for nodes created under NoGradGuard.
  std::function<void(AutogradNode&)> backward_fn;
  // Span label of this node's backward closure, "autograd/backward/<op>"
  // (a string literal set by the op that recorded it; null for leaves).
  const char* kind = nullptr;
#if MSD_DEBUG_CHECKS_ENABLED
  // Tape-linter state (debug-checks builds only; the flag is set globally by
  // CMake so every translation unit agrees on this layout). `debug_swept`
  // marks nodes whose backward_fn already ran; `debug_used_in_graph` marks
  // leaves consumed as parents of a recorded op since they were last reached
  // by a Backward() sweep. See common/debug.h and docs/ANALYSIS.md.
  bool debug_swept = false;
  bool debug_used_in_graph = false;
#endif
};

// Accumulates `g` into `node`'s gradient, reducing over broadcast dims so the
// stored gradient always matches the value's shape. No-op if the node does
// not require (or propagate) gradients.
void AccumulateGrad(AutogradNode& node, const Tensor& g);

class Variable {
 public:
  Variable() = default;
  // Wraps a tensor as a leaf. Parameters pass requires_grad=true.
  explicit Variable(Tensor value, bool requires_grad = false);
  // Wraps an existing node (used by ops).
  explicit Variable(std::shared_ptr<AutogradNode> node)
      : node_(std::move(node)) {}

  bool defined() const { return node_ != nullptr; }

  const Tensor& value() const;
  // Mutable access for optimizers; never call while a graph referencing this
  // leaf is still pending a Backward().
  Tensor& mutable_value();

  // Gradient accumulated by the last Backward() calls; undefined Tensor if
  // no gradient has arrived.
  const Tensor& grad() const;
  // Mutable gradient access for optimizers (e.g. in-place clipping).
  Tensor& mutable_grad();
  bool has_grad() const;
  void ZeroGrad();

  bool requires_grad() const;

  // Shape conveniences.
  const Shape& shape() const { return value().shape(); }
  int64_t rank() const { return value().rank(); }
  int64_t dim(int64_t axis) const { return value().dim(axis); }
  int64_t numel() const { return value().numel(); }
  float item() const { return value().item(); }

  // Runs reverse-mode differentiation from this (scalar) Variable, seeding
  // d(self)/d(self) = 1. Gradients *accumulate*; call ZeroGrad() on leaves
  // (or Optimizer::ZeroGrad) between steps.
  void Backward() const;

  // A new leaf Variable sharing this value but cut off from the graph.
  Variable Detach() const;

  const std::shared_ptr<AutogradNode>& node() const { return node_; }

 private:
  std::shared_ptr<AutogradNode> node_;
};

// RAII scope that disables graph recording: ops executed inside produce
// detached results. Use for evaluation loops to save memory and time.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  static bool GradEnabled();

 private:
  bool previous_;
};

}  // namespace msd

#endif  // MSDMIXER_AUTOGRAD_VARIABLE_H_
