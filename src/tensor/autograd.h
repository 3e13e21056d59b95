#pragma once
// Tape-based reverse-mode automatic differentiation.
//
// Ops append backward closures to a Tape as they execute; Tape::backward
// seeds the loss gradient and replays the closures in reverse. Variables are
// shared handles (Var) so a closure can hold its operands alive; gradients
// accumulate, so fan-out works without explicit "add" nodes.

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace matgpt {

/// A differentiable variable: a value tensor plus a lazily-allocated grad.
struct VarNode {
  Tensor value;
  Tensor grad;  // undefined until the first accumulation
  bool requires_grad = false;
  /// `value` is a [k, n] weight nn::Linear re-laid in place as
  /// kernels::pack_panels' panels (an inference engine prepared its
  /// model); read its bytes through nn::Linear::row_major.
  bool packed = false;

  /// Allocate (zeros like value) if needed, then return the grad tensor.
  Tensor& ensure_grad();
  /// grad += g (allocating on first use). No-op when !requires_grad.
  void accumulate(const Tensor& g);
  /// Drop the gradient storage (between steps).
  void zero_grad();
};

/// Shared handle to a VarNode.
class Var {
 public:
  Var() = default;
  explicit Var(std::shared_ptr<VarNode> node) : node_(std::move(node)) {}

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const { return node_->value; }
  Tensor& value() { return node_->value; }
  const Tensor& grad() const { return node_->grad; }
  bool requires_grad() const { return node_ && node_->requires_grad; }
  const std::shared_ptr<VarNode>& node() const { return node_; }

  /// Scalar convenience: the single element of a one-element value.
  float item() const;

 private:
  std::shared_ptr<VarNode> node_;
};

/// Create a tape-independent variable (model parameters live across steps).
Var make_var(Tensor value, bool requires_grad);

/// Records backward closures for one forward pass.
///
/// Usage per training step:
///   Tape tape;
///   Var loss = model.forward(tape, batch);
///   tape.backward(loss);
///   optimizer.step(); tape is then discarded or cleared.
class Tape {
 public:
  /// Wrap a tensor as a leaf variable.
  Var leaf(Tensor value, bool requires_grad);

  /// Wrap an op output; requires_grad is usually inherited from inputs.
  Var intermediate(Tensor value, bool requires_grad);

  /// Append a backward closure (runs in reverse order on backward()).
  void record(std::function<void()> backward_fn);

  /// Seed d(loss)/d(loss) = 1 for a scalar loss and replay the tape.
  void backward(const Var& loss);

  /// Disable recording (inference); closures are skipped entirely.
  void set_recording(bool recording) { recording_ = recording; }
  bool recording() const { return recording_; }

  std::size_t op_count() const { return ops_.size(); }
  void clear() { ops_.clear(); }

 private:
  std::vector<std::function<void()>> ops_;
  bool recording_ = true;
};

/// RAII guard that turns recording off for an inference region.
class NoGradGuard {
 public:
  explicit NoGradGuard(Tape& tape)
      : tape_(tape), previous_(tape.recording()) {
    tape_.set_recording(false);
  }
  ~NoGradGuard() { tape_.set_recording(previous_); }
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  Tape& tape_;
  bool previous_;
};

}  // namespace matgpt
