#pragma once
// Dense row-major float32 tensor with shared storage.
//
// Design notes:
//  * Storage is always contiguous and starts on a 64-byte cache line;
//    reshape is a zero-copy view, transpose copies. This keeps every kernel
//    a flat loop over pointers, and threads splitting a GEMM's C by column
//    panels off one another's lines (see kernels.h).
//  * A process-wide allocation tracker records current/peak storage bytes so
//    experiments can measure activation-memory effects (e.g. flash vs.
//    materialized attention, Fig. 5) on the real engine.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/dtype.h"

namespace matgpt {

/// Process-wide tensor storage accounting (bytes of float32 payload).
class MemoryTracker {
 public:
  static MemoryTracker& instance();

  void on_alloc(std::size_t bytes);
  void on_free(std::size_t bytes);
  /// Reset the peak to the current level (start of a measured region).
  void reset_peak();

  std::size_t current_bytes() const { return current_.load(); }
  std::size_t peak_bytes() const { return peak_.load(); }

 private:
  std::atomic<std::size_t> current_{0};
  std::atomic<std::size_t> peak_{0};
};

class Tensor {
 public:
  /// Empty tensor (numel 0, no storage).
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<std::int64_t> shape);

  static Tensor zeros(std::vector<std::int64_t> shape);
  static Tensor full(std::vector<std::int64_t> shape, float value);
  static Tensor from_data(std::vector<std::int64_t> shape,
                          std::vector<float> values);
  static Tensor randn(std::vector<std::int64_t> shape, Rng& rng,
                      float mean = 0.0f, float stddev = 1.0f);
  static Tensor uniform(std::vector<std::int64_t> shape, Rng& rng, float lo,
                        float hi);

  bool defined() const { return storage_ != nullptr; }
  const std::vector<std::int64_t>& shape() const { return shape_; }
  std::int64_t ndim() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t dim(std::int64_t i) const;
  std::int64_t numel() const { return numel_; }

  float* data();
  const float* data() const;
  std::span<float> span();
  std::span<const float> span() const;

  float& operator[](std::int64_t flat_index);
  float operator[](std::int64_t flat_index) const;

  /// Element access by multi-index (2D/3D/4D convenience).
  float& at(std::int64_t i, std::int64_t j);
  float& at(std::int64_t i, std::int64_t j, std::int64_t k);
  float& at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l);
  float at(std::int64_t i, std::int64_t j) const;
  float at(std::int64_t i, std::int64_t j, std::int64_t k) const;
  float at(std::int64_t i, std::int64_t j, std::int64_t k,
           std::int64_t l) const;

  /// Zero-copy view with a new shape of equal numel. A single -1 dimension
  /// is inferred.
  Tensor reshape(std::vector<std::int64_t> new_shape) const;

  /// Zero-copy view of the leading prefix of this tensor's elements with the
  /// given shape (numel(shape) <= this->numel()). The view aliases this
  /// tensor's storage.
  Tensor prefix_view(std::vector<std::int64_t> new_shape) const;

  /// Deep copy.
  Tensor clone() const;

  /// 2D transpose (copies).
  Tensor transposed_2d() const;

  // In-place arithmetic helpers (non-autograd; optimizers use these).
  Tensor& fill_(float value);
  Tensor& add_(const Tensor& other, float scale = 1.0f);
  Tensor& scale_(float factor);
  /// Round every element through the given precision grid.
  Tensor& quantize_(DType dtype);

  /// Frobenius / L2 norm over all elements.
  double l2_norm() const;
  double sum() const;
  float max_abs() const;

  std::string shape_str() const;

 private:
  struct Storage;

  std::shared_ptr<Storage> storage_;
  std::vector<std::int64_t> shape_;
  std::int64_t numel_ = 0;

  void check_defined() const;
};

/// Dot product of two equal-length tensors (flat).
double dot(const Tensor& a, const Tensor& b);

}  // namespace matgpt
