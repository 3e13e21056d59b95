#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>

#include "common/error.h"

namespace matgpt {

MemoryTracker& MemoryTracker::instance() {
  static MemoryTracker tracker;
  return tracker;
}

void MemoryTracker::on_alloc(std::size_t bytes) {
  const std::size_t now = current_.fetch_add(bytes) + bytes;
  std::size_t prev_peak = peak_.load();
  while (now > prev_peak &&
         !peak_.compare_exchange_weak(prev_peak, now)) {
  }
}

void MemoryTracker::on_free(std::size_t bytes) { current_.fetch_sub(bytes); }

void MemoryTracker::reset_peak() { peak_.store(current_.load()); }

// The payload starts on a 64-byte cache line: a buffer over-allocated by
// one line, with `values` at its first line start. So a GEMM whose C is a
// whole tensor with a multiple of 16 floats per row splits into column
// panels that share no line (see kernels.h). The slack goes through the
// plain allocator: it costs ~0.5 MB (~1%) of servebench peak RSS, where
// an aligned allocator measured ~5 MB.
struct Tensor::Storage {
  static constexpr std::size_t kLineFloats = 64 / sizeof(float);

  explicit Storage(std::size_t n)
      : buffer(n + kLineFloats, 0.0f), values(line_start(buffer)), size(n) {
    MemoryTracker::instance().on_alloc(n * sizeof(float));
  }
  explicit Storage(const std::vector<float>& v) : Storage(v.size()) {
    std::copy(v.begin(), v.end(), values);
  }
  ~Storage() { MemoryTracker::instance().on_free(size * sizeof(float)); }
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  static float* line_start(std::vector<float>& buf) {
    const auto misalign = reinterpret_cast<std::uintptr_t>(buf.data()) % 64;
    return buf.data() + (64 - misalign) % 64 / sizeof(float);
  }

  std::vector<float> buffer;
  float* values;
  std::size_t size;  // payload floats, the slack line excluded
};

namespace {
std::int64_t shape_numel(const std::vector<std::int64_t>& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    MGPT_CHECK(d >= 0, "tensor dimensions must be non-negative");
    n *= d;
  }
  return n;
}
}  // namespace

Tensor::Tensor(std::vector<std::int64_t> shape)
    : shape_(std::move(shape)), numel_(shape_numel(shape_)) {
  storage_ = std::make_shared<Storage>(static_cast<std::size_t>(numel_));
}

Tensor Tensor::zeros(std::vector<std::int64_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::full(std::vector<std::int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.fill_(value);
  return t;
}

Tensor Tensor::from_data(std::vector<std::int64_t> shape,
                         std::vector<float> values) {
  const std::int64_t n = shape_numel(shape);
  MGPT_CHECK(static_cast<std::int64_t>(values.size()) == n,
             "from_data: " << values.size() << " values for shape with numel "
                           << n);
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = n;
  t.storage_ = std::make_shared<Storage>(values);
  return t;
}

Tensor Tensor::randn(std::vector<std::int64_t> shape, Rng& rng, float mean,
                     float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.span()) v = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

Tensor Tensor::uniform(std::vector<std::int64_t> shape, Rng& rng, float lo,
                       float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.span()) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

std::int64_t Tensor::dim(std::int64_t i) const {
  if (i < 0) i += ndim();
  MGPT_CHECK(i >= 0 && i < ndim(), "dim index out of range");
  return shape_[static_cast<std::size_t>(i)];
}

void Tensor::check_defined() const {
  MGPT_CHECK(storage_ != nullptr, "operation on an undefined tensor");
}

float* Tensor::data() {
  check_defined();
  return storage_->values;
}

const float* Tensor::data() const {
  check_defined();
  return storage_->values;
}

std::span<float> Tensor::span() {
  return {data(), static_cast<std::size_t>(numel_)};
}

std::span<const float> Tensor::span() const {
  return {data(), static_cast<std::size_t>(numel_)};
}

float& Tensor::operator[](std::int64_t flat_index) {
  MGPT_CHECK(flat_index >= 0 && flat_index < numel_, "flat index out of range");
  return data()[flat_index];
}

float Tensor::operator[](std::int64_t flat_index) const {
  MGPT_CHECK(flat_index >= 0 && flat_index < numel_, "flat index out of range");
  return data()[flat_index];
}

float& Tensor::at(std::int64_t i, std::int64_t j) {
  MGPT_CHECK(ndim() == 2, "2-index access on tensor of rank " << ndim());
  return data()[i * shape_[1] + j];
}

float& Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k) {
  MGPT_CHECK(ndim() == 3, "3-index access on tensor of rank " << ndim());
  return data()[(i * shape_[1] + j) * shape_[2] + k];
}

float& Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k,
                  std::int64_t l) {
  MGPT_CHECK(ndim() == 4, "4-index access on tensor of rank " << ndim());
  return data()[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
}

float Tensor::at(std::int64_t i, std::int64_t j) const {
  return const_cast<Tensor*>(this)->at(i, j);
}

float Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k) const {
  return const_cast<Tensor*>(this)->at(i, j, k);
}

float Tensor::at(std::int64_t i, std::int64_t j, std::int64_t k,
                 std::int64_t l) const {
  return const_cast<Tensor*>(this)->at(i, j, k, l);
}

Tensor Tensor::reshape(std::vector<std::int64_t> new_shape) const {
  check_defined();
  std::int64_t known = 1;
  std::ptrdiff_t infer = -1;
  for (std::size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      MGPT_CHECK(infer == -1, "reshape allows at most one -1 dimension");
      infer = static_cast<std::ptrdiff_t>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (infer >= 0) {
    MGPT_CHECK(known > 0 && numel_ % known == 0,
               "reshape cannot infer dimension for " << shape_str());
    new_shape[static_cast<std::size_t>(infer)] = numel_ / known;
  }
  MGPT_CHECK(shape_numel(new_shape) == numel_,
             "reshape numel mismatch: " << shape_str());
  Tensor view;
  view.storage_ = storage_;
  view.shape_ = std::move(new_shape);
  view.numel_ = numel_;
  return view;
}

Tensor Tensor::prefix_view(std::vector<std::int64_t> new_shape) const {
  check_defined();
  const std::int64_t n = shape_numel(new_shape);
  MGPT_CHECK(n <= numel_, "prefix_view numel " << n << " exceeds "
                                               << shape_str());
  Tensor view;
  view.storage_ = storage_;
  view.shape_ = std::move(new_shape);
  view.numel_ = n;
  return view;
}

Tensor Tensor::clone() const {
  check_defined();
  return from_data(shape_,
                   std::vector<float>(data(), data() + numel_));
}

Tensor Tensor::transposed_2d() const {
  MGPT_CHECK(ndim() == 2, "transposed_2d requires a rank-2 tensor");
  const std::int64_t rows = shape_[0];
  const std::int64_t cols = shape_[1];
  Tensor out({cols, rows});
  const float* src = data();
  float* dst = out.data();
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      dst[j * rows + i] = src[i * cols + j];
    }
  }
  return out;
}

Tensor& Tensor::fill_(float value) {
  check_defined();
  std::fill(data(), data() + numel_, value);
  return *this;
}

Tensor& Tensor::add_(const Tensor& other, float scale) {
  check_defined();
  MGPT_CHECK(other.numel_ == numel_,
             "add_: numel mismatch " << shape_str() << " vs "
                                     << other.shape_str());
  float* dst = data();
  const float* src = other.data();
  for (std::int64_t i = 0; i < numel_; ++i) dst[i] += scale * src[i];
  return *this;
}

Tensor& Tensor::scale_(float factor) {
  check_defined();
  for (float& v : span()) v *= factor;
  return *this;
}

Tensor& Tensor::quantize_(DType dtype) {
  check_defined();
  if (dtype == DType::kFloat32) return *this;
  for (float& v : span()) v = round_to(dtype, v);
  return *this;
}

double Tensor::l2_norm() const {
  check_defined();
  double acc = 0.0;
  for (float v : span()) acc += static_cast<double>(v) * v;
  return std::sqrt(acc);
}

double Tensor::sum() const {
  check_defined();
  double acc = 0.0;
  for (float v : span()) acc += v;
  return acc;
}

float Tensor::max_abs() const {
  check_defined();
  float m = 0.0f;
  for (float v : span()) m = std::max(m, std::fabs(v));
  return m;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    os << (i ? ", " : "") << shape_[i];
  }
  os << "]";
  return os.str();
}

double dot(const Tensor& a, const Tensor& b) {
  MGPT_CHECK(a.numel() == b.numel(), "dot: numel mismatch");
  const float* pa = a.data();
  const float* pb = b.data();
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    acc += static_cast<double>(pa[i]) * pb[i];
  }
  return acc;
}

}  // namespace matgpt
