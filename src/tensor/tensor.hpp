#pragma once
// Dense float tensor with NCHW-style row-major layout.
//
// This is the numeric substrate for the from-scratch neural-network library
// (ls::nn) that the paper's training-side contribution (group-Lasso
// communication-aware sparsification) is built on. We keep it deliberately
// small: contiguous float storage, shape algebra, and the handful of
// element-wise helpers the layers need.

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ls::tensor {

/// Shape of a tensor; rank 1..4. For activations the convention is
/// {N, C, H, W}; for conv weights {Cout, Cin, Kh, Kw}; for FC weights
/// {Out, In}.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::size_t> dims);
  explicit Shape(std::vector<std::size_t> dims);

  std::size_t rank() const { return dims_.size(); }
  std::size_t dim(std::size_t i) const;
  std::size_t operator[](std::size_t i) const { return dim(i); }
  std::size_t numel() const;
  bool empty() const { return dims_.empty(); }

  const std::vector<std::size_t>& dims() const { return dims_; }
  std::string to_string() const;

  friend bool operator==(const Shape& a, const Shape& b) {
    return a.dims_ == b.dims_;
  }

 private:
  std::vector<std::size_t> dims_;
};

/// std::allocator whose value-less construct() default-initializes, so
/// resizing a float vector leaves the new elements unwritten. Construction
/// from a value (a fill, a copy) falls back to std::construct_at.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  // Declared so no std::allocator<T>::rebind is inherited.
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape, float fill = 0.0f);

  /// A tensor whose elements are left unwritten, for outputs a kernel
  /// overwrites in full (DESIGN.md §4b, "Write-once tensors"). Checked
  /// builds (LS_CHECKS) fill it with quiet NaN instead, so an element the
  /// kernel forgets trips Network::forward's all_finite layer guard.
  static Tensor uninit(Shape shape);
  static Tensor zeros(Shape shape) { return Tensor(std::move(shape), 0.0f); }
  static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }
  /// He/Kaiming-normal initialization for a weight tensor with the given
  /// fan-in, drawn from the supplied RNG for reproducibility.
  static Tensor he_normal(Shape shape, std::size_t fan_in, util::Rng& rng);
  static Tensor uniform(Shape shape, float lo, float hi, util::Rng& rng);
  static Tensor from_data(Shape shape, std::vector<float> data);

  const Shape& shape() const { return shape_; }
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return data_; }
  std::span<const float> span() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// Checked flat access.
  float& at(std::size_t i);
  float at(std::size_t i) const;

  /// 4D accessors for {N,C,H,W} tensors.
  float& at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w);
  float at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const;

  /// 2D accessors for {rows, cols} tensors.
  float& at2(std::size_t r, std::size_t c);
  float at2(std::size_t r, std::size_t c) const;

  /// Reinterprets the data with a new shape of equal numel. The rvalue
  /// form moves the storage instead of copying it.
  Tensor reshaped(Shape new_shape) const&;
  Tensor reshaped(Shape new_shape) &&;

  void fill(float v);
  void zero() { fill(0.0f); }

  /// this += alpha * other (shapes must match).
  void axpy(float alpha, const Tensor& other);
  /// this *= alpha
  void scale(float alpha);

  double sum() const;
  double sum_squares() const;
  float max_abs() const;
  /// Count of exactly-zero elements (used for sparsity reporting).
  std::size_t count_zeros() const;

  /// True iff every element is finite (no NaN/Inf). Probe for the checked-
  /// build layer-boundary guards (src/check); also useful in tests.
  bool all_finite() const;

  /// Quantize every element through 16-bit fixed point (FracBits fractional
  /// bits) — models deployment on the fixed-point accelerator cores.
  void quantize_fixed16(int frac_bits);

 private:
  std::size_t flat4(std::size_t n, std::size_t c, std::size_t h,
                    std::size_t w) const;

  Shape shape_;
  std::vector<float, DefaultInitAllocator<float>> data_;
};

/// Element-wise |a-b| max; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace ls::tensor
