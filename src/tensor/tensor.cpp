#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "check/check.hpp"
#include "util/fixed_point.hpp"

namespace ls::tensor {

Shape::Shape(std::initializer_list<std::size_t> dims) : dims_(dims) {
  if (dims_.empty() || dims_.size() > 4) {
    throw std::invalid_argument("shape rank must be 1..4");
  }
  for (std::size_t d : dims_) {
    if (d == 0) throw std::invalid_argument("zero-sized dimension");
  }
}

Shape::Shape(std::vector<std::size_t> dims) : dims_(std::move(dims)) {
  if (dims_.empty() || dims_.size() > 4) {
    throw std::invalid_argument("shape rank must be 1..4");
  }
  for (std::size_t d : dims_) {
    if (d == 0) throw std::invalid_argument("zero-sized dimension");
  }
}

std::size_t Shape::dim(std::size_t i) const {
  if (i >= dims_.size()) throw std::out_of_range("shape dim index");
  return dims_[i];
}

std::size_t Shape::numel() const {
  std::size_t n = 1;
  for (std::size_t d : dims_) n *= d;
  return dims_.empty() ? 0 : n;
}

std::string Shape::to_string() const {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) out << ',';
    out << dims_[i];
  }
  out << '}';
  return out.str();
}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shape_.numel(), fill) {}

Tensor Tensor::uninit(Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.resize(t.shape_.numel());
  if constexpr (check::kEnabled) {
    t.fill(std::numeric_limits<float>::quiet_NaN());
  }
  return t;
}

Tensor Tensor::he_normal(Shape shape, std::size_t fan_in, util::Rng& rng) {
  Tensor t(shape);
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

Tensor Tensor::uniform(Shape shape, float lo, float hi, util::Rng& rng) {
  Tensor t(shape);
  for (auto& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::from_data(Shape shape, std::vector<float> data) {
  if (shape.numel() != data.size()) {
    throw std::invalid_argument("from_data size mismatch");
  }
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.assign(data.begin(), data.end());
  return t;
}

float& Tensor::at(std::size_t i) {
  if (i >= data_.size()) throw std::out_of_range("tensor flat index");
  return data_[i];
}

float Tensor::at(std::size_t i) const {
  if (i >= data_.size()) throw std::out_of_range("tensor flat index");
  return data_[i];
}

std::size_t Tensor::flat4(std::size_t n, std::size_t c, std::size_t h,
                          std::size_t w) const {
  if (shape_.rank() != 4) throw std::logic_error("at4 on non-4D tensor");
  const std::size_t C = shape_[1], H = shape_[2], W = shape_[3];
  if (n >= shape_[0] || c >= C || h >= H || w >= W) {
    throw std::out_of_range("tensor 4D index");
  }
  return ((n * C + c) * H + h) * W + w;
}

float& Tensor::at4(std::size_t n, std::size_t c, std::size_t h,
                   std::size_t w) {
  return data_[flat4(n, c, h, w)];
}

float Tensor::at4(std::size_t n, std::size_t c, std::size_t h,
                  std::size_t w) const {
  return data_[flat4(n, c, h, w)];
}

float& Tensor::at2(std::size_t r, std::size_t c) {
  if (shape_.rank() != 2) throw std::logic_error("at2 on non-2D tensor");
  if (r >= shape_[0] || c >= shape_[1]) throw std::out_of_range("tensor 2D index");
  return data_[r * shape_[1] + c];
}

float Tensor::at2(std::size_t r, std::size_t c) const {
  if (shape_.rank() != 2) throw std::logic_error("at2 on non-2D tensor");
  if (r >= shape_[0] || c >= shape_[1]) throw std::out_of_range("tensor 2D index");
  return data_[r * shape_[1] + c];
}

Tensor Tensor::reshaped(Shape new_shape) const& {
  return Tensor(*this).reshaped(std::move(new_shape));
}

Tensor Tensor::reshaped(Shape new_shape) && {
  if (new_shape.numel() != numel()) {
    throw std::invalid_argument("reshape numel mismatch");
  }
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = std::move(data_);
  return t;
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::axpy(float alpha, const Tensor& other) {
  if (!(shape_ == other.shape_)) {
    throw std::invalid_argument("axpy shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

void Tensor::scale(float alpha) {
  for (auto& v : data_) v *= alpha;
}

double Tensor::sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return s;
}

double Tensor::sum_squares() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return s;
}

float Tensor::max_abs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::abs(v));
  return m;
}

std::size_t Tensor::count_zeros() const {
  std::size_t n = 0;
  for (float v : data_) {
    if (v == 0.0f) ++n;
  }
  return n;
}

bool Tensor::all_finite() const {
  for (float v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

void Tensor::quantize_fixed16(int frac_bits) {
  auto quant = [frac_bits](float v) {
    switch (frac_bits) {
      case 4:
        return static_cast<float>(util::quantize_f16<4>(v));
      case 8:
        return static_cast<float>(util::quantize_f16<8>(v));
      case 12:
        return static_cast<float>(util::quantize_f16<12>(v));
      default:
        throw std::invalid_argument("unsupported frac_bits (use 4/8/12)");
    }
  };
  for (auto& v : data_) v = quant(v);
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  if (!(a.shape() == b.shape())) {
    throw std::invalid_argument("max_abs_diff shape mismatch");
  }
  float m = 0.0f;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

}  // namespace ls::tensor
