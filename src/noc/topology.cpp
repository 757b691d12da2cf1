#include "noc/topology.hpp"

#include <cmath>
#include <cstdlib>
#include <string>

namespace ls::noc {

MeshTopology::MeshTopology(std::size_t cols, std::size_t rows)
    : cols_(cols), rows_(rows) {
  if (cols == 0 || rows == 0) throw std::invalid_argument("empty mesh");
}

MeshTopology MeshTopology::for_cores(std::size_t cores) {
  if (cores == 0) throw std::invalid_argument("zero cores");
  // Pick the most-square factorization with cols >= rows.
  std::size_t best_rows = 1;
  for (std::size_t r = 1; r * r <= cores; ++r) {
    if (cores % r == 0) best_rows = r;
  }
  if (best_rows == 1 && cores >= 4) {
    throw std::invalid_argument(
        "MeshTopology::for_cores(" + std::to_string(cores) +
        "): near-square factorization degenerates to a 1x" +
        std::to_string(cores) +
        " chain; pick a core count with a 2D factorization");
  }
  return MeshTopology(cores / best_rows, best_rows);
}

Coord MeshTopology::coord(std::size_t core) const {
  if (core >= num_cores()) throw std::out_of_range("core id");
  return Coord{core % cols_, core / cols_};
}

std::size_t MeshTopology::core_at(Coord c) const {
  if (c.x >= cols_ || c.y >= rows_) throw std::out_of_range("mesh coord");
  return c.y * cols_ + c.x;
}

std::size_t MeshTopology::hops(std::size_t a, std::size_t b) const {
  const Coord ca = coord(a), cb = coord(b);
  const auto dx = static_cast<std::ptrdiff_t>(ca.x) -
                  static_cast<std::ptrdiff_t>(cb.x);
  const auto dy = static_cast<std::ptrdiff_t>(ca.y) -
                  static_cast<std::ptrdiff_t>(cb.y);
  return static_cast<std::size_t>(std::abs(dx) + std::abs(dy));
}

double MeshTopology::mean_hops() const {
  const std::size_t n = num_cores();
  if (n < 2) return 0.0;
  double total = 0.0;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a != b) total += static_cast<double>(hops(a, b));
    }
  }
  return total / static_cast<double>(n * (n - 1));
}

std::size_t MeshTopology::diameter() const {
  return (cols_ - 1) + (rows_ - 1);
}

}  // namespace ls::noc
