#include "nn/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "check/check.hpp"
#include "util/parallel.hpp"

namespace ls::nn::gemm {

namespace {

// Blocking constants. IB (rows per parallel chunk) is part of the
// determinism contract only in that it is a compile-time constant: chunk
// boundaries never depend on the thread count. KC groups the k reduction
// for cache reuse; because k blocks are visited in ascending order the
// per-element accumulation order is fixed.
constexpr std::size_t kRowBlock = 16;   // IB: C rows per parallel chunk
constexpr std::size_t kColBlock = 512;  // NC: C columns per cache block
constexpr std::size_t kRedBlock = 128;  // KC: k elements per cache block

// Work below this many MACs is not worth a pool dispatch.
constexpr std::size_t kParallelMinWork = 1 << 14;

std::size_t chunks_for(std::size_t rows) {
  return (rows + kRowBlock - 1) / kRowBlock;
}

[[gnu::always_inline]] inline void nn_block(
    std::size_t i0, std::size_t i1, std::size_t N, std::size_t K,
    const float* A, std::size_t lda, const float* B, std::size_t ldb,
    float* C, std::size_t ldc, bool accumulate) {
  for (std::size_t jj = 0; jj < N; jj += kColBlock) {
    const std::size_t jend = std::min(N, jj + kColBlock);
    if (!accumulate) {
      for (std::size_t i = i0; i < i1; ++i) {
        std::memset(C + i * ldc + jj, 0, (jend - jj) * sizeof(float));
      }
    }
    for (std::size_t kk = 0; kk < K; kk += kRedBlock) {
      const std::size_t kend = std::min(K, kk + kRedBlock);
      for (std::size_t i = i0; i < i1; ++i) {
        const float* a_row = A + i * lda;
        float* c_row = C + i * ldc;
        std::size_t k = kk;
        for (; k + 4 <= kend; k += 4) {
          const float a0 = a_row[k], a1 = a_row[k + 1];
          const float a2 = a_row[k + 2], a3 = a_row[k + 3];
          const float* b0 = B + k * ldb;
          const float* b1 = b0 + ldb;
          const float* b2 = b1 + ldb;
          const float* b3 = b2 + ldb;
          for (std::size_t j = jj; j < jend; ++j) {
            c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
          }
        }
        for (; k < kend; ++k) {
          const float a = a_row[k];
          const float* b = B + k * ldb;
          for (std::size_t j = jj; j < jend; ++j) c_row[j] += a * b[j];
        }
      }
    }
  }
}

[[gnu::always_inline]] inline void tn_block(
    std::size_t i0, std::size_t i1, std::size_t N, std::size_t K,
    const float* A, std::size_t lda, const float* B, std::size_t ldb,
    float* C, std::size_t ldc, bool accumulate) {
  if (!accumulate) {
    for (std::size_t i = i0; i < i1; ++i) {
      std::memset(C + i * ldc, 0, N * sizeof(float));
    }
  }
  // k outermost keeps the per-element reduction in ascending k order; the
  // C chunk (<= kRowBlock rows) stays cache-resident across k.
  for (std::size_t k = 0; k < K; ++k) {
    const float* a_col = A + k * lda;
    const float* b_row = B + k * ldb;
    for (std::size_t i = i0; i < i1; ++i) {
      const float a = a_col[i];
      float* c_row = C + i * ldc;
      for (std::size_t j = 0; j < N; ++j) c_row[j] += a * b_row[j];
    }
  }
}

// Checked-build probe at every sparse entry point: the mask's panel bounds
// must be monotonic and span exactly the reduction/output extents the call
// is using — a mismatched mask silently skips (or double-counts) k spans.
void check_mask_extents(const BlockMask& mask, std::size_t red_extent,
                        std::size_t out_extent) {
  LS_CHECK(mask.parts > 0);
  LS_CHECK_MSG(mask.k_bounds[mask.parts] == red_extent,
               "block mask k extent %zu != gemm reduction extent %zu",
               mask.k_bounds[mask.parts], red_extent);
  LS_CHECK_MSG(mask.out_bounds[mask.parts] == out_extent,
               "block mask out extent %zu != gemm output extent %zu",
               mask.out_bounds[mask.parts], out_extent);
  for (std::size_t p = 0; p < mask.parts; ++p) {
    LS_CHECK_MSG(mask.k_bounds[p] <= mask.k_bounds[p + 1] &&
                     mask.out_bounds[p] <= mask.out_bounds[p + 1],
                 "block mask bounds not monotonic at panel %zu", p);
  }
}

// --- Block-sparse helpers --------------------------------------------------
//
// live4[c * n_groups + m] != 0 iff the absolute 4-aligned k group
// [4m, 4m+4) intersects a producer panel p that is live for consumer c.
// Groups wholly inside pruned panels are skipped by the sparse kernels;
// straddling groups are computed in full — their pruned members are exact
// zeros in memory, so the unroll expression matches the dense kernel's.
std::size_t groups_of(std::size_t K) { return (K + 3) / 4; }

std::vector<std::uint8_t> build_group_live(const BlockMask& mask,
                                           std::size_t K) {
  const std::size_t n_groups = groups_of(K);
  std::vector<std::uint8_t> live(mask.parts * n_groups, 0);
  for (std::size_t c = 0; c < mask.parts; ++c) {
    std::uint8_t* row = live.data() + c * n_groups;
    for (std::size_t p = 0; p < mask.parts; ++p) {
      if (mask.zero[p * mask.parts + c]) continue;
      const std::size_t lo = mask.k_bounds[p], hi = mask.k_bounds[p + 1];
      if (lo >= hi) continue;
      for (std::size_t m = lo / 4; m <= (hi - 1) / 4; ++m) row[m] = 1;
    }
  }
  return live;
}

// Expands consumer panel bounds into a per-index consumer id.
std::vector<std::uint32_t> expand_consumers(const std::size_t* bounds,
                                            std::size_t parts,
                                            std::size_t n) {
  std::vector<std::uint32_t> owner(n, 0);
  for (std::size_t c = 0; c < parts; ++c) {
    for (std::size_t i = bounds[c]; i < bounds[c + 1] && i < n; ++i) {
      owner[i] = static_cast<std::uint32_t>(c);
    }
  }
  return owner;
}

// Merged live [begin, end) column intervals per consumer, for the tn
// variant (flat accumulation — no alignment needed).
struct LiveIntervals {
  std::vector<std::size_t> offsets;  ///< parts + 1 into spans
  std::vector<std::size_t> spans;    ///< begin/end pairs
};

LiveIntervals build_live_intervals(const BlockMask& mask) {
  LiveIntervals li;
  li.offsets.assign(mask.parts + 1, 0);
  for (std::size_t c = 0; c < mask.parts; ++c) {
    li.offsets[c] = li.spans.size();
    for (std::size_t p = 0; p < mask.parts; ++p) {
      if (mask.zero[p * mask.parts + c]) continue;
      const std::size_t lo = mask.k_bounds[p], hi = mask.k_bounds[p + 1];
      if (lo >= hi) continue;
      if (!li.spans.empty() && li.spans.size() > li.offsets[c] &&
          li.spans[li.spans.size() - 1] == lo) {
        li.spans[li.spans.size() - 1] = hi;  // merge contiguous panels
      } else {
        li.spans.push_back(lo);
        li.spans.push_back(hi);
      }
    }
  }
  li.offsets[mask.parts] = li.spans.size();
  return li;
}

[[gnu::always_inline]] inline void nn_block_sparse(
    std::size_t i0, std::size_t i1, std::size_t N, std::size_t K,
    const float* A, std::size_t lda, const float* B, std::size_t ldb,
    float* C, std::size_t ldc, bool accumulate,
    const std::uint32_t* row_consumer, const std::uint8_t* live4,
    std::size_t n_groups) {
  for (std::size_t jj = 0; jj < N; jj += kColBlock) {
    const std::size_t jend = std::min(N, jj + kColBlock);
    if (!accumulate) {
      for (std::size_t i = i0; i < i1; ++i) {
        std::memset(C + i * ldc + jj, 0, (jend - jj) * sizeof(float));
      }
    }
    for (std::size_t kk = 0; kk < K; kk += kRedBlock) {
      const std::size_t kend = std::min(K, kk + kRedBlock);
      for (std::size_t i = i0; i < i1; ++i) {
        const float* a_row = A + i * lda;
        float* c_row = C + i * ldc;
        const std::uint8_t* live = live4 + row_consumer[i] * n_groups;
        std::size_t k = kk;
        for (; k + 4 <= kend; k += 4) {
          if (!live[k >> 2]) continue;
          const float a0 = a_row[k], a1 = a_row[k + 1];
          const float a2 = a_row[k + 2], a3 = a_row[k + 3];
          const float* b0 = B + k * ldb;
          const float* b1 = b0 + ldb;
          const float* b2 = b1 + ldb;
          const float* b3 = b2 + ldb;
          for (std::size_t j = jj; j < jend; ++j) {
            c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
          }
        }
        for (; k < kend; ++k) {
          if (!live[k >> 2]) continue;
          const float a = a_row[k];
          const float* b = B + k * ldb;
          for (std::size_t j = jj; j < jend; ++j) c_row[j] += a * b[j];
        }
      }
    }
  }
}

// Merged runs of consecutive live 4-aligned k groups per consumer, so the
// nt inner reduction iterates contiguous spans (vectorizable) instead of
// branching on liveness per group of 4.
struct LiveGroupRuns {
  std::vector<std::size_t> offsets;  ///< parts + 1 into runs
  std::vector<std::size_t> runs;     ///< begin/end group-index pairs
};

LiveGroupRuns build_live_group_runs(const std::uint8_t* live4,
                                    std::size_t parts, std::size_t n_groups) {
  LiveGroupRuns r;
  r.offsets.assign(parts + 1, 0);
  for (std::size_t c = 0; c < parts; ++c) {
    r.offsets[c] = r.runs.size();
    const std::uint8_t* row = live4 + c * n_groups;
    std::size_t g = 0;
    while (g < n_groups) {
      if (!row[g]) {
        ++g;
        continue;
      }
      std::size_t e = g;
      while (e < n_groups && row[e]) ++e;
      r.runs.push_back(g);
      r.runs.push_back(e);
      g = e;
    }
  }
  r.offsets[parts] = r.runs.size();
  return r;
}

[[gnu::always_inline]] inline void nt_block_sparse(
    std::size_t j0, std::size_t j1, std::size_t M, std::size_t K,
    const float* A, std::size_t lda, const float* B, std::size_t ldb,
    float* C, std::size_t ldc, bool accumulate,
    const std::uint32_t* col_consumer, const LiveGroupRuns& lr) {
  for (std::size_t i = 0; i < M; ++i) {
    const float* a_row = A + i * lda;
    float* c_row = C + i * ldc;
    for (std::size_t j = j0; j < j1; ++j) {
      const float* b_row = B + j * ldb;
      const std::size_t c = col_consumer[j];
      const std::size_t s0 = lr.offsets[c], s1 = lr.offsets[c + 1];
      // Ascending live runs with the dense kernel's accumulator structure:
      // acc0..3 over whole 4-aligned groups, `tail` over the final partial
      // group. Skipped groups added exact zeros in the dense kernel, so
      // the result is bit-identical.
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      float tail = 0.0f;
      for (std::size_t s = s0; s < s1; s += 2) {
        const std::size_t kb = lr.runs[s] * 4;
        const std::size_t klim = std::min(K, lr.runs[s + 1] * 4);
        // Counted loop over whole groups with run-base pointers: gcc emits
        // the same SIMD reduction as the dense kernel; the open-coded
        // `k + 4 <= klim` form stays scalar.
        const std::size_t n_full = (klim - kb) / 4;
        const float* ap = a_row + kb;
        const float* bp = b_row + kb;
        for (std::size_t m = 0; m < n_full; ++m) {
          acc0 += ap[4 * m] * bp[4 * m];
          acc1 += ap[4 * m + 1] * bp[4 * m + 1];
          acc2 += ap[4 * m + 2] * bp[4 * m + 2];
          acc3 += ap[4 * m + 3] * bp[4 * m + 3];
        }
        for (std::size_t k = kb + 4 * n_full; k < klim; ++k) {
          tail += a_row[k] * b_row[k];
        }
      }
      const float sum = ((acc0 + acc1) + (acc2 + acc3)) + tail;
      c_row[j] = accumulate ? c_row[j] + sum : sum;
    }
  }
}

[[gnu::always_inline]] inline void tn_block_sparse(
    std::size_t i0, std::size_t i1, std::size_t N, std::size_t K,
    const float* A, std::size_t lda, const float* B, std::size_t ldb,
    float* C, std::size_t ldc, bool accumulate,
    const std::uint32_t* k_consumer, const LiveIntervals& li) {
  if (!accumulate) {
    for (std::size_t i = i0; i < i1; ++i) {
      std::memset(C + i * ldc, 0, N * sizeof(float));
    }
  }
  for (std::size_t k = 0; k < K; ++k) {
    const float* a_col = A + k * lda;
    const float* b_row = B + k * ldb;
    const std::size_t c = k_consumer[k];
    const std::size_t s0 = li.offsets[c], s1 = li.offsets[c + 1];
    if (s0 == s1) continue;  // every producer pruned for this consumer
    for (std::size_t i = i0; i < i1; ++i) {
      const float a = a_col[i];
      float* c_row = C + i * ldc;
      for (std::size_t s = s0; s < s1; s += 2) {
        const std::size_t jb = li.spans[s], je = li.spans[s + 1];
        for (std::size_t j = jb; j < je; ++j) c_row[j] += a * b_row[j];
      }
    }
  }
}

[[gnu::always_inline]] inline void nt_block(
    std::size_t j0, std::size_t j1, std::size_t M, std::size_t K,
    const float* A, std::size_t lda, const float* B, std::size_t ldb,
    float* C, std::size_t ldc, bool accumulate) {
  for (std::size_t i = 0; i < M; ++i) {
    const float* a_row = A + i * lda;
    float* c_row = C + i * ldc;
    for (std::size_t j = j0; j < j1; ++j) {
      const float* b_row = B + j * ldb;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      std::size_t k = 0;
      for (; k + 4 <= K; k += 4) {
        acc0 += a_row[k] * b_row[k];
        acc1 += a_row[k + 1] * b_row[k + 1];
        acc2 += a_row[k + 2] * b_row[k + 2];
        acc3 += a_row[k + 3] * b_row[k + 3];
      }
      float tail = 0.0f;
      for (; k < K; ++k) tail += a_row[k] * b_row[k];
      const float sum = ((acc0 + acc1) + (acc2 + acc3)) + tail;
      c_row[j] = accumulate ? c_row[j] + sum : sum;
    }
  }
}

// ---------------------------------------------------------------------------
// ISA dispatch. The six block kernels above are always_inline bodies built
// three times: a portable clone for the x86-64 baseline (SSE2) and, where
// the toolchain supports `target` attributes, AVX2 and AVX-512F clones
// (no global -march change: the rest of the binary stays portable). One
// table is picked once by cpuid at first use.
//
// The clones keep every bit. Vector lanes only ever run along an output
// dimension (nn/tn/sparse: columns j of C) or hold the four fixed partial
// sums of the nt unroll, so each output element sees the same operations
// in the same order at any width, and without -ffast-math the compiler
// may not reassociate them. What a wider target could change is
// contraction of `a * b + c` into an FMA: this file is compiled with
// -ffp-contract=off (src/nn/CMakeLists.txt), so every host, -march=native
// included, produces the portable build's bits. GemmGolden in
// tests/nn/gemm_golden_test.cpp pins them for both tables.
// ---------------------------------------------------------------------------

struct KernelTable {
  decltype(&nn_block) nn, tn, nt;  // the three dense kernels share a type
  decltype(&nn_block_sparse) nn_sparse;
  decltype(&nt_block_sparse) nt_sparse;
  decltype(&tn_block_sparse) tn_sparse;
  const char* isa;
};

// One wrapper per target; `Body` is inlined into it, and the parameter
// types are deduced from the table slot the wrapper initializes.
template <auto Body, typename... Args>
void portable_clone(Args... args) {
  Body(args...);
}

#define LS_GEMM_TABLE(clone, isa)                                      \
  KernelTable {                                                        \
    clone<nn_block>, clone<tn_block>, clone<nt_block>,                 \
        clone<nn_block_sparse>, clone<nt_block_sparse>,                \
        clone<tn_block_sparse>, isa                                    \
  }

constexpr KernelTable kPortable = LS_GEMM_TABLE(portable_clone, "portable");

#if defined(__x86_64__) && defined(__GNUC__)
#define LS_GEMM_ISA_CLONES 1

template <auto Body, typename... Args>
[[gnu::target("avx2")]] void avx2_clone(Args... args) {
  Body(args...);
}

template <auto Body, typename... Args>
[[gnu::target("avx512f")]] void avx512f_clone(Args... args) {
  Body(args...);
}

constexpr KernelTable kAvx2 = LS_GEMM_TABLE(avx2_clone, "avx2");
constexpr KernelTable kAvx512f = LS_GEMM_TABLE(avx512f_clone, "avx512f");
#endif

#undef LS_GEMM_TABLE

const KernelTable& dispatched_table() {
  static const KernelTable& table = []() -> const KernelTable& {
#if defined(LS_GEMM_ISA_CLONES)
    if (__builtin_cpu_supports("avx512f")) return kAvx512f;
    if (__builtin_cpu_supports("avx2")) return kAvx2;
#endif
    return kPortable;
  }();
  return table;
}

std::atomic<bool> g_force_portable{false};

const KernelTable& kernels() {
  return g_force_portable.load(std::memory_order_relaxed) ? kPortable
                                                          : dispatched_table();
}

}  // namespace

const char* kernel_isa() { return dispatched_table().isa; }

namespace testing {
void use_portable_kernels(bool on) {
  g_force_portable.store(on, std::memory_order_relaxed);
}
}  // namespace testing

void gemm_nn(std::size_t M, std::size_t N, std::size_t K, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate, bool parallel) {
  if (M == 0 || N == 0) return;
  const KernelTable& kern = kernels();
  if (parallel && M * N * K >= kParallelMinWork && M > kRowBlock) {
    util::parallel_for(0, chunks_for(M), [&](std::size_t c) {
      const std::size_t i0 = c * kRowBlock;
      kern.nn(i0, std::min(M, i0 + kRowBlock), N, K, A, lda, B, ldb, C, ldc,
              accumulate);
    });
    return;
  }
  kern.nn(0, M, N, K, A, lda, B, ldb, C, ldc, accumulate);
}

void gemm_tn(std::size_t M, std::size_t N, std::size_t K, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate, bool parallel) {
  if (M == 0 || N == 0) return;
  const KernelTable& kern = kernels();
  if (parallel && M * N * K >= kParallelMinWork && M > kRowBlock) {
    util::parallel_for(0, chunks_for(M), [&](std::size_t c) {
      const std::size_t i0 = c * kRowBlock;
      kern.tn(i0, std::min(M, i0 + kRowBlock), N, K, A, lda, B, ldb, C, ldc,
              accumulate);
    });
    return;
  }
  kern.tn(0, M, N, K, A, lda, B, ldb, C, ldc, accumulate);
}

void gemm_nt(std::size_t M, std::size_t N, std::size_t K, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate, bool parallel) {
  if (M == 0 || N == 0) return;
  const KernelTable& kern = kernels();
  if (parallel && M * N * K >= kParallelMinWork && N > kRowBlock) {
    util::parallel_for(0, chunks_for(N), [&](std::size_t c) {
      const std::size_t j0 = c * kRowBlock;
      kern.nt(j0, std::min(N, j0 + kRowBlock), M, K, A, lda, B, ldb, C, ldc,
              accumulate);
    });
    return;
  }
  kern.nt(0, N, M, K, A, lda, B, ldb, C, ldc, accumulate);
}

void gemm_nn_sparse(std::size_t M, std::size_t N, std::size_t K,
                    const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* C, std::size_t ldc,
                    bool accumulate, bool parallel, const BlockMask& mask) {
  if (M == 0 || N == 0) return;
  const KernelTable& kern = kernels();
  if constexpr (check::kEnabled) check_mask_extents(mask, K, M);
  const auto row_consumer = expand_consumers(mask.out_bounds, mask.parts, M);
  const auto live4 = build_group_live(mask, K);
  const std::size_t n_groups = groups_of(K);
  if (parallel && M * N * K >= kParallelMinWork && M > kRowBlock) {
    util::parallel_for(0, chunks_for(M), [&](std::size_t c) {
      const std::size_t i0 = c * kRowBlock;
      kern.nn_sparse(i0, std::min(M, i0 + kRowBlock), N, K, A, lda, B, ldb, C,
                     ldc, accumulate, row_consumer.data(), live4.data(),
                     n_groups);
    });
    return;
  }
  kern.nn_sparse(0, M, N, K, A, lda, B, ldb, C, ldc, accumulate,
                 row_consumer.data(), live4.data(), n_groups);
}

void gemm_nt_sparse(std::size_t M, std::size_t N, std::size_t K,
                    const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* C, std::size_t ldc,
                    bool accumulate, bool parallel, const BlockMask& mask) {
  if (M == 0 || N == 0) return;
  const KernelTable& kern = kernels();
  if constexpr (check::kEnabled) check_mask_extents(mask, K, N);
  const auto col_consumer = expand_consumers(mask.out_bounds, mask.parts, N);
  const auto live4 = build_group_live(mask, K);
  const auto runs =
      build_live_group_runs(live4.data(), mask.parts, groups_of(K));
  if (parallel && M * N * K >= kParallelMinWork && N > kRowBlock) {
    util::parallel_for(0, chunks_for(N), [&](std::size_t c) {
      const std::size_t j0 = c * kRowBlock;
      kern.nt_sparse(j0, std::min(N, j0 + kRowBlock), M, K, A, lda, B, ldb, C,
                     ldc, accumulate, col_consumer.data(), runs);
    });
    return;
  }
  kern.nt_sparse(0, N, M, K, A, lda, B, ldb, C, ldc, accumulate,
                 col_consumer.data(), runs);
}

void gemm_tn_sparse(std::size_t M, std::size_t N, std::size_t K,
                    const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* C, std::size_t ldc,
                    bool accumulate, bool parallel, const BlockMask& mask) {
  if (M == 0 || N == 0) return;
  const KernelTable& kern = kernels();
  if constexpr (check::kEnabled) check_mask_extents(mask, N, K);
  const auto k_consumer = expand_consumers(mask.out_bounds, mask.parts, K);
  const auto li = build_live_intervals(mask);
  if (parallel && M * N * K >= kParallelMinWork && M > kRowBlock) {
    util::parallel_for(0, chunks_for(M), [&](std::size_t c) {
      const std::size_t i0 = c * kRowBlock;
      kern.tn_sparse(i0, std::min(M, i0 + kRowBlock), N, K, A, lda, B, ldb, C,
                     ldc, accumulate, k_consumer.data(), li);
    });
    return;
  }
  kern.tn_sparse(0, M, N, K, A, lda, B, ldb, C, ldc, accumulate,
                 k_consumer.data(), li);
}

namespace {

void pack_channel(const PackShape& s, const float* in_c, float* col,
                  std::size_t c) {
  const std::size_t cols = s.cols();
  for (std::size_t kh = 0; kh < s.K; ++kh) {
    for (std::size_t kw = 0; kw < s.K; ++kw) {
      float* dst = col + ((c * s.K + kh) * s.K + kw) * cols;
      for (std::size_t oh = 0; oh < s.OH; ++oh) {
        const std::ptrdiff_t ih =
            static_cast<std::ptrdiff_t>(oh * s.stride + kh) -
            static_cast<std::ptrdiff_t>(s.pad);
        float* dst_row = dst + oh * s.OW;
        if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(s.H)) {
          std::memset(dst_row, 0, s.OW * sizeof(float));
          continue;
        }
        const float* in_row = in_c + static_cast<std::size_t>(ih) * s.W;
        for (std::size_t ow = 0; ow < s.OW; ++ow) {
          const std::ptrdiff_t iw =
              static_cast<std::ptrdiff_t>(ow * s.stride + kw) -
              static_cast<std::ptrdiff_t>(s.pad);
          dst_row[ow] = (iw < 0 || iw >= static_cast<std::ptrdiff_t>(s.W))
                            ? 0.0f
                            : in_row[static_cast<std::size_t>(iw)];
        }
      }
    }
  }
}

}  // namespace

void im2col(const PackShape& s, const float* in, float* col) {
  for (std::size_t c = 0; c < s.channels; ++c) {
    pack_channel(s, in + c * s.H * s.W, col, c);
  }
}

void im2col_masked(const PackShape& s, const float* in, float* col,
                   const std::uint8_t* channel_skip) {
  const std::size_t cols = s.cols();
  const std::size_t k2 = s.K * s.K;
  std::size_t c = 0;
  while (c < s.channels) {
    if (!channel_skip[c]) {
      pack_channel(s, in + c * s.H * s.W, col, c);
      ++c;
      continue;
    }
    std::size_t b = c + 1;
    while (b < s.channels && channel_skip[b]) ++b;
    // Maximal skipped run [c, b) covers col rows [r0, r1). The sparse GEMM
    // only skips whole absolute 4-aligned unroll groups; a group straddling
    // the run boundary (and the K%4 tail) still reads rows inside the run,
    // so zero-fill those boundary rows. Interior rows stay garbage — no
    // live group can reach them.
    const std::size_t r0 = c * k2, r1 = b * k2;
    const std::size_t up = std::min(r1, (r0 + 3) & ~std::size_t{3});
    const std::size_t down = std::max(up, r1 & ~std::size_t{3});
    for (std::size_t r = r0; r < up; ++r) {
      std::memset(col + r * cols, 0, cols * sizeof(float));
    }
    for (std::size_t r = down; r < r1; ++r) {
      std::memset(col + r * cols, 0, cols * sizeof(float));
    }
    c = b;
  }
}

Im2rowCols::Im2rowCols(const PackShape& s, std::size_t j0, std::size_t n)
    : s_(s), off_(n), kh_(n), kw_(n) {
  const std::size_t k2 = s.K * s.K;
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t j = j0 + t;
    kh_[t] = static_cast<std::uint32_t>(j % k2 / s.K);
    kw_[t] = static_cast<std::uint32_t>(j % s.K);
    off_[t] = static_cast<std::ptrdiff_t>(j / k2 * s.H * s.W +
                                          kh_[t] * s.W + kw_[t]);
  }
}

void Im2rowCols::pack(const float* in, float* row) const {
  const std::size_t n = off_.size();
  const std::ptrdiff_t H = static_cast<std::ptrdiff_t>(s_.H);
  const std::ptrdiff_t W = static_cast<std::ptrdiff_t>(s_.W);
  const std::ptrdiff_t K = static_cast<std::ptrdiff_t>(s_.K);
  const std::ptrdiff_t* off = off_.data();
  for (std::size_t oh = 0; oh < s_.OH; ++oh) {
    const std::ptrdiff_t ih0 = static_cast<std::ptrdiff_t>(oh * s_.stride) -
                               static_cast<std::ptrdiff_t>(s_.pad);
    const bool rows_inside = ih0 >= 0 && ih0 + K <= H;
    for (std::size_t ow = 0; ow < s_.OW; ++ow) {
      const std::ptrdiff_t iw0 = static_cast<std::ptrdiff_t>(ow * s_.stride) -
                                 static_cast<std::ptrdiff_t>(s_.pad);
      float* dst = row + (oh * s_.OW + ow) * n;
      const std::ptrdiff_t base = ih0 * W + iw0;
      if (rows_inside && iw0 >= 0 && iw0 + K <= W) {
        // Every tap of this window is inside the image.
        const float* src = in + base;
        for (std::size_t t = 0; t < n; ++t) dst[t] = src[off[t]];
        continue;
      }
      for (std::size_t t = 0; t < n; ++t) {
        const std::ptrdiff_t ih = ih0 + kh_[t], iw = iw0 + kw_[t];
        dst[t] = (ih < 0 || ih >= H || iw < 0 || iw >= W) ? 0.0f
                                                          : in[base + off[t]];
      }
    }
  }
}

void row2im_add(const PackShape& s, const float* row, float* in_grad) {
  const std::size_t patch = s.patch();
  for (std::size_t oh = 0; oh < s.OH; ++oh) {
    for (std::size_t ow = 0; ow < s.OW; ++ow) {
      const float* src = row + (oh * s.OW + ow) * patch;
      for (std::size_t c = 0; c < s.channels; ++c) {
        float* in_c = in_grad + c * s.H * s.W;
        for (std::size_t kh = 0; kh < s.K; ++kh) {
          const std::ptrdiff_t ih =
              static_cast<std::ptrdiff_t>(oh * s.stride + kh) -
              static_cast<std::ptrdiff_t>(s.pad);
          if (ih < 0 || ih >= static_cast<std::ptrdiff_t>(s.H)) continue;
          const float* sr = src + (c * s.K + kh) * s.K;
          float* in_row = in_c + static_cast<std::size_t>(ih) * s.W;
          for (std::size_t kw = 0; kw < s.K; ++kw) {
            const std::ptrdiff_t iw =
                static_cast<std::ptrdiff_t>(ow * s.stride + kw) -
                static_cast<std::ptrdiff_t>(s.pad);
            if (iw < 0 || iw >= static_cast<std::ptrdiff_t>(s.W)) continue;
            in_row[static_cast<std::size_t>(iw)] += sr[kw];
          }
        }
      }
    }
  }
}

}  // namespace ls::nn::gemm
