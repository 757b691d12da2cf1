#include "nn/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "check/check.hpp"
#include "nn/scratch.hpp"
#include "util/parallel.hpp"

namespace ls::nn::gemm {

namespace {

// Register tiles. The nn and tn kernels keep a kMr x kNr tile of C in
// registers for its whole reduction: the kNr columns are one strip of B,
// packed (lane tail zeroed) into the thread's scratch slot unless B
// already stores it contiguously. The nt kernel computes C^T: its tile
// rows are rows of B and its kNr lanes are rows of A, packed transposed,
// with four partial sums per output.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 16;

// Task blocks: one task owns at most kBlockRows x kBlockCols of C (of C^T
// for nt). Blocks only split rows and columns of C, never k, so every
// output element sees the same operations at any block size and thread
// count.
constexpr std::size_t kBlockRows = 64;
constexpr std::size_t kBlockCols = 128;

// Work below this many MACs is not worth a pool dispatch.
constexpr std::size_t kParallelMinWork = 1 << 14;

// The register each table is built for. A tile row is kNr floats: four
// SSE registers in the portable clone, two AVX2 ones, one AVX-512F one.
typedef float Vec4 __attribute__((vector_size(16)));
typedef float Vec8 __attribute__((vector_size(32)));
typedef float Vec16 __attribute__((vector_size(64)));

template <class V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
template <class V>
constexpr std::size_t kVecs = kNr / kLanes<V>;  // registers per tile row

// Ascending, disjoint [begin, end) k ranges a tile reduces over.
struct Spans {
  const std::size_t* pairs = nullptr;
  std::size_t count = 0;
  std::size_t end() const { return pairs[2 * count - 1]; }
};

// The spans of every tile in a call. They vary by panel along one
// dimension of C: rows for nn and nt (the consumer owning each weight
// row), columns for tn (the producer owning each weight column). A tile
// never straddles a panel, so each tile reduces over one list. A dense
// call has one panel and one span, [0, K).
struct SpanMap {
  const std::size_t* bounds = nullptr;   ///< parts + 1 panel bounds
  std::size_t parts = 0;
  const std::size_t* offsets = nullptr;  ///< parts + 1 indices into pairs
  const std::size_t* pairs = nullptr;    ///< begin/end pairs
  Spans pack;  ///< union over panels: the k rows nn and nt pack

  Spans of(std::size_t panel) const {
    return {pairs + offsets[panel],
            (offsets[panel + 1] - offsets[panel]) / 2};
  }
};

// Calls fn(lo, hi, panel) for each panel's nonempty share of [b0, b1).
template <class Fn>
[[gnu::always_inline]] inline void for_panels(const SpanMap& m,
                                              std::size_t b0, std::size_t b1,
                                              Fn&& fn) {
  for (std::size_t p = 0; p < m.parts; ++p) {
    const std::size_t lo = std::max(b0, m.bounds[p]);
    const std::size_t hi = std::min(b1, m.bounds[p + 1]);
    if (lo < hi) fn(lo, hi, p);
  }
}

// ---------------------------------------------------------------------------
// Per-element operation order (the bits GemmGolden pins):
//   nn: C += ((a0*b0 + a1*b1) + a2*b2) + a3*b3 for each 4-aligned group of
//       k, then C += a*b for each k of the K % 4 tail;
//   tn: C += a*b for each k, ascending;
//   nt: four partial sums over k % 4 and a tail sum, all from +0, then
//       C = ((acc0 + acc1) + (acc2 + acc3)) + tail (added into C when
//       accumulating).
// The sparse forms skip whole groups (nn, nt) or single k (tn) whose
// weights are pruned for the element's consumer. Vector lanes only run
// along an output dimension, so every lane performs its own element's
// operations in this order at any register width.
// ---------------------------------------------------------------------------

template <class V>
[[gnu::always_inline]] inline void load(V& v, const float* p) {
  std::memcpy(&v, p, sizeof(V));
}

template <class V>
[[gnu::always_inline]] inline void store(float* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}

// Loads the rows x w corner of a C tile (zeros when overwriting). Memory
// past the corner is never touched.
template <class V>
[[gnu::always_inline]] inline void load_tile(V (&acc)[kMr][kVecs<V>],
                                             const float* c, std::size_t ldc,
                                             std::size_t rows, std::size_t w,
                                             bool accumulate) {
  float buf[kMr][kNr] = {};
  const bool whole = rows == kMr && w == kNr;
  if (accumulate && !whole) {
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(buf[r], c + r * ldc, w * sizeof(float));
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < kMr; ++r) {
#pragma GCC unroll 4
    for (std::size_t v = 0; v < kVecs<V>; ++v) {
      load(acc[r][v], accumulate && whole ? c + r * ldc + v * kLanes<V>
                                          : &buf[r][v * kLanes<V>]);
    }
  }
}

template <class V>
[[gnu::always_inline]] inline void store_tile(
    const V (&acc)[kMr][kVecs<V>], float* c, std::size_t ldc,
    std::size_t rows, std::size_t w) {
  if (rows == kMr && w == kNr) {
#pragma GCC unroll 4
    for (std::size_t r = 0; r < kMr; ++r) {
#pragma GCC unroll 4
      for (std::size_t v = 0; v < kVecs<V>; ++v) {
        store(c + r * ldc + v * kLanes<V>, acc[r][v]);
      }
    }
    return;
  }
  float buf[kMr][kNr];
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t v = 0; v < kVecs<V>; ++v) {
      store(&buf[r][v * kLanes<V>], acc[r][v]);
    }
    std::memcpy(c + r * ldc, buf[r], w * sizeof(float));
  }
}

// One nn (kGroups) or tn tile. Tile row r of A is pa[r], its element k at
// pa[r][k * ka] (ka == 1 for nn); row k of the B strip is at bp + k * bs.
template <class V, bool kGroups>
[[gnu::always_inline]] inline void mm_tile(const float* const pa[kMr],
                                           std::size_t ka, const float* bp,
                                           std::size_t bs, Spans sp,
                                           float* c, std::size_t ldc,
                                           std::size_t rows, std::size_t w,
                                           bool accumulate) {
  constexpr std::size_t NV = kVecs<V>, L = kLanes<V>;
  V acc[kMr][NV];
  load_tile(acc, c, ldc, rows, w, accumulate);
  for (std::size_t s = 0; s < sp.count; ++s) {
    std::size_t k = sp.pairs[2 * s];
    const std::size_t ke = sp.pairs[2 * s + 1];
    if constexpr (kGroups) {
      for (; k + 4 <= ke; k += 4) {
        V b[4][NV];
#pragma GCC unroll 4
        for (std::size_t q = 0; q < 4; ++q) {
#pragma GCC unroll 4
          for (std::size_t v = 0; v < NV; ++v) {
            load(b[q][v], bp + (k + q) * bs + v * L);
          }
        }
#pragma GCC unroll 4
        for (std::size_t r = 0; r < kMr; ++r) {
          const float* a = pa[r] + k;
          const float a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
#pragma GCC unroll 4
          for (std::size_t v = 0; v < NV; ++v) {
            acc[r][v] +=
                ((a0 * b[0][v] + a1 * b[1][v]) + a2 * b[2][v]) + a3 * b[3][v];
          }
        }
      }
    }
    for (; k < ke; ++k) {
      V b[NV];
#pragma GCC unroll 4
      for (std::size_t v = 0; v < NV; ++v) load(b[v], bp + k * bs + v * L);
#pragma GCC unroll 4
      for (std::size_t r = 0; r < kMr; ++r) {
        const float a = pa[r][k * ka];
#pragma GCC unroll 4
        for (std::size_t v = 0; v < NV; ++v) acc[r][v] += a * b[v];
      }
    }
  }
  store_tile(acc, c, ldc, rows, w);
}

// Packs columns [0, w) of B's rows in `sp` into a kNr-wide strip with row
// stride kNr, lanes past w zeroed. Rows outside the spans are neither read
// nor written: im2col_masked leaves rows no consumer reduces over unfilled.
const float* pack_strip(const float* B, std::size_t ldb, std::size_t w,
                        Spans sp) {
  if (sp.count == 0) return nullptr;
  float* dst = scratch::buffer(scratch::Slot::kPackB, sp.end() * kNr);
  for (std::size_t s = 0; s < sp.count; ++s) {
    for (std::size_t k = sp.pairs[2 * s]; k < sp.pairs[2 * s + 1]; ++k) {
      float* d = dst + k * kNr;
      std::memcpy(d, B + k * ldb, w * sizeof(float));
      std::fill(d + w, d + kNr, 0.0f);
    }
  }
  return dst;
}

// C[i0, i1) x [j0, j1) for nn (kGroups: A row i at A + i * a_row,
// contiguous in k; spans by row panel) and tn (A stored K x M, so a_row ==
// 1 and a_k == lda; spans by column panel). Strips are packed unless B
// already holds them contiguously: a power-of-two ldb would otherwise map
// a strip's rows onto a few cache sets. Strip-major, so a packed strip is
// reused by every row tile of the block.
template <class V, bool kGroups>
[[gnu::always_inline]] inline void mm_block(
    const float* A, std::size_t a_row, std::size_t a_k, std::size_t i0,
    std::size_t i1, const float* B, std::size_t ldb, std::size_t j0,
    std::size_t j1, const SpanMap& m, float* C, std::size_t ldc,
    bool accumulate) {
  const auto strips = [&](std::size_t jlo, std::size_t jhi, Spans pack,
                          auto&& spans_of_rows) {
    for (std::size_t j = jlo; j < jhi; j += kNr) {
      const std::size_t w = std::min(kNr, jhi - j);
      const bool direct = w == kNr && ldb == kNr;
      const float* bp = direct ? B + j : pack_strip(B + j, ldb, w, pack);
      const std::size_t bs = direct ? ldb : kNr;
      spans_of_rows([&](std::size_t ilo, std::size_t ihi, Spans sp) {
        for (std::size_t i = ilo; i < ihi; i += kMr) {
          // A short tile repeats its last row; those lanes are not stored.
          const float* pa[kMr];
          for (std::size_t r = 0; r < kMr; ++r) {
            pa[r] = A + std::min(i + r, ihi - 1) * a_row;
          }
          mm_tile<V, kGroups>(pa, a_k, bp, bs, sp, C + i * ldc + j, ldc,
                              std::min(kMr, ihi - i), w, accumulate);
        }
      });
    }
  };
  if constexpr (kGroups) {
    strips(j0, j1, m.pack, [&](auto&& tiles) {
      for_panels(m, i0, i1, [&](std::size_t lo, std::size_t hi,
                                std::size_t p) { tiles(lo, hi, m.of(p)); });
    });
  } else {
    for_panels(m, j0, j1, [&](std::size_t lo, std::size_t hi, std::size_t p) {
      const Spans sp = m.of(p);
      strips(lo, hi, sp, [&](auto&& tiles) { tiles(i0, i1, sp); });
    });
  }
}

// Rows of B per nt tile: each holds four partial-sum registers and a tail
// per register of its kNr lanes, which must fit the register file.
template <class V>
constexpr std::size_t kNtRows = kVecs<V> == 1 ? 2 : 1;

// Packs rows [0, w) of A, k in the spans, transposed into a strip: element
// k of row `lane` at dst[k * kNr + lane], lanes past w zeroed.
const float* pack_lanes(const float* A, std::size_t lda, std::size_t w,
                        Spans sp) {
  if (sp.count == 0) return nullptr;
  float* dst = scratch::buffer(scratch::Slot::kPackB, sp.end() * kNr);
  for (std::size_t s = 0; s < sp.count; ++s) {
    for (std::size_t k = sp.pairs[2 * s]; k < sp.pairs[2 * s + 1]; ++k) {
      float* d = dst + k * kNr;
      for (std::size_t lane = 0; lane < kNr; ++lane) {
        d[lane] = lane < w ? A[lane * lda + k] : 0.0f;
      }
    }
  }
  return dst;
}

// One nt tile: kNtRows rows of B (pb) against the kNr packed rows of A;
// output (lane, r) lands at c[lane * ldc + r].
template <class V>
[[gnu::always_inline]] inline void nt_tile(const float* const pb[],
                                           const float* ap, Spans sp,
                                           float* c, std::size_t ldc,
                                           std::size_t rows, std::size_t w,
                                           bool accumulate) {
  constexpr std::size_t NV = kVecs<V>, L = kLanes<V>, R = kNtRows<V>;
  V acc[R][4][NV] = {};
  V tail[R][NV] = {};
  for (std::size_t s = 0; s < sp.count; ++s) {
    std::size_t k = sp.pairs[2 * s];
    const std::size_t ke = sp.pairs[2 * s + 1];
    for (; k + 4 <= ke; k += 4) {
      V a[4][NV];
#pragma GCC unroll 4
      for (std::size_t q = 0; q < 4; ++q) {
#pragma GCC unroll 4
        for (std::size_t v = 0; v < NV; ++v) {
          load(a[q][v], ap + (k + q) * kNr + v * L);
        }
      }
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
        for (std::size_t q = 0; q < 4; ++q) {
          const float b = pb[r][k + q];
#pragma GCC unroll 4
          for (std::size_t v = 0; v < NV; ++v) acc[r][q][v] += a[q][v] * b;
        }
      }
    }
    for (; k < ke; ++k) {
      V a[NV];
#pragma GCC unroll 4
      for (std::size_t v = 0; v < NV; ++v) load(a[v], ap + k * kNr + v * L);
#pragma GCC unroll 4
      for (std::size_t r = 0; r < R; ++r) {
        const float b = pb[r][k];
#pragma GCC unroll 4
        for (std::size_t v = 0; v < NV; ++v) tail[r][v] += a[v] * b;
      }
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    float sum[kNr];
    for (std::size_t v = 0; v < NV; ++v) {
      store(sum + v * L,
            ((acc[r][0][v] + acc[r][1][v]) + (acc[r][2][v] + acc[r][3][v])) +
                tail[r][v]);
    }
    for (std::size_t lane = 0; lane < w; ++lane) {
      float& out = c[lane * ldc + r];
      out = accumulate ? out + sum[lane] : sum[lane];
    }
  }
}

// C^T[j0, j1) x [i0, i1): rows of B (N x K, spans by row panel) against
// rows of A (M x K), packed one kNr-lane strip at a time.
template <class V>
[[gnu::always_inline]] inline void nt_block(
    const float* B, std::size_t ldb, std::size_t j0, std::size_t j1,
    const float* A, std::size_t lda, std::size_t i0, std::size_t i1,
    const SpanMap& m, float* C, std::size_t ldc, bool accumulate) {
  constexpr std::size_t R = kNtRows<V>;
  for (std::size_t i = i0; i < i1; i += kNr) {
    const std::size_t w = std::min(kNr, i1 - i);
    const float* ap = pack_lanes(A + i * lda, lda, w, m.pack);
    for_panels(m, j0, j1, [&](std::size_t lo, std::size_t hi, std::size_t p) {
      for (std::size_t j = lo; j < hi; j += R) {
        const float* pb[R];
        for (std::size_t r = 0; r < R; ++r) {
          pb[r] = B + std::min(j + r, hi - 1) * ldb;
        }
        nt_tile<V>(pb, ap, m.of(p), C + i * ldc + j, ldc,
                   std::min(R, hi - j), w, accumulate);
      }
    });
  }
}

// ---------------------------------------------------------------------------
// ISA dispatch. The block kernels above are built three times: a portable
// clone for the x86-64 baseline (SSE2) and, where the toolchain supports
// `target` attributes, AVX2 and AVX-512F clones (no global -march change:
// the rest of the binary stays portable), each on its own register width.
// One table is picked once by cpuid at first use.
//
// The clones keep every bit: lanes run along output dimensions only, and
// without -ffast-math the compiler may not reassociate. What a wider target
// could change is contraction of `a * b + c` into an FMA: this file is
// compiled with -ffp-contract=off (src/nn/CMakeLists.txt), so every host,
// -march=native included, produces the portable build's bits. GemmGolden
// in tests/nn/gemm_golden_test.cpp pins them for every table.
// ---------------------------------------------------------------------------

struct KernelTable {
  decltype(&mm_block<Vec4, true>) nn, tn;
  decltype(&nt_block<Vec4>) nt;
  const char* isa;
};

// One wrapper per target; `Body` is inlined into it, and the parameter
// types are deduced from the table slot the wrapper initializes.
template <auto Body, typename... Args>
void portable_clone(Args... args) {
  Body(args...);
}

#define LS_GEMM_TABLE(clone, V, isa)                                  \
  KernelTable {                                                       \
    clone<mm_block<V, true>>, clone<mm_block<V, false>>,              \
        clone<nt_block<V>>, isa                                       \
  }

constexpr KernelTable kPortable =
    LS_GEMM_TABLE(portable_clone, Vec4, "portable");

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

constexpr KernelTable kAvx2 = LS_GEMM_TABLE(avx2_clone, Vec8, "avx2");
constexpr KernelTable kAvx512f =
    LS_GEMM_TABLE(avx512f_clone, Vec16, "avx512f");
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

// ---------------------------------------------------------------------------
// Span tables and the task grid.
// ---------------------------------------------------------------------------

// Owns a SpanMap's lists.
struct SpanTable {
  std::vector<std::size_t> offsets, pairs, pack;

  SpanMap view(const std::size_t* bounds, std::size_t parts) const {
    return {bounds, parts, offsets.data(), pairs.data(),
            {pack.data(), pack.size() / 2}};
  }
};

// Appends [lo, hi) to the span list `to` that starts at index `first`,
// merging it into a range it touches.
void append(std::vector<std::size_t>& to, std::size_t first, std::size_t lo,
            std::size_t hi) {
  if (to.size() > first && to.back() == lo) {
    to.back() = hi;
  } else {
    to.push_back(lo);
    to.push_back(hi);
  }
}

// nn, nt: per consumer c, the maximal runs of 4-aligned groups [4m, 4m + 4)
// that meet a producer panel live for c, clipped to K. A group straddling a
// dead panel runs whole (its pruned weights are exact zeros in memory), so
// each element keeps the dense kernel's groups and only drops groups that
// add nothing but +/-0 terms. `pack` is the union over consumers: the rows
// im2col_masked fills.
SpanTable consumer_runs(const BlockMask& mask, std::size_t K) {
  const std::size_t n_groups = (K + 3) / 4;
  const auto group_end = [K](std::size_t g) { return std::min(K, 4 * g + 4); };
  std::vector<std::uint8_t> live(n_groups), any(n_groups, 0);
  SpanTable t;
  for (std::size_t c = 0; c < mask.parts; ++c) {
    std::fill(live.begin(), live.end(), 0);
    for (std::size_t p = 0; p < mask.parts; ++p) {
      const std::size_t lo = mask.k_bounds[p], hi = mask.k_bounds[p + 1];
      if (mask.zero[p * mask.parts + c] || lo >= hi) continue;
      std::fill(live.begin() + lo / 4, live.begin() + (hi - 1) / 4 + 1, 1);
    }
    t.offsets.push_back(t.pairs.size());
    for (std::size_t g = 0; g < n_groups; ++g) {
      if (live[g]) append(t.pairs, t.offsets.back(), 4 * g, group_end(g));
      any[g] |= live[g];
    }
  }
  t.offsets.push_back(t.pairs.size());
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (any[g]) append(t.pack, 0, 4 * g, group_end(g));
  }
  return t;
}

// tn: per producer p, the k ranges of the reduction (K is the consumer
// partition, mask.out_bounds) whose block (p, c) is live.
SpanTable producer_spans(const BlockMask& mask) {
  SpanTable t;
  for (std::size_t p = 0; p < mask.parts; ++p) {
    t.offsets.push_back(t.pairs.size());
    for (std::size_t c = 0; c < mask.parts; ++c) {
      const std::size_t lo = mask.out_bounds[c], hi = mask.out_bounds[c + 1];
      if (mask.zero[p * mask.parts + c] || lo >= hi) continue;
      append(t.pairs, t.offsets.back(), lo, hi);
    }
  }
  t.offsets.push_back(t.pairs.size());
  return t;
}

// The span map of a dense call: one panel over [0, extent), one span.
struct DenseMap {
  std::size_t bounds[2], offsets[2], pairs[2];
  DenseMap(std::size_t extent, std::size_t K)
      : bounds{0, extent}, offsets{0, K > 0 ? 2u : 0u}, pairs{0, K} {}
  SpanMap view() const {
    return {bounds, 1, offsets, pairs, {pairs, offsets[1] / 2}};
  }
};

// Runs task(i0, i1, j0, j1) over the rows x cols grid of kBlockRows x
// kBlockCols blocks, on the pool when worthwhile.
template <class Task>
void run_grid(std::size_t rows, std::size_t cols, bool parallel,
              std::size_t work, const Task& task) {
  const std::size_t nr = (rows + kBlockRows - 1) / kBlockRows;
  const std::size_t nc = (cols + kBlockCols - 1) / kBlockCols;
  const auto cell = [&](std::size_t t) {
    const std::size_t i0 = t / nc * kBlockRows, j0 = t % nc * kBlockCols;
    task(i0, std::min(rows, i0 + kBlockRows), j0,
         std::min(cols, j0 + kBlockCols));
  };
  if (parallel && nr * nc > 1 && work >= kParallelMinWork) {
    util::parallel_for(0, nr * nc, cell);
    return;
  }
  for (std::size_t t = 0; t < nr * nc; ++t) cell(t);
}

// The two shapes every entry point reduces to: C (M x N) by nn or tn, A
// row i at A + i * a_row with element k at stride a_k; and C^T (N x M) by
// nt.
void run_mm(decltype(KernelTable::nn) kernel, const SpanMap& m,
            std::size_t M, std::size_t N, std::size_t K, const float* A,
            std::size_t a_row, std::size_t a_k, const float* B,
            std::size_t ldb, float* C, std::size_t ldc, bool accumulate,
            bool parallel) {
  run_grid(M, N, parallel, M * N * K,
           [&](std::size_t i0, std::size_t i1, std::size_t j0,
               std::size_t j1) {
             kernel(A, a_row, a_k, i0, i1, B, ldb, j0, j1, m, C, ldc,
                    accumulate);
           });
}

void run_nt(const SpanMap& m, std::size_t M, std::size_t N, std::size_t K,
            const float* A, std::size_t lda, const float* B, std::size_t ldb,
            float* C, std::size_t ldc, bool accumulate, bool parallel) {
  const auto nt = kernels().nt;
  run_grid(N, M, parallel, M * N * K,
           [&](std::size_t j0, std::size_t j1, std::size_t i0,
               std::size_t i1) {
             nt(B, ldb, j0, j1, A, lda, i0, i1, m, C, ldc, accumulate);
           });
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
  run_mm(kernels().nn, DenseMap(M, K).view(), M, N, K, A, lda, 1, B, ldb, C,
         ldc, accumulate, parallel);
}

void gemm_tn(std::size_t M, std::size_t N, std::size_t K, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate, bool parallel) {
  if (M == 0 || N == 0) return;
  run_mm(kernels().tn, DenseMap(N, K).view(), M, N, K, A, 1, lda, B, ldb, C,
         ldc, accumulate, parallel);
}

void gemm_nt(std::size_t M, std::size_t N, std::size_t K, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate, bool parallel) {
  if (M == 0 || N == 0) return;
  run_nt(DenseMap(N, K).view(), M, N, K, A, lda, B, ldb, C, ldc, accumulate,
         parallel);
}

void gemm_nn_sparse(std::size_t M, std::size_t N, std::size_t K,
                    const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* C, std::size_t ldc,
                    bool accumulate, bool parallel, const BlockMask& mask) {
  if (M == 0 || N == 0) return;
  if constexpr (check::kEnabled) check_mask_extents(mask, K, M);
  const SpanTable t = consumer_runs(mask, K);
  run_mm(kernels().nn, t.view(mask.out_bounds, mask.parts), M, N, K, A, lda,
         1, B, ldb, C, ldc, accumulate, parallel);
}

void gemm_nt_sparse(std::size_t M, std::size_t N, std::size_t K,
                    const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* C, std::size_t ldc,
                    bool accumulate, bool parallel, const BlockMask& mask) {
  if (M == 0 || N == 0) return;
  if constexpr (check::kEnabled) check_mask_extents(mask, K, N);
  const SpanTable t = consumer_runs(mask, K);
  run_nt(t.view(mask.out_bounds, mask.parts), M, N, K, A, lda, B, ldb, C,
         ldc, accumulate, parallel);
}

void gemm_tn_sparse(std::size_t M, std::size_t N, std::size_t K,
                    const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* C, std::size_t ldc,
                    bool accumulate, bool parallel, const BlockMask& mask) {
  if (M == 0 || N == 0) return;
  if constexpr (check::kEnabled) check_mask_extents(mask, N, K);
  const SpanTable t = producer_spans(mask);
  run_mm(kernels().tn, t.view(mask.k_bounds, mask.parts), M, N, K, A, 1,
         lda, B, ldb, C, ldc, accumulate, parallel);
}

namespace {

// Floats a packer may read past the last tap of a padded image.
constexpr std::size_t kSlack = 8;

// The first `channels` planes of `in`, zero-padded by s.pad on every side
// and followed by kSlack zeros, in this thread's kPadded scratch.
const float* padded(const PackShape& s, const float* in,
                    std::size_t channels) {
  const std::size_t Wp = s.W + 2 * s.pad;
  float* out = scratch::buffer(scratch::Slot::kPadded,
                               channels * (s.H + 2 * s.pad) * Wp + kSlack);
  float* p = out;
  for (std::size_t c = 0; c < channels; ++c) {
    p = std::fill_n(p, s.pad * Wp, 0.0f);
    for (std::size_t h = 0; h < s.H; ++h) {
      p = std::fill_n(p, s.pad, 0.0f);
      p = std::copy_n(in + (c * s.H + h) * s.W, s.W, p);
      p = std::fill_n(p, s.pad, 0.0f);
    }
    p = std::fill_n(p, s.pad * Wp, 0.0f);
  }
  std::fill_n(p, kSlack, 0.0f);
  return out;
}

// Each col row (c, kh, kw) is, per output row oh, every stride-th float of
// a run of the padded channel. Stride-1 runs move in whole 8-float chunks
// while the overhang lands in the plane's later rows, which are written
// after it; the last rows copy their tails one float at a time.
void pack_channel(const PackShape& s, const float* in_c, float* col,
                  std::size_t c) {
  const std::size_t Wp = s.W + 2 * s.pad;
  const float* image = padded(s, in_c, 1);
  for (std::size_t kh = 0; kh < s.K; ++kh) {
    for (std::size_t kw = 0; kw < s.K; ++kw) {
      float* dst = col + ((c * s.K + kh) * s.K + kw) * s.cols();
      for (std::size_t oh = 0; oh < s.OH; ++oh) {
        const float* src = image + (oh * s.stride + kh) * Wp + kw;
        float* d = dst + oh * s.OW;
        std::size_t ow = 0;
        if (s.stride == 1) {
          const bool room = (s.OH - oh) * s.OW >= (s.OW + 7) / 8 * 8;
          const std::size_t chunks = room ? s.OW : s.OW / 8 * 8;
          for (; ow < chunks; ow += 8) {
            std::memcpy(d + ow, src + ow, 8 * sizeof(float));
          }
        }
        for (; ow < s.OW; ++ow) d[ow] = src[ow * s.stride];
      }
    }
  }
}

// The output positions o in [0, n) whose input coordinate o * stride + k -
// pad lies inside [0, extent), as [lo, hi): k is a tap's kh (over OH rows)
// or kw (over OW columns).
struct Inside {
  std::size_t lo, hi;
};

Inside inside(std::size_t k, std::size_t pad, std::size_t stride,
              std::size_t extent, std::size_t n) {
  if (extent + pad <= k) return {0, 0};
  const std::size_t lo =
      std::min(n, k >= pad ? 0 : (pad - k + stride - 1) / stride);
  return {lo, std::clamp((extent - 1 + pad - k) / stride + 1, lo, n)};
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

// Lanes are grouped into pieces of at most kPiece columns whose offsets
// into the zero-padded image are consecutive, so a piece is one fixed-size
// copy per pixel (a (c, kh) run of kw taps, cut at strip and kPiece ends).
Im2rowCols::Im2rowCols(const PackShape& s, std::size_t j0, std::size_t n)
    : s_(s) {
  const std::size_t k2 = s.K * s.K;
  const std::size_t Hp = s.H + 2 * s.pad, Wp = s.W + 2 * s.pad;
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t j = j0 + t, lane = t % kLanes;
    const std::size_t off = (j / k2 * Hp + j % k2 / s.K) * Wp + j % s.K;
    if (lane == 0) first_.push_back(pieces_.size());
    const bool extends = lane != 0 && lane - pieces_.back().lane < kPiece &&
                         off == pieces_.back().off + lane - pieces_.back().lane;
    if (!extends) pieces_.push_back({lane, off});
  }
  first_.push_back(pieces_.size());
}

void Im2rowCols::pack(const float* in, float* out) const {
  static_assert(kPiece <= kSlack + 1);
  const std::size_t Wp = s_.W + 2 * s_.pad;
  const float* image = padded(s_, in, s_.channels);
  // Pixels ascend and each row's pieces ascend, so what a piece writes past
  // its own lanes is rewritten by the next piece or the next pixel's row;
  // only lanes past n and size()'s slack keep it.
  float* dst = out;
  for (std::size_t st = 0; st + 1 < first_.size(); ++st) {
    for (std::size_t oh = 0; oh < s_.OH; ++oh) {
      for (std::size_t ow = 0; ow < s_.OW; ++ow, dst += kLanes) {
        const float* src = image + (oh * Wp + ow) * s_.stride;
        for (std::size_t q = first_[st]; q < first_[st + 1]; ++q) {
          std::memcpy(dst + pieces_[q].lane, src + pieces_[q].off,
                      kPiece * sizeof(float));
        }
      }
    }
  }
}

// Loops (c, kh descending, oh, kw descending, ow): one input cell's terms
// come from distinct output pixels, and in ascending (oh, ow) order they
// are its terms in descending (kh, kw) order, so each cell sums in the
// order of a loop over output pixels.
void row2im_add(const PackShape& s, const float* row, float* in_grad) {
  const std::size_t patch = s.patch();
  for (std::size_t c = 0; c < s.channels; ++c) {
    float* in_c = in_grad + c * s.H * s.W;
    for (std::size_t kh = s.K; kh-- > 0;) {
      const Inside rows = inside(kh, s.pad, s.stride, s.H, s.OH);
      for (std::size_t oh = rows.lo; oh < rows.hi; ++oh) {
        float* in_row = in_c + (oh * s.stride + kh - s.pad) * s.W;
        const float* src = row + oh * s.OW * patch + (c * s.K + kh) * s.K;
        for (std::size_t kw = s.K; kw-- > 0;) {
          const Inside run = inside(kw, s.pad, s.stride, s.W, s.OW);
          if (run.lo == run.hi) continue;
          float* d = in_row + run.lo * s.stride + kw - s.pad;
          const float* sp = src + run.lo * patch + kw;
          for (std::size_t i = 0; i < run.hi - run.lo; ++i) {
            d[i * s.stride] += sp[i * patch];
          }
        }
      }
    }
  }
}

}  // namespace ls::nn::gemm
