#pragma once
// Thread-local scratch arena for the conv/FC kernel fast paths.
//
// Every hot kernel needs large transient buffers: the im2col/im2row
// packings, the backward dRow staging area, and the SIMD backend's packed
// B panels. Allocating them per call dominated small-layer runtime and
// fragmented the heap under the trainer's batch loop; this arena hands out
// one grow-only aligned buffer per purpose and per thread, so after a
// warmup call at the largest shape a steady-state forward/backward performs
// zero allocations (pinned by tests/nn/scratch_arena_test.cpp).
//
// Threading model: buffers are thread_local, and a buffer is only touched
// by its owning thread or by the tasks of a parallel_for that thread runs
// while holding it. The usual patterns: "acquire inside the parallel_for
// body" (each worker gets its own buffer), or "acquire on the calling
// thread, then fan out" — to readers (the SIMD GEMM packs B once on the
// caller, then worker tasks read it) or to writers that each fill a
// disjoint slice (conv backward packs a block of samples' im2row this way;
// the next fan-out reads it, the join in between ordering the two). Two
// live buffers on one thread must use different slots; each kernel stage
// below owns a distinct slot so nesting (im2col -> packed GEMM) never
// aliases.

#include <cstddef>
#include <cstdint>

namespace ls::nn::scratch {

/// One slot per concurrently-live buffer a kernel stage needs.
enum class Slot : std::size_t {
  kIm2col = 0,   ///< conv forward im2col packing
  kIm2row,       ///< conv backward im2row block (caller, filled by workers)
  kBwdDrow,      ///< conv backward dRow, then dW tile staging
  kPackB,        ///< SIMD GEMM packed B panels (caller, read by workers)
  kSlotCount,
};

/// Returns the calling thread's buffer for `slot`, grown (64-byte aligned,
/// contents unspecified) to hold at least `floats` elements. The pointer is
/// valid until the next buffer() call on the same thread with the same slot
/// and a larger size.
float* buffer(Slot slot, std::size_t floats);

/// Allocation-churn counters for the calling thread's arena.
struct Stats {
  std::uint64_t reallocs = 0;  ///< total buffer growths since thread start
  std::uint64_t bytes = 0;     ///< current total capacity across slots
};
Stats thread_stats();

}  // namespace ls::nn::scratch
