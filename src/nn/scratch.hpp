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
// while holding it. Two patterns: "acquire inside the parallel_for body"
// (each worker gets its own buffer — the conv packings and dRow/dW staging
// work this way), or "acquire on the calling thread, then fan out to
// readers" (the SIMD GEMM packs B once on the caller, then worker tasks
// read it). Two live buffers on one thread must use different slots; each
// kernel stage below owns a distinct slot so nesting (im2col -> packed
// GEMM, dW tile packing -> staging -> packed GEMM) never aliases.

#include <cstddef>
#include <cstdint>

namespace ls::nn::scratch {

/// One slot per concurrently-live buffer a kernel stage needs.
enum class Slot : std::size_t {
  kIm2col = 0,   ///< conv forward im2col packing
  kIm2row,       ///< conv backward: one dW tile's im2row columns (worker)
  kBwdDrow,      ///< conv backward dRow, then dW tile staging
  kPackB,        ///< SIMD GEMM packed B panels (caller, read by workers)
  kPadded,       ///< conv packers: the zero-padded input they read
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
