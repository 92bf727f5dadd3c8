// The one home for "how many threads?" semantics.
//
// Every parallel subsystem (passive collection, analysis kernels, backscan
// observation) takes a Parallelism knob with the same contract:
//
//   * 0  — size to the hardware: resolved() == ThreadPool::hardware_threads()
//   * 1  — strictly serial: the work runs on the calling thread, taking the
//          exact same code path a single-shard run would (this is the pin
//          used where hook/callback ordering must be reproducible)
//   * N  — exactly N worker shards
//
// Regardless of the value, results are bit-identical: shards are merged in
// shard-index order, so Parallelism only trades wall-clock time.
//
// Parallelism converts implicitly to and from unsigned so existing code
// (`config.threads = 4`, `if (config.threads != 1)`) keeps compiling; new
// code should prefer the named helpers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace v6::util {

// The one partitioning rule, shared by thread shards (run_sharded), the
// collector's per-thread device layout, and distributed device-range
// leases: part `index` of `count` over [0, items) is the contiguous range
// [items*index/count, items*(index+1)/count). Parts tile the items in
// order and differ in size by at most one; nesting (a thread shard inside
// a lease part) applies the rule again to the part's own size.
struct Part {
  std::uint32_t index = 0;
  std::uint32_t count = 1;

  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
    constexpr std::size_t size() const noexcept { return end - begin; }
  };

  constexpr Range range(std::size_t items) const noexcept {
    return {items * index / count, items * (index + 1) / count};
  }
};

struct Parallelism {
  unsigned threads = 0;  // 0 = hardware, 1 = serial, N = exactly N

  constexpr Parallelism() = default;
  constexpr Parallelism(unsigned t) : threads(t) {}  // NOLINT(runtime/explicit)
  constexpr operator unsigned() const { return threads; }

  // The concrete shard count this knob resolves to on this machine.
  unsigned resolved() const noexcept;

  constexpr bool is_serial() const noexcept { return threads == 1; }

  static constexpr Parallelism serial() { return Parallelism(1); }
  static constexpr Parallelism hardware() { return Parallelism(0); }
};

}  // namespace v6::util
