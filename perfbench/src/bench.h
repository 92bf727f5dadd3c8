// Shared pieces of the v6pool benchmark: options, output checks, latency
// histogram, span recorder and the per-run sample store.
//
// The benchmark measures the library from outside: it times calls into
// each module's public functions and never changes the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/ipv6.h"
#include "net/mac.h"

namespace v6bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 2022;
  double seconds = 10;
  bool trace = false;
  // Self-test scale: every workload shrinks to a few hundred milliseconds.
  bool tiny = false;
  // Scratch space for spilled runs and the trace file.
  std::string work_dir = ".bench_build/work";
  // Expected values of gated outputs, by name (hex digests, counts).
  std::map<std::string, std::string> expect;
};

// Output checks. Every comparison counts as attempted; a mismatch counts as
// failed and is printed, so it never passes silently.
class Checks {
 public:
  explicit Checks(const Options& options) : options_(&options) {}

  void check(bool ok, const std::string& what);
  // A value that must stay byte-identical across speedups: compared with
  // its --expect value when one is given, else with its first value in
  // this run (so every repetition after the first is gated).
  void gate(const std::string& name, const std::string& value);
  // A value that is printed once but never gated (outputs a planned fix
  // will change on purpose).
  void record(const std::string& name, const std::string& value);
  // Operations that ran but produced no answer (serve batches that pinned
  // no snapshot) count as attempted and failed.
  void operations(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  const Options* options_;
  std::map<std::string, std::string> first_;
  std::map<std::string, std::string> recorded_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

std::string hex64(std::uint64_t value);
// FNV-1a over a byte string.
std::uint64_t fnv1a(const std::string& bytes);

// Log-linear histogram of nanosecond latencies: exact below 128 ns, then
// 64 sub-buckets per power of two (each at most 1/64 = 1.6% wide).
class LatencyHistogram {
 public:
  void add(std::uint64_t ns);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const noexcept { return count_; }
  // Value at quantile q in [0, 1] (bucket midpoint), in nanoseconds.
  double quantile(double q) const;
  // The highest percentile that still has at least `tail` samples beyond
  // it, e.g. 99.9 for 10'000 samples and tail = 10.
  double highest_percentile(std::uint64_t tail) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

double median(std::vector<double> values);

// Wall-clock spans recorded from the benchmark's own files around each
// layer call. Kept in memory; written out as a Chrome trace when the run
// ends. A disabled recorder records nothing and returns id -1.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
    int run = 0;  // repetition id
    int tid = 1;
  };

  explicit SpanRecorder(bool enabled);

  bool enabled() const noexcept { return enabled_; }
  void set_run(int run) { run_ = run; }

  // Opens a span nested under the innermost open span of the main thread
  // (or under `parent` when given, for spans of other threads).
  int begin(const std::string& name, std::optional<int> parent = {},
            int tid = 1);
  void end(int id);
  // The innermost open main-thread span, -1 when none.
  int current() const;

  // Per span name: total time, self time (duration minus the part its
  // children cover) and call count.
  struct Totals {
    double total_s = 0;
    double self_s = 0;
    std::uint64_t calls = 0;
  };
  std::map<std::string, Totals> totals() const;
  // Chrome trace-event JSON, one event per line.
  std::string chrome_trace() const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point t0_;
  int run_ = 0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // main-thread nesting stack
};

// One query key: an address plus the vendor OUI asked about with it.
struct Key {
  v6::net::Ipv6Address address;
  v6::net::Oui oui;
};

// Everything one invocation measures.
struct Bench {
  explicit Bench(const Options& o)
      : options(o), checks(o), spans(o.trace) {}

  const Options& options;
  Checks checks;
  SpanRecorder spans;
  // Per-repetition samples by metric name; reported as medians.
  std::map<std::string, std::vector<double>> samples;
  // Every pinned 64-query batch of the run, for the tail report.
  LatencyHistogram batch_latency;
  // Values a workload declares null because the path it measures did not
  // run (never reported as 0).
  std::vector<std::string> null_metrics;

  void sample(const std::string& name, double value) {
    samples[name].push_back(value);
  }
};

}  // namespace v6bench
