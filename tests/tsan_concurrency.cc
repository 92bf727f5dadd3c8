// ThreadSanitizer job for the concurrency primitives behind sharded
// collection and parallel analysis. Built with -fsanitize=thread
// regardless of the main build's flags (see tests/CMakeLists.txt) and
// registered as an ordinary CTest test, so every `ctest` run races-checks
// the ThreadPool, the collector's shard/merge/serialized-hook pattern,
// EmpiricalDistribution's guarded lazy sort under concurrent const
// readers, the ParallelScan shard/deterministic-merge engine, the
// striped obs::Registry under racing writers and live snapshots, and the
// batch-kernel dispatch cache's cold-start stampede. Any data race makes
// TSan abort the process with a non-zero exit.
//
// The full library suite can additionally be built instrumented with
// `cmake -DV6_SANITIZER=thread` (see the top-level CMakeLists.txt); this
// binary is the fast always-on subset.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include <atomic>

#include "analysis/parallel_scan.h"
#include "hitlist/corpus.h"
#include "kernels/batch.h"
#include "kernels/dispatch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace {

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    std::exit(1);
  }
}

// Stress submit/wait_idle reuse from many producers' worth of tasks.
void pool_stress() {
  v6::util::ThreadPool pool(8);
  std::mutex mu;
  std::uint64_t total = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 500; ++i) {
      pool.submit([&mu, &total] {
        std::lock_guard<std::mutex> lock(mu);
        ++total;
      });
    }
    pool.wait_idle();
  }
  check(total == 20 * 500, "pool_stress total");
}

// The collector's sharding shape: per-shard local state, a
// mutex-serialized hook into shared state, and a post-join reduce.
void sharded_collect_pattern() {
  constexpr std::size_t kItems = 200000;
  constexpr unsigned kShards = 8;
  std::vector<std::uint64_t> shard_sums(kShards, 0);
  std::vector<std::uint64_t> shard_counts(kShards, 0);
  std::mutex hook_mu;
  std::uint64_t hooked = 0;
  v6::util::run_sharded(
      kItems, kShards, [&](unsigned s, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          shard_sums[s] += i;       // thread-local tally, summed after join
          ++shard_counts[s];
          if (i % 1024 == 0) {      // sparse serialized hook delivery
            std::lock_guard<std::mutex> lock(hook_mu);
            ++hooked;
          }
        }
      });
  const auto total_sum = std::accumulate(
      shard_sums.begin(), shard_sums.end(), std::uint64_t{0});
  const auto total_count = std::accumulate(
      shard_counts.begin(), shard_counts.end(), std::uint64_t{0});
  check(total_sum == std::uint64_t{kItems} * (kItems - 1) / 2,
        "sharded sum");
  check(total_count == kItems, "sharded count");
  check(hooked == (kItems + 1023) / 1024, "hook deliveries");
}

// Regression for the EmpiricalDistribution lazy-sort data race: the old
// ensure_sorted() mutated `mutable` members unguarded under const, so two
// threads calling cdf() on one shared distribution raced on samples_.
// The guarded sort must let concurrent const readers run clean.
void concurrent_distribution_readers() {
  v6::util::EmpiricalDistribution dist;
  for (int i = 5000; i > 0; --i) dist.add(static_cast<double>(i));

  constexpr unsigned kReaders = 8;
  std::vector<std::thread> readers;
  std::vector<double> medians(kReaders, 0.0);
  std::vector<double> cdfs(kReaders, 0.0);
  readers.reserve(kReaders);
  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&dist, &medians, &cdfs, r] {
      cdfs[r] = dist.cdf(2500.0);     // both paths trigger the lazy sort
      medians[r] = dist.median();
    });
  }
  for (auto& t : readers) t.join();
  for (unsigned r = 0; r < kReaders; ++r) {
    check(cdfs[r] == 0.5, "concurrent cdf value");
    check(medians[r] == 2500.0, "concurrent median value");
  }
}

// The parallel analysis engine's shard/merge shape: shard-local kernel
// states over corpus slot ranges, folded in shard-index order, with a
// shared read-only distribution queried from every shard (the pattern
// intersection scans and category pass 2 use).
void parallel_scan_analysis() {
  v6::hitlist::Corpus corpus(1 << 12);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    corpus.add(v6::net::Ipv6Address::from_u64(0x2001'0db8'0000'0000ULL | i,
                                              i * 0x9e3779b97f4a7c15ULL),
               static_cast<v6::util::SimTime>(i % 1000));
  }
  v6::util::EmpiricalDistribution shared;
  for (int i = 0; i < 1000; ++i) shared.add(static_cast<double>(999 - i));

  v6::analysis::AnalysisConfig config;
  config.threads = 8;
  v6::analysis::ParallelScan scan(config);
  std::uint64_t counted = 0;
  std::uint64_t above_median = 0;
  using Block = std::span<const v6::hitlist::AddressRecord>;
  scan.add_block_kernel<std::uint64_t>(
      "count", [] { return std::uint64_t{0}; },
      [](std::uint64_t& n, Block block) { n += block.size(); },
      [](std::uint64_t& into, std::uint64_t&& from) { into += from; },
      [&counted](std::uint64_t&& n) { counted = n; });
  scan.add_block_kernel<std::uint64_t>(
      "shared-reader", [] { return std::uint64_t{0}; },
      [&shared](std::uint64_t& n, Block block) {
        // Concurrent const queries against one shared distribution.
        for (const auto& rec : block) {
          if (shared.cdf(static_cast<double>(rec.last_seen)) > 0.5) ++n;
        }
      },
      [](std::uint64_t& into, std::uint64_t&& from) { into += from; },
      [&above_median](std::uint64_t&& n) { above_median = n; });
  scan.run(corpus);

  check(counted == corpus.size(), "parallel scan record count");
  check(above_median > 0 && above_median < corpus.size(),
        "parallel scan shared-reader tally");
  check(scan.stats().size() == 2, "parallel scan stats entries");
  check(scan.stats()[0].records == corpus.size(),
        "parallel scan stats records");
}

// The metrics registry's claim (obs/metrics.h): striped relaxed increments
// from every worker, racing registrations of the same identity, and
// snapshot() folding the stripes while writers are still running must all
// be clean under TSan — and the post-join fold must be exact.
void metrics_registry_race() {
  v6::obs::Registry registry;
  constexpr unsigned kWriters = 8;
  constexpr std::uint64_t kIters = 30000;

  std::atomic<bool> stop{false};
  std::thread reader([&registry, &stop] {
    std::uint64_t folds = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = registry.snapshot();
      check(snap.counter_sum("race_total") <= kWriters * kIters,
            "live snapshot overshoot");
      ++folds;
    }
    check(folds > 0, "reader folded at least once");
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry] {
      // Registration under race: every writer opens the same instruments.
      auto counter = registry.counter("race_total");
      auto gauge = registry.gauge("race_gauge");
      auto histogram = registry.histogram("race_us", "", {10.0, 1000.0});
      for (std::uint64_t i = 0; i < kIters; ++i) {
        counter.inc();
        if ((i & 255u) == 0) {
          gauge.set(static_cast<double>(i));
          histogram.observe(static_cast<double>(i & 2047u));
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const auto snap = registry.snapshot();
  check(snap.counter_sum("race_total") == kWriters * kIters,
        "registry post-join fold");
  const auto* histogram = snap.find("race_us");
  check(histogram != nullptr &&
            histogram->histogram.count ==
                kWriters * ((kIters + 255) / 256),
        "registry histogram count");
}

// The tracer's claim (obs/trace.h): begin/end from racing threads — with
// spans() snapshots taken while writers are live — must be clean under
// TSan, and the auto-close sweep has to leave every span closed with a
// parent that points at an earlier begin.
void tracer_race() {
  v6::obs::Tracer tracer;
  constexpr unsigned kThreads = 8;
  constexpr int kSpansPerThread = 500;

  std::atomic<bool> stop{false};
  std::thread reader([&tracer, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)tracer.spans();  // live snapshot racing begin/end
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (unsigned w = 0; w < kThreads; ++w) {
    workers.emplace_back([&tracer, w] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        const auto t = static_cast<v6::util::SimTime>(w * kSpansPerThread + i);
        const auto id = tracer.begin_span("race", t);
        if ((i & 7) != 0) tracer.end_span(id, t + 1);
        // Every 8th span is left open: a racing end_span() on an outer
        // span auto-closes it, exercising the sweep under contention.
      }
    });
  }
  for (auto& t : workers) t.join();
  // Close everything still open via the earliest recorded span.
  tracer.end_span(0, kThreads * kSpansPerThread + 1);
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const auto spans = tracer.spans();
  check(spans.size() == std::size_t{kThreads} * kSpansPerThread,
        "tracer span count");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    check(spans[i].closed, "tracer span closed");
    check(spans[i].parent < static_cast<std::int32_t>(i),
          "tracer parent precedes child");
  }
}

// The kernel dispatch cache's claim (kernels/dispatch.h): first-touch
// resolution from many threads at once is a benign same-value race on an
// atomic — every thread must land on the same backend, and batch kernels
// called during the stampede must produce the per-record reference
// values. force_backend() clears the cache, so each round re-runs the
// cold-start path under contention.
void kernel_dispatch_race() {
  constexpr unsigned kThreads = 8;
  constexpr std::size_t kIids = 256;
  std::uint64_t iids[kIids];
  for (std::size_t i = 0; i < kIids; ++i) {
    iids[i] = 0x9e3779b97f4a7c15ULL * (i + 1);
  }
  for (int round = 0; round < 8; ++round) {
    // Alternate between a pinned-scalar round and an auto round; both
    // start with a cold cache.
    v6::kernels::force_backend(
        (round & 1) ? std::optional<v6::kernels::Backend>(
                          v6::kernels::Backend::kScalar)
                    : std::nullopt);
    std::vector<v6::kernels::Backend> seen(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned w = 0; w < kThreads; ++w) {
      threads.emplace_back([&seen, &iids, w] {
        seen[w] = v6::kernels::active_backend();
        double entropies[kIids];
        v6::kernels::iid_entropy_batch(iids, kIids, entropies);
        for (std::size_t i = 0; i < kIids; ++i) {
          check(entropies[i] >= 0.0 && entropies[i] <= 1.0,
                "dispatch-race entropy range");
        }
      });
    }
    for (auto& t : threads) t.join();
    for (unsigned w = 1; w < kThreads; ++w) {
      check(seen[w] == seen[0], "dispatch-race backend agreement");
    }
    if (round & 1) {
      check(seen[0] == v6::kernels::Backend::kScalar,
            "dispatch-race forced scalar honored");
    }
  }
  v6::kernels::force_backend(std::nullopt);
}

}  // namespace

int main() {
  pool_stress();
  sharded_collect_pattern();
  concurrent_distribution_readers();
  parallel_scan_analysis();
  metrics_registry_race();
  tracer_race();
  kernel_dispatch_race();
  std::printf("tsan concurrency checks passed\n");
  return 0;
}
