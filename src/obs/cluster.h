// Cluster-wide observability: folding per-worker registry snapshots and
// timelines into one cluster view, plus the percentile estimator and the
// run-report linter the `obs-report` artifact leans on.
//
// The aggregator is transport-agnostic plain data — dist::SimCluster and
// the real coordinator decode V6DIST01 kObsReport frames and feed the
// contents in here; nothing in src/obs knows about frames.
//
// Merge semantics:
//   * counters    — summed across workers under their ORIGINAL labels.
//                   The deterministic collector families (polls, answered,
//                   per-vantage health) count each device in exactly one
//                   lease part, so the cluster sum is bit-identical to the
//                   single-process run's counters at any worker count
//                   under any fault plan — the identity the dist tests
//                   pin down.
//   * gauges      — kept per-worker with a `worker` label appended (a
//                   gauge is a point-in-time fact about one process;
//                   summing two workers' backlog gauges would invent a
//                   number nobody observed).
//   * histograms  — merged bucket-wise when the bucket bounds agree
//                   (counts, count and sum all add); bound mismatches
//                   fall back to per-worker samples under a `worker`
//                   label, like gauges.
//   * timelines   — interleaved into one cluster timeline sorted by
//                   (window begin, window end, worker), and rendered as a
//                   multi-lane Chrome trace with one Perfetto pid lane
//                   per worker report.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/snapshot.h"
#include "obs/timeline.h"

namespace v6::obs {

// One worker's uploaded observability state for one completed lease.
struct WorkerReport {
  std::uint32_t worker = 0;
  std::uint32_t subset = 0;
  Snapshot snapshot;
  Timeline timeline;
};

// One window of the merged cluster timeline, tagged with the worker that
// recorded it. The merged sequence is NOT gapless (workers overlap), so
// it is rendered with an explicit "worker" field rather than pretending
// to be a single-process timeline.
struct ClusterWindow {
  std::uint32_t worker = 0;
  WindowRecord window;
};

// p50/p90/p99 estimated from histogram bucket bounds, Prometheus
// histogram_quantile-style: linear interpolation inside the bucket the
// rank lands in; a rank landing in the +Inf bucket clamps to the last
// finite bound. Percentiles are nullopt when the histogram is empty.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  std::optional<double> p50;
  std::optional<double> p90;
  std::optional<double> p99;
};

HistogramSummary summarize_histogram(const HistogramData& histogram);

class ClusterAggregator {
 public:
  // Folds one worker's report in. A report for an already-seen part
  // (`subset` on the wire) replaces the previous one (lease reassignment:
  // only the completing lease's state counts — keeping both would
  // double-count the part).
  void add_worker(std::uint32_t worker, std::uint32_t subset,
                  Snapshot snapshot, Timeline timeline);

  bool empty() const noexcept { return reports_.empty(); }
  std::size_t report_count() const noexcept { return reports_.size(); }
  // Reports sorted by (worker, subset).
  const std::vector<WorkerReport>& reports() const noexcept {
    return reports_;
  }

  // The merged cluster registry view, sorted by (name, labels) exactly
  // like Registry::snapshot() so exposition output is deterministic.
  Snapshot cluster_snapshot() const;

  // Every worker window interleaved, sorted by (begin, end, worker).
  std::vector<ClusterWindow> cluster_timeline() const;

  // JSONL rendering of cluster_timeline(): the single-process window
  // shape plus a leading "worker" field per line. Every line passes
  // lint_json; the gapless single-timeline check deliberately does not
  // apply.
  std::string render_cluster_timeline() const;

  // Multi-lane Chrome trace: one pid lane per report (named
  // "worker W subset S"), loadable in Perfetto side by side and clean
  // under lint_trace_events.
  std::string render_trace() const;

 private:
  std::vector<WorkerReport> reports_;  // sorted by (worker, subset)
};

// Dependency-free validator for the `v6pool_cli obs-report` artifact:
// the text must be one valid JSON object (lint_json) declaring
// "report":"v6pool_run_report", carrying the required top-level sections
// (version, config with digest, kernel_backend, metrics, stage_wall_us,
// serve_latency, epochs, timeline), and every p50_us/p90_us/p99_us value
// must be a JSON number or null. Returns nullopt when clean, else a
// description.
std::optional<std::string> lint_report(std::string_view text);

}  // namespace v6::obs
