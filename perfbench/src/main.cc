// v6bench: one workload of the v6pool benchmark per invocation.
//
//   v6bench --workload <study|collect_spill|serve_live|collect_dist>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--tiny] [--work-dir DIR] [--trace-dir DIR] [--expect NAME=VALUE]
//
// Repeats the workload until --seconds have passed and reports medians.
// --trace 0 prints the end-to-end metrics; --trace 1 spends the first half
// untraced and the second half traced, prints the per-layer metrics, and
// writes the spans as a Chrome trace. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>

#include "bench.h"
#include "obs/trace_export.h"
#include "workloads.h"

namespace {

using namespace v6bench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Declared in BENCHMARK.json; every workload reports each of them. The
// traced run also prints the per-layer samples only some workloads have.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"query_batch_p50_us", "us"},
    {"query_batch_p99_us", "us"},
};
constexpr MetricDef kPerLayer[] = {
    {"sim.world_generate_s", "s"},
    {"core.collect_s", "s"},
    {"hitlist.collect_polls_per_s", "polls/s"},
    {"netsim.path_ns", "ns"},
    {"netsim.hop_echo_ns", "ns"},
    {"serve.publish_ms", "ms"},
    {"serve.snapshot_bytes", "B"},
    {"serve.pin_ns", "ns"},
    {"serve.point_ns", "ns"},
    {"serve.density48_ns", "ns"},
    {"serve.entropy64_ns", "ns"},
    {"serve.oui_ns", "ns"},
    {"obs.trace_overhead_ratio", "ratio"},
};

// Unit of a workload-specific per-layer sample, from its name.
std::string unit_of(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_per_s")) return "1/s";
  if (ends("_qps")) return "queries/s";
  if (ends("_ms")) return "ms";
  if (ends("_ns")) return "ns";
  if (ends("_s")) return "s";
  if (ends("_ratio") || ends("_yield") || ends("_factor")) return "ratio";
  if (ends("_bytes") || ends("_per_addr")) return "B";
  return "count";
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "v6bench: " << error
            << "\nusage: v6bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--work-dir DIR] [--trace-dir DIR] "
               "[--expect NAME=VALUE]...\n";
  std::exit(2);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string trace_dir = ".bench_build/traces";
  bool have_workload = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        options.trace = v == "1";
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--work-dir") {
        options.work_dir = value();
      } else if (arg == "--trace-dir") {
        trace_dir = value();
      } else if (arg == "--expect") {
        const std::string v = value();
        const auto eq = v.find('=');
        if (eq == std::string::npos) usage("--expect takes NAME=VALUE");
        options.expect[v.substr(0, eq)] = v.substr(eq + 1);
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload || !have_seconds || !(options.seconds > 0)) {
    usage("--workload and a positive --seconds are required");
  }
  std::unique_ptr<Workload> workload = make_workload(options);
  if (workload == nullptr) usage("unknown workload " + options.workload);

  try {
    std::filesystem::create_directories(options.work_dir);
    Bench bench(options);
    std::cout << "workload " << options.workload << ", seed " << options.seed
              << ", " << options.seconds << " s"
              << (options.trace ? ", traced" : "")
              << (options.tiny ? ", tiny scale" : "") << "\n";

    workload->prepare(bench);
    // A few set-ups beyond the one each repetition does, so setup_s is a
    // median over several even when few repetitions fit.
    for (int i = 0; i < 4; ++i) workload->setup(bench);

    // Traced: the first half runs untraced (the base of the tracing
    // overhead), the second half traced. At least one repetition each.
    const auto start = Clock::now();
    std::vector<double> untraced_wall;
    int rep = 0;
    const auto run_until = [&](double until_s, bool traced) {
      int reps = 0;
      while (reps == 0 || seconds_since(start) < until_s) {
        bench.spans.set_run(rep++);
        workload->rep(bench, traced);
        ++reps;
        const double wall = bench.samples["wall_s"].back();
        std::printf("rep %d%s: setup %.6f s, wall %.6f s\n", rep,
                    traced ? " (traced)" : "", bench.samples["setup_s"].back(),
                    wall);
        // Workloads that do not serve while ingesting serve each
        // repetition's final corpus for a tenth of its wall time, so query
        // samples spread over the whole run like the wall samples do.
        if (!workload->serves_during_ingest()) {
          serve_final_corpus(bench, workload->study(), workload->keys(),
                             std::clamp(wall / 10, 0.05, 0.5));
        }
      }
    };
    if (options.trace) {
      run_until(options.seconds / 2, false);
      untraced_wall = bench.samples["wall_s"];
      bench.samples["wall_s"].clear();
      run_until(options.seconds, true);
    } else {
      run_until(options.seconds, false);
    }
    const std::size_t reps = static_cast<std::size_t>(rep);

    if (options.trace) {
      time_serving(bench, workload->study(), workload->keys());
      probe_netsim(bench, workload->study());
    }

    // --- Report ---------------------------------------------------------
    std::map<std::string, double> values;
    for (const auto& [name, samples] : bench.samples) {
      values[name] = median(samples);
    }
    const double batches = static_cast<double>(bench.batch_latency.count());
    values["peak_rss_mib"] = peak_rss_mib();
    for (const std::string& name : bench.null_metrics) {
      values[name] = std::nan("");
    }

    std::cout << "repetitions " << reps << ", pinned query batches "
              << batches << "\n";
    if (!options.trace) {
      for (const MetricDef& m : kEndToEnd) {
        const auto it = values.find(m.name);
        std::printf("metric %-22s %14.6g %s\n", m.name,
                    it != values.end() ? it->second : std::nan(""), m.unit);
      }
      // Printed, not declared: it also counts time the host or the guest
      // kept the readers off a CPU, so it swung 44% between two sets of ten
      // runs while the batch latencies held.
      std::printf("metric %-22s %14.6g queries/s (not declared)\n",
                  "query_qps", values["query_qps"]);
      std::printf("  pooled over %.0f batches: p50 %.3f us, p99 %.3f us; "
                  "highest percentile with >= 10 samples beyond it: "
                  "p%.4f = %.3f us\n",
                  batches, bench.batch_latency.quantile(0.50) / 1e3,
                  bench.batch_latency.quantile(0.99) / 1e3,
                  bench.batch_latency.highest_percentile(10),
                  bench.batch_latency.quantile(
                      bench.batch_latency.highest_percentile(10) / 100) /
                      1e3);
    } else {
      values["obs.trace_overhead_ratio"] =
          median(bench.samples["wall_s"]) / median(untraced_wall) - 1;
      // Every per-layer sample: the declared ones and those only this
      // workload's layers produce.
      std::map<std::string, std::string> units;
      for (const MetricDef& m : kPerLayer) units[m.name] = m.unit;
      for (const MetricDef& m : kEndToEnd) units[m.name] = "";
      for (const auto& [name, value] : values) {
        const auto it = units.find(name);
        if (it != units.end() && it->second.empty()) continue;
        std::printf("layer  %-34s %16.6g %s\n", name.c_str(), value,
                    it != units.end() ? it->second.c_str()
                                      : unit_of(name).c_str());
      }
      std::printf("traced wall_s %.6f s (untraced %.6f s)\n",
                  median(bench.samples["wall_s"]), median(untraced_wall));
      std::printf("%-42s %10s %10s %6s\n", "span", "total_s", "self_s",
                  "calls");
      const auto totals = bench.spans.totals();
      for (const auto& [name, t] : totals) {
        std::printf("%-42s %10.4f %10.4f %6llu\n", name.c_str(), t.total_s,
                    t.self_s, static_cast<unsigned long long>(t.calls));
      }
      if (const auto it = totals.find("wall"); it != totals.end()) {
        std::printf("stage spans cover %.2f%% of traced wall time\n",
                    100.0 * (1 - it->second.self_s / it->second.total_s));
      }
      const std::string trace = bench.spans.chrome_trace();
      const auto lint = v6::obs::lint_trace_events(trace);
      bench.checks.check(!lint, "trace passes lint_trace_events" +
                                    (lint ? ": " + *lint : std::string()));
      std::filesystem::create_directories(trace_dir);
      const std::string path = trace_dir + "/" + options.workload + "-s" +
                               std::to_string(options.seed) + ".json";
      std::ofstream(path) << trace;
      std::cout << "trace written to " << path << "\n";
    }
    const std::span<const MetricDef> declared =
        options.trace ? std::span<const MetricDef>(kPerLayer)
                      : std::span<const MetricDef>(kEndToEnd);
    // A declared metric nothing measured is reported as null and fails the
    // run, never as 0.
    for (const MetricDef& m : declared) {
      if (!values.contains(m.name)) {
        bench.checks.check(false, std::string(m.name) + " was measured");
        values[m.name] = std::nan("");
      }
    }
    const std::uint64_t attempted = bench.checks.attempted();
    const std::uint64_t failed = bench.checks.failed();
    std::printf("metric %-22s %14.6g ratio  (%llu failed of %llu attempted)\n",
                "failed_ratio",
                attempted > 0 ? static_cast<double>(failed) /
                                    static_cast<double>(attempted)
                              : 0.0,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));

    std::ostringstream json;
    json << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& m : declared) {
      json << (first ? "" : ", ") << "\"" << m.name
           << "\": {\"value\": " << json_number(values[m.name])
           << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "v6bench: " << e.what() << "\n";
    return 1;
  }
}
