// Out-of-core corpus engine: ingest/merge throughput and on-disk size of
// the tiered run files versus the in-memory table, on the same seeded
// world. Exits non-zero if the spilled corpus is not byte-identical to
// the in-memory snapshot — the engine's headline invariant — and, without
// writing any JSON, if the budget left fewer than two run files: a merge
// of one run measures a copy, not the k-way merge.
//
// Emits BENCH_corpus.json (records/sec ingest, merge MB/s, bytes per
// address on disk) for the perf-trajectory archive.
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "bench_common.h"
#include "hitlist/corpus_io.h"
#include "hitlist/passive_collector.h"
#include "hitlist/tiered_corpus.h"

int main() {
  using namespace v6;
  auto config = bench::bench_config();
  config.collector.threads = 4;
  bench::print_banner("Out-of-core corpus: spill/merge engine", config);

  // 256 KiB unless V6_BENCH_SPILL_MB says otherwise: at the committed
  // scale (2,000 sites x 40 days) that spills several runs, so the k-way
  // merge below really runs. A 1 MiB budget spilled once there.
  std::uint64_t budget_kib = 256;
  if (const char* raw = std::getenv("V6_BENCH_SPILL_MB")) {
    if (const auto mib = util::parse_dec_u64(raw)) budget_kib = *mib << 10;
  }

  core::Study study(config);
  netsim::PoolDns dns(study.world(), 0.25, config.pool_capture_share);

  // Reference: the whole corpus in one in-memory table.
  hitlist::PassiveCollector in_memory_collector(study.world(),
                                                study.plane(), dns,
                                                config.collector);
  hitlist::Corpus reference(1 << 16);
  const double in_memory_s =
      bench::timed_seconds("in-memory collection", [&] {
        in_memory_collector.run(reference, config.world.study_start,
                                config.world.study_start +
                                    config.world.study_duration);
      });

  // Out-of-core: same window, shard tables spill to sorted runs whenever
  // their combined footprint crosses the budget at a merge barrier.
  hitlist::SpillConfig spill;
  spill.memory_budget_bytes = budget_kib << 10;
  hitlist::TieredCorpus runs(spill);
  hitlist::PassiveCollector spilling_collector(study.world(),
                                               study.plane(), dns,
                                               config.collector);
  const double ingest_s = bench::timed_seconds(
      "out-of-core collection (" + std::to_string(budget_kib) +
          " KiB budget)",
      [&] {
        spilling_collector.run(runs, config.world.study_start,
                               config.world.study_start +
                                   config.world.study_duration);
      });
  const std::uint64_t observations = runs.total_observations();
  const std::uint64_t run_files = runs.run_count();
  const std::uint64_t spills = runs.stats().spills;

  // Merge throughput: one aggregating k-way pass over every run file.
  const std::uint64_t merge_input_bytes = runs.stats().disk_bytes;
  std::uint64_t merged_records = 0;
  const double merge_s = bench::timed_seconds(
      "k-way merge over " + std::to_string(run_files) + " runs",
      [&] { runs.for_each_merged([&](const auto&) { ++merged_records; }); });
  if (run_files < 2) {
    std::fprintf(stderr,
                 "bench_corpus_spill: the k-way merge did not run (%llu run "
                 "file(s), %llu records); lower the budget or raise the "
                 "scale. No BENCH_corpus.json written.\n",
                 static_cast<unsigned long long>(run_files),
                 static_cast<unsigned long long>(merged_records));
    return 1;
  }

  // On-disk footprint of the *corpus* (not the spill backlog): compact
  // to a single run so duplicate addresses across spills are aggregated,
  // then compare bytes per unique address against the in-memory table.
  bench::timed("compaction", [&] { runs.compact(); });
  const std::uint64_t disk_bytes = runs.stats().disk_bytes;
  const double disk_bpa =
      merged_records > 0
          ? static_cast<double>(disk_bytes) /
                static_cast<double>(merged_records)
          : 0.0;
  const double memory_bpa =
      reference.size() > 0
          ? static_cast<double>(reference.memory_bytes()) /
                static_cast<double>(reference.size())
          : 0.0;

  // The invariant everything above rests on: identical snapshot bytes.
  std::ostringstream from_memory, from_disk;
  hitlist::save_corpus(from_memory, reference);
  runs.save(from_disk);
  const bool identical = from_memory.str() == from_disk.str();

  const double ingest_rate =
      ingest_s > 0 ? static_cast<double>(observations) / ingest_s : 0.0;
  const double merge_rate = static_cast<double>(merged_records) / merge_s;
  const double merge_mbps =
      static_cast<double>(merge_input_bytes) / (merge_s * 1024.0 * 1024.0);

  bench::Comparison comparison;
  comparison.row("unique addresses", "7.9B (paper)",
                 util::with_commas(merged_records));
  comparison.row("spills / run files", "-",
                 std::to_string(spills) + " / " +
                     std::to_string(run_files));
  comparison.row("ingest rate", "-",
                 util::with_commas(static_cast<std::uint64_t>(
                     ingest_rate)) +
                     " obs/s");
  comparison.row("merge rate", "-",
                 util::with_commas(static_cast<std::uint64_t>(
                     merge_rate)) +
                     " rec/s");
  comparison.row("disk bytes per address", "<= 8 (target)",
                 std::to_string(disk_bpa));
  comparison.row("in-memory bytes per address", "32 + index",
                 std::to_string(memory_bpa));
  comparison.row("snapshot bytes identical", "yes",
                 identical ? "yes" : "NO — DETERMINISM BUG");
  comparison.print();

  // The <= 8 target presumes structured IIDs. On this world most corpus
  // addresses are RFC 4941 privacy addresses whose random 64-bit IIDs
  // are incompressible, so the honest floor is ~1 (tag) + ~8 (IID) +
  // ~4 (first_seen) bytes; report the fraction so the JSON records why.
  std::uint64_t full_entropy = 0;
  for (const auto& rec : reference.records()) {
    if (rec.address.lo64() >= (std::uint64_t{1} << 56)) ++full_entropy;
  }
  const double full_entropy_share =
      reference.size() > 0 ? static_cast<double>(full_entropy) /
                                 static_cast<double>(reference.size())
                           : 0.0;
  std::printf("full-entropy IIDs (>= 2^56): %.1f%% of addresses — the\n"
              "<= 8 B/addr target is reachable only for structured-IID "
              "populations\n",
              100.0 * full_entropy_share);

  bench::BenchJson json = bench::scaled_bench_json("bench_corpus_spill");
  json.integer("spill_budget_kib", budget_kib);
  json.integer("unique_addresses", merged_records);
  json.integer("observations", observations);
  json.integer("spills", spills);
  json.integer("run_files", run_files);
  json.number("in_memory_collect_seconds", in_memory_s);
  json.number("out_of_core_collect_seconds", ingest_s);
  json.number("ingest_records_per_sec", ingest_rate);
  json.number("merge_seconds", merge_s);
  json.number("merge_records_per_sec", merge_rate);
  json.number("merge_mb_per_sec", merge_mbps);
  json.integer("disk_bytes", disk_bytes);
  json.number("disk_bytes_per_address", disk_bpa);
  json.number("in_memory_bytes_per_address", memory_bpa);
  json.number("full_entropy_iid_share", full_entropy_share);
  json.boolean("snapshot_bit_identical", identical);
  json.write("BENCH_corpus.json");

  return identical ? 0 : 1;
}
