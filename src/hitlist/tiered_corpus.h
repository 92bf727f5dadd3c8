// TieredCorpus: the out-of-core corpus engine.
//
// The paper's corpus is 7.9B unique addresses — far past what one
// in-memory table holds. This engine keeps collection's shard tables
// in memory but, at the deterministic merge barriers the chunk loop
// already runs, flushes their union as a sorted, delta-encoded run file
// (run_io.h) and resets the tables. Analysis, snapshot export, and
// compaction then see one ascending record stream via a k-way merge over
// the runs that aggregates duplicates exactly like Corpus::add_record
// (min first_seen, max last_seen, sum count, OR vantage_mask).
//
// Determinism contract (the headline invariant, asserted by tests): for a
// fixed spill budget and thread count the run files are bit-identical
// across repeats, and for ANY budget and ANY thread count the merged
// stream — hence save() bytes and every analysis float — is bit-identical
// to the unlimited-memory run. The pieces: spills happen only at merge
// barriers on the sim-time grid, each run is the canonicalized union of
// ALL shards (thread-count-independent content), and the merge's
// aggregation is field-for-field the in-memory fold.
//
// Every read (merged_size, for_each_merged, scan_segment_blocks, save)
// and compact() is one private k-way merge over the runs, and every run
// file — spilled or compacted — is written, reopened and validated by one
// private helper.
//
// Concurrency: the read path (scan_segment_blocks, for_each_merged) is
// const and opens its own file streams, so ParallelScan workers may call
// it concurrently — PROVIDED the lazy caches were warmed first: call
// segment_bounds() and merged_size() once from one thread (which is what
// analysis::make_source does). Mutations (spill, compact) must be
// externally serialized against everything else.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hitlist/corpus.h"
#include "hitlist/run_io.h"
#include "obs/metrics.h"

namespace v6::hitlist {

struct SpillConfig {
  // Combined heap budget for the collector's shard tables; crossing it at
  // a merge barrier triggers a spill. 0 disables out-of-core collection
  // entirely (the knob Study/RunOptions expose).
  std::size_t memory_budget_bytes = 0;
  // Where run files live; they are removed with the TieredCorpus. Empty:
  // a fresh directory under the system temp root, removed with them.
  std::string directory;
  // Records per run-file block (delta-chain reset + seek granularity).
  // Tests shrink it to force multi-block runs on tiny corpora.
  std::uint32_t block_records = 4096;

  bool active() const noexcept { return memory_budget_bytes > 0; }
};

// Lifetime totals; `disk_bytes` and the runs gauge describe the present.
struct TieredCorpusStats {
  std::uint64_t spills = 0;
  std::uint64_t spilled_records = 0;  // records written across all spills
  std::uint64_t compactions = 0;
  std::uint64_t disk_bytes = 0;  // current total size of live run files
};

class TieredCorpus {
 public:
  explicit TieredCorpus(SpillConfig config, obs::Registry* metrics = nullptr);
  ~TieredCorpus();

  TieredCorpus(const TieredCorpus&) = delete;
  TieredCorpus& operator=(const TieredCorpus&) = delete;

  const SpillConfig& config() const noexcept { return config_; }
  const TieredCorpusStats& stats() const noexcept { return stats_; }
  std::size_t run_count() const noexcept { return runs_.size(); }

  // Canonicalizes `shard` and writes it as one run (consuming it). Empty
  // shards are ignored. The written file is re-opened and validated
  // immediately, so a spill that would not round-trip throws here, not at
  // analysis time.
  void spill(Corpus&& shard);

  // Merges every live run into a single new run and deletes the old
  // files; the merged stream (and all reads) are unchanged.
  void compact();

  // Unique addresses across all runs (one counting merge; cached until
  // the next spill/compact).
  std::uint64_t merged_size() const;
  // As if `extra` (canonicalized, e.g. the live shard union) were a run.
  std::uint64_t merged_size_with(const Corpus& extra) const;
  // Total raw observations (each lands in exactly one run, so this is a
  // plain sum over run headers).
  std::uint64_t total_observations() const noexcept;

  // Streams the aggregated union of all runs in ascending address order.
  void for_each_merged(
      const std::function<void(const AddressRecord&)>& fn) const;

  // The contiguous scan domain handed to analysis::ParallelScan: sorted
  // unique block-start addresses across all runs. Segment i covers
  // addresses [bounds[i], bounds[i+1]) (the last one unbounded above);
  // bounds[0] is the global minimum record address, so concatenating
  // scan_segment_blocks over [0, size) in order replays for_each_merged
  // exactly.
  const std::vector<net::Ipv6Address>& segment_bounds() const;

  // Streams the merged records of segments [begin, end), in ascending
  // address order, as contiguous spans of up to kScanBlockRecords records
  // (the k-way merge emits one record at a time, so records are staged in
  // a scan-local buffer — the span is only valid inside the callback).
  // Block boundaries carry no meaning. Thread-safe against concurrent
  // calls (each opens its own streams); see the caching caveat above.
  static constexpr std::size_t kScanBlockRecords = 4096;
  void scan_segment_blocks(
      std::size_t begin, std::size_t end,
      const std::function<void(std::span<const AddressRecord>)>& fn) const;

  // Materializes the merged stream as an in-memory Corpus (ascending
  // insertion order — already canonical).
  Corpus collapse() const;

  // Writes the merged stream as a corpus snapshot (corpus_io v2),
  // byte-identical to save_corpus() of the equivalent canonicalized
  // in-memory corpus. Returns bytes written.
  std::size_t save(std::ostream& out) const;

 private:
  struct Run {
    std::string path;
    std::uint64_t records = 0;
    std::uint64_t observations = 0;
    std::uint64_t bytes = 0;
    std::vector<RunBlockInfo> blocks;
  };

  // The one k-way merge: streams the aggregated union of every run and
  // `extra` (strictly ascending, e.g. a canonicalized corpus's records)
  // to `fn`, stopping before the first record >= *hi. `lo` starts each
  // run's cursor at its first record >= *lo; `extra` is always streamed
  // whole, so bounded scans pass none. Null bounds are unbounded. Opens
  // each run once.
  void merge(const std::function<void(const AddressRecord&)>& fn,
             std::span<const AddressRecord> extra = {},
             const net::Ipv6Address* lo = nullptr,
             const net::Ipv6Address* hi = nullptr) const;
  // Writes the records `fill` appends as the next run file, then reopens
  // and validates it — a run that would not round-trip (disk error,
  // format bug) fails here, not at analysis time. Returns the validated
  // header and index for segment planning.
  Run write_run(const std::function<void(RunWriter&)>& fill);
  void invalidate_caches();

  SpillConfig config_;
  bool owns_directory_ = false;
  std::vector<Run> runs_;
  TieredCorpusStats stats_;
  mutable std::optional<std::uint64_t> merged_size_cache_;
  mutable std::optional<std::vector<net::Ipv6Address>> bounds_cache_;
  obs::Counter metric_spills_;
  obs::Counter metric_spilled_records_;
  obs::Counter metric_spill_bytes_;
  obs::Counter metric_compactions_;
  obs::Gauge metric_runs_;
};

}  // namespace v6::hitlist
