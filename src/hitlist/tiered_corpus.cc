#include "hitlist/tiered_corpus.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "hitlist/corpus_io.h"

namespace v6::hitlist {

namespace fs = std::filesystem;

namespace {

// Unique-per-process suffix for auto-created spill directories: parallel
// ctest jobs share the temp root, so the pid alone is not enough once a
// process builds several engines.
std::uint64_t next_directory_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

std::string zero_padded(std::uint64_t v) {
  std::string digits = std::to_string(v);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  return digits;
}

}  // namespace

TieredCorpus::TieredCorpus(SpillConfig config, obs::Registry* metrics)
    : config_(std::move(config)) {
  if (config_.directory.empty()) {
    const fs::path dir =
        fs::temp_directory_path() /
        ("v6pool-runs-" + std::to_string(::getpid()) + "-" +
         std::to_string(next_directory_id()));
    fs::create_directories(dir);
    config_.directory = dir.string();
    owns_directory_ = true;
  } else {
    owns_directory_ = !fs::exists(config_.directory);
    fs::create_directories(config_.directory);
  }
  if (metrics != nullptr) {
    metric_spills_ = metrics->counter(
        "v6_corpus_spills_total", "Shard tables flushed into on-disk runs");
    metric_spilled_records_ =
        metrics->counter("v6_corpus_spilled_records_total",
                         "Address records written across all spills");
    metric_spill_bytes_ = metrics->counter(
        "v6_corpus_spill_bytes_total", "Run-file bytes written by spills");
    metric_compactions_ = metrics->counter(
        "v6_corpus_compactions_total", "Multi-run merges into a single run");
    metric_runs_ =
        metrics->gauge("v6_corpus_runs", "Live on-disk runs right now");
  }
}

TieredCorpus::~TieredCorpus() {
  std::error_code ec;  // destructor path: never throw, best effort
  for (const Run& run : runs_) fs::remove(run.path, ec);
  if (owns_directory_) fs::remove(config_.directory, ec);
}

void TieredCorpus::invalidate_caches() {
  merged_size_cache_.reset();
  bounds_cache_.reset();
}

TieredCorpus::Run TieredCorpus::write_run(
    const std::function<void(RunWriter&)>& fill) {
  Run run;
  // spills + compactions counts every file ever created, so the sequence
  // number stays unique across compactions that delete earlier runs.
  run.path = (fs::path(config_.directory) /
              ("run-" + zero_padded(stats_.spills + stats_.compactions) +
               ".v6run"))
                 .string();
  {
    std::ofstream out(run.path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("tiered corpus: cannot create run file: " +
                               run.path);
    }
    RunWriter writer(out, {.block_records = config_.block_records});
    fill(writer);
    run.bytes = writer.finish().bytes;
    out.flush();
    if (!out) {
      throw std::runtime_error("tiered corpus: run write failed: " +
                               run.path);
    }
  }
  std::ifstream in(run.path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("tiered corpus: cannot reopen run file: " +
                             run.path);
  }
  RunReader reader(in);
  run.records = reader.records();
  run.observations = reader.observations();
  run.blocks = reader.blocks();
  return run;
}

void TieredCorpus::spill(Corpus&& shard) {
  if (shard.size() == 0) return;
  shard.canonicalize();
  Run run = write_run([&shard](RunWriter& writer) {
    for (const AddressRecord& rec : shard.records()) writer.append(rec);
    shard = Corpus(0);  // release the table before the validation read
  });

  stats_.spills += 1;
  stats_.spilled_records += run.records;
  stats_.disk_bytes += run.bytes;
  metric_spills_.inc();
  metric_spilled_records_.inc(run.records);
  metric_spill_bytes_.inc(run.bytes);
  runs_.push_back(std::move(run));
  metric_runs_.set(static_cast<double>(runs_.size()));
  invalidate_caches();
}

void TieredCorpus::merge(const std::function<void(const AddressRecord&)>& fn,
                         std::span<const AddressRecord> extra,
                         const net::Ipv6Address* lo,
                         const net::Ipv6Address* hi) const {
  // The ifstreams and readers outlive the cursors the streams capture.
  std::vector<std::unique_ptr<std::ifstream>> files;
  std::vector<std::unique_ptr<RunReader>> readers;
  std::vector<RecordStream> streams;
  streams.reserve(runs_.size() + 1);
  for (const Run& run : runs_) {
    auto file = std::make_unique<std::ifstream>(run.path, std::ios::binary);
    if (!*file) {
      throw std::runtime_error("tiered corpus: cannot open run file: " +
                               run.path);
    }
    auto reader = std::make_unique<RunReader>(*file);
    auto cursor = (lo != nullptr) ? reader->cursor_at(*lo) : reader->cursor();
    streams.push_back([cur = std::move(cursor)](AddressRecord& out) mutable {
      return cur.next(out);
    });
    files.push_back(std::move(file));
    readers.push_back(std::move(reader));
  }
  if (!extra.empty()) {
    streams.push_back([extra, i = std::size_t{0}](AddressRecord& out) mutable {
      if (i >= extra.size()) return false;
      out = extra[i++];
      return true;
    });
  }
  merge_record_streams(std::move(streams), [&](const AddressRecord& rec) {
    if (hi != nullptr && !(rec.address < *hi)) return false;
    fn(rec);
    return true;
  });
}

void TieredCorpus::compact() {
  if (runs_.size() <= 1) return;
  Run merged = write_run([this](RunWriter& writer) {
    merge([&writer](const AddressRecord& rec) { writer.append(rec); });
  });

  std::error_code ec;
  for (const Run& run : runs_) fs::remove(run.path, ec);
  runs_.clear();
  stats_.compactions += 1;
  stats_.disk_bytes = merged.bytes;
  runs_.push_back(std::move(merged));
  metric_compactions_.inc();
  metric_runs_.set(static_cast<double>(runs_.size()));
  invalidate_caches();
}

std::uint64_t TieredCorpus::merged_size() const {
  if (!merged_size_cache_.has_value()) {
    std::uint64_t unique = 0;
    merge([&unique](const AddressRecord&) { ++unique; });
    merged_size_cache_ = unique;
  }
  return *merged_size_cache_;
}

std::uint64_t TieredCorpus::merged_size_with(const Corpus& extra) const {
  // `extra` must be canonicalized: the merge requires strictly-ascending
  // inputs, and a canonical record array is exactly that.
  std::uint64_t unique = 0;
  merge([&unique](const AddressRecord&) { ++unique; }, extra.records());
  return unique;
}

std::uint64_t TieredCorpus::total_observations() const noexcept {
  std::uint64_t total = 0;
  for (const Run& run : runs_) total += run.observations;
  return total;
}

void TieredCorpus::for_each_merged(
    const std::function<void(const AddressRecord&)>& fn) const {
  merge(fn);
}

const std::vector<net::Ipv6Address>& TieredCorpus::segment_bounds() const {
  if (!bounds_cache_.has_value()) {
    std::vector<net::Ipv6Address> bounds;
    for (const Run& run : runs_) {
      for (const RunBlockInfo& block : run.blocks) {
        bounds.push_back(block.first_address);
      }
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    bounds_cache_ = std::move(bounds);
  }
  return *bounds_cache_;
}

void TieredCorpus::scan_segment_blocks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::span<const AddressRecord>)>& fn) const {
  const auto& bounds = segment_bounds();
  end = std::min(end, bounds.size());
  if (begin >= end) return;
  const net::Ipv6Address* hi = end < bounds.size() ? &bounds[end] : nullptr;
  // The k-way merge surfaces one aggregated record at a time; stage them
  // in a scan-local buffer and hand off full blocks.
  std::vector<AddressRecord> buffer;
  buffer.reserve(kScanBlockRecords);
  merge(
      [&](const AddressRecord& rec) {
        buffer.push_back(rec);
        if (buffer.size() == kScanBlockRecords) {
          fn(std::span<const AddressRecord>(buffer));
          buffer.clear();
        }
      },
      {}, &bounds[begin], hi);
  if (!buffer.empty()) fn(std::span<const AddressRecord>(buffer));
}

Corpus TieredCorpus::collapse() const {
  Corpus corpus(static_cast<std::size_t>(merged_size()));
  for_each_merged(
      [&corpus](const AddressRecord& rec) { corpus.add_record(rec); });
  return corpus;  // ascending insertion order: already canonical
}

std::size_t TieredCorpus::save(std::ostream& out) const {
  // Two passes over the merge (count, then write): the snapshot header
  // holds the totals up front and CorpusSnapshotWriter cross-checks them,
  // so a merge that is not repeatable fails loudly at finish().
  CorpusSnapshotWriter writer(out, merged_size(), total_observations());
  for_each_merged(
      [&writer](const AddressRecord& rec) { writer.append(rec); });
  return writer.finish();
}

}  // namespace v6::hitlist
