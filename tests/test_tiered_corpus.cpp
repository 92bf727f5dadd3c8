#include "hitlist/tiered_corpus.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <sstream>
#include <vector>

#include "analysis/parallel_scan.h"
#include "analysis/scan_source.h"
#include "core/study.h"
#include "hitlist/corpus_io.h"
#include "util/rng.h"

namespace v6::hitlist {
namespace {

net::Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return net::Ipv6Address::from_u64(hi, lo);
}

struct Sighting {
  net::Ipv6Address address;
  util::SimTime time;
  std::uint8_t vantage;
};

std::vector<Sighting> random_sightings(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Sighting> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Small key space: plenty of duplicates across spill boundaries.
    out.push_back({addr(rng.bounded(64), rng.bounded(256)),
                   static_cast<util::SimTime>(rng.bounded(1 << 20)),
                   static_cast<std::uint8_t>(rng.bounded(34))});
  }
  return out;
}

Corpus reference_corpus(const std::vector<Sighting>& sightings) {
  Corpus corpus(64);
  for (const auto& s : sightings) corpus.add(s.address, s.time, s.vantage);
  corpus.canonicalize();
  return corpus;
}

// Feeds `sightings` through a TieredCorpus in `spills` equal slices.
// (unique_ptr: TieredCorpus pins its run files and is neither copyable
// nor movable.)
std::unique_ptr<TieredCorpus> spilled(const std::vector<Sighting>& sightings,
                                      std::size_t spills,
                                      std::uint32_t block_records = 16) {
  SpillConfig config;
  config.memory_budget_bytes = 1;
  config.block_records = block_records;
  auto runs = std::make_unique<TieredCorpus>(config);
  const std::size_t per = sightings.size() / spills + 1;
  for (std::size_t begin = 0; begin < sightings.size(); begin += per) {
    Corpus shard(16);
    const std::size_t end = std::min(begin + per, sightings.size());
    for (std::size_t i = begin; i < end; ++i) {
      shard.add(sightings[i].address, sightings[i].time,
                sightings[i].vantage);
    }
    runs->spill(std::move(shard));
  }
  return runs;
}

void expect_stream_matches(const TieredCorpus& runs, const Corpus& want) {
  ASSERT_EQ(runs.merged_size(), want.size());
  EXPECT_EQ(runs.total_observations(), want.total_observations());
  std::size_t i = 0;
  const auto records = want.records();
  runs.for_each_merged([&](const AddressRecord& rec) {
    ASSERT_LT(i, records.size());
    EXPECT_EQ(rec.address, records[i].address) << "record " << i;
    EXPECT_EQ(rec.first_seen, records[i].first_seen) << "record " << i;
    EXPECT_EQ(rec.last_seen, records[i].last_seen) << "record " << i;
    EXPECT_EQ(rec.count, records[i].count) << "record " << i;
    EXPECT_EQ(rec.vantage_mask, records[i].vantage_mask) << "record " << i;
    ++i;
  });
  EXPECT_EQ(i, records.size());
}

TEST(TieredCorpus, MergedStreamMatchesReferenceAcrossSpillCounts) {
  const auto sightings = random_sightings(8000, 3);
  const Corpus want = reference_corpus(sightings);
  for (const std::size_t spills : {1u, 2u, 5u, 13u}) {
    const auto runs = spilled(sightings, spills);
    EXPECT_EQ(runs->stats().spills, spills);
    expect_stream_matches(*runs, want);
  }
}

TEST(TieredCorpus, EmptySpillsAreIgnored) {
  SpillConfig config;
  config.memory_budget_bytes = 1;
  TieredCorpus runs(config);
  runs.spill(Corpus(16));
  EXPECT_EQ(runs.stats().spills, 0u);
  EXPECT_EQ(runs.run_count(), 0u);
  EXPECT_EQ(runs.merged_size(), 0u);
  std::size_t visits = 0;
  runs.for_each_merged([&](const AddressRecord&) { ++visits; });
  EXPECT_EQ(visits, 0u);
}

TEST(TieredCorpus, CollapseMaterializesTheMergedStream) {
  const auto sightings = random_sightings(3000, 11);
  const Corpus want = reference_corpus(sightings);
  const auto runs = spilled(sightings, 4);
  const Corpus got = runs->collapse();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.total_observations(), want.total_observations());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.records()[i].address, want.records()[i].address);
    EXPECT_EQ(got.records()[i].count, want.records()[i].count);
  }
}

TEST(TieredCorpus, SaveBytesMatchInMemorySnapshot) {
  const auto sightings = random_sightings(5000, 13);
  const Corpus want = reference_corpus(sightings);
  std::stringstream expected(std::ios::in | std::ios::out |
                             std::ios::binary);
  save_corpus(expected, want);

  for (const std::size_t spills : {1u, 3u, 9u}) {
    const auto runs = spilled(sightings, spills);
    std::stringstream got(std::ios::in | std::ios::out | std::ios::binary);
    const auto bytes = runs->save(got);
    EXPECT_EQ(bytes, expected.str().size());
    EXPECT_EQ(got.str(), expected.str()) << spills << " spills";
    // The snapshot loads back to the same corpus.
    const Corpus loaded = load_corpus(got);
    EXPECT_EQ(loaded.size(), want.size());
    EXPECT_EQ(loaded.total_observations(), want.total_observations());
  }
}

TEST(TieredCorpus, CompactionPreservesEveryRead) {
  const auto sightings = random_sightings(4000, 17);
  const Corpus want = reference_corpus(sightings);
  auto runs = spilled(sightings, 7);
  ASSERT_EQ(runs->run_count(), 7u);
  std::stringstream before(std::ios::in | std::ios::out | std::ios::binary);
  runs->save(before);

  runs->compact();
  EXPECT_EQ(runs->run_count(), 1u);
  EXPECT_EQ(runs->stats().compactions, 1u);
  expect_stream_matches(*runs, want);
  std::stringstream after(std::ios::in | std::ios::out | std::ios::binary);
  runs->save(after);
  EXPECT_EQ(after.str(), before.str());
}

TEST(TieredCorpus, ScanSegmentsConcatenationReplaysMergedStream) {
  const auto sightings = random_sightings(6000, 19);
  const Corpus want = reference_corpus(sightings);
  const auto runs = spilled(sightings, 5, /*block_records=*/8);
  const auto& bounds = runs->segment_bounds();
  ASSERT_GT(bounds.size(), 4u);  // multi-segment domain

  for (const std::size_t pieces :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, bounds.size()}) {
    std::vector<AddressRecord> got;
    const std::size_t per = bounds.size() / pieces + 1;
    for (std::size_t begin = 0; begin < bounds.size(); begin += per) {
      runs->scan_segment_blocks(
          begin, std::min(begin + per, bounds.size()),
          [&](std::span<const AddressRecord> block) {
            EXPECT_FALSE(block.empty());
            EXPECT_LE(block.size(), TieredCorpus::kScanBlockRecords);
            got.insert(got.end(), block.begin(), block.end());
          });
    }
    ASSERT_EQ(got.size(), want.size()) << pieces << " pieces";
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].address, want.records()[i].address);
      EXPECT_EQ(got[i].first_seen, want.records()[i].first_seen);
      EXPECT_EQ(got[i].last_seen, want.records()[i].last_seen);
      EXPECT_EQ(got[i].count, want.records()[i].count);
      EXPECT_EQ(got[i].vantage_mask, want.records()[i].vantage_mask);
    }
  }
}

TEST(TieredCorpus, MergedSizeWithExtraCountsTheUnion) {
  const auto sightings = random_sightings(2000, 23);
  const auto runs = spilled(sightings, 3);
  Corpus extra(16);
  // Half duplicates of spilled addresses, half fresh.
  extra.add(sightings[0].address, 1, 0);
  extra.add(sightings[1].address, 2, 1);
  extra.add(addr(0x7777, 1), 3, 2);
  extra.add(addr(0x7777, 2), 4, 3);
  extra.canonicalize();

  Corpus combined = runs->collapse();
  combined.merge(extra);
  EXPECT_EQ(runs->merged_size_with(extra), combined.size());
  EXPECT_EQ(runs->merged_size_with(Corpus(1)), runs->merged_size());
}

TEST(TieredCorpus, ParallelScanIsBackendAndThreadCountInvariant) {
  const auto sightings = random_sightings(6000, 29);
  const Corpus corpus = reference_corpus(sightings);
  const auto runs = spilled(sightings, 5);

  // Concatenation-style kernel: the visited sequence itself is the
  // result, so any reordering or loss across backends/threads fails.
  const auto visit_sequence = [](const analysis::ScanSource& source,
                                 unsigned threads) {
    analysis::AnalysisConfig config;
    config.threads = util::Parallelism(threads);
    return analysis::scan_corpus<std::vector<std::uint64_t>>(
        source, config, "test/visit_sequence",
        [] { return std::vector<std::uint64_t>(); },
        [](std::vector<std::uint64_t>& v, const AddressRecord& rec) {
          v.push_back(rec.address.iid() ^ rec.count ^ rec.vantage_mask ^
                      rec.first_seen ^ rec.last_seen);
        },
        [](std::vector<std::uint64_t>& into,
           std::vector<std::uint64_t>&& from) {
          into.insert(into.end(), from.begin(), from.end());
        });
  };

  const auto want = visit_sequence(analysis::make_source(corpus), 1);
  ASSERT_EQ(want.size(), corpus.size());
  for (const unsigned threads : {1u, 2u, 4u}) {
    EXPECT_EQ(visit_sequence(analysis::make_source(corpus), threads), want);
    EXPECT_EQ(visit_sequence(analysis::make_source(*runs), threads), want)
        << threads << " threads";
  }
}

TEST(TieredCorpus, RemovesRunFilesAndOwnedDirectoryOnDestruction) {
  namespace fs = std::filesystem;
  fs::path dir;
  {
    const auto sightings = random_sightings(500, 31);
    const auto runs = spilled(sightings, 3);
    ASSERT_EQ(runs->run_count(), 3u);
    dir = fs::path(runs->config().directory.empty()
                       ? fs::temp_directory_path()
                       : fs::path(runs->config().directory));
    // The engine either names an explicit directory or created its own;
    // grab the actual run-file parent from the stats instead.
    EXPECT_GT(runs->stats().disk_bytes, 0u);
  }
  // An explicit directory is kept (only the files go); an owned temp
  // directory disappears entirely. Exercise the explicit-directory path.
  const fs::path mine =
      fs::temp_directory_path() / "v6pool-test-tiered-explicit";
  fs::create_directories(mine);
  {
    SpillConfig config;
    config.memory_budget_bytes = 1;
    config.directory = mine.string();
    TieredCorpus direct(config);
    Corpus shard(16);
    shard.add(addr(1, 1), 1, 0);
    direct.spill(std::move(shard));
    EXPECT_FALSE(fs::is_empty(mine));
  }
  EXPECT_TRUE(fs::exists(mine));
  EXPECT_TRUE(fs::is_empty(mine));
  fs::remove_all(mine);
}

// --- Study-level acceptance: out-of-core == in-memory, bit for bit ------

struct StudyFingerprint {
  std::string corpus_bytes;
  std::uint64_t ntp_size = 0;
  std::vector<double> entropy;
  std::vector<analysis::DatasetSummary> table1;
  analysis::AddressLifetimeReport address_lifetimes;
  analysis::IidLifetimeReport iid_lifetimes;
  std::vector<std::pair<sim::Asn, std::vector<double>>> top_ases;
  std::array<std::uint64_t, 7> category_counts{};
  std::vector<std::pair<geo::CountryCode, std::uint64_t>> countries;
  std::uint64_t spills = 0;
  std::size_t runs = 0;
};

core::StudyConfig spill_study_config(unsigned threads) {
  core::StudyConfig config;
  config.world.seed = 91;
  config.world.total_sites = 250;
  config.pool_capture_share = 1.0;
  config.world.study_duration = 10 * util::kDay;
  config.backscan_start = 12 * util::kDay;
  config.backscan_duration = util::kDay;
  config.hitlist_campaign.start = util::kDay;
  config.hitlist_campaign.duration = 6 * util::kDay;
  config.caida_campaign.start = util::kDay;
  config.caida_campaign.duration = 5 * util::kDay;
  config.caida_campaign.slash48_fraction = 0.005;
  config.collector.threads = util::Parallelism(threads);
  config.analysis.threads = util::Parallelism(threads);
  return config;
}

StudyFingerprint run_study(std::size_t memory_budget, unsigned threads) {
  auto config = spill_study_config(threads);
  config.spill.memory_budget_bytes = memory_budget;
  core::Study study(config);
  core::RunOptions options;
  options.backscan = false;  // no NTP-corpus dependence; keep the test fast
  const auto& r = study.run(std::move(options));

  StudyFingerprint fp;
  std::stringstream snapshot(std::ios::in | std::ios::out |
                             std::ios::binary);
  study.save_ntp(snapshot);
  fp.corpus_bytes = snapshot.str();
  fp.ntp_size = study.ntp_size();
  fp.entropy = r.analysis.entropy.sorted_samples();
  fp.table1 = r.analysis.table1;
  fp.address_lifetimes = r.analysis.address_lifetimes;
  fp.iid_lifetimes = r.analysis.iid_lifetimes;
  for (const auto& as : r.analysis.top_ases) {
    fp.top_ases.emplace_back(as.asn, as.entropy.sorted_samples());
  }
  fp.category_counts = r.analysis.categories.counts;
  fp.countries = study.country_mix();
  if (r.ntp_runs != nullptr) {
    fp.spills = r.ntp_runs->stats().spills;
    fp.runs = r.ntp_runs->run_count();
  }
  return fp;
}

void expect_same_fingerprint(const StudyFingerprint& got,
                             const StudyFingerprint& want,
                             const std::string& label) {
  EXPECT_EQ(got.corpus_bytes, want.corpus_bytes) << label;
  EXPECT_EQ(got.ntp_size, want.ntp_size) << label;
  EXPECT_EQ(got.entropy, want.entropy) << label;
  ASSERT_EQ(got.table1.size(), want.table1.size()) << label;
  for (std::size_t i = 0; i < want.table1.size(); ++i) {
    EXPECT_EQ(got.table1[i].addresses, want.table1[i].addresses) << label;
    EXPECT_EQ(got.table1[i].asns, want.table1[i].asns) << label;
    EXPECT_EQ(got.table1[i].slash48s, want.table1[i].slash48s) << label;
    EXPECT_EQ(got.table1[i].addrs_per_slash48,
              want.table1[i].addrs_per_slash48)
        << label;
    EXPECT_EQ(got.table1[i].common_addresses, want.table1[i].common_addresses)
        << label << " dataset " << want.table1[i].name;
    EXPECT_EQ(got.table1[i].common_asns, want.table1[i].common_asns) << label;
    EXPECT_EQ(got.table1[i].common_slash48s, want.table1[i].common_slash48s)
        << label;
  }
  EXPECT_EQ(got.address_lifetimes.total, want.address_lifetimes.total)
      << label;
  EXPECT_EQ(got.address_lifetimes.fraction_once,
            want.address_lifetimes.fraction_once)
      << label;
  EXPECT_EQ(got.address_lifetimes.ccdf, want.address_lifetimes.ccdf) << label;
  EXPECT_EQ(got.iid_lifetimes.unique_iids, want.iid_lifetimes.unique_iids)
      << label;
  for (std::size_t b = 0; b < want.iid_lifetimes.bands.size(); ++b) {
    EXPECT_EQ(got.iid_lifetimes.bands[b].total,
              want.iid_lifetimes.bands[b].total)
        << label;
    EXPECT_EQ(got.iid_lifetimes.bands[b].cdf, want.iid_lifetimes.bands[b].cdf)
        << label;
  }
  EXPECT_EQ(got.top_ases, want.top_ases) << label;
  EXPECT_EQ(got.category_counts, want.category_counts) << label;
  EXPECT_EQ(got.countries, want.countries) << label;
}

TEST(TieredCorpusStudy, OutOfCoreIsBitIdenticalAcrossBudgetsAndThreads) {
  // The engine's headline contract, end to end: a Study run with ANY
  // spill budget at ANY thread count produces byte-identical corpus
  // snapshots and bit-identical analysis floats. The tiny budget forces a
  // spill at every interior barrier (>= 4 runs); the medium budget spills
  // a few times; 0 is the in-memory path.
  const StudyFingerprint want = run_study(0, 1);
  EXPECT_EQ(want.runs, 0u);  // in-memory reference never spilled
  ASSERT_FALSE(want.corpus_bytes.empty());
  ASSERT_GT(want.ntp_size, 1000u);

  for (const unsigned threads : {1u, 2u, 4u}) {
    if (threads != 1) {
      expect_same_fingerprint(
          run_study(0, threads), want,
          "in-memory, " + std::to_string(threads) + " threads");
    }
    for (const std::size_t budget : {std::size_t{1}, std::size_t{1} << 22}) {
      const auto got = run_study(budget, threads);
      const std::string label = "budget " + std::to_string(budget) + ", " +
                                std::to_string(threads) + " threads";
      EXPECT_GE(got.spills, 1u) << label;
      if (budget == 1) {
        EXPECT_GE(got.runs, 4u) << label;
      }
      expect_same_fingerprint(got, want, label);
    }
  }
}

TEST(TieredCorpusStudy, CheckpointSinksSeeReconstructedSnapshots) {
  // Checkpoint snapshots taken mid-collection must describe the full
  // corpus so far even when most of it lives in run files.
  auto config = spill_study_config(1);
  config.spill.memory_budget_bytes = 1;
  config.collector.checkpoint_interval = 4 * util::kDay;
  core::Study study(config);
  std::vector<std::pair<util::SimTime, std::size_t>> checkpoints;
  core::RunOptions options;
  options.campaigns = false;
  options.backscan = false;
  options.analysis = false;
  options.checkpoint_sink = [&](const CheckpointState& state,
                                const Corpus& corpus) {
    checkpoints.emplace_back(state.resume_from, corpus.size());
  };
  const auto& r = study.run(std::move(options));
  ASSERT_FALSE(checkpoints.empty());
  ASSERT_NE(r.ntp_runs, nullptr);
  // Sizes are non-decreasing and the last checkpoint is a prefix of the
  // final corpus.
  for (std::size_t i = 1; i < checkpoints.size(); ++i) {
    EXPECT_GE(checkpoints[i].second, checkpoints[i - 1].second);
  }
  EXPECT_LE(checkpoints.back().second, r.ntp_runs->merged_size());
  EXPECT_GT(checkpoints.back().second, 0u);
}

}  // namespace
}  // namespace v6::hitlist
