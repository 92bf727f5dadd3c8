#include "analysis/parallel_scan.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "analysis/address_categories.h"
#include "analysis/as_entropy.h"
#include "analysis/dataset_compare.h"
#include "analysis/entropy_distribution.h"
#include "analysis/lifetimes.h"
#include "core/study.h"

namespace v6::analysis {
namespace {

// Bitwise double comparison: EXPECT_EQ would call 0.0 == -0.0 equal; the
// parallel engine promises the same *bits* as the serial path.
void expect_bits_eq(const std::vector<double>& a,
                    const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "sample " << i;
  }
}

hitlist::Corpus synthetic_corpus(std::size_t n) {
  hitlist::Corpus corpus(1 << 10);
  for (std::uint64_t i = 0; i < n; ++i) {
    corpus.add(net::Ipv6Address::from_u64(0x2001'0db8'0000'0000ULL | (i / 3),
                                          i * 0x9e3779b97f4a7c15ULL),
               static_cast<util::SimTime>(i % 977),
               static_cast<std::uint8_t>(i % 27));
  }
  return corpus;
}

TEST(ParallelScanEngine, ShardConcatenationReproducesSerialOrder) {
  const auto corpus = synthetic_corpus(5000);
  std::vector<std::uint64_t> serial;
  for (const auto& rec : corpus.records()) {
    serial.push_back(rec.address.iid());
  }

  for (unsigned threads : {2u, 4u, 7u}) {
    AnalysisConfig config;
    config.threads = threads;
    const auto visited = scan_corpus<std::vector<std::uint64_t>>(
        corpus, config, "visit-order",
        [] { return std::vector<std::uint64_t>(); },
        [](std::vector<std::uint64_t>& v, const hitlist::AddressRecord& rec) {
          v.push_back(rec.address.iid());
        },
        [](std::vector<std::uint64_t>& into,
           std::vector<std::uint64_t>&& from) {
          into.insert(into.end(), from.begin(), from.end());
        });
    EXPECT_EQ(visited, serial) << "threads=" << threads;
  }
}

TEST(ParallelScanEngine, OnePassServesMultipleKernels) {
  const auto corpus = synthetic_corpus(2000);
  AnalysisConfig config;
  config.threads = 4;
  ParallelScan scan(config);
  std::uint64_t records = 0;
  std::uint64_t observations = 0;
  scan.add_block_kernel<std::uint64_t>(
      "records", [] { return std::uint64_t{0}; },
      [](std::uint64_t& n, std::span<const hitlist::AddressRecord> block) {
        n += block.size();
      },
      [](std::uint64_t& into, std::uint64_t&& from) { into += from; },
      [&records](std::uint64_t&& n) { records = n; });
  scan.add_block_kernel<std::uint64_t>(
      "observations", [] { return std::uint64_t{0}; },
      [](std::uint64_t& n, std::span<const hitlist::AddressRecord> block) {
        for (const auto& rec : block) n += rec.count;
      },
      [](std::uint64_t& into, std::uint64_t&& from) { into += from; },
      [&observations](std::uint64_t&& n) { observations = n; });
  scan.run(corpus);

  EXPECT_EQ(records, corpus.size());
  EXPECT_EQ(observations, corpus.total_observations());
  ASSERT_EQ(scan.stats().size(), 2u);
  for (const auto& stat : scan.stats()) {
    EXPECT_EQ(stat.records, corpus.size());
    EXPECT_EQ(stat.threads, 4u);
    EXPECT_LE(stat.merge_us, stat.wall_us);
  }
  EXPECT_EQ(scan.stats()[0].stage, "records");
  EXPECT_EQ(scan.stats()[1].stage, "observations");
}

TEST(ParallelScanEngine, EmptyCorpusAndMoreShardsThanSlots) {
  hitlist::Corpus empty(1 << 6);
  AnalysisConfig config;
  config.threads = 16;
  const auto n = scan_corpus<std::uint64_t>(
      empty, config, "empty", [] { return std::uint64_t{0}; },
      [](std::uint64_t& c, const hitlist::AddressRecord&) { ++c; },
      [](std::uint64_t& into, std::uint64_t&& from) { into += from; });
  EXPECT_EQ(n, 0u);
}

TEST(ParallelScanEngine, ZeroThreadsResolvesToHardware) {
  AnalysisConfig config;
  config.threads = 0;
  EXPECT_GE(config.threads.resolved(), 1u);
  config.threads = 3;
  EXPECT_EQ(config.threads.resolved(), 3u);
}

// ---------------------------------------------------------------------------
// Parallel == serial bit-identity over a seeded Study corpus, the property
// the whole port hangs on: threads ∈ {2, 4} must reproduce the threads=1
// result exactly — same doubles, same ordering.

class ParallelIdentityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::StudyConfig config;
    config.world.seed = 20230807;
    config.world.total_sites = 400;
    config.pool_capture_share = 1.0;
    config.world.study_duration = 30 * util::kDay;
    config.hitlist_campaign.start = 2 * util::kDay;
    config.hitlist_campaign.duration = 4 * util::kWeek;
    config.caida_campaign.start = 2 * util::kDay;
    config.caida_campaign.duration = 10 * util::kDay;
    config.caida_campaign.slash48_fraction = 0.005;
    study_ = new core::Study(config);
    study_->run({.backscan = false, .analysis = false});
  }
  static void TearDownTestSuite() {
    delete study_;
    study_ = nullptr;
  }

  static const hitlist::Corpus& ntp() { return study_->results().ntp; }
  static const hitlist::Corpus& hitlist_corpus() {
    return study_->results().hitlist.corpus;
  }
  static const sim::World& world() { return study_->world(); }
  static AnalysisConfig threaded(unsigned threads) {
    AnalysisConfig config;
    config.threads = threads;
    return config;
  }

  static core::Study* study_;
};

core::Study* ParallelIdentityTest::study_ = nullptr;

TEST_F(ParallelIdentityTest, EntropyDistribution) {
  const auto serial = entropy_distribution(ntp(), threaded(1));
  ASSERT_GT(serial.count(), 1000u);
  for (unsigned threads : {2u, 4u}) {
    const auto parallel = entropy_distribution(ntp(), threaded(threads));
    expect_bits_eq(parallel.sorted_samples(), serial.sorted_samples());
  }
}

TEST_F(ParallelIdentityTest, IntersectionScans) {
  const auto serial =
      intersection_entropy_distribution(ntp(), hitlist_corpus(), threaded(1));
  const auto serial_n = intersection_size(ntp(), hitlist_corpus(), threaded(1));
  for (unsigned threads : {2u, 4u}) {
    const auto parallel = intersection_entropy_distribution(
        ntp(), hitlist_corpus(), threaded(threads));
    expect_bits_eq(parallel.sorted_samples(), serial.sorted_samples());
    EXPECT_EQ(intersection_size(ntp(), hitlist_corpus(), threaded(threads)),
              serial_n);
  }
}

TEST_F(ParallelIdentityTest, Table1Summary) {
  const auto serial = summarize_dataset("hitlist", hitlist_corpus(), world(),
                                        &ntp(), threaded(1));
  for (unsigned threads : {2u, 4u}) {
    const auto parallel = summarize_dataset("hitlist", hitlist_corpus(),
                                            world(), &ntp(),
                                            threaded(threads));
    EXPECT_EQ(parallel.addresses, serial.addresses);
    EXPECT_EQ(parallel.asns, serial.asns);
    EXPECT_EQ(parallel.slash48s, serial.slash48s);
    EXPECT_EQ(parallel.common_addresses, serial.common_addresses);
    EXPECT_EQ(parallel.common_asns, serial.common_asns);
    EXPECT_EQ(parallel.common_slash48s, serial.common_slash48s);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel.addrs_per_slash48),
              std::bit_cast<std::uint64_t>(serial.addrs_per_slash48));
  }
}

TEST_F(ParallelIdentityTest, AsTypeFractions) {
  const auto serial = as_type_fractions(ntp(), world(), threaded(1));
  for (unsigned threads : {2u, 4u}) {
    const auto parallel = as_type_fractions(ntp(), world(), threaded(threads));
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].first, serial[i].first);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel[i].second),
                std::bit_cast<std::uint64_t>(serial[i].second));
    }
  }
}

TEST_F(ParallelIdentityTest, AddressLifetimes) {
  const std::vector<util::SimDuration> points = {
      0, util::kDay, util::kWeek, util::kMonth, 6 * util::kMonth};
  const auto serial = address_lifetimes(ntp(), points, threaded(1));
  for (unsigned threads : {2u, 4u}) {
    const auto parallel = address_lifetimes(ntp(), points, threaded(threads));
    EXPECT_EQ(parallel.total, serial.total);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel.fraction_once),
              std::bit_cast<std::uint64_t>(serial.fraction_once));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel.fraction_week),
              std::bit_cast<std::uint64_t>(serial.fraction_week));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel.fraction_month),
              std::bit_cast<std::uint64_t>(serial.fraction_month));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel.fraction_six_months),
              std::bit_cast<std::uint64_t>(serial.fraction_six_months));
    ASSERT_EQ(parallel.ccdf.size(), serial.ccdf.size());
    for (std::size_t i = 0; i < serial.ccdf.size(); ++i) {
      EXPECT_EQ(parallel.ccdf[i].first, serial.ccdf[i].first);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(parallel.ccdf[i].second),
                std::bit_cast<std::uint64_t>(serial.ccdf[i].second));
    }
  }
}

TEST_F(ParallelIdentityTest, IidLifetimes) {
  const std::vector<util::SimDuration> points = {0, util::kDay, util::kWeek,
                                                 util::kMonth};
  const auto serial = iid_lifetimes(ntp(), points, threaded(1));
  ASSERT_GT(serial.unique_iids, 0u);
  for (unsigned threads : {2u, 4u}) {
    const auto parallel = iid_lifetimes(ntp(), points, threaded(threads));
    EXPECT_EQ(parallel.unique_iids, serial.unique_iids);
    for (std::size_t band = 0; band < serial.bands.size(); ++band) {
      const auto& sb = serial.bands[band];
      const auto& pb = parallel.bands[band];
      EXPECT_EQ(pb.total, sb.total);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(pb.fraction_once),
                std::bit_cast<std::uint64_t>(sb.fraction_once));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(pb.fraction_week),
                std::bit_cast<std::uint64_t>(sb.fraction_week));
      ASSERT_EQ(pb.cdf.size(), sb.cdf.size());
      for (std::size_t i = 0; i < sb.cdf.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(pb.cdf[i].second),
                  std::bit_cast<std::uint64_t>(sb.cdf[i].second));
      }
    }
  }
}

TEST_F(ParallelIdentityTest, AsEntropyProfiles) {
  const auto serial = top_as_entropy_profiles(ntp(), world(), 10, 0,
                                              40 * util::kDay, threaded(1));
  ASSERT_FALSE(serial.empty());
  for (unsigned threads : {2u, 4u}) {
    const auto parallel = top_as_entropy_profiles(
        ntp(), world(), 10, 0, 40 * util::kDay, threaded(threads));
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].as_index, serial[i].as_index);
      EXPECT_EQ(parallel[i].asn, serial[i].asn);
      EXPECT_EQ(parallel[i].addresses, serial[i].addresses);
      expect_bits_eq(parallel[i].entropy.sorted_samples(),
                     serial[i].entropy.sorted_samples());
    }
  }
}

TEST_F(ParallelIdentityTest, AddressCategories) {
  const auto serial = categorize_corpus(ntp(), world(), 0, 40 * util::kDay,
                                        {}, threaded(1));
  ASSERT_GT(serial.total, 0u);
  for (unsigned threads : {2u, 4u}) {
    const auto parallel = categorize_corpus(ntp(), world(), 0,
                                            40 * util::kDay, {},
                                            threaded(threads));
    EXPECT_EQ(parallel.total, serial.total);
    EXPECT_EQ(parallel.counts, serial.counts);
  }
}

TEST_F(ParallelIdentityTest, StageStatsAreRecorded) {
  std::vector<AnalysisStageStats> stats;
  entropy_distribution(ntp(), threaded(4), &stats);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].stage, "entropy_distribution");
  EXPECT_EQ(stats[0].threads, 4u);
  EXPECT_EQ(stats[0].records, ntp().size());
  EXPECT_LE(stats[0].merge_us, stats[0].wall_us);

  stats.clear();
  categorize_corpus(ntp(), world(), 0, 40 * util::kDay, {}, threaded(2),
                    &stats);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].stage, "categorize_corpus/per_as");
  EXPECT_EQ(stats[1].stage, "categorize_corpus/classify");
}

TEST_F(ParallelIdentityTest, StudyRunAnalysisUsesKnobAndRecordsStats) {
  study_->run({.collect = false, .campaigns = false, .backscan = false});
  const auto& report = study_->results().analysis;
  EXPECT_GT(report.entropy.count(), 1000u);
  ASSERT_EQ(report.table1.size(), 3u);
  EXPECT_EQ(report.table1[0].name, "NTP corpus");
  EXPECT_EQ(report.table1[0].addresses, ntp().size());
  EXPECT_GT(report.address_lifetimes.total, 0u);
  EXPECT_GT(report.iid_lifetimes.unique_iids, 0u);
  EXPECT_FALSE(report.top_ases.empty());
  EXPECT_GT(report.categories.total, 0u);
  EXPECT_FALSE(report.stage_stats.empty());
  for (const auto& stat : report.stage_stats) {
    EXPECT_EQ(stat.threads, 1u) << stat.stage;  // default knob is serial
  }
}

}  // namespace
}  // namespace v6::analysis
