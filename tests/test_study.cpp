#include "core/study.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/entropy_distribution.h"

namespace v6::core {
namespace {

StudyConfig small_study(std::uint64_t seed = 7) {
  StudyConfig config;
  config.world.seed = seed;
  config.world.total_sites = 400;
  // Full pool capture keeps the tiny test corpus statistically meaningful;
  // the benches exercise the realistic sampled share.
  config.pool_capture_share = 1.0;
  config.world.study_duration = 30 * util::kDay;
  config.backscan_start = 35 * util::kDay;
  config.backscan_duration = 2 * util::kDay;
  config.hitlist_campaign.start = 2 * util::kDay;
  config.hitlist_campaign.duration = 4 * util::kWeek;
  config.caida_campaign.start = 2 * util::kDay;
  config.caida_campaign.duration = 10 * util::kDay;
  config.caida_campaign.slash48_fraction = 0.005;
  return config;
}

class StudyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    study_ = new Study(small_study());
    study_->run();
  }
  static void TearDownTestSuite() { delete study_; }
  static Study* study_;
};

Study* StudyTest::study_ = nullptr;

TEST_F(StudyTest, AllStagesProduceData) {
  const auto& r = study_->results();
  EXPECT_GT(r.ntp.size(), 10000u);
  EXPECT_GT(r.hitlist.corpus.size(), 300u);
  EXPECT_GT(r.caida.corpus.size(), 100u);
  EXPECT_GT(r.backscan.clients_probed, 100u);
  EXPECT_GT(r.backscan_week.size(), 100u);
  EXPECT_GT(r.polls_attempted, r.ntp.total_observations());
}

TEST_F(StudyTest, NtpCorpusDwarfsActiveDatasets) {
  // At test scale (400 sites, 30 days) active discovery saturates the
  // tiny world while passive volume is duration-limited, so the margin is
  // modest; the gap widens by orders of magnitude with scale and duration
  // (see the Table 1 bench).
  const auto& r = study_->results();
  EXPECT_GT(r.ntp.size(), static_cast<std::size_t>(
                              1.5 * static_cast<double>(
                                        r.hitlist.corpus.size())));
  EXPECT_GT(r.ntp.size(), 3 * r.caida.corpus.size());
}

TEST_F(StudyTest, DatasetsAreNearlyDisjoint) {
  const auto& r = study_->results();
  const auto common =
      analysis::intersection_size(r.ntp, r.hitlist.corpus);
  EXPECT_LT(static_cast<double>(common),
            0.15 * static_cast<double>(r.hitlist.corpus.size()));
}

TEST_F(StudyTest, NtpEntropyExceedsActiveDatasets) {
  const auto& r = study_->results();
  const auto ntp = analysis::entropy_distribution(r.ntp);
  const auto caida = analysis::entropy_distribution(r.caida.corpus);
  EXPECT_GT(ntp.median(), 0.7);
  EXPECT_LT(caida.median(), 0.3);
}

TEST_F(StudyTest, BackscanResponseRateNearTwoThirds) {
  const auto& r = study_->results();
  const double rate = static_cast<double>(r.backscan.clients_responded) /
                      static_cast<double>(r.backscan.clients_probed);
  EXPECT_GT(rate, 0.45);
  EXPECT_LT(rate, 0.85);
}

TEST_F(StudyTest, RandomTargetsRespondRarely) {
  const auto& r = study_->results();
  const double rate =
      static_cast<double>(r.backscan.responsive_random_addresses) /
      static_cast<double>(r.backscan.random_probed);
  EXPECT_LT(rate, 0.25);
}

TEST_F(StudyTest, MostBackscanAliasesKnownToHitlist) {
  const auto& check = study_->results().alias_check;
  const auto total = check.aliased_known_to_hitlist + check.aliased_new;
  if (total == 0) GTEST_SKIP() << "no aliases found at this scale";
  EXPECT_GT(check.aliased_known_to_hitlist, check.aliased_new);
}

TEST_F(StudyTest, NtpSeesAliasedClientsHitlistCannot) {
  const auto& check = study_->results().alias_check;
  if (check.ntp_clients_in_aliased == 0) {
    GTEST_SKIP() << "no aliased clients at this scale";
  }
  EXPECT_GT(check.ntp_clients_in_aliased,
            check.hitlist_addresses_in_aliased);
}

TEST_F(StudyTest, CountryMixMatchesPaperShape) {
  const auto mix = study_->country_mix();
  ASSERT_GE(mix.size(), 5u);
  std::uint64_t total = 0, top5 = 0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    total += mix[i].second;
    if (i < 5) top5 += mix[i].second;
  }
  // §3: the top five countries contribute ~76% of addresses.
  EXPECT_GT(static_cast<double>(top5) / static_cast<double>(total), 0.55);
  // India and China lead.
  EXPECT_TRUE(mix[0].first.to_string() == "IN" ||
              mix[0].first.to_string() == "CN");
}

TEST_F(StudyTest, CountryMixOrdersByCountThenCountryCode) {
  // Equal counts must not come out in hash-table bucket order: the mix is
  // sorted by count descending, then country code ascending (an ordered
  // tally, stably sorted by count).
  const auto mix = study_->country_mix();
  std::map<geo::CountryCode, std::uint64_t> tally;
  for (const auto& rec : study_->results().ntp.records()) {
    if (const auto as_index = study_->world().as_index_of(rec.address)) {
      ++tally[study_->world().country_of_as(*as_index)];
    }
  }
  std::vector<std::pair<geo::CountryCode, std::uint64_t>> want(
      tally.begin(), tally.end());
  std::stable_sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  EXPECT_EQ(mix, want);
  const auto tie = std::adjacent_find(
      mix.begin(), mix.end(),
      [](const auto& a, const auto& b) { return a.second == b.second; });
  EXPECT_NE(tie, mix.end()) << "the small study should exercise the tie-break";
}

TEST_F(StudyTest, StagesAreIdempotent) {
  // Rerunning a stage must not change results.
  auto& study = *study_;
  const auto before = study.results().ntp.size();
  study.run({.campaigns = false, .backscan = false, .analysis = false});
  EXPECT_EQ(study.results().ntp.size(), before);
}

// Property sweep: the study's headline invariants are not artifacts of one
// lucky seed.
class StudySeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StudySeedSweep, InvariantsHoldAcrossSeeds) {
  auto config = small_study(GetParam());
  config.world.total_sites = 350;
  Study study(config);
  const auto& r = study.run({.backscan = false, .analysis = false});

  // Passive beats active in volume; corpora are mostly disjoint.
  EXPECT_GT(r.ntp.size(), r.hitlist.corpus.size());
  EXPECT_GT(r.ntp.size(), r.caida.corpus.size());
  const auto common = analysis::intersection_size(r.ntp, r.hitlist.corpus);
  EXPECT_LT(common, r.hitlist.corpus.size() / 4);

  // Entropy ordering: clients > infrastructure.
  const auto ntp_entropy = analysis::entropy_distribution(r.ntp);
  const auto caida_entropy =
      analysis::entropy_distribution(r.caida.corpus);
  EXPECT_GT(ntp_entropy.median(), 0.6);
  EXPECT_LT(caida_entropy.median(), 0.4);

  // The Hitlist never publishes addresses inside its own aliased list.
  std::uint64_t inside = 0;
  for (const auto& rec : r.hitlist.corpus.records()) {
    for (const auto& p : r.hitlist.aliased_prefixes) {
      if (p.contains(rec.address)) ++inside;
    }
  }
  EXPECT_EQ(inside, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StudySeedSweep,
                         ::testing::Values(101, 202, 303));

TEST(StudyDeterminism, SameConfigSameCorpus) {
  auto a = Study(small_study(11));
  auto b = Study(small_study(11));
  a.run({.campaigns = false, .backscan = false, .analysis = false});
  b.run({.campaigns = false, .backscan = false, .analysis = false});
  EXPECT_EQ(a.results().ntp.size(), b.results().ntp.size());
  EXPECT_EQ(a.results().ntp.total_observations(),
            b.results().ntp.total_observations());
}

TEST(StudyDeterminism, DifferentSeedsDiffer) {
  auto a = Study(small_study(11));
  auto b = Study(small_study(12));
  a.run({.campaigns = false, .backscan = false, .analysis = false});
  b.run({.campaigns = false, .backscan = false, .analysis = false});
  EXPECT_NE(a.results().ntp.size(), b.results().ntp.size());
}

// FNV-1a over a byte string: the digest the collection pin below records.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Collection at the study's realistic 3% pool capture share, pinned to
// constants recorded before any collector speedup: every optimisation of
// the per-poll path must draw from each device's RNG stream in the same
// order, so the saved corpus bytes and the poll counters never move. Both
// the in-memory table and a 16 KiB spill budget (several sorted runs and
// a k-way merge) must reproduce the same bytes.
TEST(StudyCollectionPin, CorpusBytesAndPollCountsArePinned) {
  constexpr std::uint64_t kCorpusDigest = 0x6c3605be90fde533ull;
  constexpr std::uint64_t kPollsAttempted = 121879;
  constexpr std::uint64_t kPollsAnswered = 3663;
  for (const std::size_t budget : {std::size_t{0}, std::size_t{16} << 10}) {
    StudyConfig config;
    config.world.seed = 2022;
    config.world.total_sites = 300;
    config.world.study_duration = 7 * util::kDay;
    config.collector.threads = 2;
    config.spill.memory_budget_bytes = budget;
    Study study(config);
    RunOptions collect_only;
    collect_only.campaigns = false;
    collect_only.backscan = false;
    collect_only.analysis = false;
    const StudyResults& r = study.run(std::move(collect_only));
    if (budget > 0) {
      ASSERT_NE(r.ntp_runs, nullptr);
      EXPECT_GE(r.ntp_runs->run_count(), 2u) << "the merge must really run";
    }
    std::ostringstream saved;
    study.save_ntp(saved);
    EXPECT_EQ(fnv1a(saved.str()), kCorpusDigest) << "budget " << budget;
    EXPECT_EQ(r.polls_attempted, kPollsAttempted) << "budget " << budget;
    EXPECT_EQ(r.polls_answered, kPollsAnswered) << "budget " << budget;
  }
}

}  // namespace
}  // namespace v6::core
