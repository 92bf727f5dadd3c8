#include "hitlist/campaigns.h"

#include <gtest/gtest.h>

#include <unordered_set>

namespace v6::hitlist {
namespace {

class CampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 101;
    config.total_sites = 500;
    world_ = new sim::World(sim::World::generate(config));
    plane_ = new netsim::DataPlane(*world_, {0.005, 5});

    HitlistCampaignConfig hl;
    hl.start = 5 * util::kDay;
    hl.duration = 6 * util::kWeek;
    hitlist_ = new HitlistResult(run_hitlist_campaign(*world_, *plane_, hl));

    // A fresh plane so the CAIDA run (and its determinism test below) does
    // not depend on how much loss-RNG the Hitlist campaign consumed.
    netsim::DataPlane caida_plane(*world_, {0.005, 5});
    CaidaCampaignConfig ca;
    ca.start = 5 * util::kDay;
    ca.duration = 14 * util::kDay;
    ca.slash48_fraction = 0.01;
    caida_ = new CaidaResult(run_caida_campaign(*world_, caida_plane, ca));
  }
  static void TearDownTestSuite() {
    delete caida_;
    delete hitlist_;
    delete plane_;
    delete world_;
  }
  static sim::World* world_;
  static netsim::DataPlane* plane_;
  static HitlistResult* hitlist_;
  static CaidaResult* caida_;
};

sim::World* CampaignTest::world_ = nullptr;
netsim::DataPlane* CampaignTest::plane_ = nullptr;
HitlistResult* CampaignTest::hitlist_ = nullptr;
CaidaResult* CampaignTest::caida_ = nullptr;

TEST_F(CampaignTest, HitlistDiscoversAddresses) {
  EXPECT_GT(hitlist_->corpus.size(), 500u);
  EXPECT_GT(hitlist_->probes_sent, hitlist_->corpus.size());
  EXPECT_EQ(hitlist_->snapshots, 6u);
}

TEST_F(CampaignTest, HitlistPublishesNoAliasedAddresses) {
  std::uint64_t inside_aliased = 0;
  for (const auto& rec : hitlist_->corpus.records()) {
    for (const auto& p : hitlist_->aliased_prefixes) {
      if (p.contains(rec.address)) ++inside_aliased;
    }
  }
  EXPECT_EQ(inside_aliased, 0u);
}

TEST_F(CampaignTest, HitlistDetectsDatacenterAliases) {
  // Every ground-truth fully-aliased datacenter /48 should be covered by
  // some published aliased prefix.
  std::uint64_t covered = 0, total = 0;
  for (const auto& truth : world_->aliased_datacenter_prefixes()) {
    ++total;
    for (const auto& p : hitlist_->aliased_prefixes) {
      if (p.contains(truth) || truth.contains(p)) {
        ++covered;
        break;
      }
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GE(covered, total * 8 / 10);
}

TEST_F(CampaignTest, HitlistSkewsTowardInfrastructure) {
  // The Hitlist should be much heavier in low-IID structure than a client
  // corpus: most addresses are routers/servers/CPE.
  std::uint64_t low_iid = 0;
  for (const auto& rec : hitlist_->corpus.records()) {
    if (rec.address.iid() <= 0xffff) ++low_iid;
  }
  EXPECT_GT(low_iid, hitlist_->corpus.size() / 4);
}

TEST_F(CampaignTest, CaidaDiscoversRouters) {
  EXPECT_GT(caida_->corpus.size(), 200u);
  EXPECT_GT(caida_->traces, 10000u);
  EXPECT_GT(caida_->probes_sent, caida_->traces);
}

TEST_F(CampaignTest, CaidaDensityIsOnePerSlash48) {
  // Table 1: the routed-/48 campaign averages ~1 address per /48.
  std::unordered_set<std::uint64_t> s48s;
  for (const auto& rec : caida_->corpus.records()) {
    s48s.insert(rec.address.hi64() >> 16);
  }
  const double density = static_cast<double>(caida_->corpus.size()) /
                         static_cast<double>(s48s.size());
  EXPECT_LT(density, 3.0);
}

TEST_F(CampaignTest, CaidaIsMostlyLowEntropyInfrastructure) {
  std::uint64_t low_iid = 0;
  for (const auto& rec : caida_->corpus.records()) {
    if (rec.address.iid() <= 0xffff) ++low_iid;
  }
  EXPECT_GT(low_iid, caida_->corpus.size() * 7 / 10);
}

TEST_F(CampaignTest, CampaignsAreDeterministicGivenSeeds) {
  netsim::DataPlane plane(*world_, {0.005, 5});
  CaidaCampaignConfig ca;
  ca.start = 5 * util::kDay;
  ca.duration = 14 * util::kDay;
  ca.slash48_fraction = 0.01;
  const auto again = run_caida_campaign(*world_, plane, ca);
  EXPECT_EQ(again.corpus.size(), caida_->corpus.size());
  EXPECT_EQ(again.probes_sent, caida_->probes_sent);
}

}  // namespace
}  // namespace v6::hitlist
