#include "netsim/pool_dns.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "util/rng.h"

namespace v6::netsim {
namespace {

class PoolDnsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 31;
    config.total_sites = 500;
    config.geodb_error_rate = 0.0;  // exact steering for these tests
    world_ = new sim::World(sim::World::generate(config));
  }
  static void TearDownTestSuite() { delete world_; }
  static sim::World* world_;
};

sim::World* PoolDnsTest::world_ = nullptr;

// Address of some device in the given country, if any.
std::optional<net::Ipv6Address> address_in_country(const sim::World& w,
                                                   std::string_view code) {
  for (const auto& dev : w.devices()) {
    if (w.country_of_as(dev.as_index).to_string() == code) {
      return w.device_address(dev.id, 1000);
    }
  }
  return std::nullopt;
}

// One pool query through both steps: the capture roll, then — only if a
// vantage hears it — steering at time t.
const sim::VantagePoint* query(const PoolDns& dns,
                               const net::Ipv6Address& client, util::Rng& rng,
                               util::SimTime t = 0,
                               bool* steered_away = nullptr) {
  if (steered_away != nullptr) *steered_away = false;
  return dns.captured(rng) ? dns.resolve(client, rng, t, steered_away)
                           : nullptr;
}

TEST_F(PoolDnsTest, InCountryClientsSteerToInCountryVantage) {
  const PoolDns dns(*world_, /*global_fraction=*/0.0);
  util::Rng rng(1);
  const auto client = address_in_country(*world_, "DE");
  ASSERT_TRUE(client);
  for (int i = 0; i < 50; ++i) {
    const auto* vantage = query(dns, *client, rng);
    ASSERT_NE(vantage, nullptr);
    EXPECT_EQ(vantage->country.to_string(), "DE");
  }
}

TEST_F(PoolDnsTest, RoundRobinRotatesAmongServers) {
  const PoolDns dns(*world_, 0.0);
  util::Rng rng(2);
  const auto client = address_in_country(*world_, "US");
  ASSERT_TRUE(client);
  std::unordered_set<std::uint8_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(query(dns, *client, rng)->id);
  }
  EXPECT_EQ(seen.size(), 6u);  // all six US vantages get traffic
}

TEST_F(PoolDnsTest, NoVantageCountryFallsBackToNearest) {
  const PoolDns dns(*world_, 0.0);
  // France has no vantage; nearest vantage country should be European.
  const auto& candidates =
      dns.candidates(*geo::CountryCode::parse("FR"));
  ASSERT_FALSE(candidates.empty());
  const auto code = candidates.front()->country.to_string();
  EXPECT_TRUE(code == "DE" || code == "NL" || code == "GB" || code == "ES")
      << code;
}

TEST_F(PoolDnsTest, GlobalFractionHitsRemoteVantages) {
  const PoolDns dns(*world_, 0.5);
  util::Rng rng(3);
  const auto client = address_in_country(*world_, "DE");
  ASSERT_TRUE(client);
  std::unordered_set<std::string> countries;
  for (int i = 0; i < 300; ++i) {
    countries.insert(query(dns, *client, rng)->country.to_string());
  }
  EXPECT_GT(countries.size(), 5u);
}

TEST_F(PoolDnsTest, ZeroVantageShareSeesNothing) {
  const PoolDns dns(*world_, 0.0, /*vantage_share=*/0.0);
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(dns.captured(rng));
  }
}

TEST_F(PoolDnsTest, PartialVantageShareSamples) {
  const PoolDns dns(*world_, 0.0, /*vantage_share=*/0.25);
  util::Rng rng(6);
  int captured = 0;
  constexpr int kQueries = 4000;
  for (int i = 0; i < kQueries; ++i) {
    if (dns.captured(rng)) ++captured;
  }
  EXPECT_NEAR(static_cast<double>(captured) / kQueries, 0.25, 0.03);
}

TEST_F(PoolDnsTest, UnroutedClientStillGetsAServer) {
  const PoolDns dns(*world_, 0.0);
  util::Rng rng(4);
  const auto* vantage =
      query(dns, *net::Ipv6Address::parse("2001:db8::1"), rng);
  EXPECT_NE(vantage, nullptr);
}

TEST_F(PoolDnsTest, HealthMonitorSteersAroundDownedVantage) {
  PoolDns dns(*world_, 0.0);
  FaultSchedule faults(world_->vantages());
  const auto client = address_in_country(*world_, "US");
  ASSERT_TRUE(client);
  const auto& us = dns.candidates(*geo::CountryCode::parse("US"));
  ASSERT_EQ(us.size(), 6u);
  const std::uint8_t downed = us.front()->id;
  faults.add_window(downed, 1000, 5000);
  const util::SimDuration delay = 600;
  dns.set_health_monitor(&faults, delay);

  util::Rng rng(9);
  const auto ids_at = [&](util::SimTime t, int* steered_count) {
    std::unordered_set<std::uint8_t> seen;
    for (int i = 0; i < 300; ++i) {
      bool steered = false;
      const auto* v = query(dns, *client, rng, t, &steered);
      EXPECT_NE(v, nullptr) << "t=" << t;
      if (v == nullptr) continue;
      seen.insert(v->id);
      if (steered_count && steered) ++*steered_count;
    }
    return seen;
  };

  // Before the monitor notices the crash, the downed vantage still
  // receives its share and no poll is marked as steered away.
  int steered = 0;
  auto seen = ids_at(1200, &steered);
  EXPECT_TRUE(seen.contains(downed));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(steered, 0);

  // Once the detection delay elapses the downed vantage leaves rotation:
  // its polls redistribute across the surviving five candidates, and every
  // answer is flagged as steered.
  steered = 0;
  seen = ids_at(2000, &steered);
  EXPECT_FALSE(seen.contains(downed));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(steered, 300);

  // The monitor lags recovery by the same delay...
  seen = ids_at(5000 + delay - 1, nullptr);
  EXPECT_FALSE(seen.contains(downed));

  // ...then the server rejoins rotation.
  steered = 0;
  seen = ids_at(5000 + delay, &steered);
  EXPECT_TRUE(seen.contains(downed));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(steered, 0);
}

TEST_F(PoolDnsTest, AllCandidatesDownFallsBackToHealthyWorldwide) {
  PoolDns dns(*world_, 0.0);
  FaultSchedule faults(world_->vantages());
  const auto& us = dns.candidates(*geo::CountryCode::parse("US"));
  std::unordered_set<std::uint8_t> us_ids;
  for (const auto* v : us) {
    us_ids.insert(v->id);
    faults.add_window(v->id, 0, 100'000);
  }
  dns.set_health_monitor(&faults, 0);

  const auto client = address_in_country(*world_, "US");
  util::Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    bool steered = false;
    const auto* v = query(dns, *client, rng, 50'000, &steered);
    ASSERT_NE(v, nullptr);
    EXPECT_FALSE(us_ids.contains(v->id));
    EXPECT_TRUE(steered);
  }

  // With *every* vantage down the pool still answers (unfiltered list):
  // the real pool never returns an empty response while it has servers.
  for (const auto& v : world_->vantages()) {
    if (!us_ids.contains(v.id)) faults.add_window(v.id, 0, 100'000);
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_NE(query(dns, *client, rng, 50'000), nullptr);
  }
}

TEST_F(PoolDnsTest, HealthFreePlanMatchesUnmonitoredPoolBitForBit) {
  PoolDns dns(*world_, 0.25, 0.8);
  FaultSchedule faults(world_->vantages());  // zero faults
  dns.set_health_monitor(&faults, 600);
  const PoolDns unmonitored(*world_, 0.25, 0.8);

  const auto client = address_in_country(*world_, "DE");
  ASSERT_TRUE(client);
  util::Rng a(12);
  util::Rng b(12);
  for (int i = 0; i < 500; ++i) {
    bool steered = false;
    const auto* with_health =
        query(dns, *client, a, static_cast<util::SimTime>(i * 64), &steered);
    const auto* without = query(unmonitored, *client, b);
    EXPECT_EQ(with_health, without);
    EXPECT_FALSE(steered);
  }
  EXPECT_EQ(a.next(), b.next());  // identical draw counts
}

// The single-call resolution that captured() + resolve() replaced,
// written out from its definition: share roll, global-zone roll, geo
// steering, then health filtering of the consulted list.
const sim::VantagePoint* one_call_reference(
    const sim::World& world, const PoolDns& dns, double global_fraction,
    double share, const FaultSchedule* health, util::SimDuration delay,
    const net::Ipv6Address& client, util::Rng& rng, util::SimTime t,
    bool* steered_away) {
  *steered_away = false;
  std::vector<const sim::VantagePoint*> all;
  for (const auto& v : world.vantages()) all.push_back(&v);
  if (all.empty()) return nullptr;
  if (share < 1.0 && !rng.chance(share)) return nullptr;
  const auto pick = [&](const std::vector<const sim::VantagePoint*>& list)
      -> const sim::VantagePoint* {
    if (health != nullptr) {
      std::vector<const sim::VantagePoint*> healthy;
      for (const auto* v : list) {
        if (!health->marked_down(v->id, t, delay)) healthy.push_back(v);
      }
      if (healthy.size() < list.size()) {
        *steered_away = true;
        if (!healthy.empty()) return healthy[rng.bounded(healthy.size())];
        for (const auto* v : all) {
          if (!health->marked_down(v->id, t, delay)) healthy.push_back(v);
        }
        if (!healthy.empty()) return healthy[rng.bounded(healthy.size())];
      }
    }
    return list[rng.bounded(list.size())];
  };
  if (global_fraction > 0.0 && rng.chance(global_fraction)) return pick(all);
  const auto country = world.geodb().lookup(client);
  const auto& list = country ? dns.candidates(*country) : all;
  if (list.empty()) return pick(all);
  return pick(list);
}

TEST_F(PoolDnsTest, TwoStepResolutionMatchesOneCallReference) {
  // Windows that down one US vantage, then every US vantage, then the
  // whole pool, so the steered, widened and unfiltered picks all occur.
  FaultSchedule faults(world_->vantages());
  const PoolDns probe(*world_, 0.0);
  const auto& us = probe.candidates(*geo::CountryCode::parse("US"));
  ASSERT_FALSE(us.empty());
  faults.add_window(us.front()->id, 10'000, 40'000);
  for (const auto* v : us) faults.add_window(v->id, 50'000, 60'000);
  for (const auto& v : world_->vantages()) {
    faults.add_window(v.id, 70'000, 75'000);
  }
  const util::SimDuration delay = 600;
  const auto devices = world_->devices();

  for (const double share : {0.03, 1.0}) {
    for (const bool monitored : {false, true}) {
      PoolDns dns(*world_, 0.25, share);
      if (monitored) dns.set_health_monitor(&faults, delay);
      util::Rng a(77);
      util::Rng b(77);
      util::Rng inputs(78);
      int captured = 0;
      int steered_count = 0;
      for (int i = 0; i < 4000; ++i) {
        const auto t = static_cast<util::SimTime>(inputs.bounded(90'000));
        // Mostly real clients; some unrouted addresses fall back to the
        // whole pool.
        const net::Ipv6Address client =
            inputs.chance(0.9)
                ? world_->device_address(
                      devices[inputs.bounded(devices.size())].id, t)
                : net::Ipv6Address::from_u64(inputs.next(), inputs.next());
        bool steered = false;
        const auto* got = query(dns, client, a, t, &steered);
        bool want_steered = false;
        const auto* want =
            one_call_reference(*world_, dns, 0.25, share,
                               monitored ? &faults : nullptr, delay, client,
                               b, t, &want_steered);
        ASSERT_EQ(got, want) << "share " << share << " query " << i;
        ASSERT_EQ(steered, want_steered) << "share " << share << " query "
                                         << i;
        if (got != nullptr) ++captured;
        if (steered) ++steered_count;
      }
      EXPECT_EQ(a.next(), b.next()) << "the split drew a different count";
      EXPECT_GT(captured, 0);
      if (monitored) {
        EXPECT_GT(steered_count, 0);
      }
    }
  }
}

}  // namespace
}  // namespace v6::netsim
