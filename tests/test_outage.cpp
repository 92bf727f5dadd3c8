#include "analysis/outage.h"

#include <gtest/gtest.h>

#include "hitlist/passive_collector.h"
#include "netsim/pool_dns.h"

namespace v6::analysis {
namespace {

sim::WorldConfig outage_config(std::uint32_t outages) {
  sim::WorldConfig config;
  config.seed = 71;
  config.total_sites = 600;
  config.study_duration = 40 * util::kDay;
  config.outage_count = outages;
  config.outage_duration = 4 * util::kDay;
  return config;
}

TEST(Outage, DefaultWorldsHaveNone) {
  sim::WorldConfig config = outage_config(0);
  const auto world = sim::World::generate(config);
  for (std::uint32_t ai = 0; ai < world.ases().size(); ++ai) {
    EXPECT_FALSE(world.in_outage(ai, 25 * util::kDay));
  }
}

TEST(Outage, InjectedAsGoesDarkForItsWindow) {
  const auto world = sim::World::generate(outage_config(2));
  int found = 0;
  for (std::uint32_t ai = 0; ai < world.ases().size(); ++ai) {
    const auto& as = world.ases()[ai];
    if (as.outage_duration == 0) continue;
    ++found;
    EXPECT_FALSE(world.in_outage(ai, as.outage_start - 1));
    EXPECT_TRUE(world.in_outage(ai, as.outage_start));
    EXPECT_TRUE(world.in_outage(ai, as.outage_start + as.outage_duration - 1));
    EXPECT_FALSE(world.in_outage(ai, as.outage_start + as.outage_duration));
  }
  EXPECT_EQ(found, 2);
}

TEST(Outage, DarkAsAnswersNoProbes) {
  const auto world = sim::World::generate(outage_config(1));
  for (std::uint32_t ai = 0; ai < world.ases().size(); ++ai) {
    const auto& as = world.ases()[ai];
    if (as.outage_duration == 0 || as.site_count == 0) continue;
    const auto& site = world.sites()[as.first_site];
    const util::SimTime dark = as.outage_start + util::kDay;
    const auto address = world.device_address(site.cpe, dark);
    EXPECT_EQ(world.resolve(address, dark).kind,
              sim::World::Resolution::Kind::kNone);
    // And alive again afterwards.
    const util::SimTime after = as.outage_start + as.outage_duration + 1;
    EXPECT_NE(world
                  .resolve(world.device_address(site.cpe, after), after)
                  .kind,
              sim::World::Resolution::Kind::kNone);
    return;
  }
  GTEST_SKIP() << "outage landed on a site-less AS";
}

TEST(Outage, MonitorDetectsInjectedOutage) {
  const auto world = sim::World::generate(outage_config(1));
  netsim::PoolDns dns(world);  // full capture for a dense series
  hitlist::PassiveCollector collector(world, dns, /*faults=*/nullptr,
                                      {.loss_rate = 0.0, .seed = 3});

  OutageMonitor monitor(world);
  hitlist::Corpus corpus(1 << 14);
  collector.run(corpus, 0, 40 * util::kDay,
                [&monitor](const ntp::Observation& obs,
                           const net::Ipv6Address&) {
                  monitor.record(obs.client, obs.time);
                });

  // Ground truth.
  std::uint32_t dark_as = ~0u;
  for (std::uint32_t ai = 0; ai < world.ases().size(); ++ai) {
    if (world.ases()[ai].outage_duration > 0) dark_as = ai;
  }
  ASSERT_NE(dark_as, ~0u);
  const auto& as = world.ases()[dark_as];
  const std::int64_t truth_start = as.outage_start / util::kDay;

  const auto detected = monitor.detect(40);
  bool matched = false;
  for (const auto& outage : detected) {
    if (outage.as_index != dark_as) continue;
    // Allow one-day slack at the partial-day edges.
    if (std::llabs(outage.first_day - truth_start) <= 1 &&
        outage.last_day >= outage.first_day + 1) {
      matched = true;
    }
  }
  EXPECT_TRUE(matched) << "injected outage at day " << truth_start
                       << " not detected";

  // The series itself shows the hole.
  const auto series = monitor.daily_series(dark_as, 40);
  const auto dark_day = static_cast<std::size_t>(truth_start + 1);
  ASSERT_LT(dark_day, series.size());
  EXPECT_LT(series[dark_day] * 5, series[dark_day >= 5 ? dark_day - 5 : 0] +
                                      1);
}

TEST(Outage, QuietWorldYieldsNoFalsePositives) {
  const auto world = sim::World::generate(outage_config(0));
  netsim::PoolDns dns(world);
  hitlist::PassiveCollector collector(world, dns, /*faults=*/nullptr,
                                      {.loss_rate = 0.0, .seed = 3});

  OutageMonitor monitor(world);
  hitlist::Corpus corpus(1 << 14);
  collector.run(corpus, 0, 40 * util::kDay,
                [&monitor](const ntp::Observation& obs,
                           const net::Ipv6Address&) {
                  monitor.record(obs.client, obs.time);
                });
  EXPECT_TRUE(monitor.detect(40).empty());
}

}  // namespace
}  // namespace v6::analysis
