#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "scan/backscanner.h"
#include "scan/target_gen.h"
#include "scan/yarrp.h"
#include "scan/zmap6.h"
#include "sim/feistel.h"
#include "util/rng.h"

namespace v6::scan {
namespace {

class ScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 77;
    config.total_sites = 500;
    world_ = new sim::World(sim::World::generate(config));
    plane_ = new netsim::DataPlane(*world_, {0.0, 5});
  }
  static void TearDownTestSuite() {
    delete plane_;
    delete world_;
  }
  static net::Ipv6Address source() {
    return world_->vantages().front().address;
  }
  static sim::World* world_;
  static netsim::DataPlane* plane_;
};

sim::World* ScanTest::world_ = nullptr;
netsim::DataPlane* ScanTest::plane_ = nullptr;

sim::DeviceId reachable_cpe(const sim::World& w, util::SimTime t) {
  for (const auto& dev : w.devices()) {
    if (dev.kind != sim::DeviceKind::kCpe || !dev.responds_icmp) continue;
    // Aliased sites answer everything; these tests need an ordinary one.
    if (dev.site != sim::kNoSite && w.sites()[dev.site].aliased) continue;
    const auto res = w.resolve(w.device_address(dev.id, t), t);
    if (res.kind == sim::World::Resolution::Kind::kDevice && !res.firewalled) {
      return dev.id;
    }
  }
  return sim::kNoDevice;
}

TEST_F(ScanTest, ZmapProbeHitsLiveTarget) {
  Zmap6Scanner zmap(*plane_, {source(), 100000, 0, 1});
  const auto d = reachable_cpe(*world_, 1000);
  ASSERT_NE(d, sim::kNoDevice);
  EXPECT_TRUE(zmap.probe(world_->device_address(d, 1000), 1000));
  EXPECT_EQ(zmap.probes_sent(), 1u);
}

TEST_F(ScanTest, ZmapProbeMissesDeadTarget) {
  Zmap6Scanner zmap(*plane_, {source(), 100000, 0, 1});
  EXPECT_FALSE(zmap.probe(*net::Ipv6Address::parse("2001:db8::1"), 1000));
}

TEST_F(ScanTest, ZmapScanReturnsRecordPerTarget) {
  Zmap6Scanner zmap(*plane_, {source(), 100000, 0, 2});
  const auto d = reachable_cpe(*world_, 1000);
  const std::vector<net::Ipv6Address> targets = {
      world_->device_address(d, 1000),
      *net::Ipv6Address::parse("2001:db8::1"),
  };
  const auto records = zmap.scan(targets, 1000);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].responded);
  EXPECT_FALSE(records[1].responded);
  EXPECT_EQ(records[0].target, targets[0]);
}

TEST_F(ScanTest, ZmapRetriesRecoverLostProbes) {
  netsim::DataPlane lossy(*world_, {0.4, 9});
  const auto d = reachable_cpe(*world_, 1000);
  const std::vector<net::Ipv6Address> targets(
      50, world_->device_address(d, 1000));
  Zmap6Scanner no_retry(lossy, {source(), 100000, 0, 3});
  Zmap6Scanner with_retry(lossy, {source(), 100000, 3, 3});
  int base = 0, retried = 0;
  for (const auto& r : no_retry.scan(targets, 1000)) base += r.responded;
  for (const auto& r : with_retry.scan(targets, 1000)) retried += r.responded;
  EXPECT_GT(retried, base);
}

TEST_F(ScanTest, YarrpReconstructsPath) {
  const auto d = reachable_cpe(*world_, 1000);
  const auto target = world_->device_address(d, 1000);
  const auto path = plane_->topology().path(source(), target, 1000);
  YarrpTracer yarrp(*plane_, {source(), 12, 50000, 4});
  const net::Ipv6Address targets[] = {target};
  const auto traces = yarrp.trace(targets, 1000);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_TRUE(traces[0].destination_reached);
  for (std::size_t h = 0; h < path.size(); ++h) {
    if (!path[h].responds) continue;
    ASSERT_TRUE(traces[0].hop_responded[h]) << "hop " << h;
    EXPECT_EQ(traces[0].hops[h], path[h].address);
  }
}

TEST_F(ScanTest, YarrpDiscoveredIncludesHopsAndDestination) {
  const auto d = reachable_cpe(*world_, 1000);
  const auto target = world_->device_address(d, 1000);
  YarrpTracer yarrp(*plane_, {source(), 12, 50000, 5});
  const net::Ipv6Address targets[] = {target};
  const auto traces = yarrp.trace(targets, 1000);
  const auto found = YarrpTracer::discovered(traces);
  EXPECT_GE(found.size(), 2u);  // at least one hop + destination
  EXPECT_TRUE(std::find(found.begin(), found.end(), target) != found.end());
}

TEST_F(ScanTest, YarrpUnreachableTargetStillFindsRouters) {
  // A random address in a routed AS: the path answers, the target doesn't.
  const auto& as = world_->ases()[0];
  const auto target = net::Ipv6Address::from_u64(
      as.prefix_hi | (sim::kRegionSite << 28) | 0xdead00, 0x12345678);
  YarrpTracer yarrp(*plane_, {source(), 12, 50000, 6});
  const net::Ipv6Address targets[] = {target};
  const auto traces = yarrp.trace(targets, 1000);
  EXPECT_FALSE(traces[0].destination_reached);
  EXPECT_FALSE(YarrpTracer::discovered(traces).empty());
}

// Per-probe reference for YarrpTracer::trace: the tracer's probe schedule
// replayed one probe at a time, each against the whole path rebuilt by
// Topology::path(src, dst, t) at the probe's own time, with the plane's
// loss draws mirrored by an Rng seeded the way DataPlane seeds its own.
// Counts the CPE-TTL probes whose CPE hop differs from the one at t0, so a
// caller can check that a CPE cached across the trace would be caught.
struct ReferenceTrace {
  std::vector<TraceResult> results;
  std::uint64_t drops = 0;
  std::size_t moved_cpe_probes = 0;
};

ReferenceTrace reference_trace(const sim::World& world,
                               const netsim::DataPlaneConfig& plane_config,
                               const YarrpConfig& config,
                               std::span<const net::Ipv6Address> targets,
                               util::SimTime t0) {
  const netsim::Topology topology(world);
  util::Rng rng(util::mix64(plane_config.seed ^ 0xda7a));
  ReferenceTrace ref;
  const auto lost = [&] {
    if (plane_config.loss_rate > 0.0 && rng.chance(plane_config.loss_rate)) {
      ++ref.drops;
      return true;
    }
    return false;
  };
  for (const auto& target : targets) {
    TraceResult r;
    r.target = target;
    r.hops.assign(config.max_hops, net::Ipv6Address{});
    r.hop_responded.assign(config.max_hops, false);
    ref.results.push_back(std::move(r));
  }
  const std::uint64_t space = targets.size() * config.max_hops;
  const sim::FeistelPermutation order(space ? space : 1,
                                      config.seed ^ 0x9a44b);
  for (std::uint64_t k = 0; k < space; ++k) {
    const std::uint64_t probe_index = order.apply(k);
    const std::size_t ti = probe_index / config.max_hops;
    const auto ttl =
        static_cast<std::uint8_t>(1 + probe_index % config.max_hops);
    const util::SimTime t =
        t0 + static_cast<util::SimTime>(k / config.probe_rate);
    const net::Ipv6Address& dst = targets[ti];
    const netsim::Path routers = topology.routers(config.source, dst);
    if (ttl == routers.size() + 1) {
      const auto now = topology.cpe_hop(config.source, dst, t);
      const auto then = topology.cpe_hop(config.source, dst, t0);
      if (now.has_value() != then.has_value() ||
          (now && now->address != then->address)) {
        ++ref.moved_cpe_probes;
      }
    }
    if (lost()) continue;
    const netsim::Path path = topology.path(config.source, dst, t);
    if (ttl <= path.size()) {
      const netsim::Hop& hop = path[ttl - 1];
      if (!hop.responds || lost()) continue;
      ref.results[ti].hops[ttl - 1] = hop.address;
      ref.results[ti].hop_responded[ttl - 1] = true;
      continue;
    }
    const auto res = world.resolve(dst, t);
    using Kind = sim::World::Resolution::Kind;
    const bool answers =
        (res.kind == Kind::kDevice && !res.firewalled && !res.icmp_silent) ||
        res.kind == Kind::kRouter || res.kind == Kind::kAlias;
    if (answers && !lost()) ref.results[ti].destination_reached = true;
  }
  return ref;
}

TEST_F(ScanTest, YarrpPerTraceRoutesMatchPerProbePaths) {
  // Targets inside daily-rotating ASes, addressed just before a rotation
  // boundary, so the trace's probe times straddle a generation change
  // and their CPE hops move mid-trace.
  const util::SimTime boundary = world_->config().study_start + 10 * util::kDay;
  std::vector<net::Ipv6Address> targets;
  for (const auto& site : world_->sites()) {
    const sim::AsInfo& as = world_->ases()[site.as_index];
    if (as.profile.rotation_period != util::kDay || site.device_count == 0 ||
        site.cpe == sim::kNoDevice) {
      continue;
    }
    targets.push_back(world_->device_address(site.first_device, boundary - 1));
    if (targets.size() == 24) break;
  }
  ASSERT_GE(targets.size(), 8u);
  // On-link (same /64 as the source), unrouted, and a routed address no
  // one owns.
  targets.push_back(
      net::Ipv6Address::from_u64(source().hi64(), source().lo64() ^ 0x77));
  targets.push_back(*net::Ipv6Address::parse("3fff::1"));
  targets.push_back(net::Ipv6Address::from_u64(
      world_->ases()[0].prefix_hi | (sim::kRegionSite << 28) | 0xdead00, 9));

  const netsim::DataPlaneConfig plane_config{0.05, 31};
  YarrpConfig config{source(), 8, 1, 0x5eed};  // one probe per second
  const std::uint64_t space = targets.size() * config.max_hops;
  const util::SimTime t0 = boundary - static_cast<util::SimTime>(space / 2);

  netsim::DataPlane plane(*world_, plane_config);
  YarrpTracer yarrp(plane, config);
  const auto traces = yarrp.trace(targets, t0);
  const auto ref = reference_trace(*world_, plane_config, config, targets, t0);

  EXPECT_GT(ref.moved_cpe_probes, 0u);  // the straddle is real
  EXPECT_EQ(plane.drops(), ref.drops);  // same loss draws, same order
  ASSERT_EQ(traces.size(), ref.results.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i].target, ref.results[i].target);
    EXPECT_EQ(traces[i].destination_reached,
              ref.results[i].destination_reached)
        << "target " << i;
    EXPECT_EQ(traces[i].hop_responded, ref.results[i].hop_responded)
        << "target " << i;
    EXPECT_EQ(traces[i].hops, ref.results[i].hops) << "target " << i;
  }
}

TEST_F(ScanTest, YarrpMatchesPerProbeHopLimitedEchoUnderRateLimits) {
  // With router ICMP budgets on, the tracer's precomputed-route probes
  // charge the same budgets in the same order as per-probe calls.
  std::vector<net::Ipv6Address> targets;
  util::Rng rng(12);
  for (int i = 0; i < 40; ++i) {
    const auto d =
        static_cast<sim::DeviceId>(rng.bounded(world_->devices().size()));
    targets.push_back(world_->device_address(d, 5000));
  }
  const netsim::DataPlaneConfig plane_config{0.02, 8, 3};
  const YarrpConfig config{source(), 10, 200, 0xfeed};
  netsim::DataPlane traced(*world_, plane_config);
  YarrpTracer yarrp(traced, config);
  const auto traces = yarrp.trace(targets, 5000);

  netsim::DataPlane per_probe(*world_, plane_config);
  const std::uint64_t space = targets.size() * config.max_hops;
  const sim::FeistelPermutation order(space, config.seed ^ 0x9a44b);
  std::vector<TraceResult> expected(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    expected[i].hops.assign(config.max_hops, net::Ipv6Address{});
    expected[i].hop_responded.assign(config.max_hops, false);
  }
  for (std::uint64_t k = 0; k < space; ++k) {
    const std::uint64_t p = order.apply(k);
    const std::size_t ti = p / config.max_hops;
    const auto ttl = static_cast<std::uint8_t>(1 + p % config.max_hops);
    const auto result = per_probe.hop_limited_echo(
        config.source, targets[ti], ttl, 0, ttl,
        5000 + static_cast<util::SimTime>(k / config.probe_rate));
    if (result.kind == netsim::ProbeResult::Kind::kTimeExceeded) {
      expected[ti].hops[ttl - 1] = result.responder;
      expected[ti].hop_responded[ttl - 1] = true;
    } else if (result.kind == netsim::ProbeResult::Kind::kEchoReply) {
      expected[ti].destination_reached = true;
    }
  }
  EXPECT_GT(traced.rate_limited(), 0u);  // the budgets really bit
  EXPECT_EQ(traced.rate_limited(), per_probe.rate_limited());
  EXPECT_EQ(traced.drops(), per_probe.drops());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(traces[i].hops, expected[i].hops) << "target " << i;
    EXPECT_EQ(traces[i].hop_responded, expected[i].hop_responded)
        << "target " << i;
    EXPECT_EQ(traces[i].destination_reached, expected[i].destination_reached)
        << "target " << i;
  }
}

TEST_F(ScanTest, RoutedSlash48FractionScalesTargetCount) {
  const double full_count =
      static_cast<double>(world_->ases().size()) * 65536.0;
  const auto some = routed_slash48_targets(*world_, 0.05, 1);
  EXPECT_NEAR(static_cast<double>(some.size()), 0.05 * full_count,
              0.005 * full_count);
  // Every target is a ::1 and every target is unique.
  std::unordered_set<net::Ipv6Address> unique(some.begin(), some.end());
  EXPECT_EQ(unique.size(), some.size());
  for (std::size_t i = 0; i < some.size(); i += 1000) {
    EXPECT_EQ(some[i].lo64(), 1u);
  }
}

TEST_F(ScanTest, LowIidCandidates) {
  const net::Ipv6Prefix p64(net::Ipv6Address::from_u64(0xabc, 0), 64);
  const auto candidates = low_iid_candidates(std::span(&p64, 1));
  ASSERT_EQ(candidates.size(), 5u);
  for (const auto& c : candidates) {
    EXPECT_EQ(c.hi64(), 0xabcULL);
    EXPECT_LE(c.lo64(), 0x100u);
  }
}

TEST_F(ScanTest, SubnetSweepCandidates) {
  const net::Ipv6Prefix p48(
      net::Ipv6Address::from_u64(0x20010db800010000ULL, 0), 48);
  const auto candidates = subnet_sweep_candidates(std::span(&p48, 1), 4);
  ASSERT_EQ(candidates.size(), 4u);
  EXPECT_EQ(candidates[3].hi64(), 0x20010db800010003ULL);
  EXPECT_EQ(candidates[3].lo64(), 1u);
}

TEST_F(ScanTest, BackscannerDedupsWithinInterval) {
  Backscanner scanner(*plane_, {10 * util::kMinute, 0.0, 12, 1});
  const auto d = reachable_cpe(*world_, 1000);
  const auto client = world_->device_address(d, 1000);
  ntp::Observation obs{client, 1000, 0};
  scanner.observe(obs, source());
  scanner.observe(obs, source());  // same interval: ignored
  obs.time = 1000 + 11 * util::kMinute;  // next interval: probed again
  scanner.observe(obs, source());
  const auto report = scanner.finish();
  EXPECT_EQ(report.clients_probed, 2u);
  EXPECT_EQ(report.outcomes.size(), 2u);
  EXPECT_TRUE(report.outcomes[0].client_responded);
}

TEST_F(ScanTest, BackscannerFindsAliasedSlash64s) {
  Backscanner scanner(*plane_, {10 * util::kMinute, 0.0, 12, 2});
  // Observe a "client" inside a fully aliased datacenter /64.
  const auto prefixes = world_->aliased_datacenter_prefixes();
  ASSERT_FALSE(prefixes.empty());
  const auto client =
      net::Ipv6Address::from_u64(prefixes[0].address().hi64() | 1, 0xabcdef);
  scanner.observe({client, 5000, 1}, source());
  const auto report = scanner.finish();
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_TRUE(report.outcomes[0].random_responded);
  ASSERT_EQ(report.aliased_slash64s.size(), 1u);
  EXPECT_EQ(report.aliased_slash64s[0], net::slash64_of(client));
  EXPECT_EQ(report.responsive_random_addresses, 1u);
}

TEST_F(ScanTest, BackscannerRandomProbeMissesOrdinaryNetworks) {
  Backscanner scanner(*plane_, {10 * util::kMinute, 0.0, 12, 3});
  const auto d = reachable_cpe(*world_, 1000);
  scanner.observe({world_->device_address(d, 1000), 1000, 0}, source());
  const auto report = scanner.finish();
  EXPECT_FALSE(report.outcomes[0].random_responded);
  EXPECT_TRUE(report.aliased_slash64s.empty());
}

TEST_F(ScanTest, BackscannerOrderIndependent) {
  const auto d = reachable_cpe(*world_, 1000);
  const auto c1 = world_->device_address(d, 1000);
  const auto prefixes = world_->aliased_datacenter_prefixes();
  const auto c2 =
      net::Ipv6Address::from_u64(prefixes[0].address().hi64() | 2, 0x1111);

  Backscanner fwd(*plane_, {10 * util::kMinute, 0.0, 12, 4});
  fwd.observe({c1, 1000, 0}, source());
  fwd.observe({c2, 90000, 1}, source());
  const auto a = fwd.finish();

  Backscanner rev(*plane_, {10 * util::kMinute, 0.0, 12, 4});
  rev.observe({c2, 90000, 1}, source());
  rev.observe({c1, 1000, 0}, source());
  const auto b = rev.finish();

  EXPECT_EQ(a.clients_probed, b.clients_probed);
  EXPECT_EQ(a.clients_responded, b.clients_responded);
  EXPECT_EQ(a.aliased_slash64s, b.aliased_slash64s);
}

}  // namespace
}  // namespace v6::scan
