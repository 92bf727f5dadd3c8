#include "netsim/data_plane.h"

#include <gtest/gtest.h>

#include "proto/icmpv6.h"
#include "proto/tcp.h"
#include "proto/udp.h"
#include "util/rng.h"

namespace v6::netsim {
namespace {

class DataPlaneTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 21;
    config.total_sites = 500;
    world_ = new sim::World(sim::World::generate(config));
  }
  static void TearDownTestSuite() { delete world_; }

  static DataPlane lossless() { return DataPlane(*world_, {0.0, 1}); }

  static sim::World* world_;
};

sim::World* DataPlaneTest::world_ = nullptr;

// A reachable (non-firewalled, echo-answering) device, or kNoDevice.
sim::DeviceId find_reachable(const sim::World& w, util::SimTime t) {
  for (const auto& dev : w.devices()) {
    if (dev.kind != sim::DeviceKind::kCpe || !dev.responds_icmp) continue;
    const auto res = w.resolve(w.device_address(dev.id, t), t);
    if (res.kind == sim::World::Resolution::Kind::kDevice &&
        !res.firewalled) {
      return dev.id;
    }
  }
  return sim::kNoDevice;
}

sim::DeviceId find_firewalled(const sim::World& w, util::SimTime /*t*/) {
  for (const auto& dev : w.devices()) {
    if (dev.site == sim::kNoSite || dev.kind == sim::DeviceKind::kCpe) {
      continue;
    }
    if (!w.sites()[dev.site].firewalled || w.sites()[dev.site].aliased) {
      continue;
    }
    return dev.id;
  }
  return sim::kNoDevice;
}

TEST_F(DataPlaneTest, EchoToLiveDeviceGetsReply) {
  auto plane = lossless();
  const util::SimTime t = 1000;
  const auto d = find_reachable(*world_, t);
  ASSERT_NE(d, sim::kNoDevice);
  const auto target = world_->device_address(d, t);
  const auto result =
      plane.echo(world_->vantages().front().address, target, 7, 9, t);
  EXPECT_EQ(result.kind, ProbeResult::Kind::kEchoReply);
  EXPECT_EQ(result.responder, target);
  EXPECT_EQ(result.sequence, 9);
}

TEST_F(DataPlaneTest, EchoToFirewalledDeviceTimesOut) {
  auto plane = lossless();
  const util::SimTime t = 1000;
  const auto d = find_firewalled(*world_, t);
  ASSERT_NE(d, sim::kNoDevice);
  const auto target = world_->device_address(d, t);
  const auto result =
      plane.echo(world_->vantages().front().address, target, 7, 9, t);
  EXPECT_EQ(result.kind, ProbeResult::Kind::kTimeout);
}

TEST_F(DataPlaneTest, EchoToNowhereTimesOut) {
  auto plane = lossless();
  const auto result =
      plane.echo(world_->vantages().front().address,
                 *net::Ipv6Address::parse("2001:db8::dead"), 1, 1, 50);
  EXPECT_EQ(result.kind, ProbeResult::Kind::kTimeout);
}

TEST_F(DataPlaneTest, HopLimitedProbeElicitsTimeExceeded) {
  auto plane = lossless();
  const util::SimTime t = 1000;
  const auto d = find_reachable(*world_, t);
  ASSERT_NE(d, sim::kNoDevice);
  const auto src = world_->vantages().front().address;
  const auto dst = world_->device_address(d, t);
  const auto path = plane.topology().path(src, dst, t);
  ASSERT_FALSE(path.empty());
  const auto result = plane.hop_limited_echo(src, dst, 1, 3, 1, t);
  ASSERT_EQ(result.kind, ProbeResult::Kind::kTimeExceeded);
  EXPECT_EQ(result.responder, path.front().address);
}

TEST_F(DataPlaneTest, HopLimitBeyondPathReachesDestination) {
  auto plane = lossless();
  const util::SimTime t = 1000;
  const auto d = find_reachable(*world_, t);
  const auto src = world_->vantages().front().address;
  const auto dst = world_->device_address(d, t);
  const auto path = plane.topology().path(src, dst, t);
  const auto result = plane.hop_limited_echo(
      src, dst, static_cast<std::uint8_t>(path.size() + 1), 3, 1, t);
  EXPECT_EQ(result.kind, ProbeResult::Kind::kEchoReply);
}

TEST_F(DataPlaneTest, FullLossDropsEverything) {
  DataPlane plane(*world_, {1.0, 1});
  const util::SimTime t = 1000;
  const auto d = find_reachable(*world_, t);
  const auto result = plane.echo(world_->vantages().front().address,
                                 world_->device_address(d, t), 1, 1, t);
  EXPECT_EQ(result.kind, ProbeResult::Kind::kTimeout);
  EXPECT_GT(plane.drops(), 0u);
}

TEST_F(DataPlaneTest, LossRateIsRoughlyHonored) {
  DataPlane plane(*world_, {0.2, 2});
  const util::SimTime t = 1000;
  const auto d = find_reachable(*world_, t);
  const auto target = world_->device_address(d, t);
  const auto src = world_->vantages().front().address;
  int replies = 0;
  constexpr int kProbes = 2000;
  for (int i = 0; i < kProbes; ++i) {
    if (plane.echo(src, target, 1, static_cast<std::uint16_t>(i), t).kind ==
        ProbeResult::Kind::kEchoReply) {
      ++replies;
    }
  }
  // Two loss opportunities per exchange: P(reply) = 0.8^2 = 0.64.
  EXPECT_NEAR(static_cast<double>(replies) / kProbes, 0.64, 0.05);
}

TEST_F(DataPlaneTest, UdpServiceRoundTrip) {
  auto plane = lossless();
  const auto server = world_->vantages().front().address;
  plane.bind_udp(server, proto::kNtpPort,
                 [](const net::Ipv6Address&, std::uint16_t,
                    const std::vector<std::uint8_t>& payload, util::SimTime)
                     -> std::optional<std::vector<std::uint8_t>> {
                   auto echo = payload;
                   echo.push_back(0x99);
                   return echo;
                 });
  const auto client = world_->device_address(0, 0);
  const auto response = plane.send_udp(client, 40000, server,
                                       proto::kNtpPort, {1, 2, 3}, 0);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->size(), 4u);
  EXPECT_EQ(response->back(), 0x99);
}

TEST_F(DataPlaneTest, UdpToUnboundPortIsSilent) {
  auto plane = lossless();
  const auto client = world_->device_address(0, 0);
  EXPECT_FALSE(plane.send_udp(client, 40000,
                              world_->vantages().front().address, 9999,
                              {1}, 0));
}

TEST_F(DataPlaneTest, UdpServiceMayDecline) {
  auto plane = lossless();
  const auto server = world_->vantages().front().address;
  plane.bind_udp(server, proto::kNtpPort,
                 [](const net::Ipv6Address&, std::uint16_t,
                    const std::vector<std::uint8_t>&, util::SimTime)
                     -> std::optional<std::vector<std::uint8_t>> {
                   return std::nullopt;
                 });
  EXPECT_FALSE(plane.send_udp(world_->device_address(0, 0), 40000, server,
                              proto::kNtpPort, {1}, 0));
}

TEST_F(DataPlaneTest, RouterIcmpRateLimiting) {
  const util::SimTime t = 1000;
  const auto d = find_reachable(*world_, t);
  const auto src = world_->vantages().front().address;
  const auto dst = world_->device_address(d, t);

  netsim::DataPlaneConfig limited{0.0, 1, 5};  // 5 errors/router/second
  DataPlane plane(*world_, limited);
  int exceeded = 0;
  for (int i = 0; i < 40; ++i) {
    if (plane.hop_limited_echo(src, dst, 1, 1,
                               static_cast<std::uint16_t>(i), t)
            .kind == ProbeResult::Kind::kTimeExceeded) {
      ++exceeded;
    }
  }
  EXPECT_EQ(exceeded, 5);
  EXPECT_EQ(plane.rate_limited(), 35u);

  // The budget resets the next second...
  EXPECT_EQ(plane.hop_limited_echo(src, dst, 1, 1, 99, t + 1).kind,
            ProbeResult::Kind::kTimeExceeded);
  // ...and destination replies are never policed.
  EXPECT_EQ(plane.echo(src, dst, 1, 7, t + 1).kind,
            ProbeResult::Kind::kEchoReply);
}

TEST_F(DataPlaneTest, RateLimitDisabledByDefault) {
  auto plane = lossless();
  const util::SimTime t = 2000;
  const auto d = find_reachable(*world_, t);
  const auto src = world_->vantages().front().address;
  const auto dst = world_->device_address(d, t);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(plane
                  .hop_limited_echo(src, dst, 1, 1,
                                    static_cast<std::uint16_t>(i), t)
                  .kind,
              ProbeResult::Kind::kTimeExceeded);
  }
  EXPECT_EQ(plane.rate_limited(), 0u);
}

TEST_F(DataPlaneTest, IcmpBudgetSurvivesBackwardProbeTimes) {
  // Interleaved backscan intervals revisit earlier seconds: a probe at
  // t+1 followed by more probes at t must still honor the budget already
  // charged at t. The old clear-on-any-time-change reset wiped it.
  const util::SimTime t = 1000;
  const auto d = find_reachable(*world_, t);
  const auto src = world_->vantages().front().address;
  const auto dst = world_->device_address(d, t);

  netsim::DataPlaneConfig limited{0.0, 1, 5};  // 5 errors/router/second
  DataPlane plane(*world_, limited);
  // Exhaust second t...
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(plane.hop_limited_echo(src, dst, 1, 1,
                                     static_cast<std::uint16_t>(i), t)
                  .kind,
              ProbeResult::Kind::kTimeExceeded);
  }
  // ...advance the clock...
  EXPECT_EQ(plane.hop_limited_echo(src, dst, 1, 1, 50, t + 1).kind,
            ProbeResult::Kind::kTimeExceeded);
  // ...then revisit second t: its budget is spent, every probe is policed.
  const auto limited_before = plane.rate_limited();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(plane.hop_limited_echo(src, dst, 1, 1,
                                     static_cast<std::uint16_t>(60 + i), t)
                  .kind,
              ProbeResult::Kind::kTimeout);
  }
  EXPECT_EQ(plane.rate_limited(), limited_before + 10);
  // Second t+1 still has 4 of its 5 left.
  int exceeded = 0;
  for (int i = 0; i < 10; ++i) {
    if (plane.hop_limited_echo(src, dst, 1, 1,
                               static_cast<std::uint16_t>(80 + i), t + 1)
            .kind == ProbeResult::Kind::kTimeExceeded) {
      ++exceeded;
    }
  }
  EXPECT_EQ(exceeded, 4);
}

TEST_F(DataPlaneTest, FaultScheduleSwallowsUdpToCrashedVantage) {
  auto plane = lossless();
  const auto& vantage = world_->vantages().front();
  plane.bind_udp(vantage.address, proto::kNtpPort,
                 [](const net::Ipv6Address&, std::uint16_t,
                    const std::vector<std::uint8_t>&, util::SimTime)
                     -> std::optional<std::vector<std::uint8_t>> {
                   return std::vector<std::uint8_t>{42};
                 });
  FaultSchedule faults(world_->vantages());
  faults.add_window(vantage.id, 1000, 2000);
  plane.set_faults(&faults);

  const auto client = world_->device_address(0, 0);
  EXPECT_TRUE(plane.send_udp(client, 40000, vantage.address, proto::kNtpPort,
                             {1}, 500));
  EXPECT_FALSE(plane.send_udp(client, 40000, vantage.address, proto::kNtpPort,
                              {1}, 1500));
  EXPECT_EQ(plane.fault_drops(), 1u);
  EXPECT_TRUE(plane.send_udp(client, 40000, vantage.address, proto::kNtpPort,
                             {1}, 3000));
  // Other destinations are never faulted.
  plane.set_faults(nullptr);
  EXPECT_TRUE(plane.send_udp(client, 40000, vantage.address, proto::kNtpPort,
                             {1}, 1500));
}

TEST_F(DataPlaneTest, AliasRegionsAnswerEcho) {
  auto plane = lossless();
  const auto prefixes = world_->aliased_datacenter_prefixes();
  ASSERT_FALSE(prefixes.empty());
  util::Rng rng(3);
  const auto target = net::Ipv6Address::from_u64(
      prefixes[0].address().hi64() | 7, rng.next());
  const auto result =
      plane.echo(world_->vantages().front().address, target, 1, 1, 1000);
  EXPECT_EQ(result.kind, ProbeResult::Kind::kEchoReply);
}

TEST_F(DataPlaneTest, HopLimitZeroNeverLeavesTheSender) {
  const util::SimTime t = 1000;
  const auto d = find_reachable(*world_, t);
  ASSERT_NE(d, sim::kNoDevice);
  const auto src = world_->vantages().front().address;
  const auto dst = world_->device_address(d, t);
  // Lossless: the probe must not index the path at hop_limit - 1.
  auto plane = lossless();
  EXPECT_EQ(plane.hop_limited_echo(src, dst, 0, 1, 1, t).kind,
            ProbeResult::Kind::kTimeout);
  // Certain loss: nothing was sent, so nothing was drawn or dropped.
  DataPlane lossy(*world_, {1.0, 1});
  EXPECT_EQ(lossy.hop_limited_echo(src, dst, 0, 1, 1, t).kind,
            ProbeResult::Kind::kTimeout);
  EXPECT_EQ(lossy.drops(), 0u);
}

// --- Wire reference -------------------------------------------------------
//
// The data plane decides probe verdicts from values. This reference runs
// the same exchanges as real bytes through the proto:: codecs, the way a
// host stack would: encode the request, let the hop that expires it (from
// Topology::path) quote it in a Time Exceeded, or deliver and decode it at
// the destination, then encode and decode the reply. Lossless and without
// rate limits; the sweep below checks the lossless plane agrees with it.

ProbeResult wire_hop_limited_echo(const sim::World& world,
                                  const Topology& topology,
                                  const net::Ipv6Address& src,
                                  const net::Ipv6Address& dst,
                                  std::uint8_t hop_limit,
                                  std::uint16_t identifier,
                                  std::uint16_t sequence, util::SimTime t) {
  ProbeResult result;
  if (hop_limit == 0) return result;
  const auto wire = proto::encode_icmpv6(
      proto::make_echo_request(identifier, sequence), src, dst);
  const Path path = topology.path(src, dst, t);
  if (hop_limit <= path.size()) {
    const Hop& hop = path[hop_limit - 1];
    if (!hop.responds) return result;
    const auto te_wire = proto::encode_icmpv6(proto::make_time_exceeded(wire),
                                              hop.address, src);
    const auto te = proto::decode_icmpv6(te_wire, hop.address, src);
    if (!te || te->type != proto::Icmpv6Type::kTimeExceeded ||
        te->payload != wire) {
      return result;
    }
    result.kind = ProbeResult::Kind::kTimeExceeded;
    result.responder = hop.address;
    return result;
  }
  const auto request = proto::decode_icmpv6(wire, src, dst);
  if (!request || request->type != proto::Icmpv6Type::kEchoRequest) {
    return result;
  }
  const auto res = world.resolve(dst, t);
  using Kind = sim::World::Resolution::Kind;
  const bool answers =
      (res.kind == Kind::kDevice && !res.firewalled && !res.icmp_silent) ||
      res.kind == Kind::kRouter || res.kind == Kind::kAlias;
  if (!answers) return result;
  const auto reply_wire =
      proto::encode_icmpv6(proto::make_echo_reply(*request), dst, src);
  const auto reply = proto::decode_icmpv6(reply_wire, dst, src);
  if (!reply || reply->type != proto::Icmpv6Type::kEchoReply ||
      reply->identifier() != identifier) {
    return result;
  }
  result.kind = ProbeResult::Kind::kEchoReply;
  result.responder = dst;
  result.sequence = reply->sequence();
  return result;
}

DataPlane::SynOutcome wire_tcp_syn(const sim::World& world,
                                   const net::Ipv6Address& src,
                                   const net::Ipv6Address& dst,
                                   std::uint16_t dst_port,
                                   std::uint32_t sequence, util::SimTime t) {
  using Outcome = DataPlane::SynOutcome;
  const auto wire =
      proto::encode_tcp(proto::make_syn(54321, dst_port, sequence), src, dst);
  const auto syn = proto::decode_tcp(wire, src, dst);
  if (!syn || !syn->is_syn()) return Outcome::kTimeout;
  const auto res = world.resolve(dst, t);
  using Kind = sim::World::Resolution::Kind;
  bool listening = false, reachable = false;
  switch (res.kind) {
    case Kind::kDevice:
      reachable = !res.firewalled;
      listening = reachable && world.serves_tcp(res.device, dst_port);
      break;
    case Kind::kRouter:
      reachable = true;
      break;
    case Kind::kAlias:
      reachable = listening = true;
      break;
    case Kind::kNone:
      break;
  }
  if (!reachable) return Outcome::kTimeout;
  const proto::TcpSegment reply =
      listening ? proto::make_syn_ack(*syn, 0x5a5a) : proto::make_rst(*syn);
  const auto reply_wire = proto::encode_tcp(reply, dst, src);
  const auto decoded = proto::decode_tcp(reply_wire, dst, src);
  if (!decoded || decoded->ack_number != sequence + 1 ||
      decoded->dst_port != 54321 || decoded->src_port != dst_port) {
    return Outcome::kTimeout;
  }
  if (decoded->is_syn_ack()) return Outcome::kSynAck;
  return decoded->is_rst() ? Outcome::kRst : Outcome::kTimeout;
}

TEST_F(DataPlaneTest, ValueDecidedVerdictsMatchTheWireReference) {
  const sim::World& w = *world_;
  const Topology topology(w);
  auto plane = lossless();
  const auto src = w.vantages().front().address;
  util::Rng rng(33);

  std::size_t kinds[3] = {0, 0, 0};
  std::size_t outcomes[3] = {0, 0, 0};
  const util::SimTime times[] = {1000, 3 * util::kDay + 17,
                                 40 * util::kDay + 5000};
  for (const util::SimTime t : times) {
    // Devices of every kind, their routers, aliased space, an unrouted
    // address, a routed address no one owns, and the source's own /64.
    std::vector<net::Ipv6Address> targets;
    for (int i = 0; i < 150; ++i) {
      const auto d =
          static_cast<sim::DeviceId>(rng.bounded(w.devices().size()));
      targets.push_back(w.device_address(d, t));
    }
    for (int i = 0; i < 20; ++i) {
      const auto as = static_cast<std::uint32_t>(rng.bounded(w.ases().size()));
      if (w.ases()[as].router_count == 0) continue;
      const auto router = static_cast<std::uint32_t>(
          rng.bounded(w.ases()[as].router_count));
      targets.push_back(w.router_address(as, router, 1));
    }
    for (const auto& prefix : w.aliased_datacenter_prefixes()) {
      targets.push_back(
          net::Ipv6Address::from_u64(prefix.address().hi64() | 3, rng.next()));
    }
    targets.push_back(*net::Ipv6Address::parse("3fff::1"));
    targets.push_back(net::Ipv6Address::from_u64(
        w.ases()[1].prefix_hi | (sim::kRegionSite << 28) | 0xbeef00, 5));
    targets.push_back(net::Ipv6Address::from_u64(src.hi64(), src.lo64() ^ 1));

    for (const auto& dst : targets) {
      const auto seq = static_cast<std::uint16_t>(rng.next());
      const auto ident = static_cast<std::uint16_t>(rng.next());
      for (const std::uint8_t ttl : {0, 1, 2, 3, 4, 5, 6, 7, 255}) {
        const auto want =
            wire_hop_limited_echo(w, topology, src, dst, ttl, ident, seq, t);
        const auto got = ttl == 255
                             ? plane.echo(src, dst, ident, seq, t)
                             : plane.hop_limited_echo(src, dst, ttl, ident,
                                                      seq, t);
        ASSERT_EQ(got.kind, want.kind)
            << dst.to_string() << " ttl " << int{ttl} << " t " << t;
        EXPECT_EQ(got.responder, want.responder) << dst.to_string();
        EXPECT_EQ(got.sequence, want.sequence) << dst.to_string();
        ++kinds[static_cast<int>(got.kind)];
      }
      for (const std::uint16_t port : {80, 443, 22}) {
        const auto tcp_seq = static_cast<std::uint32_t>(rng.next());
        const auto want = wire_tcp_syn(w, src, dst, port, tcp_seq, t);
        const auto got = plane.tcp_syn(src, dst, port, tcp_seq, t);
        EXPECT_EQ(got, want) << dst.to_string() << " port " << port;
        ++outcomes[static_cast<int>(got)];
      }
    }
  }
  // Every verdict was exercised.
  for (const std::size_t n : kinds) EXPECT_GT(n, 0u);
  for (const std::size_t n : outcomes) EXPECT_GT(n, 0u);
}

}  // namespace
}  // namespace v6::netsim
