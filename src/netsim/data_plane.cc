#include "netsim/data_plane.h"

namespace v6::netsim {

DataPlane::DataPlane(const sim::World& world, const DataPlaneConfig& config)
    : world_(&world),
      config_(config),
      topology_(world),
      rng_(util::mix64(config.seed ^ 0xda7a)) {
  if (config_.metrics != nullptr) {
    metric_drops_ = config_.metrics->counter(
        "v6_plane_drops_total", "Datagrams lost in transit (both directions)");
    metric_rate_limited_ = config_.metrics->counter(
        "v6_plane_rate_limited_total",
        "Time Exceeded messages suppressed by router ICMP budgets");
  }
}

bool DataPlane::lost() {
  if (config_.loss_rate > 0.0 && rng_.chance(config_.loss_rate)) {
    ++drops_;
    metric_drops_.inc();
    return true;
  }
  return false;
}

namespace {

// How far back per-second ICMP budgets are retained. Probe schedules that
// jump backwards (interleaved backscan intervals) still see exact budgets
// within the horizon; only seconds more than an hour older than the newest
// second ever observed are forgotten, keeping memory bounded.
constexpr util::SimDuration kIcmpBudgetHorizon = util::kHour;

}  // namespace

bool DataPlane::icmp_error_allowed(const net::Ipv6Address& router,
                                   util::SimTime t) {
  if (config_.router_icmp_rate_limit == 0) return true;
  if (t > budget_newest_) {
    budget_newest_ = t;
    // Prune only on forward progress: a backward-moving t must never wipe
    // budgets it already charged (the old clear-on-change reset let a
    // revisited second start from a fresh budget).
    icmp_budget_.erase(icmp_budget_.begin(),
                       icmp_budget_.lower_bound(t - kIcmpBudgetHorizon));
  }
  auto& used =
      icmp_budget_[t][router.hi64() ^ util::mix64(router.lo64())];
  if (used >= config_.router_icmp_rate_limit) {
    ++rate_limited_;
    metric_rate_limited_.inc();
    return false;
  }
  ++used;
  return true;
}

ProbeResult DataPlane::echo(const net::Ipv6Address& /*src*/,
                            const net::Ipv6Address& dst,
                            std::uint16_t /*identifier*/,
                            std::uint16_t sequence, util::SimTime t) {
  // A hop limit of 255 never expires on a path of at most Path::kMaxHops,
  // so the path is not needed: the request is lost or delivered.
  if (lost()) return {};
  return deliver_echo(dst, sequence, t);
}

ProbeResult DataPlane::hop_limited_echo(const net::Ipv6Address& src,
                                        const net::Ipv6Address& dst,
                                        std::uint8_t hop_limit,
                                        std::uint16_t identifier,
                                        std::uint16_t sequence,
                                        util::SimTime t) {
  return hop_limited_echo(topology_.routers(src, dst), src, dst, hop_limit,
                          identifier, sequence, t);
}

ProbeResult DataPlane::hop_limited_echo(const Path& routers,
                                        const net::Ipv6Address& src,
                                        const net::Ipv6Address& dst,
                                        std::uint8_t hop_limit,
                                        std::uint16_t /*identifier*/,
                                        std::uint16_t sequence,
                                        util::SimTime t) {
  ProbeResult result;
  if (hop_limit == 0) return result;  // never leaves the sender
  if (lost()) return result;

  // Walk the forwarding path; a hop-limit expiry elicits Time Exceeded.
  // The CPE hop follows the routers and is looked up only when the probe
  // expires exactly there.
  std::optional<Hop> expired;
  if (hop_limit <= routers.size()) {
    expired = routers[hop_limit - 1];
  } else if (hop_limit == routers.size() + 1) {
    expired = topology_.cpe_hop(src, dst, t);
  }
  if (expired) {
    if (!expired->responds || !icmp_error_allowed(expired->address, t) ||
        lost()) {
      return result;
    }
    result.kind = ProbeResult::Kind::kTimeExceeded;
    result.responder = expired->address;
    return result;
  }
  return deliver_echo(dst, sequence, t);
}

ProbeResult DataPlane::deliver_echo(const net::Ipv6Address& dst,
                                    std::uint16_t sequence, util::SimTime t) {
  const auto res = world_->resolve(dst, t);
  using Kind = sim::World::Resolution::Kind;
  const bool answers =
      (res.kind == Kind::kDevice && !res.firewalled && !res.icmp_silent) ||
      res.kind == Kind::kRouter || res.kind == Kind::kAlias;
  if (!answers || lost()) return {};
  ProbeResult result;
  result.kind = ProbeResult::Kind::kEchoReply;
  result.responder = dst;
  result.sequence = sequence;  // an Echo Reply echoes the request's
  return result;
}

DataPlane::SynOutcome DataPlane::tcp_syn(const net::Ipv6Address& /*src*/,
                                         const net::Ipv6Address& dst,
                                         std::uint16_t dst_port,
                                         std::uint32_t /*sequence*/,
                                         util::SimTime t) {
  if (lost()) return SynOutcome::kTimeout;

  const auto res = world_->resolve(dst, t);
  using Kind = sim::World::Resolution::Kind;
  bool listening = false, reachable = false;
  switch (res.kind) {
    case Kind::kDevice:
      reachable = !res.firewalled;
      listening = reachable && world_->serves_tcp(res.device, dst_port);
      break;
    case Kind::kRouter:
      // Routers drop unsolicited TCP to their interfaces (control-plane
      // protection), but the interface is alive: answer RST.
      reachable = true;
      break;
    case Kind::kAlias:
      reachable = listening = true;  // the alias box fronts everything
      break;
    case Kind::kNone:
      break;
  }
  if (!reachable || lost()) return SynOutcome::kTimeout;
  // A listener answers SYN-ACK, anyone else RST; both acknowledge the SYN.
  return listening ? SynOutcome::kSynAck : SynOutcome::kRst;
}

}  // namespace v6::netsim
