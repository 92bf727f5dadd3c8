// The simulated data plane: delivers the campaigns' and the backscanner's
// probes (ICMPv6 echo, hop-limited echo, TCP SYN) between addresses,
// consulting the world for ownership, firewalls, and aliases, and the
// topology for hop-limited (traceroute) behaviour.
//
// Probe verdicts are decided from values: who owns the destination, which
// hop a hop limit expires at, and whether a listener is bound. The plane
// injects no corruption, so the request/reply encode-and-decode round trip
// a real stack performs could never change a verdict;
// tests/test_data_plane.cpp keeps that round trip with the test-side
// proto:: codecs as the reference the value path must match. A
// configurable loss rate models the real Internet's flakiness; scanners
// must tolerate it. NTP polls never cross the plane: the collector decides
// them from values too (see hitlist::PassiveCollector).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <unordered_map>

#include "net/ipv6.h"
#include "netsim/topology.h"
#include "obs/metrics.h"
#include "sim/world.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace v6::netsim {

struct DataPlaneConfig {
  // Probability any single datagram is dropped in transit.
  double loss_rate = 0.01;
  std::uint64_t seed = 7;
  // Per-router ICMPv6 error generation budget per simulated second
  // (control-plane policing): Time Exceeded messages beyond it are
  // silently dropped. 0 disables the limit. Yarrp's randomized probe
  // order exists precisely to spread load under such budgets.
  std::uint32_t router_icmp_rate_limit = 0;
  // Optional metrics sink (not owned; must outlive the plane). Appended
  // last so existing positional initializers stay valid.
  obs::Registry* metrics = nullptr;
};

// Outcome of an ICMPv6 probe.
struct ProbeResult {
  enum class Kind : std::uint8_t {
    kEchoReply,     // destination answered
    kTimeExceeded,  // a router on the path answered (hop-limited probe)
    kTimeout,       // silence: filtered, dead, lost, or unrouted
  };
  Kind kind = Kind::kTimeout;
  // Who answered (valid unless kTimeout).
  net::Ipv6Address responder;
  // Echoed sequence number (kEchoReply only).
  std::uint16_t sequence = 0;
};

class DataPlane {
 public:
  DataPlane(const sim::World& world, const DataPlaneConfig& config);

  // Sends an ICMPv6 Echo Request from src to dst with unlimited hops.
  ProbeResult echo(const net::Ipv6Address& src, const net::Ipv6Address& dst,
                   std::uint16_t identifier, std::uint16_t sequence,
                   util::SimTime t);

  // Hop-limited echo (the Yarrp primitive): if the path is at least
  // `hop_limit` hops long, the hop it expires at answers Time Exceeded. A
  // hop limit of 0 never leaves the sender.
  ProbeResult hop_limited_echo(const net::Ipv6Address& src,
                               const net::Ipv6Address& dst,
                               std::uint8_t hop_limit,
                               std::uint16_t identifier,
                               std::uint16_t sequence, util::SimTime t);
  // The same probe with the path's router hops precomputed: `routers` must
  // equal topology().routers(src, dst). Tracers compute it once per target
  // and probe every TTL with it; the verdict and the loss draws are those
  // of the overload above.
  ProbeResult hop_limited_echo(const Path& routers,
                               const net::Ipv6Address& src,
                               const net::Ipv6Address& dst,
                               std::uint8_t hop_limit,
                               std::uint16_t identifier,
                               std::uint16_t sequence, util::SimTime t);

  // TCP SYN probe (the Hitlist's 80/443 scans). A listener answers
  // SYN-ACK; a reachable host without one answers RST (still proof of
  // liveness); firewalled/absent targets stay silent. Aliased prefixes
  // SYN-ACK everything.
  enum class SynOutcome : std::uint8_t { kSynAck, kRst, kTimeout };
  SynOutcome tcp_syn(const net::Ipv6Address& src, const net::Ipv6Address& dst,
                     std::uint16_t dst_port, std::uint32_t sequence,
                     util::SimTime t);

  const Topology& topology() const noexcept { return topology_; }

  // Number of datagrams dropped so far (both directions).
  std::uint64_t drops() const noexcept { return drops_; }
  // Time Exceeded messages suppressed by router rate limiting.
  std::uint64_t rate_limited() const noexcept { return rate_limited_; }

 private:
  bool lost();
  // The destination's answer to a delivered echo request.
  ProbeResult deliver_echo(const net::Ipv6Address& dst,
                           std::uint16_t sequence, util::SimTime t);
  // Charges one ICMP error against `router`'s budget for second `t`.
  bool icmp_error_allowed(const net::Ipv6Address& router, util::SimTime t);

  const sim::World* world_;
  DataPlaneConfig config_;
  Topology topology_;
  util::Rng rng_;
  std::uint64_t drops_ = 0;
  std::uint64_t rate_limited_ = 0;
  obs::Counter metric_drops_;
  obs::Counter metric_rate_limited_;
  // Per-second ICMP error budgets, keyed by second then router. Ordered so
  // stale seconds can be pruned as the newest-seen second advances; probes
  // may arrive out of chronological order (interleaved backscan intervals
  // revisit earlier seconds), and any second within the retention horizon
  // keeps an exact budget.
  util::SimTime budget_newest_ = std::numeric_limits<util::SimTime>::min();
  std::map<util::SimTime, std::unordered_map<std::uint64_t, std::uint32_t>>
      icmp_budget_;
};

}  // namespace v6::netsim
