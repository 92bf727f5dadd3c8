// Deterministic router-level paths through the simulated Internet.
//
// Yarrp-style traceroute needs per-hop responders. Paths are synthesized on
// demand from the world's structure: source-AS edge, source-country
// backbone, destination-country backbone, destination-AS core and edge
// routers, then (for customer-site targets) the site CPE, then the
// destination itself. Router choices hash on the destination /48 so that
// traces to the same region reuse hops, as real topology does.
//
// A path splits into two parts with different lifetimes. The router hops
// are a pure function of (src, dst): a tracer computes them once per
// target and reuses them for every TTL. The CPE hop depends on the time
// (sites rotate through prefix slots), so it is looked up per probe, and
// only by the probe whose TTL reaches it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv6.h"
#include "sim/world.h"

namespace v6::netsim {

// One forwarding hop on a path.
struct Hop {
  net::Ipv6Address address;
  // True when this hop answers TTL-exceeded (routers nearly always do;
  // CPE hops answer unless the site declines).
  bool responds = true;
};

// A forwarding path held inline, so building one never allocates. At most
// kMaxHops hops: source edge, source backbone, destination backbone,
// destination edge, destination core, CPE.
class Path {
 public:
  static constexpr std::size_t kMaxHops = 6;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const Hop& operator[](std::size_t i) const noexcept { return hops_[i]; }
  const Hop* begin() const noexcept { return hops_.data(); }
  const Hop* end() const noexcept { return hops_.data() + size_; }
  const Hop& front() const noexcept { return hops_[0]; }
  const Hop& back() const noexcept { return hops_[size_ - 1]; }

  void push_back(const Hop& hop) noexcept { hops_[size_++] = hop; }

 private:
  std::array<Hop, kMaxHops> hops_;
  std::uint8_t size_ = 0;
};

class Topology {
 public:
  explicit Topology(const sim::World& world);

  // The hops a packet from `src` to `dst` traverses at time `t`, excluding
  // the destination itself: routers(src, dst) followed by cpe_hop(src,
  // dst, t) when there is one. Empty when src and dst are the same /64.
  // The destination's reachability is the data plane's concern.
  Path path(const net::Ipv6Address& src, const net::Ipv6Address& dst,
            util::SimTime t) const;

  // The router hops of path(src, dst, t), which do not depend on t.
  Path routers(const net::Ipv6Address& src, const net::Ipv6Address& dst) const;

  // The customer-site CPE hop that ends path(src, dst, t), if any: only
  // routed, off-link destinations inside a site with a CPE have one.
  std::optional<Hop> cpe_hop(const net::Ipv6Address& src,
                             const net::Ipv6Address& dst,
                             util::SimTime t) const;

  // The backbone AS of a country: its first transit AS in world order.
  std::optional<std::uint32_t> backbone_of(std::uint16_t country_index) const;

 private:
  static constexpr std::uint32_t kNoBackbone = ~std::uint32_t{0};

  const sim::World* world_;
  // Backbone AS index per country, or kNoBackbone; built once.
  std::vector<std::uint32_t> backbone_;
};

}  // namespace v6::netsim
