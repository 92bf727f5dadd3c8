#include "netsim/topology.h"

#include "util/rng.h"

namespace v6::netsim {

namespace {

// Stable router pick within an AS, keyed on the destination /48 so nearby
// targets share infrastructure.
std::uint32_t pick_router(const sim::AsInfo& as, std::uint64_t key) {
  if (as.router_count == 0) return 0;
  return static_cast<std::uint32_t>(util::mix64(as.seed ^ key) %
                                    as.router_count);
}

}  // namespace

Topology::Topology(const sim::World& world)
    : world_(&world), backbone_(world.countries().size(), kNoBackbone) {
  const auto ases = world.ases();
  for (std::uint32_t i = 0; i < ases.size(); ++i) {
    if (ases[i].type != sim::AsType::kTransit) continue;
    const std::uint16_t country = ases[i].country_index;
    if (country >= backbone_.size()) backbone_.resize(country + 1, kNoBackbone);
    if (backbone_[country] == kNoBackbone) backbone_[country] = i;
  }
}

std::optional<std::uint32_t> Topology::backbone_of(
    std::uint16_t country_index) const {
  if (country_index >= backbone_.size() ||
      backbone_[country_index] == kNoBackbone) {
    return std::nullopt;
  }
  return backbone_[country_index];
}

Path Topology::routers(const net::Ipv6Address& src,
                       const net::Ipv6Address& dst) const {
  Path hops;
  if (src.hi64() == dst.hi64()) return hops;  // same /64: on-link
  const std::uint64_t dst48 = dst.hi64() >> 16;
  const auto src_as = world_->as_index_of(src);
  const auto dst_as = world_->as_index_of(dst);

  auto add_router = [&](std::uint32_t as_index, std::uint64_t key) {
    const sim::AsInfo& as = world_->ases()[as_index];
    if (as.router_count == 0) return;
    const std::uint32_t r = pick_router(as, key);
    hops.push_back({world_->router_address(as_index, r, 1), true});
  };

  // Egress through the source AS.
  if (src_as) {
    add_router(*src_as, 0xe6e55 ^ dst48);
    const auto src_bb =
        backbone_of(world_->ases()[*src_as].country_index);
    if (src_bb && (!dst_as || *src_bb != *dst_as)) {
      add_router(*src_bb, 0xbb01 ^ dst48);
    }
  }
  if (!dst_as) return hops;  // falls off the edge; probe will die here

  // Ingress: destination country backbone, then the destination AS.
  const sim::AsInfo& das = world_->ases()[*dst_as];
  const auto dst_bb = backbone_of(das.country_index);
  if (dst_bb && *dst_bb != *dst_as &&
      (!src_as || *dst_bb != *src_as)) {
    add_router(*dst_bb, 0xbb02 ^ dst48);
  }
  if (!src_as || *src_as != *dst_as) {
    add_router(*dst_as, 0xed6e ^ dst48);  // AS edge
  }
  add_router(*dst_as, 0xc04e ^ dst48);  // AS core, nearer the target
  return hops;
}

std::optional<Hop> Topology::cpe_hop(const net::Ipv6Address& src,
                                     const net::Ipv6Address& dst,
                                     util::SimTime t) const {
  if (src.hi64() == dst.hi64()) return std::nullopt;  // on-link
  // Customer-site targets traverse the site's CPE last (the "network
  // periphery" hop that CPE-focused campaigns harvest). site_at is empty
  // for unrouted destinations.
  const auto site_id = world_->site_at(dst, t);
  if (!site_id) return std::nullopt;
  const sim::Site& site = world_->sites()[*site_id];
  if (site.cpe == sim::kNoDevice) return std::nullopt;
  const net::Ipv6Address cpe_addr = world_->device_address(site.cpe, t);
  if (cpe_addr == dst) return std::nullopt;
  return Hop{cpe_addr, world_->devices()[site.cpe].responds_icmp};
}

Path Topology::path(const net::Ipv6Address& src, const net::Ipv6Address& dst,
                    util::SimTime t) const {
  Path hops = routers(src, dst);
  if (const auto cpe = cpe_hop(src, dst, t)) hops.push_back(*cpe);
  return hops;
}

}  // namespace v6::netsim
