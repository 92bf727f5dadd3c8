#include "hitlist/campaigns.h"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "scan/target_gen.h"
#include "scan/yarrp.h"
#include "scan/zmap6.h"
#include "util/rng.h"

namespace v6::hitlist {

namespace {

// Synthetic "public sources": addresses the campaign can learn without
// probing. Servers published in DNS, a slice of CPE WAN addresses visible
// through reverse DNS, and rDNS-named router interfaces.
std::vector<net::Ipv6Address> public_source_addresses(
    const sim::World& world, util::SimTime t, double rdns_cpe_fraction,
    double client_fraction) {
  std::vector<net::Ipv6Address> out = world.dns_seed_addresses();
  const auto fraction_hits = [](double fraction, std::uint64_t h) {
    return h < static_cast<std::uint64_t>(
                   fraction >= 1.0 ? ~std::uint64_t{0} : fraction * 0x1p64);
  };
  for (const auto& site : world.sites()) {
    if (site.cpe == sim::kNoDevice) continue;
    const sim::Device& cpe = world.devices()[site.cpe];
    if (fraction_hits(rdns_cpe_fraction, util::mix64(cpe.seed ^ 0x4d45))) {
      out.push_back(world.device_address(site.cpe, t));
    }
  }
  // Crowdsourced / log-derived client sightings: ephemeral end-host
  // addresses that no probe would ever guess. Re-rolled per snapshot
  // (different users show up in the feeds each week).
  for (const auto& dev : world.devices()) {
    if (dev.kind == sim::DeviceKind::kCpe ||
        dev.kind == sim::DeviceKind::kServer) {
      continue;
    }
    // Panel/log feeds skew toward devices the NTP study never sees (their
    // time sync uses vendor servers), which is why the paper found the
    // datasets nearly disjoint.
    if (dev.ntp.uses_pool) continue;
    if (fraction_hits(client_fraction,
                      util::mix64(dev.seed ^ 0xc10bd ^
                                  static_cast<std::uint64_t>(t)))) {
      out.push_back(world.device_address(dev.id, t));
    }
  }
  for (std::uint32_t ai = 0; ai < world.ases().size(); ++ai) {
    const sim::AsInfo& as = world.ases()[ai];
    for (std::uint32_t r = 0; r < as.router_count; ++r) {
      if (util::mix64(as.seed ^ 0x4d46 ^ r) % 16 == 0) {
        out.push_back(world.router_address(ai, r, 1));
      }
    }
  }
  return out;
}

// The campaign's vantage: the first world vantage point (a cloud VM), or a
// fixed well-known address in an empty world.
net::Ipv6Address campaign_source(const sim::World& world) {
  if (!world.vantages().empty()) return world.vantages().front().address;
  return net::Ipv6Address::from_u64(0x2001067c00000000ULL, 0x1);
}

}  // namespace

HitlistResult run_hitlist_campaign(const sim::World& world,
                                   netsim::DataPlane& plane,
                                   const HitlistCampaignConfig& config) {
  HitlistResult result;
  util::Rng rng(util::mix64(config.seed ^ 0x6175));
  const net::Ipv6Address source = campaign_source(world);

  std::unordered_set<net::Ipv6Address> known;          // published addrs
  std::unordered_set<net::Ipv6Prefix> active64, active48;
  std::unordered_set<net::Ipv6Prefix> aliased_set, alias_checked;
  std::vector<net::Ipv6Prefix> aliased_list;
  // Aliased /64s seen per /48: two siblings trigger testing the /48.
  std::unordered_map<net::Ipv6Prefix, int> aliased64_per_48;

  // BGP-driven alias detection: sample /48s under every routed /32 and,
  // where several siblings in one /36 test aliased, test (and publish) the
  // covering /36 itself. This is how whole CGN/CDN regions end up on the
  // Hitlist's aliased-prefix list.
  {
    AliasDetector detector(plane, {source, 8, 8, rng.next()});
    constexpr int kSamplesPerPrefix = 64;
    for (const auto& as : world.ases()) {
      std::array<int, 16> hits_per_region{};
      std::vector<net::Ipv6Prefix> found48s;
      for (int k = 0; k < kSamplesPerPrefix; ++k) {
        const std::uint64_t s48 =
            util::mix64(config.seed ^ as.prefix_hi ^
                        static_cast<std::uint64_t>(k) * 0x9e3779b9ULL) &
            0xffff;
        const net::Ipv6Prefix p48(
            net::Ipv6Address::from_u64(as.prefix_hi | (s48 << 16), 0), 48);
        if (detector.is_aliased(p48, config.start)) {
          ++hits_per_region[s48 >> 12];
          found48s.push_back(p48);
        }
      }
      for (int region = 0; region < 16; ++region) {
        if (hits_per_region[region] < 2) continue;
        const net::Ipv6Prefix p36(
            net::Ipv6Address::from_u64(
                as.prefix_hi | (static_cast<std::uint64_t>(region) << 28), 0),
            36);
        if (detector.is_aliased(p36, config.start)) {
          aliased_set.insert(p36);
          aliased_list.push_back(p36);
          // The /48s are subsumed by the /36.
          std::erase_if(found48s, [&](const net::Ipv6Prefix& p) {
            return p36.contains(p);
          });
        }
      }
      for (const auto& p48 : found48s) {
        aliased_set.insert(p48);
        aliased_list.push_back(p48);
      }
    }
  }

  // Aliased prefixes are published at /64, /48 or /36; membership checks
  // truncate to those three lengths.
  const auto in_aliased = [&aliased_set](const net::Ipv6Address& a) {
    return aliased_set.contains(net::Ipv6Prefix(a, 64)) ||
           aliased_set.contains(net::Ipv6Prefix(a, 48)) ||
           aliased_set.contains(net::Ipv6Prefix(a, 36));
  };

  const util::SimTime end = config.start + config.duration;
  for (util::SimTime snap = config.start; snap < end;
       snap += config.snapshot_interval) {
    ++result.snapshots;
    scan::Zmap6Scanner zmap(plane,
                            {source, 100000, 0, rng.next(),
                             scan::ProbeProtocol::kIcmpv6Echo, config.metrics});
    scan::YarrpTracer yarrp(
        plane,
        {source, config.yarrp_max_hops, 50000, rng.next(), config.metrics});

    // Re-verify previously published addresses: each weekly release
    // contains what is *still* responsive, so records keep fresh
    // last-seen timestamps (Fig 5 compares against such a snapshot).
    if (!known.empty()) {
      std::vector<net::Ipv6Address> recheck(known.begin(), known.end());
      for (const auto& rec : zmap.scan(recheck, snap)) {
        if (rec.responded) result.corpus.add(rec.target, snap);
      }
    }

    // Frontier: public sources plus TGA expansion of known structure.
    std::vector<net::Ipv6Address> frontier = public_source_addresses(
        world, snap, config.rdns_cpe_fraction,
        config.crowdsourced_client_fraction);
    if (snap == config.start && config.routed_seed_fraction > 0.0) {
      const auto routed = scan::routed_slash48_targets(
          world, config.routed_seed_fraction, config.seed ^ 0xb69);
      frontier.insert(frontier.end(), routed.begin(), routed.end());
    }
    {
      std::vector<net::Ipv6Prefix> v64(active64.begin(), active64.end());
      std::vector<net::Ipv6Prefix> v48(active48.begin(), active48.end());
      const auto low_iids = scan::low_iid_candidates(v64);
      frontier.insert(frontier.end(), low_iids.begin(), low_iids.end());
      const auto sweeps = scan::subnet_sweep_candidates(v48, 16);
      frontier.insert(frontier.end(), sweeps.begin(), sweeps.end());
    }
    if (frontier.size() > config.max_frontier) {
      rng.shuffle(frontier);
      frontier.resize(config.max_frontier);
    }

    for (std::uint32_t iteration = 0; iteration < config.tga_iterations;
         ++iteration) {
      if (frontier.empty()) break;
      std::vector<net::Ipv6Address> found;

      // ZMap the frontier: ICMPv6 first, then TCP 443 and 80 against the
      // silent remainder (the Hitlist probes multiple protocols; TCP
      // reaches ICMP-silent servers and RST-ing hosts).
      std::vector<net::Ipv6Address> silent;
      for (const auto& rec : zmap.scan(frontier, snap)) {
        (rec.responded ? found : silent)
            .push_back(rec.target);
      }
      for (const auto protocol :
           {scan::ProbeProtocol::kTcpSyn443, scan::ProbeProtocol::kTcpSyn80}) {
        if (silent.empty()) break;
        scan::Zmap6Scanner tcp_zmap(
            plane, {source, 100000, 0, rng.next(), protocol, config.metrics});
        std::vector<net::Ipv6Address> still_silent;
        for (const auto& rec : tcp_zmap.scan(silent, snap)) {
          (rec.responded ? found : still_silent).push_back(rec.target);
        }
        silent = std::move(still_silent);
        result.probes_sent += tcp_zmap.probes_sent();
      }
      // Yarrp a sample: traces harvest periphery (CPE) and core routers.
      std::vector<net::Ipv6Address> trace_targets;
      for (const auto& target : frontier) {
        if (rng.chance(config.trace_fraction)) trace_targets.push_back(target);
      }
      const auto traces = yarrp.trace(trace_targets, snap);
      for (const auto& addr : scan::YarrpTracer::discovered(traces)) {
        found.push_back(addr);
      }

      // Alias filtering on newly active /64s, then publication.
      std::vector<net::Ipv6Address> next_frontier;
      for (const auto& addr : found) {
        const auto p64 = net::slash64_of(addr);
        if (in_aliased(addr)) continue;
        if (alias_checked.insert(p64).second) {
          AliasDetector detector(
              plane, {source, 8, 8, rng.next()});
          if (detector.is_aliased(p64, snap)) {
            aliased_set.insert(p64);
            aliased_list.push_back(p64);
            // Aggregate upward: sibling aliased /64s suggest the whole
            // /48 is aliased; verify and publish the aggregate.
            const auto p48 = net::slash48_of(addr);
            if (++aliased64_per_48[p48] == 2 &&
                !aliased_set.contains(p48) &&
                detector.is_aliased(p48, snap)) {
              aliased_set.insert(p48);
              aliased_list.push_back(p48);
            }
            continue;
          }
        }
        if (known.insert(addr).second) {
          result.corpus.add(addr, snap);
          if (active64.insert(p64).second) {
            // Fresh /64: fodder for the next TGA round.
            for (const auto& cand :
                 scan::low_iid_candidates(std::span(&p64, 1))) {
              next_frontier.push_back(cand);
            }
          }
          active48.insert(net::slash48_of(addr));
        }
      }
      frontier = std::move(next_frontier);
      if (frontier.size() > config.max_frontier) {
        rng.shuffle(frontier);
        frontier.resize(config.max_frontier);
      }
    }
    result.probes_sent += zmap.probes_sent() + yarrp.probes_sent();
    if (config.sampler != nullptr) {
      config.sampler->sample(
          std::min<util::SimTime>(snap + config.snapshot_interval, end),
          "campaigns");
    }
  }

  std::sort(aliased_list.begin(), aliased_list.end());
  aliased_list.erase(std::unique(aliased_list.begin(), aliased_list.end()),
                     aliased_list.end());
  result.aliased_prefixes = std::move(aliased_list);

  // Retro-filter: alias knowledge accumulates across snapshots, so an
  // address published early can later turn out to lie inside an aliased
  // aggregate. The published responsive list never contains such
  // artifacts (the real Hitlist re-filters every snapshot the same way).
  Corpus filtered(result.corpus.size());
  for (const auto& rec : result.corpus.records()) {
    if (!in_aliased(rec.address)) filtered.add_record(rec);
  }
  result.corpus = std::move(filtered);
  return result;
}

CaidaResult run_caida_campaign(const sim::World& world,
                               netsim::DataPlane& plane,
                               const CaidaCampaignConfig& config) {
  CaidaResult result;
  const net::Ipv6Address source = campaign_source(world);
  auto targets = scan::routed_slash48_targets(world, config.slash48_fraction,
                                              config.seed);
  if (targets.empty()) return result;

  // Spread traces uniformly across the campaign window; Yarrp advances
  // time with its probe rate, so chunk the target list per day.
  const auto days = std::max<util::SimDuration>(
      1, config.duration / util::kDay);
  const std::size_t per_day =
      (targets.size() + static_cast<std::size_t>(days) - 1) /
      static_cast<std::size_t>(days);
  std::size_t offset = 0;
  for (util::SimDuration day = 0; day < days && offset < targets.size();
       ++day) {
    const std::size_t n = std::min(per_day, targets.size() - offset);
    scan::YarrpTracer yarrp(
        plane,
        {source, config.max_hops, 50000,
         config.seed ^ (0x471ULL + static_cast<std::uint64_t>(day)),
         config.metrics});
    const std::span<const net::Ipv6Address> chunk(targets.data() + offset, n);
    const util::SimTime t0 = config.start + day * util::kDay;
    const auto traces = yarrp.trace(chunk, t0);
    result.traces += traces.size();
    for (const auto& addr : scan::YarrpTracer::discovered(traces)) {
      result.corpus.add(addr, t0);
    }
    result.probes_sent += yarrp.probes_sent();
    offset += n;
  }
  return result;
}

}  // namespace v6::hitlist
