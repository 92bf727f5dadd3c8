#include "scan/yarrp.h"

#include <algorithm>
#include <unordered_set>

#include "sim/feistel.h"
#include "util/rng.h"

namespace v6::scan {

YarrpTracer::YarrpTracer(netsim::DataPlane& plane, const YarrpConfig& config)
    : plane_(&plane), config_(config) {
  if (config_.metrics != nullptr) {
    metric_probes_ =
        config_.metrics->counter("v6_scan_probes_total", "Probes emitted",
                                 {{"scanner", "yarrp"}});
    metric_responses_ = config_.metrics->counter(
        "v6_scan_responsive_total", "Probes a live target answered",
        {{"scanner", "yarrp"}});
  }
}

std::vector<TraceResult> YarrpTracer::trace(
    std::span<const net::Ipv6Address> targets, util::SimTime t0) {
  std::vector<TraceResult> results(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    results[i].target = targets[i];
    results[i].hops.assign(config_.max_hops, net::Ipv6Address{});
    results[i].hop_responded.assign(config_.max_hops, false);
  }
  // A target's router hops do not depend on time: compute them once per
  // trace instead of once per probe. The time-dependent CPE hop is left to
  // the plane, for the probe whose TTL reaches it.
  std::vector<netsim::Path> routes;
  routes.reserve(targets.size());
  for (const auto& target : targets) {
    routes.push_back(plane_->topology().routers(config_.source, target));
  }

  const std::uint64_t space =
      targets.size() * static_cast<std::uint64_t>(config_.max_hops);
  // Probe the (target, ttl) space in a keyed pseudo-random permutation —
  // Yarrp's signature randomization, which spreads load across paths.
  const sim::FeistelPermutation order(space ? space : 1,
                                      config_.seed ^ 0x9a44b);
  const std::uint64_t rate = config_.probe_rate ? config_.probe_rate : 1;
  // Probe indices come from the permutation a chunk at a time
  // (apply_batch is bit-identical to per-index apply, so the probe
  // schedule — and every trace — is unchanged).
  constexpr std::uint64_t kChunk = 1024;
  std::uint64_t ks[kChunk];
  std::uint64_t probe_indices[kChunk];
  for (std::uint64_t base = 0; base < space; base += kChunk) {
    const std::uint64_t n = std::min(kChunk, space - base);
    for (std::uint64_t i = 0; i < n; ++i) ks[i] = base + i;
    order.apply_batch(ks, n, probe_indices);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t k = base + i;
      const std::uint64_t probe_index = probe_indices[i];
      const std::size_t ti = probe_index / config_.max_hops;
      const auto ttl = static_cast<std::uint8_t>(
          1 + probe_index % config_.max_hops);
      const util::SimTime t = t0 + static_cast<util::SimTime>(k / rate);
      // State rides in ident/seq so responses need no lookup table.
      const auto ident = static_cast<std::uint16_t>(
          util::mix64(targets[ti].lo64() ^ config_.seed));
      ++sent_;
      metric_probes_.inc();
      const auto result = plane_->hop_limited_echo(
          routes[ti], config_.source, targets[ti], ttl, ident, ttl, t);
      switch (result.kind) {
        case netsim::ProbeResult::Kind::kTimeExceeded:
          results[ti].hops[ttl - 1] = result.responder;
          results[ti].hop_responded[ttl - 1] = true;
          metric_responses_.inc();
          break;
        case netsim::ProbeResult::Kind::kEchoReply:
          results[ti].destination_reached = true;
          metric_responses_.inc();
          break;
        case netsim::ProbeResult::Kind::kTimeout:
          break;
      }
    }
  }
  return results;
}

std::vector<net::Ipv6Address> YarrpTracer::discovered(
    std::span<const TraceResult> results) {
  std::unordered_set<net::Ipv6Address> seen;
  for (const auto& r : results) {
    for (std::size_t h = 0; h < r.hops.size(); ++h) {
      if (r.hop_responded[h]) seen.insert(r.hops[h]);
    }
    if (r.destination_reached) seen.insert(r.target);
  }
  std::vector<net::Ipv6Address> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace v6::scan
