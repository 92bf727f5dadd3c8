// The NTP Pool's DNS round-robin with coarse geo-steering.
//
// pool.ntp.org resolves differently per client: the pool geolocates the
// resolver/client IP and returns servers near it, rotating among candidates
// (DNS round robin). This stand-in steers by the *IP-geolocation database's*
// country verdict — not ground truth — so MaxMind errors propagate into
// vantage assignment exactly as they would in production, then falls back
// to great-circle-nearest vantage countries.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "geo/country.h"
#include "net/ipv6.h"
#include "netsim/fault_schedule.h"
#include "obs/metrics.h"
#include "sim/world.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace v6::netsim {

class PoolDns {
 public:
  // `global_fraction` models the pool's global-zone fallback: that share
  // of queries is answered with a random worldwide server regardless of
  // client location (under-served regions lean on it heavily).
  // `vantage_share` is the probability a pool query lands on one of *our*
  // vantage servers at all: the pool has thousands of servers and ours
  // are a sliver of the rotation, so most polls are simply invisible to
  // the study. captured() decides that.
  explicit PoolDns(const sim::World& world, double global_fraction = 0.10,
                   double vantage_share = 1.0);

  // A pool query is resolved in two steps, drawing from the caller's
  // `rng` in a fixed order: captured() first, then — only if it returned
  // true — resolve(). The split lets a caller skip deriving the client's
  // address for the queries no vantage hears.
  //
  // Step one: does this query land on one of our vantages? Draws the
  // vantage-share roll (no draw at a share of 0 or 1) and does not depend
  // on the client. False when the pool has no vantage at all (empty
  // world).
  bool captured(util::Rng& rng) const noexcept {
    return !all_.empty() && rng.chance(vantage_share_);
  }

  // Step two, for a captured query at time t: picks one of the vantage
  // servers appropriate for the client's (IP-geolocated) country, with
  // round-robin rotation driven by `rng`. Returns nullptr only when the
  // pool has no vantage. Thread-safe: the steering table is materialized
  // at construction and read-only afterwards (collection shards resolve
  // concurrently), and all randomness comes from the caller's `rng`.
  //
  // Health-aware: a vantage whose crash the pool monitor has had
  // `monitoring_delay` to notice (see FaultSchedule::marked_down) is
  // removed from steering, so its share of polls redistributes across the
  // surviving candidates; it re-enters rotation `monitoring_delay` after
  // recovery. When the candidate list is entirely down the pick falls back
  // to any healthy vantage worldwide, and only if *every* vantage is
  // marked down does it answer from the unfiltered list (the real pool
  // never returns an empty answer while it has servers). `steered_away`,
  // when non-null, is set to true iff health filtering removed at least
  // one candidate from the consulted list. With no health monitor
  // attached (or none of the candidates down) `t` changes nothing.
  const sim::VantagePoint* resolve(const net::Ipv6Address& client,
                                   util::Rng& rng, util::SimTime t,
                                   bool* steered_away = nullptr) const;

  // Attaches the pool-monitoring view of a fault schedule. The schedule is
  // read-only and shared; pass nullptr to detach.
  void set_health_monitor(const FaultSchedule* faults,
                          util::SimDuration monitoring_delay) noexcept {
    health_ = faults;
    monitoring_delay_ = monitoring_delay;
  }

  // Wires steering counters into `registry` (nullptr detaches). Counter
  // increments are relaxed atomics, so concurrent const resolve() calls
  // stay race-free; the counters never feed back into steering decisions.
  void set_metrics(obs::Registry* registry);

  // The steering candidates for a country (exposed for tests): vantages in
  // the country itself if any, else those of the nearest vantage country.
  const std::vector<const sim::VantagePoint*>& candidates(
      geo::CountryCode country) const;

 private:
  const sim::VantagePoint* pick(
      const std::vector<const sim::VantagePoint*>& list, util::Rng& rng,
      util::SimTime t, bool* steered_away) const;

  const sim::World* world_;
  double global_fraction_;
  double vantage_share_;
  const FaultSchedule* health_ = nullptr;
  util::SimDuration monitoring_delay_ = 0;
  std::unordered_map<geo::CountryCode, std::vector<const sim::VantagePoint*>>
      by_country_;
  // Country (any known to the registry) -> steering candidates. Filled
  // for every registry country in the constructor so lookups never write
  // (concurrent resolve() calls would otherwise race on a lazy cache).
  std::unordered_map<geo::CountryCode,
                     std::vector<const sim::VantagePoint*>>
      steer_cache_;
  std::vector<const sim::VantagePoint*> all_;
  obs::Counter metric_resolutions_;
  obs::Counter metric_steer_flips_;
};

}  // namespace v6::netsim
