// Deterministic vantage-server fault injection.
//
// The paper's 27 stratum-2 vantage servers sat in the NTP Pool for seven
// months — long enough for real machines to crash, flap, and get yanked
// from rotation by the pool's health monitoring. FaultSchedule models that
// churn the same way sim::World models eyeball-AS outages: a seeded,
// precomputed plan that is a *pure function of time*, so every collection
// shard, device part and crashed-and-resumed run sees the exact same
// failures.
//
// Per vantage the plan holds sorted, disjoint outage windows [start, end).
// While inside a window the server is dark: polls to it vanish. After a
// window ends the server restarts into a slow-start ramp of length
// `slow_start`, during which it answers a linearly growing fraction of
// requests — the decision for a given (vantage, client, second) is a pure
// hash, not an Rng draw, so it never perturbs any caller's RNG stream.
//
// The collector consults delivers() for every poll attempt (a faulted
// attempt is lost before the server logs it). PoolDns consumes the same
// plan through marked_down(): the real pool's monitoring takes a while to
// notice a dead server, so a vantage only leaves steering
// `monitoring_delay` after the crash, and re-enters steering
// `monitoring_delay` after recovery.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/ipv6.h"
#include "sim/world.h"
#include "util/sim_time.h"

namespace v6::netsim {

struct FaultPlanConfig {
  std::uint64_t seed = 13;
  // Expected number of crash windows per vantage over the plan window.
  double outages_per_vantage = 0.0;
  util::SimDuration mean_outage = 6 * util::kHour;
  util::SimDuration min_outage = 10 * util::kMinute;
  // Short blips (seconds-to-minutes), on top of the crash windows.
  double flaps_per_vantage = 0.0;
  util::SimDuration mean_flap = 90;
  // Post-recovery ramp during which the server answers a linearly
  // growing fraction of requests. 0 disables slow start.
  util::SimDuration slow_start = 20 * util::kMinute;

  bool active() const noexcept {
    return outages_per_vantage > 0.0 || flaps_per_vantage > 0.0;
  }
};

struct OutageWindow {
  util::SimTime start = 0;
  util::SimTime end = 0;  // exclusive
};

class FaultSchedule {
 public:
  // Empty plan (no faults); useful for tests that inject windows by hand.
  explicit FaultSchedule(std::span<const sim::VantagePoint> vantages);

  // Generates the seeded plan over [plan_start, plan_end).
  FaultSchedule(std::span<const sim::VantagePoint> vantages,
                const FaultPlanConfig& config, util::SimTime plan_start,
                util::SimTime plan_end);

  // True while the vantage is inside a crash window (completely dark).
  bool in_outage(std::uint8_t vantage, util::SimTime t) const noexcept;

  // Whether a request from `src` arriving at the vantage at time t gets
  // served. False during outages; probabilistic (pure hash of
  // vantage/src/t) during the slow-start ramp; true otherwise.
  bool delivers(std::uint8_t vantage, const net::Ipv6Address& src,
                util::SimTime t) const noexcept;

  // Pool-monitoring view: the vantage is out of steering once the monitor
  // has had `monitoring_delay` to notice the crash, and returns to
  // steering `monitoring_delay` after the crash window ends.
  bool marked_down(std::uint8_t vantage, util::SimTime t,
                   util::SimDuration monitoring_delay) const noexcept;

  // Test/bench hook: append a window by hand. Windows must be added in
  // chronological order per vantage and must not overlap.
  void add_window(std::uint8_t vantage, util::SimTime start,
                  util::SimTime end);

  std::span<const OutageWindow> windows(std::uint8_t vantage) const noexcept;
  std::size_t vantage_count() const noexcept { return windows_.size(); }
  util::SimDuration slow_start() const noexcept { return slow_start_; }

 protected:
  // Subclass hook (WorkerFaultSchedule): an empty plan with `lanes` fault
  // lanes.
  explicit FaultSchedule(std::size_t lanes);

 private:
  std::vector<std::vector<OutageWindow>> windows_;  // indexed by vantage id
  util::SimDuration slow_start_ = 0;
  std::uint64_t seed_ = 0;
};

// --- Worker-level faults (distributed collection) --------------------------
//
// A worker process dying mid-chunk is just a bigger vantage fault: the same
// seeded, precomputed, pure-function-of-time plan, one lane per worker
// instead of per vantage. WorkerFaultSchedule extends FaultSchedule — the
// base class's sorted-window machinery holds the *stall* windows (a stalled
// worker is alive but silent: it misses heartbeats and its lease may be
// revoked under it) — and layers two worker-specific kinds on top:
//
//   * kills — permanent process death at a seeded (or forced) instant; a
//     killed worker never speaks again (the coordinator detects it by
//     heartbeat silence and reassigns its chunk lease);
//   * slows — windows during which the worker processes chunks at
//     cost_factor x the normal rate (heartbeats arrive late but in time).
//
// All times are on the cluster clock the dist layer runs on (sim seconds
// in the in-process simulation). Lanes are keyed by worker id and share
// the base class's uint8-sized key space: at most 255 workers, an order
// of magnitude past the paper's 27 VPSes.

struct WorkerFaultPlanConfig {
  std::uint64_t seed = 29;
  // Probability (clamped to [0, 1]) that a worker is killed somewhere in
  // the plan window; at most one kill per worker — death is permanent.
  double kills_per_worker = 0.0;
  // Expected stall windows per worker (heartbeat silence, then recovery).
  double stalls_per_worker = 0.0;
  util::SimDuration mean_stall = 30 * util::kMinute;
  // Expected slow windows per worker, and how much slower chunks get.
  double slows_per_worker = 0.0;
  util::SimDuration mean_slow = util::kHour;
  double slow_factor = 4.0;

  bool active() const noexcept {
    return kills_per_worker > 0.0 || stalls_per_worker > 0.0 ||
           slows_per_worker > 0.0;
  }
};

class WorkerFaultSchedule : public FaultSchedule {
 public:
  // Empty plan (healthy fleet); tests and the CLI inject faults by hand.
  explicit WorkerFaultSchedule(std::uint32_t workers);

  // Seeded plan over [plan_start, plan_end).
  WorkerFaultSchedule(std::uint32_t workers,
                      const WorkerFaultPlanConfig& config,
                      util::SimTime plan_start, util::SimTime plan_end);

  std::uint32_t worker_count() const noexcept {
    return static_cast<std::uint32_t>(kill_at_.size());
  }

  // The instant the worker's process dies, if the plan kills it. Workers
  // beyond the plan (respawned replacements) are never killed.
  std::optional<util::SimTime> kill_at(std::uint32_t worker) const noexcept;

  // True while the worker is inside a stall window (alive but silent).
  bool stalled(std::uint32_t worker, util::SimTime t) const noexcept;
  // End of the stall window containing t (t itself when not stalled).
  util::SimTime stall_end(std::uint32_t worker, util::SimTime t) const noexcept;

  // Chunk-processing cost multiplier at t: 1.0 when healthy,
  // config.slow_factor inside a slow window.
  double cost_factor(std::uint32_t worker, util::SimTime t) const noexcept;

  // Test/CLI hooks. set_kill overwrites any planned kill; add_stall and
  // add_slow windows must be appended in chronological order per worker.
  void set_kill(std::uint32_t worker, util::SimTime t);
  void add_stall(std::uint32_t worker, util::SimTime start, util::SimTime end);
  void add_slow(std::uint32_t worker, util::SimTime start, util::SimTime end,
                double factor);

 private:
  struct SlowWindow {
    util::SimTime start = 0;
    util::SimTime end = 0;
    double factor = 1.0;
  };

  std::vector<std::optional<util::SimTime>> kill_at_;  // indexed by worker id
  std::vector<std::vector<SlowWindow>> slows_;
};

}  // namespace v6::netsim
