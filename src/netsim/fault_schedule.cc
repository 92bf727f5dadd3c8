#include "netsim/fault_schedule.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace v6::netsim {

namespace {

// Locates the window active at t, or the most recent one that ended at or
// before t, via binary search on the sorted starts. Returns nullptr when t
// precedes every window.
const OutageWindow* latest_window(std::span<const OutageWindow> windows,
                                  util::SimTime t) noexcept {
  auto it = std::upper_bound(
      windows.begin(), windows.end(), t,
      [](util::SimTime v, const OutageWindow& w) { return v < w.start; });
  if (it == windows.begin()) return nullptr;
  return &*(it - 1);
}

}  // namespace

FaultSchedule::FaultSchedule(std::span<const sim::VantagePoint> vantages)
    : FaultSchedule(vantages.size()) {}

FaultSchedule::FaultSchedule(std::size_t lanes) { windows_.resize(lanes); }

FaultSchedule::FaultSchedule(std::span<const sim::VantagePoint> vantages,
                             const FaultPlanConfig& config,
                             util::SimTime plan_start, util::SimTime plan_end)
    : FaultSchedule(vantages) {
  slow_start_ = config.slow_start;
  seed_ = config.seed;
  if (plan_end <= plan_start) return;
  const auto span = static_cast<double>(plan_end - plan_start);

  for (const auto& v : vantages) {
    util::Rng rng(util::mix64(config.seed ^ 0xfa017a11u ^
                              util::mix64(static_cast<std::uint64_t>(v.id))));
    std::vector<OutageWindow>& out = windows_[v.id];

    // count = floor(mean) + Bernoulli(frac) keeps the per-vantage expected
    // number of windows exactly at the configured mean while staying
    // deterministic per seed.
    const auto draw_count = [&rng](double mean) -> std::uint32_t {
      if (mean <= 0.0) return 0;
      const double floor_part = std::floor(mean);
      auto n = static_cast<std::uint32_t>(floor_part);
      if (rng.chance(mean - floor_part)) ++n;
      return n;
    };

    const auto add = [&](util::SimDuration mean_len,
                         util::SimDuration min_len) {
      const auto start =
          plan_start + static_cast<util::SimDuration>(rng.uniform() * span);
      const double extra_mean =
          std::max(0.0, static_cast<double>(mean_len - min_len));
      auto len = min_len;
      if (extra_mean > 0.0) {
        len += static_cast<util::SimDuration>(rng.exponential(extra_mean));
      }
      out.push_back({start, std::min(plan_end, start + std::max<util::SimDuration>(1, len))});
    };

    const std::uint32_t outages = draw_count(config.outages_per_vantage);
    for (std::uint32_t i = 0; i < outages; ++i) {
      add(config.mean_outage, config.min_outage);
    }
    const std::uint32_t flaps = draw_count(config.flaps_per_vantage);
    for (std::uint32_t i = 0; i < flaps; ++i) {
      add(config.mean_flap, 1);
    }

    std::sort(out.begin(), out.end(),
              [](const OutageWindow& a, const OutageWindow& b) {
                return a.start < b.start;
              });
    // Merge overlapping / touching windows so the per-vantage list is
    // sorted and disjoint (the lookup helpers rely on this).
    std::vector<OutageWindow> merged;
    for (const auto& w : out) {
      if (!merged.empty() && w.start <= merged.back().end) {
        merged.back().end = std::max(merged.back().end, w.end);
      } else {
        merged.push_back(w);
      }
    }
    out = std::move(merged);
  }
}

bool FaultSchedule::in_outage(std::uint8_t vantage,
                              util::SimTime t) const noexcept {
  if (vantage >= windows_.size()) return false;
  const OutageWindow* w = latest_window(windows_[vantage], t);
  return w != nullptr && t < w->end;
}

bool FaultSchedule::delivers(std::uint8_t vantage, const net::Ipv6Address& src,
                             util::SimTime t) const noexcept {
  if (vantage >= windows_.size()) return true;
  const OutageWindow* w = latest_window(windows_[vantage], t);
  if (w == nullptr) return true;
  if (t < w->end) return false;  // dark
  if (slow_start_ <= 0 || t >= w->end + slow_start_) return true;
  // Slow-start ramp: serve a linearly growing fraction. The decision is a
  // pure hash of (plan seed, vantage, client, second) so every caller —
  // any shard, device part or resumed run — agrees without touching any
  // Rng.
  const double ramp = static_cast<double>(t - w->end) /
                      static_cast<double>(slow_start_);
  const std::uint64_t h = util::mix64(
      seed_ ^ 0x510057a7u ^ util::mix64(static_cast<std::uint64_t>(vantage)) ^
      util::mix64(src.hi64()) ^ util::mix64(src.lo64() ^
                                            static_cast<std::uint64_t>(t)));
  const double roll =
      static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform in [0, 1)
  return roll < ramp;
}

bool FaultSchedule::marked_down(std::uint8_t vantage, util::SimTime t,
                                util::SimDuration monitoring_delay)
    const noexcept {
  if (vantage >= windows_.size()) return false;
  // Marked down during [start + delay, end + delay): the monitor lags both
  // the crash and the recovery by the same detection delay.
  const OutageWindow* w =
      latest_window(windows_[vantage], t - monitoring_delay);
  return w != nullptr && t - monitoring_delay < w->end;
}

void FaultSchedule::add_window(std::uint8_t vantage, util::SimTime start,
                               util::SimTime end) {
  if (vantage >= windows_.size()) windows_.resize(vantage + 1u);
  windows_[vantage].push_back({start, end});
}

std::span<const OutageWindow> FaultSchedule::windows(
    std::uint8_t vantage) const noexcept {
  if (vantage >= windows_.size()) return {};
  return windows_[vantage];
}

// --- WorkerFaultSchedule ---------------------------------------------------

namespace {

// The dist layer keys lanes by uint32 worker ids; the base class's window
// store is uint8-keyed. Constructors reject wider fleets up front.
std::uint8_t lane(std::uint32_t worker) {
  return static_cast<std::uint8_t>(worker);
}

}  // namespace

WorkerFaultSchedule::WorkerFaultSchedule(std::uint32_t workers)
    : FaultSchedule(static_cast<std::size_t>(workers)),
      kill_at_(workers),
      slows_(workers) {
  if (workers > 255) {
    throw std::invalid_argument("WorkerFaultSchedule: at most 255 workers");
  }
}

WorkerFaultSchedule::WorkerFaultSchedule(std::uint32_t workers,
                                         const WorkerFaultPlanConfig& config,
                                         util::SimTime plan_start,
                                         util::SimTime plan_end)
    : WorkerFaultSchedule(workers) {
  if (plan_end <= plan_start) return;
  const auto span = static_cast<double>(plan_end - plan_start);
  for (std::uint32_t w = 0; w < workers; ++w) {
    util::Rng rng(util::mix64(config.seed ^ 0xd15fa017u ^
                              util::mix64(static_cast<std::uint64_t>(w))));
    // Same count scheme as the vantage plan: floor(mean) + Bernoulli(frac)
    // keeps the per-worker expectation exactly at the configured mean.
    const auto draw_count = [&rng](double mean) -> std::uint32_t {
      if (mean <= 0.0) return 0;
      const double floor_part = std::floor(mean);
      auto n = static_cast<std::uint32_t>(floor_part);
      if (rng.chance(mean - floor_part)) ++n;
      return n;
    };
    if (rng.chance(std::min(1.0, config.kills_per_worker))) {
      kill_at_[w] =
          plan_start + static_cast<util::SimDuration>(rng.uniform() * span);
    }
    const std::uint32_t stalls = draw_count(config.stalls_per_worker);
    std::vector<OutageWindow> stall_windows;
    for (std::uint32_t i = 0; i < stalls; ++i) {
      const auto start =
          plan_start + static_cast<util::SimDuration>(rng.uniform() * span);
      const auto len = std::max<util::SimDuration>(
          1, static_cast<util::SimDuration>(
                 rng.exponential(static_cast<double>(config.mean_stall))));
      stall_windows.push_back({start, std::min(plan_end, start + len)});
    }
    std::sort(stall_windows.begin(), stall_windows.end(),
              [](const OutageWindow& a, const OutageWindow& b) {
                return a.start < b.start;
              });
    util::SimTime last_end = plan_start;
    for (const auto& sw : stall_windows) {
      if (sw.start < last_end) continue;  // drop overlaps, keep order
      add_window(lane(w), sw.start, sw.end);
      last_end = sw.end;
    }
    const std::uint32_t slows = draw_count(config.slows_per_worker);
    std::vector<SlowWindow> slow_windows;
    for (std::uint32_t i = 0; i < slows; ++i) {
      const auto start =
          plan_start + static_cast<util::SimDuration>(rng.uniform() * span);
      const auto len = std::max<util::SimDuration>(
          1, static_cast<util::SimDuration>(
                 rng.exponential(static_cast<double>(config.mean_slow))));
      slow_windows.push_back(
          {start, std::min(plan_end, start + len), config.slow_factor});
    }
    std::sort(slow_windows.begin(), slow_windows.end(),
              [](const SlowWindow& a, const SlowWindow& b) {
                return a.start < b.start;
              });
    last_end = plan_start;
    for (const auto& sw : slow_windows) {
      if (sw.start < last_end) continue;
      slows_[w].push_back(sw);
      last_end = sw.end;
    }
  }
}

std::optional<util::SimTime> WorkerFaultSchedule::kill_at(
    std::uint32_t worker) const noexcept {
  if (worker >= kill_at_.size()) return std::nullopt;
  return kill_at_[worker];
}

bool WorkerFaultSchedule::stalled(std::uint32_t worker,
                                  util::SimTime t) const noexcept {
  return worker <= 255 && in_outage(lane(worker), t);
}

util::SimTime WorkerFaultSchedule::stall_end(std::uint32_t worker,
                                             util::SimTime t) const noexcept {
  if (worker > 255) return t;
  for (const OutageWindow& w : windows(lane(worker))) {
    if (t >= w.start && t < w.end) return w.end;
  }
  return t;
}

double WorkerFaultSchedule::cost_factor(std::uint32_t worker,
                                        util::SimTime t) const noexcept {
  if (worker >= slows_.size()) return 1.0;
  for (const SlowWindow& w : slows_[worker]) {
    if (t >= w.start && t < w.end) return std::max(1.0, w.factor);
  }
  return 1.0;
}

void WorkerFaultSchedule::set_kill(std::uint32_t worker, util::SimTime t) {
  if (worker >= kill_at_.size()) {
    kill_at_.resize(worker + 1u);
    slows_.resize(worker + 1u);
  }
  kill_at_[worker] = t;
}

void WorkerFaultSchedule::add_stall(std::uint32_t worker, util::SimTime start,
                                    util::SimTime end) {
  if (worker > 255) {
    throw std::invalid_argument("WorkerFaultSchedule: at most 255 workers");
  }
  if (worker >= kill_at_.size()) {
    kill_at_.resize(worker + 1u);
    slows_.resize(worker + 1u);
  }
  add_window(lane(worker), start, end);
}

void WorkerFaultSchedule::add_slow(std::uint32_t worker, util::SimTime start,
                                   util::SimTime end, double factor) {
  if (worker >= slows_.size()) {
    kill_at_.resize(worker + 1u);
    slows_.resize(worker + 1u);
  }
  slows_[worker].push_back({start, end, factor});
}

}  // namespace v6::netsim
