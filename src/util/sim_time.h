// Simulated time.
//
// The study runs on a virtual clock measured in seconds since the simulated
// epoch (2022-01-25T00:00:00Z in study terms, but the library only needs
// relative arithmetic). Library code never consults the wall clock.
#pragma once

#include <cstdint>
#include <string>

namespace v6::util {

// Seconds since the simulation epoch.
using SimTime = std::int64_t;
// Difference between two SimTime values, in seconds.
using SimDuration = std::int64_t;

inline constexpr SimDuration kSecond = 1;
inline constexpr SimDuration kMinute = 60;
inline constexpr SimDuration kHour = 3600;
inline constexpr SimDuration kDay = 86400;
inline constexpr SimDuration kWeek = 7 * kDay;
// Paper durations are quoted in calendar months; 30 days is close enough for
// bucketing lifetimes.
inline constexpr SimDuration kMonth = 30 * kDay;

// A sim-time grid origin + k * interval (k >= 0, interval > 0): the
// boundaries of checkpoints, timeline samples, serving epochs and spill
// barriers. One rule, so every grid rounds the same way.
struct SimGrid {
  SimTime origin = 0;
  SimDuration interval = 1;

  // First grid point strictly after `t` (the origin for any t < origin).
  constexpr SimTime next_after(SimTime t) const noexcept {
    if (t < origin) return origin;
    return origin + ((t - origin) / interval + 1) * interval;
  }
  // True when `t` lies exactly on the grid.
  constexpr bool contains(SimTime t) const noexcept {
    return t >= origin && (t - origin) % interval == 0;
  }
};

// "0s", "90s", "12m", "3h", "2d", "5w" — coarse human form for figure axes.
std::string format_duration(SimDuration d);

}  // namespace v6::util
