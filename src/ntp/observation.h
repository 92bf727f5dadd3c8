// One passive sighting: a vantage server answered an NTP poll and logged
// the client's source address — the paper's entire collection signal.
#pragma once

#include <cstdint>

#include "net/ipv6.h"
#include "util/sim_time.h"

namespace v6::ntp {

struct Observation {
  net::Ipv6Address client;
  util::SimTime time = 0;
  std::uint8_t vantage = 0;
};

}  // namespace v6::ntp
