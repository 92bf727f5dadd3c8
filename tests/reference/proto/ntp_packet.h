// NTPv4 packet header (RFC 5905 §7.3) — the 48-byte wire format exchanged
// between NTP Pool clients and our stratum-2 vantage servers.
//
// The collector decides each poll from values; this codec is the wire
// reference it is checked against (tests/test_passive_collector.cpp): the
// client request, the server's mode check and its response (origin =
// client transmit, receive/transmit stamped from the simulated clock), and
// the client's validation of that response.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/sim_time.h"

namespace v6::proto {

// 64-bit NTP timestamp: seconds since the NTP era (1900) and binary
// fraction. The simulation maps SimTime second 0 to an arbitrary era offset.
struct NtpTimestamp {
  std::uint32_t seconds = 0;
  std::uint32_t fraction = 0;

  static constexpr std::uint32_t kSimEpochInNtpSeconds = 3851712000u;

  static NtpTimestamp from_sim_time(util::SimTime t,
                                    std::uint32_t fraction = 0) noexcept {
    return {static_cast<std::uint32_t>(
                static_cast<std::int64_t>(kSimEpochInNtpSeconds) + t),
            fraction};
  }
  util::SimTime to_sim_time() const noexcept {
    return static_cast<util::SimTime>(seconds) -
           static_cast<util::SimTime>(kSimEpochInNtpSeconds);
  }
  std::uint64_t to_u64() const noexcept {
    return (static_cast<std::uint64_t>(seconds) << 32) | fraction;
  }
  static NtpTimestamp from_u64(std::uint64_t v) noexcept {
    return {static_cast<std::uint32_t>(v >> 32),
            static_cast<std::uint32_t>(v)};
  }

  friend bool operator==(const NtpTimestamp&, const NtpTimestamp&) = default;
};

enum class NtpMode : std::uint8_t {
  kSymmetricActive = 1,
  kSymmetricPassive = 2,
  kClient = 3,
  kServer = 4,
  kBroadcast = 5,
};

struct NtpPacket {
  std::uint8_t leap_indicator = 0;  // 2 bits
  std::uint8_t version = 4;         // 3 bits
  NtpMode mode = NtpMode::kClient;  // 3 bits
  std::uint8_t stratum = 0;
  std::int8_t poll = 6;        // log2 seconds
  std::int8_t precision = -20;  // log2 seconds
  std::uint32_t root_delay = 0;       // 16.16 fixed point
  std::uint32_t root_dispersion = 0;  // 16.16 fixed point
  std::uint32_t reference_id = 0;
  NtpTimestamp reference_time;
  NtpTimestamp origin_time;
  NtpTimestamp receive_time;
  NtpTimestamp transmit_time;

  std::vector<std::uint8_t> encode() const;
  // nullopt on truncation or version outside 3..4.
  static std::optional<NtpPacket> decode(std::span<const std::uint8_t> data);

  friend bool operator==(const NtpPacket&, const NtpPacket&) = default;
};

// A minimal SNTP-style client request: mode 3, transmit stamped with `now`.
NtpPacket make_client_request(util::SimTime now, std::uint32_t nonce_fraction);

// Builds the server response per RFC 5905: copies the client's transmit
// timestamp into origin, stamps receive/transmit, and fills stratum and
// reference id of the answering server.
NtpPacket make_server_response(const NtpPacket& request, util::SimTime now,
                               std::uint8_t stratum,
                               std::uint32_t reference_id);

}  // namespace v6::proto
