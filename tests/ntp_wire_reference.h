// NTP wire reference for the collector tests.
//
// The collector decides every poll attempt from values. This reference runs
// the same polls as bytes through the proto:: codecs, the way the client
// and server stacks would: the RFC 5905 client request travels as a
// checksummed UDP datagram to port 123, the fault plan decides whether the
// server gets it, the server decodes the request, checks its mode, logs the
// source address and answers, and the answer travels back for the client
// to check (server mode, origin echoing its transmit time). Lossless. Each
// attempt's two device-stream draws become the request's nonce and the
// client's ephemeral source port.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hitlist/corpus.h"
#include "hitlist/passive_collector.h"
#include "netsim/fault_schedule.h"
#include "netsim/pool_dns.h"
#include "ntp/client_schedule.h"
#include "proto/ntp_packet.h"
#include "proto/udp.h"
#include "sim/world.h"
#include "util/rng.h"

namespace v6::hitlist::wire_reference {

// A stratum-2 vantage server: answers an NTP client request per RFC 5905
// and ignores every other payload (undecodable bytes, non-client modes).
inline std::optional<std::vector<std::uint8_t>> ntp_serve(
    const sim::VantagePoint& vantage, std::span<const std::uint8_t> payload,
    util::SimTime t) {
  const auto received = proto::NtpPacket::decode(payload);
  if (!received || received->mode != proto::NtpMode::kClient) {
    return std::nullopt;
  }
  return proto::make_server_response(*received, t, /*stratum=*/2,
                                     0x56500000u | vantage.id)
      .encode();
}

// One poll attempt as bytes. Calls `log` when the server serves the
// request; returns whether the client accepted an answer. A null `faults`
// delivers every request.
template <typename Log>
bool wire_poll(const sim::VantagePoint& vantage,
               const net::Ipv6Address& client, util::SimTime t,
               std::uint64_t r1, std::uint64_t r2,
               const netsim::FaultSchedule* faults, Log&& log) {
  const proto::NtpPacket request =
      proto::make_client_request(t, static_cast<std::uint32_t>(r1));
  const auto src_port = static_cast<std::uint16_t>(49152 + (r2 >> 50));
  const auto wire = proto::encode_udp(
      {src_port, proto::kNtpPort, request.encode()}, client, vantage.address);

  // Server side.
  const auto datagram = proto::decode_udp(wire, client, vantage.address);
  if (!datagram || datagram->dst_port != proto::kNtpPort) return false;
  if (faults != nullptr && !faults->delivers(vantage.id, client, t)) {
    return false;
  }
  const auto response = ntp_serve(vantage, datagram->payload, t);
  if (!response) return false;
  log(client, t);
  const auto back = proto::encode_udp(
      {proto::kNtpPort, datagram->src_port, *response}, vantage.address,
      client);

  // Client side.
  const auto reply = proto::decode_udp(back, vantage.address, client);
  if (!reply || reply->dst_port != src_port) return false;
  const auto answer = proto::NtpPacket::decode(reply->payload);
  return answer && answer->mode == proto::NtpMode::kServer &&
         answer->origin_time == request.transmit_time;
}

struct WireCollection {
  Corpus corpus{1 << 12};
  std::uint64_t attempted = 0;  // attempts sent to a study vantage
  std::uint64_t answered = 0;
};

// The collector's enumeration, serial and device by device: each device's
// seeded stream and poll schedule, the pool's capture and steering draws,
// bursts and retries — with every attempt sent through wire_poll. Callers
// use worlds without AS outages, so the collector's outage gate never
// fires and the reference leaves it out.
inline WireCollection wire_collect(const sim::World& world,
                                   const netsim::PoolDns& dns,
                                   const netsim::FaultSchedule* faults,
                                   const CollectorConfig& config,
                                   util::SimTime start, util::SimTime end) {
  WireCollection out;
  for (const sim::Device& dev : world.devices()) {
    if (!dev.ntp.uses_pool) continue;
    util::Rng rng(
        util::mix64(config.seed ^ 0xc0111ec7 ^ util::mix64(dev.seed)));
    ntp::ClientSchedule(dev, start, end).for_each([&](util::SimTime t) {
      if (!dns.captured(rng)) return;
      const net::Ipv6Address client = world.device_address(dev.id, t);
      const sim::VantagePoint* vantage = dns.resolve(client, rng, t);
      const auto log = [&](const net::Ipv6Address& from, util::SimTime when) {
        out.corpus.add(from, when, vantage->id);
      };
      for (std::uint8_t k = 0; k < std::max<std::uint8_t>(dev.ntp.burst, 1);
           ++k) {
        for (std::uint32_t attempt = 0; attempt <= config.retry_limit;
             ++attempt) {
          const util::SimTime tj =
              t + 2 * k +
              config.retry_backoff *
                  ((util::SimDuration{1} << attempt) - 1);
          if (tj >= end) break;
          ++out.attempted;
          const std::uint64_t r1 = rng.next();
          const std::uint64_t r2 = rng.next();
          if (wire_poll(*vantage, client, tj, r1, r2, faults, log)) {
            ++out.answered;
            break;
          }
        }
      }
    });
  }
  return out;
}

}  // namespace v6::hitlist::wire_reference
