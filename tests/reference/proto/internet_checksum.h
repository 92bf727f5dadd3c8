// RFC 1071 Internet checksum and the IPv6 pseudo-header variant used by
// ICMPv6 (RFC 4443 §2.3) and UDP over IPv6 (RFC 8200 §8.1).
#pragma once

#include <cstdint>
#include <span>

#include "net/ipv6.h"

namespace v6::proto {

// One's-complement sum of 16-bit words (odd trailing byte padded with zero),
// final complement applied. Returns the checksum in host order.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept;

// Checksum of `payload` prefixed by the IPv6 pseudo-header
// (src, dst, upper-layer length, next header).
std::uint16_t pseudo_header_checksum(const net::Ipv6Address& src,
                                     const net::Ipv6Address& dst,
                                     std::uint8_t next_header,
                                     std::span<const std::uint8_t> payload)
    noexcept;

}  // namespace v6::proto
