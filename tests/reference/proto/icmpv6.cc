#include "proto/icmpv6.h"

#include "proto/internet_checksum.h"
#include "proto/ipv6_header.h"

namespace v6::proto {

std::vector<std::uint8_t> encode_icmpv6(const Icmpv6Message& msg,
                                        const net::Ipv6Address& src,
                                        const net::Ipv6Address& dst) {
  BufferWriter out;
  out.u8(static_cast<std::uint8_t>(msg.type));
  out.u8(msg.code);
  out.u16(0);  // checksum placeholder
  out.u32(msg.body);
  out.bytes(msg.payload);
  const std::uint16_t sum =
      pseudo_header_checksum(src, dst, kProtoIcmpv6, out.data());
  out.patch_u16(2, sum);
  return std::move(out).take();
}

std::optional<Icmpv6Message> decode_icmpv6(std::span<const std::uint8_t> data,
                                           const net::Ipv6Address& src,
                                           const net::Ipv6Address& dst) {
  if (data.size() < 8) return std::nullopt;
  // A datagram with a correct checksum sums (with the pseudo-header) to 0.
  if (pseudo_header_checksum(src, dst, kProtoIcmpv6, data) != 0) {
    return std::nullopt;
  }
  BufferReader in(data);
  Icmpv6Message msg;
  msg.type = static_cast<Icmpv6Type>(in.u8());
  msg.code = in.u8();
  in.u16();  // checksum, already verified
  msg.body = in.u32();
  msg.payload.resize(in.remaining());
  in.bytes(msg.payload);
  switch (msg.type) {
    case Icmpv6Type::kDestinationUnreachable:
    case Icmpv6Type::kTimeExceeded:
    case Icmpv6Type::kEchoRequest:
    case Icmpv6Type::kEchoReply:
      break;
    default:
      return std::nullopt;
  }
  return msg;
}

Icmpv6Message make_echo_request(std::uint16_t identifier,
                                std::uint16_t sequence,
                                std::vector<std::uint8_t> payload) {
  Icmpv6Message msg;
  msg.type = Icmpv6Type::kEchoRequest;
  msg.body = (static_cast<std::uint32_t>(identifier) << 16) | sequence;
  msg.payload = std::move(payload);
  return msg;
}

Icmpv6Message make_echo_reply(const Icmpv6Message& request) {
  Icmpv6Message msg = request;
  msg.type = Icmpv6Type::kEchoReply;
  return msg;
}

Icmpv6Message make_time_exceeded(std::vector<std::uint8_t> invoking_excerpt) {
  Icmpv6Message msg;
  msg.type = Icmpv6Type::kTimeExceeded;
  msg.code = 0;  // hop limit exceeded in transit
  msg.payload = std::move(invoking_excerpt);
  return msg;
}

}  // namespace v6::proto
