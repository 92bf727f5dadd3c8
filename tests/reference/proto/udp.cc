#include "proto/udp.h"

#include "proto/internet_checksum.h"
#include "proto/ipv6_header.h"

namespace v6::proto {

std::vector<std::uint8_t> encode_udp(const UdpDatagram& datagram,
                                     const net::Ipv6Address& src,
                                     const net::Ipv6Address& dst) {
  BufferWriter out;
  out.u16(datagram.src_port);
  out.u16(datagram.dst_port);
  out.u16(static_cast<std::uint16_t>(8 + datagram.payload.size()));
  out.u16(0);  // checksum placeholder
  out.bytes(datagram.payload);
  std::uint16_t sum = pseudo_header_checksum(src, dst, kProtoUdp, out.data());
  // RFC 8200: a computed checksum of zero is transmitted as 0xffff (zero
  // means "no checksum", which is forbidden over IPv6).
  if (sum == 0) sum = 0xffff;
  out.patch_u16(6, sum);
  return std::move(out).take();
}

std::optional<UdpDatagram> decode_udp(std::span<const std::uint8_t> data,
                                      const net::Ipv6Address& src,
                                      const net::Ipv6Address& dst) {
  if (data.size() < 8) return std::nullopt;
  BufferReader in(data);
  UdpDatagram datagram;
  datagram.src_port = in.u16();
  datagram.dst_port = in.u16();
  const std::uint16_t length = in.u16();
  const std::uint16_t sum = in.u16();
  if (length != data.size() || length < 8) return std::nullopt;
  if (sum == 0) return std::nullopt;  // forbidden over IPv6
  if (pseudo_header_checksum(src, dst, kProtoUdp, data) != 0) {
    return std::nullopt;
  }
  datagram.payload.resize(in.remaining());
  in.bytes(datagram.payload);
  return datagram;
}

}  // namespace v6::proto
