#include "proto/tcp.h"

#include "proto/internet_checksum.h"

namespace v6::proto {

std::vector<std::uint8_t> encode_tcp(const TcpSegment& segment,
                                     const net::Ipv6Address& src,
                                     const net::Ipv6Address& dst) {
  BufferWriter out;
  out.u16(segment.src_port);
  out.u16(segment.dst_port);
  out.u32(segment.sequence);
  out.u32(segment.ack_number);
  out.u8(5 << 4);  // data offset 5 words, no options
  out.u8(segment.flags);
  out.u16(segment.window);
  out.u16(0);  // checksum placeholder
  out.u16(0);  // urgent pointer
  const std::uint16_t sum =
      pseudo_header_checksum(src, dst, kProtoTcp, out.data());
  out.patch_u16(16, sum);
  return std::move(out).take();
}

std::optional<TcpSegment> decode_tcp(std::span<const std::uint8_t> data,
                                     const net::Ipv6Address& src,
                                     const net::Ipv6Address& dst) {
  if (data.size() < 20) return std::nullopt;
  if (pseudo_header_checksum(src, dst, kProtoTcp, data) != 0) {
    return std::nullopt;
  }
  BufferReader in(data);
  TcpSegment segment;
  segment.src_port = in.u16();
  segment.dst_port = in.u16();
  segment.sequence = in.u32();
  segment.ack_number = in.u32();
  const std::uint8_t offset = in.u8();
  segment.flags = in.u8();
  segment.window = in.u16();
  if ((offset >> 4) != 5) return std::nullopt;
  return segment;
}

TcpSegment make_syn(std::uint16_t src_port, std::uint16_t dst_port,
                    std::uint32_t sequence) {
  TcpSegment segment;
  segment.src_port = src_port;
  segment.dst_port = dst_port;
  segment.sequence = sequence;
  segment.flags = kTcpSyn;
  return segment;
}

TcpSegment make_syn_ack(const TcpSegment& syn, std::uint32_t server_sequence) {
  TcpSegment segment;
  segment.src_port = syn.dst_port;
  segment.dst_port = syn.src_port;
  segment.sequence = server_sequence;
  segment.ack_number = syn.sequence + 1;
  segment.flags = kTcpSyn | kTcpAck;
  return segment;
}

TcpSegment make_rst(const TcpSegment& syn) {
  TcpSegment segment;
  segment.src_port = syn.dst_port;
  segment.dst_port = syn.src_port;
  segment.sequence = 0;
  segment.ack_number = syn.sequence + 1;
  segment.flags = kTcpRst | kTcpAck;
  return segment;
}

}  // namespace v6::proto
