#include <gtest/gtest.h>

#include "proto/buffer.h"
#include "proto/internet_checksum.h"
#include "proto/icmpv6.h"
#include "proto/ipv6_header.h"
#include "proto/ntp_packet.h"
#include "proto/udp.h"
#include "util/rng.h"

namespace v6::proto {
namespace {

net::Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return net::Ipv6Address::from_u64(hi, lo);
}

// ---------------------------------------------------------------- buffers

TEST(Buffer, WriteReadRoundTrip) {
  BufferWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  const std::uint8_t extra[] = {1, 2, 3};
  w.bytes(extra);
  EXPECT_EQ(w.size(), 1u + 2 + 4 + 8 + 3);

  BufferReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  std::uint8_t out[3];
  r.bytes(out);
  EXPECT_EQ(out[2], 3);
  EXPECT_FALSE(r.truncated());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Buffer, BigEndianOnTheWire) {
  BufferWriter w;
  w.u16(0x1234);
  EXPECT_EQ(w.data()[0], 0x12);
  EXPECT_EQ(w.data()[1], 0x34);
}

TEST(Buffer, TruncatedReadsFlagAndZeroFill) {
  const std::uint8_t two[] = {0xaa, 0xbb};
  BufferReader r(two);
  EXPECT_EQ(r.u32(), 0u);  // short read
  EXPECT_TRUE(r.truncated());
  std::uint8_t out[4] = {9, 9, 9, 9};
  r.bytes(out);
  EXPECT_EQ(out[0], 0);
}

TEST(Buffer, PatchU16) {
  BufferWriter w;
  w.u32(0);
  w.patch_u16(1, 0xbeef);
  EXPECT_EQ(w.data()[1], 0xbe);
  EXPECT_EQ(w.data()[2], 0xef);
  EXPECT_THROW(w.patch_u16(3, 1), std::out_of_range);
}

TEST(Buffer, SkipPastEndSetsTruncated) {
  const std::uint8_t one[] = {1};
  BufferReader r(one);
  r.skip(2);
  EXPECT_TRUE(r.truncated());
}

// --------------------------------------------------------------- checksum

TEST(Checksum, Rfc1071Example) {
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::uint8_t data[] = {0x01, 0x02, 0x03};
  // words: 0102, 0300 -> sum 0402 -> ~ = fbfd
  EXPECT_EQ(internet_checksum(data), 0xfbfd);
}

TEST(Checksum, PseudoHeaderVerifiesToZero) {
  const auto src = addr(0x20010db800000001ULL, 1);
  const auto dst = addr(0x20010db800000002ULL, 2);
  const Icmpv6Message msg = make_echo_request(7, 9, {1, 2, 3, 4});
  const auto wire = encode_icmpv6(msg, src, dst);
  EXPECT_EQ(pseudo_header_checksum(src, dst, kProtoIcmpv6, wire), 0);
}

// ------------------------------------------------------------ IPv6 header

TEST(Ipv6Header, EncodeDecodeRoundTrip) {
  Ipv6Header h;
  h.traffic_class = 0x42;
  h.flow_label = 0xabcde;
  h.next_header = kProtoUdp;
  h.hop_limit = 61;
  h.src = addr(1, 2);
  h.dst = addr(3, 4);
  const std::uint8_t payload[] = {0xaa, 0xbb};
  const auto wire = build_datagram(h, payload);
  EXPECT_EQ(wire.size(), 42u);
  EXPECT_EQ(wire[0] >> 4, 6);  // version

  BufferReader r(wire);
  const auto decoded = Ipv6Header::decode(r);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->traffic_class, 0x42);
  EXPECT_EQ(decoded->flow_label, 0xabcdeu);
  EXPECT_EQ(decoded->payload_length, 2);
  EXPECT_EQ(decoded->hop_limit, 61);
  EXPECT_EQ(decoded->src, addr(1, 2));
  EXPECT_EQ(decoded->dst, addr(3, 4));
}

TEST(Ipv6Header, RejectsWrongVersion) {
  Ipv6Header h;
  BufferWriter w;
  h.encode(w);
  auto bytes = std::move(w).take();
  bytes[0] = 0x45;  // IPv4 version nibble
  BufferReader r(bytes);
  EXPECT_FALSE(Ipv6Header::decode(r));
}

TEST(Ipv6Header, RejectsTruncated) {
  const std::uint8_t short_buf[10] = {0x60};
  BufferReader r(short_buf);
  EXPECT_FALSE(Ipv6Header::decode(r));
}

// ----------------------------------------------------------------- ICMPv6

TEST(Icmpv6, EchoRoundTrip) {
  const auto src = addr(10, 1), dst = addr(20, 2);
  const auto request = make_echo_request(0x1234, 0x5678, {9, 8, 7});
  const auto wire = encode_icmpv6(request, src, dst);
  const auto decoded = decode_icmpv6(wire, src, dst);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, request);
  EXPECT_EQ(decoded->identifier(), 0x1234);
  EXPECT_EQ(decoded->sequence(), 0x5678);
}

TEST(Icmpv6, ChecksumBindsToAddresses) {
  const auto src = addr(10, 1), dst = addr(20, 2);
  const auto wire = encode_icmpv6(make_echo_request(1, 2), src, dst);
  // Decoding with a different pseudo-header (spoofed peer) fails.
  EXPECT_FALSE(decode_icmpv6(wire, src, addr(20, 3)));
}

TEST(Icmpv6, CorruptionDetected) {
  const auto src = addr(10, 1), dst = addr(20, 2);
  auto wire = encode_icmpv6(make_echo_request(1, 2, {1, 2, 3, 4, 5}), src, dst);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    auto corrupted = wire;
    corrupted[i] ^= 0x40;
    EXPECT_FALSE(decode_icmpv6(corrupted, src, dst)) << "byte " << i;
  }
}

TEST(Icmpv6, TruncationDetected) {
  const auto src = addr(10, 1), dst = addr(20, 2);
  const auto wire = encode_icmpv6(make_echo_request(1, 2, {1, 2, 3}), src, dst);
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(decode_icmpv6(std::span(wire.data(), n), src, dst));
  }
}

TEST(Icmpv6, EchoReplyMirrorsRequest) {
  const auto request = make_echo_request(3, 4, {42});
  const auto reply = make_echo_reply(request);
  EXPECT_EQ(reply.type, Icmpv6Type::kEchoReply);
  EXPECT_EQ(reply.body, request.body);
  EXPECT_EQ(reply.payload, request.payload);
}

TEST(Icmpv6, TimeExceededCarriesInvokingPacket) {
  const auto te = make_time_exceeded({0xde, 0xad});
  EXPECT_EQ(te.type, Icmpv6Type::kTimeExceeded);
  EXPECT_EQ(te.code, 0);
  EXPECT_EQ(te.payload.size(), 2u);
}

// -------------------------------------------------------------------- UDP

TEST(Udp, RoundTrip) {
  const auto src = addr(1, 1), dst = addr(2, 2);
  const UdpDatagram datagram{40000, kNtpPort, {1, 2, 3, 4, 5}};
  const auto wire = encode_udp(datagram, src, dst);
  EXPECT_EQ(wire.size(), 8u + 5);
  const auto decoded = decode_udp(wire, src, dst);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, datagram);
}

TEST(Udp, LengthMismatchRejected) {
  const auto src = addr(1, 1), dst = addr(2, 2);
  auto wire = encode_udp({1, 2, {9}}, src, dst);
  wire.push_back(0);  // trailing garbage changes the actual size
  EXPECT_FALSE(decode_udp(wire, src, dst));
}

TEST(Udp, CorruptionDetected) {
  const auto src = addr(1, 1), dst = addr(2, 2);
  auto wire = encode_udp({1000, 2000, {5, 6, 7, 8}}, src, dst);
  wire[9] ^= 0xff;  // payload byte
  EXPECT_FALSE(decode_udp(wire, src, dst));
}

TEST(Udp, ZeroChecksumRejectedOverIpv6) {
  const auto src = addr(1, 1), dst = addr(2, 2);
  auto wire = encode_udp({1, 2, {3}}, src, dst);
  wire[6] = wire[7] = 0;
  EXPECT_FALSE(decode_udp(wire, src, dst));
}

// -------------------------------------------------------------------- NTP

TEST(NtpPacket, WireFormatIs48Bytes) {
  const auto wire = make_client_request(1000, 0xdead).encode();
  EXPECT_EQ(wire.size(), 48u);
  // LI=0 VN=4 Mode=3 -> 0x23.
  EXPECT_EQ(wire[0], 0x23);
}

TEST(NtpPacket, EncodeDecodeRoundTrip) {
  NtpPacket p;
  p.leap_indicator = 1;
  p.version = 4;
  p.mode = NtpMode::kServer;
  p.stratum = 2;
  p.poll = 10;
  p.precision = -23;
  p.root_delay = 0x00010000;
  p.root_dispersion = 0x00000a00;
  p.reference_id = 0x47505300;  // "GPS"
  p.reference_time = NtpTimestamp::from_sim_time(100, 7);
  p.origin_time = NtpTimestamp::from_sim_time(101, 8);
  p.receive_time = NtpTimestamp::from_sim_time(102, 9);
  p.transmit_time = NtpTimestamp::from_sim_time(103, 10);
  const auto decoded = NtpPacket::decode(p.encode());
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, p);
}

TEST(NtpPacket, DecodeRejectsShortAndBadVersion) {
  const auto wire = make_client_request(0, 0).encode();
  EXPECT_FALSE(NtpPacket::decode(std::span(wire.data(), 47)));
  auto bad = wire;
  bad[0] = (bad[0] & ~0x38) | (1 << 3);  // version 1
  EXPECT_FALSE(NtpPacket::decode(bad));
}

TEST(NtpPacket, ServerResponseFollowsRfc5905) {
  const auto request = make_client_request(5000, 0xabcd1234);
  const auto response = make_server_response(request, 5001, 2, 0x56500001);
  EXPECT_EQ(response.mode, NtpMode::kServer);
  EXPECT_EQ(response.stratum, 2);
  // Origin must echo the client's transmit for client-side validation.
  EXPECT_EQ(response.origin_time, request.transmit_time);
  EXPECT_EQ(response.receive_time.to_sim_time(), 5001);
  EXPECT_EQ(response.transmit_time.to_sim_time(), 5001);
}

TEST(NtpTimestamp, SimTimeMapping) {
  const auto ts = NtpTimestamp::from_sim_time(12345, 99);
  EXPECT_EQ(ts.to_sim_time(), 12345);
  EXPECT_EQ(NtpTimestamp::from_u64(ts.to_u64()), ts);
}

TEST(NtpPacket, FuzzedDecodeNeverCrashes) {
  util::Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(rng.bounded(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    (void)NtpPacket::decode(junk);  // must not crash
  }
}

TEST(Icmpv6, FuzzedDecodeNeverCrashes) {
  util::Rng rng(78);
  const auto src = addr(1, 1), dst = addr(2, 2);
  int accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(rng.bounded(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    if (decode_icmpv6(junk, src, dst)) ++accepted;
  }
  // Random bytes essentially never satisfy the checksum.
  EXPECT_LE(accepted, 1);
}

}  // namespace
}  // namespace v6::proto
