#include "proto/internet_checksum.h"

namespace v6::proto {

namespace {

std::uint32_t sum_words(std::span<const std::uint8_t> data,
                        std::uint32_t acc) noexcept {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    acc += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) acc += static_cast<std::uint32_t>(data[i] << 8);
  return acc;
}

std::uint16_t fold(std::uint32_t acc) noexcept {
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc);
}

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept {
  return fold(sum_words(data, 0));
}

std::uint16_t pseudo_header_checksum(
    const net::Ipv6Address& src, const net::Ipv6Address& dst,
    std::uint8_t next_header, std::span<const std::uint8_t> payload) noexcept {
  std::uint32_t acc = 0;
  acc = sum_words(src.bytes(), acc);
  acc = sum_words(dst.bytes(), acc);
  const auto length = static_cast<std::uint32_t>(payload.size());
  acc += length >> 16;
  acc += length & 0xffff;
  acc += next_header;  // 3 zero bytes then next header
  acc = sum_words(payload, acc);
  return fold(acc);
}

}  // namespace v6::proto
