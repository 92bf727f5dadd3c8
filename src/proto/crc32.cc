#include "proto/crc32.h"

namespace v6::proto {

namespace {

struct Crc32Table {
  std::uint32_t entry[256];
  constexpr Crc32Table() : entry{} {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      entry[i] = c;
    }
  }
};

constexpr Crc32Table kCrc32Table{};

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed) noexcept {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    c = kCrc32Table.entry[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace v6::proto
