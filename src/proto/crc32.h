// CRC-32 (IEEE 802.3) integrity trailers for the binary codecs: corpus
// snapshots, spilled runs, checkpoints and dist frames.
#pragma once

#include <cstdint>
#include <span>

namespace v6::proto {

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), as used by the
// corpus snapshot v2 per-section integrity trailers. `seed` lets callers
// chain sections: crc32(b, crc32(a)) == crc32(a ++ b).
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed = 0) noexcept;

}  // namespace v6::proto
