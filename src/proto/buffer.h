// Bounds-checked big-endian (network byte order) buffer codecs.
//
// Every binary codec (the corpus, run, checkpoint and dist formats, and
// the packet codecs of the test-side wire reference) serializes through
// these two types, so byte-order and bounds handling live in exactly one
// place. Readers never throw on truncated input; they flip an error flag
// that codecs translate into a parse failure, which the fuzz-style tests
// drive with corrupted packets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace v6::proto {

class BufferWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::uint8_t> data);

  std::size_t size() const noexcept { return data_.size(); }
  const std::vector<std::uint8_t>& data() const noexcept { return data_; }
  std::vector<std::uint8_t> take() && { return std::move(data_); }

  // Patches a u16 already written at `offset` (e.g. a checksum field).
  void patch_u16(std::size_t offset, std::uint16_t v);

 private:
  std::vector<std::uint8_t> data_;
};

class BufferReader {
 public:
  explicit BufferReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() noexcept;
  std::uint16_t u16() noexcept;
  std::uint32_t u32() noexcept;
  std::uint64_t u64() noexcept;
  // Copies `n` bytes into `out`; zero-fills and sets the error flag when the
  // buffer is short.
  void bytes(std::span<std::uint8_t> out) noexcept;
  // Skips n bytes.
  void skip(std::size_t n) noexcept;

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  // True once any read ran past the end of the buffer.
  bool truncated() const noexcept { return truncated_; }

 private:
  bool ensure(std::size_t n) noexcept;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool truncated_ = false;
};

}  // namespace v6::proto
