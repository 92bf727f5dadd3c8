#include "hitlist/run_io.h"

#include <algorithm>
#include <array>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "proto/buffer.h"
#include "proto/crc32.h"

namespace v6::hitlist {

namespace {

constexpr char kMagic[8] = {'V', '6', 'R', 'U', 'N', '0', '0', '1'};
// magic + records u64 + observations u64 + index offset u64 + CRC u32.
constexpr std::uint64_t kHeaderBytes = 8 + 8 + 8 + 8 + 4;
// first address (16) + offset u64 + length u32 + count u32 + CRC u32.
constexpr std::uint64_t kIndexEntryBytes = 16 + 8 + 4 + 4 + 4;

// Tag byte layout (see run_io.h).
constexpr std::uint8_t kTagSamePrefix = 0x01;
constexpr std::uint8_t kTagCountOne = 0x02;
constexpr std::uint8_t kTagZeroLifetime = 0x04;
constexpr std::uint8_t kTagSmallMask = 0x08;

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

// LEB128 decode with bounds checking; rejects encodings past 64 bits.
bool get_varint(std::span<const std::uint8_t> data, std::size_t& pos,
                std::uint64_t& out) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (pos >= data.size()) return false;
    const std::uint8_t b = data[pos++];
    if (shift == 63 && (b & 0x7e) != 0) return false;  // would overflow u64
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      out = v;
      return true;
    }
  }
  return false;
}

void write_all(std::ostream& out, std::span<const std::uint8_t> data) {
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) throw std::runtime_error("run file: write failed");
}

[[noreturn]] void corrupt() {
  throw std::runtime_error("run file: corrupt block");
}

}  // namespace

RunWriter::RunWriter(std::ostream& out, RunWriterOptions options)
    : out_(&out), options_(options) {
  if (options_.block_records == 0) options_.block_records = 1;
  // Placeholder header; finish() seeks back and patches the magic, the
  // counts, and the index offset.
  const std::vector<std::uint8_t> zeros(kHeaderBytes, 0);
  write_all(*out_, zeros);
  write_offset_ = kHeaderBytes;
}

RunWriter::~RunWriter() = default;

void RunWriter::append(const AddressRecord& rec) {
  if (finished_) {
    throw std::invalid_argument("run writer: append after finish");
  }
  if (rec.count == 0) {
    throw std::invalid_argument("run writer: record with count 0");
  }
  if (records_ > 0 && !(prev_address_ < rec.address)) {
    throw std::invalid_argument("run writer: records not strictly ascending");
  }
  const bool first = block_count_ == 0;
  if (first) block_first_ = rec.address;

  const std::uint64_t hi = rec.address.hi64();
  const std::uint64_t lo = rec.address.lo64();
  const std::uint64_t prev_hi = prev_address_.hi64();
  const std::uint64_t prev_lo = prev_address_.lo64();

  std::uint8_t tag = 0;
  const bool same_prefix = !first && hi == prev_hi;
  if (same_prefix) tag |= kTagSamePrefix;
  if (rec.count == 1) tag |= kTagCountOne;
  if (rec.last_seen == rec.first_seen) tag |= kTagZeroLifetime;
  const bool single_bit =
      rec.vantage_mask != 0 &&
      (rec.vantage_mask & (rec.vantage_mask - 1)) == 0 &&
      rec.vantage_mask < (1u << 16);
  std::uint8_t mask_bit = 0;
  if (single_bit) {
    while ((rec.vantage_mask >> mask_bit) != 1u) ++mask_bit;
    tag |= kTagSmallMask | static_cast<std::uint8_t>(mask_bit << 4);
  }
  block_.push_back(tag);
  if (same_prefix) {
    put_varint(block_, lo - prev_lo);
  } else if (first) {
    put_varint(block_, hi);
    put_varint(block_, lo);
  } else {
    put_varint(block_, hi - prev_hi);
    put_varint(block_, lo);
  }
  put_varint(block_, rec.first_seen);
  if ((tag & kTagZeroLifetime) == 0) {
    put_varint(block_, rec.last_seen - rec.first_seen);
  }
  if ((tag & kTagCountOne) == 0) put_varint(block_, rec.count);
  if ((tag & kTagSmallMask) == 0) put_varint(block_, rec.vantage_mask);

  prev_address_ = rec.address;
  ++block_count_;
  ++records_;
  observations_ += rec.count;
  if (block_count_ >= options_.block_records) flush_block();
}

void RunWriter::flush_block() {
  if (block_count_ == 0) return;
  RunBlockInfo info;
  info.first_address = block_first_;
  info.offset = write_offset_;
  info.byte_length = static_cast<std::uint32_t>(block_.size());
  info.record_count = block_count_;
  info.crc = proto::crc32(block_);
  write_all(*out_, block_);
  write_offset_ += block_.size();
  index_.push_back(info);
  block_.clear();
  block_count_ = 0;
}

RunFileStats RunWriter::finish() {
  if (finished_) throw std::invalid_argument("run writer: double finish");
  finished_ = true;
  flush_block();
  const std::uint64_t index_offset = write_offset_;

  proto::BufferWriter index;
  index.u32(static_cast<std::uint32_t>(index_.size()));
  for (const RunBlockInfo& b : index_) {
    index.bytes(b.first_address.bytes());
    index.u64(b.offset);
    index.u32(b.byte_length);
    index.u32(b.record_count);
    index.u32(b.crc);
  }
  index.u32(proto::crc32(index.data()));
  write_all(*out_, index.data());

  proto::BufferWriter header;
  header.u64(records_);
  header.u64(observations_);
  header.u64(index_offset);
  header.u32(proto::crc32(header.data()));
  out_->seekp(0);
  if (!*out_) throw std::runtime_error("run file: seek failed");
  write_all(*out_, {reinterpret_cast<const std::uint8_t*>(kMagic), 8});
  write_all(*out_, header.data());
  out_->seekp(0, std::ios::end);
  out_->flush();
  if (!*out_) throw std::runtime_error("run file: write failed");

  RunFileStats stats;
  stats.records = records_;
  stats.observations = observations_;
  stats.bytes = index_offset + 4 + index_.size() * kIndexEntryBytes + 4;
  stats.blocks = static_cast<std::uint32_t>(index_.size());
  return stats;
}

RunReader::RunReader(std::istream& in) : in_(&in) {
  in_->clear();
  in_->seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in_->tellg());
  in_->seekg(0);

  std::vector<std::uint8_t> header(kHeaderBytes);
  in_->read(reinterpret_cast<char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  if (in_->gcount() != static_cast<std::streamsize>(header.size())) {
    throw std::runtime_error("run file: truncated header");
  }
  if (!std::equal(kMagic, kMagic + 8,
                  reinterpret_cast<const char*>(header.data()))) {
    throw std::runtime_error("run file: bad magic");
  }
  proto::BufferReader reader{std::span(header).subspan(8)};
  records_ = reader.u64();
  observations_ = reader.u64();
  const std::uint64_t index_offset = reader.u64();
  const std::uint32_t header_crc = reader.u32();
  if (header_crc != proto::crc32(std::span(header).subspan(8, 24))) {
    throw std::runtime_error("run file: header CRC mismatch");
  }

  // The index tail: count + entries + CRC, sized by the count it opens
  // with. The offset and every length are untrusted until cross-checked.
  if (index_offset < kHeaderBytes || index_offset + 8 > file_size) {
    throw std::runtime_error("run file: truncated index");
  }
  in_->seekg(static_cast<std::streamoff>(index_offset));
  std::array<std::uint8_t, 4> count_bytes{};
  in_->read(reinterpret_cast<char*>(count_bytes.data()), 4);
  if (in_->gcount() != 4) throw std::runtime_error("run file: truncated index");
  proto::BufferReader count_reader(count_bytes);
  const std::uint32_t block_count = count_reader.u32();
  const std::uint64_t index_bytes = 4 + block_count * kIndexEntryBytes + 4;
  if (block_count >
          (file_size - index_offset - 8) / kIndexEntryBytes ||
      index_offset + index_bytes > file_size) {
    throw std::runtime_error("run file: truncated index");
  }
  if (index_offset + index_bytes != file_size) {
    throw std::runtime_error("run file: trailing bytes");
  }
  std::vector<std::uint8_t> index_section(index_bytes - 4);
  std::copy(count_bytes.begin(), count_bytes.end(), index_section.begin());
  in_->read(reinterpret_cast<char*>(index_section.data() + 4),
            static_cast<std::streamsize>(index_section.size() - 4));
  if (in_->gcount() !=
      static_cast<std::streamsize>(index_section.size() - 4)) {
    throw std::runtime_error("run file: truncated index");
  }
  std::array<std::uint8_t, 4> crc_bytes{};
  in_->read(reinterpret_cast<char*>(crc_bytes.data()), 4);
  if (in_->gcount() != 4) throw std::runtime_error("run file: truncated index");
  proto::BufferReader crc_reader(crc_bytes);
  if (crc_reader.u32() != proto::crc32(index_section)) {
    throw std::runtime_error("run file: index CRC mismatch");
  }

  proto::BufferReader entries{std::span(index_section).subspan(4)};
  index_.reserve(block_count);
  std::uint64_t expected_offset = kHeaderBytes;
  std::uint64_t total_records = 0;
  for (std::uint32_t b = 0; b < block_count; ++b) {
    RunBlockInfo info;
    net::Ipv6Address::Bytes addr{};
    entries.bytes(addr);
    info.first_address = net::Ipv6Address(addr);
    info.offset = entries.u64();
    info.byte_length = entries.u32();
    info.record_count = entries.u32();
    info.crc = entries.u32();
    // Blocks must tile [header, index) contiguously in file order with
    // ascending first addresses — anything else is a forged index.
    if (info.offset != expected_offset || info.record_count == 0 ||
        info.byte_length == 0 ||
        (b > 0 && !(index_.back().first_address < info.first_address))) {
      throw std::runtime_error("run file: corrupt index");
    }
    expected_offset += info.byte_length;
    total_records += info.record_count;
    index_.push_back(info);
  }
  if (expected_offset != index_offset || total_records != records_) {
    throw std::runtime_error("run file: corrupt index");
  }
}

std::vector<AddressRecord> RunReader::read_block(std::size_t b) const {
  const RunBlockInfo& info = index_[b];
  std::vector<std::uint8_t> data(info.byte_length);
  in_->clear();
  in_->seekg(static_cast<std::streamoff>(info.offset));
  in_->read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (in_->gcount() != static_cast<std::streamsize>(data.size())) {
    throw std::runtime_error("run file: truncated block");
  }
  if (proto::crc32(data) != info.crc) {
    throw std::runtime_error("run file: block CRC mismatch");
  }

  constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  std::vector<AddressRecord> out;
  out.reserve(info.record_count);
  std::size_t pos = 0;
  std::uint64_t prev_hi = 0;
  std::uint64_t prev_lo = 0;
  for (std::uint32_t r = 0; r < info.record_count; ++r) {
    if (pos >= data.size()) corrupt();
    const std::uint8_t tag = data[pos++];
    const bool first = r == 0;
    if ((tag & kTagSmallMask) == 0 && (tag >> 4) != 0) corrupt();
    if (first && (tag & kTagSamePrefix) != 0) corrupt();

    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    if ((tag & kTagSamePrefix) != 0) {
      std::uint64_t delta = 0;
      if (!get_varint(data, pos, delta) || delta == 0 ||
          delta > std::numeric_limits<std::uint64_t>::max() - prev_lo) {
        corrupt();
      }
      hi = prev_hi;
      lo = prev_lo + delta;
    } else if (first) {
      if (!get_varint(data, pos, hi) || !get_varint(data, pos, lo)) corrupt();
    } else {
      std::uint64_t delta = 0;
      if (!get_varint(data, pos, delta) || delta == 0 ||
          delta > std::numeric_limits<std::uint64_t>::max() - prev_hi ||
          !get_varint(data, pos, lo)) {
        corrupt();
      }
      hi = prev_hi + delta;
    }

    AddressRecord rec;
    rec.address = net::Ipv6Address::from_u64(hi, lo);
    std::uint64_t v = 0;
    if (!get_varint(data, pos, v) || v > kU32Max) corrupt();
    rec.first_seen = static_cast<std::uint32_t>(v);
    if ((tag & kTagZeroLifetime) != 0) {
      rec.last_seen = rec.first_seen;
    } else {
      if (!get_varint(data, pos, v) || v == 0 ||
          v > kU32Max - rec.first_seen) {
        corrupt();
      }
      rec.last_seen = rec.first_seen + static_cast<std::uint32_t>(v);
    }
    if ((tag & kTagCountOne) != 0) {
      rec.count = 1;
    } else {
      if (!get_varint(data, pos, v) || v == 0 || v > kU32Max) corrupt();
      rec.count = static_cast<std::uint32_t>(v);
    }
    if ((tag & kTagSmallMask) != 0) {
      rec.vantage_mask = 1u << (tag >> 4);
    } else {
      if (!get_varint(data, pos, v) || v > kU32Max) corrupt();
      rec.vantage_mask = static_cast<std::uint32_t>(v);
    }

    if (first && rec.address != info.first_address) corrupt();
    // Cross-block order: every record stays below the next block's bound
    // (ascent against the previous block follows from the index check).
    if (b + 1 < index_.size() &&
        !(rec.address < index_[b + 1].first_address)) {
      corrupt();
    }
    prev_hi = hi;
    prev_lo = lo;
    out.push_back(rec);
  }
  if (pos != data.size()) corrupt();
  return out;
}

RunReader::Cursor::Cursor(const RunReader* reader, std::size_t block,
                          std::size_t skip)
    : reader_(reader), block_(block), skip_(skip) {}

void RunReader::Cursor::load_block() {
  while (block_ < reader_->index_.size()) {
    decoded_ = reader_->read_block(block_++);
    pos_ = std::min(skip_, decoded_.size());
    skip_ = 0;
    if (pos_ < decoded_.size()) return;
  }
  decoded_.clear();
  pos_ = 0;
}

bool RunReader::Cursor::next(AddressRecord& out) {
  if (pos_ >= decoded_.size()) {
    load_block();
    if (pos_ >= decoded_.size()) return false;
  }
  out = decoded_[pos_++];
  return true;
}

RunReader::Cursor RunReader::cursor_at(const net::Ipv6Address& lo) const {
  // Last block whose first address is <= lo; earlier blocks cannot hold
  // records >= lo... except records inside that block below lo, skipped by
  // decoding it once here.
  std::size_t b = 0;
  {
    std::size_t first = 0;
    std::size_t count = index_.size();
    while (count > 0) {
      const std::size_t step = count / 2;
      const std::size_t mid = first + step;
      if (index_[mid].first_address <= lo) {
        first = mid + 1;
        count -= step + 1;
      } else {
        count = step;
      }
    }
    b = first;  // first block with first_address > lo
  }
  if (b == 0) return Cursor(this, 0, 0);
  const std::size_t block = b - 1;
  const std::vector<AddressRecord> decoded = read_block(block);
  std::size_t skip = 0;
  while (skip < decoded.size() && decoded[skip].address < lo) ++skip;
  return Cursor(this, block, skip);
}

void merge_record_streams(
    std::vector<RecordStream> streams,
    const std::function<bool(const AddressRecord&)>& emit) {
  struct Head {
    AddressRecord rec;
    bool valid = false;
  };
  std::vector<Head> heads(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    heads[i].valid = streams[i](heads[i].rec);
  }
  for (;;) {
    std::size_t best = streams.size();
    for (std::size_t i = 0; i < heads.size(); ++i) {
      if (heads[i].valid &&
          (best == streams.size() ||
           heads[i].rec.address < heads[best].rec.address)) {
        best = i;
      }
    }
    if (best == streams.size()) return;
    AddressRecord agg = heads[best].rec;
    heads[best].valid = streams[best](heads[best].rec);
    // Each input is strictly ascending, so every other stream contributes
    // at most one record for this address, folded by Corpus's own rule.
    for (std::size_t i = best + 1; i < heads.size(); ++i) {
      while (heads[i].valid && heads[i].rec.address == agg.address) {
        fold_record(agg, heads[i].rec);
        heads[i].valid = streams[i](heads[i].rec);
      }
    }
    if (!emit(agg)) return;
  }
}

}  // namespace v6::hitlist
