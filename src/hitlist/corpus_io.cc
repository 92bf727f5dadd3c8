#include "hitlist/corpus_io.h"

#include <algorithm>
#include <array>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "proto/buffer.h"
#include "proto/crc32.h"

namespace v6::hitlist {

namespace {

constexpr char kMagicV1[8] = {'V', '6', 'C', 'O', 'R', 'P', '0', '1'};
constexpr char kMagicV2[8] = {'V', '6', 'C', 'O', 'R', 'P', '0', '2'};
constexpr std::uint64_t kRecordBytes = 32;
// Streaming chunk size, in records (256 KiB of payload): the bound on
// extra memory for chunked save/load, and the CRC chaining granularity.
constexpr std::uint64_t kChunkRecords = 8192;

std::span<const std::uint8_t> magic_span(const char (&magic)[8]) {
  return {reinterpret_cast<const std::uint8_t*>(magic), 8};
}

// Shared record-section parser for both format versions. `reader` must be
// positioned at the first record; exactly `records * 32` bytes are
// consumed.
Corpus read_records(proto::BufferReader& reader, std::uint64_t records,
                    std::uint64_t observations) {
  Corpus corpus(records);
  std::uint64_t observations_seen = 0;
  for (std::uint64_t i = 0; i < records; ++i) {
    net::Ipv6Address::Bytes address{};
    reader.bytes(address);
    AddressRecord rec;
    rec.address = net::Ipv6Address(address);
    rec.first_seen = reader.u32();
    rec.last_seen = reader.u32();
    rec.count = reader.u32();
    rec.vantage_mask = reader.u32();
    if (reader.truncated()) {
      throw std::runtime_error("corpus snapshot: truncated");
    }
    if (rec.count == 0) {
      throw std::runtime_error("corpus snapshot: empty record");
    }
    // Hostile counts must not wrap the running total: a wrapped sum can
    // collide with the header's observation field and load a forged
    // snapshot as valid.
    if (rec.count > std::numeric_limits<std::uint64_t>::max() -
                        observations_seen) {
      throw std::runtime_error("corpus snapshot: observation count overflow");
    }
    corpus.add_record(rec);
    observations_seen += rec.count;
  }
  if (observations_seen != observations) {
    throw std::runtime_error("corpus snapshot: observation count mismatch");
  }
  return corpus;
}

}  // namespace

void save_corpus(proto::BufferWriter& out, const Corpus& corpus) {
  out.bytes(magic_span(kMagicV2));
  const std::size_t header_begin = out.size();
  out.u64(corpus.size());
  out.u64(corpus.total_observations());
  out.u32(proto::crc32(std::span(out.data()).subspan(header_begin, 16)));
  const std::size_t records_begin = out.size();
  for (const auto& rec : corpus.records()) {
    out.bytes(rec.address.bytes());
    out.u32(rec.first_seen);
    out.u32(rec.last_seen);
    out.u32(rec.count);
    out.u32(rec.vantage_mask);
  }
  out.u32(proto::crc32(std::span(out.data()).subspan(records_begin)));
}

CorpusSnapshotWriter::CorpusSnapshotWriter(std::ostream& out,
                                           std::uint64_t records,
                                           std::uint64_t observations)
    : out_(&out), expected_records_(records) {
  proto::BufferWriter header;
  header.bytes(magic_span(kMagicV2));
  header.u64(records);
  header.u64(observations);
  header.u32(proto::crc32(std::span(header.data()).subspan(8, 16)));
  out_->write(reinterpret_cast<const char*>(header.data().data()),
              static_cast<std::streamsize>(header.size()));
  if (!*out_) throw std::runtime_error("corpus write failed");
  bytes_ = header.size();
  chunk_.reserve(kChunkRecords * kRecordBytes);
}

void CorpusSnapshotWriter::append(const AddressRecord& rec) {
  const auto put_u32 = [this](std::uint32_t v) {
    chunk_.push_back(static_cast<std::uint8_t>(v >> 24));
    chunk_.push_back(static_cast<std::uint8_t>(v >> 16));
    chunk_.push_back(static_cast<std::uint8_t>(v >> 8));
    chunk_.push_back(static_cast<std::uint8_t>(v));
  };
  const auto& address = rec.address.bytes();
  chunk_.insert(chunk_.end(), address.begin(), address.end());
  put_u32(rec.first_seen);
  put_u32(rec.last_seen);
  put_u32(rec.count);
  put_u32(rec.vantage_mask);
  ++appended_;
  if (chunk_.size() >= kChunkRecords * kRecordBytes) flush_chunk();
}

void CorpusSnapshotWriter::flush_chunk() {
  if (chunk_.empty()) return;
  // Chained CRC over successive chunks equals the one-shot CRC over the
  // whole records section — the v2 trailer contract.
  records_crc_ = proto::crc32(chunk_, records_crc_);
  out_->write(reinterpret_cast<const char*>(chunk_.data()),
              static_cast<std::streamsize>(chunk_.size()));
  if (!*out_) throw std::runtime_error("corpus write failed");
  bytes_ += chunk_.size();
  chunk_.clear();
}

std::size_t CorpusSnapshotWriter::finish() {
  if (finished_) throw std::logic_error("corpus snapshot: double finish");
  finished_ = true;
  if (appended_ != expected_records_) {
    throw std::logic_error(
        "corpus snapshot: appended record count disagrees with header");
  }
  flush_chunk();
  proto::BufferWriter trailer;
  trailer.u32(records_crc_);
  out_->write(reinterpret_cast<const char*>(trailer.data().data()),
              static_cast<std::streamsize>(trailer.size()));
  if (!*out_) throw std::runtime_error("corpus write failed");
  bytes_ += trailer.size();
  return bytes_;
}

std::size_t save_corpus(std::ostream& out, const Corpus& corpus) {
  CorpusSnapshotWriter writer(out, corpus.size(),
                              corpus.total_observations());
  for (const auto& rec : corpus.records()) writer.append(rec);
  return writer.finish();
}

Corpus load_corpus(std::span<const std::uint8_t> bytes) {
  proto::BufferReader reader(bytes);

  std::uint8_t magic[8];
  reader.bytes(magic);
  const bool v2 = !reader.truncated() &&
                  std::equal(std::begin(magic), std::end(magic), kMagicV2);
  const bool v1 = !reader.truncated() && !v2 &&
                  std::equal(std::begin(magic), std::end(magic), kMagicV1);
  if (!v1 && !v2) {
    throw std::runtime_error("corpus snapshot: bad magic");
  }
  const std::uint64_t records = reader.u64();
  const std::uint64_t observations = reader.u64();
  if (reader.truncated()) {
    throw std::runtime_error("corpus snapshot: truncated header");
  }
  if (v2) {
    const std::uint32_t header_crc = reader.u32();
    if (reader.truncated()) {
      throw std::runtime_error("corpus snapshot: truncated header");
    }
    if (header_crc != proto::crc32(bytes.subspan(8, 16))) {
      throw std::runtime_error("corpus snapshot: header CRC mismatch");
    }
  }
  // The record count is untrusted input and sizes the table allocation
  // below: insist it agrees exactly with the payload that is actually
  // present (32 bytes per record, plus the v2 trailer CRC) before
  // allocating anything. The division-form check also rejects counts
  // whose byte size would overflow 64 bits.
  const std::uint64_t trailer = v2 ? 4 : 0;
  if (reader.remaining() < trailer ||
      records > (reader.remaining() - trailer) / kRecordBytes ||
      records * kRecordBytes != reader.remaining() - trailer) {
    throw std::runtime_error(
        "corpus snapshot: record count disagrees with payload size");
  }
  if (v2) {
    // Whole-section CRC before parsing: a flipped bit inside any record
    // fails here rather than loading as a plausible-but-wrong corpus.
    const std::size_t records_begin = bytes.size() - reader.remaining();
    const auto section =
        bytes.subspan(records_begin, records * kRecordBytes);
    proto::BufferReader trailer_reader(bytes.subspan(bytes.size() - 4));
    if (trailer_reader.u32() != proto::crc32(section)) {
      throw std::runtime_error("corpus snapshot: records CRC mismatch");
    }
  }

  Corpus corpus = read_records(reader, records, observations);
  if (v2) reader.skip(4);  // the already-verified records CRC
  if (reader.remaining() != 0) {
    throw std::runtime_error("corpus snapshot: trailing bytes");
  }
  return corpus;
}

Corpus load_corpus(std::istream& in) {
  const auto read_exact = [&in](std::uint8_t* dst, std::size_t n) {
    in.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
    return static_cast<std::size_t>(in.gcount()) == n;
  };

  std::array<std::uint8_t, 8> magic{};
  if (!read_exact(magic.data(), magic.size())) {
    throw std::runtime_error("corpus snapshot: bad magic");
  }
  const bool v2 = std::equal(magic.begin(), magic.end(),
                             magic_span(kMagicV2).begin());
  const bool v1 = !v2 && std::equal(magic.begin(), magic.end(),
                                    magic_span(kMagicV1).begin());
  if (!v1 && !v2) {
    throw std::runtime_error("corpus snapshot: bad magic");
  }

  std::array<std::uint8_t, 16> counts{};
  if (!read_exact(counts.data(), counts.size())) {
    throw std::runtime_error("corpus snapshot: truncated header");
  }
  proto::BufferReader counts_reader{std::span<const std::uint8_t>(counts)};
  const std::uint64_t records = counts_reader.u64();
  const std::uint64_t observations = counts_reader.u64();
  if (v2) {
    std::array<std::uint8_t, 4> crc_bytes{};
    if (!read_exact(crc_bytes.data(), crc_bytes.size())) {
      throw std::runtime_error("corpus snapshot: truncated header");
    }
    proto::BufferReader crc_reader{std::span<const std::uint8_t>(crc_bytes)};
    if (crc_reader.u32() != proto::crc32(counts)) {
      throw std::runtime_error("corpus snapshot: header CRC mismatch");
    }
  }

  // Records, in bounded chunks. A hostile record count cannot trigger a
  // giant allocation here: the table's eager reserve is capped (see
  // Corpus's constructor) and the read buffer is one chunk — an absurd
  // count just fails with "truncated" at the first short read.
  Corpus corpus(records);
  std::uint64_t observations_seen = 0;
  std::uint32_t records_crc = 0;
  std::vector<std::uint8_t> chunk;
  std::uint64_t remaining = records;
  while (remaining > 0) {
    const std::uint64_t n = std::min(remaining, kChunkRecords);
    chunk.resize(static_cast<std::size_t>(n * kRecordBytes));
    if (!read_exact(chunk.data(), chunk.size())) {
      throw std::runtime_error("corpus snapshot: truncated");
    }
    records_crc = proto::crc32(chunk, records_crc);
    proto::BufferReader reader{std::span<const std::uint8_t>(chunk)};
    for (std::uint64_t i = 0; i < n; ++i) {
      net::Ipv6Address::Bytes address{};
      reader.bytes(address);
      AddressRecord rec;
      rec.address = net::Ipv6Address(address);
      rec.first_seen = reader.u32();
      rec.last_seen = reader.u32();
      rec.count = reader.u32();
      rec.vantage_mask = reader.u32();
      if (rec.count == 0) {
        throw std::runtime_error("corpus snapshot: empty record");
      }
      if (rec.count > std::numeric_limits<std::uint64_t>::max() -
                          observations_seen) {
        throw std::runtime_error(
            "corpus snapshot: observation count overflow");
      }
      corpus.add_record(rec);
      observations_seen += rec.count;
    }
    remaining -= n;
  }

  if (v2) {
    std::array<std::uint8_t, 4> crc_bytes{};
    if (!read_exact(crc_bytes.data(), crc_bytes.size())) {
      throw std::runtime_error("corpus snapshot: truncated");
    }
    proto::BufferReader crc_reader{std::span<const std::uint8_t>(crc_bytes)};
    if (crc_reader.u32() != records_crc) {
      throw std::runtime_error("corpus snapshot: records CRC mismatch");
    }
  }
  if (observations_seen != observations) {
    throw std::runtime_error("corpus snapshot: observation count mismatch");
  }
  if (in.peek() != std::char_traits<char>::eof()) {
    throw std::runtime_error("corpus snapshot: trailing bytes");
  }
  return corpus;
}

}  // namespace v6::hitlist
