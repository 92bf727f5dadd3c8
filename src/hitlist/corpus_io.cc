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

constexpr std::array<std::uint8_t, 8> kMagic = {'V', '6', 'C', 'O',
                                                'R', 'P', '0', '2'};
constexpr std::uint64_t kRecordBytes = 32;
// Streaming chunk size, in records (256 KiB of payload): the bound on
// extra memory for chunked save/load, and the CRC chaining granularity.
constexpr std::uint64_t kChunkRecords = 8192;

// Big-endian, like every repo format.
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v));
}

void write_bytes(std::ostream& out, const std::vector<std::uint8_t>& bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("corpus write failed");
}

}  // namespace

CorpusSnapshotWriter::CorpusSnapshotWriter(std::ostream& out,
                                           std::uint64_t records,
                                           std::uint64_t observations)
    : out_(&out), expected_records_(records) {
  std::vector<std::uint8_t> header(kMagic.begin(), kMagic.end());
  put_u64(header, records);
  put_u64(header, observations);
  put_u32(header, proto::crc32(std::span(header).subspan(8, 16)));
  write_bytes(*out_, header);
  bytes_ = header.size();
  chunk_.reserve(kChunkRecords * kRecordBytes);
}

void CorpusSnapshotWriter::append(const AddressRecord& rec) {
  const auto& address = rec.address.bytes();
  chunk_.insert(chunk_.end(), address.begin(), address.end());
  put_u32(chunk_, rec.first_seen);
  put_u32(chunk_, rec.last_seen);
  put_u32(chunk_, rec.count);
  put_u32(chunk_, rec.vantage_mask);
  ++appended_;
  if (chunk_.size() >= kChunkRecords * kRecordBytes) flush_chunk();
}

void CorpusSnapshotWriter::flush_chunk() {
  if (chunk_.empty()) return;
  // Chained CRC over successive chunks equals the one-shot CRC over the
  // whole records section — the v2 trailer contract.
  records_crc_ = proto::crc32(chunk_, records_crc_);
  write_bytes(*out_, chunk_);
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
  std::vector<std::uint8_t> trailer;
  put_u32(trailer, records_crc_);
  write_bytes(*out_, trailer);
  bytes_ += trailer.size();
  return bytes_;
}

std::size_t save_corpus(std::ostream& out, const Corpus& corpus) {
  CorpusSnapshotWriter writer(out, corpus.size(),
                              corpus.total_observations());
  for (const auto& rec : corpus.records()) writer.append(rec);
  return writer.finish();
}

Corpus load_corpus(std::istream& in) {
  const auto read_exact = [&in](std::uint8_t* dst, std::size_t n) {
    in.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
    return static_cast<std::size_t>(in.gcount()) == n;
  };

  std::array<std::uint8_t, 8> magic{};
  if (!read_exact(magic.data(), magic.size()) || magic != kMagic) {
    throw std::runtime_error("corpus snapshot: bad magic");
  }

  // Header: the two counts, then their CRC.
  std::array<std::uint8_t, 20> header{};
  if (!read_exact(header.data(), header.size())) {
    throw std::runtime_error("corpus snapshot: truncated header");
  }
  proto::BufferReader header_reader{std::span<const std::uint8_t>(header)};
  const std::uint64_t records = header_reader.u64();
  const std::uint64_t observations = header_reader.u64();
  if (header_reader.u32() != proto::crc32(std::span(header).first(16))) {
    throw std::runtime_error("corpus snapshot: header CRC mismatch");
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
      // Hostile counts must not wrap the running total: a wrapped sum can
      // collide with the header's observation field and load a forged
      // snapshot as valid.
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

  std::array<std::uint8_t, 4> crc_bytes{};
  if (!read_exact(crc_bytes.data(), crc_bytes.size())) {
    throw std::runtime_error("corpus snapshot: truncated");
  }
  proto::BufferReader crc_reader{std::span<const std::uint8_t>(crc_bytes)};
  if (crc_reader.u32() != records_crc) {
    throw std::runtime_error("corpus snapshot: records CRC mismatch");
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
