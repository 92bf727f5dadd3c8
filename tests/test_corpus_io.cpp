#include <gtest/gtest.h>

#include <sstream>

#include "hitlist/corpus_io.h"
#include "proto/buffer.h"
#include "proto/crc32.h"
#include "util/rng.h"

namespace v6 {
namespace {

net::Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return net::Ipv6Address::from_u64(hi, lo);
}

// One 32-byte snapshot record, any field values (forged ones included).
void put_record(proto::BufferWriter& writer, const net::Ipv6Address& address,
                std::uint32_t first_seen, std::uint32_t last_seen,
                std::uint32_t count, std::uint32_t vantage_mask) {
  writer.bytes(address.bytes());
  writer.u32(first_seen);
  writer.u32(last_seen);
  writer.u32(count);
  writer.u32(vantage_mask);
}

// A v2 snapshot around an arbitrary (possibly forged) header and record
// section, with both CRCs valid: a hostile-input test then reaches the
// semantic check it targets instead of failing on a checksum.
std::stringstream v2_snapshot(std::uint64_t records,
                              std::uint64_t observations,
                              const proto::BufferWriter& payload) {
  proto::BufferWriter writer;
  const char magic[8] = {'V', '6', 'C', 'O', 'R', 'P', '0', '2'};
  writer.bytes(std::span(reinterpret_cast<const std::uint8_t*>(magic), 8));
  writer.u64(records);
  writer.u64(observations);
  writer.u32(proto::crc32(std::span(writer.data()).subspan(8, 16)));
  writer.bytes(payload.data());
  writer.u32(proto::crc32(payload.data()));
  std::stringstream stream;
  stream.write(reinterpret_cast<const char*>(writer.data().data()),
               static_cast<std::streamsize>(writer.size()));
  return stream;
}

// Loading `stream` must throw std::runtime_error naming `reason`.
void expect_load_error(std::stringstream& stream, const std::string& reason) {
  try {
    hitlist::load_corpus(stream);
    ADD_FAILURE() << "loaded; expected: " << reason;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

TEST(CorpusIo, SaveLoadRoundTrip) {
  hitlist::Corpus corpus;
  util::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    corpus.add(addr(rng.next(), rng.next()),
               static_cast<util::SimTime>(rng.bounded(1 << 24)),
               static_cast<std::uint8_t>(rng.bounded(27)));
  }
  // Re-observe some addresses so counts and masks exercise merging.
  corpus.add(addr(1, 1), 10, 1);
  corpus.add(addr(1, 1), 99999, 2);

  std::stringstream stream;
  const auto bytes = hitlist::save_corpus(stream, corpus);
  // v2 layout: magic + header + header CRC + records + records CRC.
  EXPECT_EQ(bytes, 8u + 16 + 4 + corpus.size() * 32 + 4);

  const auto loaded = hitlist::load_corpus(stream);
  EXPECT_EQ(loaded.size(), corpus.size());
  EXPECT_EQ(loaded.total_observations(), corpus.total_observations());
  for (const auto& rec : corpus.records()) {
    const auto* other = loaded.find(rec.address);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->first_seen, rec.first_seen);
    EXPECT_EQ(other->last_seen, rec.last_seen);
    EXPECT_EQ(other->count, rec.count);
    EXPECT_EQ(other->vantage_mask, rec.vantage_mask);
  }
}

TEST(CorpusIo, EmptyCorpusRoundTrips) {
  hitlist::Corpus corpus;
  std::stringstream stream;
  hitlist::save_corpus(stream, corpus);
  EXPECT_EQ(hitlist::load_corpus(stream).size(), 0u);
}

TEST(CorpusIo, RejectsBadMagic) {
  std::stringstream stream("NOTACORP........");
  EXPECT_THROW(hitlist::load_corpus(stream), std::runtime_error);
}

TEST(CorpusIo, RejectsTruncation) {
  hitlist::Corpus corpus;
  corpus.add(addr(1, 2), 5, 0);
  std::stringstream stream;
  hitlist::save_corpus(stream, corpus);
  const std::string full = stream.str();
  for (std::size_t cut : {9ul, 20ul, full.size() - 1}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW(hitlist::load_corpus(truncated), std::runtime_error);
  }
}

TEST(CorpusIo, RejectsTrailingGarbage) {
  hitlist::Corpus corpus;
  corpus.add(addr(1, 2), 5, 0);
  std::stringstream stream;
  hitlist::save_corpus(stream, corpus);
  stream << "extra";
  EXPECT_THROW(hitlist::load_corpus(stream), std::runtime_error);
}

TEST(CorpusIo, RejectsTruncationAtEveryByteOffset) {
  // A crash mid-checkpoint can cut the snapshot anywhere: in the magic,
  // the header, the header CRC, mid-record, or inside the trailer CRC.
  // Every strict prefix must throw instead of loading a partial corpus.
  hitlist::Corpus corpus;
  corpus.add(addr(0xaaaa, 1), 5, 0);
  corpus.add(addr(0xbbbb, 2), 9, 1);
  corpus.add(addr(0xcccc, 3), 12, 2);
  std::stringstream stream;
  hitlist::save_corpus(stream, corpus);
  const std::string full = stream.str();
  ASSERT_EQ(full.size(), 8u + 16 + 4 + 3 * 32 + 4);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW(hitlist::load_corpus(truncated), std::runtime_error)
        << "prefix of " << cut << " bytes loaded";
  }
  std::stringstream intact(full);
  EXPECT_EQ(hitlist::load_corpus(intact).size(), 3u);
}

TEST(CorpusIo, DetectsSingleByteCorruptionViaCrc) {
  hitlist::Corpus corpus;
  corpus.add(addr(0x1234, 1), 5, 0);
  corpus.add(addr(0x5678, 2), 9, 3);
  std::stringstream stream;
  hitlist::save_corpus(stream, corpus);
  const std::string full = stream.str();

  const auto corrupt_at = [&](std::size_t offset) {
    std::string bad = full;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x40);
    std::stringstream s(bad);
    EXPECT_THROW(hitlist::load_corpus(s), std::runtime_error)
        << "flip at byte " << offset << " loaded";
  };
  corrupt_at(9);                // record count (header CRC catches it)
  corrupt_at(17);               // observation count
  corrupt_at(25);               // the header CRC itself
  // A flipped vantage_mask byte would parse as a plausible corpus without
  // the records-section CRC; the trailer must catch it.
  corrupt_at(full.size() - 5);  // last record byte
  corrupt_at(full.size() - 1);  // the trailer CRC itself
  corrupt_at(8 + 16 + 4 + 16);  // first record's first_seen field
}

TEST(CorpusIo, RejectsVersion1Magic) {
  // V6CORP01 (no CRC sections) is no longer a readable format: a
  // well-formed v1 file must fail on its magic, not load unchecked.
  proto::BufferWriter writer;
  const char magic[8] = {'V', '6', 'C', 'O', 'R', 'P', '0', '1'};
  writer.bytes(std::span(reinterpret_cast<const std::uint8_t*>(magic), 8));
  writer.u64(1);  // one record
  writer.u64(4);  // four observations
  put_record(writer, addr(0xdead, 0xbeef), 100, 900, 4, 0b101);
  std::stringstream stream;
  stream.write(reinterpret_cast<const char*>(writer.data().data()),
               static_cast<std::streamsize>(writer.size()));
  expect_load_error(stream, "bad magic");
}

TEST(CorpusIo, RejectsOversizedRecordCountBeforeAllocating) {
  // A hostile header can claim any record count; the loader must fail on
  // the payload that is actually there instead of allocating a table for
  // the claim. These counts would demand hundreds of GiB (or overflow the
  // byte-size arithmetic entirely) if the claim sized an allocation.
  proto::BufferWriter payload;  // exactly one record
  put_record(payload, addr(0, 1), 0, 0, 1, 0);
  for (const std::uint64_t claimed :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 61,
        std::uint64_t{0xffffffffffffffff}, std::uint64_t{2}}) {
    SCOPED_TRACE(claimed);
    auto stream = v2_snapshot(claimed, 1, payload);
    expect_load_error(stream, "truncated");
  }
}

TEST(CorpusIo, RejectsZeroCountRecord) {
  // count == 0 is unrepresentable by any add() sequence; a snapshot
  // carrying one is forged or corrupt.
  proto::BufferWriter payload;
  put_record(payload, addr(1, 2), 5, 5, /*count=*/0, 1);
  // Zero observations: consistent with the forged count.
  auto stream = v2_snapshot(1, 0, payload);
  expect_load_error(stream, "empty record");
}

TEST(CorpusIo, RejectsObservationTotalMismatch) {
  // The header's observation total must equal the sum of record counts —
  // the check a wrapping u64 accumulator used to make forgeable. (The sum
  // itself cannot overflow with any snapshot small enough to store, but
  // the guard plus this equality keeps the invariant airtight.)
  proto::BufferWriter payload;
  put_record(payload, addr(1, 2), 5, 9, /*count=*/3, 1);
  auto stream = v2_snapshot(1, /*observations=*/99, payload);
  expect_load_error(stream, "observation count mismatch");
}

TEST(CorpusIo, StreamLoaderRejectsTruncatedPrefixes) {
  // Cuts through a 300-record snapshot — in the magic, the header, the
  // records and the trailer — must each throw, never load a partial
  // corpus.
  hitlist::Corpus corpus;
  util::Rng rng(21);
  for (int i = 0; i < 300; ++i) {
    corpus.add(addr(rng.next(), rng.next()),
               static_cast<util::SimTime>(rng.bounded(1 << 20)),
               static_cast<std::uint8_t>(rng.bounded(27)));
  }
  std::stringstream saved(std::ios::in | std::ios::out | std::ios::binary);
  hitlist::save_corpus(saved, corpus);
  const std::string bytes = saved.str();

  for (const std::size_t len : {std::size_t{0}, std::size_t{5},
                                std::size_t{8}, std::size_t{27},
                                bytes.size() / 2, bytes.size() - 1}) {
    std::stringstream cut(bytes.substr(0, len),
                          std::ios::in | std::ios::binary);
    EXPECT_THROW(hitlist::load_corpus(cut), std::runtime_error)
        << "stream length " << len;
  }
  std::stringstream intact(bytes, std::ios::in | std::ios::binary);
  EXPECT_EQ(hitlist::load_corpus(intact).size(), corpus.size());
}

TEST(CorpusIo, StreamLoaderHandlesMultiChunkSnapshots) {
  // Past the 8192-record chunk boundary the loader reads several chunks
  // and chains the CRC across them.
  hitlist::Corpus corpus;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    corpus.add(addr(i / 7, i * 0x9e3779b97f4a7c15ull), 5, 0);
  }
  std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
  hitlist::save_corpus(stream, corpus);
  const auto loaded = hitlist::load_corpus(stream);
  EXPECT_EQ(loaded.size(), corpus.size());
  EXPECT_EQ(loaded.total_observations(), corpus.total_observations());
}

TEST(CorpusIo, SnapshotWriterEnforcesDeclaredRecordCount) {
  hitlist::AddressRecord rec;
  rec.address = addr(1, 1);
  rec.first_seen = rec.last_seen = 1;
  rec.count = 1;
  {
    std::stringstream out(std::ios::out | std::ios::binary);
    hitlist::CorpusSnapshotWriter writer(out, /*records=*/2,
                                         /*observations=*/2);
    writer.append(rec);
    EXPECT_THROW(writer.finish(), std::logic_error);  // one short
  }
  {
    std::stringstream out(std::ios::out | std::ios::binary);
    hitlist::CorpusSnapshotWriter writer(out, 1, 1);
    writer.append(rec);
    writer.finish();
    EXPECT_THROW(writer.finish(), std::logic_error);  // double finish
  }
}

}  // namespace
}  // namespace v6
