#include <gtest/gtest.h>

#include <sstream>

#include "hitlist/corpus_io.h"
#include "proto/buffer.h"
#include "util/rng.h"

namespace v6 {
namespace {

net::Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return net::Ipv6Address::from_u64(hi, lo);
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

TEST(CorpusIo, LoadsVersion1SnapshotsWithoutCrcSections) {
  // Snapshots written before the CRC format bump: magic V6CORP01, header,
  // raw records, no checksums. They must keep loading.
  proto::BufferWriter writer;
  const char magic[8] = {'V', '6', 'C', 'O', 'R', 'P', '0', '1'};
  writer.bytes(std::span(reinterpret_cast<const std::uint8_t*>(magic), 8));
  writer.u64(1);  // one record
  writer.u64(4);  // four observations
  const auto address = addr(0xdead, 0xbeef);
  writer.bytes(address.bytes());
  writer.u32(100);  // first_seen
  writer.u32(900);  // last_seen
  writer.u32(4);    // count
  writer.u32(0b101);  // vantage_mask
  std::stringstream stream;
  stream.write(reinterpret_cast<const char*>(writer.data().data()),
               static_cast<std::streamsize>(writer.size()));

  const auto loaded = hitlist::load_corpus(stream);
  ASSERT_EQ(loaded.size(), 1u);
  const auto* rec = loaded.find(address);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->first_seen, 100u);
  EXPECT_EQ(rec->last_seen, 900u);
  EXPECT_EQ(rec->count, 4u);
  EXPECT_EQ(rec->vantage_mask, 0b101u);
  EXPECT_EQ(loaded.total_observations(), 4u);
}

TEST(CorpusIo, RejectsOversizedRecordCountBeforeAllocating) {
  // A hostile header can claim any record count; the loader must reject
  // it from the payload size alone instead of allocating a table for it.
  // These counts would demand hundreds of GiB (or overflow the byte-size
  // arithmetic entirely) if the check ran after the allocation.
  for (const std::uint64_t claimed :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 61,
        std::uint64_t{0xffffffffffffffff}, std::uint64_t{2}}) {
    proto::BufferWriter writer;
    const char magic[8] = {'V', '6', 'C', 'O', 'R', 'P', '0', '1'};
    writer.bytes(
        std::span(reinterpret_cast<const std::uint8_t*>(magic), 8));
    writer.u64(claimed);  // record count
    writer.u64(1);        // observation count
    // Payload for exactly one record.
    for (int i = 0; i < 32; ++i) writer.u8(i == 15 ? 1 : 0);
    std::stringstream stream;
    stream.write(reinterpret_cast<const char*>(writer.data().data()),
                 static_cast<std::streamsize>(writer.size()));
    EXPECT_THROW(hitlist::load_corpus(stream), std::runtime_error)
        << "claimed record count " << claimed;
  }
}

TEST(CorpusIo, RejectsZeroCountRecord) {
  // count == 0 is unrepresentable by any add() sequence; a snapshot
  // carrying one is forged or corrupt.
  proto::BufferWriter writer;
  const char magic[8] = {'V', '6', 'C', 'O', 'R', 'P', '0', '1'};
  writer.bytes(std::span(reinterpret_cast<const std::uint8_t*>(magic), 8));
  writer.u64(1);  // one record
  writer.u64(0);  // zero observations (consistent with the forged count)
  writer.bytes(addr(1, 2).bytes());
  writer.u32(5);  // first_seen
  writer.u32(5);  // last_seen
  writer.u32(0);  // count: impossible
  writer.u32(1);  // vantage_mask
  std::stringstream stream;
  stream.write(reinterpret_cast<const char*>(writer.data().data()),
               static_cast<std::streamsize>(writer.size()));
  EXPECT_THROW(hitlist::load_corpus(stream), std::runtime_error);
}

TEST(CorpusIo, RejectsObservationTotalMismatch) {
  // The header's observation total must equal the sum of record counts —
  // the check a wrapping u64 accumulator used to make forgeable. (The sum
  // itself cannot overflow with any snapshot small enough to store, but
  // the guard plus this equality keeps the invariant airtight.)
  proto::BufferWriter writer;
  const char magic[8] = {'V', '6', 'C', 'O', 'R', 'P', '0', '1'};
  writer.bytes(std::span(reinterpret_cast<const std::uint8_t*>(magic), 8));
  writer.u64(1);   // one record
  writer.u64(99);  // header claims 99 observations
  writer.bytes(addr(1, 2).bytes());
  writer.u32(5);
  writer.u32(9);
  writer.u32(3);  // record carries 3
  writer.u32(1);
  std::stringstream stream;
  stream.write(reinterpret_cast<const char*>(writer.data().data()),
               static_cast<std::streamsize>(writer.size()));
  EXPECT_THROW(hitlist::load_corpus(stream), std::runtime_error);
}

TEST(CorpusIo, StreamLoaderAgreesWithSpanLoader) {
  // The chunked istream loader and the one-shot span loader are two
  // implementations of the same format: equal corpora from intact bytes,
  // and a throw from every truncation for both.
  hitlist::Corpus corpus;
  util::Rng rng(21);
  for (int i = 0; i < 300; ++i) {
    corpus.add(addr(rng.next(), rng.next()),
               static_cast<util::SimTime>(rng.bounded(1 << 20)),
               static_cast<std::uint8_t>(rng.bounded(27)));
  }
  proto::BufferWriter writer;
  hitlist::save_corpus(writer, corpus);
  const std::string bytes(reinterpret_cast<const char*>(
                              writer.data().data()),
                          writer.size());

  std::stringstream stream(bytes, std::ios::in | std::ios::binary);
  const auto from_stream = hitlist::load_corpus(stream);
  const auto from_span = hitlist::load_corpus(writer.data());
  ASSERT_EQ(from_stream.size(), from_span.size());
  EXPECT_EQ(from_stream.total_observations(),
            from_span.total_observations());
  for (const auto& rec : from_span.records()) {
    const auto* other = from_stream.find(rec.address);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->count, rec.count);
    EXPECT_EQ(other->first_seen, rec.first_seen);
  }

  for (const std::size_t len : {std::size_t{0}, std::size_t{5},
                                std::size_t{8}, std::size_t{27},
                                bytes.size() / 2, bytes.size() - 1}) {
    std::stringstream cut(bytes.substr(0, len),
                          std::ios::in | std::ios::binary);
    EXPECT_THROW(hitlist::load_corpus(cut), std::runtime_error)
        << "stream length " << len;
    const auto span = std::span<const std::uint8_t>(writer.data()).subspan(0, len);
    EXPECT_THROW(hitlist::load_corpus(span), std::runtime_error)
        << "span length " << len;
  }
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
