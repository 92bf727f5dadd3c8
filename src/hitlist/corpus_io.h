// Corpus serialization: a compact, versioned binary snapshot so studies
// can be collected once and analyzed many times (or shipped between
// machines). Format v2, the only one:
//
//   magic "V6CORP02"            8 bytes
//   record count                u64 (big-endian like the wire)
//   total observations          u64
//   header CRC32                u32 over the two u64 header fields
//   records: address(16) first_seen(4) last_seen(4) count(4) vantages(4)
//   records CRC32               u32 over the whole records section
//
// The per-section CRC32s (IEEE, see proto::crc32) catch bit rot in
// long-lived checkpoint files, where a flipped count would otherwise load
// as a silently wrong corpus.
//
// One writer (CorpusSnapshotWriter, with save_corpus() on top) and one
// reader (load_corpus()), both streaming in bounded chunks: every saver —
// Study, the out-of-core engine, the checkpoint codec — goes through them.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "hitlist/corpus.h"

namespace v6::hitlist {

// Streams a v2 snapshot record-by-record, so writers that cannot (or must
// not) materialize the whole corpus — the out-of-core engine's save() —
// produce the same bytes as save_corpus() of the equivalent corpus. The
// records CRC is chained across flush chunks (proto::crc32's seed
// parameter), which is exactly the whole-section CRC of the v2 format.
//
// The record and observation totals live in the header, which is written
// up front, so they must be known at construction; finish() throws if the
// append count disagrees (a two-pass writer whose passes diverged must
// fail loudly, not write a snapshot that cannot load).
class CorpusSnapshotWriter {
 public:
  CorpusSnapshotWriter(std::ostream& out, std::uint64_t records,
                       std::uint64_t observations);

  CorpusSnapshotWriter(const CorpusSnapshotWriter&) = delete;
  CorpusSnapshotWriter& operator=(const CorpusSnapshotWriter&) = delete;

  // Appends one record (in the order it should appear in the snapshot).
  void append(const AddressRecord& rec);

  // Flushes the tail chunk and writes the records CRC. Must be called
  // exactly once; returns total bytes written.
  std::size_t finish();

 private:
  void flush_chunk();

  std::ostream* out_;
  std::uint64_t expected_records_;
  std::uint64_t appended_ = 0;
  std::vector<std::uint8_t> chunk_;
  std::uint32_t records_crc_ = 0;
  std::size_t bytes_ = 0;
  bool finished_ = false;
};

// Writes a v2 snapshot; returns bytes written. Streams in bounded chunks
// (via CorpusSnapshotWriter) — peak extra memory is one chunk, not one
// serialized corpus.
std::size_t save_corpus(std::ostream& out, const Corpus& corpus);

// Loads a v2 snapshot, reading the stream in bounded chunks — peak memory
// is the corpus itself plus one chunk, whatever the file size. The
// snapshot must end the stream. Throws std::runtime_error on bad magic
// (any other version included), truncation, CRC mismatch, a zero-count
// record, an observation total that overflows u64 or disagrees with the
// header, or trailing bytes. Note the streaming tradeoff: the records CRC can only
// be verified after the records were parsed, so a corrupt file may
// surface as any of those errors — but never loads.
Corpus load_corpus(std::istream& in);

}  // namespace v6::hitlist
