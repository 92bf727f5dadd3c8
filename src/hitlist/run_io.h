// Sorted on-disk runs: the storage layer of the out-of-core corpus engine
// (see tiered_corpus.h).
//
// A run file holds a strictly-ascending sequence of pre-aggregated
// AddressRecords, delta-encoded in blocks so paper-scale spills compress
// far below the 32 bytes/record of the in-memory layout. Format V6RUN001:
//
//   magic "V6RUN001"           8 bytes
//   record count               u64   (big-endian, like every repo format)
//   total observations         u64
//   index offset               u64   byte offset of the block index
//   header CRC32               u32   over the three u64 fields
//   blocks                     delta-coded record groups (below)
//   index: block count         u32
//          per block: first address (16), byte offset (u64),
//                     byte length (u32), record count (u32), CRC32 (u32)
//   index CRC32                u32   over the count + entries
//
// Each block encodes up to `block_records` records. The first record of a
// block is absolute (the decoder resets its delta chain there), making
// every block independently decodable — the unit ParallelScan's segment
// domains seek to. Within a block a record is a tag byte plus varints
// (LEB128):
//
//   bit 0  same /64 prefix as the previous record -> only the IID delta
//   bit 1  count == 1                             -> count elided
//   bit 2  last_seen == first_seen                -> last_seen elided
//   bit 3  vantage_mask is a single bit b < 16    -> mask packed in bits 4-7
//
// The split of the 128-bit address into /64 prefix + IID is what makes the
// deltas small: consecutive addresses usually share the prefix (one varint
// for the IID gap) and structured IIDs (low-byte, EUI-64, DHCP-sequential)
// delta to a byte or two. Full-entropy privacy IIDs stay ~9 bytes — that
// is information-theoretic, not a format defect.
//
// Every byte of the file is covered by a CRC32 (header, per block, index),
// mirroring the corpus snapshot v2 contract: the hostile-input tests flip
// and truncate every offset and expect a throw, never a wrong record.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "hitlist/corpus.h"
#include "net/ipv6.h"

namespace v6::hitlist {

struct RunWriterOptions {
  // Records per block: the delta-chain reset interval and the granularity
  // of segment scans. Small values are used by the
  // corruption tests to exercise many blocks on tiny inputs.
  std::uint32_t block_records = 4096;
};

// What RunWriter::finish() reports about the finished file.
struct RunFileStats {
  std::uint64_t records = 0;
  std::uint64_t observations = 0;
  std::uint64_t bytes = 0;  // total file size
  std::uint32_t blocks = 0;
};

// One entry of a run's block index, in file order (ascending addresses).
struct RunBlockInfo {
  net::Ipv6Address first_address;
  std::uint64_t offset = 0;       // absolute byte offset of the block
  std::uint32_t byte_length = 0;  // encoded block size
  std::uint32_t record_count = 0;
  std::uint32_t crc = 0;
};

// Streams strictly-ascending records into `out` (which must be seekable:
// the header's counts and index offset are patched at finish()). Typical
// use: canonicalize a shard corpus, append records(), finish().
class RunWriter {
 public:
  explicit RunWriter(std::ostream& out, RunWriterOptions options = {});
  ~RunWriter();

  RunWriter(const RunWriter&) = delete;
  RunWriter& operator=(const RunWriter&) = delete;

  // Appends one record. Throws std::invalid_argument when `rec.address`
  // is not strictly greater than the previous record's, or rec.count is 0
  // (count == 0 cannot round-trip: the tag packing has no encoding for it
  // and the corpus treats such records as impossible).
  void append(const AddressRecord& rec);

  // Flushes the tail block, writes the index, patches the header. Must be
  // called exactly once; append() is invalid afterwards.
  RunFileStats finish();

 private:
  void flush_block();

  std::ostream* out_;
  RunWriterOptions options_;
  std::vector<std::uint8_t> block_;
  std::vector<RunBlockInfo> index_;
  net::Ipv6Address prev_address_;
  net::Ipv6Address block_first_;
  std::uint32_t block_count_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t observations_ = 0;
  std::uint64_t write_offset_ = 0;
  bool finished_ = false;
};

// Validated view of one run file. Construction reads and CRC-checks the
// header and the block index; record data is checked block-by-block as it
// is streamed. The stream must be seekable and outlive the reader and any
// Cursor obtained from it. Throws std::runtime_error on any malformed
// input (bad magic, truncation, CRC mismatch, non-ascending records,
// trailing bytes).
class RunReader {
 public:
  explicit RunReader(std::istream& in);

  std::uint64_t records() const noexcept { return records_; }
  std::uint64_t observations() const noexcept { return observations_; }
  const std::vector<RunBlockInfo>& blocks() const noexcept { return index_; }

  // Pull-style record stream. next() returns false at end of run.
  class Cursor {
   public:
    bool next(AddressRecord& out);

   private:
    friend class RunReader;
    Cursor(const RunReader* reader, std::size_t block, std::size_t skip);
    void load_block();

    const RunReader* reader_ = nullptr;
    std::size_t block_ = 0;          // next block to load
    std::size_t skip_ = 0;           // records to discard from that block
    std::vector<AddressRecord> decoded_;
    std::size_t pos_ = 0;
  };

  // Cursor over the whole run, in ascending address order.
  Cursor cursor() const { return Cursor(this, 0, 0); }

  // Cursor positioned at the first record with address >= lo.
  Cursor cursor_at(const net::Ipv6Address& lo) const;

 private:
  friend class Cursor;
  // Reads, CRC-checks, and delta-decodes block `b` (validating strict
  // ascent, including against the previous block's bound).
  std::vector<AddressRecord> read_block(std::size_t b) const;

  std::istream* in_;
  std::uint64_t records_ = 0;
  std::uint64_t observations_ = 0;
  std::vector<RunBlockInfo> index_;
};

// A pull stream of ascending, pre-aggregated records; returns false when
// exhausted. The k-way merge consumes any mix of these (run cursors,
// in-memory sorted spans), which is what the run-count-invariance
// property tests exercise directly.
using RecordStream = std::function<bool(AddressRecord&)>;

// K-way merge: emits the union of `streams` in ascending address order,
// aggregating duplicates across streams with fold_record (corpus.h), the
// rule Corpus::add_record uses. Each input stream must itself be strictly
// ascending. Emission stops early when `emit` returns false.
void merge_record_streams(
    std::vector<RecordStream> streams,
    const std::function<bool(const AddressRecord&)>& emit);

}  // namespace v6::hitlist
