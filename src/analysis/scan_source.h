// ScanSource: the record stream abstraction that lets every analysis run
// unchanged over an in-memory Corpus or the out-of-core TieredCorpus.
//
// ParallelScan needs exactly three things from a corpus: a contiguous
// sharding domain [0, span), a way to visit the records of a sub-range in
// order, and (for Table 1's dataset comparison) an optional membership
// test. ScanSource type-erases those three.
//
// Visitation is block-oriented: visit_blocks() streams a sub-range as
// contiguous std::span<const AddressRecord> slices whose concatenation is
// the ascending record stream, so analyses hand whole blocks to the batch
// kernels (kernels/batch.h) instead of paying a type-erased callback per
// record.
//
// The bit-identity contract carries over: concatenating visit_blocks()
// over an ascending partition of [0, span) yields the records in
// ascending address order for both backends — a canonicalized Corpus
// because its record array is sorted, a TieredCorpus because the k-way
// merge emits sorted output — so a kernel that is merge-exact under
// ParallelScan cannot tell the backends apart. Block *boundaries* carry
// no meaning: only the concatenated stream is contractual, and kernels
// must be boundary-oblivious (asserted by tests over ragged block sizes).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "hitlist/corpus.h"
#include "net/ipv6.h"

namespace v6::hitlist {
class TieredCorpus;
}  // namespace v6::hitlist

namespace v6::analysis {

struct ScanSource {
  using BlockFn = std::function<void(std::span<const hitlist::AddressRecord>)>;

  // Sharding domain: ParallelScan partitions [0, span) into contiguous
  // ranges. Record positions for a Corpus, segment indices for runs.
  std::size_t span = 0;
  // Unique records a full visit sees (metrics / sizing, not control flow).
  std::uint64_t records = 0;
  // PRIMARY contract: streams the records of domain sub-range [begin, end)
  // as contiguous blocks, in order. Must be safe to call concurrently on
  // disjoint ranges. Spans are only valid for the duration of the
  // callback.
  std::function<void(std::size_t, std::size_t, const BlockFn&)> visit_blocks;
  // Optional membership probe. Null when point lookups are prohibitive
  // (the tiered engine pays a block decode per probe) — callers needing
  // membership against such a source invert the scan instead (see
  // summarize_dataset).
  std::function<bool(const net::Ipv6Address&)> contains;
};

// In-memory source. The corpus must outlive the source and stay
// unmutated while scans run. The whole record array is contiguous, so a
// sub-range arrives as exactly one block.
inline ScanSource make_source(const hitlist::Corpus& corpus) {
  ScanSource src;
  src.span = corpus.size();
  src.records = corpus.size();
  src.visit_blocks = [&corpus](std::size_t begin, std::size_t end,
                               const ScanSource::BlockFn& fn) {
    end = std::min(end, corpus.size());
    if (begin < end) fn(corpus.records().subspan(begin, end - begin));
  };
  src.contains = [&corpus](const net::Ipv6Address& address) {
    return corpus.find(address) != nullptr;
  };
  return src;
}

// Out-of-core source over the merged run stream. Warms the tiered
// corpus's lazy segment/size caches here, on the calling thread, so the
// returned visit_blocks() is safe for concurrent shard workers.
ScanSource make_source(const hitlist::TieredCorpus& runs);

}  // namespace v6::analysis
