// Corpus: the aggregated observation store behind every dataset in the
// study (the NTP corpus, the simulated IPv6 Hitlist, the CAIDA campaign).
//
// Billions-of-addresses scale (paper) maps to millions here, so the store
// is a cache-friendly dense table: records live contiguously in insertion
// order in `records_`, and an open-addressing index of u32 record ids
// (linear probing, power-of-two capacity, load factor <= ~0.66) maps
// addresses to them. Per address it keeps exactly what the analyses need —
// first/last sighting, observation count, vantage bitmask — so collection
// is O(1) memory per *unique address*, not per observation.
//
// The dense layout is what the out-of-core engine (tiered_corpus.h) builds
// on: after canonicalize() the record array IS the ascending-address
// stream, so an in-memory scan and a k-way merge over spilled runs visit
// records in the identical order — the bit-identity contract.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "net/ipv6.h"
#include "util/sim_time.h"

namespace v6::hitlist {

struct AddressRecord {
  net::Ipv6Address address;
  std::uint32_t first_seen = 0;  // seconds since study epoch
  std::uint32_t last_seen = 0;
  std::uint32_t count = 0;
  // Bit v set: seen at vantage v, for v < 31. Bit 31 is the overflow
  // bucket: a sighting from any vantage >= 31 sets it, so no observation
  // is ever silently dropped from the mask (the study runs 27 vantages;
  // the bucket only matters for configs beyond the mask's width).
  std::uint32_t vantage_mask = 0;

  util::SimDuration lifetime() const noexcept {
    return static_cast<util::SimDuration>(last_seen) - first_seen;
  }
};

// Folds `from` into `into`, two aggregates of the same address: min
// first_seen, max last_seen, count summed (wrapping at u32 like +=),
// vantage masks OR'd. The one aggregation rule: Corpus::add_record and
// the k-way merge over spilled runs (merge_record_streams) both fold
// through it, which is what keeps the two backends field-for-field equal.
inline void fold_record(AddressRecord& into,
                        const AddressRecord& from) noexcept {
  into.first_seen = std::min(into.first_seen, from.first_seen);
  into.last_seen = std::max(into.last_seen, from.last_seen);
  into.count += from.count;
  into.vantage_mask |= from.vantage_mask;
}

class Corpus {
 public:
  explicit Corpus(std::size_t expected_addresses = 1 << 16);

  // A moved-from Corpus is empty but fully usable: find() answers
  // nullptr and the next add() lazily re-creates a minimal table (the
  // default-move alternative left an empty index vector that find()/add()
  // would index into — UB).
  Corpus(Corpus&& other) noexcept;
  Corpus& operator=(Corpus&& other) noexcept;
  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;

  // Records one sighting. `t` is clamped into u32 seconds: negative times
  // clamp to 0 and times past 2^32-1 saturate at UINT32_MAX (truncating
  // instead would wrap first_seen/last_seen and manufacture negative
  // lifetimes). `vantage` sets bit min(vantage, 31) of the record's
  // vantage_mask — out-of-range vantages land in the bit-31 overflow
  // bucket rather than being dropped.
  void add(const net::Ipv6Address& address, util::SimTime t,
           std::uint8_t vantage = 0);

  // Merges every record of `other` into *this.
  void merge(const Corpus& other);

  // Merges one pre-aggregated record (same semantics as merge()).
  void add_record(const AddressRecord& record);

  // Merges a contiguous block of pre-aggregated records (same semantics
  // as add_record over each, in order). The hot path for block handoff:
  // addresses are hashed through the batch kernel
  // (kernels::ipv6_hash_batch) a block at a time instead of one indirect
  // hash call per record. Backend-independent: both kernel backends are
  // bit-identical, so probe sequences — and therefore the table layout —
  // never depend on the dispatch choice.
  void add_block(std::span<const AddressRecord> block);

  const AddressRecord* find(const net::Ipv6Address& address) const noexcept;

  // Re-sorts the record array into ascending address order (and rebuilds
  // the index). Records land in records() in first-insertion order, so
  // the raw layout — and with it iteration order and save_corpus()
  // bytes — depends on the order sightings arrived. Canonicalizing makes
  // the layout a pure function of the stored content; collection calls
  // this at its final merge barrier so chunk grids (checkpoints, timeline
  // sampling) and shard counts change no output byte. It also aligns the
  // in-memory visit order with the ascending-address stream a k-way merge
  // over spilled runs produces.
  void canonicalize();

  std::size_t size() const noexcept { return records_.size(); }
  std::uint64_t total_observations() const noexcept { return observations_; }

  // The dense record array, in insertion order (ascending address order
  // after canonicalize()): the one way to iterate a corpus. A sub-span is
  // itself a contiguous block, which is how analysis::make_source shards
  // it and how whole blocks reach the batch kernels. Pointers/spans are
  // invalidated by any mutation.
  std::span<const AddressRecord> records() const noexcept {
    return records_;
  }

  // Heap footprint of the table (records + index), the quantity the
  // collector's spill budget meters.
  std::size_t memory_bytes() const noexcept {
    return records_.capacity() * sizeof(AddressRecord) +
           index_.capacity() * sizeof(std::uint32_t);
  }

  // Smallest power-of-two index capacity keeping `expected` records at or
  // below ~0.66 load. Public because the overflow regression test drives
  // it with paper-scale (near SIZE_MAX) inputs: the naive
  // `cap * 2 < expected * 3` form wrapped and looped forever.
  static std::size_t index_capacity_for(std::size_t expected) noexcept;

 private:
  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

  // Index slot holding `address`'s record id, or the empty slot where it
  // would go. The two-argument form takes the precomputed address hash
  // (the batch-insert path hashes whole blocks up front).
  std::uint32_t* lookup_slot(const net::Ipv6Address& address) noexcept;
  std::uint32_t* lookup_slot(const net::Ipv6Address& address,
                             std::uint64_t hash) noexcept;
  // add_record with the hash already in hand (does NOT bump
  // observations_; callers account for it).
  void merge_record_hashed(const AddressRecord& record, std::uint64_t hash);
  void grow_index();
  void rebuild_index(std::size_t capacity);
  // Re-creates a minimal table after a move emptied this corpus.
  void revive_if_moved_from();

  std::vector<AddressRecord> records_;
  std::vector<std::uint32_t> index_;
  std::size_t index_mask_ = 0;
  std::uint64_t observations_ = 0;
};

}  // namespace v6::hitlist
