#include "hitlist/corpus.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <stdexcept>

#include "kernels/batch.h"

namespace v6::hitlist {

namespace {

// Hostile or merely optimistic `expected_addresses` values must not let a
// constructor allocate unbounded memory up front; growth is amortized
// doubling past this point anyway.
constexpr std::size_t kMaxEagerReserve = std::size_t{1} << 20;

// Records hashed per batch-kernel call on the insert/rebuild paths.
constexpr std::size_t kHashChunk = 1024;

// The batch hash kernel walks the address bytes of a record array with a
// byte stride, which requires the address to sit at offset 0 and the
// Ipv6Address representation to be exactly its 16 raw bytes.
static_assert(sizeof(net::Ipv6Address) == 16);
static_assert(offsetof(AddressRecord, address) == 0);

const std::uint8_t* address_bytes(const AddressRecord* rec) noexcept {
  return reinterpret_cast<const std::uint8_t*>(rec);
}

}  // namespace

std::size_t Corpus::index_capacity_for(std::size_t expected) noexcept {
  std::size_t cap = 64;
  // Keep the load factor at or below ~0.66: grow while 3 * expected >
  // 2 * cap, phrased without multiplication so paper-scale `expected`
  // (> SIZE_MAX / 3) cannot wrap. cap - cap / 3 == floor(2 * cap / 3) + 1
  // for the power-of-two capacities this loop visits (never divisible by
  // 3), so the comparison is exact.
  while (expected >= cap - cap / 3) {
    if (cap > (std::numeric_limits<std::size_t>::max() >> 1)) break;
    cap <<= 1;
  }
  return cap;
}

Corpus::Corpus(std::size_t expected_addresses) {
  const std::size_t eager = std::min(expected_addresses, kMaxEagerReserve);
  records_.reserve(eager);
  const std::size_t cap = index_capacity_for(eager);
  index_.assign(cap, kEmptySlot);
  index_mask_ = cap - 1;
}

Corpus::Corpus(Corpus&& other) noexcept
    : records_(std::move(other.records_)),
      index_(std::move(other.index_)),
      index_mask_(other.index_mask_),
      observations_(other.observations_) {
  other.records_.clear();
  other.index_.clear();
  other.index_mask_ = 0;
  other.observations_ = 0;
}

Corpus& Corpus::operator=(Corpus&& other) noexcept {
  if (this != &other) {
    records_ = std::move(other.records_);
    index_ = std::move(other.index_);
    index_mask_ = other.index_mask_;
    observations_ = other.observations_;
    other.records_.clear();
    other.index_.clear();
    other.index_mask_ = 0;
    other.observations_ = 0;
  }
  return *this;
}

std::uint32_t* Corpus::lookup_slot(const net::Ipv6Address& address) noexcept {
  return lookup_slot(address, net::Ipv6AddressHash{}(address));
}

std::uint32_t* Corpus::lookup_slot(const net::Ipv6Address& address,
                                   std::uint64_t hash) noexcept {
  std::size_t i = static_cast<std::size_t>(hash) & index_mask_;
  while (true) {
    std::uint32_t& slot = index_[i];
    if (slot == kEmptySlot || records_[slot].address == address) return &slot;
    i = (i + 1) & index_mask_;
  }
}

void Corpus::revive_if_moved_from() {
  if (index_.empty()) {
    index_.assign(64, kEmptySlot);
    index_mask_ = 63;
  }
}

void Corpus::add(const net::Ipv6Address& address, util::SimTime t,
                 std::uint8_t vantage) {
  // Clamp into u32 seconds, saturating at both ends: truncation would
  // wrap times >= 2^32 and corrupt first_seen/last_seen ordering.
  const auto ts = static_cast<std::uint32_t>(std::clamp<util::SimTime>(
      t, 0, std::numeric_limits<std::uint32_t>::max()));
  // Clamp into the mask: vantages past the width share bit 31 (see the
  // vantage_mask contract in the header).
  const std::uint32_t vantage_bit =
      1u << std::min<std::uint8_t>(vantage, 31);
  revive_if_moved_from();
  ++observations_;
  std::uint32_t* slot = lookup_slot(address);
  if (*slot == kEmptySlot) {
    // Division form of `(size + 1) * 3 > capacity * 2`, which wraps for
    // tables within a factor of 3 of SIZE_MAX (cap - cap / 3 ==
    // floor(2 * cap / 3) + 1 for power-of-two capacities).
    if (records_.size() + 1 >= index_.size() - index_.size() / 3) {
      grow_index();
      slot = lookup_slot(address);
    }
    if (records_.size() >= kEmptySlot) {
      throw std::length_error("corpus: record id space exhausted");
    }
    *slot = static_cast<std::uint32_t>(records_.size());
    AddressRecord rec;
    rec.address = address;
    rec.first_seen = ts;
    rec.last_seen = ts;
    rec.count = 1;
    rec.vantage_mask = vantage_bit;
    records_.push_back(rec);
    return;
  }
  AddressRecord& rec = records_[*slot];
  rec.first_seen = std::min(rec.first_seen, ts);
  rec.last_seen = std::max(rec.last_seen, ts);
  ++rec.count;
  rec.vantage_mask |= vantage_bit;
}

void Corpus::merge_record_hashed(const AddressRecord& incoming,
                                 std::uint64_t hash) {
  std::uint32_t* slot = lookup_slot(incoming.address, hash);
  if (*slot == kEmptySlot) {
    if (records_.size() + 1 >= index_.size() - index_.size() / 3) {
      grow_index();
      slot = lookup_slot(incoming.address, hash);
    }
    if (records_.size() >= kEmptySlot) {
      throw std::length_error("corpus: record id space exhausted");
    }
    *slot = static_cast<std::uint32_t>(records_.size());
    records_.push_back(incoming);
  } else {
    fold_record(records_[*slot], incoming);
  }
}

void Corpus::add_record(const AddressRecord& incoming) {
  revive_if_moved_from();
  merge_record_hashed(incoming, net::Ipv6AddressHash{}(incoming.address));
  observations_ += incoming.count;
}

void Corpus::add_block(std::span<const AddressRecord> block) {
  revive_if_moved_from();
  std::uint64_t hashes[kHashChunk];
  for (std::size_t base = 0; base < block.size(); base += kHashChunk) {
    const std::size_t n = std::min(kHashChunk, block.size() - base);
    kernels::ipv6_hash_batch(address_bytes(block.data() + base),
                             sizeof(AddressRecord), n, hashes);
    for (std::size_t i = 0; i < n; ++i) {
      const AddressRecord& incoming = block[base + i];
      merge_record_hashed(incoming, hashes[i]);
      observations_ += incoming.count;
    }
  }
}

void Corpus::merge(const Corpus& other) { add_block(other.records()); }

const AddressRecord* Corpus::find(
    const net::Ipv6Address& address) const noexcept {
  if (index_.empty()) return nullptr;  // moved-from
  std::size_t i = net::Ipv6AddressHash{}(address) & index_mask_;
  while (true) {
    const std::uint32_t slot = index_[i];
    if (slot == kEmptySlot) return nullptr;
    if (records_[slot].address == address) return &records_[slot];
    i = (i + 1) & index_mask_;
  }
}

void Corpus::canonicalize() {
  if (records_.empty()) return;
  std::sort(records_.begin(), records_.end(),
            [](const AddressRecord& a, const AddressRecord& b) {
              return a.address < b.address;
            });
  rebuild_index(index_.size());
}

void Corpus::rebuild_index(std::size_t capacity) {
  index_.assign(capacity, kEmptySlot);
  index_mask_ = capacity - 1;
  // Addresses are unique here, so insertion is probe-and-place with the
  // hashes computed a block at a time by the batch kernel.
  std::uint64_t hashes[kHashChunk];
  for (std::size_t base = 0; base < records_.size(); base += kHashChunk) {
    const std::size_t n = std::min(kHashChunk, records_.size() - base);
    kernels::ipv6_hash_batch(address_bytes(records_.data() + base),
                             sizeof(AddressRecord), n, hashes);
    for (std::size_t r = 0; r < n; ++r) {
      std::size_t i = static_cast<std::size_t>(hashes[r]) & index_mask_;
      while (index_[i] != kEmptySlot) i = (i + 1) & index_mask_;
      index_[i] = static_cast<std::uint32_t>(base + r);
    }
  }
}

void Corpus::grow_index() { rebuild_index(index_.size() * 2); }

}  // namespace v6::hitlist
