// An immutable, epoch-stamped query snapshot of a hitlist corpus.
//
// The serving layer's unit of publication: one Snapshot is built at a
// collection merge barrier from the canonicalized record stream (an
// in-memory Corpus or the out-of-core TieredCorpus, both behind
// analysis::ScanSource) and never mutated afterwards. Readers may hold a
// shared_ptr to it for as long as they like — queries against a given
// epoch are a pure function of that epoch's content, bit-identical at any
// reader or ingest thread count (the QueryService swap is the only moving
// part).
//
// Four query families, all answered from flat sorted tables built in one
// pass over the ascending record stream:
//   * point          — is this address known? (full AddressRecord back)
//   * /48 density    — unique addresses inside a /48
//   * /64 entropy    — per-band IID-entropy breakdown of a /64
//   * EUI-64 risk    — per-OUI MAC exposure (the paper's §5 tracking risk)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "hitlist/corpus.h"
#include "net/entropy.h"
#include "net/ipv6.h"
#include "net/mac.h"
#include "util/sim_time.h"

namespace v6::analysis {
struct ScanSource;
}  // namespace v6::analysis

namespace v6::serve {

// Per-band address counts of one /64 (the Fig 1 bands, scoped to a
// subnet). `addresses == low + medium + high`.
struct Slash64Summary {
  std::uint64_t addresses = 0;
  std::uint64_t low = 0;
  std::uint64_t medium = 0;
  std::uint64_t high = 0;
  std::uint64_t eui64 = 0;  // EUI-64-shaped subset (counted inside a band)

  // Majority entropy band; ties resolve to the lower band (a /64 with as
  // many structured as random IIDs is treated as the more scannable one).
  net::EntropyBand dominant() const noexcept {
    if (low >= medium && low >= high) return net::EntropyBand::kLow;
    if (medium >= high) return net::EntropyBand::kMedium;
    return net::EntropyBand::kHigh;
  }
};

// Per-OUI EUI-64 exposure: how many addresses leak MACs of this vendor
// prefix, and how many of those MACs are trackable across subnets
// (appear in >= 2 distinct /64s — the paper's §5.2 gate).
struct OuiRisk {
  std::uint64_t eui64_addresses = 0;
  std::uint64_t unique_macs = 0;
  std::uint64_t trackable_macs = 0;
  std::uint64_t mac_slash64_pairs = 0;  // distinct (MAC, /64) sightings
};

class Snapshot {
 public:
  // Builds a snapshot from the ascending record stream of `src` (the
  // ScanSource contract: concatenating visit_blocks() over [0, span) yields
  // records in ascending address order — a canonicalized Corpus or any
  // TieredCorpus qualifies). Single-threaded; call at a merge barrier.
  static std::shared_ptr<const Snapshot> build(const analysis::ScanSource& src,
                                               std::uint64_t epoch,
                                               util::SimTime as_of);

  std::uint64_t epoch() const noexcept { return epoch_; }
  util::SimTime as_of() const noexcept { return as_of_; }
  std::uint64_t records() const noexcept { return records_.size(); }
  std::uint64_t observations() const noexcept { return observations_; }

  // Point query: the full record for `address`, or nullopt when unknown.
  std::optional<hitlist::AddressRecord> find(
      const net::Ipv6Address& address) const noexcept;
  bool contains(const net::Ipv6Address& address) const noexcept {
    return find(address).has_value();
  }

  // Unique addresses inside the /48 containing `address`.
  std::uint64_t slash48_density(const net::Ipv6Address& address) const noexcept;

  // Entropy breakdown of the /64 containing `address`, or nullptr when the
  // snapshot holds no address in that subnet.
  const Slash64Summary* slash64(const net::Ipv6Address& address) const noexcept;

  // EUI-64 risk for a vendor OUI, or nullptr when no EUI-64 address of
  // that OUI is known.
  const OuiRisk* oui_risk(net::Oui oui) const noexcept;

  // Distinct key counts, for capacity summaries.
  std::size_t slash48_count() const noexcept { return slash48_.size(); }
  std::size_t slash64_count() const noexcept { return slash64_.size(); }
  std::size_t oui_count() const noexcept { return oui_.size(); }

  // FNV-1a fold over every answer table, computed once at build time: two
  // snapshots answer every query identically iff their digests match (the
  // bit-identity handle the bench and tests assert on).
  std::uint64_t digest() const noexcept { return digest_; }

  // Heap footprint of the answer tables (the quantity the retention bound
  // in QueryService is budgeting).
  std::size_t memory_bytes() const noexcept;

 private:
  struct Slash48Row {
    std::uint64_t key = 0;  // top 48 bits of hi64, right-aligned
    std::uint64_t count = 0;
  };
  struct Slash64Row {
    std::uint64_t hi = 0;  // the /64's network half
    Slash64Summary summary;
  };
  struct OuiRow {
    std::uint32_t oui = 0;
    OuiRisk risk;
  };

  std::uint64_t epoch_ = 0;
  util::SimTime as_of_ = 0;
  std::uint64_t observations_ = 0;
  std::uint64_t digest_ = 0;
  // All ascending by key; queries binary-search.
  std::vector<hitlist::AddressRecord> records_;
  std::vector<Slash48Row> slash48_;
  std::vector<Slash64Row> slash64_;
  std::vector<OuiRow> oui_;
};

}  // namespace v6::serve
