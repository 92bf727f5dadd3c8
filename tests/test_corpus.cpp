#include "hitlist/corpus.h"

#include <gtest/gtest.h>

#include <limits>
#include <unordered_map>

#include "util/rng.h"

namespace v6::hitlist {
namespace {

net::Ipv6Address addr(std::uint64_t hi, std::uint64_t lo) {
  return net::Ipv6Address::from_u64(hi, lo);
}

TEST(Corpus, EmptyState) {
  Corpus c;
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.total_observations(), 0u);
  EXPECT_EQ(c.find(addr(1, 1)), nullptr);
}

TEST(Corpus, SingleAddMakesRecord) {
  Corpus c;
  c.add(addr(1, 2), 100, 3);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.total_observations(), 1u);
  const auto* rec = c.find(addr(1, 2));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->first_seen, 100u);
  EXPECT_EQ(rec->last_seen, 100u);
  EXPECT_EQ(rec->count, 1u);
  EXPECT_EQ(rec->vantage_mask, 1u << 3);
  EXPECT_EQ(rec->lifetime(), 0);
}

TEST(Corpus, RepeatSightingsAggregate) {
  Corpus c;
  c.add(addr(1, 2), 500, 0);
  c.add(addr(1, 2), 100, 1);  // earlier (out-of-order arrival)
  c.add(addr(1, 2), 900, 2);
  EXPECT_EQ(c.size(), 1u);
  const auto* rec = c.find(addr(1, 2));
  EXPECT_EQ(rec->first_seen, 100u);
  EXPECT_EQ(rec->last_seen, 900u);
  EXPECT_EQ(rec->count, 3u);
  EXPECT_EQ(rec->vantage_mask, 0b111u);
  EXPECT_EQ(rec->lifetime(), 800);
}

TEST(Corpus, NegativeTimeClampsToZero) {
  Corpus c;
  c.add(addr(1, 2), -50, 0);
  EXPECT_EQ(c.find(addr(1, 2))->first_seen, 0u);
}

TEST(Corpus, Vantage31SetsHighestBit) {
  Corpus c;
  c.add(addr(1, 2), 1, 31);
  EXPECT_EQ(c.find(addr(1, 2))->vantage_mask, 1u << 31);
}

TEST(Corpus, OutOfRangeVantageLandsInOverflowBucket) {
  // The contract: vantages past the mask's width share bit 31 instead of
  // being silently dropped (PassiveCollector forwards obs.vantage
  // unclamped).
  Corpus c;
  c.add(addr(1, 2), 1, 40);
  EXPECT_EQ(c.find(addr(1, 2))->vantage_mask, 1u << 31);
  c.add(addr(1, 2), 2, 255);
  EXPECT_EQ(c.find(addr(1, 2))->vantage_mask, 1u << 31);
  c.add(addr(1, 2), 3, 0);
  EXPECT_EQ(c.find(addr(1, 2))->vantage_mask, (1u << 31) | 1u);
}

TEST(Corpus, IndexCapacityForHugeExpectedDoesNotWrap) {
  // Regression: the load-factor check was `cap * 2 < expected * 3`, which
  // wraps for paper-scale expected (> SIZE_MAX / 3) and looped forever.
  // The division form must terminate and cap at the largest power of two.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  for (const std::size_t expected :
       {kMax, kMax - 1, kMax / 3 * 2, kMax / 3 + 1, std::size_t{1} << 62}) {
    const std::size_t cap = Corpus::index_capacity_for(expected);
    EXPECT_NE(cap, 0u) << expected;
    EXPECT_EQ(cap & (cap - 1), 0u) << expected;  // power of two
    EXPECT_GT(cap, kMax >> 1) << expected;       // topmost power of two
  }
  // Ordinary sizes keep the ~0.66 load contract exactly: 64 holds 42
  // records (42/64 = 0.656), the 43rd forces 128.
  EXPECT_EQ(Corpus::index_capacity_for(0), 64u);
  EXPECT_EQ(Corpus::index_capacity_for(42), 64u);
  EXPECT_EQ(Corpus::index_capacity_for(43), 128u);
}

TEST(Corpus, HostileExpectedAddressesDoesNotEagerAllocate) {
  // A hostile snapshot header can claim SIZE_MAX records; the constructor
  // caps its eager reserve instead of allocating by the claim.
  Corpus c(std::numeric_limits<std::size_t>::max());
  EXPECT_LT(c.memory_bytes(), std::size_t{1} << 27);
  c.add(addr(1, 2), 5, 0);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_NE(c.find(addr(1, 2)), nullptr);
}

TEST(Corpus, AddTimestampSaturatesAtU32Max) {
  // Regression: add() used to truncate SimTime into u32, so a sighting at
  // 2^32 seconds wrapped to 0 and manufactured negative lifetimes. The
  // contract is saturation at both ends.
  constexpr util::SimTime kU32Max =
      static_cast<util::SimTime>(std::numeric_limits<std::uint32_t>::max());
  Corpus c;
  c.add(addr(1, 2), kU32Max, 0);  // the boundary itself is representable
  EXPECT_EQ(c.find(addr(1, 2))->last_seen,
            std::numeric_limits<std::uint32_t>::max());
  c.add(addr(1, 2), kU32Max + 1, 0);  // would wrap to 0 under truncation
  c.add(addr(1, 2), kU32Max + 100000, 0);
  const auto* rec = c.find(addr(1, 2));
  EXPECT_EQ(rec->first_seen, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(rec->last_seen, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(rec->lifetime(), 0);

  // Mixed with an early sighting: the lifetime stays sane instead of the
  // wrapped first_seen == 0 a truncating add produced.
  c.add(addr(1, 2), 10, 0);
  EXPECT_EQ(c.find(addr(1, 2))->first_seen, 10u);
  EXPECT_EQ(c.find(addr(1, 2))->lifetime(),
            static_cast<util::SimDuration>(
                std::numeric_limits<std::uint32_t>::max()) -
                10);
}

TEST(Corpus, GrowsPastInitialCapacity) {
  Corpus c(16);
  util::Rng rng(1);
  std::vector<net::Ipv6Address> addresses;
  for (int i = 0; i < 5000; ++i) {
    addresses.push_back(addr(rng.next(), rng.next()));
    c.add(addresses.back(), i, static_cast<std::uint8_t>(i % 27));
  }
  EXPECT_EQ(c.size(), 5000u);
  for (const auto& a : addresses) {
    EXPECT_NE(c.find(a), nullptr);
  }
}

TEST(Corpus, ForEachVisitsEveryRecordOnce) {
  Corpus c;
  for (std::uint64_t i = 0; i < 100; ++i) c.add(addr(i, i), 1, 0);
  std::size_t visits = 0;
  for ([[maybe_unused]] const auto& rec : c.records()) ++visits;
  EXPECT_EQ(visits, 100u);
}

TEST(Corpus, MergeCombinesAggregates) {
  Corpus a, b;
  a.add(addr(1, 1), 100, 0);
  a.add(addr(2, 2), 200, 1);
  b.add(addr(1, 1), 50, 2);
  b.add(addr(3, 3), 300, 3);
  a.merge(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.total_observations(), 4u);
  const auto* rec = a.find(addr(1, 1));
  EXPECT_EQ(rec->first_seen, 50u);
  EXPECT_EQ(rec->last_seen, 100u);
  EXPECT_EQ(rec->count, 2u);
  EXPECT_EQ(rec->vantage_mask, 0b101u);
}

TEST(Corpus, AddRecordMergesLikeMerge) {
  Corpus corpus;
  corpus.add(addr(1, 1), 100, 0);
  AddressRecord rec;
  rec.address = addr(1, 1);
  rec.first_seen = 50;
  rec.last_seen = 400;
  rec.count = 3;
  rec.vantage_mask = 0b10;
  corpus.add_record(rec);
  const auto* merged = corpus.find(addr(1, 1));
  EXPECT_EQ(merged->first_seen, 50u);
  EXPECT_EQ(merged->last_seen, 400u);
  EXPECT_EQ(merged->count, 4u);
  EXPECT_EQ(merged->vantage_mask, 0b11u);
  EXPECT_EQ(corpus.total_observations(), 4u);

  AddressRecord fresh;
  fresh.address = addr(9, 9);
  fresh.first_seen = fresh.last_seen = 7;
  fresh.count = 2;
  corpus.add_record(fresh);
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.find(addr(9, 9))->count, 2u);
}

TEST(Corpus, MoveTransfersContents) {
  Corpus a;
  a.add(addr(1, 1), 1, 0);
  Corpus b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_NE(b.find(addr(1, 1)), nullptr);
}

TEST(Corpus, MovedFromCorpusIsSafeToUse) {
  // Regression: default moves left the source with an empty slot vector
  // and mask 0, so find()/add() indexed into an empty vector (UB). The
  // moved-from corpus must behave like an empty one and be revivable.
  Corpus a;
  a.add(addr(1, 1), 1, 0);
  Corpus b = std::move(a);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.total_observations(), 0u);
  EXPECT_EQ(a.find(addr(1, 1)), nullptr);
  EXPECT_TRUE(a.records().empty());

  a.add(addr(2, 2), 5, 1);  // revives a minimal table
  EXPECT_EQ(a.size(), 1u);
  ASSERT_NE(a.find(addr(2, 2)), nullptr);
  EXPECT_EQ(a.find(addr(2, 2))->count, 1u);

  // Move assignment resets the source the same way, including the
  // observation total.
  Corpus c;
  c.add(addr(3, 3), 9, 2);
  Corpus d;
  d = std::move(c);
  EXPECT_EQ(c.find(addr(3, 3)), nullptr);
  EXPECT_EQ(c.total_observations(), 0u);
  AddressRecord rec;
  rec.address = addr(4, 4);
  rec.first_seen = rec.last_seen = 2;
  rec.count = 3;
  c.add_record(rec);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.total_observations(), 3u);
  EXPECT_EQ(d.find(addr(3, 3))->count, 1u);
}

// Property the sharded collector relies on: merging K per-shard corpora
// built from a partition of an observation stream equals adding the whole
// interleaved stream into one corpus.
class CorpusShardMergeProperty : public ::testing::TestWithParam<int> {};

TEST_P(CorpusShardMergeProperty, MergeOfShardsEqualsInterleavedAdd) {
  const int shards = GetParam();
  util::Rng rng(77 + static_cast<std::uint64_t>(shards));

  Corpus combined(32);
  std::vector<Corpus> parts;
  for (int s = 0; s < shards; ++s) parts.emplace_back(16);

  for (int i = 0; i < 30000; ++i) {
    // Small key space forces heavy cross-shard overlap.
    const auto a = addr(rng.bounded(48), rng.bounded(48));
    const auto t = static_cast<util::SimTime>(rng.bounded(500000));
    const auto v = static_cast<std::uint8_t>(rng.bounded(34));  // incl. >31
    combined.add(a, t, v);
    // Shard assignment is arbitrary (here: random) — merge order and
    // partition shape must not matter.
    parts[rng.bounded(static_cast<std::uint64_t>(shards))].add(a, t, v);
  }

  Corpus merged(16);
  for (const auto& part : parts) merged.merge(part);

  ASSERT_EQ(merged.size(), combined.size());
  ASSERT_EQ(merged.total_observations(), combined.total_observations());
  std::size_t checked = 0;
  for (const auto& rec : combined.records()) {
    const auto* other = merged.find(rec.address);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->first_seen, rec.first_seen);
    EXPECT_EQ(other->last_seen, rec.last_seen);
    EXPECT_EQ(other->count, rec.count);
    EXPECT_EQ(other->vantage_mask, rec.vantage_mask);
    ++checked;
  }
  EXPECT_EQ(checked, merged.size());
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, CorpusShardMergeProperty,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

// Property: Corpus agrees with a reference std::unordered_map aggregate
// under a random workload.
class CorpusReferenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(CorpusReferenceProperty, MatchesReferenceImplementation) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  Corpus corpus(32);
  struct Ref {
    std::uint32_t first, last, count, mask;
  };
  std::unordered_map<net::Ipv6Address, Ref> reference;

  for (int i = 0; i < 20000; ++i) {
    // Small key space forces plenty of repeat sightings.
    const auto a = addr(rng.bounded(64), rng.bounded(64));
    const auto t = static_cast<std::uint32_t>(rng.bounded(1000000));
    const auto v = static_cast<std::uint8_t>(rng.bounded(27));
    corpus.add(a, t, v);
    auto [it, inserted] = reference.try_emplace(a, Ref{t, t, 1, 1u << v});
    if (!inserted) {
      it->second.first = std::min(it->second.first, t);
      it->second.last = std::max(it->second.last, t);
      ++it->second.count;
      it->second.mask |= 1u << v;
    }
  }

  ASSERT_EQ(corpus.size(), reference.size());
  for (const auto& [a, ref] : reference) {
    const auto* rec = corpus.find(a);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->first_seen, ref.first);
    EXPECT_EQ(rec->last_seen, ref.last);
    EXPECT_EQ(rec->count, ref.count);
    EXPECT_EQ(rec->vantage_mask, ref.mask);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorpusReferenceProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace v6::hitlist
