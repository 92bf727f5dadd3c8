#include "hitlist/passive_collector.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "hitlist/corpus_io.h"

namespace v6::hitlist {
namespace {

class PassiveCollectorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 55;
    config.total_sites = 300;
    config.study_duration = 14 * util::kDay;
    world_ = new sim::World(sim::World::generate(config));
  }
  static void TearDownTestSuite() { delete world_; }
  static sim::World* world_;
};

sim::World* PassiveCollectorTest::world_ = nullptr;

Corpus collect(const sim::World& world, const CollectorConfig& config,
               util::SimTime start, util::SimTime end,
               const ObservationHook& hook = {}) {
  netsim::DataPlane plane(world, {config.loss_rate, 1});
  netsim::PoolDns dns(world);
  PassiveCollector collector(world, plane, dns, config);
  Corpus corpus(1 << 12);
  collector.run(corpus, start, end, hook);
  return corpus;
}

void expect_identical_corpora(const Corpus& a, const Corpus& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.total_observations(), b.total_observations());
  for (const auto& rec : a.records()) {
    const auto* other = b.find(rec.address);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->first_seen, rec.first_seen);
    EXPECT_EQ(other->last_seen, rec.last_seen);
    EXPECT_EQ(other->count, rec.count);
    EXPECT_EQ(other->vantage_mask, rec.vantage_mask);
  }
}

TEST_F(PassiveCollectorTest, CollectsObservations) {
  const auto corpus =
      collect(*world_, {false, 0.0, 3}, 0, 7 * util::kDay);
  EXPECT_GT(corpus.size(), 1000u);
  EXPECT_GE(corpus.total_observations(), corpus.size());
}

TEST_F(PassiveCollectorTest, FastAndWirePathsAreBitIdenticalAtZeroLoss) {
  // With loss disabled the two execution paths consume identical RNG
  // streams (two draws per poll attempt), so not just the address set but
  // every record field must agree.
  const auto fast =
      collect(*world_, {false, 0.0, 3}, 0, 3 * util::kDay);
  const auto wire =
      collect(*world_, {true, 0.0, 3}, 0, 3 * util::kDay);
  expect_identical_corpora(fast, wire);
}

TEST_F(PassiveCollectorTest, RetriesRecoverPollsLostToTransit) {
  // RFC 5905-style persistence: at heavy loss a client that re-sends
  // unanswered polls hears back strictly more often than a fire-once one,
  // and at zero loss retries change nothing.
  CollectorConfig fire_once{false, 0.4, 3};
  CollectorConfig persistent = fire_once;
  persistent.retry_limit = 3;

  netsim::DataPlane plane(*world_, {0.4, 1});
  netsim::PoolDns dns(*world_);
  PassiveCollector once(*world_, plane, dns, fire_once);
  Corpus once_corpus(1 << 12);
  once.run(once_corpus, 0, 2 * util::kDay);
  PassiveCollector retrying(*world_, plane, dns, persistent);
  Corpus retry_corpus(1 << 12);
  retrying.run(retry_corpus, 0, 2 * util::kDay);

  ASSERT_GT(once.polls_attempted(), 0u);
  // Fire-once at 40% loss answers ~36% of polls; 3 retries lift the
  // per-poll answer odds to ~84%.
  EXPECT_GT(static_cast<double>(retrying.polls_answered()),
            1.5 * static_cast<double>(once.polls_answered()));
  EXPECT_GT(retry_corpus.total_observations(),
            once_corpus.total_observations());

  CollectorConfig lossless_retry{false, 0.0, 3};
  lossless_retry.retry_limit = 3;
  const auto with = collect(*world_, lossless_retry, 0, util::kDay);
  const auto without = collect(*world_, {false, 0.0, 3}, 0, util::kDay);
  expect_identical_corpora(with, without);
}

TEST_F(PassiveCollectorTest, WirePathValidatesServerResponses) {
  netsim::DataPlane plane(*world_, {0.0, 1});
  netsim::PoolDns dns(*world_);
  PassiveCollector collector(*world_, plane, dns, {true, 0.0, 3});
  Corpus corpus(1 << 12);
  collector.run(corpus, 0, util::kDay);
  EXPECT_GT(collector.polls_attempted(), 0u);
  // Lossless wire path: every poll that reached a server got a valid,
  // origin-matching answer.
  EXPECT_EQ(collector.polls_answered(), collector.polls_attempted());
}

TEST_F(PassiveCollectorTest, LossReducesObservations) {
  const auto lossless =
      collect(*world_, {false, 0.0, 3}, 0, 3 * util::kDay);
  const auto lossy =
      collect(*world_, {false, 0.3, 3}, 0, 3 * util::kDay);
  EXPECT_LT(lossy.total_observations(),
            lossless.total_observations() * 0.8);
}

TEST_F(PassiveCollectorTest, HookSeesEveryObservation) {
  std::uint64_t hook_calls = 0;
  std::set<std::uint8_t> vantages;
  const auto corpus = collect(
      *world_, {false, 0.0, 3}, 0, 2 * util::kDay,
      [&](const ntp::Observation& obs, const net::Ipv6Address& vantage) {
        ++hook_calls;
        vantages.insert(obs.vantage);
        EXPECT_FALSE(vantage.is_unspecified());
      });
  EXPECT_EQ(hook_calls, corpus.total_observations());
  EXPECT_GT(vantages.size(), 10u);  // geo steering spreads across servers
}

TEST_F(PassiveCollectorTest, OnlyPoolDevicesAppear) {
  const auto corpus =
      collect(*world_, {false, 0.0, 3}, 0, 2 * util::kDay);
  // Every observed address must resolve to a pool-using device (or be an
  // ephemeral address of one at observation time). Spot-check via count:
  // non-pool devices never enter the schedule, so polls == observations.
  netsim::DataPlane plane(*world_, {0.0, 1});
  netsim::PoolDns dns(*world_);
  PassiveCollector collector(*world_, plane, dns, {false, 0.0, 3});
  Corpus again(1 << 12);
  collector.run(again, 0, 2 * util::kDay);
  EXPECT_EQ(collector.polls_attempted(), again.total_observations());
}

TEST_F(PassiveCollectorTest, BurstsYieldMultipleSightingsPerSync) {
  // Find a bursting pool device and verify its address records carry
  // multiple observations seconds apart.
  const auto corpus = collect(*world_, {false, 0.0, 3}, 0, util::kDay);
  bool found_burst_record = false;
  for (const auto& rec : corpus.records()) {
    if (rec.count >= 4 && rec.lifetime() <= 30) found_burst_record = true;
  }
  EXPECT_TRUE(found_burst_record)
      << "expected at least one iburst-style record (>=4 sightings within "
         "seconds)";
}

TEST_F(PassiveCollectorTest, PollCountsCountBurstPackets) {
  netsim::DataPlane plane(*world_, {0.0, 1});
  netsim::PoolDns dns(*world_);
  PassiveCollector collector(*world_, plane, dns, {false, 0.0, 3});
  Corpus corpus(1 << 12);
  collector.run(corpus, 0, util::kDay);
  // Bursting devices send several packets per sync, so attempted polls
  // exceed unique sync events but equal total observations (no loss).
  EXPECT_EQ(collector.polls_attempted(), corpus.total_observations());
}

TEST_F(PassiveCollectorTest, ShardedCollectionIsBitIdenticalToSerial) {
  // The tentpole guarantee: threads=N merges to the same corpus as the
  // exact legacy threads=1 path — same size, total_observations, and
  // per-record fields — because per-device streams are order-independent
  // and Corpus aggregates are commutative.
  CollectorConfig serial{false, 0.01, 3};
  serial.threads = 1;
  const auto base = collect(*world_, serial, 0, 5 * util::kDay);
  for (const unsigned threads : {2u, 4u, 7u}) {
    CollectorConfig sharded_config = serial;
    sharded_config.threads = threads;
    const auto sharded =
        collect(*world_, sharded_config, 0, 5 * util::kDay);
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_identical_corpora(base, sharded);
  }
}

TEST_F(PassiveCollectorTest, ShardedCountersSumToSerialCounters) {
  netsim::DataPlane plane(*world_, {0.01, 1});
  netsim::PoolDns dns(*world_);
  CollectorConfig config{false, 0.01, 3};
  config.threads = 1;
  PassiveCollector serial(*world_, plane, dns, config);
  Corpus serial_corpus(1 << 12);
  serial.run(serial_corpus, 0, 4 * util::kDay);

  config.threads = 4;
  PassiveCollector sharded(*world_, plane, dns, config);
  Corpus sharded_corpus(1 << 12);
  sharded.run(sharded_corpus, 0, 4 * util::kDay);

  EXPECT_EQ(sharded.polls_attempted(), serial.polls_attempted());
  EXPECT_EQ(sharded.polls_answered(), serial.polls_answered());
}

TEST_F(PassiveCollectorTest, ShardedHookDeliveryIsSerializedAndComplete) {
  // Hooks under threads>1 are serialized by the collector, so an
  // unsynchronized hook body must still see every observation exactly
  // once (the count matches the corpus total).
  CollectorConfig config{false, 0.0, 3};
  config.threads = 4;
  std::uint64_t hook_calls = 0;
  std::set<std::uint8_t> vantages;
  const auto corpus = collect(
      *world_, config, 0, 2 * util::kDay,
      [&](const ntp::Observation& obs, const net::Ipv6Address& vantage) {
        ++hook_calls;
        vantages.insert(obs.vantage);
        EXPECT_FALSE(vantage.is_unspecified());
      });
  EXPECT_EQ(hook_calls, corpus.total_observations());
  EXPECT_GT(vantages.size(), 10u);
}

TEST_F(PassiveCollectorTest, WireFidelityStaysSerialUnderThreadKnob) {
  // The wire path mutates the shared DataPlane per poll, so the threads
  // knob must not shard it; threads=8 and threads=1 run the same serial
  // code and produce identical corpora.
  CollectorConfig one{true, 0.0, 3};
  one.threads = 1;
  CollectorConfig eight = one;
  eight.threads = 8;
  const auto a = collect(*world_, one, 0, util::kDay);
  const auto b = collect(*world_, eight, 0, util::kDay);
  expect_identical_corpora(a, b);
}

TEST_F(PassiveCollectorTest, DeterministicAcrossRuns) {
  const auto a = collect(*world_, {false, 0.01, 3}, 0, 2 * util::kDay);
  const auto b = collect(*world_, {false, 0.01, 3}, 0, 2 * util::kDay);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.total_observations(), b.total_observations());
}

TEST_F(PassiveCollectorTest, WindowBoundsRespected) {
  const auto corpus =
      collect(*world_, {false, 0.0, 3}, util::kDay, 2 * util::kDay);
  for (const auto& rec : corpus.records()) {
    EXPECT_GE(rec.first_seen, static_cast<std::uint32_t>(util::kDay));
    EXPECT_LT(rec.last_seen, static_cast<std::uint32_t>(2 * util::kDay));
  }
}

std::string corpus_bytes(const Corpus& corpus) {
  std::ostringstream out(std::ios::binary);
  save_corpus(out, corpus);
  return std::move(out).str();
}

// The distributed-collection partition property: K collectors over the K
// contiguous device parts (util::Part) merge bit-identically to one
// whole-world run — corpus bytes, poll counters and per-vantage health —
// including when K exceeds the device count and some parts are empty.
void expect_device_parts_reassemble(const sim::World& world,
                                    std::uint32_t parts) {
  CollectorConfig base;
  base.loss_rate = 0.01;
  base.retry_limit = 2;
  base.threads = 3;
  const util::SimTime start = 0;
  const util::SimTime end = 5 * util::kDay;
  const auto run = [&](const CollectorConfig& cfg, Corpus& out) {
    netsim::DataPlane plane(world, {cfg.loss_rate, 1});
    netsim::PoolDns dns(world);
    PassiveCollector collector(world, plane, dns, cfg);
    collector.run(out, start, end);
    return collector;
  };

  Corpus reference(1 << 12);
  const PassiveCollector whole = run(base, reference);

  Corpus merged(1 << 12);
  std::uint64_t polls = 0, answered = 0;
  std::vector<VantageHealthStats> health(world.vantages().size());
  for (std::uint32_t p = 0; p < parts; ++p) {
    CollectorConfig cfg = base;
    cfg.part = {p, parts};
    Corpus part(1 << 12);
    const PassiveCollector collector = run(cfg, part);
    merged.merge(part);
    polls += collector.polls_attempted();
    answered += collector.polls_answered();
    for (std::size_t v = 0; v < health.size(); ++v) {
      health[v] += collector.vantage_health()[v];
    }
  }
  merged.canonicalize();
  EXPECT_EQ(corpus_bytes(merged), corpus_bytes(reference)) << parts;
  EXPECT_EQ(polls, whole.polls_attempted()) << parts;
  EXPECT_EQ(answered, whole.polls_answered()) << parts;
  for (std::size_t v = 0; v < health.size(); ++v) {
    const VantageHealthStats& want = whole.vantage_health()[v];
    EXPECT_EQ(health[v].polls, want.polls) << parts << " parts, vantage " << v;
    EXPECT_EQ(health[v].answered, want.answered) << parts << " parts, " << v;
    EXPECT_EQ(health[v].lost_to_fault, want.lost_to_fault) << parts;
    EXPECT_EQ(health[v].retries, want.retries) << parts << " parts, " << v;
    EXPECT_EQ(health[v].steered_polls, want.steered_polls) << parts;
  }
}

TEST_F(PassiveCollectorTest, DevicePartsReassemble) {
  for (const std::uint32_t parts : {2u, 3u, 7u}) {
    expect_device_parts_reassemble(*world_, parts);
  }
}

TEST(PassiveCollectorParts, MorePartsThanDevicesLeavesEmptyPartsHarmless) {
  sim::WorldConfig config;
  config.seed = 56;
  config.total_sites = 2;
  config.study_duration = 7 * util::kDay;
  const sim::World tiny = sim::World::generate(config);
  ASSERT_GT(tiny.devices().size(), 0u);
  expect_device_parts_reassemble(
      tiny, static_cast<std::uint32_t>(tiny.devices().size()) + 3);
}

}  // namespace
}  // namespace v6::hitlist
