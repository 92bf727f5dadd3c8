// Crash/resume robustness: a collection run killed at any checkpoint
// boundary — under an active vantage fault schedule, with client retries
// and health-aware pool steering — must resume into a corpus bit-identical
// to the uninterrupted run.
#include "hitlist/checkpoint_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/study.h"
#include "hitlist/corpus_io.h"
#include "hitlist/passive_collector.h"
#include "hitlist/tiered_corpus.h"
#include "netsim/fault_schedule.h"
#include "ntp/client_schedule.h"
#include "ntp_wire_reference.h"
#include "sim/world.h"

namespace v6::hitlist {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 77;
    config.total_sites = 300;
    config.study_duration = 14 * util::kDay;
    world_ = new sim::World(sim::World::generate(config));
  }
  static void TearDownTestSuite() { delete world_; }
  static sim::World* world_;
};

sim::World* CheckpointTest::world_ = nullptr;

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

void expect_identical_health(const std::vector<VantageHealthStats>& a,
                             const std::vector<VantageHealthStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].polls, b[i].polls) << "vantage " << i;
    EXPECT_EQ(a[i].answered, b[i].answered) << "vantage " << i;
    EXPECT_EQ(a[i].lost_to_fault, b[i].lost_to_fault) << "vantage " << i;
    EXPECT_EQ(a[i].retries, b[i].retries) << "vantage " << i;
    EXPECT_EQ(a[i].steered_polls, b[i].steered_polls) << "vantage " << i;
  }
}

// A fault plan busy enough that several vantages crash inside the
// collection window used by these tests.
netsim::FaultPlanConfig busy_plan() {
  netsim::FaultPlanConfig plan;
  plan.seed = 5;
  plan.outages_per_vantage = 1.5;
  plan.mean_outage = 8 * util::kHour;
  plan.min_outage = util::kHour;
  plan.flaps_per_vantage = 2.0;
  plan.slow_start = 20 * util::kMinute;
  return plan;
}

CollectorConfig checkpointing_config() {
  CollectorConfig config{.loss_rate = 0.01, .seed = 3};
  config.threads = 3;
  config.retry_limit = 2;
  config.retry_backoff = 8;
  config.checkpoint_interval = util::kDay;
  return config;
}

// The acceptance scenario: kill collection at an arbitrary checkpoint
// boundary while vantages are crashing and flapping, resume from the
// serialized snapshot, and demand the final corpus match the uninterrupted
// run field for field.
TEST_F(CheckpointTest, ResumeFromAnyCheckpointIsBitIdentical) {
  const util::SimTime start = 0;
  const util::SimTime end = 6 * util::kDay;
  const auto config = checkpointing_config();
  const netsim::FaultSchedule faults(world_->vantages(), busy_plan(), start,
                                     end);

  // Uninterrupted reference run, capturing every checkpoint through the
  // full serialize/deserialize path (what a crashed run would read back).
  std::vector<std::string> snapshots;
  Corpus reference(1 << 12);
  std::uint64_t reference_polls = 0;
  std::uint64_t reference_answered = 0;
  std::vector<VantageHealthStats> reference_health;
  {
    netsim::PoolDns dns(*world_);
    dns.set_health_monitor(&faults, 15 * util::kMinute);
    PassiveCollector collector(*world_, dns, &faults, config);
    collector.run(reference, start, end, {},
                  [&](const CheckpointState& state, const Corpus& corpus) {
                    std::stringstream out;
                    save_checkpoint(out, state, corpus);
                    snapshots.push_back(out.str());
                  });
    reference_polls = collector.polls_attempted();
    reference_answered = collector.polls_answered();
    reference_health = collector.vantage_health();
  }
  ASSERT_EQ(snapshots.size(), 5u);  // boundaries at day 1..5
  ASSERT_GT(reference.size(), 500u);

  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "crash at checkpoint " << i);
    std::stringstream in(snapshots[i]);
    auto checkpoint = load_checkpoint(in);
    EXPECT_EQ(checkpoint.state.window_start, start);
    EXPECT_EQ(checkpoint.state.window_end, end);
    EXPECT_EQ(checkpoint.state.resume_from,
              start + static_cast<util::SimTime>(i + 1) * util::kDay);

    // A "rebooted" process: fresh DNS and collector — only the world, the
    // fault plan, the config, and the checkpoint file survive the crash.
    netsim::PoolDns dns(*world_);
    dns.set_health_monitor(&faults, 15 * util::kMinute);
    PassiveCollector collector(*world_, dns, &faults, config);
    collector.resume(checkpoint.corpus, checkpoint.state);

    expect_identical_corpora(reference, checkpoint.corpus);
    EXPECT_EQ(collector.polls_attempted(), reference_polls);
    EXPECT_EQ(collector.polls_answered(), reference_answered);
    expect_identical_health(collector.vantage_health(), reference_health);
  }
}

TEST_F(CheckpointTest, ThrowingSinkSimulatesCrashMidRun) {
  const util::SimTime end = 4 * util::kDay;
  const auto config = checkpointing_config();
  const netsim::FaultSchedule faults(world_->vantages(), busy_plan(), 0, end);

  Corpus reference(1 << 12);
  {
    netsim::PoolDns dns(*world_);
    PassiveCollector collector(*world_, dns, &faults, config);
    collector.run(reference, 0, end);
  }

  // The process "dies" while handling the second checkpoint: the write
  // completed but nothing after it ran.
  std::string survived;
  struct Crash {};
  {
    netsim::PoolDns dns(*world_);
    PassiveCollector collector(*world_, dns, &faults, config);
    Corpus partial(1 << 12);
    int seen = 0;
    EXPECT_THROW(
        collector.run(partial, 0, end, {},
                      [&](const CheckpointState& state, const Corpus& corpus) {
                        std::stringstream out;
                        save_checkpoint(out, state, corpus);
                        survived = out.str();
                        if (++seen == 2) throw Crash{};
                      }),
        Crash);
  }

  std::stringstream in(survived);
  auto checkpoint = load_checkpoint(in);
  netsim::PoolDns dns(*world_);
  PassiveCollector collector(*world_, dns, &faults, config);
  collector.resume(checkpoint.corpus, checkpoint.state);
  expect_identical_corpora(reference, checkpoint.corpus);
}

TEST_F(CheckpointTest, CheckpointIntervalDoesNotChangeTheCorpus) {
  // The interval only decides where a crash can resume; the collected
  // corpus must be untouched by it (and by having a sink at all).
  const util::SimTime end = 3 * util::kDay;
  auto config = checkpointing_config();

  const auto run_with_interval = [&](util::SimDuration interval) {
    config.checkpoint_interval = interval;
    netsim::PoolDns dns(*world_);
    PassiveCollector collector(*world_, dns, /*faults=*/nullptr, config);
    Corpus corpus(1 << 12);
    collector.run(corpus, 0, end, {},
                  [](const CheckpointState&, const Corpus&) {});
    return corpus;
  };

  const auto none = run_with_interval(0);
  const auto hourly = run_with_interval(util::kHour);
  const auto odd = run_with_interval(7777);
  expect_identical_corpora(none, hourly);
  expect_identical_corpora(none, odd);
}

TEST_F(CheckpointTest, FastAndWirePathsAgreeUnderFaultPlan) {
  // Fault decisions are pure hashes, never RNG draws, so at zero loss the
  // value-decided collector stays in lockstep with the packet round trip
  // of ntp_wire_reference.h even while vantages crash and recover around
  // the polls, clients retry and the pool steers away from down vantages.
  ASSERT_EQ(world_->config().outage_count, 0u);
  const util::SimTime end = 2 * util::kDay;
  const netsim::FaultSchedule faults(world_->vantages(), busy_plan(), 0, end);
  netsim::PoolDns dns(*world_);
  dns.set_health_monitor(&faults, 15 * util::kMinute);

  CollectorConfig config{.loss_rate = 0.0, .seed = 3};
  config.retry_limit = 2;
  config.threads = 3;
  PassiveCollector collector(*world_, dns, &faults, config);
  Corpus corpus(1 << 12);
  collector.run(corpus, 0, end);
  const auto wire =
      wire_reference::wire_collect(*world_, dns, &faults, config, 0, end);

  expect_identical_corpora(corpus, wire.corpus);
  EXPECT_EQ(collector.polls_answered(), wire.answered);
  // The fault plan swallowed polls and clients re-sent them, so the
  // comparison covered faulted attempts and retries, not just clean polls.
  std::uint64_t faulted = 0, retries = 0;
  for (const VantageHealthStats& vh : collector.vantage_health()) {
    faulted += vh.lost_to_fault;
    retries += vh.retries;
  }
  EXPECT_GT(faulted, 0u);
  EXPECT_GT(retries, 0u);
  EXPECT_LT(collector.polls_answered(), collector.polls_attempted());
}

TEST_F(CheckpointTest, FaultPlanDegradesVantagesAndRetriesRecover) {
  const util::SimTime end = 4 * util::kDay;
  const netsim::FaultSchedule faults(world_->vantages(), busy_plan(), 0, end);

  CollectorConfig config{.loss_rate = 0.0, .seed = 3};
  config.retry_limit = 2;
  netsim::PoolDns dns(*world_);
  PassiveCollector collector(*world_, dns, &faults, config);
  Corpus corpus(1 << 12);
  collector.run(corpus, 0, end);

  const auto& health = collector.vantage_health();
  ASSERT_EQ(health.size(), world_->vantages().size());
  std::uint64_t total_polls = 0;
  std::uint64_t total_faulted = 0;
  std::uint64_t total_retries = 0;
  bool some_vantage_degraded = false;
  for (const auto& h : health) {
    total_polls += h.polls;
    total_faulted += h.lost_to_fault;
    total_retries += h.retries;
    EXPECT_LE(h.answered, h.polls);
    if (h.lost_to_fault > 0 && h.answered < h.polls) {
      some_vantage_degraded = true;
    }
  }
  EXPECT_EQ(total_polls, collector.polls_attempted());
  EXPECT_GT(total_faulted, 0u);
  EXPECT_GT(total_retries, 0u);
  EXPECT_TRUE(some_vantage_degraded);
  // At zero transit loss only the fault plan withholds answers, and
  // retries claw back a chunk of them: the corpus still lands close to a
  // fault-free run.
  EXPECT_LT(collector.polls_answered(), collector.polls_attempted());
}

TEST_F(CheckpointTest, StudyResumeMatchesUninterruptedCollect) {
  core::StudyConfig config;
  config.world.seed = 9;
  config.world.total_sites = 250;
  config.world.study_duration = 6 * util::kDay;
  config.collector.loss_rate = 0.0;
  config.collector.threads = 2;
  config.collector.retry_limit = 1;
  config.collector.checkpoint_interval = 2 * util::kDay;
  config.pool_capture_share = 1.0;
  config.faults = busy_plan();

  std::vector<std::string> snapshots;
  core::Study reference(config);
  reference.run({.campaigns = false,
                 .backscan = false,
                 .analysis = false,
                 .checkpoint_sink = [&](const CheckpointState& state,
                                        const Corpus& corpus) {
                   std::stringstream out;
                   save_checkpoint(out, state, corpus);
                   snapshots.push_back(out.str());
                 }});
  ASSERT_EQ(snapshots.size(), 2u);  // boundaries at day 2 and 4
  ASSERT_NE(reference.faults(), nullptr);

  for (auto& snapshot : snapshots) {
    std::stringstream in(snapshot);
    // A fresh Study reconstructs the identical world, plane, pool and
    // fault plan from config alone, then resumes from the checkpoint.
    core::Study resumed(config);
    resumed.run({.campaigns = false,
                 .backscan = false,
                 .analysis = false,
                 .resume_from = load_checkpoint(in)});
    expect_identical_corpora(reference.results().ntp, resumed.results().ntp);
    EXPECT_EQ(resumed.results().polls_attempted,
              reference.results().polls_attempted);
    EXPECT_EQ(resumed.results().polls_answered,
              reference.results().polls_answered);
    expect_identical_health(resumed.results().vantage_health,
                            reference.results().vantage_health);
  }
}

TEST_F(CheckpointTest, SpilledResumeHonorsBudgetAndStaysBitIdentical) {
  // RunOptions::resume_from composed with an active spill budget: the
  // checkpointed snapshot seeds the TieredCorpus as its first run, the
  // tail spills through the same machinery as a budgeted run(), and the
  // saved bytes match both the in-memory resume and the uninterrupted
  // run — the StudyConfig::spill contract, end to end.
  core::StudyConfig config;
  config.world.seed = 9;
  config.world.total_sites = 250;
  config.world.study_duration = 6 * util::kDay;
  config.collector.loss_rate = 0.0;
  config.collector.threads = 2;
  config.collector.retry_limit = 1;
  config.collector.checkpoint_interval = 2 * util::kDay;
  config.pool_capture_share = 1.0;
  config.faults = busy_plan();

  std::vector<std::string> snapshots;
  std::string reference_bytes;
  {
    core::Study reference(config);
    core::RunOptions options;
    options.campaigns = options.backscan = options.analysis = false;
    options.checkpoint_sink = [&](const CheckpointState& state,
                                  const Corpus& corpus) {
      std::stringstream out;
      save_checkpoint(out, state, corpus);
      snapshots.push_back(out.str());
    };
    reference.run(std::move(options));
    std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
    reference.save_ntp(out);
    reference_bytes = out.str();
  }
  ASSERT_EQ(snapshots.size(), 2u);  // boundaries at day 2 and 4
  ASSERT_FALSE(reference_bytes.empty());

  auto spilled_config = config;
  spilled_config.spill.memory_budget_bytes = 1;  // spill at every barrier

  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "resume from checkpoint " << i);

    const auto resume_bytes = [&](const core::StudyConfig& with) {
      core::Study resumed(with);
      core::RunOptions options;
      options.campaigns = options.backscan = options.analysis = false;
      std::stringstream in(snapshots[i]);
      options.resume_from = load_checkpoint(in);
      const auto& r = resumed.run(std::move(options));
      if (with.spill.active()) {
        // The budget was honored: the resume ran out of core, seeding
        // the snapshot as the first run and spilling the tail.
        EXPECT_NE(r.ntp_runs, nullptr);
        if (r.ntp_runs != nullptr) {
          EXPECT_GE(r.ntp_runs->stats().spills, 1u);
          EXPECT_GE(r.ntp_runs->run_count(), 2u);
        }
      } else {
        EXPECT_EQ(r.ntp_runs, nullptr);
      }
      std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
      resumed.save_ntp(out);
      return out.str();
    };

    EXPECT_EQ(resume_bytes(config), reference_bytes) << "in-memory resume";
    EXPECT_EQ(resume_bytes(spilled_config), reference_bytes)
        << "spilled resume";
  }
}

TEST_F(CheckpointTest, ThrowingSinkMidResumeHonorsTheContract) {
  // The sink-failure contract resume() documents (worker-upload sinks
  // throw on coordinator disconnect): after a mid-resume sink throw the
  // caller's corpus is EXACTLY as passed in, and both recovery paths —
  // retry the same resume verbatim, or reload the last checkpoint the
  // sink durably accepted — reproduce the uninterrupted run bit-exactly.
  const util::SimTime end = 6 * util::kDay;
  const auto config = checkpointing_config();
  const netsim::FaultSchedule faults(world_->vantages(), busy_plan(), 0, end);

  const auto with_collector = [&](auto fn) {
    netsim::PoolDns dns(*world_);
    dns.set_health_monitor(&faults, 15 * util::kMinute);
    PassiveCollector collector(*world_, dns, &faults, config);
    fn(collector);
  };

  std::vector<std::string> snapshots;
  Corpus reference(1 << 12);
  with_collector([&](PassiveCollector& collector) {
    collector.run(reference, 0, end, {},
                  [&](const CheckpointState& state, const Corpus& corpus) {
                    std::stringstream out;
                    save_checkpoint(out, state, corpus);
                    snapshots.push_back(out.str());
                  });
  });
  ASSERT_EQ(snapshots.size(), 5u);  // boundaries at day 1..5

  // "Crash" at the day-2 checkpoint, resume — and have the resumed run's
  // sink die mid-upload at its second checkpoint (day 4). The first
  // upload (day 3) completed, so it is the last durable checkpoint.
  struct Crash {};
  std::string last_durable;
  std::stringstream in0(snapshots[1]);
  auto resumed = load_checkpoint(in0);
  with_collector([&](PassiveCollector& collector) {
    int uploads = 0;
    EXPECT_THROW(
        collector.resume(resumed.corpus, resumed.state, {},
                         [&](const CheckpointState& state,
                             const Corpus& corpus) {
                           if (++uploads == 2) throw Crash{};  // died mid-post
                           std::stringstream out;
                           save_checkpoint(out, state, corpus);
                           last_durable = out.str();
                         }),
        Crash);
    EXPECT_EQ(uploads, 2);
  });
  ASSERT_FALSE(last_durable.empty());

  // (1) The corpus is exactly what the caller passed in: the tail lived
  // in shard-private tables that were never merged.
  {
    std::stringstream in(snapshots[1]);
    const auto pristine = load_checkpoint(in);
    expect_identical_corpora(resumed.corpus, pristine.corpus);
  }

  // (2) Retrying the same resume verbatim completes the run bit-exactly.
  with_collector([&](PassiveCollector& collector) {
    collector.resume(resumed.corpus, resumed.state);
  });
  expect_identical_corpora(reference, resumed.corpus);

  // (3) So does reloading the last durable checkpoint instead.
  {
    std::stringstream in(last_durable);
    auto durable = load_checkpoint(in);
    EXPECT_EQ(durable.state.resume_from, 3 * util::kDay);
    with_collector([&](PassiveCollector& collector) {
      collector.resume(durable.corpus, durable.state);
    });
    expect_identical_corpora(reference, durable.corpus);
  }

  // Tiered variant: on a sink throw `runs` keeps whatever spilled, so
  // recovery is a fresh TieredCorpus resumed from the last durable
  // checkpoint — which must reproduce the reference merged stream.
  SpillConfig spill;
  spill.memory_budget_bytes = 1;
  {
    TieredCorpus runs(spill);
    std::stringstream in(snapshots[1]);
    auto ck = load_checkpoint(in);
    with_collector([&](PassiveCollector& collector) {
      int uploads = 0;
      EXPECT_THROW(
          collector.resume(runs, std::move(ck.corpus), ck.state, {},
                           [&](const CheckpointState&, const Corpus&) {
                             if (++uploads == 2) throw Crash{};
                           }),
          Crash);
    });
    EXPECT_GE(runs.run_count(), 1u);  // at least the seeded snapshot
  }
  {
    TieredCorpus runs(spill);
    std::stringstream in(last_durable);
    auto ck = load_checkpoint(in);
    with_collector([&](PassiveCollector& collector) {
      collector.resume(runs, std::move(ck.corpus), ck.state);
    });
    EXPECT_GE(runs.stats().spills, 1u);
    std::stringstream got(std::ios::in | std::ios::out | std::ios::binary);
    std::stringstream want(std::ios::in | std::ios::out | std::ios::binary);
    runs.save(got);
    save_corpus(want, reference);
    EXPECT_EQ(got.str(), want.str());
  }
}

TEST_F(CheckpointTest, ClientScheduleCursorMatchesForEach) {
  // The cursor is the checkpointing primitive: enumerating a schedule in
  // arbitrary chunks must visit the exact poll instants of one sweep.
  int tested = 0;
  for (const auto& dev : world_->devices()) {
    if (!dev.ntp.uses_pool) continue;
    const ntp::ClientSchedule schedule(dev, 0, 10 * util::kDay);
    std::vector<util::SimTime> swept;
    schedule.for_each([&](util::SimTime t) { swept.push_back(t); });

    std::vector<util::SimTime> chunked;
    ntp::ClientSchedule::Cursor cursor;
    std::optional<util::SimTime> pending;
    for (util::SimTime boundary = 977; boundary < 11 * util::kDay;
         boundary += 977 + boundary % 3517) {
      while (true) {
        auto t = pending ? pending : schedule.next(cursor);
        pending.reset();
        if (!t) break;
        if (*t >= boundary) {
          pending = t;  // belongs to a later chunk
          break;
        }
        chunked.push_back(*t);
      }
    }
    while (auto t = pending ? pending : schedule.next(cursor)) {
      pending.reset();
      chunked.push_back(*t);
    }
    EXPECT_EQ(chunked, swept) << "device " << dev.id;
    if (++tested == 25) break;
  }
  ASSERT_EQ(tested, 25);
}

TEST(CheckpointIo, RoundTripsStateAndCorpus) {
  CheckpointState state;
  state.window_start = 100;
  state.window_end = 7'000'000;
  state.resume_from = 86'500;
  state.polls_attempted = 123'456;
  state.polls_answered = 120'000;
  state.vantage_health.resize(3);
  state.vantage_health[0] = {50, 40, 5, 3, 2};
  state.vantage_health[2] = {7, 7, 0, 0, 1};

  Corpus corpus;
  corpus.add(net::Ipv6Address::from_u64(0xfeed, 0xface), 5000, 4);
  corpus.add(net::Ipv6Address::from_u64(0xfeed, 0xface), 6000, 9);
  corpus.add(net::Ipv6Address::from_u64(0xdead, 0xbeef), 5500, 1);

  std::stringstream stream;
  const auto bytes = save_checkpoint(stream, state, corpus);
  EXPECT_EQ(bytes, stream.str().size());

  const auto loaded = load_checkpoint(stream);
  EXPECT_EQ(loaded.state.window_start, state.window_start);
  EXPECT_EQ(loaded.state.window_end, state.window_end);
  EXPECT_EQ(loaded.state.resume_from, state.resume_from);
  EXPECT_EQ(loaded.state.polls_attempted, state.polls_attempted);
  EXPECT_EQ(loaded.state.polls_answered, state.polls_answered);
  expect_identical_health(loaded.state.vantage_health, state.vantage_health);
  expect_identical_corpora(loaded.corpus, corpus);
}

TEST(CheckpointIo, RejectsTruncationAtEveryByteOffset) {
  CheckpointState state;
  state.window_end = 1000;
  state.resume_from = 500;
  state.vantage_health.resize(2);
  state.vantage_health[1] = {10, 9, 1, 1, 0};
  Corpus corpus;
  corpus.add(net::Ipv6Address::from_u64(1, 2), 50, 0);

  std::stringstream stream;
  save_checkpoint(stream, state, corpus);
  const std::string full = stream.str();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW(load_checkpoint(truncated), std::runtime_error)
        << "prefix of " << cut << " bytes loaded";
  }
  std::stringstream intact(full);
  EXPECT_NO_THROW(load_checkpoint(intact));
}

TEST(CheckpointIo, RejectsCorruptionInEitherSection) {
  CheckpointState state;
  state.window_end = 1000;
  state.polls_attempted = 42;
  state.vantage_health.resize(1);
  Corpus corpus;
  corpus.add(net::Ipv6Address::from_u64(3, 4), 60, 2);

  std::stringstream stream;
  save_checkpoint(stream, state, corpus);
  const std::string full = stream.str();
  for (std::size_t offset = 0; offset < full.size(); ++offset) {
    std::string bad = full;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x10);
    std::stringstream in(bad);
    EXPECT_THROW(load_checkpoint(in), std::runtime_error)
        << "flip at byte " << offset << " loaded";
  }
}

TEST(CheckpointIo, RejectsHostileVantageCountBeforeAllocating) {
  // Mirror of the corpus loader's guarantee: a hostile vantage count must
  // fail against the actual payload size, not size an allocation.
  CheckpointState state;
  state.vantage_health.resize(1);
  Corpus corpus;
  corpus.add(net::Ipv6Address::from_u64(3, 4), 60, 2);
  std::stringstream stream;
  save_checkpoint(stream, state, corpus);
  std::string bytes = stream.str();
  // The vantage count is the u32 at offset 8 + 5*8 = 48.
  bytes[48] = '\xff';
  bytes[49] = '\xff';
  bytes[50] = '\xff';
  bytes[51] = '\xff';
  std::stringstream in(bytes);
  EXPECT_THROW(load_checkpoint(in), std::runtime_error);
}

}  // namespace
}  // namespace v6::hitlist
