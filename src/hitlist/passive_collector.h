// The passive collection pipeline: every pool-using device's NTP polls,
// steered to vantage servers by the pool DNS, logged into a Corpus.
//
// Each poll attempt is the server side of RFC 5905 client/server mode,
// decided from values: the request is lost in transit, swallowed by the
// vantage fault plan, or served — and a served poll is logged (client
// address, time, vantage) before the response can still be lost on the
// way back. No packet is serialized; tests/test_passive_collector.cpp runs
// the same polls through the test-side NTP/UDP codecs (request encode,
// server mode check and response, client origin check) and demands the
// same corpus and answer count.
//
// Every attempt consumes exactly two draws from the device's stream, one
// per transit direction. The rule fixes the stream layout, which the
// checkpoints, the pinned corpora and the gated benchmark digests depend
// on: a draw added or dropped anywhere would reshuffle every later poll.
//
// Most sync events are invisible to the study: the pool sends them to
// servers that are not ours (PoolDns::captured draws that roll first).
// The client's address is derived only for a captured event, which keeps
// every device's draws in the same order while skipping the address work
// for the rest.
//
// Clients retry unanswered polls RFC 5905-style: up to `retry_limit`
// re-sends with exponential backoff, which is what lets the corpus survive
// vantage crash windows (see netsim::FaultSchedule) with bounded loss.
//
// Collection shards across threads and machines by one rule (util::Part):
// CollectorConfig::part picks a contiguous device range, the thread
// shards split that range again, each shard runs the per-device loop into
// its own Corpus, and the shards reduce through Corpus::merge(). Because
// every device's observation stream derives only from its own seeded RNG,
// the merged corpus is bit-identical (size, total_observations, every
// record field) to the threads=1 run, and the union of all parts to the
// whole-world run — properties the tests assert.
//
// Checkpoint/resume: with `checkpoint_interval > 0` and a CheckpointSink,
// collection pauses at every sim-time boundary window_start + k*interval,
// snapshots the corpus-so-far plus a CheckpointState cursor, and hands
// both to the sink. A crashed run restarts via resume(): the enumeration
// [window_start, resume_from) is replayed with recording suppressed —
// consuming RNG and DNS state exactly as the original run did — then
// recording switches on at resume_from. The chunk boundaries
// never alter any per-device stream, so an interrupted-and-resumed run is
// bit-identical to an uninterrupted one (a test asserts this at every
// checkpoint under an active fault schedule).
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "hitlist/corpus.h"
#include "netsim/fault_schedule.h"
#include "netsim/pool_dns.h"
#include "ntp/client_schedule.h"
#include "ntp/observation.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "sim/world.h"
#include "util/parallelism.h"

namespace v6::hitlist {

class TieredCorpus;

struct CollectorConfig {
  // Probability a poll packet is lost in either transit direction.
  double loss_rate = 0.01;
  std::uint64_t seed = 3;
  // Ablation switch: treat every client as a single-packet (non-iburst)
  // poller.
  bool ignore_bursts = false;
  // Collection shards (see util::Parallelism for the 0/1/N contract).
  util::Parallelism threads = util::Parallelism::hardware();
  // RFC 5905-style client persistence: an unanswered poll packet is
  // re-sent up to `retry_limit` times, the i-th retry delayed by
  // retry_backoff * (2^i - 1) seconds after the original send. 0 keeps
  // the legacy fire-once client.
  std::uint32_t retry_limit = 0;
  util::SimDuration retry_backoff = 4;
  // Sim-time spacing of checkpoint boundaries; 0 disables checkpointing.
  // The interval never changes the collected corpus — it only decides
  // where a crashed run can resume from.
  util::SimDuration checkpoint_interval = 0;
  // Optional metrics sink (not owned; must outlive the collector). All
  // collector counters are bulk-incremented from the per-shard tallies at
  // merge time — the per-poll hot loop never touches the registry — so
  // wiring metrics cannot perturb throughput or determinism.
  obs::Registry* metrics = nullptr;
  // Optional timeline sampler (not owned), invoked at interior sim-time
  // grid boundaries (sampler->next_boundary) inside the collection
  // window. Each boundary is a merge barrier: the chunk loop joins all
  // shards there, flushes the cumulative tallies into the registry, and
  // only then samples — so every WindowRecord is exact and independent of
  // the shard count. The window-end sample is the *caller's* job (Study
  // samples at each stage transition), keeping stage windows out of the
  // collector. Requires `metrics` to point at the sampler's registry.
  obs::TimelineSampler* sampler = nullptr;
  // Stage tag the sampler stamps on windows closed inside this collector
  // (the backscan pass runs a second collector with its own tag).
  std::string sampler_stage = "collect";
  // Device part this collector simulates (see util::Part): part `index`
  // of `count` over World::devices(), with the thread shards nested
  // inside it. Every device's stream derives only from its own seed, so
  // the `count` parts of a distributed run merge bit-identically to the
  // default whole-world part {0, 1}, counters included.
  util::Part part = {};
  // Serving-layer epoch publication (see serve::QueryService). With a
  // sink and a positive interval, the chunk loop pauses at every sim-time
  // boundary window_start + k * epoch_interval, joins all shards, and
  // hands the sink the *canonicalized* union corpus as of that boundary.
  // Because the union is built at a merge barrier from commutative
  // aggregates and canonicalize() sorts it, the handed corpus is
  // bit-identical at any shard count — which is what lets the serving
  // layer promise per-epoch determinism. Ignored on hooked passes (the
  // grid must not reshape a hooked run's chunking; see `sampler`). The
  // window-end epoch is the caller's job, mirroring the sampler contract.
  std::function<void(util::SimTime, const Corpus&)> epoch_sink = {};
  util::SimDuration epoch_interval = 0;
};

// Per-vantage degradation accounting, reported instead of aborting when a
// fault plan is active. All counters cover recorded (non-replayed) polls
// addressed to that vantage. Naming follows the repo-wide stats
// convention (see AnalysisStageStats): counts are plain nouns, durations
// would carry a `_us` suffix.
struct VantageHealthStats {
  std::uint64_t polls = 0;          // packet attempts steered here
  std::uint64_t answered = 0;       // attempts the client heard back from
  std::uint64_t lost_to_fault = 0;  // attempts the fault plan swallowed
  std::uint64_t retries = 0;        // re-sends triggered by silence
  std::uint64_t steered_polls = 0;  // sync events won via health steering

  VantageHealthStats& operator+=(const VantageHealthStats& o) noexcept {
    polls += o.polls;
    answered += o.answered;
    lost_to_fault += o.lost_to_fault;
    retries += o.retries;
    steered_polls += o.steered_polls;
    return *this;
  }
};

// The resumable cursor written alongside every corpus snapshot: where the
// window was, how far collection got (`resume_from` — every sync event
// with base time < resume_from is in the snapshot), and the counters
// accumulated so far.
struct CheckpointState {
  util::SimTime window_start = 0;
  util::SimTime window_end = 0;
  util::SimTime resume_from = 0;
  std::uint64_t polls_attempted = 0;
  std::uint64_t polls_answered = 0;
  std::vector<VantageHealthStats> vantage_health;
};

// Receives each checkpoint: the cursor plus the full corpus as of
// `state.resume_from`. The corpus reference is only valid for the call.
using CheckpointSink =
    std::function<void(const CheckpointState&, const Corpus&)>;

// Called for every accepted observation, after it is added to the corpus.
// `vantage_address` is the server the client spoke to (backscanning probes
// from there).
//
// Concurrency contract: with more than one collection shard, hook
// invocations are serialized (a shard-global mutex), so the hook body
// needs no locking of its own — but the *order* in which observations
// from different shards arrive is unspecified. Hooks whose results depend
// on arrival order (e.g. one feeding a stateful scanner) must run with
// `threads = 1`; order-independent aggregation (corpora, per-day
// counters) is safe at any shard count.
using ObservationHook = std::function<void(
    const ntp::Observation&, const net::Ipv6Address& vantage_address)>;

class PassiveCollector {
 public:
  // `faults` is the vantage fault plan every poll attempt consults
  // (nullptr: no faults). Borrowed and never mutated; it must outlive the
  // collector.
  PassiveCollector(const sim::World& world, const netsim::PoolDns& dns,
                   const netsim::FaultSchedule* faults,
                   const CollectorConfig& config);

  // Runs collection over [start, end); fills `corpus`. `sink`, combined
  // with CollectorConfig::checkpoint_interval, receives periodic
  // snapshots.
  void run(Corpus& corpus, util::SimTime start, util::SimTime end,
           const ObservationHook& hook = {}, const CheckpointSink& sink = {});

  // Out-of-core collection: identical window semantics and observation
  // streams, but whenever the shard tables' combined heap footprint
  // crosses runs.config().memory_budget_bytes at a merge barrier, their
  // union is flushed into `runs` as one on-disk run and the tables reset
  // (the tail is flushed at window end regardless). Barriers come from
  // the checkpoint/sampling/epoch grids plus a one-day spill grid, so a
  // run without any of them still spills on a sim-time grid. The spilled
  // union always covers ALL shards, which keeps each run's *content* a
  // pure function of the boundary time — the merged stream (and thus
  // every analysis and save() byte) is identical to the in-memory run at
  // any thread count and any budget; a test asserts exactly that.
  // Checkpoint sinks see the same corpus-so-far snapshots as the
  // in-memory path (reconstructed from the runs); the tiered resume()
  // overload below resumes a crashed out-of-core run.
  void run(TieredCorpus& runs, util::SimTime start, util::SimTime end,
           const ObservationHook& hook = {}, const CheckpointSink& sink = {});

  // Resumes a crashed run from a checkpoint. `corpus` must hold the
  // snapshot that was written with `from` (e.g. via checkpoint_io);
  // collection replays silently up to from.resume_from, then records the
  // remainder of the window into `corpus`. Counters continue from the
  // checkpointed values.
  //
  // Sink-failure contract (worker-upload sinks throw on coordinator
  // disconnect): if `sink` throws, the exception propagates and `corpus`
  // is left EXACTLY as the caller passed it in — the tail recorded since
  // resume_from lives in shard-private tables that are only merged into
  // `corpus` after the chunk loop finishes cleanly. The caller may
  // therefore either retry this resume() verbatim (same corpus, same
  // `from`) or reload the last checkpoint the sink durably accepted and
  // resume from that; both reproduce the uninterrupted run bit-exactly.
  // The same guarantee holds when run()'s sink throws mid-collection.
  void resume(Corpus& corpus, const CheckpointState& from,
              const ObservationHook& hook = {},
              const CheckpointSink& sink = {});

  // Out-of-core resume: honors a spill budget while resuming. `snapshot`
  // (the checkpointed corpus for `from`) is seeded into `runs` as its
  // first on-disk run, then the tail collects through the same spill
  // machinery as run(TieredCorpus&). The merged stream — and every
  // analysis float and save() byte derived from it — is identical to the
  // in-memory resume at any thread count and budget. On a sink throw,
  // `runs` keeps every run spilled so far (including the seeded
  // snapshot); recovery is a fresh TieredCorpus resumed from the last
  // checkpoint the sink durably accepted, not a retry on the same `runs`.
  void resume(TieredCorpus& runs, Corpus&& snapshot,
              const CheckpointState& from, const ObservationHook& hook = {},
              const CheckpointSink& sink = {});

  std::uint64_t polls_attempted() const noexcept { return polls_; }
  std::uint64_t polls_answered() const noexcept { return answered_; }
  // Indexed by vantage id; empty before the first run()/resume().
  const std::vector<VantageHealthStats>& vantage_health() const noexcept {
    return vantage_health_;
  }

 private:
  // Per-shard poll counters, kept thread-local during collection and
  // summed into the collector's totals once the shards join.
  struct ShardTally {
    std::uint64_t polls = 0;
    std::uint64_t answered = 0;
  };

  // A pool-using device mid-enumeration: its seeded RNG, its schedule,
  // and the poll popped from the schedule but not yet processed (because
  // it belongs to a later chunk).
  struct DeviceState {
    sim::DeviceId id;
    util::Rng rng;
    ntp::ClientSchedule schedule;
    ntp::ClientSchedule::Cursor cursor;
    std::optional<util::SimTime> pending;
  };

  // Everything one shard carries across chunk boundaries.
  struct ShardState {
    Corpus corpus{1 << 12};
    std::vector<DeviceState> devices;
    ShardTally tally;
    std::vector<VantageHealthStats> vantage;
    // Observations recorded into this shard's corpus per vantage id
    // (pre-dedup). Lives outside VantageHealthStats because that struct
    // is serialized in the V6CKPT01 checkpoint format.
    std::vector<std::uint64_t> vantage_obs;
    // False while replaying the already-checkpointed prefix of a resumed
    // run: polls draw and steer as before but leave no trace.
    bool recording = true;
    // The caller's observation hook (null when none) and, when shards run
    // concurrently, the mutex that serializes its calls.
    const ObservationHook* hook = nullptr;
    std::mutex* hook_mu = nullptr;
  };

  // The one collection loop behind every run()/resume(). With `tiered`
  // null, shards merge into `corpus`; otherwise they spill into `tiered`
  // at merge barriers and `corpus` stays empty.
  void collect(Corpus& corpus, TieredCorpus* tiered,
               const CheckpointState& from, const ObservationHook& hook,
               const CheckpointSink& sink);

  // Processes every sync event of this shard with base time < chunk_end.
  void process_chunk(ShardState& shard, util::SimTime window_end,
                     util::SimTime chunk_end) const;

  // One sync event (burst + per-packet retries) for one device.
  void process_event(ShardState& shard, DeviceState& ds, util::SimTime t,
                     util::SimTime window_end) const;

  const sim::World* world_;
  const netsim::PoolDns* dns_;
  const netsim::FaultSchedule* faults_;
  CollectorConfig config_;
  std::uint64_t polls_ = 0;
  std::uint64_t answered_ = 0;
  std::vector<VantageHealthStats> vantage_health_;
  // No-op handles unless CollectorConfig::metrics was wired.
  obs::Counter metric_polls_;
  obs::Counter metric_answered_;
  obs::Counter metric_records_;
  obs::Counter metric_dedup_hits_;
  obs::Counter metric_checkpoints_;
  // Labeled per vantage; the four families the TimelineSampler folds into
  // per-vantage series (see obs/timeline.h).
  std::vector<obs::Counter> metric_vantage_polls_;
  std::vector<obs::Counter> metric_vantage_answered_;
  std::vector<obs::Counter> metric_vantage_fault_lost_;
  std::vector<obs::Counter> metric_vantage_records_;
};

}  // namespace v6::hitlist
