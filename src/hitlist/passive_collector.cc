#include "hitlist/passive_collector.h"

#include <algorithm>

#include "hitlist/tiered_corpus.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace v6::hitlist {

namespace {

// Mirrors Rng::uniform()'s mapping of a raw draw to [0, 1): each attempt's
// two raw draws become its loss decisions with exactly the distribution
// chance() uses.
double unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Sim-time spacing of the spill-check barriers an out-of-core run adds to
// the checkpoint, sampling and epoch grids, so a run without any of them
// still spills on a sim-time grid.
constexpr util::SimDuration kSpillBarrierInterval = util::kDay;

// The i-th re-send goes out backoff * (2^i - 1) seconds after the original
// packet (RFC 5905-flavoured exponential backoff).
util::SimDuration backoff_offset(std::uint32_t attempt,
                                 util::SimDuration backoff) noexcept {
  if (attempt == 0) return 0;
  return backoff * ((util::SimDuration{1} << attempt) - 1);
}

}  // namespace

PassiveCollector::PassiveCollector(const sim::World& world,
                                   const netsim::PoolDns& dns,
                                   const netsim::FaultSchedule* faults,
                                   const CollectorConfig& config)
    : world_(&world), dns_(&dns), faults_(faults), config_(config) {
  if (config_.metrics != nullptr) {
    obs::Registry& reg = *config_.metrics;
    metric_polls_ = reg.counter("v6_collector_polls_total",
                                "NTP poll packets attempted by pool clients");
    metric_answered_ = reg.counter(
        "v6_collector_answered_total",
        "Poll attempts whose response passed client-side validation");
    metric_records_ = reg.counter(
        "v6_collector_records_total",
        "Unique client addresses admitted to the corpus");
    metric_dedup_hits_ = reg.counter(
        "v6_collector_dedup_hits_total",
        "Observations folded into an existing corpus record");
    metric_checkpoints_ = reg.counter(
        "v6_collector_checkpoints_total",
        "Checkpoint snapshots handed to the sink");
    const std::size_t vantage_count = world.vantages().size();
    metric_vantage_polls_.reserve(vantage_count);
    metric_vantage_answered_.reserve(vantage_count);
    metric_vantage_fault_lost_.reserve(vantage_count);
    metric_vantage_records_.reserve(vantage_count);
    for (std::size_t v = 0; v < vantage_count; ++v) {
      const obs::Labels labels{{"vantage", std::to_string(v)}};
      metric_vantage_polls_.push_back(
          reg.counter(obs::kVantagePollsFamily,
                      "Recorded poll packets steered to this vantage",
                      labels));
      metric_vantage_answered_.push_back(reg.counter(
          obs::kVantageAnsweredFamily,
          "Poll attempts this vantage answered past client validation",
          labels));
      metric_vantage_fault_lost_.push_back(reg.counter(
          obs::kVantageFaultLostFamily,
          "Poll attempts the fault plan swallowed at this vantage", labels));
      metric_vantage_records_.push_back(reg.counter(
          obs::kVantageRecordsFamily,
          "Observations recorded into the corpus via this vantage", labels));
    }
  }
}

void PassiveCollector::process_event(ShardState& shard, DeviceState& ds,
                                     util::SimTime t,
                                     util::SimTime window_end) const {
  // An AS-wide outage silences every host in it (the intro's outage-
  // detection use case: the corpus time series shows the hole).
  if (world_->config().outage_count > 0 &&
      world_->in_outage(world_->attachment(ds.id, t).as_index, t)) {
    return;
  }
  const sim::Device& dev = world_->devices()[ds.id];
  // One DNS resolution per sync event; every packet of an iburst (and
  // every retry) rides it to the same server. The client's address is
  // derived only once the capture roll says a vantage hears the poll (see
  // the header comment). Health-aware steering may redirect the pick away
  // from a monitored-down vantage.
  bool steered = false;
  const sim::VantagePoint* vantage = nullptr;
  net::Ipv6Address client;
  if (dns_->captured(ds.rng)) {
    client = world_->device_address(ds.id, t);
    vantage = dns_->resolve(client, ds.rng, t, &steered);
  }
  const bool record = shard.recording && vantage != nullptr;
  if (record && steered) {
    ++shard.vantage[vantage->id].steered_polls;
  }
  // A burst is one sync event: its packets go out ~2s apart.
  const std::uint8_t burst =
      config_.ignore_bursts ? 1 : std::max<std::uint8_t>(dev.ntp.burst, 1);
  for (std::uint8_t k = 0; k < burst; ++k) {
    const util::SimTime tk = t + 2 * k;
    if (tk >= window_end) break;  // the collection window closes mid-burst
    if (vantage == nullptr) {
      // The poll went to one of the thousands of pool servers that are
      // not ours — invisible to the study, and not retried here.
      if (shard.recording) ++shard.tally.polls;
      continue;
    }
    VantageHealthStats& vh = shard.vantage[vantage->id];
    for (std::uint32_t attempt = 0; attempt <= config_.retry_limit;
         ++attempt) {
      const util::SimTime tj =
          tk + backoff_offset(attempt, config_.retry_backoff);
      if (tj >= window_end) break;
      if (record) {
        ++shard.tally.polls;
        ++vh.polls;
        if (attempt > 0) ++vh.retries;
      }
      // Exactly two draws per attempt, one per transit direction (see the
      // header comment).
      const std::uint64_t r1 = ds.rng.next();
      const std::uint64_t r2 = ds.rng.next();
      // Pure-function fault verdict: every shard, part and resumed run
      // agrees without consulting any RNG.
      const bool faulted =
          faults_ != nullptr && !faults_->delivers(vantage->id, client, tj);
      if (record && faulted) ++vh.lost_to_fault;
      // Request-direction loss or a fault suppresses the observation
      // entirely...
      const bool served = !(unit(r1) < config_.loss_rate) && !faulted;
      if (served && record) {
        shard.corpus.add(client, tj, vantage->id);
        ++shard.vantage_obs[vantage->id];
        if (shard.hook != nullptr) {
          const ntp::Observation obs{client, tj, vantage->id};
          if (shard.hook_mu == nullptr) {
            (*shard.hook)(obs, vantage->address);
          } else {
            std::lock_guard<std::mutex> lock(*shard.hook_mu);
            (*shard.hook)(obs, vantage->address);
          }
        }
      }
      // ...response-direction loss costs only the client's answer.
      if (served && !(unit(r2) < config_.loss_rate)) {
        if (record) {
          ++shard.tally.answered;
          ++vh.answered;
        }
        break;  // the client heard back; no more re-sends of this packet
      }
    }
  }
}

void PassiveCollector::process_chunk(ShardState& shard,
                                     util::SimTime window_end,
                                     util::SimTime chunk_end) const {
  for (DeviceState& ds : shard.devices) {
    for (;;) {
      if (!ds.pending) {
        ds.pending = ds.schedule.next(ds.cursor);
        if (!ds.pending) break;  // schedule exhausted
      }
      if (*ds.pending >= chunk_end) break;  // belongs to a later chunk
      const util::SimTime t = *ds.pending;
      ds.pending.reset();
      process_event(shard, ds, t, window_end);
    }
  }
}

void PassiveCollector::collect(Corpus& corpus, TieredCorpus* tiered,
                               const CheckpointState& from,
                               const ObservationHook& hook,
                               const CheckpointSink& sink) {
  const auto devices = world_->devices();
  const auto vantages = world_->vantages();
  // This collector's device part; the thread shards nest inside it.
  const util::Part::Range part = config_.part.range(devices.size());
  const auto shards = static_cast<unsigned>(std::min<std::size_t>(
      config_.threads.resolved(), std::max<std::size_t>(part.size(), 1)));

  // Counters carried in from the checkpoint (all zero on a fresh run).
  std::vector<VantageHealthStats> base_vh = from.vantage_health;
  if (base_vh.size() < vantages.size()) base_vh.resize(vantages.size());

  std::mutex hook_mu;
  std::mutex* mu = (hook && shards > 1) ? &hook_mu : nullptr;

  std::vector<ShardState> states(shards);
  for (unsigned s = 0; s < shards; ++s) {
    ShardState& shard = states[s];
    shard.vantage.resize(vantages.size());
    shard.vantage_obs.resize(vantages.size());
    shard.hook = hook ? &hook : nullptr;
    shard.hook_mu = mu;
    // Shard s of the part's device range, so the layout is a pure
    // function of (device count, part, shard count).
    const util::Part::Range range = util::Part{s, shards}.range(part.size());
    for (std::size_t d = part.begin + range.begin; d < part.begin + range.end;
         ++d) {
      const sim::Device& dev = devices[d];
      if (!dev.ntp.uses_pool) continue;
      // Order-independent per-device stream: the collection result does
      // not depend on enumeration order (the property that makes sharding
      // devices across threads or machines — and across checkpoint
      // epochs — bit-exact).
      shard.devices.push_back(DeviceState{
          static_cast<sim::DeviceId>(d),
          util::Rng(
              util::mix64(config_.seed ^ 0xc0111ec7 ^ util::mix64(dev.seed))),
          ntp::ClientSchedule(dev, from.window_start, from.window_end),
          {},
          std::nullopt});
    }
  }

  const auto run_chunk = [&](util::SimTime chunk_end) {
    util::run_sharded(states.size(), shards,
                      [&](unsigned, std::size_t b, std::size_t e) {
                        for (std::size_t i = b; i < e; ++i) {
                          process_chunk(states[i], from.window_end, chunk_end);
                        }
                      });
  };

  // Resume: silently replay the already-checkpointed prefix, consuming
  // RNG and DNS state exactly as the original run did.
  if (from.resume_from > from.window_start) {
    for (ShardState& shard : states) shard.recording = false;
    run_chunk(from.resume_from);
    for (ShardState& shard : states) shard.recording = true;
  }

  // Incremental metric flushing: with a sampler attached, the cumulative
  // shard tallies are folded into the registry at every sample boundary
  // (so each WindowRecord's deltas are exact); the `flushed_*` baselines
  // make each flush increment-only. Without a sampler there is exactly
  // one flush, after the final merge — byte-identical to the pre-sampler
  // behavior.
  const std::size_t records_before =
      tiered != nullptr ? static_cast<std::size_t>(tiered->merged_size())
                        : corpus.size();
  const std::uint64_t observations_before =
      tiered != nullptr ? tiered->total_observations() : 0;
  std::uint64_t flushed_polls = 0;
  std::uint64_t flushed_answered = 0;
  std::uint64_t flushed_records = 0;
  std::uint64_t flushed_dedup = 0;
  std::vector<VantageHealthStats> flushed_vh(vantages.size());
  std::vector<std::uint64_t> flushed_v_obs(vantages.size(), 0);
  const auto bump = [](obs::Counter& counter, std::uint64_t cumulative,
                       std::uint64_t& flushed) {
    counter.inc(cumulative - flushed);
    flushed = cumulative;
  };
  // `admitted` is the dedup-aware record count recorded so far (union
  // size minus the caller's baseline), exact at any merge barrier.
  const auto flush_metrics = [&](std::uint64_t admitted) {
    std::uint64_t polls = 0;
    std::uint64_t answered = 0;
    // Spilled observations live in the run headers, not the shard tables.
    std::uint64_t observations =
        tiered != nullptr ? tiered->total_observations() - observations_before
                          : 0;
    std::vector<VantageHealthStats> vh(vantages.size());
    std::vector<std::uint64_t> v_obs(vantages.size(), 0);
    for (const ShardState& shard : states) {
      polls += shard.tally.polls;
      answered += shard.tally.answered;
      observations += shard.corpus.total_observations();
      for (std::size_t v = 0; v < shard.vantage.size(); ++v) {
        vh[v] += shard.vantage[v];
        v_obs[v] += shard.vantage_obs[v];
      }
    }
    bump(metric_polls_, polls, flushed_polls);
    bump(metric_answered_, answered, flushed_answered);
    bump(metric_records_, admitted, flushed_records);
    // Every observation either admits a record or folds into one, so the
    // cumulative dedup count is monotone too.
    bump(metric_dedup_hits_, observations - std::min(observations, admitted),
         flushed_dedup);
    for (std::size_t v = 0;
         v < std::min(vantages.size(), metric_vantage_polls_.size()); ++v) {
      bump(metric_vantage_polls_[v], vh[v].polls, flushed_vh[v].polls);
      bump(metric_vantage_answered_[v], vh[v].answered,
           flushed_vh[v].answered);
      bump(metric_vantage_fault_lost_[v], vh[v].lost_to_fault,
           flushed_vh[v].lost_to_fault);
      bump(metric_vantage_records_[v], v_obs[v], flushed_v_obs[v]);
    }
  };
  // The union of the caller's corpus and every shard corpus — the same
  // construction the checkpoint path snapshots — sized mid-run so the
  // records counter stays exact (insertion counting would double-count
  // addresses seen by two shards).
  const auto union_size = [&]() -> std::size_t {
    std::size_t upper = corpus.size();
    for (const ShardState& shard : states) upper += shard.corpus.size();
    Corpus scratch(std::max<std::size_t>(upper, 1));
    scratch.merge(corpus);
    for (const ShardState& shard : states) scratch.merge(shard.corpus);
    if (tiered != nullptr) {
      // Already-spilled records count too; merged_size_with needs the
      // not-yet-spilled union in ascending order.
      scratch.canonicalize();
      return static_cast<std::size_t>(tiered->merged_size_with(scratch));
    }
    return scratch.size();
  };

  // Merges every shard table into one union corpus and flushes it to disk
  // as a single run. Spilling the union of ALL shards (not one run per
  // shard) is what makes each run's content — and with it the merged
  // stream — independent of the shard count.
  const auto spill_shards = [&] {
    std::size_t upper = 0;
    for (const ShardState& shard : states) upper += shard.corpus.size();
    if (upper == 0) return;
    Corpus combined(upper);
    for (ShardState& shard : states) {
      combined.merge(shard.corpus);
      shard.corpus = Corpus(1 << 12);
    }
    tiered->spill(std::move(combined));
  };

  // The corpus-so-far at a merge barrier: whatever the caller's corpus
  // already held (a resumed-from snapshot) plus every shard's recordings —
  // in tiered mode, the spilled runs collapsed back into memory plus
  // whatever the shards still hold. Union at a barrier, so the result is
  // a pure function of the boundary time, not the shard count.
  const auto union_snapshot = [&]() -> Corpus {
    std::size_t records = corpus.size();
    for (const ShardState& shard : states) records += shard.corpus.size();
    Corpus snapshot = tiered != nullptr
                          ? tiered->collapse()
                          : Corpus(std::max<std::size_t>(records, 1));
    snapshot.merge(corpus);
    for (const ShardState& shard : states) snapshot.merge(shard.corpus);
    return snapshot;
  };

  const bool checkpointing = sink && config_.checkpoint_interval > 0;
  // A hook observes sightings in chunk-iteration order (and may feed
  // order-sensitive consumers like the backscanner's shared RNG), so the
  // sampler's grid must not reshape the chunking there: a hooked pass
  // runs whole-window and leaves sampling to the caller's stage sample.
  const bool sampling =
      config_.sampler != nullptr && config_.metrics != nullptr && !hook;
  // Epoch publication obeys the same hooked-pass exemption as sampling.
  const bool epoching =
      config_.epoch_sink && config_.epoch_interval > 0 && !hook;
  // The checkpoint, epoch and spill grids are anchored at the window
  // start; the sampler keeps its own origin.
  const util::SimGrid checkpoint_grid{from.window_start,
                                      config_.checkpoint_interval};
  const util::SimGrid epoch_grid{from.window_start, config_.epoch_interval};
  const util::SimGrid spill_grid{from.window_start, kSpillBarrierInterval};
  util::SimTime lo = std::max(from.window_start, from.resume_from);
  while (lo < from.window_end) {
    util::SimTime hi = from.window_end;
    if (checkpointing) hi = std::min(hi, checkpoint_grid.next_after(lo));
    if (sampling) hi = std::min(hi, config_.sampler->next_boundary(lo));
    if (epoching) hi = std::min(hi, epoch_grid.next_after(lo));
    // The spill grid guarantees interior merge barriers even when neither
    // checkpointing nor sampling provides them.
    if (tiered != nullptr) hi = std::min(hi, spill_grid.next_after(lo));
    run_chunk(hi);
    if (tiered != nullptr) {
      // Spill before checkpoint emission and sampling so the checkpoint
      // snapshot can be rebuilt from the runs and the spill counters fold
      // into this boundary's timeline window. The window-end tail always
      // spills: after the loop the shard tables must be empty.
      std::size_t heap = 0;
      for (const ShardState& shard : states) {
        heap += shard.corpus.memory_bytes();
      }
      if (hi >= from.window_end ||
          heap > tiered->config().memory_budget_bytes) {
        spill_shards();
      }
    }
    // With both grids active `hi` may be a sample-only boundary, so gate
    // checkpoint emission on actually being on the checkpoint grid.
    if (checkpointing && hi < from.window_end &&
        checkpoint_grid.contains(hi)) {
      CheckpointState snap;
      snap.window_start = from.window_start;
      snap.window_end = from.window_end;
      snap.resume_from = hi;
      snap.polls_attempted = from.polls_attempted;
      snap.polls_answered = from.polls_answered;
      snap.vantage_health = base_vh;
      for (const ShardState& shard : states) {
        snap.polls_attempted += shard.tally.polls;
        snap.polls_answered += shard.tally.answered;
        for (std::size_t v = 0; v < shard.vantage.size(); ++v) {
          snap.vantage_health[v] += shard.vantage[v];
        }
      }
      Corpus snapshot = union_snapshot();
      metric_checkpoints_.inc();
      sink(snap, snapshot);
    }
    // Epoch publication rides the same merge barrier. Canonicalized so
    // the handed corpus's layout — and every serve::Snapshot table built
    // from it — is a pure function of its content.
    if (epoching && hi < from.window_end && epoch_grid.contains(hi)) {
      Corpus snapshot = union_snapshot();
      snapshot.canonicalize();
      config_.epoch_sink(hi, snapshot);
    }
    // All shards joined at `hi` — a merge barrier, so the flushed counter
    // state is exact and thread-count-independent when the sampler reads
    // it. The window-end boundary is left to the caller's stage sample.
    if (sampling && hi < from.window_end && config_.sampler->on_boundary(hi)) {
      flush_metrics(union_size() - records_before);
      config_.sampler->sample(hi, config_.sampler_stage);
    }
    lo = hi;
  }

  // Deterministic reduce: Corpus aggregates are commutative (min/max/
  // sum/or), so the merged corpus matches the serial run field-for-field —
  // and, for a resumed run, the union of the snapshot and the tail
  // matches the uninterrupted run.
  polls_ += from.polls_attempted;
  answered_ += from.polls_answered;
  vantage_health_ = std::move(base_vh);
  for (ShardState& shard : states) {
    // Tiered mode flushed every shard at the final barrier already.
    if (tiered == nullptr) corpus.merge(shard.corpus);
    polls_ += shard.tally.polls;
    answered_ += shard.tally.answered;
    for (std::size_t v = 0; v < shard.vantage.size(); ++v) {
      vantage_health_[v] += shard.vantage[v];
    }
  }
  // Metrics cover what this run itself recorded (the checkpointed `from`
  // baseline was already counted when the original run emitted it). With
  // a sampler this flush covers only the tail since the last boundary —
  // the shard corpora are all merged now, so the union is `corpus`.
  flush_metrics(
      (tiered != nullptr ? static_cast<std::size_t>(tiered->merged_size())
                         : corpus.size()) -
      records_before);
  // Chunk grids (checkpoints, sampling boundaries) change the order merged
  // sightings reach the corpus, which would leak into save_corpus() bytes
  // through linear-probe slot placement. Canonicalize so the layout is a
  // pure function of the content: outputs stay byte-identical across
  // shard counts and with sampling on or off. (Tiered mode needs no
  // equivalent: run files are written canonicalized and the k-way merge
  // emits ascending order by construction.)
  if (tiered == nullptr) corpus.canonicalize();
}

void PassiveCollector::run(Corpus& corpus, util::SimTime start,
                           util::SimTime end, const ObservationHook& hook,
                           const CheckpointSink& sink) {
  collect(corpus, nullptr, CheckpointState{start, end, start, 0, 0, {}},
          hook, sink);
}

void PassiveCollector::run(TieredCorpus& runs, util::SimTime start,
                           util::SimTime end, const ObservationHook& hook,
                           const CheckpointSink& sink) {
  // A fresh run is a resume from an empty snapshot at the window start.
  resume(runs, Corpus(1), CheckpointState{start, end, start, 0, 0, {}}, hook,
         sink);
}

void PassiveCollector::resume(Corpus& corpus, const CheckpointState& from,
                              const ObservationHook& hook,
                              const CheckpointSink& sink) {
  collect(corpus, nullptr, from, hook, sink);
}

void PassiveCollector::resume(TieredCorpus& runs, Corpus&& snapshot,
                              const CheckpointState& from,
                              const ObservationHook& hook,
                              const CheckpointSink& sink) {
  // The checkpointed prefix becomes the first on-disk run; the tail then
  // spills through the normal barrier machinery. Run *boundaries* differ
  // from an uninterrupted spilled run, but the k-way merge erases
  // boundaries — the merged stream is a pure function of content.
  if (snapshot.size() > 0) runs.spill(std::move(snapshot));
  // Scratch stand-in for the caller corpus: collect() keeps it empty in
  // tiered mode (shards spill instead of merging into it).
  Corpus scratch(1);
  collect(scratch, &runs, from, hook, sink);
}

}  // namespace v6::hitlist
