#include "dist/sim_cluster.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "dist/lease_table.h"
#include "hitlist/checkpoint_io.h"

namespace v6::dist {

namespace {

hitlist::Corpus clone(const hitlist::Corpus& src) {
  hitlist::Corpus out(std::max<std::size_t>(src.size(), 1));
  out.merge(src);
  return out;
}

// Lease-aborting events, thrown out of the checkpoint sink.
struct WorkerDied {
  util::SimTime at;
};
struct LeaseRevoked {
  util::SimTime revoked_at;
  util::SimTime wake;
};

struct WorkerState {
  std::uint32_t id = 0;
  util::SimTime free_at = 0;
  bool alive = true;
  bool said_hello = false;
};

}  // namespace

SimCluster::SimCluster(const sim::World& world, netsim::DataPlane& plane,
                       const netsim::PoolDns& dns,
                       const hitlist::CollectorConfig& collector_cfg,
                       const DistConfig& config,
                       netsim::WorkerFaultSchedule* faults,
                       obs::Registry* registry, obs::TimelineSampler* sampler)
    : env_{&world, &plane, &dns, collector_cfg},
      config_(config),
      faults_(faults),
      registry_(registry),
      sampler_(sampler) {
  if (config_.workers == 0) {
    throw std::invalid_argument("SimCluster: at least one worker");
  }
  if (config_.chunk_interval <= 0) {
    throw std::invalid_argument("SimCluster: chunk_interval must be > 0");
  }
  if (env_.collector.wire_fidelity) {
    // The wire path serializes every poll through the shared DataPlane's
    // mutable state; a device part would not see the plane state of the
    // whole-world run. Fail loudly instead of silently losing bit-identity.
    throw std::invalid_argument(
        "SimCluster: wire_fidelity collection cannot be distributed");
  }
}

DistReport SimCluster::run(hitlist::Corpus& out, util::SimTime start,
                           util::SimTime end) {
  const std::uint32_t part_count = config_.workers;
  netsim::WorkerFaultSchedule local_plan =
      config_.worker_faults.active()
          ? netsim::WorkerFaultSchedule(config_.workers, config_.worker_faults,
                                        start, end)
          : netsim::WorkerFaultSchedule(config_.workers);
  if (config_.forced_kills > 0) {
    // Exactly K kills at evenly staggered lane times (see DistConfig).
    const std::uint32_t kills =
        std::min(config_.forced_kills, config_.workers);
    for (std::uint32_t w = 0; w < kills; ++w) {
      const util::SimTime at =
          start + (end - start) * static_cast<util::SimDuration>(w + 1) /
                      static_cast<util::SimDuration>(kills + 1);
      local_plan.set_kill(w, at);
    }
  }
  netsim::WorkerFaultSchedule* plan = faults_ != nullptr ? faults_ : &local_plan;

  DistReport report;
  report.parts = part_count;
  report.workers = config_.workers;
  // Appends frames to the log with per-sender strictly-increasing seqs
  // (the invariant lint_dist_frames enforces).
  std::map<std::uint32_t, std::uint64_t> seq;
  const auto emit = [&](FrameType type, std::uint32_t sender,
                        std::uint32_t subset, std::uint32_t epoch,
                        util::SimTime at,
                        std::vector<std::uint8_t> payload = {}) {
    const std::vector<std::uint8_t> bytes = encode_frame(
        Frame{type, sender, subset, epoch, seq[sender]++,
              static_cast<std::uint64_t>(at), std::move(payload)});
    report.frame_log.insert(report.frame_log.end(), bytes.begin(),
                            bytes.end());
  };

  // Bumps a caller-registry counter; a no-op without a registry.
  const auto count = [this](std::string_view name, std::string_view help,
                            obs::Labels labels = {}, std::uint64_t n = 1) {
    if (registry_ != nullptr) {
      registry_->counter(name, help, std::move(labels)).inc(n);
    }
  };
  const auto worker_labels = [](std::uint32_t w) {
    return obs::Labels{{"worker", std::to_string(w)}};
  };
  const auto set_alive = [&](std::uint32_t w, double v) {
    if (registry_ == nullptr) return;
    registry_
        ->gauge("v6_dist_worker_alive", "1 while the worker process lives",
                worker_labels(w))
        .set(v);
  };

  std::vector<WorkerState> workers(config_.workers);
  for (std::uint32_t w = 0; w < config_.workers; ++w) {
    workers[w] = WorkerState{w, start, true, false};
    set_alive(w, 1.0);
  }
  std::uint32_t next_worker_id = config_.workers;

  LeaseTable leases(part_count, start, end, config_.chunk_interval,
                    {static_cast<std::uint64_t>(config_.retry_backoff),
                     static_cast<std::uint64_t>(config_.retry_cap),
                     config_.retry_jitter, config_.seed});
  // The simulated run directory: each part's last durable (state, corpus)
  // pair — its latest accepted upload, then its final artifact.
  std::vector<std::optional<hitlist::CollectionCheckpoint>> durable(
      part_count);

  const auto kill_worker = [&](WorkerState& wk, util::SimTime at) {
    wk.alive = false;
    ++report.worker_deaths;
    set_alive(wk.id, 0.0);
    count("v6_dist_worker_deaths_total", "Worker processes that died");
    if (config_.respawn) {
      // The coordinator notices the death one heartbeat timeout after the
      // last heartbeat and provisions a replacement after respawn_delay.
      WorkerState fresh;
      fresh.id = next_worker_id++;
      fresh.free_at = at + config_.heartbeat_timeout + config_.respawn_delay;
      workers.push_back(fresh);
      ++report.workers;
      set_alive(fresh.id, 1.0);
    }
  };
  // A lease died or stalled out: one heartbeat timeout fired and the part
  // goes back to the table for reassignment.
  const auto count_revocation = [&](std::uint32_t worker, std::uint32_t p) {
    ++report.timeouts;
    ++report.reassignments;
    count("v6_dist_timeouts_total", "Heartbeat timeouts fired",
          worker_labels(worker));
    count("v6_dist_reassignments_total", "Lease reassignments",
          obs::Labels{{"subset", std::to_string(p)}});
  };

  while (!leases.all_done()) {
    // Earliest-start pairing, tie-broken by part then worker id — a
    // deterministic event loop, not a heuristic scheduler.
    std::uint32_t best_p = kNoSubset;
    WorkerState* best_wk = nullptr;
    util::SimTime best_g = 0;
    for (std::uint32_t p = 0; p < part_count; ++p) {
      if (leases[p].done) continue;
      for (WorkerState& wk : workers) {
        if (!wk.alive) continue;
        const util::SimTime g = std::max(
            static_cast<util::SimTime>(leases[p].available_at), wk.free_at);
        if (const auto k = plan->kill_at(wk.id); k && *k <= g) continue;
        if (best_wk == nullptr || g < best_g ||
            (g == best_g && (p < best_p ||
                             (p == best_p && wk.id < best_wk->id)))) {
          best_p = p;
          best_wk = &wk;
          best_g = g;
        }
      }
    }
    if (best_wk == nullptr) {
      // Every live worker is fated to die before it could start: process
      // the earliest planned death (which may respawn a replacement).
      WorkerState* doomed = nullptr;
      util::SimTime doom = 0;
      for (WorkerState& wk : workers) {
        if (!wk.alive) continue;
        if (const auto k = plan->kill_at(wk.id);
            k && (doomed == nullptr || *k < doom)) {
          doomed = &wk;
          doom = *k;
        }
      }
      if (doomed == nullptr) {
        throw std::runtime_error(
            "distributed collection stalled: every worker died and respawn "
            "is disabled");
      }
      kill_worker(*doomed, doom);
      continue;
    }

    const std::uint32_t p = best_p;
    WorkerState& wk = *best_wk;
    const util::SimTime g = best_g;

    // --- grant ------------------------------------------------------------
    ++report.leases_granted;
    count("v6_dist_leases_total", "Chunk leases granted",
          worker_labels(wk.id));
    if (!wk.said_hello) {
      wk.said_hello = true;
      emit(FrameType::kHello, wk.id, kNoSubset, 0, g);
    }
    if (const auto failed_at = leases[p].failed_at) {
      report.recovery_latency_total += static_cast<std::uint64_t>(g) -
                                       *failed_at;
      // Recovery becomes a timeline window: the grant closes a
      // "dist.recover" window at the cluster instant work restarted.
      if (sampler_ != nullptr) {
        sampler_->sample(g, "dist.recover");
      }
    }
    const std::uint32_t epoch = leases[p].epoch;
    const LeaseGrant grant = leases.grant(p, wk.id);
    // Sim seconds a recovery lease replays before it records again.
    const std::uint64_t replay = grant.resume_from - grant.window_start;
    if (replay > 0) {
      const std::uint64_t replayed = replay / grant.chunk_interval;
      report.replayed_chunks += replayed;
      count("v6_dist_replayed_chunks_total",
            "Already-checkpointed chunks replayed by recovery leases", {},
            replayed);
    }
    emit(FrameType::kLeaseGrant, kCoordinatorId, p, epoch, g,
         encode_lease_grant(grant));

    // --- the lease itself -------------------------------------------------
    const std::optional<util::SimTime> kill = plan->kill_at(wk.id);
    // Lane clock: where this worker's process is on the cluster clock.
    util::SimTime lane = g;
    auto prev = static_cast<util::SimTime>(grant.resume_from);

    // Advances the lane over the chunk ending at `to`, applying slow
    // windows, and throws if the worker dies or stalls out on the way.
    const auto advance_to = [&](util::SimTime to) {
      const double cost_factor = plan->cost_factor(wk.id, lane);
      const auto cost = static_cast<util::SimDuration>(
          static_cast<double>(to - prev) * cost_factor);
      util::SimTime t_new = lane + std::max<util::SimDuration>(cost, 0);
      if (kill && *kill <= t_new) throw WorkerDied{*kill};
      if (plan->stalled(wk.id, t_new)) {
        const util::SimTime wake = plan->stall_end(wk.id, t_new);
        if (kill && *kill <= wake) throw WorkerDied{*kill};
        // A healthy worker heartbeats continuously, so silence starts at
        // the stall window's start; outlasting the timeout means the
        // coordinator already revoked the lease under it.
        util::SimTime stall_start = t_new;
        for (const netsim::OutageWindow& w :
             plan->windows(static_cast<std::uint8_t>(wk.id))) {
          if (t_new >= w.start && t_new < w.end) {
            stall_start = w.start;
            break;
          }
        }
        if (wake - stall_start > config_.heartbeat_timeout) {
          throw LeaseRevoked{stall_start + config_.heartbeat_timeout, wake};
        }
        t_new = wake;
      }
      lane = t_new;
      prev = to;
    };

    const auto sink = [&](const hitlist::CheckpointState& state,
                          const hitlist::Corpus& snapshot) {
      advance_to(state.resume_from);
      // Durable: the coordinator holds the (state, corpus) pair; a later
      // recovery lease resumes from exactly this instant.
      const auto t = static_cast<std::uint64_t>(state.resume_from);
      const Artifact artifact{artifact_path(p, epoch, t),
                              snapshot.total_observations()};
      if (leases.upload(p, epoch, t, artifact.path)) {
        durable[p] = hitlist::CollectionCheckpoint{state, clone(snapshot)};
      }
      emit(FrameType::kHeartbeat, wk.id, p, epoch, lane);
      ++report.heartbeats;
      emit(FrameType::kCheckpointUpload, wk.id, p, epoch, lane,
           encode_artifact(artifact));
      ++report.checkpoints_uploaded;
      count("v6_dist_uploads_total", "Durable checkpoint uploads",
            worker_labels(wk.id));
    };

    try {
      // Replaying the checkpointed prefix is cheaper than collecting but
      // not free; the process can die mid-replay too.
      std::optional<hitlist::CollectionCheckpoint> resume;
      if (replay > 0) {
        lane += static_cast<util::SimDuration>(config_.replay_cost *
                                               static_cast<double>(replay));
        if (kill && *kill <= lane) throw WorkerDied{*kill};
        resume = hitlist::CollectionCheckpoint{durable[p]->state,
                                               clone(durable[p]->corpus)};
      }
      LeaseResult result = run_lease(env_, p, grant, std::move(resume), sink);
      // The final partial chunk has no interior boundary; its upload is
      // the completion itself, and death or a stall-out on the way still
      // aborts the lease.
      advance_to(end);
      // The observability report rides the completion barrier, just
      // before kComplete.
      emit(FrameType::kObsReport, wk.id, p, epoch, lane,
           encode_obs_report(result.obs));
      if (leases.report(p, epoch)) {
        report.cluster_obs.add_worker(wk.id, p,
                                      std::move(result.obs.snapshot),
                                      std::move(result.obs.windows));
      }
      const Artifact artifact{artifact_path(p, epoch, grant.window_end),
                              result.artifact.corpus.total_observations()};
      emit(FrameType::kComplete, wk.id, p, epoch, lane,
           encode_artifact(artifact));
      if (leases.complete(p, epoch, artifact.path)) {
        durable[p] = std::move(result.artifact);
      }
      wk.free_at = lane;
      report.finished_at = std::max(report.finished_at, lane);
    } catch (const WorkerDied& died) {
      // Heartbeat silence from the death instant; detection one timeout
      // later; the lease is reassigned after backoff. Work since the last
      // durable upload is gone — and that is fine, the replacement
      // replays it from the part's durable checkpoint.
      count_revocation(wk.id, p);
      kill_worker(wk, died.at);
      leases.revoke(p, static_cast<std::uint64_t>(died.at),
                    static_cast<std::uint64_t>(died.at +
                                               config_.heartbeat_timeout));
    } catch (const LeaseRevoked& revoked) {
      // The worker stalled past the timeout: the coordinator fenced the
      // lease off (epoch bump) while the worker slept. Its upload on
      // waking carries the stale epoch and bounces off the table's fence —
      // the zombie cannot double-count anything.
      count_revocation(wk.id, p);
      leases.revoke(p, static_cast<std::uint64_t>(revoked.revoked_at),
                    static_cast<std::uint64_t>(revoked.revoked_at));
      emit(FrameType::kRevoke, kCoordinatorId, p, epoch,
           revoked.revoked_at);
      const auto t = static_cast<std::uint64_t>(prev);
      const Artifact stale{artifact_path(p, epoch, t)};
      emit(FrameType::kCheckpointUpload, wk.id, p, epoch, revoked.wake,
           encode_artifact(stale));
      if (!leases.upload(p, epoch, t, stale.path)) {
        count("v6_dist_stale_uploads_total",
              "Uploads rejected by epoch fencing");
      }
      wk.free_at = revoked.wake;
    }
  }
  report.stale_uploads_rejected = leases.rejected();

  emit(FrameType::kShutdown, kCoordinatorId, kNoSubset, 0,
       report.finished_at);

  // --- deterministic merge ------------------------------------------------
  // Corpus aggregation is commutative and the device parts are disjoint,
  // so this is the same reduce the sharded single-process run performs.
  hitlist::CheckpointState totals;
  totals.vantage_health.resize(env_.world->vantages().size());
  for (const std::optional<hitlist::CollectionCheckpoint>& part : durable) {
    merge_part(*part, out, totals);
  }
  out.canonicalize();
  report.polls_attempted = totals.polls_attempted;
  report.polls_answered = totals.polls_answered;
  report.vantage_health = totals.vantage_health;

  // Collector-family totals, bulk-added post-merge exactly like the
  // single-process collector's merge-time flush. The records counter is
  // dedup-aware (union size), matching the single-process exposition.
  for (const obs::MetricSample& s : completion_snapshot(totals).samples) {
    count(s.name, s.help, s.labels, s.counter_value);
  }
  count("v6_collector_records_total",
        "Unique client addresses admitted to the corpus", {}, out.size());
  count("v6_collector_dedup_hits_total",
        "Observations folded into an existing corpus record", {},
        out.total_observations() -
            std::min<std::uint64_t>(out.total_observations(), out.size()));
  count("v6_dist_heartbeats_total", "Worker heartbeats received", {},
        report.heartbeats);
  return report;
}

}  // namespace v6::dist
