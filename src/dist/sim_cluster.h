// In-process, fully deterministic simulation of the coordinator/worker
// protocol: N simulated workers collect N device parts under a seeded
// netsim::WorkerFaultSchedule, a simulated coordinator grants chunk
// leases, detects death/stalls by heartbeat silence, and reassigns with
// capped exponential backoff + seeded jitter. Lease state — grant, epoch
// fence, revoke, backoff — lives in the dist::LeaseTable the real
// Coordinator drives too. The merged corpus is bit-identical to the
// single-process run at ANY worker count and under ANY fault plan — the
// cluster only decides WHEN work happens and how often it is redone,
// never WHAT gets recorded:
//
//   * lease part s of N simulates the contiguous device range s of N
//     (CollectorConfig::part, util::Part); every device's stream derives
//     only from its own seed, so each worker does about 1/N of the work
//     and the union of the parts equals the whole-world run;
//   * a lease executes through the existing checkpoint machinery — every
//     chunk boundary uploads a durable (state, corpus) snapshot; a kill
//     or revocation loses at most the chunks since the last upload;
//   * recovery is PassiveCollector::resume() from that snapshot — PR 2's
//     invariant makes the resumed tail bit-identical to never crashing;
//   * epoch fencing rejects uploads from zombie (revoked-then-woken)
//     workers, so reassignment never double-counts.
//
// The cluster clock is sim seconds: a healthy chunk of S sim seconds
// costs S lane seconds (times the fault plan's slow factor); replaying an
// already-checkpointed prefix costs replay_cost per sim second. Kills and
// stalls are keyed on lane time. Everything runs on one thread in a
// deterministic event loop, so DistReport numbers are exact and
// reproducible — the recovery-latency figures in bench_dist_collection
// are pure functions of (config, seed).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dist/protocol.h"
#include "dist/worker.h"
#include "hitlist/corpus.h"
#include "hitlist/passive_collector.h"
#include "obs/cluster.h"
#include "netsim/fault_schedule.h"
#include "netsim/pool_dns.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "sim/world.h"
#include "util/sim_time.h"

namespace v6::dist {

struct DistConfig {
  // Worker processes at cluster start (respawns may add more), and the
  // number of device parts the window is leased out in.
  std::uint32_t workers = 4;
  // Sim-time spacing of chunk boundaries inside a lease: every boundary
  // uploads a durable checkpoint, so this is also the worst-case redo
  // after a death. Never changes the merged corpus.
  util::SimDuration chunk_interval = util::kWeek;
  // Heartbeat silence after which the coordinator declares a worker dead
  // or stalled-out and revokes its lease.
  util::SimDuration heartbeat_timeout = util::kDay;
  // Reassignment backoff (dist::LeaseBackoff): retry r of a part waits
  // min(retry_cap, retry_backoff * 2^(r-1)), stretched by up to
  // retry_jitter of itself (seeded jitter — a pure hash of (seed, part,
  // r)).
  util::SimDuration retry_backoff = util::kHour;
  util::SimDuration retry_cap = 12 * util::kHour;
  double retry_jitter = 0.5;
  // Replacement workers: a detected death spawns a fresh worker
  // respawn_delay after detection (keeps workers=1 runs alive through a
  // kill). Replacements carry no planned faults.
  bool respawn = true;
  util::SimDuration respawn_delay = 2 * util::kHour;
  // Lane cost of replaying one already-checkpointed sim second (replay
  // skips recording and the corpus table work, so it is cheaper).
  double replay_cost = 0.125;
  // Seed for the reassignment jitter.
  std::uint64_t seed = 71;
  // Seeded worker fault plan; inactive means a healthy fleet. Forced
  // kills (below) compose with it.
  netsim::WorkerFaultPlanConfig worker_faults;
  // Deterministic forced kills: exactly min(forced_kills, workers) of the
  // initial workers are killed once each, at evenly staggered lane times
  // inside the window (worker w dies at start + (w+1)/(K+1) of the span).
  // This is the CLI's --dist-kills and the identity-matrix test's knob —
  // an exact kill count, unlike the probabilistic worker_faults plan.
  std::uint32_t forced_kills = 0;
};

// What the cluster did — the observability of the run, not its result
// (the corpus is the result, and it never varies with any of this).
struct DistReport {
  std::uint32_t workers = 0;         // including respawned replacements
  std::uint32_t parts = 0;           // device parts leased out
  std::uint64_t leases_granted = 0;
  std::uint64_t checkpoints_uploaded = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t timeouts = 0;        // heartbeat timeouts fired
  std::uint64_t reassignments = 0;
  std::uint64_t stale_uploads_rejected = 0;  // refused by the lease fence
  std::uint64_t replayed_chunks = 0;
  // Cluster-clock sum over reassignments of (recovery grant - failure).
  std::uint64_t recovery_latency_total = 0;
  // Cluster-clock instant the last part completed.
  util::SimTime finished_at = 0;
  // Summed collector counters (equal to the single-process values).
  std::uint64_t polls_attempted = 0;
  std::uint64_t polls_answered = 0;
  std::vector<hitlist::VantageHealthStats> vantage_health;
  // Concatenated V6DIST01 frames of everything said on the wire; passes
  // lint_dist_frames().
  std::vector<std::uint8_t> frame_log;
  // Per-part worker observability reports, decoded from the kObsReport
  // frames each completing lease uploads. Counter families aggregate to
  // exactly the single-process values at any worker count and under any
  // fault plan (only the COMPLETING lease's cumulative totals count per
  // part — aborted leases upload nothing).
  obs::ClusterAggregator cluster_obs;
};

class SimCluster {
 public:
  // `collector_cfg` is the single-process collector configuration the
  // cluster must reproduce; its metrics/sampler are replaced per lease
  // (each lease runs a private Registry + TimelineSampler whose grid
  // coincides with the checkpoint grid; the completing lease uploads the
  // pair as a kObsReport frame, aggregated into DistReport::cluster_obs).
  // The cluster still reports merged totals into the caller's `registry`
  // after the merge. `vantage_faults` is the vantage fault plan every
  // lease's collector consults (nullptr: no vantage faults). `faults`
  // (optional) lets the caller inject forced worker kills on top of
  // config.worker_faults; pass nullptr to let the cluster build the worker
  // plan from the config alone.
  SimCluster(const sim::World& world,
             const netsim::FaultSchedule* vantage_faults,
             const netsim::PoolDns& dns,
             const hitlist::CollectorConfig& collector_cfg,
             const DistConfig& config,
             netsim::WorkerFaultSchedule* faults = nullptr,
             obs::Registry* registry = nullptr,
             obs::TimelineSampler* sampler = nullptr);

  // Runs distributed collection over [start, end) into `out` (merged and
  // canonicalized). Throws std::runtime_error if the fleet dies out with
  // respawn disabled — fail loudly rather than hang.
  DistReport run(hitlist::Corpus& out, util::SimTime start, util::SimTime end);

 private:
  NodeEnv env_;  // the simulation every lease collects from
  DistConfig config_;
  netsim::WorkerFaultSchedule* faults_;
  obs::Registry* registry_;
  obs::TimelineSampler* sampler_;
};

}  // namespace v6::dist
