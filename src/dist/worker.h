// The real-process worker: polls its mailbox for chunk leases, collects
// the leased device part through PassiveCollector's checkpoint
// machinery, uploads a durable V6CKPT01 artifact at every chunk
// boundary, and reports completion. A `kill -9` at any instant loses at
// most the chunks since the last upload — the coordinator's replacement
// lease replays from that artifact and the merged corpus stays
// bit-identical (the invariant PR 2 established per-process and the CI
// smoke job asserts across processes).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "dist/protocol.h"
#include "hitlist/checkpoint_io.h"
#include "hitlist/passive_collector.h"
#include "netsim/data_plane.h"
#include "netsim/pool_dns.h"
#include "sim/world.h"
#include "util/sim_time.h"

namespace v6::dist {

// Everything a node needs to run collection: the deterministic simulation
// inputs every process rebuilds identically from the shared study flags.
// Pointers are borrowed; the owner (the CLI's Study) must outlive the
// worker.
struct NodeEnv {
  const sim::World* world = nullptr;
  netsim::DataPlane* plane = nullptr;
  const netsim::PoolDns* dns = nullptr;
  // Base collector configuration (metrics/sampler are replaced by a
  // per-lease registry + sampler whose report is uploaded as a
  // kObsReport frame; the device part and checkpoint interval come from
  // each lease).
  hitlist::CollectorConfig collector;
  util::SimTime start = 0;
  util::SimTime end = 0;
};

// The deterministic counter families a completing lease reports, built
// from its final checkpoint state — cumulative values the checkpoint
// machinery restores across reassignments (the per-lease registry only
// covers work since the last resume, so a reassigned part would
// undercount). Names, help strings and (name, labels) order mirror the
// collector's registrations and Registry::snapshot(), so the aggregated
// cluster exposition is diffable against the single-process run.
obs::Snapshot completion_snapshot(const hitlist::CheckpointState& state);

// One completed lease: its final artifact (corpus and cumulative counters
// at the window end) and its observability report.
struct LeaseResult {
  hitlist::CollectionCheckpoint artifact;
  ObsReport obs;
};

// Runs one lease's collection, shared by the real Worker and SimCluster:
// device part `part` of grant.subset_count, from the window start or from
// the `resume` checkpoint, with every chunk boundary handed to `sink`. A
// private registry + sampler on the checkpoint grid (same interval,
// anchored at the window start) feeds the report without adding merge
// barriers. Exceptions from `sink` propagate and abort the lease.
LeaseResult run_lease(const NodeEnv& env, std::uint32_t part,
                      const LeaseGrant& grant,
                      std::optional<hitlist::CollectionCheckpoint> resume,
                      const hitlist::CheckpointSink& sink);

struct WorkerConfig {
  std::string dir;  // shared run directory
  std::uint32_t id = 0;
  // Artificial per-chunk delay: widens the window in which the CI smoke
  // job can land its `kill -9` mid-run. 0 in production.
  std::uint32_t chunk_delay_ms = 0;
  std::uint32_t poll_interval_ms = 25;
  // Give up when no shutdown arrives for this long (orphan protection).
  std::uint32_t max_idle_ms = 600000;
};

class Worker {
 public:
  Worker(const NodeEnv& env, const WorkerConfig& config);

  // Blocks: serves leases until a shutdown frame (normal exit) or the
  // idle deadline passes (throws std::runtime_error).
  void run();

 private:
  NodeEnv env_;
  WorkerConfig config_;
};

}  // namespace v6::dist
