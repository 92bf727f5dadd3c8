// The one lease state machine of distributed collection, driven by both
// event loops: SimCluster (ticks are sim seconds) and Coordinator (ticks
// are wall milliseconds since start). It never reads a clock, so grant,
// fence, revoke and backoff are written and tested once. Liveness stays in
// the loops — SimCluster derives deaths from its fault plan, Coordinator
// watches heartbeat silence — and both call revoke(), whose epoch bump
// makes the fence refuse a revoked-then-woken zombie's frames.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dist/protocol.h"
#include "hitlist/checkpoint_io.h"
#include "util/sim_time.h"

namespace v6::dist {

// The deterministic reduce both loops end with: folds one part's final
// artifact into the merged corpus and sums its counters into `totals`.
// Parts are disjoint device ranges and Corpus aggregation is commutative,
// so the canonicalized union is the single-process corpus.
void merge_part(const hitlist::CollectionCheckpoint& part,
                hitlist::Corpus& corpus, hitlist::CheckpointState& totals);

// Holder of a part nobody holds.
inline constexpr std::uint32_t kNoWorker = 0xffffffff;

// Reassignment backoff: retry r of a part waits min(cap, base * 2^(r-1))
// ticks, stretched by up to `jitter` of itself. The stretch is a pure hash
// of (seed, part, r), so it never consumes an RNG stream. cap == base with
// jitter 0 is a constant backoff.
struct LeaseBackoff {
  std::uint64_t base = 0;
  std::uint64_t cap = 0;
  double jitter = 0.0;
  std::uint64_t seed = 0;
};

// One device part's lease state.
struct PartLease {
  bool done = false;
  std::uint32_t holder = kNoWorker;  // worker holding the live lease
  std::uint32_t epoch = 0;           // fencing token, bumped per revoke
  std::uint32_t retries = 0;         // revocations so far
  std::uint64_t available_at = 0;    // earliest tick of the next grant
  // Revocation tick awaiting its recovery grant (latency accounting).
  std::optional<std::uint64_t> failed_at;
  // Last durable progress: the resume point (sim seconds) and the artifact
  // holding it — an upload's checkpoint, or the final artifact once done.
  std::uint64_t resume_from = 0;
  std::string artifact;
};

class LeaseTable {
 public:
  // `parts` leases over the collection window, each checkpointing every
  // `chunk_interval` sim seconds; all available at tick 0.
  LeaseTable(std::uint32_t parts, util::SimTime window_start,
             util::SimTime window_end, util::SimDuration chunk_interval,
             const LeaseBackoff& backoff);

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(parts_.size());
  }
  const PartLease& operator[](std::uint32_t part) const {
    return parts_.at(part);
  }
  bool all_done() const noexcept;
  // The part `worker` holds a live lease on, or kNoSubset.
  std::uint32_t held_by(std::uint32_t worker) const noexcept;

  // Hands `part` to `worker` and builds its grant: a fresh lease starts at
  // the window start, a recovery lease resumes from the last durable
  // artifact. Clears failed_at (the caller reads it first for latency).
  LeaseGrant grant(std::uint32_t part, std::uint32_t worker);

  // The fence: each accepts a worker frame only when `part` exists,
  // `epoch` is current, the part is not done, and the payload is sound (a
  // safe artifact path; `well_formed` for obs reports). Every refusal
  // counts in rejected(). upload() records durable progress, complete()
  // marks the part done with its final artifact and frees the holder.
  bool upload(std::uint32_t part, std::uint32_t epoch,
              std::uint64_t resume_from, const std::string& path);
  bool complete(std::uint32_t part, std::uint32_t epoch,
                const std::string& path);
  bool report(std::uint32_t part, std::uint32_t epoch,
              bool well_formed = true);

  // Fences the live lease on `part` off: the epoch and retry count go up,
  // the holder is released, the part is failed at `failed_at` and becomes
  // available again one backoff after `detected_at`.
  void revoke(std::uint32_t part, std::uint64_t failed_at,
              std::uint64_t detected_at);

  // Frames the fence refused so far.
  std::uint64_t rejected() const noexcept { return rejected_; }

 private:
  bool admit(std::uint32_t part, std::uint32_t epoch, bool sound);

  LeaseGrant window_;  // window, chunk interval and part count
  LeaseBackoff backoff_;
  std::vector<PartLease> parts_;
  std::uint64_t rejected_ = 0;
};

}  // namespace v6::dist
