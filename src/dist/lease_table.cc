#include "dist/lease_table.h"

#include <algorithm>

#include "util/rng.h"

namespace v6::dist {

namespace {

// Same raw-draw-to-[0,1) mapping as util::Rng::uniform(), applied to a
// pure hash so the reassignment jitter never consumes an RNG stream.
double unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

void merge_part(const hitlist::CollectionCheckpoint& part,
                hitlist::Corpus& corpus, hitlist::CheckpointState& totals) {
  corpus.merge(part.corpus);
  totals.polls_attempted += part.state.polls_attempted;
  totals.polls_answered += part.state.polls_answered;
  std::vector<hitlist::VantageHealthStats>& health = totals.vantage_health;
  if (health.size() < part.state.vantage_health.size()) {
    health.resize(part.state.vantage_health.size());
  }
  for (std::size_t v = 0; v < part.state.vantage_health.size(); ++v) {
    health[v] += part.state.vantage_health[v];
  }
}

LeaseTable::LeaseTable(std::uint32_t parts, util::SimTime window_start,
                       util::SimTime window_end,
                       util::SimDuration chunk_interval,
                       const LeaseBackoff& backoff)
    : backoff_(backoff), parts_(parts) {
  window_.window_start = static_cast<std::uint64_t>(window_start);
  window_.window_end = static_cast<std::uint64_t>(window_end);
  window_.chunk_interval = static_cast<std::uint64_t>(chunk_interval);
  window_.subset_count = parts;
  for (PartLease& p : parts_) p.resume_from = window_.window_start;
}

bool LeaseTable::all_done() const noexcept {
  return std::all_of(parts_.begin(), parts_.end(),
                     [](const PartLease& p) { return p.done; });
}

std::uint32_t LeaseTable::held_by(std::uint32_t worker) const noexcept {
  for (std::uint32_t p = 0; p < size(); ++p) {
    if (parts_[p].holder == worker) return p;
  }
  return kNoSubset;
}

LeaseGrant LeaseTable::grant(std::uint32_t part, std::uint32_t worker) {
  PartLease& p = parts_.at(part);
  p.holder = worker;
  p.failed_at.reset();
  LeaseGrant grant = window_;
  grant.resume_from = p.resume_from;
  grant.checkpoint_path = p.artifact;
  return grant;
}

bool LeaseTable::admit(std::uint32_t part, std::uint32_t epoch, bool sound) {
  if (part < size() && parts_[part].epoch == epoch && !parts_[part].done &&
      sound) {
    return true;
  }
  ++rejected_;
  return false;
}

bool LeaseTable::upload(std::uint32_t part, std::uint32_t epoch,
                        std::uint64_t resume_from, const std::string& path) {
  if (!admit(part, epoch, !validate_artifact_path(path))) return false;
  parts_[part].resume_from = resume_from;
  parts_[part].artifact = path;
  return true;
}

bool LeaseTable::complete(std::uint32_t part, std::uint32_t epoch,
                          const std::string& path) {
  if (!admit(part, epoch, !validate_artifact_path(path))) return false;
  PartLease& p = parts_[part];
  p.done = true;
  p.holder = kNoWorker;
  p.resume_from = window_.window_end;
  p.artifact = path;
  return true;
}

bool LeaseTable::report(std::uint32_t part, std::uint32_t epoch,
                        bool well_formed) {
  return admit(part, epoch, well_formed);
}

void LeaseTable::revoke(std::uint32_t part, std::uint64_t failed_at,
                        std::uint64_t detected_at) {
  PartLease& p = parts_.at(part);
  ++p.epoch;
  ++p.retries;
  p.holder = kNoWorker;
  p.failed_at = failed_at;
  // Capped exponential backoff: retry r waits min(cap, base * 2^(r-1)),
  // stretched by up to `jitter` of itself.
  std::uint64_t wait = backoff_.base;
  for (std::uint32_t i = 1; i < p.retries && wait < backoff_.cap; ++i) {
    wait *= 2;
  }
  wait = std::min(wait, backoff_.cap);
  const double stretch =
      backoff_.jitter *
      unit(util::mix64(backoff_.seed ^ 0xba2c0ffu ^
                       util::mix64((static_cast<std::uint64_t>(part) << 32) |
                                   p.retries)));
  p.available_at = detected_at + wait +
                   static_cast<std::uint64_t>(static_cast<double>(wait) *
                                              stretch);
}

}  // namespace v6::dist
