#include "dist/coordinator.h"

#include <chrono>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "dist/lease_table.h"
#include "dist/transport.h"

namespace v6::dist {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ms_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - t0)
          .count());
}

struct WorkerPeer {
  std::uint32_t id = 0;
  bool alive = true;
  std::uint64_t last_seen_ms = 0;
};

}  // namespace

Coordinator::Coordinator(const CoordinatorConfig& config) : config_(config) {
  if (config_.dir.empty()) {
    throw std::invalid_argument("Coordinator: run directory required");
  }
  if (config_.workers == 0) {
    throw std::invalid_argument("Coordinator: at least one worker");
  }
  if (config_.chunk_interval <= 0) {
    throw std::invalid_argument("Coordinator: chunk_interval must be > 0");
  }
}

CoordinatorResult Coordinator::run(util::SimTime start, util::SimTime end) {
  Mailbox inbox(config_.dir + "/to-coordinator");
  std::ofstream frame_log(config_.dir + "/frames.log",
                          std::ios::binary | std::ios::app);
  if (!frame_log) {
    throw std::runtime_error("coordinator: cannot open frames.log");
  }
  // The coordinator is the single frames.log writer: it appends frames it
  // sends at send time and frames it receives at drain time, so the log
  // needs no cross-process locking.
  const auto log_frame = [&](const Frame& frame) {
    const std::vector<std::uint8_t> bytes = encode_frame(frame);
    frame_log.write(reinterpret_cast<const char*>(bytes.data()),
                    static_cast<std::streamsize>(bytes.size()));
    frame_log.flush();
  };

  std::map<std::uint32_t, WorkerPeer> peers;
  std::map<std::uint32_t, Mailbox> outboxes;
  std::map<std::uint32_t, std::uint64_t> next_rx_seq;
  std::uint64_t tx_seq = 0;
  const auto outbox_for = [&](std::uint32_t worker) -> Mailbox& {
    auto it = outboxes.find(worker);
    if (it == outboxes.end()) {
      it = outboxes
               .emplace(worker, Mailbox(config_.dir + "/to-worker-" +
                                        std::to_string(worker)))
               .first;
    }
    return it->second;
  };
  const auto send = [&](std::uint32_t worker, FrameType type,
                        std::uint32_t subset, std::uint32_t epoch,
                        std::uint64_t sim_time,
                        std::vector<std::uint8_t> payload = {}) {
    const Frame frame{type, kCoordinatorId, subset, epoch, tx_seq++, sim_time,
                      std::move(payload)};
    outbox_for(worker).post(frame);
    log_frame(frame);
  };

  // One device part per initial worker. Ticks are milliseconds since
  // start, and the backoff is a constant retry_backoff_ms.
  LeaseTable leases(config_.workers, start, end, config_.chunk_interval,
                    {config_.retry_backoff_ms, config_.retry_backoff_ms, 0.0,
                     0});

  CoordinatorResult result;
  const Clock::time_point t0 = Clock::now();

  while (true) {
    const std::uint64_t now = ms_since(t0);
    if (now > config_.max_wall_ms) {
      throw std::runtime_error(
          "coordinator: deadline exceeded before every part completed");
    }

    for (const Frame& frame : inbox.drain()) {
      // Per-sender FIFO dedup: drain() may redeliver a frame whose file
      // could not be removed; old seqs are already-processed duplicates.
      auto [it, fresh] = next_rx_seq.try_emplace(frame.sender, 0);
      if (!fresh && frame.seq < it->second) continue;
      it->second = frame.seq + 1;
      log_frame(frame);
      WorkerPeer& peer =
          peers.try_emplace(frame.sender, WorkerPeer{frame.sender})
              .first->second;
      peer.last_seen_ms = now;
      switch (frame.type) {
        case FrameType::kHello:
        case FrameType::kHeartbeat:
          break;
        // The lease table's epoch fence: a revoked-then-woken zombie
        // reports with the old epoch and must not overwrite the live
        // lease's progress; a malformed obs report is refused like a
        // hostile artifact path.
        case FrameType::kCheckpointUpload:
          if (leases.upload(frame.subset, frame.epoch, frame.sim_time,
                            decode_artifact(frame.payload).path)) {
            ++result.checkpoints_uploaded;
          }
          break;
        case FrameType::kComplete:
          leases.complete(frame.subset, frame.epoch,
                          decode_artifact(frame.payload).path);
          break;
        case FrameType::kObsReport: {
          std::optional<ObsReport> report;
          try {
            report = decode_obs_report(frame.payload);
          } catch (const std::exception&) {
            // Undecodable: the fence below refuses it.
          }
          if (leases.report(frame.subset, frame.epoch, report.has_value())) {
            result.cluster_obs.add_worker(frame.sender, frame.subset,
                                          std::move(report->snapshot),
                                          std::move(report->windows));
          }
          break;
        }
        case FrameType::kLeaseGrant:
        case FrameType::kShutdown:
        case FrameType::kRevoke:
          break;  // coordinator-only frame types; ignore echoes
      }
    }

    // Liveness: a leased worker silent past the timeout is dead; fence
    // its lease off and put the part back in the table.
    for (std::uint32_t p = 0; p < leases.size(); ++p) {
      const std::uint32_t holder = leases[p].holder;
      if (holder == kNoWorker) continue;
      WorkerPeer& peer = peers.at(holder);
      if (now - peer.last_seen_ms <= config_.heartbeat_timeout_ms) continue;
      peer.alive = false;
      ++result.worker_deaths;
      ++result.reassignments;
      leases.revoke(p, now, now);
      send(holder, FrameType::kRevoke, p, leases[p].epoch,
           leases[p].resume_from);
    }

    // Assignment: pending parts to idle live workers, in id order.
    for (std::uint32_t p = 0; p < leases.size(); ++p) {
      const PartLease& part = leases[p];
      if (part.done || part.holder != kNoWorker || now < part.available_at) {
        continue;
      }
      WorkerPeer* idle = nullptr;
      for (auto& [id, peer] : peers) {
        if (peer.alive && leases.held_by(id) == kNoSubset) {
          idle = &peer;
          break;
        }
      }
      if (idle == nullptr) break;
      idle->last_seen_ms = now;
      ++result.leases_granted;
      const LeaseGrant grant = leases.grant(p, idle->id);
      send(idle->id, FrameType::kLeaseGrant, p, part.epoch, grant.resume_from,
           encode_lease_grant(grant));
    }

    if (leases.all_done()) break;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.poll_interval_ms));
  }

  // Shutdown everyone we know about plus the configured initial fleet
  // (a worker that never managed to say hello still deserves the memo).
  for (std::uint32_t w = 0; w < config_.workers; ++w) {
    peers.try_emplace(w, WorkerPeer{w});
  }
  for (auto& [id, peer] : peers) {
    send(id, FrameType::kShutdown, kNoSubset, 0,
         static_cast<std::uint64_t>(end));
  }

  // Deterministic merge over the final artifacts — byte-identical to the
  // single-process run because each part's checkpoint already is.
  result.stale_uploads_rejected = leases.rejected();
  hitlist::CheckpointState totals;
  for (std::uint32_t p = 0; p < leases.size(); ++p) {
    merge_part(
        hitlist::load_checkpoint_file(config_.dir + "/" + leases[p].artifact),
        result.corpus, totals);
  }
  result.corpus.canonicalize();
  result.polls_attempted = totals.polls_attempted;
  result.polls_answered = totals.polls_answered;
  result.vantage_health = std::move(totals.vantage_health);
  return result;
}

}  // namespace v6::dist
