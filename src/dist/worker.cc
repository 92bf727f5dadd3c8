#include "dist/worker.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "dist/transport.h"
#include "hitlist/checkpoint_io.h"

namespace v6::dist {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

obs::Snapshot completion_snapshot(const hitlist::CheckpointState& state) {
  obs::Snapshot snap;
  const auto counter = [&snap](std::string_view name, std::string_view help,
                               obs::Labels labels, std::uint64_t value) {
    obs::MetricSample s;
    s.name = std::string(name);
    s.help = std::string(help);
    s.type = obs::MetricType::kCounter;
    s.labels = std::move(labels);
    s.counter_value = value;
    snap.samples.push_back(std::move(s));
  };
  counter("v6_collector_polls_total",
          "NTP poll packets attempted by pool clients", {},
          state.polls_attempted);
  counter("v6_collector_answered_total",
          "Poll attempts whose response passed client-side validation", {},
          state.polls_answered);
  const auto& health = state.vantage_health;
  for (std::size_t v = 0; v < health.size(); ++v) {
    const obs::Labels labels{{"vantage", std::to_string(v)}};
    counter(obs::kVantagePollsFamily,
            "Recorded poll packets steered to this vantage", labels,
            health[v].polls);
    counter(obs::kVantageAnsweredFamily,
            "Poll attempts this vantage answered past client validation",
            labels, health[v].answered);
    counter(obs::kVantageFaultLostFamily,
            "Poll attempts the fault plan swallowed at this vantage", labels,
            health[v].lost_to_fault);
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const obs::MetricSample& a, const obs::MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snap;
}

LeaseResult run_lease(const NodeEnv& env, std::uint32_t part,
                      const LeaseGrant& grant,
                      std::optional<hitlist::CollectionCheckpoint> resume,
                      const hitlist::CheckpointSink& sink) {
  hitlist::CheckpointState from;
  hitlist::Corpus corpus(1 << 12);
  if (resume) {
    from = std::move(resume->state);
    corpus = std::move(resume->corpus);
  } else {
    from.window_start = static_cast<util::SimTime>(grant.window_start);
    from.window_end = static_cast<util::SimTime>(grant.window_end);
    from.resume_from = from.window_start;
  }
  hitlist::CollectorConfig cfg = env.collector;
  cfg.part = {part, grant.subset_count};
  cfg.checkpoint_interval =
      static_cast<util::SimDuration>(grant.chunk_interval);
  // A killed lease uploads no report; the replacement's report carries the
  // checkpoint-restored cumulative totals.
  obs::Registry registry;
  obs::TimelineSampler sampler(registry, cfg.checkpoint_interval,
                               from.window_start);
  cfg.metrics = &registry;
  cfg.sampler = &sampler;
  hitlist::PassiveCollector collector(*env.world, *env.plane, *env.dns, cfg);
  collector.resume(corpus, from, {}, sink);

  hitlist::CheckpointState state;
  state.window_start = from.window_start;
  state.window_end = from.window_end;
  state.resume_from = from.window_end;
  state.polls_attempted = collector.polls_attempted();
  state.polls_answered = collector.polls_answered();
  state.vantage_health = collector.vantage_health();
  // Close the lease's final window (the collector leaves the window-end
  // sample to the caller).
  sampler.sample(from.window_end, cfg.sampler_stage);
  ObsReport obs{completion_snapshot(state), sampler.take()};
  return {hitlist::CollectionCheckpoint{std::move(state), std::move(corpus)},
          std::move(obs)};
}

Worker::Worker(const NodeEnv& env, const WorkerConfig& config)
    : env_(env), config_(config) {
  if (env_.world == nullptr || env_.plane == nullptr || env_.dns == nullptr) {
    throw std::invalid_argument("Worker: NodeEnv must be fully wired");
  }
  if (config_.dir.empty()) {
    throw std::invalid_argument("Worker: run directory required");
  }
}

void Worker::run() {
  Mailbox inbox(config_.dir + "/to-worker-" + std::to_string(config_.id));
  Mailbox outbox(config_.dir + "/to-coordinator");
  std::uint64_t tx_seq = 0;
  const auto send = [&](FrameType type, std::uint32_t subset,
                        std::uint32_t epoch, std::uint64_t sim_time,
                        std::vector<std::uint8_t> payload = {}) {
    outbox.post(Frame{type, config_.id, subset, epoch, tx_seq++, sim_time,
                      std::move(payload)});
  };

  send(FrameType::kHello, kNoSubset, 0,
       static_cast<std::uint64_t>(env_.start));

  Clock::time_point last_activity = Clock::now();
  while (true) {
    const std::vector<Frame> frames = inbox.drain();
    if (!frames.empty()) last_activity = Clock::now();
    for (const Frame& frame : frames) {
      if (frame.type == FrameType::kShutdown) return;
      if (frame.type == FrameType::kRevoke) continue;  // idle: nothing held
      if (frame.type != FrameType::kLeaseGrant) continue;

      const LeaseGrant grant = decode_lease_grant(frame.payload);
      const std::uint32_t subset = frame.subset;
      const std::uint32_t epoch = frame.epoch;
      if (const auto why = validate_lease_grant(frame, grant)) {
        throw std::runtime_error("worker: malformed lease grant: " + *why);
      }

      std::optional<hitlist::CollectionCheckpoint> resume;
      if (!grant.checkpoint_path.empty()) {
        resume = hitlist::load_checkpoint_file(config_.dir + "/" +
                                               grant.checkpoint_path);
      }

      const auto sink = [&](const hitlist::CheckpointState& state,
                            const hitlist::Corpus& snapshot) {
        Artifact artifact;
        artifact.path = artifact_path(
            subset, epoch, static_cast<std::uint64_t>(state.resume_from));
        artifact.bytes = hitlist::save_checkpoint_file(
            config_.dir + "/" + artifact.path, state, snapshot);
        send(FrameType::kHeartbeat, subset, epoch,
             static_cast<std::uint64_t>(state.resume_from));
        send(FrameType::kCheckpointUpload, subset, epoch,
             static_cast<std::uint64_t>(state.resume_from),
             encode_artifact(artifact));
        if (config_.chunk_delay_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(config_.chunk_delay_ms));
        }
      };
      const LeaseResult result =
          run_lease(env_, subset, grant, std::move(resume), sink);

      // Completion: the final (state, corpus) as one durable artifact the
      // coordinator merges from, preceded by the observability report.
      Artifact artifact;
      artifact.path = artifact_path(subset, epoch, grant.window_end);
      artifact.bytes = hitlist::save_checkpoint_file(
          config_.dir + "/" + artifact.path, result.artifact.state,
          result.artifact.corpus);
      send(FrameType::kObsReport, subset, epoch, grant.window_end,
           encode_obs_report(result.obs));
      send(FrameType::kComplete, subset, epoch, grant.window_end,
           encode_artifact(artifact));
      last_activity = Clock::now();
    }
    if (Clock::now() - last_activity >
        std::chrono::milliseconds(config_.max_idle_ms)) {
      throw std::runtime_error("worker: no shutdown within the idle deadline");
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.poll_interval_ms));
  }
}

}  // namespace v6::dist
