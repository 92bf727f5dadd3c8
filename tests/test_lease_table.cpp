// The lease state machine both distributed event loops drive: grants,
// the epoch/done fence, revocation backoff — plus the grant validation
// and artifact naming shared by the real worker and the linter.
#include "dist/lease_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dist/transport.h"
#include "dist/worker.h"
#include "netsim/pool_dns.h"
#include "sim/world.h"

namespace v6::dist {
namespace {

LeaseTable make_table(std::uint32_t parts, const LeaseBackoff& backoff = {}) {
  return LeaseTable(parts, 0, 1000, 100, backoff);
}

TEST(LeaseTable, FreshGrantCoversTheWholeWindow) {
  LeaseTable leases = make_table(3);
  EXPECT_EQ(leases.size(), 3u);
  EXPECT_FALSE(leases.all_done());
  const LeaseGrant grant = leases.grant(1, 7);
  EXPECT_EQ(grant.window_start, 0u);
  EXPECT_EQ(grant.window_end, 1000u);
  EXPECT_EQ(grant.chunk_interval, 100u);
  EXPECT_EQ(grant.resume_from, 0u);
  EXPECT_EQ(grant.subset_count, 3u);
  EXPECT_TRUE(grant.checkpoint_path.empty());
  EXPECT_EQ(leases[1].holder, 7u);
  EXPECT_EQ(leases.held_by(7), 1u);
  EXPECT_EQ(leases.held_by(8), kNoSubset);
}

TEST(LeaseTable, RecoveryGrantResumesFromTheLastDurableUpload) {
  LeaseTable leases = make_table(2);
  leases.grant(0, 1);
  ASSERT_TRUE(leases.upload(0, 0, 200, artifact_path(0, 0, 200)));
  leases.revoke(0, 250, 260);
  EXPECT_EQ(leases[0].holder, kNoWorker);
  EXPECT_EQ(leases[0].epoch, 1u);
  ASSERT_TRUE(leases[0].failed_at.has_value());
  EXPECT_EQ(*leases[0].failed_at, 250u);
  const LeaseGrant grant = leases.grant(0, 2);
  EXPECT_EQ(grant.resume_from, 200u);
  EXPECT_EQ(grant.checkpoint_path, artifact_path(0, 0, 200));
  EXPECT_FALSE(leases[0].failed_at.has_value());
}

TEST(LeaseTable, StaleEpochAndAfterDoneFramesAreRejected) {
  LeaseTable leases = make_table(2);
  leases.grant(0, 1);
  ASSERT_TRUE(leases.upload(0, 0, 100, artifact_path(0, 0, 100)));
  leases.revoke(0, 150, 150);  // epoch 0 -> 1: the holder is now a zombie

  // The zombie's frames carry epoch 0 and bounce without side effects.
  EXPECT_FALSE(leases.upload(0, 0, 300, artifact_path(0, 0, 300)));
  EXPECT_FALSE(leases.report(0, 0));
  EXPECT_FALSE(leases.complete(0, 0, artifact_path(0, 0, 1000)));
  EXPECT_EQ(leases.rejected(), 3u);
  EXPECT_EQ(leases[0].resume_from, 100u);
  EXPECT_FALSE(leases[0].done);

  // The replacement lease speaks for epoch 1 and completes.
  leases.grant(0, 2);
  EXPECT_TRUE(leases.upload(0, 1, 300, artifact_path(0, 1, 300)));
  EXPECT_TRUE(leases.report(0, 1));
  EXPECT_TRUE(leases.complete(0, 1, artifact_path(0, 1, 1000)));
  EXPECT_TRUE(leases[0].done);
  EXPECT_EQ(leases[0].holder, kNoWorker);
  EXPECT_EQ(leases[0].artifact, artifact_path(0, 1, 1000));

  // After done, even current-epoch frames are refused.
  EXPECT_FALSE(leases.upload(0, 1, 400, artifact_path(0, 1, 400)));
  EXPECT_FALSE(leases.report(0, 1));
  EXPECT_FALSE(leases.complete(0, 1, artifact_path(0, 1, 1000)));
  EXPECT_EQ(leases.rejected(), 6u);
  EXPECT_EQ(leases[0].artifact, artifact_path(0, 1, 1000));
}

TEST(LeaseTable, UnknownPartsAndUnsoundPayloadsAreRejected) {
  LeaseTable leases = make_table(2);
  leases.grant(1, 4);
  EXPECT_FALSE(leases.upload(2, 0, 100, artifact_path(2, 0, 100)));
  EXPECT_FALSE(leases.report(kNoSubset, 0));
  EXPECT_FALSE(leases.upload(1, 0, 100, "/etc/passwd"));
  EXPECT_FALSE(leases.complete(1, 0, "ckpt/../../escape"));
  EXPECT_FALSE(leases.report(1, 0, /*well_formed=*/false));
  EXPECT_EQ(leases.rejected(), 5u);
  EXPECT_FALSE(leases[1].done);
  EXPECT_TRUE(leases[1].artifact.empty());
}

TEST(LeaseTable, BackoffDoublesToTheCapWithBoundedDeterministicJitter) {
  const LeaseBackoff backoff{100, 800, 0.5, 71};
  LeaseTable leases = make_table(3, backoff);
  LeaseTable again = make_table(3, backoff);
  const std::vector<std::uint64_t> expected = {100, 200, 400, 800, 800, 800};
  for (std::size_t r = 0; r < expected.size(); ++r) {
    const std::uint64_t detected = 10'000 * (r + 1);
    leases.revoke(2, detected - 5, detected);
    again.revoke(2, detected - 5, detected);
    const std::uint64_t wait = leases[2].available_at - detected;
    EXPECT_GE(wait, expected[r]) << "retry " << r + 1;
    EXPECT_LE(wait, expected[r] + expected[r] / 2) << "retry " << r + 1;
    EXPECT_EQ(leases[2].available_at, again[2].available_at);
    EXPECT_EQ(leases[2].retries, r + 1);
  }
  // The jitter is a pure hash of (seed, part, retry), so every part's
  // schedule is reproducible.
  leases.revoke(0, 0, 0);
  again.revoke(0, 0, 0);
  EXPECT_EQ(leases[0].available_at, again[0].available_at);
}

TEST(LeaseTable, CapEqualToBaseWithoutJitterIsConstant) {
  LeaseTable leases = make_table(1, {200, 200, 0.0, 0});
  for (std::uint64_t now : {1000u, 5000u, 9000u, 20000u}) {
    leases.revoke(0, now, now);
    EXPECT_EQ(leases[0].available_at, now + 200);
  }
}

TEST(ArtifactPath, NamesEveryArtifactByOneSafeRule) {
  EXPECT_EQ(artifact_path(3, 1, 604800), "ckpt/s3-e1-t604800.v6ckpt");
  EXPECT_FALSE(validate_artifact_path(artifact_path(0, 0, 0)).has_value());
  EXPECT_FALSE(validate_artifact_path(
                   artifact_path(0xffffffffu, 0xffffffffu, ~0ull))
                   .has_value());
}

// Grants the linter rejects must not reach the collector: a zero chunk
// interval would silently turn checkpointing off, a recovery lease without
// a checkpoint would silently restart at the window start, and an empty
// window is meaningless. The worker refuses each before collecting.
TEST(DistWorker, RejectsLeaseGrantsTheLinterRejects) {
  sim::WorldConfig config;
  config.seed = 57;
  config.total_sites = 20;
  config.study_duration = 2 * util::kDay;
  const sim::World world = sim::World::generate(config);
  netsim::PoolDns dns(world);
  NodeEnv env;
  env.world = &world;
  env.dns = &dns;
  env.collector.threads = 1;
  env.start = 0;
  env.end = config.study_duration;

  LeaseGrant good;
  good.window_start = 0;
  good.window_end = static_cast<std::uint64_t>(config.study_duration);
  good.chunk_interval = util::kDay;
  good.resume_from = 0;
  good.subset_count = 1;

  std::vector<std::pair<std::string, LeaseGrant>> bad;
  bad.emplace_back("zero chunk interval", good);
  bad.back().second.chunk_interval = 0;
  bad.emplace_back("recovery lease without a checkpoint path", good);
  bad.back().second.resume_from = util::kDay;
  bad.emplace_back("lease window is empty or inverted", good);
  bad.back().second.window_end = 0;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "v6pool-test-worker-grants";
  for (const auto& [reason, grant] : bad) {
    std::filesystem::remove_all(dir);
    Frame frame;
    frame.type = FrameType::kLeaseGrant;
    frame.sender = kCoordinatorId;
    frame.subset = 0;
    frame.payload = encode_lease_grant(grant);
    const auto problem = validate_lease_grant(frame, grant);
    ASSERT_TRUE(problem.has_value()) << reason;
    EXPECT_EQ(*problem, reason);
    Mailbox(dir.string() + "/to-worker-0").post(frame);

    WorkerConfig worker_config;
    worker_config.dir = dir.string();
    worker_config.poll_interval_ms = 1;
    worker_config.max_idle_ms = 2000;
    Worker worker(env, worker_config);
    try {
      worker.run();
      ADD_FAILURE() << reason << ": worker accepted the grant";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("malformed lease grant"),
                std::string::npos)
          << reason << ": " << e.what();
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace v6::dist
