// The serving layer: epoch snapshots, the RCU-style swap, and the
// per-epoch determinism contract (answers are a pure function of the
// published snapshot at any reader/ingest thread count).
#include "serve/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/eui64_tracking.h"
#include "analysis/scan_source.h"
#include "core/study.h"
#include "net/eui64.h"
#include "obs/cluster.h"
#include "obs/exposition.h"
#include "serve/snapshot.h"

namespace v6::serve {
namespace {

core::StudyConfig small_config(std::uint64_t seed = 7) {
  core::StudyConfig config;
  config.world.seed = seed;
  config.world.total_sites = 250;
  config.pool_capture_share = 1.0;
  config.world.study_duration = 20 * util::kDay;
  return config;
}

core::RunOptions serve_options(util::SimDuration epoch_interval,
                               std::size_t retain = 64) {
  core::RunOptions options;
  options.campaigns = false;
  options.backscan = false;
  options.analysis = false;
  options.serve.enabled = true;
  options.serve.epoch_interval = epoch_interval;
  options.serve.retain_epochs = retain;
  return options;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> epoch_digests(
    const QueryService& service) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& snap : service.retained()) {
    out.emplace_back(snap->epoch(), snap->digest());
  }
  return out;
}

TEST(ServeSnapshot, AnswersHandBuiltCorpus) {
  hitlist::Corpus corpus(64);
  const std::uint64_t net64 = 0x2001'0db8'0001'0002ull;
  const net::MacAddress mac = net::MacAddress::from_u64(0xf00220aabbccull);
  // Three addresses in one /64: a structured IID, a high-entropy IID, and
  // an EUI-64 one; plus a lone address in a different /48.
  const net::Ipv6Address structured = net::Ipv6Address::from_u64(net64, 0x1);
  const net::Ipv6Address random =
      net::Ipv6Address::from_u64(net64, 0x9c37'b1e5'52fa'8d64ull);
  const net::Ipv6Address eui = net::eui64_address(net64, mac);
  const net::Ipv6Address elsewhere =
      net::Ipv6Address::from_u64(0x2001'0db9'0000'0000ull, 0x1);
  corpus.add(structured, 100, 1);
  corpus.add(structured, 900, 2);
  corpus.add(random, 200, 1);
  corpus.add(eui, 300, 1);
  corpus.add(elsewhere, 400, 3);
  corpus.canonicalize();

  const auto snap = Snapshot::build(analysis::make_source(corpus), 1, 1000);
  EXPECT_EQ(snap->epoch(), 1u);
  EXPECT_EQ(snap->as_of(), 1000);
  EXPECT_EQ(snap->records(), 4u);
  EXPECT_EQ(snap->observations(), 5u);

  const auto rec = snap->find(structured);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->count, 2u);
  EXPECT_EQ(rec->first_seen, 100u);
  EXPECT_EQ(rec->last_seen, 900u);
  EXPECT_FALSE(snap->contains(net::Ipv6Address::from_u64(net64, 0x2)));

  // The three /64-sharing addresses land in one /48; `elsewhere` in its
  // own.
  EXPECT_EQ(snap->slash48_density(structured), 3u);
  EXPECT_EQ(snap->slash48_density(elsewhere), 1u);
  EXPECT_EQ(snap->slash48_count(), 2u);

  const Slash64Summary* sum = snap->slash64(random);
  ASSERT_NE(sum, nullptr);
  EXPECT_EQ(sum->addresses, 3u);
  EXPECT_EQ(sum->low + sum->medium + sum->high, 3u);
  EXPECT_GE(sum->low, 1u);   // the structured IID
  EXPECT_GE(sum->high, 1u);  // the random IID
  EXPECT_EQ(sum->eui64, 1u);
  EXPECT_EQ(snap->slash64(net::Ipv6Address::from_u64(0x42, 0x1)), nullptr);

  const OuiRisk* risk = snap->oui_risk(mac.oui());
  ASSERT_NE(risk, nullptr);
  EXPECT_EQ(risk->eui64_addresses, 1u);
  EXPECT_EQ(risk->unique_macs, 1u);
  EXPECT_EQ(risk->trackable_macs, 0u);  // one /64 only: below the §5.2 gate
  EXPECT_EQ(risk->mac_slash64_pairs, 1u);
  EXPECT_EQ(snap->oui_risk(net::Oui(0x123456)), nullptr);
}

TEST(ServeSnapshot, TrackableMacCrossesSlash64Gate) {
  hitlist::Corpus corpus(16);
  const net::MacAddress mac = net::MacAddress::from_u64(0xf00220010203ull);
  corpus.add(net::eui64_address(0xaaaa'0000'0000'0001ull, mac), 10, 1);
  corpus.add(net::eui64_address(0xbbbb'0000'0000'0001ull, mac), 20, 1);
  corpus.canonicalize();
  const auto snap = Snapshot::build(analysis::make_source(corpus), 1, 100);
  const OuiRisk* risk = snap->oui_risk(mac.oui());
  ASSERT_NE(risk, nullptr);
  EXPECT_EQ(risk->unique_macs, 1u);
  EXPECT_EQ(risk->trackable_macs, 1u);  // >= 2 distinct /64s
  EXPECT_EQ(risk->mac_slash64_pairs, 2u);
  EXPECT_EQ(risk->eui64_addresses, 2u);
}

TEST(ServeSnapshot, OuiTotalsMatchEui64Tracker) {
  core::Study study(small_config());
  study.run(serve_options(0));
  const hitlist::Corpus& ntp = study.results().ntp;
  const auto snap = Snapshot::build(analysis::make_source(ntp), 1, 0);

  // The tracker is the §5 reference implementation; the snapshot's
  // per-OUI rows must sum to its totals exactly.
  analysis::Eui64Tracker tracker(ntp, study.world());
  std::uint64_t eui64_addresses = 0, unique_macs = 0, trackable = 0;
  ASSERT_GT(snap->oui_count(), 0u);
  // Sum every OUI row by probing each distinct OUI through the query API.
  // (Rows are not directly iterable — answer-surface only — so rebuild
  // the key set from the corpus.)
  std::vector<std::uint32_t> ouis;
  for (const auto& rec : ntp.records()) {
    if (const auto mac = net::mac_from_eui64(rec.address.iid())) {
      ouis.push_back(mac->oui().value());
    }
  }
  std::sort(ouis.begin(), ouis.end());
  ouis.erase(std::unique(ouis.begin(), ouis.end()), ouis.end());
  EXPECT_EQ(ouis.size(), snap->oui_count());
  for (const std::uint32_t oui : ouis) {
    const OuiRisk* risk = snap->oui_risk(net::Oui(oui));
    ASSERT_NE(risk, nullptr);
    eui64_addresses += risk->eui64_addresses;
    unique_macs += risk->unique_macs;
    trackable += risk->trackable_macs;
  }
  EXPECT_EQ(eui64_addresses, tracker.eui64_addresses());
  EXPECT_EQ(unique_macs, tracker.unique_macs());
  EXPECT_EQ(trackable, tracker.trackable_macs());
}

TEST(ServeSnapshot, CorpusAndTieredSourcesAgree) {
  // The same collection through the in-memory corpus and the out-of-core
  // tiered backend must serve byte-identical answers (equal digests).
  core::StudyConfig plain = small_config(11);
  core::Study in_memory(plain);
  in_memory.run(serve_options(0));

  core::StudyConfig spilled = small_config(11);
  spilled.spill.memory_budget_bytes = 1 << 15;
  core::Study tiered(spilled);
  tiered.run(serve_options(0));
  ASSERT_NE(tiered.results().ntp_runs, nullptr);
  ASSERT_GT(tiered.results().ntp_runs->run_count(), 1u);

  const auto a =
      Snapshot::build(analysis::make_source(in_memory.results().ntp), 1, 0);
  const auto b = Snapshot::build(
      analysis::make_source(*tiered.results().ntp_runs), 1, 0);
  EXPECT_EQ(a->records(), b->records());
  EXPECT_EQ(a->digest(), b->digest());
}

TEST(QueryServiceTest, RetentionBoundsSnapshots) {
  hitlist::Corpus corpus(16);
  corpus.add(net::Ipv6Address::from_u64(0x1, 0x1), 1, 1);
  corpus.canonicalize();
  const analysis::ScanSource src = analysis::make_source(corpus);

  QueryService service(/*retain_epochs=*/3);
  for (int i = 0; i < 5; ++i) {
    service.publish(src, (i + 1) * 100);
  }
  EXPECT_EQ(service.epochs_published(), 5u);
  const auto retained = service.retained();
  ASSERT_EQ(retained.size(), 3u);
  EXPECT_EQ(retained.front()->epoch(), 3u);
  EXPECT_EQ(retained.back()->epoch(), 5u);
  EXPECT_EQ(service.current()->epoch(), 5u);

  // A reader pinning an evicted epoch keeps it alive on its own.
  const auto pinned = retained.front();
  service.set_retain_epochs(1);
  EXPECT_EQ(service.retained().size(), 1u);
  EXPECT_EQ(pinned->epoch(), 3u);
}

TEST(QueryServiceTest, CountersReachRegistry) {
  obs::Registry registry;
  hitlist::Corpus corpus(16);
  corpus.add(net::Ipv6Address::from_u64(0x1, 0x1), 1, 1);
  corpus.canonicalize();

  QueryService service;
  service.set_metrics(&registry);
  service.publish(analysis::make_source(corpus), 100);
  service.point(net::Ipv6Address::from_u64(0x1, 0x1));
  service.point(net::Ipv6Address::from_u64(0x1, 0x2));
  service.slash48_density(net::Ipv6Address::from_u64(0x1, 0x1));
  service.count_queries(QueryKind::kOuiRisk, 7);

  std::uint64_t point = 0, density = 0, oui = 0, epochs = 0;
  double epoch_gauge = 0, records_gauge = 0;
  for (const auto& sample : registry.snapshot().samples) {
    if (sample.name == "v6_serve_queries_total") {
      for (const auto& [k, v] : sample.labels) {
        if (k != "kind") continue;
        if (v == "point") point = sample.counter_value;
        if (v == "density48") density = sample.counter_value;
        if (v == "oui") oui = sample.counter_value;
      }
    }
    if (sample.name == "v6_serve_epochs_published_total") {
      epochs = sample.counter_value;
    }
    if (sample.name == "v6_serve_epoch") epoch_gauge = sample.gauge_value;
    if (sample.name == "v6_serve_snapshot_records") {
      records_gauge = sample.gauge_value;
    }
  }
  EXPECT_EQ(point, 2u);
  EXPECT_EQ(density, 1u);
  EXPECT_EQ(oui, 7u);
  EXPECT_EQ(epochs, 1u);
  EXPECT_EQ(epoch_gauge, 1.0);
  EXPECT_EQ(records_gauge, 1.0);
}

TEST(QueryServiceTest, LatencyHistogramsRecordWallClockPerKind) {
  obs::Registry registry;
  hitlist::Corpus corpus(16);
  corpus.add(net::Ipv6Address::from_u64(0x1, 0x1), 1, 1);
  corpus.canonicalize();

  QueryService service;
  service.set_metrics(&registry);
  service.publish(analysis::make_source(corpus), 100);
  service.point(net::Ipv6Address::from_u64(0x1, 0x1));
  service.point(net::Ipv6Address::from_u64(0x1, 0x2));
  service.slash48_density(net::Ipv6Address::from_u64(0x1, 0x1));
  service.slash64_entropy(net::Ipv6Address::from_u64(0x1, 0x1));
  service.oui_risk(net::Oui(0x001122));

  // One v6_serve_latency_us histogram per queried kind, each internally
  // consistent: the bucket counts sum to `count` (every observation lands
  // in some bucket), and the observation count equals the query count.
  // The observed values are wall-clock and carry no determinism promise.
  std::uint64_t families_seen = 0;
  for (const auto& sample : registry.snapshot().samples) {
    if (sample.name != "v6_serve_latency_us") continue;
    ++families_seen;
    ASSERT_EQ(sample.labels.size(), 1u);
    EXPECT_EQ(sample.labels[0].first, "kind");
    const std::string& kind = sample.labels[0].second;
    const std::uint64_t expected = kind == "point" ? 2u : 1u;
    EXPECT_EQ(sample.histogram.count, expected) << kind;
    std::uint64_t bucket_sum = 0;
    for (const std::uint64_t c : sample.histogram.counts) bucket_sum += c;
    EXPECT_EQ(bucket_sum, sample.histogram.count) << kind;
    EXPECT_EQ(sample.histogram.bounds, serve_latency_buckets_us()) << kind;
    EXPECT_GE(sample.histogram.sum, 0.0) << kind;
  }
  EXPECT_EQ(families_seen, kQueryKinds);

  // The rendered exposition passes the linter's histogram-consistency
  // checks, and the percentile estimator produces values for every kind.
  const std::string prom =
      obs::render(registry.snapshot(), obs::ExpositionFormat::kPrometheus);
  EXPECT_FALSE(obs::lint_prometheus(prom).has_value());
  for (const auto& sample : registry.snapshot().samples) {
    if (sample.name != "v6_serve_latency_us") continue;
    const obs::HistogramSummary summary =
        obs::summarize_histogram(sample.histogram);
    EXPECT_GT(summary.count, 0u);
    EXPECT_TRUE(summary.p50.has_value());
    EXPECT_TRUE(summary.p99.has_value());
  }
}

TEST(QueryServiceTest, StudyPublishesEpochsOnTheGrid) {
  core::Study study(small_config());
  QueryService& service = study.query_service();
  study.run(serve_options(6 * util::kDay));
  // 20-day window, 6-day grid: interior epochs at days 6, 12, 18 plus the
  // final window-end epoch.
  EXPECT_EQ(service.epochs_published(), 4u);
  const auto retained = service.retained();
  ASSERT_EQ(retained.size(), 4u);
  EXPECT_EQ(retained[0]->as_of(), 6 * util::kDay);
  EXPECT_EQ(retained[3]->as_of(), 20 * util::kDay);
  EXPECT_EQ(retained[3]->records(), study.ntp_size());
  // Epochs only grow and the final one covers the full corpus.
  for (std::size_t i = 1; i < retained.size(); ++i) {
    EXPECT_GE(retained[i]->records(), retained[i - 1]->records());
    EXPECT_GT(retained[i]->epoch(), retained[i - 1]->epoch());
  }
  // The query counters feed the registry the timeline sampler folds, so a
  // pinned-epoch reader tallies appear under v6_serve_queries_total.
  service.count_queries(QueryKind::kPoint, 3);
}

TEST(QueryServiceTest, EpochsBitIdenticalAcrossIngestThreadCounts) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> runs;
  for (const unsigned threads : {1u, 4u}) {
    core::StudyConfig config = small_config(23);
    config.collector.threads = threads;
    core::Study study(config);
    study.run(serve_options(5 * util::kDay));
    runs.push_back(epoch_digests(study.query_service()));
    ASSERT_GE(runs.back().size(), 4u);
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(QueryServiceTest, EpochsBitIdenticalAcrossSpillBudgets) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> runs;
  for (const std::size_t budget : {std::size_t{0}, std::size_t{1} << 15}) {
    core::StudyConfig config = small_config(29);
    config.spill.memory_budget_bytes = budget;
    core::Study study(config);
    study.run(serve_options(5 * util::kDay));
    runs.push_back(epoch_digests(study.query_service()));
    ASSERT_GE(runs.back().size(), 4u);
  }
  EXPECT_EQ(runs[0], runs[1]);
}

// TSan tier: concurrent readers hammer the service while a background
// thread runs live ingest. Covered by the sanitizer CI jobs (test name
// matches the QueryService regex); in a plain build it still asserts the
// determinism contract — per-epoch answers identical at every reader
// thread count.
TEST(QueryServiceTest, ConcurrentReadersSeeConsistentEpochs) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> per_run;
  for (const unsigned reader_threads : {1u, 2u, 4u}) {
    core::StudyConfig config = small_config(31);
    config.collector.threads = 2;
    core::Study study(config);
    QueryService& service = study.query_service();

    std::atomic<bool> done{false};
    std::thread ingest([&] {
      study.run(serve_options(4 * util::kDay));
      done.store(true, std::memory_order_release);
    });

    std::vector<std::thread> readers;
    std::vector<std::uint64_t> answered(reader_threads, 0);
    for (unsigned r = 0; r < reader_threads; ++r) {
      readers.emplace_back([&, r] {
        const net::Ipv6Address probe =
            net::Ipv6Address::from_u64(0x2000'0000'0000'0000ull + r, 0x1);
        std::uint64_t local = 0;
        while (!done.load(std::memory_order_acquire)) {
          // The epoch-pinned read path: one atomic load, then any number
          // of queries against the frozen snapshot.
          if (const auto snap = service.current()) {
            local += snap->contains(probe) ? 1 : 0;
            local += snap->slash48_density(probe);
            const auto* sum = snap->slash64(probe);
            local += sum != nullptr ? sum->addresses : 0;
            service.count_queries(QueryKind::kPoint);
            service.count_queries(QueryKind::kDensity48);
            service.count_queries(QueryKind::kEntropy64);
            // Digest stability: the snapshot never mutates under us.
            if (snap->digest() == 0) local += 1;
          }
          local += service.slash48_density(probe);
        }
        answered[r] = local;
      });
    }
    ingest.join();
    for (auto& t : readers) t.join();
    per_run.push_back(epoch_digests(service));
    ASSERT_GE(per_run.back().size(), 5u);
  }
  // Bit-identity across reader thread counts: the readers raced three
  // different schedules against the same ingest; the published epochs
  // must not care.
  EXPECT_EQ(per_run[0], per_run[1]);
  EXPECT_EQ(per_run[0], per_run[2]);
}

}  // namespace
}  // namespace v6::serve
