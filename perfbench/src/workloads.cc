#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <sstream>
#include <thread>

#include "analysis/address_categories.h"
#include "analysis/as_entropy.h"
#include "analysis/dataset_compare.h"
#include "analysis/entropy_distribution.h"
#include "analysis/lifetimes.h"
#include "analysis/scan_source.h"
#include "hitlist/campaigns.h"
#include "hitlist/corpus_io.h"
#include "netsim/data_plane.h"
#include "netsim/topology.h"
#include "serve/query_service.h"
#include "util/rng.h"

namespace v6bench {

using namespace v6;

namespace {

constexpr unsigned kReaders = 2;
// Collection and analysis shards of the collect_* workloads. Shards meet
// at a barrier every sim-day, so a host that preempts any one vCPU stalls
// them all: with 4 shards on a shared 4-vCPU VM, wall_s varied by about
// 30% between runs. Two shards leave two vCPUs spare.
constexpr unsigned kShards = 2;
constexpr int kQueriesPerBatch = 64;

std::uint64_t elapsed_ns(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

// Times f() and, when tracing, wraps it in a span and records the seconds
// as the per-layer sample `name`_s.
template <class F>
double layer(Bench& bench, const std::string& name, F&& f) {
  const int span = bench.spans.begin(name);
  const auto t0 = Clock::now();
  f();
  const double s = seconds_since(t0);
  bench.spans.end(span);
  if (bench.spans.enabled()) bench.sample(name + "_s", s);
  return s;
}

// The world's structure (ASes, sites, devices) comes from one fixed seed
// per scale, so every seed asks for the same amount of work; the workload
// seed drives everything random that runs on it: client polling and loss,
// the data plane, the campaigns' target draws, backscan sampling, the
// cluster's jitter and the query keys.
constexpr std::uint64_t kWorldSeed = 2022;

core::StudyConfig study_config(const Options& options, std::uint32_t sites,
                               int days) {
  core::StudyConfig config;
  config.world.seed = kWorldSeed;
  const std::uint64_t seed = util::mix64(options.seed);
  config.collector.seed = seed ^ 1;
  config.plane.seed = seed ^ 2;
  config.hitlist_campaign.seed = seed ^ 3;
  config.caida_campaign.seed = seed ^ 4;
  config.backscan.seed = seed ^ 5;
  config.world.total_sites = sites;
  config.world.study_duration = days * util::kDay;
  // The backscan week follows the study window; campaign windows scale
  // with it (the same layout the repository's benches use).
  config.backscan_start = config.world.study_duration + 26 * util::kDay;
  config.hitlist_campaign.start = 22 * util::kDay;
  config.hitlist_campaign.duration = std::max<util::SimDuration>(
      config.world.study_duration - 25 * util::kDay, 4 * util::kWeek);
  config.caida_campaign.start = 9 * util::kDay;
  config.caida_campaign.duration = std::min<util::SimDuration>(
      62 * util::kDay, config.world.study_duration);
  return config;
}

core::RunOptions stages(bool collect, bool campaigns, bool backscan,
                        bool analysis) {
  core::RunOptions options;
  options.collect = collect;
  options.campaigns = campaigns;
  options.backscan = backscan;
  options.analysis = analysis;
  return options;
}

// Half the keys are addresses devices really used (so they fall in routed
// customer prefixes and some are in the corpus), half are uniform random.
std::vector<Key> make_keys(const sim::World& world, std::uint64_t seed,
                           std::size_t n) {
  util::Rng rng(seed ^ 0x6b65797364726177ull);
  const auto devices = world.devices();
  const util::SimTime start = world.config().study_start;
  const auto span =
      static_cast<std::uint64_t>(world.config().study_duration);
  std::vector<Key> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0 && !devices.empty()) {
      const sim::Device& d = devices[rng.bounded(devices.size())];
      const util::SimTime t =
          start + static_cast<util::SimTime>(rng.bounded(span));
      keys.push_back({world.device_address(d.id, t), d.mac.oui()});
    } else {
      const std::uint64_t hi = rng.next();
      const std::uint64_t lo = rng.next();
      keys.push_back({net::Ipv6Address::from_u64(hi, lo),
                      net::Oui(static_cast<std::uint32_t>(rng.next() &
                                                          0xffffff))});
    }
  }
  return keys;
}

std::string digest_of_save(const core::Study& study) {
  std::ostringstream out;
  study.save_ntp(out);
  return hex64(fnv1a(out.str()));
}

std::string digest_of(const hitlist::Corpus& corpus) {
  std::ostringstream out;
  hitlist::save_corpus(out, corpus);
  return hex64(fnv1a(out.str()));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Collector counters after the collection stage.
void collect_layer(Bench& bench, const obs::Snapshot& metrics,
                   double collect_s) {
  const double polls =
      static_cast<double>(metrics.counter_sum("v6_collector_polls_total"));
  const double records =
      static_cast<double>(metrics.counter_sum("v6_collector_records_total"));
  const double dedup = static_cast<double>(
      metrics.counter_sum("v6_collector_dedup_hits_total"));
  bench.sample("hitlist.polls", polls);
  bench.sample("hitlist.records", records);
  bench.sample("hitlist.dedup_ratio", ratio(dedup, dedup + records));
  bench.sample("hitlist.collect_polls_per_s", ratio(polls, collect_s));
}

// The five analysis entry points over the study's NTP corpus, with the
// arguments Study::run passes them (campaign columns when they ran).
void run_analyses(Bench& bench, core::Study& study, bool campaigns) {
  const core::StudyConfig& config = study.config();
  core::StudyResults& results = study.mutable_results();
  analysis::AnalysisConfig cfg = config.analysis;
  cfg.metrics = &study.metrics_registry();
  core::AnalysisReport& report = results.analysis;
  std::vector<analysis::AnalysisStageStats>* stats = &report.stage_stats;
  const analysis::ScanSource src =
      results.ntp_runs != nullptr ? analysis::make_source(*results.ntp_runs)
                                  : analysis::make_source(results.ntp);
  const std::size_t first_stat = stats->size();
  const auto t0 = Clock::now();

  layer(bench, "analysis.entropy",
        [&] { report.entropy = analysis::entropy_distribution(src, cfg, stats); });
  layer(bench, "analysis.table1", [&] {
    report.table1.clear();
    report.table1.push_back(analysis::summarize_dataset(
        "NTP corpus", src, study.world(), nullptr, cfg, stats));
    if (campaigns) {
      report.table1.push_back(analysis::summarize_dataset(
          "IPv6 Hitlist", analysis::make_source(results.hitlist.corpus),
          study.world(), &src, cfg, stats));
      report.table1.push_back(analysis::summarize_dataset(
          "CAIDA", analysis::make_source(results.caida.corpus),
          study.world(), &src, cfg, stats));
    }
  });
  const std::vector<util::SimDuration> points = {
      0,           util::kMinute,   util::kHour,      util::kDay,
      3 * util::kDay, util::kWeek,  2 * util::kWeek,  util::kMonth,
      2 * util::kMonth, 6 * util::kMonth,
  };
  layer(bench, "analysis.lifetimes", [&] {
    report.address_lifetimes =
        analysis::address_lifetimes(src, points, cfg, stats);
    report.iid_lifetimes = analysis::iid_lifetimes(src, points, cfg, stats);
  });
  const util::SimTime start = config.world.study_start;
  const util::SimTime end = start + config.world.study_duration;
  layer(bench, "analysis.as_entropy", [&] {
    report.top_ases = analysis::top_as_entropy_profiles(
        src, study.world(), config.analysis_top_ases, start, end, cfg, stats);
  });
  layer(bench, "analysis.categories", [&] {
    report.categories = analysis::categorize_corpus(src, study.world(), start,
                                                    end, {}, cfg, stats);
  });

  std::uint64_t records = 0;
  for (std::size_t i = first_stat; i < stats->size(); ++i) {
    records += (*stats)[i].records;
  }
  bench.sample("analysis.records_per_s",
               ratio(static_cast<double>(records), seconds_since(t0)));
}

// --- Readers ---------------------------------------------------------------

struct ReaderStats {
  LatencyHistogram latency;
  std::uint64_t batches = 0;
  std::uint64_t unpinned = 0;
  std::uint64_t queries = 0;
  std::uint64_t pin_ns = 0;
  std::uint64_t first_epoch = 0;
  std::uint64_t last_epoch = 0;
  double seconds = 0;
};

// A closed loop of pinned 64-query batches, rotating point, /48, /64 and
// OUI queries over the key list, until `stop`. Starts once the first
// epoch is published; a batch that pins nothing after that is a failure.
void read_batches(const serve::QueryService& service,
                  const std::vector<Key>& keys, std::size_t offset,
                  const std::atomic<bool>& stop, bool time_pins,
                  ReaderStats& out) {
  while (!stop.load(std::memory_order_acquire) &&
         service.current() == nullptr) {
    std::this_thread::yield();
  }
  const auto start = Clock::now();
  std::size_t k = offset % keys.size();
  std::uint64_t answered = 0;
  while (!stop.load(std::memory_order_acquire)) {
    const auto t0 = Clock::now();
    const std::shared_ptr<const serve::Snapshot> snap = service.current();
    if (time_pins) out.pin_ns += elapsed_ns(t0);
    ++out.batches;
    if (snap == nullptr) {
      ++out.unpinned;
      continue;
    }
    if (out.first_epoch == 0) out.first_epoch = snap->epoch();
    out.last_epoch = snap->epoch();
    for (int i = 0; i < kQueriesPerBatch / 4; ++i) {
      const Key& key = keys[k];
      if (++k == keys.size()) k = 0;
      answered += snap->contains(key.address);
      answered += snap->slash48_density(key.address) > 0;
      answered += snap->slash64(key.address) != nullptr;
      answered += snap->oui_risk(key.oui) != nullptr;
    }
    service.count_queries(serve::QueryKind::kPoint, kQueriesPerBatch / 4);
    service.count_queries(serve::QueryKind::kDensity48, kQueriesPerBatch / 4);
    service.count_queries(serve::QueryKind::kEntropy64, kQueriesPerBatch / 4);
    service.count_queries(serve::QueryKind::kOuiRisk, kQueriesPerBatch / 4);
    out.latency.add(elapsed_ns(t0));
    out.queries += kQueriesPerBatch;
  }
  out.seconds = seconds_since(start);
  // Keeps the answers observable so no query is optimised away.
  if (answered == ~std::uint64_t{0}) out.queries += 1;
}

// Runs the readers while `work` runs on this thread, then stops and joins
// them (also when `work` throws). Returns how many epochs were published
// while the readers ran.
std::uint64_t with_readers(Bench& bench, const serve::QueryService& service,
                           const std::vector<Key>& keys,
                           const std::function<void()>& work) {
  std::atomic<bool> stop{false};
  ReaderStats stats[kReaders];
  std::exception_ptr errors[kReaders];
  const int parent = bench.spans.current();
  const bool traced = bench.spans.enabled();
  {
    std::vector<std::thread> readers;
    // Stops and joins the readers when this scope ends, normally or not.
    struct Joiner {
      std::atomic<bool>& stop;
      std::vector<std::thread>& threads;
      ~Joiner() {
        stop.store(true, std::memory_order_release);
        for (auto& t : threads) t.join();
      }
    } joiner{stop, readers};
    for (unsigned r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        const int span = bench.spans.begin("serve.reader", parent,
                                           2 + static_cast<int>(r));
        try {
          read_batches(service, keys, r * keys.size() / kReaders, stop,
                       traced, stats[r]);
        } catch (...) {
          errors[r] = std::current_exception();
        }
        bench.spans.end(span);
      });
    }
    work();
  }
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  // One sample per call of each query metric, so they are medians over
  // repetitions like wall_s.
  LatencyHistogram latency;
  double qps = 0;
  std::uint64_t epochs = 0;
  std::uint64_t batches = 0;
  std::uint64_t pin_ns = 0;
  for (const ReaderStats& s : stats) {
    latency.merge(s.latency);
    if (s.seconds > 0) qps += static_cast<double>(s.queries) / s.seconds;
    bench.checks.operations(s.batches, s.unpinned);
    batches += s.batches;
    pin_ns += s.pin_ns;
    epochs = std::max(epochs, s.last_epoch - s.first_epoch);
  }
  bench.sample("query_qps", qps);
  bench.sample("query_batch_p50_us", latency.quantile(0.50) / 1e3);
  bench.sample("query_batch_p99_us", latency.quantile(0.99) / 1e3);
  bench.batch_latency.merge(latency);
  if (traced && batches > 0) {
    bench.sample("serve.pin_ns", static_cast<double>(pin_ns) /
                                     static_cast<double>(batches));
  }
  return epochs;
}

}  // namespace

void time_serving(Bench& bench, core::Study& study,
                  const std::vector<Key>& keys) {
  const core::StudyResults& results = study.results();
  const analysis::ScanSource src =
      results.ntp_runs != nullptr ? analysis::make_source(*results.ntp_runs)
                                  : analysis::make_source(results.ntp);
  serve::QueryService scratch(1);
  std::vector<double> publish_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    scratch.publish(src, study.config().world.study_duration);
    publish_ms.push_back(seconds_since(t0) * 1e3);
  }
  bench.sample("serve.publish_ms", median(publish_ms));
  const auto snap = scratch.current();
  bench.sample("serve.snapshot_bytes",
               static_cast<double>(snap->memory_bytes()));

  const std::size_t rounds =
      std::max<std::size_t>(1, (std::size_t{1} << 18) / keys.size());
  const double queries = static_cast<double>(rounds * keys.size());
  std::uint64_t hits = 0;
  const auto family = [&](const char* name, auto&& query) {
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const Key& key : keys) hits += query(key);
    }
    bench.sample(name, static_cast<double>(elapsed_ns(t0)) / queries);
  };
  family("serve.point_ns",
         [&](const Key& k) { return snap->contains(k.address) ? 1 : 0; });
  family("serve.density48_ns", [&](const Key& k) {
    return snap->slash48_density(k.address) > 0 ? 1 : 0;
  });
  family("serve.entropy64_ns", [&](const Key& k) {
    return snap->slash64(k.address) != nullptr ? 1 : 0;
  });
  family("serve.oui_ns",
         [&](const Key& k) { return snap->oui_risk(k.oui) != nullptr ? 1 : 0; });
  bench.sample("serve.hit_ratio", static_cast<double>(hits) / (4 * queries));
}

namespace {

// --- Workloads ---------------------------------------------------------------

// The full pipeline at the reference scale: ~90% of its time is CAIDA
// Yarrp tracing through netsim, so active-probing work shows here.
class StudyWorkload final : public Workload {
 public:
  explicit StudyWorkload(const Options& options) {
    config_ = options.tiny ? study_config(options, 300, 7)
                           : study_config(options, 2000, 40);
    config_.collector.threads = 4;
    config_.analysis.threads = 4;
    if (options.tiny) {
      // The campaigns scale with the announced prefixes, not the sites.
      config_.caida_campaign.slash48_fraction = 0.001;
      config_.hitlist_campaign.max_frontier = 5000;
    }
  }

  void rep(Bench& bench, bool traced) override {
    setup(bench);
    core::Study& s = *study_;
    if (!traced) {
      const auto t0 = Clock::now();
      s.run();
      bench.sample("wall_s", seconds_since(t0));
    } else {
      run_traced(bench, s);
    }
    const core::StudyResults& r = s.results();
    bench.checks.gate("study.ntp_digest", digest_of_save(s));
    bench.checks.gate("study.caida_digest", digest_of(r.caida.corpus));
    bench.checks.gate("study.caida_probes",
                      std::to_string(r.caida.probes_sent));
    bench.checks.record("study.hitlist_digest", digest_of(r.hitlist.corpus));
    bench.checks.record("study.hitlist_probes",
                        std::to_string(r.hitlist.probes_sent));
    bench.checks.record("study.aliased_prefixes",
                        std::to_string(r.hitlist.aliased_prefixes.size()));
  }

 private:
  // The same work as Study::run(), one stage per call; the campaigns and
  // analyses are called directly (with the arguments Study passes) so each
  // gets its own span.
  void run_traced(Bench& bench, core::Study& s) {
    const int wall = bench.spans.begin("wall");
    const auto t0 = Clock::now();
    const double collect_s =
        layer(bench, "core.collect", [&] { s.run(stages(1, 0, 0, 0)); });
    collect_layer(bench, s.results().metrics, collect_s);

    core::StudyResults& r = s.mutable_results();
    double hitlist_s = 0;
    double caida_s = 0;
    layer(bench, "core.campaigns", [&] {
      hitlist::HitlistCampaignConfig h = config_.hitlist_campaign;
      h.metrics = &s.metrics_registry();
      hitlist::CaidaCampaignConfig c = config_.caida_campaign;
      c.metrics = &s.metrics_registry();
      hitlist_s = layer(bench, "hitlist.hitlist_campaign", [&] {
        r.hitlist = hitlist::run_hitlist_campaign(s.world(), s.plane(), h);
      });
      caida_s = layer(bench, "hitlist.caida_campaign", [&] {
        r.caida = hitlist::run_caida_campaign(s.world(), s.plane(), c);
      });
    });
    layer(bench, "core.backscan", [&] { s.run(stages(0, 0, 1, 0)); });
    layer(bench, "core.analysis", [&] { run_analyses(bench, s, true); });
    bench.sample("wall_s", seconds_since(t0));
    bench.spans.end(wall);

    bench.sample("hitlist.caida_probes_per_s",
                 ratio(static_cast<double>(r.caida.probes_sent), caida_s));
    bench.sample("hitlist.caida_yield",
                 ratio(static_cast<double>(r.caida.corpus.size()),
                       static_cast<double>(r.caida.traces)));
    bench.sample("hitlist.hitlist_probes_per_s",
                 ratio(static_cast<double>(r.hitlist.probes_sent), hitlist_s));
    const obs::Snapshot m = s.metrics_registry().snapshot();
    bench.sample("netsim.rate_limited", static_cast<double>(m.counter_sum(
                                            "v6_plane_rate_limited_total")));
    bench.sample("netsim.drops",
                 static_cast<double>(m.counter_sum("v6_plane_drops_total")));
    for (const char* scanner : {"zmap6", "yarrp"}) {
      double probes = 0, responsive = 0, retries = 0;
      for (const obs::MetricSample& sample : m.samples) {
        if (sample.labels.size() != 1 || sample.labels[0].second != scanner) {
          continue;
        }
        const auto v = static_cast<double>(sample.counter_value);
        if (sample.name == "v6_scan_probes_total") probes += v;
        if (sample.name == "v6_scan_responsive_total") responsive += v;
        if (sample.name == "v6_scan_retries_total") retries += v;
      }
      const std::string prefix = std::string("scan.") + scanner;
      bench.sample(prefix + ".probes", probes);
      bench.sample(prefix + ".retries", retries);
      bench.sample(prefix + ".responsive_ratio", ratio(responsive, probes));
    }
  }
};

// Collection alone over the paper's 7-month window with a memory budget
// small enough that the k-way merge of several spilled runs really runs;
// then the five analyses over the merged runs and the corpus save. Never
// enters netsim's topology, the scanners or the campaigns.
class CollectSpillWorkload final : public Workload {
 public:
  explicit CollectSpillWorkload(const Options& options)
      : options_(&options) {
    config_ = options.tiny ? study_config(options, 1000, 14)
                           : study_config(options, 20000, 219);
    config_.collector.threads = kShards;
    config_.analysis.threads = kShards;
    config_.spill.memory_budget_bytes =
        options.tiny ? (std::size_t{16} << 10) : (std::size_t{2} << 20);
  }

  void rep(Bench& bench, bool traced) override {
    // A directory that does not exist yet is owned by the TieredCorpus and
    // removed with it.
    config_.spill.directory = options_->work_dir + "/spill-" +
                              std::to_string(::getpid()) + "-" +
                              std::to_string(reps_++);
    setup(bench);
    core::Study& s = *study_;
    std::ostringstream saved;
    if (!traced) {
      const auto t0 = Clock::now();
      s.run(stages(1, 0, 0, 1));
      s.save_ntp(saved);
      bench.sample("wall_s", seconds_since(t0));
    } else {
      const int wall = bench.spans.begin("wall");
      const auto t0 = Clock::now();
      const double collect_s =
          layer(bench, "core.collect", [&] { s.run(stages(1, 0, 0, 0)); });
      collect_layer(bench, s.results().metrics, collect_s);
      layer(bench, "core.analysis", [&] { run_analyses(bench, s, false); });
      layer(bench, "hitlist.save", [&] { s.save_ntp(saved); });
      bench.sample("wall_s", seconds_since(t0));
      bench.spans.end(wall);
    }
    bench.checks.gate("collect_spill.corpus_digest",
                      hex64(fnv1a(saved.str())));

    const hitlist::TieredCorpus& runs = *s.results().ntp_runs;
    bool ascending = true;
    std::uint64_t merged = 0;
    net::Ipv6Address previous;
    const double merge_s = layer(bench, "hitlist.merge", [&] {
      runs.for_each_merged([&](const hitlist::AddressRecord& rec) {
        if (merged > 0 && !(previous < rec.address)) ascending = false;
        previous = rec.address;
        ++merged;
      });
    });
    bench.checks.check(ascending && merged == runs.merged_size(),
                       "merged stream strictly ascending over all records");

    const std::uint64_t spills = runs.stats().spills;
    const std::uint64_t files = runs.run_count();
    bench.checks.check(spills >= 2 && files >= 2,
                       "at least 2 spills and 2 run files (got " +
                           std::to_string(spills) + " and " +
                           std::to_string(files) + ")");
    if (spills < 2 || files < 2) {
      for (const char* name :
           {"hitlist.spills", "hitlist.run_files", "hitlist.disk_bytes_per_addr",
            "hitlist.merge_records_per_s", "hitlist.save_s"}) {
        bench.null_metrics.push_back(name);
      }
    }
    if (traced) {
      bench.sample("hitlist.spills", static_cast<double>(spills));
      bench.sample("hitlist.run_files", static_cast<double>(files));
      bench.sample("hitlist.disk_bytes_per_addr",
                   ratio(static_cast<double>(runs.stats().disk_bytes),
                         static_cast<double>(merged)));
      bench.sample("hitlist.merge_records_per_s",
                   ratio(static_cast<double>(merged), merge_s));
    }
  }

 private:
  const Options* options_;
  int reps_ = 0;
};

// Readers query while collection writes: ingest publishes an epoch every
// 4 sim-days and two readers pin the current one per 64-query batch.
class ServeLiveWorkload final : public Workload {
 public:
  explicit ServeLiveWorkload(const Options& options) {
    config_ = options.tiny ? study_config(options, 500, 16)
                           : study_config(options, 20000, 120);
    config_.collector.threads = 2;
    epoch_interval_ = (options.tiny ? 2 : 4) * util::kDay;
  }

  bool serves_during_ingest() const override { return true; }

  core::RunOptions ingest() const {
    core::RunOptions options = stages(1, 0, 0, 0);
    options.serve.enabled = true;
    options.serve.epoch_interval = epoch_interval_;
    // Keeps every epoch, so the published sequence can be compared whole.
    options.serve.retain_epochs = 64;
    return options;
  }

  // The published (epoch, as_of, records, digest) sequence with no
  // readers: what every repetition must reproduce.
  void prepare(Bench& bench) override {
    core::Study reference(config_);
    reference.query_service();
    reference.run(ingest());
    reference_ = epoch_rows(reference.query_service());
    bench.checks.gate("serve_live.epochs", std::to_string(reference_.size()));
    bench.checks.gate("serve_live.final_digest",
                      reference_.empty() ? "none"
                                         : hex64(reference_.back().digest));
  }

  void rep(Bench& bench, bool traced) override {
    setup(bench);
    core::Study& s = *study_;
    serve::QueryService& service = s.query_service();
    const int wall = bench.spans.begin("wall");
    double wall_s = 0;
    const std::uint64_t epochs = with_readers(bench, service, keys_, [&] {
      const int span = bench.spans.begin("core.collect");
      const auto t0 = Clock::now();
      s.run(ingest());
      wall_s = seconds_since(t0);
      bench.spans.end(span);
    });
    bench.spans.end(wall);
    bench.sample("wall_s", wall_s);
    if (traced) {
      bench.sample("core.collect_s", wall_s);
      collect_layer(bench, s.results().metrics, wall_s);
      bench.sample("serve.epochs",
                   static_cast<double>(service.epochs_published()));
    }
    bench.checks.check(epoch_rows(service) == reference_,
                       "published epochs equal the no-reader reference");
    bench.checks.check(epochs >= 2,
                       "at least 2 epochs published while readers ran (got " +
                           std::to_string(epochs) + ")");
    if (epochs < 2) {
      for (const char* name : {"query_qps", "query_batch_p50_us",
                               "query_batch_p99_us", "serve.pin_ns"}) {
        bench.null_metrics.push_back(name);
      }
    }
  }

 private:
  struct EpochRow {
    std::uint64_t epoch = 0;
    util::SimTime as_of = 0;
    std::uint64_t records = 0;
    std::uint64_t digest = 0;
    bool operator==(const EpochRow&) const = default;
  };

  static std::vector<EpochRow> epoch_rows(const serve::QueryService& service) {
    std::vector<EpochRow> rows;
    for (const auto& snap : service.retained()) {
      rows.push_back(
          {snap->epoch(), snap->as_of(), snap->records(), snap->digest()});
    }
    return rows;
  }

  util::SimDuration epoch_interval_ = 0;
  std::vector<EpochRow> reference_;
};

// Distributed collection through the in-process cluster with one forced
// kill, so lease reassignment and replay of the device stream run.
class CollectDistWorkload final : public Workload {
 public:
  explicit CollectDistWorkload(const Options& options) {
    config_ = options.tiny ? study_config(options, 500, 21)
                           : study_config(options, 5000, 120);
    config_.collector.threads = kShards;
    cluster_.workers = 4;
    cluster_.forced_kills = 1;
    cluster_.seed = util::mix64(options.seed) ^ 6;
  }

  // A single-process collection at the same scale: the corpus the cluster
  // must reproduce byte for byte, and the base of the replay factor.
  void prepare(Bench&) override {
    core::Study reference(config_);
    const auto t0 = Clock::now();
    reference.run(stages(1, 0, 0, 0));
    single_s_ = seconds_since(t0);
    reference_digest_ = digest_of_save(reference);
  }

  void rep(Bench& bench, bool traced) override {
    setup(bench);
    core::Study& s = *study_;
    const int wall = bench.spans.begin("wall");
    const double wall_s =
        layer(bench, "core.collect", [&] {
          core::RunOptions options = stages(1, 0, 0, 0);
          options.distributed = cluster_;
          s.run(std::move(options));
        });
    bench.spans.end(wall);
    bench.sample("wall_s", wall_s);

    const std::string digest = digest_of_save(s);
    bench.checks.check(digest == reference_digest_,
                       "cluster corpus " + digest +
                           " equals the single-process corpus " +
                           reference_digest_);
    bench.checks.gate("collect_dist.corpus_digest", digest);
    const dist::DistReport& report = *s.results().dist;
    bench.checks.check(report.reassignments >= 1,
                       "at least 1 lease reassignment (got " +
                           std::to_string(report.reassignments) + ")");
    if (report.reassignments < 1) {
      for (const char* name : {"dist.leases", "dist.uploads",
                               "dist.reassignments", "dist.replayed_chunks",
                               "dist.frame_bytes", "dist.replay_factor"}) {
        bench.null_metrics.push_back(name);
      }
    }
    if (traced) {
      collect_layer(bench, s.results().metrics, wall_s);
      bench.sample("dist.leases", static_cast<double>(report.leases_granted));
      bench.sample("dist.uploads",
                   static_cast<double>(report.checkpoints_uploaded));
      bench.sample("dist.reassignments",
                   static_cast<double>(report.reassignments));
      bench.sample("dist.replayed_chunks",
                   static_cast<double>(report.replayed_chunks));
      bench.sample("dist.frame_bytes",
                   static_cast<double>(report.frame_log.size()));
      bench.sample("dist.replay_factor", ratio(wall_s, single_s_));
    }
  }

 private:
  dist::DistConfig cluster_;
  double single_s_ = 0;
  std::string reference_digest_;
};

}  // namespace

void Workload::setup(Bench& bench) {
  study_.reset();
  if (bench.spans.enabled()) {
    layer(bench, "sim.world_generate",
          [&] { (void)sim::World::generate(config_.world); });
  }
  const int span = bench.spans.begin("core.setup");
  const auto t0 = Clock::now();
  study_ = std::make_unique<core::Study>(config_);
  keys_ = make_keys(study_->world(), bench.options.seed,
                    bench.options.tiny ? 4096 : 65536);
  bench.sample("setup_s", seconds_since(t0));
  bench.spans.end(span);
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "study") {
    return std::make_unique<StudyWorkload>(options);
  }
  if (options.workload == "collect_spill") {
    return std::make_unique<CollectSpillWorkload>(options);
  }
  if (options.workload == "serve_live") {
    return std::make_unique<ServeLiveWorkload>(options);
  }
  if (options.workload == "collect_dist") {
    return std::make_unique<CollectDistWorkload>(options);
  }
  return nullptr;
}

void serve_final_corpus(Bench& bench, core::Study& study,
                        const std::vector<Key>& keys, double seconds) {
  const core::StudyResults& results = study.results();
  serve::QueryService service(1);
  service.publish(results.ntp_runs != nullptr
                      ? analysis::make_source(*results.ntp_runs)
                      : analysis::make_source(results.ntp),
                  study.config().world.study_duration);
  const int span = bench.spans.begin("serve.queries");
  with_readers(bench, service, keys, [&] {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  });
  bench.spans.end(span);
}

void probe_netsim(Bench& bench, const core::Study& study) {
  const sim::World& world = study.world();
  const std::size_t n = bench.options.tiny ? 2000 : 50000;
  util::Rng rng(bench.options.seed ^ 0x6e657473696dull);
  struct Pair {
    net::Ipv6Address src, dst;
    std::uint8_t ttl;
    util::SimTime t;
  };
  const auto devices = world.devices();
  const auto vantages = world.vantages();
  const auto window =
      static_cast<std::uint64_t>(world.config().study_duration);
  std::vector<Pair> pairs;
  pairs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const util::SimTime t = static_cast<util::SimTime>(rng.bounded(window));
    const sim::Device& d = devices[rng.bounded(devices.size())];
    pairs.push_back({vantages[rng.bounded(vantages.size())].address,
                     world.device_address(d.id, t),
                     static_cast<std::uint8_t>(1 + rng.bounded(16)), t});
  }
  std::uint64_t sink = 0;
  const netsim::Topology topology(world);
  // Times `call` over every pair as one span; records ns per call.
  const auto per_call = [&](const char* name, auto&& call) {
    const int span = bench.spans.begin(name);
    const auto t0 = Clock::now();
    for (const Pair& p : pairs) sink += call(p);
    bench.sample(std::string(name) + "_ns",
                 static_cast<double>(elapsed_ns(t0)) / static_cast<double>(n));
    bench.spans.end(span);
  };
  per_call("netsim.path", [&](const Pair& p) {
    return topology.path(p.src, p.dst, p.t).size();
  });
  netsim::DataPlane plane(world, study.config().plane);
  std::uint16_t seq = 0;
  per_call("netsim.hop_echo", [&](const Pair& p) {
    return static_cast<std::uint64_t>(
        plane.hop_limited_echo(p.src, p.dst, p.ttl, 0x6265, ++seq, p.t).kind);
  });
  if (sink == ~std::uint64_t{0}) bench.sample("netsim.sink", 0);
}

}  // namespace v6bench
