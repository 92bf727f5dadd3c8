// The sim-time timeline: sampler windowing/diffing semantics, the JSONL
// and CSV exporters and their linters, the Chrome trace-event export —
// and the study-level determinism contract: WindowRecord sequences are
// bit-identical at any thread count, per-window deltas telescope to the
// end-of-run counter totals, and sampling changes no result byte.
#include "obs/timeline.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/study.h"
#include "hitlist/corpus_io.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"

namespace v6::obs {
namespace {

// --- Sampler grid ----------------------------------------------------------

TEST(TimelineSampler, GridBoundaries) {
  Registry registry;
  TimelineSampler sampler(registry, 10, 100);
  EXPECT_EQ(sampler.interval(), 10);
  EXPECT_EQ(sampler.next_boundary(0), 100u);    // before the origin
  EXPECT_EQ(sampler.next_boundary(100), 110u);  // strictly after t
  EXPECT_EQ(sampler.next_boundary(104), 110u);
  EXPECT_EQ(sampler.next_boundary(110), 120u);
  EXPECT_TRUE(sampler.on_boundary(100));
  EXPECT_TRUE(sampler.on_boundary(130));
  EXPECT_FALSE(sampler.on_boundary(105));
  EXPECT_FALSE(sampler.on_boundary(90));  // off-grid: before the origin
}

TEST(TimelineSampler, ZeroIntervalIsClampedToOne) {
  Registry registry;
  TimelineSampler sampler(registry, 0, 0);
  EXPECT_EQ(sampler.interval(), 1);
  EXPECT_EQ(sampler.next_boundary(5), 6u);
}

TEST(TimelineSampler, WindowsAreGaplessAndClampedMonotone) {
  Registry registry;
  TimelineSampler sampler(registry, 10, 0);
  sampler.sample(10, "a");
  sampler.sample(30, "b");
  // A stage whose simulated window lies before the pipeline's position
  // (e.g. campaigns re-covering the collection window) closes a
  // zero-width window at the current position, never a backwards one.
  sampler.sample(5, "c");
  const Timeline& tl = sampler.timeline();
  ASSERT_EQ(tl.size(), 3u);
  EXPECT_EQ(tl[0].begin, 0);
  EXPECT_EQ(tl[0].end, 10);
  EXPECT_EQ(tl[0].stage, "a");
  EXPECT_EQ(tl[1].begin, 10);
  EXPECT_EQ(tl[1].end, 30);
  EXPECT_EQ(tl[2].begin, 30);
  EXPECT_EQ(tl[2].end, 30);
  EXPECT_EQ(tl[2].stage, "c");
}

// --- Sampler diffing -------------------------------------------------------

TEST(TimelineSampler, CounterDeltasSkipUnchangedSeries) {
  Registry registry;
  auto a = registry.counter("a_total");
  auto b = registry.counter("b_total");
  TimelineSampler sampler(registry, 10, 0);

  a.inc(5);
  sampler.sample(10, "s");
  a.inc(2);
  b.inc(1);
  sampler.sample(20, "s");
  sampler.sample(30, "s");  // nothing moved: no counters at all

  const Timeline& tl = sampler.timeline();
  ASSERT_EQ(tl.size(), 3u);
  ASSERT_EQ(tl[0].counters.size(), 1u);
  EXPECT_EQ(tl[0].counters[0].name, "a_total");
  EXPECT_EQ(tl[0].counters[0].delta, 5u);
  ASSERT_EQ(tl[1].counters.size(), 2u);  // snapshot order: a then b
  EXPECT_EQ(tl[1].counters[0].delta, 2u);
  EXPECT_EQ(tl[1].counters[1].name, "b_total");
  EXPECT_EQ(tl[1].counters[1].delta, 1u);
  EXPECT_TRUE(tl[2].counters.empty());
}

TEST(TimelineSampler, GaugesRecordedOnlyWhenBitPatternChanges) {
  Registry registry;
  auto g = registry.gauge("depth");
  TimelineSampler sampler(registry, 10, 0);

  g.set(1.5);
  sampler.sample(10, "s");
  sampler.sample(20, "s");  // unchanged: omitted
  g.set(-0.25);
  sampler.sample(30, "s");

  const Timeline& tl = sampler.timeline();
  ASSERT_EQ(tl.size(), 3u);
  ASSERT_EQ(tl[0].gauges.size(), 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(tl[0].gauges[0].value),
            std::bit_cast<std::uint64_t>(1.5));
  EXPECT_TRUE(tl[1].gauges.empty());
  ASSERT_EQ(tl[2].gauges.size(), 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(tl[2].gauges[0].value),
            std::bit_cast<std::uint64_t>(-0.25));
}

TEST(TimelineSampler, HistogramDeltasFoldIntoWindows) {
  Registry registry;
  auto h = registry.histogram("wall_us");
  TimelineSampler sampler(registry, 10, 0);
  h.observe(123.0);
  h.observe(2.0);
  sampler.sample(10, "s");
  h.observe(1.0);
  sampler.sample(20, "s");
  sampler.sample(30, "s");  // no movement: omitted like a zero counter delta

  const Timeline& tl = sampler.timeline();
  ASSERT_EQ(tl.size(), 3u);
  // Histograms ride in their own field, never the counter/gauge lists.
  EXPECT_TRUE(tl[0].counters.empty());
  EXPECT_TRUE(tl[0].gauges.empty());
  ASSERT_EQ(tl[0].histograms.size(), 1u);
  EXPECT_EQ(tl[0].histograms[0].name, "wall_us");
  EXPECT_EQ(tl[0].histograms[0].count_delta, 2u);
  EXPECT_EQ(tl[0].histograms[0].sum_delta, 125.0);
  ASSERT_EQ(tl[1].histograms.size(), 1u);
  EXPECT_EQ(tl[1].histograms[0].count_delta, 1u);
  EXPECT_EQ(tl[1].histograms[0].sum_delta, 1.0);
  EXPECT_TRUE(tl[2].histograms.empty());
}

TEST(TimelineSampler, VantageFamiliesSplitIntoSortedVantageSeries) {
  Registry registry;
  registry.counter(kVantagePollsFamily, "", {{"vantage", "3"}}).inc(7);
  registry.counter(kVantagePollsFamily, "", {{"vantage", "1"}}).inc(4);
  registry.counter(kVantageAnsweredFamily, "", {{"vantage", "1"}}).inc(3);
  registry.counter(kVantageFaultLostFamily, "", {{"vantage", "3"}}).inc(2);
  registry.counter(kVantageRecordsFamily, "", {{"vantage", "1"}}).inc(4);
  registry.counter("other_total").inc(1);

  TimelineSampler sampler(registry, 10, 0);
  sampler.sample(10, "collect");
  const Timeline& tl = sampler.timeline();
  ASSERT_EQ(tl.size(), 1u);
  // The vantage families never leak into the generic counter list.
  ASSERT_EQ(tl[0].counters.size(), 1u);
  EXPECT_EQ(tl[0].counters[0].name, "other_total");
  ASSERT_EQ(tl[0].vantages.size(), 2u);  // sorted by id
  EXPECT_EQ(tl[0].vantages[0].vantage, 1u);
  EXPECT_EQ(tl[0].vantages[0].polls, 4u);
  EXPECT_EQ(tl[0].vantages[0].answered, 3u);
  EXPECT_EQ(tl[0].vantages[0].records, 4u);
  EXPECT_EQ(tl[0].vantages[1].vantage, 3u);
  EXPECT_EQ(tl[0].vantages[1].polls, 7u);
  EXPECT_EQ(tl[0].vantages[1].fault_lost, 2u);
}

// --- Exposition ------------------------------------------------------------

Timeline tiny_timeline() {
  Timeline tl;
  WindowRecord w;
  w.begin = 0;
  w.end = 86400;
  w.stage = "collect";
  w.counters.push_back({"polls_total", {}, 12});
  w.counters.push_back({"records_total", {{"kind", "a\"b"}}, 3});
  w.gauges.push_back({"depth", {}, 1.5});
  w.histograms.push_back({"wall_us", {}, 3, 123.5});
  w.vantages.push_back({2, 10, 9, 1, 8});
  tl.push_back(std::move(w));
  WindowRecord v;
  v.begin = 86400;
  v.end = 86400;
  v.stage = "analysis";
  tl.push_back(std::move(v));
  return tl;
}

TEST(TimelineExposition, ParseFormatAndSuffix) {
  EXPECT_EQ(parse_timeline_format("jsonl"), TimelineFormat::kJsonl);
  EXPECT_EQ(parse_timeline_format("json"), TimelineFormat::kJsonl);
  EXPECT_EQ(parse_timeline_format("csv"), TimelineFormat::kCsv);
  EXPECT_FALSE(parse_timeline_format("yaml").has_value());
  EXPECT_EQ(timeline_format_suffix(TimelineFormat::kJsonl), "jsonl");
  EXPECT_EQ(timeline_format_suffix(TimelineFormat::kCsv), "csv");
}

TEST(TimelineExposition, JsonlGolden) {
  const std::string text =
      render_timeline(tiny_timeline(), TimelineFormat::kJsonl);
  EXPECT_EQ(
      text,
      "{\"begin\":0,\"end\":86400,\"stage\":\"collect\","
      "\"counters\":{\"polls_total\":12,\"records_total{kind=\\\"a\\\\\\\"b\\\""
      "}\":3},\"gauges\":{\"depth\":1.5},\"histograms\":{\"wall_us\":"
      "{\"count\":3,\"sum\":123.5}},\"vantages\":[{\"vantage\":2,"
      "\"polls\":10,\"answered\":9,\"fault_lost\":1,\"records\":8}]}\n"
      "{\"begin\":86400,\"end\":86400,\"stage\":\"analysis\",\"counters\":{},"
      "\"gauges\":{},\"histograms\":{},\"vantages\":[]}\n");
  EXPECT_FALSE(lint_timeline_jsonl(text).has_value());
}

TEST(TimelineExposition, CsvGolden) {
  const std::string text =
      render_timeline(tiny_timeline(), TimelineFormat::kCsv);
  EXPECT_EQ(text,
            "begin,end,stage,kind,series,value\n"
            "0,86400,collect,counter,polls_total,12\n"
            "0,86400,collect,counter,\"records_total{kind=\"\"a\\\"\"b\"\"}\""
            ",3\n"
            "0,86400,collect,gauge,depth,1.5\n"
            "0,86400,collect,histogram_count,wall_us,3\n"
            "0,86400,collect,histogram_sum,wall_us,123.5\n"
            "0,86400,collect,vantage_polls,2,10\n"
            "0,86400,collect,vantage_answered,2,9\n"
            "0,86400,collect,vantage_fault_lost,2,1\n"
            "0,86400,collect,vantage_records,2,8\n");
}

TEST(TimelineExposition, JsonLinter) {
  EXPECT_FALSE(lint_json("{\"a\":[1,2.5,-3e2,true,false,null,\"x\\n\"]}")
                   .has_value());
  EXPECT_TRUE(lint_json("{\"a\":1,}").has_value());       // trailing comma
  EXPECT_TRUE(lint_json("{\"a\":1} x").has_value());      // trailing garbage
  EXPECT_TRUE(lint_json("{\"a\":\"\\q\"}").has_value());  // bad escape
  EXPECT_TRUE(lint_json("{\"a\":01}").has_value());       // leading zero
  EXPECT_TRUE(lint_json("").has_value());
}

TEST(TimelineExposition, TimelineLinterRejectsMalformedSequences) {
  // Gap between windows.
  EXPECT_TRUE(
      lint_timeline_jsonl("{\"begin\":0,\"end\":5,\"stage\":\"a\"}\n"
                          "{\"begin\":6,\"end\":7,\"stage\":\"a\"}\n")
          .has_value());
  // begin > end.
  EXPECT_TRUE(lint_timeline_jsonl("{\"begin\":5,\"end\":0,\"stage\":\"a\"}\n")
                  .has_value());
  // Not an object.
  EXPECT_TRUE(lint_timeline_jsonl("[1,2]\n").has_value());
  // Missing stage.
  EXPECT_TRUE(lint_timeline_jsonl("{\"begin\":0,\"end\":5}\n").has_value());
  // Clean two-window sequence.
  EXPECT_FALSE(
      lint_timeline_jsonl("{\"begin\":0,\"end\":5,\"stage\":\"a\"}\n"
                          "{\"begin\":5,\"end\":5,\"stage\":\"b\"}\n")
          .has_value());
}

// --- Chrome trace export ---------------------------------------------------

TEST(TraceExport, GoldenSpansAndWindows) {
  Registry registry;
  Tracer& tracer = registry.tracer();
  const auto root = tracer.begin_span("study.run", 0);
  const auto inner = tracer.begin_span("study.collect", 0);
  tracer.end_span(inner, 100);
  tracer.end_span(root, 150);

  Timeline tl;
  WindowRecord w;
  w.begin = 0;
  w.end = 100;
  w.stage = "collect";
  w.vantages.push_back({0, 5, 4, 1, 3});
  tl.push_back(std::move(w));

  const std::string text = render_trace_events(registry.snapshot(), tl);
  EXPECT_EQ(text,
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
            "{\"name\":\"study.run\",\"ph\":\"B\",\"ts\":0,\"pid\":1,"
            "\"tid\":1},\n"
            "{\"name\":\"study.collect\",\"ph\":\"B\",\"ts\":0,\"pid\":1,"
            "\"tid\":1},\n"
            "{\"name\":\"study.collect\",\"ph\":\"E\",\"ts\":100,\"pid\":1,"
            "\"tid\":1},\n"
            "{\"name\":\"study.run\",\"ph\":\"E\",\"ts\":150,\"pid\":1,"
            "\"tid\":1},\n"
            "{\"name\":\"collect\",\"ph\":\"X\",\"ts\":0,\"pid\":1,"
            "\"tid\":2,\"dur\":100},\n"
            "{\"name\":\"window_throughput\",\"ph\":\"C\",\"ts\":100,"
            "\"pid\":1,\"tid\":2,\"args\":{\"records\":3,\"answered\":4,"
            "\"fault_lost\":1}}\n"
            "]}\n");
  EXPECT_FALSE(lint_trace_events(text).has_value());
  EXPECT_FALSE(lint_json(text).has_value());
}

TEST(TraceExport, LinterRejectsUnbalancedAndBackwardsEvents) {
  // Unmatched B.
  EXPECT_TRUE(
      lint_trace_events(
          "{\"traceEvents\":[\n"
          "{\"name\":\"a\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":1}\n"
          "]}\n")
          .has_value());
  // ts runs backwards on one tid.
  EXPECT_TRUE(
      lint_trace_events(
          "{\"traceEvents\":[\n"
          "{\"name\":\"a\",\"ph\":\"B\",\"ts\":5,\"pid\":1,\"tid\":1},\n"
          "{\"name\":\"a\",\"ph\":\"E\",\"ts\":4,\"pid\":1,\"tid\":1}\n"
          "]}\n")
          .has_value());
  // E with no open B.
  EXPECT_TRUE(
      lint_trace_events(
          "{\"traceEvents\":[\n"
          "{\"name\":\"a\",\"ph\":\"E\",\"ts\":0,\"pid\":1,\"tid\":1}\n"
          "]}\n")
          .has_value());
  // Invalid JSON overall.
  EXPECT_TRUE(lint_trace_events("{\"traceEvents\":[").has_value());
}

// --- Study-level determinism contract --------------------------------------

core::StudyConfig sampled_study(unsigned threads) {
  core::StudyConfig config;
  config.world.seed = 11;
  config.world.total_sites = 250;
  config.pool_capture_share = 1.0;
  config.world.study_duration = 21 * util::kDay;
  config.backscan_start = 24 * util::kDay;
  config.backscan_duration = 2 * util::kDay;
  config.hitlist_campaign.start = 2 * util::kDay;
  config.hitlist_campaign.duration = 2 * util::kWeek;
  config.caida_campaign.start = 2 * util::kDay;
  config.caida_campaign.duration = 7 * util::kDay;
  config.caida_campaign.slash48_fraction = 0.005;
  config.collector.threads = threads;
  config.analysis.threads = threads;
  // Active faults so the fault_lost vantage series is exercised.
  config.faults.outages_per_vantage = 2.0;
  config.faults.flaps_per_vantage = 4.0;
  return config;
}

core::StudyResults run_sampled(unsigned threads, util::SimDuration interval) {
  core::Study study(sampled_study(threads));
  core::RunOptions options;
  options.sample_interval = interval;
  study.run(std::move(options));
  return std::move(study.mutable_results());
}

void expect_same_timeline(const Timeline& a, const Timeline& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin) << "window " << i;
    EXPECT_EQ(a[i].end, b[i].end) << "window " << i;
    EXPECT_EQ(a[i].stage, b[i].stage) << "window " << i;
    ASSERT_EQ(a[i].counters.size(), b[i].counters.size()) << "window " << i;
    for (std::size_t c = 0; c < a[i].counters.size(); ++c) {
      EXPECT_EQ(a[i].counters[c].name, b[i].counters[c].name);
      EXPECT_EQ(a[i].counters[c].labels, b[i].counters[c].labels);
      EXPECT_EQ(a[i].counters[c].delta, b[i].counters[c].delta)
          << "window " << i << " counter " << a[i].counters[c].name;
    }
    ASSERT_EQ(a[i].gauges.size(), b[i].gauges.size()) << "window " << i;
    for (std::size_t g = 0; g < a[i].gauges.size(); ++g) {
      EXPECT_EQ(a[i].gauges[g].name, b[i].gauges[g].name);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].gauges[g].value),
                std::bit_cast<std::uint64_t>(b[i].gauges[g].value));
    }
    ASSERT_EQ(a[i].vantages.size(), b[i].vantages.size()) << "window " << i;
    for (std::size_t v = 0; v < a[i].vantages.size(); ++v) {
      EXPECT_EQ(a[i].vantages[v].vantage, b[i].vantages[v].vantage);
      EXPECT_EQ(a[i].vantages[v].polls, b[i].vantages[v].polls);
      EXPECT_EQ(a[i].vantages[v].answered, b[i].vantages[v].answered);
      EXPECT_EQ(a[i].vantages[v].fault_lost, b[i].vantages[v].fault_lost);
      EXPECT_EQ(a[i].vantages[v].records, b[i].vantages[v].records);
    }
  }
}

std::string corpus_bytes(const hitlist::Corpus& corpus) {
  std::ostringstream out(std::ios::binary);
  hitlist::save_corpus(out, corpus);
  return std::move(out).str();
}

TEST(TimelineStudy, WindowDeltasTelescopeToCounterTotals) {
  const auto r = run_sampled(1, 7 * util::kDay);
  ASSERT_FALSE(r.timeline.empty());

  // Fold every window back together: generic counter deltas by series,
  // vantage series back into their four counter families.
  std::map<std::pair<std::string, Labels>, std::uint64_t> folded;
  for (const auto& w : r.timeline) {
    for (const auto& c : w.counters) folded[{c.name, c.labels}] += c.delta;
    for (const auto& v : w.vantages) {
      const Labels labels = {{"vantage", std::to_string(v.vantage)}};
      folded[{std::string(kVantagePollsFamily), labels}] += v.polls;
      folded[{std::string(kVantageAnsweredFamily), labels}] += v.answered;
      folded[{std::string(kVantageFaultLostFamily), labels}] += v.fault_lost;
      folded[{std::string(kVantageRecordsFamily), labels}] += v.records;
    }
  }

  // Every counter in the end-of-run snapshot equals its telescoped window
  // sum, and vice versa (no series exists only in the timeline).
  std::size_t counters_checked = 0;
  for (const auto& sample : r.metrics.samples) {
    if (sample.type != MetricType::kCounter) continue;
    ++counters_checked;
    const auto it = folded.find({sample.name, sample.labels});
    const std::uint64_t sum = it == folded.end() ? 0 : it->second;
    EXPECT_EQ(sum, sample.counter_value) << sample.name;
    if (it != folded.end()) folded.erase(it);
  }
  EXPECT_GT(counters_checked, 0u);
  EXPECT_TRUE(folded.empty());

  // The headline series moved: collection recorded real windows.
  EXPECT_GT(r.metrics.counter_sum("v6_collector_records_total"), 0u);
  bool fault_seen = false;
  for (const auto& w : r.timeline) {
    for (const auto& v : w.vantages) fault_seen |= v.fault_lost > 0;
  }
  EXPECT_TRUE(fault_seen);  // the fault plan is active in this config
}

// Histogram windows carry wall-clock count/sum movement (stage durations,
// serve latency) and are explicitly outside the bit-identity contract;
// drop them before byte-level comparisons of the rendered exports.
Timeline strip_histograms(Timeline tl) {
  for (auto& w : tl) w.histograms.clear();
  return tl;
}

TEST(TimelineStudy, BitIdenticalAcrossThreadCounts) {
  const auto r1 = run_sampled(1, 6 * util::kDay);
  const auto r2 = run_sampled(2, 6 * util::kDay);
  const auto r4 = run_sampled(4, 6 * util::kDay);
  ASSERT_FALSE(r1.timeline.empty());
  expect_same_timeline(r1.timeline, r2.timeline);
  expect_same_timeline(r1.timeline, r4.timeline);
  // The rendered exports are therefore byte-identical too, once the
  // wall-clock histogram fields (stage wall time among them) are stripped.
  bool stage_wall_seen = false;
  for (const auto& w : r4.timeline) {
    for (const auto& h : w.histograms) {
      stage_wall_seen |= h.name == core::kStageWallFamily;
    }
  }
  EXPECT_TRUE(stage_wall_seen);
  const Timeline t1 = strip_histograms(r1.timeline);
  const Timeline t4 = strip_histograms(r4.timeline);
  EXPECT_EQ(render_timeline(t1, TimelineFormat::kJsonl),
            render_timeline(t4, TimelineFormat::kJsonl));
  EXPECT_EQ(render_timeline(t1, TimelineFormat::kCsv),
            render_timeline(t4, TimelineFormat::kCsv));
}

TEST(TimelineStudy, SamplingLeavesResultsByteIdentical) {
  const auto off = run_sampled(2, 0);
  const auto on = run_sampled(2, 5 * util::kDay);
  EXPECT_TRUE(off.timeline.empty());
  ASSERT_FALSE(on.timeline.empty());

  // The corpora are byte-identical under the binary snapshot format...
  EXPECT_EQ(corpus_bytes(off.ntp), corpus_bytes(on.ntp));
  EXPECT_EQ(corpus_bytes(off.backscan_week), corpus_bytes(on.backscan_week));
  EXPECT_EQ(corpus_bytes(off.hitlist.corpus), corpus_bytes(on.hitlist.corpus));

  // ...and the floating-point analysis aggregates match to the bit.
  EXPECT_EQ(
      std::bit_cast<std::uint64_t>(off.analysis.address_lifetimes.fraction_once),
      std::bit_cast<std::uint64_t>(on.analysis.address_lifetimes.fraction_once));
  EXPECT_EQ(
      std::bit_cast<std::uint64_t>(off.analysis.address_lifetimes.fraction_month),
      std::bit_cast<std::uint64_t>(
          on.analysis.address_lifetimes.fraction_month));
  ASSERT_EQ(off.analysis.table1.size(), on.analysis.table1.size());
  for (std::size_t i = 0; i < off.analysis.table1.size(); ++i) {
    EXPECT_EQ(off.analysis.table1[i].addresses, on.analysis.table1[i].addresses);
    EXPECT_EQ(off.analysis.table1[i].asns, on.analysis.table1[i].asns);
    EXPECT_EQ(off.analysis.table1[i].slash48s, on.analysis.table1[i].slash48s);
  }

  // The timeline is gapless and lints clean end to end.
  EXPECT_FALSE(
      lint_timeline_jsonl(render_timeline(on.timeline, TimelineFormat::kJsonl))
          .has_value());
  EXPECT_FALSE(
      lint_trace_events(render_trace_events(on.metrics, on.timeline))
          .has_value());
}

}  // namespace
}  // namespace v6::obs
