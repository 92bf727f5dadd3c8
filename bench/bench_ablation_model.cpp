// Ablation of the observation-model design choices DESIGN.md documents:
//
//   * pool capture share  — our 27 servers are a sliver of the pool's
//     rotation; without sampling, "observed once" collapses;
//   * iburst bursts       — multi-packet syncs through one DNS answer are
//     what give a large minority of addresses >1 sighting;
//   * client churn        — devices present for only weeks are what keeps
//     most EUI-64 MACs single-prefix ("mostly static" in §5.2).
//
// Each row re-runs collection on the same world with one mechanism
// removed and reports the statistics that mechanism is responsible for.
#include "analysis/eui64_tracking.h"
#include "analysis/lifetimes.h"
#include "bench_common.h"
#include "hitlist/passive_collector.h"
#include "netsim/pool_dns.h"

namespace {

using namespace v6;

struct RowResult {
  std::uint64_t corpus = 0;
  double once = 0.0;
  double eui64_multi_prefix = 0.0;
};

RowResult run_once(const sim::World& world, double capture,
                   bool ignore_bursts) {
  netsim::PoolDns dns(world, 0.25, capture);
  hitlist::CollectorConfig config;
  config.loss_rate = 0.01;
  config.ignore_bursts = ignore_bursts;
  hitlist::PassiveCollector collector(world, dns, /*faults=*/nullptr, config);
  hitlist::Corpus corpus(1 << 16);
  collector.run(corpus, 0, world.config().study_duration);

  RowResult row;
  row.corpus = corpus.size();
  const auto lifetimes = analysis::address_lifetimes(corpus, {});
  row.once = lifetimes.fraction_once;
  analysis::Eui64Tracker tracker(corpus, world);
  row.eui64_multi_prefix =
      tracker.unique_macs() == 0
          ? 0.0
          : static_cast<double>(tracker.trackable_macs()) /
                static_cast<double>(tracker.unique_macs());
  return row;
}

}  // namespace

int main() {
  using namespace v6;
  auto config = bench::bench_config();
  // The ablation grid re-collects several times; use a smaller world.
  config.world.total_sites =
      std::min<std::uint32_t>(config.world.total_sites, 6000);
  config.world.study_duration =
      std::min<util::SimDuration>(config.world.study_duration,
                                  120 * util::kDay);
  bench::print_banner("Ablation: observation-model design choices", config);

  util::TablePrinter table({"configuration", "unique addresses",
                            "observed once", "EUI-64 MACs in >=2 /64s"});
  auto add_row = [&table](const char* name, const RowResult& row) {
    table.add_row({name, util::with_commas(row.corpus),
                   util::percent(row.once),
                   util::percent(row.eui64_multi_prefix)});
  };

  {
    const auto world = sim::World::generate(config.world);
    bench::timed("baseline (capture 3%, bursts, churn)", [&] {
      add_row("baseline", run_once(world, 0.03, false));
    });
    bench::timed("full capture (every poll seen)", [&] {
      add_row("capture share = 100%", run_once(world, 1.0, false));
    });
    bench::timed("no bursts", [&] {
      add_row("iburst disabled", run_once(world, 0.03, true));
    });
  }
  {
    auto no_churn = config.world;
    no_churn.client_churn = false;
    const auto world = sim::World::generate(no_churn);
    bench::timed("no churn (devices never retire)", [&] {
      add_row("client churn disabled", run_once(world, 0.03, false));
    });
  }
  table.print(std::cout);

  std::printf(
      "\nreading guide: capture-share sampling carries the paper's >60%%\n"
      "observed-once statistic (full capture collapses it); iburst bursts\n"
      "hold it down near 60-70%% instead of ~90%%; and disabling churn both\n"
      "triples the corpus and visibly raises EUI-64 multi-prefix exposure.\n");
  return 0;
}
