// Table 2 + §5.1 — EUI-64 prevalence and the manufacturers of the embedded
// MAC addresses. Headlines: ~3% of the corpus is EUI-64 (far above the
// 2^-16 random-match floor); the largest bucket is "Unlisted" OUIs; the
// named makers are IoT/smart-home/mobile brands.
#include "analysis/eui64_tracking.h"
#include "analysis/manufacturers.h"
#include "bench_common.h"

int main() {
  using namespace v6;
  auto config = bench::bench_config();
  bench::print_banner("Table 2 / §5.1: EUI-64 manufacturers", config);

  core::Study study(config);
  bench::timed("passive NTP collection", [&] {
    study.run({.campaigns = false, .backscan = false, .analysis = false});
  });
  const auto& r = study.results();

  analysis::Eui64Tracker tracker(r.ntp, study.world());
  const auto table2 = analysis::manufacturer_table(
      tracker.tracks(), study.world().ouis(), 10);

  util::TablePrinter table({"Manufacturer", "MACs", "share"});
  for (const auto& row : table2) {
    table.add_row({row.name, util::with_commas(row.mac_count),
                   util::percent(static_cast<double>(row.mac_count) /
                                 static_cast<double>(std::max<std::uint64_t>(
                                     1, tracker.unique_macs())))});
  }
  table.print(std::cout);

  std::printf("\n");
  bench::Comparison comparison;
  comparison.row(
      "EUI-64 share of corpus", "3%",
      util::percent(static_cast<double>(tracker.eui64_addresses()) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, tracker.corpus_addresses()))));
  comparison.row("EUI-64 addresses", "238,281,703 (unscaled)",
                 util::with_commas(tracker.eui64_addresses()));
  comparison.row("unique embedded MACs", "171,611,786 (unscaled)",
                 util::with_commas(tracker.unique_macs()));
  comparison.row("expected random EUI-64 lookalikes", "< 121,000 (N/2^16)",
                 util::with_commas(tracker.expected_random_matches()));
  comparison.row("top bucket", "Unlisted (73.9%)",
                 table2.empty() ? "-" : table2.front().name);
  comparison.row(
      "single-MAC unlisted OUIs (random lookalikes)", "42,901 (unscaled)",
      util::with_commas(analysis::single_mac_unlisted_ouis(
          tracker.tracks(), study.world().ouis())));
  comparison.print();
  return 0;
}
