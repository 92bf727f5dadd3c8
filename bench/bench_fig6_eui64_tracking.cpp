// Figure 6 + §5.2 — tracking EUI-64 devices: (a) CDF of EUI-64 IID
// lifetimes, (b) CCDF of the number of /64s each EUI-64 IID appears in,
// and the five-way trackability classification (mostly static 86%, prefix
// reassignment 8%, changing providers 5%, user movement 0.44%, MAC reuse
// 0.01% — of the 8.7% of MACs seen in >= 2 /64s).
#include "analysis/bad_apple.h"
#include "analysis/eui64_tracking.h"
#include "bench_common.h"

int main() {
  using namespace v6;
  auto config = bench::bench_config();
  bench::print_banner("Figure 6 / §5.2: EUI-64 tracking", config);

  core::Study study(config);
  bench::timed("passive NTP collection", [&] {
    study.run({.campaigns = false, .backscan = false, .analysis = false});
  });
  const auto& r = study.results();

  analysis::Eui64Tracker tracker(r.ntp, study.world());

  // Fig 6a: lifetime CDF (seconds).
  const auto lifetimes = tracker.lifetime_distribution();
  bench::print_cdf("Fig 6a series: EUI-64 IID lifetime CDF (seconds)",
                   lifetimes);

  // Fig 6b: CCDF of /64 counts.
  const std::vector<std::uint32_t> points = {0,  1,  2,   5,   10,
                                             20, 50, 100, 200, 500};
  std::printf("\n# Fig 6b series: CCDF of /64s per EUI-64 IID\n");
  std::printf("slash64s,ccdf\n");
  for (const auto& [n, frac] : tracker.slash64_ccdf(points)) {
    std::printf("%u,%.6f\n", n, frac);
  }

  const double trackable_share =
      static_cast<double>(tracker.trackable_macs()) /
      static_cast<double>(std::max<std::uint64_t>(1, tracker.unique_macs()));

  std::printf("\nClassification of trackable MACs (>= 2 /64s):\n");
  util::TablePrinter table({"class", "MACs", "share", "paper"});
  const char* paper_share[] = {"-", "86%", "8%", "0.01%", "5%", "0.44%"};
  std::uint64_t trackable = tracker.trackable_macs();
  for (const auto& [cls, count] : tracker.class_counts()) {
    table.add_row(
        {to_string(cls), util::with_commas(count),
         util::percent(static_cast<double>(count) /
                       static_cast<double>(std::max<std::uint64_t>(
                           1, trackable))),
         paper_share[static_cast<std::size_t>(cls)]});
  }
  table.print(std::cout);

  std::printf("\n");
  bench::Comparison comparison;
  comparison.row("MACs in >= 2 /64s", "8.7%",
                 util::percent(trackable_share));
  comparison.row(
      "EUI-64 IIDs observed once", "~55% (vs 60-70% of all IIDs)",
      lifetimes.empty() ? "-" : util::percent(lifetimes.cdf(0.0)));
  comparison.row(
      "EUI-64 IIDs alive >= 1 week", "fat tail (>= low-entropy IIDs)",
      lifetimes.empty()
          ? "-"
          : util::percent(1.0 - lifetimes.cdf(
                                    static_cast<double>(util::kWeek) - 1)));
  const auto apples = analysis::bad_apple_linkage(r.ntp, tracker);
  comparison.row("one-bad-apple: co-tenant addresses linked",
                 "(ref [66], Saidi et al.)",
                 util::with_commas(apples.linked_addresses));
  comparison.row("households stitched across rotations",
                 "(ref [66])",
                 util::with_commas(
                     apples.households_stitched_across_prefixes));
  comparison.print();
  return 0;
}
