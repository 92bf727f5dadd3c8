// Figure 1 — CDFs of IID entropy for the NTP corpus, the IPv6 Hitlist, the
// CAIDA routed-/48 dataset, and their pairwise intersections with the NTP
// corpus. Headline shape: NTP median ~0.8 (clients), Hitlist ~0.7 (mixed),
// CAIDA almost entirely low entropy (operator-assigned router IIDs).
#include "analysis/entropy_distribution.h"
#include "bench_common.h"

int main() {
  using namespace v6;
  auto config = bench::bench_config();
  bench::print_banner("Figure 1: IID entropy CDFs", config);

  core::Study study(config);
  bench::timed("passive NTP collection", [&] {
    study.run({.campaigns = false, .backscan = false, .analysis = false});
  });
  bench::timed("active campaigns", [&] {
    study.run({.collect = false, .backscan = false, .analysis = false});
  });
  const auto& r = study.results();

  const auto ntp = analysis::entropy_distribution(r.ntp);
  const auto hitlist = analysis::entropy_distribution(r.hitlist.corpus);
  const auto caida = analysis::entropy_distribution(r.caida.corpus);
  const auto ntp_hitlist =
      analysis::intersection_entropy_distribution(r.ntp, r.hitlist.corpus);
  const auto ntp_caida =
      analysis::intersection_entropy_distribution(r.ntp, r.caida.corpus);

  bench::print_cdf("Fig 1 series: NTP Pool", ntp);
  bench::print_cdf("Fig 1 series: IPv6 Hitlist", hitlist);
  bench::print_cdf("Fig 1 series: CAIDA routed /48", caida);
  bench::print_cdf("Fig 1 series: NTP ∩ Hitlist", ntp_hitlist);
  bench::print_cdf("Fig 1 series: NTP ∩ CAIDA", ntp_caida);

  std::printf("\n");
  bench::Comparison comparison;
  comparison.row("NTP median entropy", "~0.8",
                 std::to_string(ntp.median()));
  comparison.row("Hitlist median entropy", "~0.7",
                 hitlist.empty() ? "-" : std::to_string(hitlist.median()));
  comparison.row("CAIDA median entropy", "near 0",
                 caida.empty() ? "-" : std::to_string(caida.median()));
  comparison.row("CAIDA low-entropy (<0.25) share", "almost all",
                 caida.empty() ? "-" : util::percent(caida.cdf(0.25)));
  comparison.row("NTP high-entropy (>=0.75) share", "majority",
                 util::percent(1.0 - ntp.cdf(0.75)));
  comparison.print();
  return 0;
}
