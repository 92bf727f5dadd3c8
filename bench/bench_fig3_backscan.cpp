// Figure 3 + §4.2 — backscanning NTP clients: entropy CDFs of responsive
// ("NTP hit") vs unresponsive ("NTP miss") clients and of responsive
// random same-/64 targets; responsiveness rates; aliased-network
// discovery and its cross-check against the Hitlist's aliased list.
#include "bench_common.h"
#include "net/entropy.h"

int main() {
  using namespace v6;
  auto config = bench::bench_config();
  bench::print_banner("Figure 3 / §4.2: backscanning NTP clients", config);

  core::Study study(config);
  bench::timed("active campaigns (alias baseline)", [&] {
    study.run({.collect = false, .backscan = false, .analysis = false});
  });
  bench::timed("backscan week", [&] {
    study.run({.collect = false, .campaigns = false, .analysis = false});
  });
  const auto& r = study.results();
  const auto& scan = r.backscan;

  util::EmpiricalDistribution hit, miss, random_hit;
  for (const auto& outcome : scan.outcomes) {
    (outcome.client_responded ? hit : miss)
        .add(net::iid_entropy(outcome.client));
    if (outcome.random_responded) {
      random_hit.add(net::iid_entropy(outcome.random_target));
    }
  }

  bench::print_cdf("Fig 3 series: NTP hit (responsive clients)", hit);
  bench::print_cdf("Fig 3 series: NTP miss (unresponsive clients)", miss);
  bench::print_cdf("Fig 3 series: random responsive targets", random_hit);

  const double response_rate =
      static_cast<double>(scan.clients_responded) /
      static_cast<double>(std::max<std::uint64_t>(1, scan.clients_probed));
  const double random_rate =
      static_cast<double>(scan.responsive_random_addresses) /
      static_cast<double>(std::max<std::uint64_t>(1, scan.random_probed));

  std::printf("\n");
  bench::Comparison comparison;
  comparison.row("clients probed", "71,341,581 (unscaled)",
                 util::with_commas(scan.clients_probed));
  comparison.row("client response rate", "~2/3",
                 util::percent(response_rate));
  comparison.row("random same-/64 response rate", "3.5%",
                 util::percent(random_rate));
  comparison.row(
      "unresponsive clients with entropy > 0.75", "~70%",
      miss.empty() ? "-" : util::percent(1.0 - miss.cdf(0.75)));
  comparison.row("responsive clients with entropy > 0.75", "~50%",
                 hit.empty() ? "-" : util::percent(1.0 - hit.cdf(0.75)));
  comparison.row("aliased /64s discovered", "3,740,619 (unscaled)",
                 util::with_commas(scan.aliased_slash64s.size()));
  const auto& check = r.alias_check;
  const auto known_total =
      check.aliased_known_to_hitlist + check.aliased_new;
  comparison.row(
      "backscan aliases known to Hitlist", "98%",
      known_total == 0
          ? "-"
          : util::percent(static_cast<double>(
                              check.aliased_known_to_hitlist) /
                          static_cast<double>(known_total)));
  comparison.row("aliased prefixes new to Hitlist", "46,512 (unscaled)",
                 util::with_commas(check.aliased_new));
  comparison.row("NTP clients inside aliased /64s", "3,841,751 (unscaled)",
                 util::with_commas(check.ntp_clients_in_aliased));
  comparison.row("Hitlist addresses in those /64s", "only 23",
                 util::with_commas(check.hitlist_addresses_in_aliased));
  comparison.print();
  return 0;
}
