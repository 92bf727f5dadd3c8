// Quickstart: the whole study on a small world, in ~30 lines of API.
//
// Generates a miniature IPv6 Internet, runs the passive NTP collection, the
// two active comparison campaigns, and the backscan, then prints the
// headline numbers the paper's abstract leads with.
#include <cstdio>

#include "analysis/dataset_compare.h"
#include "analysis/entropy_distribution.h"
#include "analysis/eui64_tracking.h"
#include "core/study.h"
#include "util/strings.h"

int main() {
  using namespace v6;

  core::StudyConfig config;
  config.world.seed = 2022;
  config.world.total_sites = 2000;          // small; benches use 10-20k
  config.world.study_duration = 120 * util::kDay;
  config.backscan_start = 130 * util::kDay;

  std::printf("generating world + running all stages...\n");
  core::Study study(config);
  const auto& r = study.run();

  std::printf("\n== corpus sizes ==\n");
  std::printf("NTP corpus     : %s unique addresses (%s observations)\n",
              util::with_commas(r.ntp.size()).c_str(),
              util::with_commas(r.ntp.total_observations()).c_str());
  std::printf("IPv6 Hitlist   : %s addresses\n",
              util::with_commas(r.hitlist.corpus.size()).c_str());
  std::printf("CAIDA /48 scan : %s addresses\n",
              util::with_commas(r.caida.corpus.size()).c_str());

  const auto ntp_entropy = analysis::entropy_distribution(r.ntp);
  std::printf("\nNTP median IID entropy: %.2f (paper: ~0.8)\n",
              ntp_entropy.median());

  analysis::Eui64Tracker tracker(r.ntp, study.world());
  std::printf("EUI-64 prevalence: %s of %s (%.1f%%), %s unique MACs\n",
              util::with_commas(tracker.eui64_addresses()).c_str(),
              util::with_commas(tracker.corpus_addresses()).c_str(),
              100.0 * static_cast<double>(tracker.eui64_addresses()) /
                  static_cast<double>(tracker.corpus_addresses()),
              util::with_commas(tracker.unique_macs()).c_str());

  std::printf("\n== backscan ==\n");
  std::printf("clients probed %s, responded %s (%.1f%%)\n",
              util::with_commas(r.backscan.clients_probed).c_str(),
              util::with_commas(r.backscan.clients_responded).c_str(),
              100.0 * static_cast<double>(r.backscan.clients_responded) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, r.backscan.clients_probed)));
  std::printf("aliased /64s discovered: %zu (new vs Hitlist: %s)\n",
              r.backscan.aliased_slash64s.size(),
              util::with_commas(r.alias_check.aliased_new).c_str());

  std::printf("\ntop countries by unique addresses:\n");
  auto mix = study.country_mix();
  for (std::size_t i = 0; i < mix.size() && i < 5; ++i) {
    std::printf("  %s  %s\n", mix[i].first.to_string().c_str(),
                util::with_commas(mix[i].second).c_str());
  }
  return 0;
}
