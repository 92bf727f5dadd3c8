// Outage detection from passive NTP time series (the abstract's "benefits"
// list, as a runnable program).
//
// Injects two AS-wide outages into the world, runs collection with an
// OutageMonitor hooked into the observation stream, and shows the detector
// recovering the injected windows from nothing but per-AS daily volumes —
// no probing involved.
#include <cstdio>

#include "analysis/outage.h"
#include "analysis/rotation.h"
#include "core/study.h"
#include "util/strings.h"

int main() {
  using namespace v6;

  core::StudyConfig config;
  config.world.seed = 21;
  config.world.total_sites = 3000;
  config.world.study_duration = 60 * util::kDay;
  config.world.outage_count = 2;
  config.world.outage_duration = 4 * util::kDay;
  config.pool_capture_share = 1.0;  // dense series for a short demo window

  core::Study study(config);
  analysis::OutageMonitor monitor(study.world());

  // Wire the monitor into collection by rerunning the collector with a
  // hook (Study::collect has no hook; use the collector directly).
  netsim::PoolDns dns(study.world(), 0.25, 1.0);
  hitlist::PassiveCollector collector(study.world(), dns, study.faults(),
                                      config.collector);
  hitlist::Corpus corpus(1 << 16);
  collector.run(corpus, 0, config.world.study_duration,
                [&monitor](const ntp::Observation& obs,
                           const net::Ipv6Address&) {
                  monitor.record(obs.client, obs.time);
                });
  std::printf("collected %s unique addresses\n\n",
              util::with_commas(corpus.size()).c_str());

  std::printf("injected outages (ground truth):\n");
  for (std::uint32_t ai = 0; ai < study.world().ases().size(); ++ai) {
    const auto& as = study.world().ases()[ai];
    if (as.outage_duration == 0) continue;
    std::printf("  AS%-6u %-28s days %ld-%ld\n", as.asn, as.name.c_str(),
                static_cast<long>(as.outage_start / util::kDay),
                static_cast<long>(
                    (as.outage_start + as.outage_duration - 1) / util::kDay));
  }

  const auto detected =
      monitor.detect(config.world.study_duration / util::kDay);
  std::printf("\ndetected from the observation series alone:\n");
  for (const auto& outage : detected) {
    std::printf("  AS%-6u %-28s days %ld-%ld\n", outage.asn,
                study.world().ases()[outage.as_index].name.c_str(),
                static_cast<long>(outage.first_day),
                static_cast<long>(outage.last_day));
    const auto series = monitor.daily_series(
        outage.as_index, config.world.study_duration / util::kDay);
    std::printf("    series: ");
    for (std::size_t day = 0; day < series.size(); ++day) {
      std::printf("%c", series[day] < 5 ? '_' : (series[day] < 50 ? '.' : '#'));
    }
    std::printf("\n");
  }
  if (detected.empty()) std::printf("  (none)\n");
  return 0;
}
