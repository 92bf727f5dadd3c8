// Figure 5 — fraction of the NTP corpus and the IPv6 Hitlist falling into
// the seven address categories (Zeroes / Low Byte / Low 2 Bytes / IPv4 /
// entropy bands) on a single day. Headline: the NTP corpus is ~2/3
// high-entropy, while the Hitlist's Low-Byte share is ~33x the NTP one.
#include "analysis/address_categories.h"
#include "bench_common.h"

int main() {
  using namespace v6;
  auto config = bench::bench_config();
  bench::print_banner("Figure 5: address categories (single day)", config);

  core::Study study(config);
  bench::timed("passive NTP collection", [&] {
    study.run({.campaigns = false, .backscan = false, .analysis = false});
  });
  bench::timed("active campaigns", [&] {
    study.run({.collect = false, .backscan = false, .analysis = false});
  });
  const auto& r = study.results();

  // The paper compares 1 July (study day ~157): one NTP day against the
  // Hitlist snapshot released for the week prior.
  const util::SimTime day_start = std::min<util::SimTime>(
      157 * util::kDay, study.config().world.study_duration - util::kDay);
  const auto ntp_day = analysis::categorize_corpus(
      r.ntp, study.world(), day_start, day_start + util::kDay);
  const auto hitlist_week = analysis::categorize_corpus(
      r.hitlist.corpus, study.world(), day_start - util::kWeek,
      day_start + util::kDay);

  std::printf("NTP addresses that day: %s; Hitlist snapshot: %s\n\n",
              util::with_commas(ntp_day.total).c_str(),
              util::with_commas(hitlist_week.total).c_str());

  util::TablePrinter table(
      {"Category", "NTP fraction", "Hitlist fraction", "paper (NTP)",
       "paper (Hitlist)"});
  struct PaperRow {
    net::AddressCategory category;
    const char* ntp;
    const char* hitlist;
  };
  // Paper values eyeballed from the log-scale Fig 5 bars.
  const PaperRow rows[] = {
      {net::AddressCategory::kZeroes, "~0.1%", "~1%"},
      {net::AddressCategory::kLowByte, "~0.3%", "~10%"},
      {net::AddressCategory::kLow2Bytes, "~0.5%", "~4%"},
      {net::AddressCategory::kIpv4Mapped, "0.00002%", "3%"},
      {net::AddressCategory::kHighEntropy, "~66%", "~13%"},
      {net::AddressCategory::kMediumEntropy, "~21%", "~8%"},
      {net::AddressCategory::kLowEntropy, "~12%", "~60%"},
  };
  for (const auto& row : rows) {
    table.add_row({to_string(row.category),
                   util::percent(ntp_day.fraction(row.category), 4),
                   util::percent(hitlist_week.fraction(row.category), 4),
                   row.ntp, row.hitlist});
  }
  table.print(std::cout);

  std::printf("\n");
  bench::Comparison comparison;
  const double ntp_low_byte =
      ntp_day.fraction(net::AddressCategory::kLowByte);
  const double hl_low_byte =
      hitlist_week.fraction(net::AddressCategory::kLowByte);
  comparison.row("Hitlist/NTP Low-Byte ratio", "~33x",
                 ntp_low_byte > 0
                     ? std::to_string(hl_low_byte / ntp_low_byte) + "x"
                     : "inf");
  comparison.row(
      "NTP high+medium entropy", "~87%",
      util::percent(
          ntp_day.fraction(net::AddressCategory::kHighEntropy) +
          ntp_day.fraction(net::AddressCategory::kMediumEntropy)));
  comparison.row(
      "Hitlist high+medium entropy", "~20%",
      util::percent(
          hitlist_week.fraction(net::AddressCategory::kHighEntropy) +
          hitlist_week.fraction(net::AddressCategory::kMediumEntropy)));
  comparison.print();
  return 0;
}
