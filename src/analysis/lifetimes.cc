#include "analysis/lifetimes.h"

#include <algorithm>
#include <unordered_map>

#include "kernels/batch.h"
#include "util/thread_pool.h"

namespace v6::analysis {

namespace {

// Per-shard tallies for the Fig 2a scan: all integers, so the shard merge
// is an exact sum regardless of partitioning.
struct AddressTallies {
  std::uint64_t total = 0;
  std::uint64_t once = 0;
  std::uint64_t week = 0;
  std::uint64_t month = 0;
  std::uint64_t six = 0;
  std::vector<std::uint64_t> at_least;
};

// IID span collapse state (Fig 2b phase 1). Merging maps takes per-key
// min(first)/max(last) — commutative, so the merged map holds the same
// spans as a serial build no matter the shard layout.
struct Span {
  std::uint32_t first;
  std::uint32_t last;
};
using IidSpans = std::unordered_map<std::uint64_t, Span>;

struct BandTallies {
  std::array<std::uint64_t, 3> total{};
  std::array<std::uint64_t, 3> once{};
  std::array<std::uint64_t, 3> week{};
  std::array<std::vector<std::uint64_t>, 3> at_most;
};

}  // namespace

AddressLifetimeReport address_lifetimes(
    const ScanSource& source, std::span<const util::SimDuration> ccdf_points,
    const AnalysisConfig& config, std::vector<AnalysisStageStats>* stats) {
  const std::size_t n_points = ccdf_points.size();
  const auto tallies = scan_corpus_blocks<AddressTallies>(
      source, config, "address_lifetimes",
      [n_points] {
        AddressTallies t;
        t.at_least.assign(n_points, 0);
        return t;
      },
      // Pure integer tallies: the block form trades the per-record
      // type-erased callback for one plain loop per block.
      [&ccdf_points](AddressTallies& t,
                     std::span<const hitlist::AddressRecord> block) {
        t.total += block.size();
        for (const auto& rec : block) {
          const util::SimDuration life = rec.lifetime();
          if (life == 0) ++t.once;
          if (life >= util::kWeek) ++t.week;
          if (life >= util::kMonth) ++t.month;
          if (life >= 6 * util::kMonth) ++t.six;
          for (std::size_t i = 0; i < ccdf_points.size(); ++i) {
            if (life >= ccdf_points[i]) ++t.at_least[i];
          }
        }
      },
      [](AddressTallies& into, AddressTallies&& from) {
        into.total += from.total;
        into.once += from.once;
        into.week += from.week;
        into.month += from.month;
        into.six += from.six;
        for (std::size_t i = 0; i < into.at_least.size(); ++i) {
          into.at_least[i] += from.at_least[i];
        }
      },
      stats);

  AddressLifetimeReport report;
  report.total = tallies.total;
  if (report.total == 0) return report;
  const auto total = static_cast<double>(report.total);
  report.fraction_once = static_cast<double>(tallies.once) / total;
  report.fraction_week = static_cast<double>(tallies.week) / total;
  report.fraction_month = static_cast<double>(tallies.month) / total;
  report.fraction_six_months = static_cast<double>(tallies.six) / total;
  report.ccdf.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    report.ccdf.emplace_back(ccdf_points[i],
                             static_cast<double>(tallies.at_least[i]) / total);
  }
  return report;
}

AddressLifetimeReport address_lifetimes(
    const hitlist::Corpus& corpus,
    std::span<const util::SimDuration> ccdf_points,
    const AnalysisConfig& config, std::vector<AnalysisStageStats>* stats) {
  return address_lifetimes(make_source(corpus), ccdf_points, config, stats);
}

IidLifetimeReport iid_lifetimes(const ScanSource& source,
                                std::span<const util::SimDuration> cdf_points,
                                const AnalysisConfig& config,
                                std::vector<AnalysisStageStats>* stats) {
  // Phase 1: collapse addresses to IID spans (lifetime spans all
  // sightings of the IID across every prefix it appeared under).
  IidSpans iids = scan_corpus<IidSpans>(
      source, config, "iid_lifetimes/spans",
      [&source, &config] {
        IidSpans m;
        m.reserve(static_cast<std::size_t>(source.records) /
                      config.threads.resolved() +
                  1);
        return m;
      },
      [](IidSpans& m, const hitlist::AddressRecord& rec) {
        const auto [it, inserted] = m.try_emplace(
            rec.address.iid(), Span{rec.first_seen, rec.last_seen});
        if (!inserted) {
          it->second.first = std::min(it->second.first, rec.first_seen);
          it->second.last = std::max(it->second.last, rec.last_seen);
        }
      },
      [](IidSpans& into, IidSpans&& from) {
        for (const auto& [iid, span] : from) {
          const auto [it, inserted] = into.try_emplace(iid, span);
          if (!inserted) {
            it->second.first = std::min(it->second.first, span.first);
            it->second.last = std::max(it->second.last, span.last);
          }
        }
      },
      stats);

  // Phase 2: entropy-band the unique IIDs. The merged map's iteration
  // order varies with the shard layout, but every tally below is an
  // integer sum over per-IID pure functions, so the report does not.
  // Sharded as well — iid_entropy per unique IID is the expensive part.
  const std::uint64_t t_bands = monotonic_micros();
  std::vector<std::pair<std::uint64_t, Span>> entries(iids.begin(),
                                                      iids.end());
  const unsigned shards = config.threads.resolved();
  const std::size_t n_points = cdf_points.size();
  std::vector<BandTallies> shard_tallies(shards);
  for (auto& t : shard_tallies) {
    for (auto& v : t.at_most) v.assign(n_points, 0);
  }
  std::uint64_t merge_us = 0;
  util::run_sharded(
      entries.size(), shards,
      [&](unsigned s, std::size_t begin, std::size_t end) {
        // Entropy is the expensive part of this pass; band it through the
        // batch kernel a chunk at a time (bit-identical to per-IID
        // net::iid_entropy on either backend, so every band tally — and
        // the report floats derived from them — is dispatch-independent).
        constexpr std::size_t kChunk = 1024;
        std::uint64_t iids[kChunk];
        double entropies[kChunk];
        BandTallies& t = shard_tallies[s];
        for (std::size_t base = begin; base < end; base += kChunk) {
          const std::size_t n = std::min(kChunk, end - base);
          for (std::size_t i = 0; i < n; ++i) {
            iids[i] = entries[base + i].first;
          }
          kernels::iid_entropy_batch(iids, n, entropies);
          for (std::size_t i = 0; i < n; ++i) {
            const Span& span = entries[base + i].second;
            const auto band =
                static_cast<std::size_t>(net::entropy_band(entropies[i]));
            ++t.total[band];
            const auto life =
                static_cast<util::SimDuration>(span.last) - span.first;
            if (life == 0) ++t.once[band];
            if (life >= util::kWeek) ++t.week[band];
            for (std::size_t p = 0; p < n_points; ++p) {
              if (life <= cdf_points[p]) ++t.at_most[band][p];
            }
          }
        }
      });
  {
    const std::uint64_t t_merge = monotonic_micros();
    for (unsigned s = 1; s < shards; ++s) {
      BandTallies& from = shard_tallies[s];
      BandTallies& into = shard_tallies[0];
      for (std::size_t band = 0; band < 3; ++band) {
        into.total[band] += from.total[band];
        into.once[band] += from.once[band];
        into.week[band] += from.week[band];
        for (std::size_t p = 0; p < n_points; ++p) {
          into.at_most[band][p] += from.at_most[band][p];
        }
      }
    }
    merge_us = monotonic_micros() - t_merge;
  }

  IidLifetimeReport report;
  report.unique_iids = entries.size();
  const BandTallies& tallies = shard_tallies[0];
  for (std::size_t band = 0; band < 3; ++band) {
    auto& b = report.bands[band];
    b.total = tallies.total[band];
    if (b.total == 0) continue;
    const auto total = static_cast<double>(b.total);
    b.fraction_once = static_cast<double>(tallies.once[band]) / total;
    b.fraction_week = static_cast<double>(tallies.week[band]) / total;
    b.cdf.reserve(n_points);
    for (std::size_t p = 0; p < n_points; ++p) {
      b.cdf.emplace_back(cdf_points[p],
                         static_cast<double>(tallies.at_most[band][p]) /
                             total);
    }
  }
  const std::uint64_t wall_us = monotonic_micros() - t_bands;
  if (stats != nullptr) {
    AnalysisStageStats stat;
    stat.stage = "iid_lifetimes/bands";
    stat.threads = shards;
    stat.records = report.unique_iids;
    stat.merge_us = merge_us;
    stat.wall_us = wall_us;
    stats->push_back(std::move(stat));
  }
  // This pass shards by hand (run_sharded over the span map, not a corpus
  // scan), so it reports into the registry itself — same families as the
  // ParallelScan engine, keeping v6_analysis_records_total exhaustive.
  if (config.metrics != nullptr) {
    config.metrics
        ->counter("v6_analysis_records_total",
                  "Records scanned, per analysis kernel",
                  {{"stage", "iid_lifetimes/bands"}})
        .inc(report.unique_iids);
    config.metrics
        ->histogram("v6_analysis_wall_us",
                    "Whole-stage scan wall time (microseconds)")
        .observe(static_cast<double>(wall_us));
    config.metrics
        ->histogram("v6_analysis_merge_us",
                    "Shard-index-order merge time (microseconds)")
        .observe(static_cast<double>(merge_us));
  }
  return report;
}

IidLifetimeReport iid_lifetimes(const hitlist::Corpus& corpus,
                                std::span<const util::SimDuration> cdf_points,
                                const AnalysisConfig& config,
                                std::vector<AnalysisStageStats>* stats) {
  return iid_lifetimes(make_source(corpus), cdf_points, config, stats);
}

}  // namespace v6::analysis
