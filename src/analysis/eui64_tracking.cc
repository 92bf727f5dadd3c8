#include "analysis/eui64_tracking.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "net/eui64.h"

namespace v6::analysis {

const char* to_string(TrackingClass c) noexcept {
  switch (c) {
    case TrackingClass::kNotTrackable:
      return "not trackable";
    case TrackingClass::kMostlyStatic:
      return "mostly static";
    case TrackingClass::kPrefixReassignment:
      return "prefix reassignment";
    case TrackingClass::kMacReuse:
      return "MAC reuse";
    case TrackingClass::kChangingProviders:
      return "changing providers";
    case TrackingClass::kUserMovement:
      return "user movement";
  }
  return "?";
}

Eui64Tracker::Eui64Tracker(const hitlist::Corpus& corpus,
                           const sim::World& world)
    : world_(&world) {
  struct Raw {
    std::vector<TimelinePoint> points;
    std::uint32_t first = ~std::uint32_t{0};
    std::uint32_t last = 0;
  };
  std::unordered_map<net::MacAddress, Raw> by_mac;

  for (const auto& rec : corpus.records()) {
    ++corpus_addresses_;
    const auto mac = net::mac_from_eui64(rec.address);
    if (!mac) continue;
    ++eui64_addresses_;
    Raw& raw = by_mac[*mac];
    TimelinePoint point;
    point.first_seen = rec.first_seen;
    point.slash64_hi = rec.address.hi64();
    if (const auto as_index = world.as_index_of(rec.address)) {
      point.asn = world.ases()[*as_index].asn;
      point.country = world.country_of_as(*as_index);
    }
    raw.points.push_back(point);
    raw.first = std::min(raw.first, rec.first_seen);
    raw.last = std::max(raw.last, rec.last_seen);
  }

  tracks_.reserve(by_mac.size());
  ranges_.reserve(by_mac.size());
  for (auto& [mac, raw] : by_mac) {
    std::sort(raw.points.begin(), raw.points.end(),
              [](const TimelinePoint& a, const TimelinePoint& b) {
                return a.first_seen < b.first_seen;
              });
    MacTrack track;
    track.mac = mac;
    track.first_seen = raw.first;
    track.last_seen = raw.last;

    std::unordered_set<std::uint64_t> slash64s;
    std::unordered_set<sim::Asn> asns;
    std::unordered_set<std::uint16_t> countries;
    std::uint64_t prev64 = 0;
    bool have_prev = false;
    for (const auto& p : raw.points) {
      slash64s.insert(p.slash64_hi);
      if (p.asn != 0) asns.insert(p.asn);
      if (p.country.valid()) countries.insert(p.country.value());
      if (have_prev && p.slash64_hi != prev64) ++track.transitions;
      prev64 = p.slash64_hi;
      have_prev = true;
    }
    track.slash64s = static_cast<std::uint32_t>(slash64s.size());
    track.ases = static_cast<std::uint32_t>(asns.size());
    track.countries = static_cast<std::uint32_t>(countries.size());

    const std::size_t begin = sightings_.size();
    sightings_.insert(sightings_.end(), raw.points.begin(), raw.points.end());
    ranges_.emplace_back(begin, sightings_.size());
    tracks_.push_back(track);
  }
}

TrackingClass Eui64Tracker::classify(const MacTrack& track) noexcept {
  if (track.slash64s < 2) return TrackingClass::kNotTrackable;
  const bool high_as = track.ases > 1;
  const bool high_country = track.countries > 1;
  const bool high_transitions = track.transitions > 10;
  if (high_country) return TrackingClass::kMacReuse;
  if (high_as) {
    return high_transitions ? TrackingClass::kUserMovement
                            : TrackingClass::kChangingProviders;
  }
  if (high_transitions) return TrackingClass::kPrefixReassignment;
  return TrackingClass::kMostlyStatic;
}

std::uint64_t Eui64Tracker::trackable_macs() const {
  std::uint64_t n = 0;
  for (const auto& t : tracks_) {
    if (t.slash64s >= 2) ++n;
  }
  return n;
}

std::vector<std::pair<TrackingClass, std::uint64_t>>
Eui64Tracker::class_counts() const {
  std::array<std::uint64_t, 6> counts{};
  for (const auto& t : tracks_) {
    counts[static_cast<std::size_t>(classify(t))]++;
  }
  std::vector<std::pair<TrackingClass, std::uint64_t>> out;
  for (std::size_t i = 1; i < counts.size(); ++i) {  // skip kNotTrackable
    out.emplace_back(static_cast<TrackingClass>(i), counts[i]);
  }
  return out;
}

util::EmpiricalDistribution Eui64Tracker::lifetime_distribution() const {
  std::vector<double> samples;
  samples.reserve(tracks_.size());
  for (const auto& t : tracks_) {
    samples.push_back(static_cast<double>(t.lifetime()));
  }
  return util::EmpiricalDistribution(std::move(samples));
}

std::vector<std::pair<std::uint32_t, double>> Eui64Tracker::slash64_ccdf(
    std::span<const std::uint32_t> points) const {
  std::vector<std::pair<std::uint32_t, double>> out;
  if (tracks_.empty()) return out;
  for (const auto n : points) {
    std::uint64_t more = 0;
    for (const auto& t : tracks_) {
      if (t.slash64s > n) ++more;
    }
    out.emplace_back(n, static_cast<double>(more) /
                            static_cast<double>(tracks_.size()));
  }
  return out;
}

std::vector<TimelinePoint> Eui64Tracker::timeline(
    const net::MacAddress& mac) const {
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i].mac == mac) {
      const auto [begin, end] = ranges_[i];
      return {sightings_.begin() + static_cast<std::ptrdiff_t>(begin),
              sightings_.begin() + static_cast<std::ptrdiff_t>(end)};
    }
  }
  return {};
}

std::vector<std::pair<TrackingClass, net::MacAddress>>
Eui64Tracker::exemplars() const {
  // Pick, per class, the trackable MAC with the most sightings — the
  // richest timeline to plot.
  std::array<std::optional<std::size_t>, 6> best;
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    const auto cls = static_cast<std::size_t>(classify(tracks_[i]));
    if (cls == 0) continue;
    const std::size_t n = ranges_[i].second - ranges_[i].first;
    if (!best[cls] ||
        n > ranges_[*best[cls]].second - ranges_[*best[cls]].first) {
      best[cls] = i;
    }
  }
  std::vector<std::pair<TrackingClass, net::MacAddress>> out;
  for (std::size_t cls = 1; cls < best.size(); ++cls) {
    if (best[cls]) {
      out.emplace_back(static_cast<TrackingClass>(cls),
                       tracks_[*best[cls]].mac);
    }
  }
  return out;
}

}  // namespace v6::analysis
