// Prefix -> country IP geolocation database (our MaxMind GeoLite2 stand-in).
//
// The real study used MaxMind only for country-level aggregation, so the
// database maps IPv6 prefixes to country codes with longest-prefix-match
// lookup. A configurable error rate lets experiments model MaxMind's
// imperfect accuracy: a "wrong" entry resolves to a different country than
// the ground truth it was built from.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "geo/country.h"
#include "net/prefix.h"

namespace v6::geo {

class GeoDatabase {
 public:
  // Registers a prefix->country mapping; later insertions overwrite.
  void add(const net::Ipv6Prefix& prefix, CountryCode country);

  // Longest-prefix match on the registered entries. Probes one map entry
  // per prefix length that add() has seen, most specific first, so a
  // database of /32s alone costs one find per lookup.
  std::optional<CountryCode> lookup(const net::Ipv6Address& address) const;

  std::size_t size() const noexcept { return entries_.size(); }

 private:
  // Keyed by (hi64 of prefix address, prefix length); we only ever register
  // prefixes of length <= 64, which the add() precondition enforces.
  std::map<std::pair<std::uint64_t, int>, CountryCode> entries_;
  // Registered lengths: bit (length - 1) for /1../64, plus the /0 flag.
  std::uint64_t lengths_ = 0;
  bool has_default_ = false;
};

}  // namespace v6::geo
