#include "geo/geodb.h"

#include <bit>
#include <stdexcept>

namespace v6::geo {

void GeoDatabase::add(const net::Ipv6Prefix& prefix, CountryCode country) {
  if (prefix.length() > 64) {
    throw std::invalid_argument("GeoDatabase prefixes must be <= /64");
  }
  entries_[{prefix.address().hi64(), prefix.length()}] = country;
  if (prefix.length() == 0) {
    has_default_ = true;
  } else {
    lengths_ |= std::uint64_t{1} << (prefix.length() - 1);
  }
}

std::optional<CountryCode> GeoDatabase::lookup(
    const net::Ipv6Address& address) const {
  const std::uint64_t hi = address.hi64();
  // Registered lengths from most to least specific. Entry count per
  // address is small (ASes register /32 and sites /48-/64), so probing
  // each registered length is cheaper than a trie for our sizes.
  for (std::uint64_t pending = lengths_; pending != 0;) {
    const int length = 64 - std::countl_zero(pending);
    pending &= ~(std::uint64_t{1} << (length - 1));
    const std::uint64_t mask = ~std::uint64_t{0} << (64 - length);
    const auto it = entries_.find({hi & mask, length});
    if (it != entries_.end()) return it->second;
  }
  if (has_default_) return entries_.at({0, 0});
  return std::nullopt;
}

}  // namespace v6::geo
