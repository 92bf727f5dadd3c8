#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "geo/bssid_db.h"
#include "geo/country.h"
#include "geo/geodb.h"
#include "geo/location.h"
#include "util/rng.h"

namespace v6::geo {
namespace {

TEST(CountryCode, ParseNormalizesCase) {
  const auto a = CountryCode::parse("de");
  const auto b = CountryCode::parse("DE");
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(a->to_string(), "DE");
}

TEST(CountryCode, ParseRejectsJunk) {
  EXPECT_FALSE(CountryCode::parse(""));
  EXPECT_FALSE(CountryCode::parse("D"));
  EXPECT_FALSE(CountryCode::parse("DEU"));
  EXPECT_FALSE(CountryCode::parse("1A"));
}

TEST(CountryCode, DefaultIsInvalid) {
  CountryCode c;
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(c.to_string(), "??");
}

TEST(CountryRegistry, PaperCountriesPresent) {
  for (const char* code : {"IN", "CN", "US", "BR", "ID", "DE", "JP", "LU"}) {
    const auto parsed = CountryCode::parse(code);
    ASSERT_TRUE(parsed);
    EXPECT_NE(find_country(*parsed), nullptr) << code;
  }
}

TEST(CountryRegistry, WeightsDescendAndTopFiveDominate) {
  const auto all = all_countries();
  double total = 0.0, top5 = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(all[i].client_weight, all[i - 1].client_weight);
    }
    total += all[i].client_weight;
    if (i < 5) top5 += all[i].client_weight;
  }
  // §3: IN+CN+US+BR+ID = 76% of the corpus.
  EXPECT_NEAR(top5 / total, 0.76, 0.03);
}

TEST(NearestCountry, CentroidsMapToThemselves) {
  for (const auto& info : all_countries()) {
    EXPECT_EQ(nearest_country(info.latitude, info.longitude), info.code)
        << info.name;
  }
}

TEST(Distance, KnownCityPair) {
  // Berlin (52.52, 13.40) to Paris (48.86, 2.35) is ~878 km.
  const double d = distance_km({52.52, 13.40}, {48.86, 2.35});
  EXPECT_NEAR(d, 878.0, 15.0);
}

TEST(Distance, ZeroForIdenticalPoints) {
  EXPECT_DOUBLE_EQ(distance_km({10, 20}, {10, 20}), 0.0);
}

TEST(GeoDatabase, LongestPrefixMatchWins) {
  GeoDatabase db;
  const auto p32 = *net::Ipv6Prefix::parse("2001:db8::/32");
  const auto p48 = *net::Ipv6Prefix::parse("2001:db8:1::/48");
  db.add(p32, *CountryCode::parse("US"));
  db.add(p48, *CountryCode::parse("DE"));
  EXPECT_EQ(db.lookup(*net::Ipv6Address::parse("2001:db8:1::5"))->to_string(),
            "DE");
  EXPECT_EQ(db.lookup(*net::Ipv6Address::parse("2001:db8:2::5"))->to_string(),
            "US");
  EXPECT_FALSE(db.lookup(*net::Ipv6Address::parse("2002::1")));
}

TEST(GeoDatabase, OverwriteReplaces) {
  GeoDatabase db;
  const auto p = *net::Ipv6Prefix::parse("2001:db8::/32");
  db.add(p, *CountryCode::parse("US"));
  db.add(p, *CountryCode::parse("JP"));
  EXPECT_EQ(db.lookup(*net::Ipv6Address::parse("2001:db8::1"))->to_string(),
            "JP");
  EXPECT_EQ(db.size(), 1u);
}

TEST(GeoDatabase, LookupMatchesBruteForceLongestPrefix) {
  // Random nested entries at mixed lengths (always including /0, /32, /48
  // and /64 in the pool), with overwrites, checked against a scan of
  // every entry for the longest one containing the address.
  const CountryCode codes[] = {*CountryCode::parse("US"),
                               *CountryCode::parse("DE"),
                               *CountryCode::parse("JP"),
                               *CountryCode::parse("BR")};
  const int lengths[] = {0, 32, 48, 64, 16, 40, 56, 63, 1};
  util::Rng rng(404);
  for (int trial = 0; trial < 40; ++trial) {
    GeoDatabase db;
    // (hi64 of prefix, length) -> country, the last add winning.
    std::map<std::pair<std::uint64_t, int>, CountryCode> reference;
    std::uint64_t bases[4];
    for (auto& base : bases) base = rng.next();
    const int entries = 1 + static_cast<int>(rng.bounded(60));
    for (int i = 0; i < entries; ++i) {
      // Every third trial leaves /0 out, so misses stay reachable.
      int length = rng.chance(0.5)
                       ? lengths[rng.bounded(std::size(lengths))]
                       : static_cast<int>(rng.bounded(65));
      if (trial % 3 == 0 && length == 0) length = 32;
      const std::uint64_t hi = bases[rng.bounded(std::size(bases))];
      const net::Ipv6Prefix prefix(net::Ipv6Address::from_u64(hi, 0), length);
      const CountryCode code = codes[rng.bounded(std::size(codes))];
      db.add(prefix, code);
      reference[{prefix.address().hi64(), length}] = code;
    }
    ASSERT_EQ(db.size(), reference.size());
    for (int q = 0; q < 400; ++q) {
      // Near a base (a random low bit range flipped) or anywhere.
      std::uint64_t hi = rng.next();
      if (rng.chance(0.8)) {
        const int keep = static_cast<int>(rng.bounded(65));
        const std::uint64_t noise =
            keep == 64 ? 0 : (rng.next() >> keep);
        hi = bases[rng.bounded(std::size(bases))] ^ noise;
      }
      const net::Ipv6Address address = net::Ipv6Address::from_u64(hi, rng.next());
      std::optional<CountryCode> expected;
      int best = -1;
      for (const auto& [key, code] : reference) {
        const net::Ipv6Prefix prefix(net::Ipv6Address::from_u64(key.first, 0),
                                     key.second);
        if (key.second > best && prefix.contains(address)) {
          best = key.second;
          expected = code;
        }
      }
      ASSERT_EQ(db.lookup(address), expected)
          << "trial " << trial << " address " << address.to_string();
    }
  }
}

TEST(GeoDatabase, RejectsOverlongPrefixes) {
  GeoDatabase db;
  EXPECT_THROW(db.add(*net::Ipv6Prefix::parse("2001:db8::/96"),
                      *CountryCode::parse("US")),
               std::invalid_argument);
}

TEST(BssidLocationDb, AddLookup) {
  BssidLocationDb db;
  const auto bssid = *net::MacAddress::parse("3c:a6:2f:00:00:01");
  db.add(bssid, {52.5, 13.4});
  const auto loc = db.lookup(bssid);
  ASSERT_TRUE(loc);
  EXPECT_DOUBLE_EQ(loc->latitude, 52.5);
  EXPECT_FALSE(db.lookup(*net::MacAddress::parse("3c:a6:2f:00:00:02")));
}

TEST(BssidLocationDb, GroupsByOui) {
  BssidLocationDb db;
  db.add(*net::MacAddress::parse("3c:a6:2f:00:00:01"), {1, 1});
  db.add(*net::MacAddress::parse("3c:a6:2f:00:00:02"), {2, 2});
  db.add(*net::MacAddress::parse("aa:bb:cc:00:00:01"), {3, 3});
  EXPECT_EQ(db.bssids_in_oui(net::Oui(0x3ca62f)).size(), 2u);
  EXPECT_EQ(db.bssids_in_oui(net::Oui(0xaabbcc)).size(), 1u);
  EXPECT_TRUE(db.bssids_in_oui(net::Oui(0x111111)).empty());
}

TEST(BssidLocationDb, DuplicateAddUpdatesInPlace) {
  BssidLocationDb db;
  const auto bssid = *net::MacAddress::parse("3c:a6:2f:00:00:01");
  db.add(bssid, {1, 1});
  db.add(bssid, {9, 9});
  EXPECT_EQ(db.size(), 1u);
  EXPECT_DOUBLE_EQ(db.lookup(bssid)->latitude, 9);
  EXPECT_EQ(db.bssids_in_oui(net::Oui(0x3ca62f)).size(), 1u);
}

}  // namespace
}  // namespace v6::geo
