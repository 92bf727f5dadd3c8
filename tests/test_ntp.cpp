#include <gtest/gtest.h>

#include "ntp/client_schedule.h"
#include "ntp_wire_reference.h"

namespace v6::ntp {
namespace {

// The vantage server of the NTP wire reference (ntp_wire_reference.h).

sim::VantagePoint test_vantage() {
  sim::VantagePoint v;
  v.id = 3;
  v.country = *geo::CountryCode::parse("DE");
  v.address = *net::Ipv6Address::parse("2a00:5::1");
  return v;
}

TEST(NtpServer, AnswersValidClientRequest) {
  const auto request = proto::make_client_request(5000, 0xfeed);
  const auto response_bytes = hitlist::wire_reference::ntp_serve(
      test_vantage(), request.encode(), 5000);
  ASSERT_TRUE(response_bytes);

  const auto response = proto::NtpPacket::decode(*response_bytes);
  ASSERT_TRUE(response);
  EXPECT_EQ(response->mode, proto::NtpMode::kServer);
  EXPECT_EQ(response->stratum, 2);  // stratum-2 vantage servers
  EXPECT_EQ(response->reference_id, 0x56500003u);
  EXPECT_EQ(response->origin_time, request.transmit_time);
}

TEST(NtpServer, IgnoresNonClientModes) {
  auto packet = proto::make_client_request(0, 0);
  packet.mode = proto::NtpMode::kServer;
  EXPECT_FALSE(
      hitlist::wire_reference::ntp_serve(test_vantage(), packet.encode(), 0));
}

TEST(NtpServer, IgnoresGarbagePayload) {
  const std::vector<std::uint8_t> garbage = {1, 2, 3};
  EXPECT_FALSE(hitlist::wire_reference::ntp_serve(test_vantage(), garbage, 0));
}

sim::Device pool_device(util::SimDuration interval, double online) {
  sim::Device dev;
  dev.seed = 4242;
  dev.ntp.uses_pool = true;
  dev.ntp.poll_interval = interval;
  dev.ntp.online_fraction = online;
  return dev;
}

TEST(ClientSchedule, RespectsWindow) {
  const auto dev = pool_device(util::kHour, 1.0);
  ClientSchedule schedule(dev, 1000, 1000 + util::kDay);
  schedule.for_each([&](util::SimTime t) {
    EXPECT_GE(t, 1000);
    EXPECT_LT(t, 1000 + util::kDay);
  });
}

TEST(ClientSchedule, CountMatchesEnumeration) {
  const auto dev = pool_device(util::kHour, 0.7);
  ClientSchedule schedule(dev, 0, util::kWeek);
  std::uint64_t n = 0;
  schedule.for_each([&](util::SimTime) { ++n; });
  EXPECT_EQ(n, schedule.count());
}

TEST(ClientSchedule, PollRateTracksInterval) {
  const auto dev = pool_device(6 * util::kHour, 1.0);
  ClientSchedule schedule(dev, 0, 30 * util::kDay);
  // ~4 polls/day with +-50% jitter around the interval.
  EXPECT_NEAR(static_cast<double>(schedule.count()), 120.0, 30.0);
}

TEST(ClientSchedule, OnlineFractionScalesPolls) {
  const auto full = pool_device(util::kHour, 1.0);
  const auto half = pool_device(util::kHour, 0.5);
  const auto n_full = ClientSchedule(full, 0, util::kWeek).count();
  const auto n_half = ClientSchedule(half, 0, util::kWeek).count();
  EXPECT_NEAR(static_cast<double>(n_half) / static_cast<double>(n_full), 0.5,
              0.1);
}

TEST(ClientSchedule, NonPoolDeviceNeverPolls) {
  auto dev = pool_device(util::kHour, 1.0);
  dev.ntp.uses_pool = false;
  EXPECT_EQ(ClientSchedule(dev, 0, util::kWeek).count(), 0u);
}

TEST(ClientSchedule, DeterministicPerDevice) {
  const auto dev = pool_device(3 * util::kHour, 0.8);
  std::vector<util::SimTime> a, b;
  ClientSchedule(dev, 0, util::kWeek).for_each([&](util::SimTime t) {
    a.push_back(t);
  });
  ClientSchedule(dev, 0, util::kWeek).for_each([&](util::SimTime t) {
    b.push_back(t);
  });
  EXPECT_EQ(a, b);
}

TEST(ClientSchedule, ClampsToDeviceActivityWindow) {
  auto dev = pool_device(util::kHour, 1.0);
  dev.active_start = 2 * util::kDay;
  dev.active_end = 3 * util::kDay;
  ClientSchedule schedule(dev, 0, util::kWeek);
  std::uint64_t n = 0;
  schedule.for_each([&](util::SimTime t) {
    EXPECT_GE(t, 2 * util::kDay);
    EXPECT_LT(t, 3 * util::kDay);
    ++n;
  });
  EXPECT_GT(n, 10u);   // roughly one poll per hour for a day
  EXPECT_LT(n, 40u);
}

TEST(ClientSchedule, DeadDeviceNeverPolls) {
  auto dev = pool_device(util::kHour, 1.0);
  dev.active_start = 0;
  dev.active_end = util::kDay;
  // Window entirely after the device retired.
  EXPECT_EQ(ClientSchedule(dev, 2 * util::kDay, util::kWeek).count(), 0u);
}

TEST(ClientSchedule, DifferentSeedsDifferentPhases) {
  auto a = pool_device(util::kHour, 1.0);
  auto b = pool_device(util::kHour, 1.0);
  b.seed = 4243;
  std::vector<util::SimTime> ta, tb;
  ClientSchedule(a, 0, util::kDay).for_each([&](util::SimTime t) {
    ta.push_back(t);
  });
  ClientSchedule(b, 0, util::kDay).for_each([&](util::SimTime t) {
    tb.push_back(t);
  });
  EXPECT_NE(ta, tb);
}

}  // namespace
}  // namespace v6::ntp
