#include "netsim/fault_schedule.h"

#include <gtest/gtest.h>

#include "sim/world.h"
#include "util/sim_time.h"

namespace v6::netsim {
namespace {

class FaultScheduleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::WorldConfig config;
    config.seed = 33;
    config.total_sites = 200;
    world_ = new sim::World(sim::World::generate(config));
  }
  static void TearDownTestSuite() { delete world_; }

  static sim::World* world_;
};

sim::World* FaultScheduleTest::world_ = nullptr;

TEST_F(FaultScheduleTest, EmptyPlanNeverFaults) {
  const FaultSchedule faults(world_->vantages());
  for (const auto& v : world_->vantages()) {
    EXPECT_FALSE(faults.in_outage(v.id, 0));
    EXPECT_FALSE(faults.in_outage(v.id, 1'000'000));
    EXPECT_TRUE(faults.delivers(v.id, v.address, 500));
    EXPECT_FALSE(faults.marked_down(v.id, 500, 600));
    EXPECT_TRUE(faults.windows(v.id).empty());
  }
}

TEST_F(FaultScheduleTest, GeneratedPlanIsDeterministicAndWellFormed) {
  FaultPlanConfig plan;
  plan.seed = 99;
  plan.outages_per_vantage = 2.5;
  plan.flaps_per_vantage = 4.0;
  const util::SimTime start = 0;
  const util::SimTime end = 30 * util::kDay;

  const FaultSchedule a(world_->vantages(), plan, start, end);
  const FaultSchedule b(world_->vantages(), plan, start, end);

  std::size_t total_windows = 0;
  for (const auto& v : world_->vantages()) {
    const auto wa = a.windows(v.id);
    const auto wb = b.windows(v.id);
    ASSERT_EQ(wa.size(), wb.size());
    total_windows += wa.size();
    util::SimTime prev_end = start;
    for (std::size_t i = 0; i < wa.size(); ++i) {
      EXPECT_EQ(wa[i].start, wb[i].start);
      EXPECT_EQ(wa[i].end, wb[i].end);
      // Sorted, disjoint, non-empty, inside the plan window.
      EXPECT_LT(wa[i].start, wa[i].end);
      EXPECT_GE(wa[i].start, prev_end);
      EXPECT_LE(wa[i].end, end);
      prev_end = wa[i].end;
    }
  }
  // ~6.5 expected windows per vantage before merging; some must survive.
  EXPECT_GT(total_windows, world_->vantages().size());

  // A different seed reshuffles the plan.
  plan.seed = 100;
  const FaultSchedule c(world_->vantages(), plan, start, end);
  bool any_difference = false;
  for (const auto& v : world_->vantages()) {
    const auto wa = a.windows(v.id);
    const auto wc = c.windows(v.id);
    if (wa.size() != wc.size()) {
      any_difference = true;
      break;
    }
    for (std::size_t i = 0; i < wa.size(); ++i) {
      if (wa[i].start != wc[i].start || wa[i].end != wc[i].end) {
        any_difference = true;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(FaultScheduleTest, OutageWindowsAreDarkAndHalfOpen) {
  FaultSchedule faults(world_->vantages());
  const auto& v = world_->vantages().front();
  faults.add_window(v.id, 1000, 2000);
  faults.add_window(v.id, 5000, 5001);

  EXPECT_FALSE(faults.in_outage(v.id, 999));
  EXPECT_TRUE(faults.in_outage(v.id, 1000));
  EXPECT_TRUE(faults.in_outage(v.id, 1999));
  EXPECT_FALSE(faults.in_outage(v.id, 2000));  // end is exclusive
  EXPECT_TRUE(faults.in_outage(v.id, 5000));
  EXPECT_FALSE(faults.in_outage(v.id, 5001));

  const auto client = world_->device_address(0, 0);
  EXPECT_TRUE(faults.delivers(v.id, client, 999));
  EXPECT_FALSE(faults.delivers(v.id, client, 1500));
  // No slow start on hand-built plans: recovery is instant.
  EXPECT_TRUE(faults.delivers(v.id, client, 2000));

  // Other vantages are untouched.
  const auto& other = world_->vantages().back();
  ASSERT_NE(other.id, v.id);
  EXPECT_FALSE(faults.in_outage(other.id, 1500));
  EXPECT_TRUE(faults.delivers(other.id, client, 1500));
}

TEST_F(FaultScheduleTest, SlowStartRampsDeliveryLinearly) {
  FaultPlanConfig plan;
  plan.seed = 7;
  plan.outages_per_vantage = 0.0;  // inject the window by hand
  plan.slow_start = 1000;
  FaultSchedule faults(world_->vantages(), plan, 0, 10 * util::kDay);
  const auto& v = world_->vantages().front();
  faults.add_window(v.id, 10'000, 20'000);

  // Sample many clients at three points on the ramp; delivery fractions
  // must grow roughly linearly and reach 100% after the ramp.
  const auto fraction_at = [&](util::SimTime t) {
    int delivered = 0;
    const int n = 400;
    for (int i = 0; i < n; ++i) {
      const auto src = net::Ipv6Address::from_u64(
          0x2001'0db8'0000'0000ull + static_cast<std::uint64_t>(i), i * 7 + 1);
      if (faults.delivers(v.id, src, t)) ++delivered;
    }
    return static_cast<double>(delivered) / n;
  };

  EXPECT_EQ(fraction_at(19'999), 0.0);  // still dark
  const double early = fraction_at(20'100);   // 10% into the ramp
  const double mid = fraction_at(20'500);     // 50%
  const double late = fraction_at(20'900);    // 90%
  EXPECT_NEAR(early, 0.10, 0.06);
  EXPECT_NEAR(mid, 0.50, 0.08);
  EXPECT_NEAR(late, 0.90, 0.06);
  EXPECT_EQ(fraction_at(21'000), 1.0);  // ramp over

  // The ramp decision is a pure function: repeated queries agree.
  const auto src = world_->device_address(3, 0);
  const bool first = faults.delivers(v.id, src, 20'500);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(faults.delivers(v.id, src, 20'500), first);
  }
}

TEST_F(FaultScheduleTest, MarkedDownLagsCrashAndRecovery) {
  FaultSchedule faults(world_->vantages());
  const auto& v = world_->vantages().front();
  faults.add_window(v.id, 1000, 5000);
  const util::SimDuration delay = 600;

  // The monitor hasn't noticed yet right after the crash...
  EXPECT_FALSE(faults.marked_down(v.id, 1000, delay));
  EXPECT_FALSE(faults.marked_down(v.id, 1599, delay));
  // ...notices after the detection delay...
  EXPECT_TRUE(faults.marked_down(v.id, 1600, delay));
  EXPECT_TRUE(faults.marked_down(v.id, 4999, delay));
  // ...and keeps the server out of steering until `delay` past recovery.
  EXPECT_TRUE(faults.marked_down(v.id, 5000, delay));
  EXPECT_TRUE(faults.marked_down(v.id, 5599, delay));
  EXPECT_FALSE(faults.marked_down(v.id, 5600, delay));
}

// --- WorkerFaultSchedule (distributed collection) --------------------------

TEST(WorkerFaultSchedule, EmptyPlanIsHealthy) {
  const WorkerFaultSchedule plan(8);
  EXPECT_EQ(plan.worker_count(), 8u);
  for (std::uint32_t w = 0; w < 8; ++w) {
    EXPECT_FALSE(plan.kill_at(w).has_value());
    EXPECT_FALSE(plan.stalled(w, 12345));
    EXPECT_EQ(plan.stall_end(w, 12345), 12345);
    EXPECT_DOUBLE_EQ(plan.cost_factor(w, 12345), 1.0);
  }
  // Out-of-range workers (respawned replacements) are fault-free.
  EXPECT_FALSE(plan.kill_at(200).has_value());
  EXPECT_FALSE(plan.stalled(200, 0));
  EXPECT_DOUBLE_EQ(plan.cost_factor(200, 0), 1.0);
}

TEST(WorkerFaultSchedule, TooManyWorkersRejected) {
  EXPECT_THROW(WorkerFaultSchedule(256), std::invalid_argument);
}

TEST(WorkerFaultSchedule, SeededPlanIsDeterministicAndInWindow) {
  WorkerFaultPlanConfig config;
  config.seed = 11;
  config.kills_per_worker = 0.6;
  config.stalls_per_worker = 2.0;
  config.slows_per_worker = 1.0;
  const util::SimTime start = util::kDay;
  const util::SimTime end = 60 * util::kDay;

  const WorkerFaultSchedule a(16, config, start, end);
  const WorkerFaultSchedule b(16, config, start, end);
  bool any_kill = false, any_stall = false;
  for (std::uint32_t w = 0; w < 16; ++w) {
    ASSERT_EQ(a.kill_at(w), b.kill_at(w)) << w;
    if (const auto kill = a.kill_at(w)) {
      any_kill = true;
      EXPECT_GE(*kill, start);
      EXPECT_LT(*kill, end);
    }
    for (util::SimTime t = start; t < end; t += util::kHour) {
      ASSERT_EQ(a.stalled(w, t), b.stalled(w, t)) << w << " " << t;
      ASSERT_EQ(a.cost_factor(w, t), b.cost_factor(w, t)) << w << " " << t;
      any_stall = any_stall || a.stalled(w, t);
      EXPECT_GE(a.cost_factor(w, t), 1.0);
    }
  }
  EXPECT_TRUE(any_kill);
  EXPECT_TRUE(any_stall);
}

TEST(WorkerFaultSchedule, InjectedFaultsAnswerQueries) {
  WorkerFaultSchedule plan(2);
  plan.set_kill(0, 5000);
  plan.add_stall(1, 100, 400);
  plan.add_slow(1, 600, 900, 3.0);

  EXPECT_EQ(plan.kill_at(0), std::optional<util::SimTime>(5000));
  EXPECT_FALSE(plan.kill_at(1).has_value());
  EXPECT_TRUE(plan.stalled(1, 250));
  EXPECT_FALSE(plan.stalled(0, 250));
  EXPECT_EQ(plan.stall_end(1, 250), 400);
  EXPECT_DOUBLE_EQ(plan.cost_factor(1, 700), 3.0);
  EXPECT_DOUBLE_EQ(plan.cost_factor(1, 950), 1.0);
}

}  // namespace
}  // namespace v6::netsim
