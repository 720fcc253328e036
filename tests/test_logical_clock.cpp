#include <gtest/gtest.h>

#include "clocks/logical_clock.h"

namespace stclock {
namespace {

TEST(LogicalClock, MirrorsHardwareInitially) {
  HardwareClock hw(3.0, 1.5);
  LogicalClock clock(hw);
  EXPECT_DOUBLE_EQ(clock.read(0.0), 3.0);
  EXPECT_DOUBLE_EQ(clock.read(2.0), 6.0);
  EXPECT_DOUBLE_EQ(clock.rate_at(1.0), 1.5);
}

TEST(LogicalClock, InstantForwardAdjustment) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_instant(/*h_now=*/5.0, /*delta=*/2.0);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(5.0), 7.0);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(6.0), 8.0);
  // Before the adjustment the old mapping holds.
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(4.0), 4.0);
}

TEST(LogicalClock, InstantBackwardAdjustment) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_instant(5.0, -1.0);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(5.0), 4.0);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(7.0), 6.0);
}

TEST(LogicalClock, StackedAdjustments) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_instant(1.0, 0.5);
  clock.adjust_instant(2.0, 0.25);
  clock.adjust_instant(3.0, -0.125);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(4.0), 4.0 + 0.5 + 0.25 - 0.125);
  EXPECT_DOUBLE_EQ(clock.total_adjustment(), 0.625);
  EXPECT_EQ(clock.adjustment_count(), 3u);
  EXPECT_DOUBLE_EQ(clock.max_abs_adjustment(), 0.5);
}

TEST(LogicalClock, AdjustmentsMustMoveForward) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_instant(5.0, 1.0);
  EXPECT_THROW(clock.adjust_instant(4.0, 1.0), std::logic_error);
}

TEST(LogicalClock, AmortizedAdjustmentRampsLinearly) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_amortized(/*h_now=*/10.0, /*delta=*/1.0, /*window=*/2.0);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(10.0), 10.0);
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(11.0), 11.5);  // halfway through ramp
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(12.0), 13.0);  // ramp complete
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(13.0), 14.0);  // back to slope 1
}

TEST(LogicalClock, AmortizedBackwardStaysMonotone) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_amortized(0.0, -0.5, 2.0);  // slope 0.75 during ramp
  double prev = clock.read_at_hardware(0.0);
  for (double h = 0.05; h <= 4.0; h += 0.05) {
    const double cur = clock.read_at_hardware(h);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(clock.read_at_hardware(2.0), 1.5);
}

TEST(LogicalClock, AmortizedTooNegativeThrows) {
  HardwareClock hw;
  LogicalClock clock(hw);
  EXPECT_THROW(clock.adjust_amortized(0.0, -2.0, 2.0), std::logic_error);
  EXPECT_THROW(clock.adjust_amortized(0.0, 1.0, 0.0), std::logic_error);
}

TEST(LogicalClock, WhenReadsNoAdjustment) {
  HardwareClock hw(0.0, 2.0);  // local runs twice as fast
  LogicalClock clock(hw);
  // Logical reads 10 when hardware reads 10, i.e. real time 5.
  EXPECT_NEAR(clock.when_reads(0.0, 10.0), 5.0, 1e-12);
}

TEST(LogicalClock, WhenReadsTargetAlreadyPassed) {
  HardwareClock hw;
  LogicalClock clock(hw);
  EXPECT_DOUBLE_EQ(clock.when_reads(7.0, 3.0), 7.0);  // fire immediately
}

TEST(LogicalClock, WhenReadsAfterForwardJump) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_instant(2.0, 5.0);  // at h=2 the clock jumps from 2 to 7
  // Target 6 is inside the jump: first reached exactly at the jump (h=2).
  EXPECT_NEAR(clock.when_reads(0.0, 6.0), 2.0, 1e-12);
  // Target 9 is after the jump: 9 = 7 + (h-2) -> h = 4.
  EXPECT_NEAR(clock.when_reads(0.0, 9.0), 4.0, 1e-12);
}

TEST(LogicalClock, WhenReadsAfterBackwardJump) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_instant(2.0, -1.0);  // at h=2 the clock drops from 2 to 1
  // Queried from "now" = 2 (just after the drop), target 1.5: the clock
  // re-covers the interval; 1.5 = 1 + (h-2) -> h = 2.5.
  EXPECT_NEAR(clock.when_reads(2.0, 1.5), 2.5, 1e-12);
}

TEST(LogicalClock, WhenReadsDuringAmortizedRamp) {
  HardwareClock hw;
  LogicalClock clock(hw);
  clock.adjust_amortized(0.0, 1.0, 2.0);  // slope 1.5 on h in [0,2]
  // Logical 1.5 reached at h = 1.0.
  EXPECT_NEAR(clock.when_reads(0.0, 1.5), 1.0, 1e-12);
  // Logical 4 reached after the ramp: value(2)=3, slope 1 -> h=3.
  EXPECT_NEAR(clock.when_reads(0.0, 4.0), 3.0, 1e-12);
}

TEST(LogicalClock, WhenReadsComposesWithHardwareDrift) {
  HardwareClock hw(0.0, 0.5);  // slow hardware
  LogicalClock clock(hw);
  clock.adjust_instant(1.0, 2.0);  // at h=1 (real t=2) logical jumps to 3
  // Target logical 5: 5 = 3 + (h-1) -> h=3 -> real t = 6.
  EXPECT_NEAR(clock.when_reads(2.0, 5.0), 6.0, 1e-12);
}

TEST(LogicalClock, RateCombinesHardwareAndRamp) {
  HardwareClock hw(0.0, 2.0);
  LogicalClock clock(hw);
  clock.adjust_amortized(0.0, 2.0, 4.0);  // dL/dh = 1.5 during ramp
  EXPECT_DOUBLE_EQ(clock.rate_at(0.5), 3.0);  // 1.5 * 2.0
  EXPECT_DOUBLE_EQ(clock.rate_at(3.0), 2.0);  // ramp over (h=6 > 4? no: h=2*3=6 > 4) -> slope 1
}

TEST(LogicalClock, ReadBeforeStartThrows) {
  HardwareClock hw(5.0, 1.0);
  LogicalClock clock(hw);
  EXPECT_THROW((void)clock.read_at_hardware(4.0), std::logic_error);
}

TEST(LogicalClock, SlopeRangeCoversEveryPieceEverAdded) {
  HardwareClock hw(0.0, 1.0);
  LogicalClock clock(hw);
  EXPECT_EQ(clock.min_slope(), 1.0);
  EXPECT_EQ(clock.max_slope(), 1.0);
  clock.adjust_instant(1.0, 0.5);  // jumps keep the slope
  EXPECT_EQ(clock.max_slope(), 1.0);
  clock.adjust_amortized(2.0, -0.5, 2.0);  // slope 0.75 on the ramp
  EXPECT_EQ(clock.min_slope(), 0.75);
  clock.adjust_override(2.5, 1.0);  // drops the scheduled ramp end, slope 1
  clock.adjust_amortized(3.0, 1.0, 2.0);  // slope 1.5 on the ramp
  EXPECT_EQ(clock.min_slope(), 0.75);
  EXPECT_EQ(clock.max_slope(), 1.5);
}

/// A logical clock, its hardware clock, and an identical untrimmed twin
/// that receives the same adjustments.
struct TrimPair {
  HardwareClock hw{0.5, 1.0};
  HardwareClock twin_hw{0.5, 1.0};
  LogicalClock clock{hw};
  LogicalClock twin{twin_hw};

  TrimPair() {
    for (int k = 1; k <= 20; ++k) {
      hw.set_rate_from(1.0 * k, k % 2 == 0 ? 0.99 : 1.01);
      twin_hw.set_rate_from(1.0 * k, k % 2 == 0 ? 0.99 : 1.01);
    }
  }

  /// Trims the pair's clocks at real time t, as the simulator does.
  void forget_before(RealTime t) {
    hw.forget_before(t);
    clock.forget_before(t);
  }

  void expect_equal_from(RealTime from, RealTime until) const {
    for (RealTime t = from; t <= until; t += (until - from) / 61) {
      ASSERT_EQ(clock.read(t), twin.read(t)) << "t = " << t;
      ASSERT_EQ(clock.rate_at(t), twin.rate_at(t)) << "t = " << t;
      const LocalTime target = twin.read(t) + 0.3;
      ASSERT_EQ(clock.when_reads(from, target), twin.when_reads(from, target)) << "t = " << t;
    }
  }
};

TEST(LogicalClock, TrimFloorKeepsLaterReadsBitIdentical) {
  TrimPair p;
  for (LogicalClock* c : {&p.clock, &p.twin}) {
    c->adjust_instant(c->hardware().read(1.5), 0.25);
    c->adjust_instant(c->hardware().read(2.5), -0.1);
    c->adjust_amortized(c->hardware().read(3.0), 0.4, 2.0);
  }
  const LocalTime initial = p.clock.hardware().initial_value();
  // Floors before, inside and after the amortized ramp (real time 3 to ~5).
  for (const RealTime floor : {1.0, 2.7, 3.5, 4.2, 4.2, 6.0}) {
    p.forget_before(floor);
    p.expect_equal_from(floor, 12.0);
    EXPECT_EQ(p.clock.hardware().initial_value(), initial);
  }
  EXPECT_THROW((void)p.clock.read(5.9), std::logic_error);
  EXPECT_THROW((void)p.clock.read_at_hardware(p.twin_hw.read(5.9)), std::logic_error);
  EXPECT_EQ(p.clock.total_adjustment(), p.twin.total_adjustment());
  EXPECT_EQ(p.clock.adjustment_count(), p.twin.adjustment_count());
  EXPECT_EQ(p.clock.min_slope(), p.twin.min_slope());
  EXPECT_EQ(p.clock.max_slope(), p.twin.max_slope());
}

TEST(LogicalClock, RampAndOverrideAcrossTheTrimFloor) {
  TrimPair p;
  for (LogicalClock* c : {&p.clock, &p.twin}) {
    c->adjust_amortized(c->hardware().read(2.0), -0.3, 3.0);
  }
  // The floor lands mid-ramp; the ramp keeps running on the trimmed clock.
  p.forget_before(3.0);
  p.expect_equal_from(3.0, 9.0);
  // An override mid-ramp drops the rest of the ramp on both clocks alike.
  for (LogicalClock* c : {&p.clock, &p.twin}) {
    c->adjust_override(c->hardware().read(4.0), 0.7);
  }
  p.expect_equal_from(4.0, 12.0);
  // A fresh ramp and an instant correction after it, across another floor.
  for (LogicalClock* c : {&p.clock, &p.twin}) {
    c->adjust_amortized(c->hardware().read(6.0), 0.2, 1.5);
  }
  p.forget_before(6.5);
  p.expect_equal_from(6.5, 14.0);
  for (LogicalClock* c : {&p.clock, &p.twin}) {
    c->adjust_instant(c->hardware().read(9.0), -0.05);
  }
  p.forget_before(9.0);
  p.expect_equal_from(9.0, 18.0);
  // An override may not reach behind the floor.
  EXPECT_THROW(p.clock.adjust_override(p.twin_hw.read(8.0), 0.1), std::logic_error);
}

}  // namespace
}  // namespace stclock
