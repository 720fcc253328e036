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

}  // namespace
}  // namespace stclock
