#include <gtest/gtest.h>

#include "clocks/drift_models.h"
#include "clocks/hardware_clock.h"

namespace stclock {
namespace {

TEST(HardwareClock, IdentityByDefault) {
  HardwareClock clock;
  EXPECT_DOUBLE_EQ(clock.read(0.0), 0.0);
  EXPECT_DOUBLE_EQ(clock.read(5.5), 5.5);
  EXPECT_DOUBLE_EQ(clock.rate_at(3.0), 1.0);
}

TEST(HardwareClock, InitialOffsetAndRate) {
  HardwareClock clock(10.0, 2.0);
  EXPECT_DOUBLE_EQ(clock.read(0.0), 10.0);
  EXPECT_DOUBLE_EQ(clock.read(3.0), 16.0);
}

TEST(HardwareClock, PiecewiseRates) {
  HardwareClock clock(0.0, 1.0);
  clock.set_rate_from(10.0, 2.0);
  clock.set_rate_from(20.0, 0.5);
  EXPECT_DOUBLE_EQ(clock.read(10.0), 10.0);
  EXPECT_DOUBLE_EQ(clock.read(15.0), 20.0);
  EXPECT_DOUBLE_EQ(clock.read(20.0), 30.0);
  EXPECT_DOUBLE_EQ(clock.read(24.0), 32.0);
  EXPECT_DOUBLE_EQ(clock.rate_at(12.0), 2.0);
  EXPECT_DOUBLE_EQ(clock.rate_at(25.0), 0.5);
}

TEST(HardwareClock, RateChangeAtSameInstantOverwrites) {
  HardwareClock clock(0.0, 1.0);
  clock.set_rate_from(5.0, 2.0);
  clock.set_rate_from(5.0, 3.0);  // replaces, does not stack
  EXPECT_DOUBLE_EQ(clock.read(6.0), 8.0);
}

TEST(HardwareClock, InverseRoundTrip) {
  HardwareClock clock(2.0, 1.5);
  clock.set_rate_from(4.0, 0.8);
  clock.set_rate_from(9.0, 1.2);
  for (double t : {0.0, 1.0, 3.999, 4.0, 7.3, 9.0, 15.0}) {
    EXPECT_NEAR(clock.when_reads(clock.read(t)), t, 1e-9) << "t = " << t;
  }
}

TEST(HardwareClock, InverseAcrossSegmentBoundary) {
  HardwareClock clock(0.0, 2.0);
  clock.set_rate_from(1.0, 0.5);  // local 2.0 at the boundary
  EXPECT_NEAR(clock.when_reads(2.0), 1.0, 1e-12);
  EXPECT_NEAR(clock.when_reads(2.5), 2.0, 1e-12);
}

TEST(HardwareClock, StrictlyMonotone) {
  HardwareClock clock(0.0, 0.9);
  clock.set_rate_from(2.0, 1.1);
  double prev = clock.read(0.0);
  for (double t = 0.01; t < 5.0; t += 0.01) {
    const double cur = clock.read(t);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST(HardwareClock, RejectsNonPositiveRate) {
  EXPECT_THROW(HardwareClock(0.0, 0.0), std::logic_error);
  HardwareClock clock;
  EXPECT_THROW(clock.set_rate_from(1.0, -1.0), std::logic_error);
}

TEST(HardwareClock, RejectsOutOfOrderSegments) {
  HardwareClock clock;
  clock.set_rate_from(5.0, 1.1);
  EXPECT_THROW(clock.set_rate_from(4.0, 1.0), std::logic_error);
}

TEST(HardwareClock, RejectsNegativeTime) {
  HardwareClock clock;
  EXPECT_THROW((void)clock.read(-0.1), std::logic_error);
}

TEST(HardwareClock, WhenReadsBeforeStartThrows) {
  HardwareClock clock(5.0, 1.0);
  EXPECT_THROW((void)clock.when_reads(4.9), std::logic_error);
}

TEST(HardwareClock, DriftBoundCheck) {
  const double rho = 0.01;
  HardwareClock ok(0.0, 1.0 + rho);
  ok.set_rate_from(1.0, 1.0 / (1.0 + rho));
  EXPECT_TRUE(ok.respects_drift_bound(rho));
  EXPECT_FALSE(ok.respects_drift_bound(0.001));

  HardwareClock fast(0.0, 1.02);
  EXPECT_FALSE(fast.respects_drift_bound(0.01));
}

TEST(HardwareClock, RateRangeCoversEverySegment) {
  HardwareClock clock(0.0, 1.0);
  EXPECT_EQ(clock.min_rate(), 1.0);
  EXPECT_EQ(clock.max_rate(), 1.0);
  clock.set_rate_from(1.0, 1.3);
  clock.set_rate_from(2.0, 0.8);
  EXPECT_EQ(clock.min_rate(), 0.8);
  EXPECT_EQ(clock.max_rate(), 1.3);
  clock.set_rate_from(2.0, 1.1);  // replaces 0.8; the bounds stay valid
  EXPECT_EQ(clock.min_rate(), 0.8);
  EXPECT_EQ(clock.max_rate(), 1.3);
}

/// Checks a trimmed clock against its untrimmed twin at and after `floor`.
void expect_matches_after(const HardwareClock& trimmed, const HardwareClock& twin,
                          RealTime floor, RealTime until) {
  for (RealTime t = floor; t <= until; t += (until - floor) / 97) {
    ASSERT_EQ(trimmed.read(t), twin.read(t)) << "t = " << t;
    ASSERT_EQ(trimmed.rate_at(t), twin.rate_at(t)) << "t = " << t;
    ASSERT_EQ(trimmed.when_reads(twin.read(t)), twin.when_reads(twin.read(t))) << "t = " << t;
  }
  ASSERT_EQ(trimmed.read(floor), twin.read(floor));
  ASSERT_EQ(trimmed.when_reads(twin.read(floor)), twin.when_reads(twin.read(floor)));
}

TEST(HardwareClock, TrimFloorKeepsLaterReadsBitIdentical) {
  HardwareClock twin(2.0, 1.5);
  for (int k = 1; k <= 40; ++k) twin.set_rate_from(0.5 * k, k % 2 == 0 ? 0.9 : 1.1);
  HardwareClock trimmed = twin;
  for (const RealTime floor : {0.0, 0.25, 0.5, 3.7, 3.7, 10.0, 19.99, 25.0}) {
    trimmed.forget_before(floor);
    expect_matches_after(trimmed, twin, floor, 30.0);
    EXPECT_EQ(trimmed.initial_value(), 2.0);
    EXPECT_EQ(trimmed.min_rate(), twin.min_rate());
    EXPECT_EQ(trimmed.max_rate(), twin.max_rate());
  }
  // Reads before the floor fail their precondition, in real and local time.
  EXPECT_THROW((void)trimmed.read(24.9), std::logic_error);
  EXPECT_THROW((void)trimmed.rate_at(24.9), std::logic_error);
  EXPECT_THROW((void)trimmed.when_reads(twin.read(24.9)), std::logic_error);
  // A lower floor is a no-op, and appending still works after a trim.
  trimmed.forget_before(1.0);
  EXPECT_EQ(trimmed.read(25.0), twin.read(25.0));
  twin.set_rate_from(40.0, 1.2);
  trimmed.set_rate_from(40.0, 1.2);
  expect_matches_after(trimmed, twin, 25.0, 50.0);
}

TEST(HardwareClock, TrimFloorOnALazyRandomWalk) {
  Rng rng(7);
  const HardwareClock twin = drift::random_walk(rng, 0.05, 0.3, 200.0, 0.5);
  HardwareClock trimmed = twin;
  for (RealTime floor = 0.0; floor < 210.0; floor += 13.3) {
    trimmed.forget_before(floor);
    expect_matches_after(trimmed, twin, floor, floor + 20.0);
    EXPECT_EQ(trimmed.initial_value(), twin.initial_value());
  }
  EXPECT_THROW((void)trimmed.read(0.0), std::logic_error);
  // The trimmed walk holds a window, the twin everything it generated.
  EXPECT_LT(trimmed.memory_bytes(), twin.memory_bytes());
}

}  // namespace
}  // namespace stclock
