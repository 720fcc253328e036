#include <gtest/gtest.h>

#include <vector>

#include "clocks/drift_models.h"

namespace stclock {
namespace {

/// The eager random-walk generator random_walk replaced, kept as the
/// reference trajectory: every segment up to the horizon built up front,
/// the rate drawn before the initial value. Counts the switches that land
/// on the previous switch's own instant (set_rate_from's replace path).
HardwareClock eager_random_walk(Rng& rng, double rho, LocalTime max_initial, RealTime horizon,
                                Duration switch_mean, int& replaced) {
  const double lo = 1.0 / (1.0 + rho);
  const double hi = 1.0 + rho;
  const double rate = rng.uniform(lo, hi);
  const LocalTime initial = rng.uniform(0.0, max_initial);
  HardwareClock clock(initial, rate);
  RealTime last = 0;
  RealTime t = rng.exponential(switch_mean);
  while (t < horizon) {
    if (t == last) ++replaced;
    clock.set_rate_from(t, rng.uniform(lo, hi));
    last = t;
    t += rng.exponential(switch_mean);
  }
  return clock;
}

TEST(DriftModels, LazyRandomWalkIsBitIdenticalToTheEagerOne) {
  struct Params {
    double rho;
    LocalTime max_initial;
    RealTime horizon;
    Duration switch_mean;
  };
  const std::vector<Params> params = {
      {1e-4, 0.005, 101.0, 1.0},
      {0.05, 0.5, 30.0, 0.1},
      {0.2, 0.0, 8.0, 3.0},  // often no switch at all before the horizon
      // Switch gaps of a few subnormal units round to zero about one time
      // in ten, so switches land on the previous one's instant and replace
      // its rate instead of appending.
      {0.01, 0.0, 1e-320, 2e-323},
  };
  int replaced = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const Params& p = params[seed % params.size()];
    Rng eager_rng(seed), lazy_rng(seed);
    const HardwareClock eager =
        eager_random_walk(eager_rng, p.rho, p.max_initial, p.horizon, p.switch_mean, replaced);
    const HardwareClock lazy =
        drift::random_walk(lazy_rng, p.rho, p.max_initial, p.horizon, p.switch_mean);
    ASSERT_EQ(eager_rng.next_u64(), lazy_rng.next_u64()) << "seed " << seed;
    EXPECT_EQ(eager.min_rate(), lazy.min_rate()) << "seed " << seed;
    EXPECT_EQ(eager.max_rate(), lazy.max_rate()) << "seed " << seed;
    EXPECT_EQ(eager.initial_value(), lazy.initial_value()) << "seed " << seed;

    // Queries in random order, past the horizon too: generation on demand
    // must not depend on which query came first.
    Rng probe(seed ^ 0xabcdefULL);
    for (int i = 0; i < 200; ++i) {
      const RealTime t = probe.uniform(0.0, 1.25 * p.horizon);
      ASSERT_EQ(eager.read(t), lazy.read(t)) << "seed " << seed << " t " << t;
      ASSERT_EQ(eager.rate_at(t), lazy.rate_at(t)) << "seed " << seed << " t " << t;
      const LocalTime local = eager.read(t);
      ASSERT_EQ(eager.when_reads(local), lazy.when_reads(local)) << "seed " << seed;
      const LocalTime other = eager.read(probe.uniform(0.0, 1.25 * p.horizon));
      ASSERT_EQ(eager.when_reads(other), lazy.when_reads(other)) << "seed " << seed;
    }
  }
  EXPECT_GT(replaced, 0) << "the equal-time replace path never ran";
}

TEST(DriftModels, RandomConstantWithinBounds) {
  Rng rng(1);
  const double rho = 0.01;
  for (int i = 0; i < 50; ++i) {
    const HardwareClock clock = drift::random_constant(rng, rho, 0.5);
    EXPECT_TRUE(clock.respects_drift_bound(rho));
    EXPECT_GE(clock.initial_value(), 0.0);
    EXPECT_LE(clock.initial_value(), 0.5);
  }
}

TEST(DriftModels, RandomWalkWithinBounds) {
  Rng rng(2);
  const double rho = 0.02;
  const HardwareClock clock = drift::random_walk(rng, rho, 0.1, 100.0, 1.0);
  EXPECT_TRUE(clock.respects_drift_bound(rho));
  // Strictly increasing over the horizon.
  double prev = clock.read(0.0);
  for (double t = 0.5; t <= 100.0; t += 0.5) {
    EXPECT_GT(clock.read(t), prev);
    prev = clock.read(t);
  }
}

TEST(DriftModels, RandomWalkEnvelope) {
  // |H(t) - H(0) - t| bounded by drift over any horizon.
  Rng rng(3);
  const double rho = 0.05;
  const HardwareClock clock = drift::random_walk(rng, rho, 0.0, 50.0, 0.5);
  for (double t = 1.0; t <= 50.0; t += 1.0) {
    const double elapsed_local = clock.read(t) - clock.read(0.0);
    EXPECT_LE(elapsed_local, (1 + rho) * t + 1e-9);
    EXPECT_GE(elapsed_local, t / (1 + rho) - 1e-9);
  }
}

TEST(DriftModels, ExtremalRates) {
  const double rho = 0.01;
  const HardwareClock fast = drift::extremal_fast(0.0, rho);
  const HardwareClock slow = drift::extremal_slow(0.0, rho);
  EXPECT_DOUBLE_EQ(fast.read(10.0), 10.0 * (1 + rho));
  EXPECT_DOUBLE_EQ(slow.read(10.0), 10.0 / (1 + rho));
  EXPECT_TRUE(fast.respects_drift_bound(rho));
  EXPECT_TRUE(slow.respects_drift_bound(rho));
}

TEST(DriftModels, AdversarialFleetShape) {
  const double rho = 0.005;
  const auto fleet = drift::adversarial_fleet(5, rho, 0.4);
  ASSERT_EQ(fleet.size(), 5u);
  for (const auto& clock : fleet) EXPECT_TRUE(clock.respects_drift_bound(rho));
  // Initial values span [0, max_initial].
  EXPECT_DOUBLE_EQ(fleet.front().initial_value(), 0.0);
  EXPECT_DOUBLE_EQ(fleet.back().initial_value(), 0.4);
  // Alternating fast/slow rates.
  EXPECT_GT(fleet[0].rate_at(0), 1.0);
  EXPECT_LT(fleet[1].rate_at(0), 1.0);
}

TEST(DriftModels, AdversarialFleetMaximizesDivergence) {
  const double rho = 0.01;
  const auto fleet = drift::adversarial_fleet(2, rho, 0.0);
  const double gap_at_100 = fleet[0].read(100.0) - fleet[1].read(100.0);
  const double gamma = (1 + rho) - 1 / (1 + rho);
  EXPECT_NEAR(gap_at_100, gamma * 100.0, 1e-9);
}

TEST(DriftModels, RandomFleetSizeAndBounds) {
  Rng rng(4);
  const auto fleet = drift::random_fleet(rng, 7, 0.03, 0.2, 20.0, 2.0);
  ASSERT_EQ(fleet.size(), 7u);
  for (const auto& clock : fleet) {
    EXPECT_TRUE(clock.respects_drift_bound(0.03));
    EXPECT_LE(clock.initial_value(), 0.2);
  }
}

TEST(DriftModels, DeterministicGivenSeed) {
  Rng a(9), b(9);
  const HardwareClock ca = drift::random_walk(a, 0.01, 0.1, 30.0, 1.0);
  const HardwareClock cb = drift::random_walk(b, 0.01, 0.1, 30.0, 1.0);
  for (double t = 0; t <= 30.0; t += 0.25) EXPECT_DOUBLE_EQ(ca.read(t), cb.read(t));
}

}  // namespace
}  // namespace stclock
