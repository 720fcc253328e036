#include "clocks/drift_models.h"

#include "util/contracts.h"

namespace stclock::drift {

HardwareClock constant(LocalTime initial, double rate) { return HardwareClock(initial, rate); }

HardwareClock random_constant(Rng& rng, double rho, LocalTime max_initial) {
  ST_REQUIRE(rho >= 0, "random_constant: rho must be non-negative");
  const double rate = rng.uniform(1.0 / (1.0 + rho), 1.0 + rho);
  const LocalTime initial = rng.uniform(0.0, max_initial);
  return HardwareClock(initial, rate);
}

HardwareClock random_walk(Rng& rng, double rho, LocalTime max_initial, RealTime horizon,
                          Duration switch_mean) {
  ST_REQUIRE(rho >= 0, "random_walk: rho must be non-negative");
  ST_REQUIRE(switch_mean > 0, "random_walk: switch_mean must be positive");
  const RateWalk walk{1.0 / (1.0 + rho), 1.0 + rho, switch_mean, horizon};
  // The rate is drawn before the initial value: the order every trajectory
  // generated so far used, kept so seeded runs stay bit-identical.
  const double rate = rng.uniform(walk.lo, walk.hi);
  const LocalTime initial = rng.uniform(0.0, max_initial);
  HardwareClock clock(initial, rate, walk, rng);
  ST_ENSURE(clock.respects_drift_bound(rho), "random_walk: drift bound violated");
  return clock;
}

HardwareClock extremal_fast(LocalTime initial, double rho) {
  return HardwareClock(initial, 1.0 + rho);
}

HardwareClock extremal_slow(LocalTime initial, double rho) {
  return HardwareClock(initial, 1.0 / (1.0 + rho));
}

std::vector<HardwareClock> adversarial_fleet(std::uint32_t n, double rho,
                                             LocalTime max_initial) {
  ST_REQUIRE(n > 0, "adversarial_fleet: need at least one node");
  std::vector<HardwareClock> fleet;
  fleet.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    // Spread initial values across the allowed window; alternate extremal
    // rates so relative drift between adjacent nodes is maximal.
    const LocalTime initial =
        n == 1 ? 0.0 : max_initial * static_cast<double>(i) / static_cast<double>(n - 1);
    fleet.push_back(i % 2 == 0 ? extremal_fast(initial, rho) : extremal_slow(initial, rho));
  }
  return fleet;
}

std::vector<HardwareClock> random_fleet(Rng& rng, std::uint32_t n, double rho,
                                        LocalTime max_initial, RealTime horizon,
                                        Duration switch_mean) {
  std::vector<HardwareClock> fleet;
  fleet.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    fleet.push_back(random_walk(rng, rho, max_initial, horizon, switch_mean));
  }
  return fleet;
}

}  // namespace stclock::drift
