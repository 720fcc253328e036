#pragma once

#include <vector>

#include "clocks/hardware_clock.h"
#include "util/rng.h"
#include "util/types.h"

/// Factories for hardware-clock trajectories.
///
/// In the model, the adversary fixes clock behaviour subject to the drift
/// bound rho; these factories cover the trajectories used by tests and
/// experiments, from benign (constant rate) to worst-case (extremal rates
/// chosen to maximize divergence).
namespace stclock::drift {

/// Constant-rate clock.
[[nodiscard]] HardwareClock constant(LocalTime initial, double rate);

/// Constant rate drawn uniformly from [1/(1+rho), 1+rho]; initial value
/// drawn uniformly from [0, max_initial].
[[nodiscard]] HardwareClock random_constant(Rng& rng, double rho, LocalTime max_initial);

/// Rate re-drawn uniformly within the drift bound at exponentially
/// distributed intervals (mean `switch_mean`) until `horizon`. Models an
/// oscillator wandering within spec. The segments are generated on demand
/// from a saved copy of `rng`; `rng` itself advances past every draw of the
/// trajectory, so the next clock drawn from it is unaffected.
[[nodiscard]] HardwareClock random_walk(Rng& rng, double rho, LocalTime max_initial,
                                        RealTime horizon, Duration switch_mean);

/// Worst-case divergent pair-style trajectories: the node runs at the
/// extremal fast (1+rho) or slow (1/(1+rho)) rate throughout.
[[nodiscard]] HardwareClock extremal_fast(LocalTime initial, double rho);
[[nodiscard]] HardwareClock extremal_slow(LocalTime initial, double rho);

/// A fleet of n clocks engineered to stress skew: half run fast, half slow,
/// initial values spread across [0, max_initial].
[[nodiscard]] std::vector<HardwareClock> adversarial_fleet(std::uint32_t n, double rho,
                                                           LocalTime max_initial);

/// A fleet of n independent random-walk clocks.
[[nodiscard]] std::vector<HardwareClock> random_fleet(Rng& rng, std::uint32_t n, double rho,
                                                      LocalTime max_initial, RealTime horizon,
                                                      Duration switch_mean);

}  // namespace stclock::drift
