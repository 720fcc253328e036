#include "sim/network.h"

#include "util/contracts.h"

namespace stclock {

FixedDelay::FixedDelay(double fraction) : fraction_(fraction) {
  ST_REQUIRE(fraction >= 0 && fraction <= 1, "FixedDelay: fraction outside [0, 1]");
}

Duration FixedDelay::delay(NodeId, NodeId, RealTime, Duration tdel, Rng&) {
  return fraction_ * tdel;
}

UniformDelay::UniformDelay(double lo_fraction, double hi_fraction)
    : lo_(lo_fraction), hi_(hi_fraction) {
  ST_REQUIRE(lo_fraction >= 0 && hi_fraction <= 1 && lo_fraction <= hi_fraction,
             "UniformDelay: fractions must satisfy 0 <= lo <= hi <= 1");
}

Duration UniformDelay::delay(NodeId, NodeId, RealTime, Duration tdel, Rng& rng) {
  return rng.uniform(lo_ * tdel, hi_ * tdel);
}

LinkDelay::LinkDelay(double lo_fraction, double hi_fraction, std::uint64_t seed)
    : lo_(lo_fraction), hi_(hi_fraction), seed_(seed) {
  ST_REQUIRE(lo_fraction >= 0 && hi_fraction <= 1 && lo_fraction <= hi_fraction,
             "LinkDelay: fractions must satisfy 0 <= lo <= hi <= 1");
}

Duration LinkDelay::delay(NodeId from, NodeId to, RealTime, Duration tdel, Rng&) {
  // SplitMix64 finalizer over (seed, from, to): a stable per-link uniform
  // draw with no per-link storage and no shared-RNG consumption.
  std::uint64_t x = seed_ ^ (static_cast<std::uint64_t>(from) << 32 | to);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
  return (lo_ + (hi_ - lo_) * u) * tdel;
}

}  // namespace stclock
