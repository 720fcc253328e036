#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "util/rng.h"
#include "util/types.h"

/// Hardware clocks in the Srikanth–Toueg model.
///
/// A hardware clock is a strictly increasing, piecewise-linear map
/// H : real time -> local time whose rate stays within
/// [1/(1+rho), 1+rho]. The adversary (or a drift model) fixes the
/// trajectory; protocols may only *read* the clock. Because H is strictly
/// increasing it is invertible, which the simulator uses to turn "wake me
/// when my clock reads L" into a real-time event.
///
/// The trajectory is either given explicitly (set_rate_from) or generated
/// on demand from a saved random-walk stream (the RateWalk constructor):
/// a read past the last generated segment draws the segments up to it, so a
/// long run never holds its whole trajectory. Generation happens inside
/// `const` reads; that is race-free because a simulator, and so each of its
/// clocks, is only ever touched by the one thread that runs it.
///
/// Trim floor: forget_before(t) drops every segment that ends at or before
/// real time t. Afterwards reads, inverses and rates at real times >= t (and
/// local times >= H(t)) are bit-identical to the untrimmed clock; earlier
/// queries fail their precondition. Nothing trims unless the owner calls
/// forget_before — the simulator does, with the oldest time any reader can
/// still query — so clocks used directly keep their full history.
namespace stclock {

/// A random walk over rates: each switch draws a new rate uniformly from
/// [lo, hi), and switches are spaced by exponential gaps of mean
/// `switch_mean`; no switch happens at or past `horizon`.
struct RateWalk {
  double lo = 1.0;
  double hi = 1.0;
  Duration switch_mean = 1.0;
  RealTime horizon = 0;
};

class HardwareClock {
 public:
  /// A clock starting at local value `initial` with rate `rate` from real
  /// time 0.
  explicit HardwareClock(LocalTime initial = 0.0, double rate = 1.0);

  /// A random-walk clock starting at local value `initial` with rate
  /// `rate`. Draws every switch from `rng` once — exactly the draws an eager
  /// generator makes, in the same order, so the stream continues as if the
  /// whole trajectory had been built — to fix min_rate()/max_rate(), and
  /// keeps a copy of the stream from which segments are regenerated on
  /// demand.
  HardwareClock(LocalTime initial, double rate, const RateWalk& walk, Rng& rng);

  /// Appends a rate change taking effect at real time `from`. Segments must
  /// be appended in increasing real-time order; rates must be positive. Not
  /// for random-walk clocks, whose trajectory is fixed by the walk.
  void set_rate_from(RealTime from, double rate);

  /// H(t): local reading at real time t >= the trim floor (0 if untrimmed).
  [[nodiscard]] LocalTime read(RealTime t) const;

  /// Inverse: the unique real time at which the clock reads `local`.
  /// Requires local >= H(trim floor), i.e. >= initial value if untrimmed.
  [[nodiscard]] RealTime when_reads(LocalTime local) const;

  /// Instantaneous rate at real time t (right-continuous at breakpoints).
  [[nodiscard]] double rate_at(RealTime t) const;

  [[nodiscard]] LocalTime initial_value() const { return initial_; }

  /// Smallest / largest rate the clock was ever given (a rate replaced at
  /// its own start time included): bounds on dH/dt over the whole
  /// trajectory, segments not generated yet included.
  [[nodiscard]] double min_rate() const { return min_rate_; }
  [[nodiscard]] double max_rate() const { return max_rate_; }

  /// True iff min_rate() and max_rate() lie within [1/(1+rho), 1+rho] (with
  /// a tiny tolerance for round-off). Drift models assert this after
  /// construction.
  [[nodiscard]] bool respects_drift_bound(double rho) const;

  /// Raises the trim floor to real time t (a lower t is a no-op): segments
  /// that end at or before t are released.
  void forget_before(RealTime t);

  /// Bytes this clock holds: the object plus its segment buffer.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  struct Segment {
    RealTime real_start;
    LocalTime local_start;
    double rate;
  };

  /// Segments a random-walk clock reserves up front: a trimmed window
  /// rarely holds more.
  static constexpr std::size_t kWindowReserve = 8;

  /// The saved random-walk stream: the next switch's rate is its next draw.
  struct Walk {
    RateWalk params;
    Rng rng;
  };

  /// Appends (or, at the last segment's own start, replaces) a segment.
  void append(RealTime from, double rate) const;
  /// Applies the next pending switch of the walk.
  void step_walk() const;
  /// Generates switches up to real time t / local time `local` (inclusive).
  void generate_to_real(RealTime t) const;
  void generate_to_local(LocalTime local) const;

  /// Index of the segment containing real time t.
  [[nodiscard]] std::size_t segment_at(RealTime t) const;

  // The read path's state comes first, to share a cache line. Mutable:
  // random-walk segments are generated inside const reads.
  mutable std::vector<Segment> segments_;
  mutable RealTime next_switch_ = kTimeInfinity;  // the walk's pending switch, if any
  RealTime floor_ = 0;
  LocalTime local_floor_;
  LocalTime initial_;
  double min_rate_;
  double max_rate_;
  mutable std::optional<Walk> walk_;
};

}  // namespace stclock
