#include "clocks/hardware_clock.h"

#include <algorithm>

#include "util/contracts.h"

namespace stclock {

HardwareClock::HardwareClock(LocalTime initial, double rate)
    : local_floor_(initial), initial_(initial), min_rate_(rate), max_rate_(rate) {
  ST_REQUIRE(rate > 0, "HardwareClock: rate must be positive");
  segments_.push_back(Segment{0.0, initial, rate});
}

HardwareClock::HardwareClock(LocalTime initial, double rate, const RateWalk& walk, Rng& rng)
    : HardwareClock(initial, rate) {
  ST_REQUIRE(walk.lo > 0 && walk.lo <= walk.hi, "HardwareClock: bad random-walk rate range");
  ST_REQUIRE(walk.switch_mean > 0, "HardwareClock: switch_mean must be positive");
  // Room for a trimmed window of segments, taken at set-up, where the fleet
  // is built in node order: buffers grown mid-run scatter through the heap,
  // which cost ~10% wall time on the fleet-wide metric scans at n = 10^6.
  segments_.reserve(kWindowReserve);
  walk_.emplace(Walk{walk, rng});
  const RealTime first = walk_->rng.exponential(walk.switch_mean);
  if (first < walk.horizon) next_switch_ = first;
  // Replay the walk's draws on the shared stream: it must advance exactly as
  // if the whole trajectory had been generated, and the rate bounds must
  // cover segments that are not generated yet.
  for (RealTime t = rng.exponential(walk.switch_mean); t < walk.horizon;
       t += rng.exponential(walk.switch_mean)) {
    const double r = rng.uniform(walk.lo, walk.hi);
    min_rate_ = std::min(min_rate_, r);
    max_rate_ = std::max(max_rate_, r);
  }
}

void HardwareClock::set_rate_from(RealTime from, double rate) {
  ST_REQUIRE(rate > 0, "HardwareClock: rate must be positive");
  ST_REQUIRE(!walk_, "HardwareClock: a random-walk trajectory is fixed by its walk");
  ST_REQUIRE(from >= segments_.back().real_start,
             "HardwareClock: segments must be appended in order");
  min_rate_ = std::min(min_rate_, rate);
  max_rate_ = std::max(max_rate_, rate);
  append(from, rate);
}

void HardwareClock::append(RealTime from, double rate) const {
  const Segment& last = segments_.back();
  if (from == last.real_start) {
    segments_.back().rate = rate;
    return;
  }
  const LocalTime local = last.local_start + last.rate * (from - last.real_start);
  segments_.push_back(Segment{from, local, rate});
}

void HardwareClock::step_walk() const {
  Walk& w = *walk_;
  append(next_switch_, w.rng.uniform(w.params.lo, w.params.hi));
  next_switch_ += w.rng.exponential(w.params.switch_mean);
  if (!(next_switch_ < w.params.horizon)) next_switch_ = kTimeInfinity;
}

void HardwareClock::generate_to_real(RealTime t) const {
  while (next_switch_ <= t) step_walk();
}

void HardwareClock::generate_to_local(LocalTime local) const {
  // The next switch's local start, computed exactly as append() will.
  while (next_switch_ < kTimeInfinity) {
    const Segment& last = segments_.back();
    if (last.local_start + last.rate * (next_switch_ - last.real_start) > local) break;
    step_walk();
  }
}

std::size_t HardwareClock::segment_at(RealTime t) const {
  ST_REQUIRE(t >= floor_, "HardwareClock: real time before the trim floor (or negative)");
  generate_to_real(t);
  // Reads cluster at the newest segment; otherwise the last segment with
  // real_start <= t (the front one always qualifies, as t >= floor_).
  if (segments_.back().real_start <= t) return segments_.size() - 1;
  auto it = std::upper_bound(segments_.begin(), segments_.end(), t,
                             [](RealTime v, const Segment& s) { return v < s.real_start; });
  return static_cast<std::size_t>(std::distance(segments_.begin(), it)) - 1;
}

LocalTime HardwareClock::read(RealTime t) const {
  const Segment& s = segments_[segment_at(t)];
  return s.local_start + s.rate * (t - s.real_start);
}

RealTime HardwareClock::when_reads(LocalTime local) const {
  ST_REQUIRE(local >= local_floor_,
             "HardwareClock: local time precedes clock start (or the trim floor)");
  generate_to_local(local);
  // Last segment with local_start <= local; strict monotonicity makes the
  // answer unique.
  const Segment* s = &segments_.back();
  if (s->local_start > local) {
    auto it = std::upper_bound(segments_.begin(), segments_.end(), local,
                               [](LocalTime v, const Segment& seg) { return v < seg.local_start; });
    s = &*std::prev(it);
  }
  return s->real_start + (local - s->local_start) / s->rate;
}

double HardwareClock::rate_at(RealTime t) const { return segments_[segment_at(t)].rate; }

bool HardwareClock::respects_drift_bound(double rho) const {
  constexpr double kTol = 1e-12;
  return min_rate_ >= 1.0 / (1.0 + rho) - kTol && max_rate_ <= (1.0 + rho) + kTol;
}

void HardwareClock::forget_before(RealTime t) {
  if (t <= floor_) return;
  generate_to_real(t);
  // Called once per event with a creeping t: scan from the front, where at
  // most a segment or two ends before t.
  std::size_t k = 0;
  while (k + 1 < segments_.size() && segments_[k + 1].real_start <= t) ++k;
  const Segment& s = segments_[k];
  local_floor_ = s.local_start + s.rate * (t - s.real_start);
  floor_ = t;
  if (k > 0) segments_.erase(segments_.begin(), segments_.begin() + static_cast<std::ptrdiff_t>(k));
}

std::size_t HardwareClock::memory_bytes() const {
  return sizeof(*this) + segments_.capacity() * sizeof(Segment);
}

}  // namespace stclock
