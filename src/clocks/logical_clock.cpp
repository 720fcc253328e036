#include "clocks/logical_clock.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"

namespace stclock {

LogicalClock::LogicalClock(const HardwareClock& hw) : hw_(&hw), h_floor_(hw.initial_value()) {
  // Set-up-time room for a trimmed window, as for the hardware segments.
  pieces_.reserve(kWindowReserve);
  pieces_.push_back(Piece{h_floor_, h_floor_, 1.0});
}

std::size_t LogicalClock::piece_at(LocalTime h) const {
  ST_REQUIRE(h >= h_floor_, "LogicalClock: hardware time precedes clock start (or the trim floor)");
  // Reads cluster at the newest piece; otherwise the last piece with
  // h_start <= h (the front one always qualifies, as h >= h_floor_).
  if (pieces_.back().h_start <= h) return pieces_.size() - 1;
  auto it = std::upper_bound(pieces_.begin(), pieces_.end(), h,
                             [](LocalTime v, const Piece& p) { return v < p.h_start; });
  return static_cast<std::size_t>(std::distance(pieces_.begin(), it)) - 1;
}

LocalTime LogicalClock::read_at_hardware(LocalTime h) const {
  const Piece& p = pieces_[piece_at(h)];
  return p.value + p.slope * (h - p.h_start);
}

LocalTime LogicalClock::read(RealTime t) const { return read_at_hardware(hw_->read(t)); }

void LogicalClock::push_piece(const Piece& piece) {
  pieces_.push_back(piece);
  min_slope_ = std::min(min_slope_, piece.slope);
  max_slope_ = std::max(max_slope_, piece.slope);
}

void LogicalClock::record(Duration delta) {
  total_adjustment_ += delta;
  max_abs_adjustment_ = std::max(max_abs_adjustment_, std::abs(delta));
  ++adjustment_count_;
}

void LogicalClock::adjust_instant(LocalTime h_now, Duration delta) {
  ST_REQUIRE(h_now >= pieces_.back().h_start,
             "LogicalClock: adjustments must move forward in hardware time");
  const LocalTime value_now = read_at_hardware(h_now);
  const double tail_slope = pieces_.back().slope;
  push_piece(Piece{h_now, value_now + delta, tail_slope});
  record(delta);
}

void LogicalClock::adjust_amortized(LocalTime h_now, Duration delta, Duration window) {
  ST_REQUIRE(h_now >= pieces_.back().h_start,
             "LogicalClock: adjustments must move forward in hardware time");
  ST_REQUIRE(window > 0, "LogicalClock: amortization window must be positive");
  ST_REQUIRE(delta >= 0 || -delta < window,
             "LogicalClock: negative correction too large for the window (would run backwards)");
  const LocalTime value_now = read_at_hardware(h_now);
  const double tail_slope = pieces_.back().slope;
  // Ramp piece: base slope of the tail plus the correction rate.
  push_piece(Piece{h_now, value_now, tail_slope + delta / window});
  push_piece(Piece{h_now + window, value_now + tail_slope * window + delta, tail_slope});
  record(delta);
}

void LogicalClock::adjust_override(LocalTime h_now, Duration delta) {
  ST_REQUIRE(h_now >= h_floor_, "LogicalClock: override precedes clock start (or the trim floor)");
  // The value "now" is read against the pieces live at h_now BEFORE any
  // scheduled-future pieces are dropped, so the override lands relative to
  // what the clock actually reads at this instant.
  const LocalTime value_now = read_at_hardware(h_now);
  while (pieces_.back().h_start > h_now) pieces_.pop_back();
  // Slope resets to the nominal 1.0: if the override lands mid-ramp, the
  // ramp's rate modulation is part of the state being overwritten.
  push_piece(Piece{h_now, value_now + delta, 1.0});
  record(delta);
}

RealTime LogicalClock::when_reads(RealTime now, LocalTime target) const {
  const LocalTime h_now = hw_->read(now);
  if (read_at_hardware(h_now) >= target) return now;

  // Scan pieces forward from h_now for the first hardware time where the
  // logical value reaches `target`. Within a piece the value is affine with
  // positive slope except possibly at jump discontinuities between pieces.
  std::size_t idx = piece_at(h_now);
  LocalTime h_from = h_now;
  while (true) {
    const Piece& p = pieces_[idx];
    const LocalTime value_from = p.value + p.slope * (h_from - p.h_start);
    const bool is_last = idx + 1 == pieces_.size();
    const LocalTime h_end = is_last ? kTimeInfinity : pieces_[idx + 1].h_start;
    if (p.slope > 0) {
      const LocalTime h_hit = h_from + (target - value_from) / p.slope;
      if (h_hit <= h_end) return hw_->when_reads(h_hit);
    }
    ST_ASSERT(!is_last, "LogicalClock::when_reads: target unreachable (non-positive tail slope)");
    // Jump boundary: if the jump carries the value past `target`, the clock
    // first reads >= target exactly at the boundary.
    if (pieces_[idx + 1].value >= target) return hw_->when_reads(h_end);
    h_from = h_end;
    ++idx;
  }
}

double LogicalClock::rate_at(RealTime t) const {
  const LocalTime h = hw_->read(t);
  return pieces_[piece_at(h)].slope * hw_->rate_at(t);
}

void LogicalClock::forget_before(RealTime t) {
  const LocalTime h = hw_->read(t);
  if (h <= h_floor_) return;
  h_floor_ = h;
  // Scan from the front, as for the hardware clock: at most a piece or two
  // (a finished ramp) ends before h.
  std::size_t k = 0;
  while (k + 1 < pieces_.size() && pieces_[k + 1].h_start <= h) ++k;
  if (k > 0) pieces_.erase(pieces_.begin(), pieces_.begin() + static_cast<std::ptrdiff_t>(k));
}

std::size_t LogicalClock::memory_bytes() const {
  return sizeof(*this) + pieces_.capacity() * sizeof(Piece);
}

}  // namespace stclock
