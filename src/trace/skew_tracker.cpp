#include "trace/skew_tracker.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace stclock {

namespace {

/// Relative FP slack on a bound (see the header): far above the few-ulp
/// rounding of reads and keys, far below any skew worth measuring.
constexpr double kBoundSlack = 1e-9;

}  // namespace

void SkewTracker::KeyHeap::reset(std::uint32_t n) {
  order.clear();
  pos.assign(n, kAbsent);
  key.resize(n);
}

void SkewTracker::KeyHeap::set(NodeId id, double k) {
  key[id] = k;
  if (pos[id] == kAbsent) {
    order.push_back(id);
    pos[id] = static_cast<std::uint32_t>(order.size() - 1);
  }
  sift_up(pos[id]);
  sift_down(pos[id]);
}

void SkewTracker::KeyHeap::erase(NodeId id) {
  const std::uint32_t i = pos[id];
  if (i == kAbsent) return;
  pos[id] = kAbsent;
  const NodeId last = order.back();
  order.pop_back();
  if (i == order.size()) return;
  place(i, last);
  sift_up(i);
  sift_down(pos[last]);
}

void SkewTracker::KeyHeap::sift_up(std::uint32_t i) {
  const NodeId id = order[i];
  while (i > 0) {
    const std::uint32_t parent = (i - 1) / 2;
    if (!(key[order[parent]] < key[id])) break;
    place(i, order[parent]);
    i = parent;
  }
  place(i, id);
}

void SkewTracker::KeyHeap::sift_down(std::uint32_t i) {
  const NodeId id = order[i];
  const auto size = static_cast<std::uint32_t>(order.size());
  while (true) {
    std::uint32_t child = 2 * i + 1;
    if (child >= size) break;
    if (child + 1 < size && key[order[child]] < key[order[child + 1]]) ++child;
    if (!(key[id] < key[order[child]])) break;
    place(i, order[child]);
    i = child;
  }
  place(i, id);
}

SkewTracker::SkewTracker(Duration series_interval, std::function<bool(NodeId)> include)
    : series_interval_(series_interval), include_(std::move(include)) {
  lower_.sign = -1;
}

void SkewTracker::set_stabilization(RealTime after, double threshold) {
  stab_armed_ = true;
  stab_after_ = after;
  stab_threshold_ = threshold;
}

void SkewTracker::track_events(const Simulator& sim) {
  if (&sim != index_sim_) index_valid_ = false;
  const std::uint64_t events = sim.events_dispatched();
  if (events == events_seen_) return;
  if (index_valid_) {
    const NodeId node = sim.last_event_node();
    if (events != events_seen_ + 1 || node == Simulator::kAllNodes) {
      index_valid_ = false;
    } else if (node != Simulator::kNoNode && dirty_flag_[node] == 0) {
      dirty_flag_[node] = 1;
      dirty_.push_back(node);
    }
  }
  events_seen_ = events;
}

double SkewTracker::read(const Simulator& sim, NodeId id, RealTime t) {
  if (read_stamp_[id] != stamp_) {
    // observe_* rather than is_started/logical: mid-window under the parallel
    // engine these report the committed pre-state, keeping hook-driven
    // samples bit-identical to the sequential engine.
    read_value_[id] = sim.observe_logical(id, t);
    read_stamp_[id] = stamp_;
    read_.push_back(id);
  }
  return read_value_[id];
}

void SkewTracker::rekey(NodeId id, RealTime t) {
  upper_.set(id, read_value_[id] - upper_.slope * t);
  lower_.set(id, -read_value_[id] - lower_.slope * t);
}

bool SkewTracker::rebuild(const Simulator& sim, RealTime t, double& lo, double& hi) {
  ++rebuilds_;
  index_valid_ = true;
  index_sim_ = &sim;
  events_seen_ = sim.events_dispatched();
  const std::uint32_t n = sim.n();
  upper_.reset(n);
  lower_.reset(n);
  dirty_.clear();
  dirty_flag_.assign(n, 0);
  read_value_.resize(n);
  read_stamp_.assign(n, 0);
  stamp_ = 1;
  read_.clear();

  // Rate bounds over every honest node, counted or not, so a node that
  // starts or integrates later rarely widens them.
  double rate_hi = -std::numeric_limits<double>::infinity();
  double rate_lo = std::numeric_limits<double>::infinity();
  for (NodeId id : sim.honest_ids()) {
    const HardwareClock& hw = sim.hardware(id);
    const LogicalClock& clock = sim.logical(id);
    rate_hi = std::max(rate_hi, hw.max_rate() * clock.max_slope());
    rate_lo = std::min(rate_lo, hw.min_rate() * clock.min_slope());
    if (!counted(sim, id)) continue;
    const double c = read(sim, id, t);
    lo = read_.size() == 1 ? c : std::min(lo, c);
    hi = read_.size() == 1 ? c : std::max(hi, c);
  }
  upper_.slope = rate_hi;
  lower_.slope = -rate_lo;
  for (NodeId id : read_) rekey(id, t);
  return !read_.empty();
}

double SkewTracker::search(const Simulator& sim, const KeyHeap& heap, RealTime t) {
  // Best-first walk of the heap tree: the frontier holds the children of
  // every node read so far, so its largest key bounds every unread node.
  const double drift = heap.slope * t;
  double best = -std::numeric_limits<double>::infinity();
  frontier_.clear();
  frontier_.emplace_back(heap.key[heap.order[0]], 0);
  const auto size = static_cast<std::uint32_t>(heap.order.size());
  while (!frontier_.empty()) {
    std::pop_heap(frontier_.begin(), frontier_.end());
    const auto [key, i] = frontier_.back();
    frontier_.pop_back();
    const double slack = kBoundSlack * (1 + std::abs(key) + std::abs(drift));
    if (key + drift + slack <= best) break;
    best = std::max(best, heap.sign * read(sim, heap.order[i], t));
    for (std::uint32_t child = 2 * i + 1; child <= 2 * i + 2 && child < size; ++child) {
      frontier_.emplace_back(heap.key[heap.order[child]], child);
      std::push_heap(frontier_.begin(), frontier_.end());
    }
  }
  return best;
}

bool SkewTracker::sample_complete(const Simulator& sim, RealTime t, double& lo, double& hi) {
  if (!index_valid_) return rebuild(sim, t, lo, hi);
  ++stamp_;
  read_.clear();
  for (NodeId id : dirty_) {
    dirty_flag_[id] = 0;
    if (!counted(sim, id)) {
      upper_.erase(id);
      lower_.erase(id);
      continue;
    }
    const HardwareClock& hw = sim.hardware(id);
    const LogicalClock& clock = sim.logical(id);
    if (hw.max_rate() * clock.max_slope() > upper_.slope ||
        hw.min_rate() * clock.min_slope() < -lower_.slope) {
      return rebuild(sim, t, lo, hi);  // a steeper ramp than any keyed so far
    }
    (void)read(sim, id, t);
    rekey(id, t);  // before the searches, which must see it
  }
  dirty_.clear();
  if (upper_.order.empty()) return false;

  hi = search(sim, upper_, t);
  lo = -search(sim, lower_, t);
  for (NodeId id : read_) rekey(id, t);
  return true;
}

bool SkewTracker::sample_sparse(const Simulator& sim, const Topology& topology, RealTime t,
                                double& lo, double& hi, double& local) {
  pool_n_ = std::min(sim.n(), kLocalSkewPoolMaxN);
  values_.resize(pool_n_);
  gen_.resize(pool_n_, 0);
  const std::uint64_t prev_gen = cur_gen_;
  ++cur_gen_;

  bool first = true;
  std::uint32_t sampled_count = 0;
  bool set_grew = false;       // a node sampled now that was not last time
  bool value_changed = false;  // a re-sampled node read a different value
  for (NodeId id : sim.honest_ids()) {
    if (!counted(sim, id)) continue;
    const double c = sim.observe_logical(id, t);
    if (id < pool_n_) {
      if (gen_[id] != prev_gen) {
        set_grew = true;
      } else if (values_[id] != c) {
        value_changed = true;
      }
      values_[id] = c;
      gen_[id] = cur_gen_;
      ++sampled_count;
    }
    if (first) {
      lo = hi = c;
      first = false;
    } else {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
  }
  if (first) return false;  // nothing to measure yet

  // Counts equal with no additions means no drops either, so the sampled
  // set is exactly last sample's; identical values over an identical graph
  // make the rescan a pure recomputation — reuse its result.
  const bool same_set = !set_grew && sampled_count == last_sampled_count_;
  if (local_cache_valid_ && &topology == last_topology_ && same_set && !value_changed) {
    local = last_local_;
  } else {
    local = 0;
    for (NodeId a : sim.honest_ids()) {
      if (a >= pool_n_) break;  // honest_ids is ascending; pooled prefix only
      if (gen_[a] != cur_gen_) continue;
      const auto [nbrs, degree] = topology.neighbor_span(a);
      for (std::size_t i = 0; i < degree; ++i) {
        const NodeId b = nbrs[i];
        if (b > a && b < pool_n_ && gen_[b] == cur_gen_) {
          local = std::max(local, std::abs(values_[a] - values_[b]));
        }
      }
    }
    last_local_ = local;
    local_cache_valid_ = true;
  }
  last_topology_ = &topology;
  last_sampled_count_ = sampled_count;
  return true;
}

void SkewTracker::sample(const Simulator& sim) {
  track_events(sim);
  const RealTime t = sim.now();
  if (min_sample_gap_ > 0 && last_sample_time_ >= 0 &&
      t - last_sample_time_ < min_sample_gap_) {
    return;
  }
  // The adjacency live RIGHT NOW: on a dynamic topology this moves with the
  // epoch schedule, so local skew is always measured against the links that
  // existed at sampling time. On a complete topology every pair is adjacent,
  // so the local skew IS the spread.
  const Topology* topology = sim.current_topology();
  double lo = 0, hi = 0, local = 0;
  if (topology != nullptr && !topology->is_complete()) {
    index_valid_ = false;  // the index misses the events of a sparse stretch
    if (!sample_sparse(sim, *topology, t, lo, hi, local)) return;
  } else {
    if (!sample_complete(sim, t, lo, hi)) return;
    local = hi - lo;
  }
  last_sample_time_ = t;
  last_lo_ = lo;
  last_hi_ = hi;

  const double spread = hi - lo;
  if (spread > max_skew_) {
    max_skew_ = spread;
    max_skew_time_ = t;
  }
  if (t >= steady_start_) steady_max_skew_ = std::max(steady_max_skew_, spread);

  if (stab_armed_) {
    if (t < stab_after_) {
      // Pre-corruption reference for the auto threshold: how tight the run
      // was once past its convergence prefix.
      if (t >= steady_start_) stab_pre_max_ = std::max(stab_pre_max_, spread);
    } else {
      stab_post_seen_ = true;
      const double threshold = stab_threshold_ > 0 ? stab_threshold_ : stab_pre_max_;
      if (spread > threshold) {
        stab_candidate_ = -1;  // violating: any inside streak is void
      } else if (stab_candidate_ < 0) {
        stab_candidate_ = t;  // a new inside streak begins here
      }
    }
  }

  local_skew_ = std::max(local_skew_, local);
  if (t >= steady_start_) steady_local_skew_ = std::max(steady_local_skew_, local);

  if (last_series_sample_ < 0 || t - last_series_sample_ >= series_interval_) {
    series_.emplace_back(t, spread);
    last_series_sample_ = t;
  }
}

}  // namespace stclock
