#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/types.h"

/// Measures precision: the spread of honest logical clocks over a run.
///
/// Install via Simulator::set_post_event_hook (the runner does this), so the
/// spread is sampled at exactly the instants state can change. Between
/// events clocks advance linearly, so event-time sampling bounds the true
/// supremum to within gamma * (inter-event gap) — negligible at the event
/// densities of these protocols.
///
/// Complete graph: an exact bounded-rate index. Between a node's own events
/// its logical clock cannot rise faster than R or slower than r, where R is
/// the largest (max hardware rate x max logical slope) and r the smallest
/// (min hardware rate x min logical slope) over the honest fleet (see
/// HardwareClock::max_rate, LogicalClock::max_slope). So a node read exactly
/// at (t_i, v_i) reads at most v_i + R (t - t_i) and at least
/// v_i + r (t - t_i) at any later t, and the keys v_i - R t_i and
/// v_i - r t_i are time-invariant. A max-heap and a min-heap over these keys
/// (the min side stored negated, so both are max-heaps) let a sample walk
/// each heap best-first from the root, reading nodes exactly and stopping at
/// the first node whose bound, plus an FP slack, cannot beat the best value
/// read so far. The slack, 1e-9 x (1 + |key| + |R t|), covers the rounding
/// of the reads and the key arithmetic (a few ulps of those magnitudes)
/// with orders of magnitude to spare, as long as hardware readings are of
/// the same order as logical ones. A pruned node therefore cannot hold
/// the max or the min, and the extremes are bit-identical to a full scan:
/// they are the same doubles, read through the same observe_logical call.
/// Every node a sample reads is re-keyed with its exact value (the kinetic
/// data structure idea of Basch/Guibas/Hershberger), which keeps the bounds
/// tight where the extremes are.
///
/// Keys go stale only when a node's own event runs: protocols touch only
/// their own clock, and a node's started flag and include predicate change
/// only in its own events. The tracker re-keys the node named by
/// Simulator::last_event_node() after each event, and re-reads the whole
/// fleet (a rebuild) when it cannot trust the keys: on the first sample, on
/// a corruption event (kAllNodes), when events_dispatched() advanced by more
/// than one since the previous call (a tracker driven from a step loop
/// rather than the hook), on the first complete-graph sample after a sparse
/// one, and when a re-keyed node's rate bounds lie outside [r, R] (an
/// amortized ramp steeper than any before it). The include predicate must
/// therefore be node-local in the same sense; state changed outside events
/// (e.g. through the non-const Simulator::logical) is not seen. Under the
/// parallel engine a clock may already hold pieces from later in the
/// window; their slopes can only widen [r, R], and observe_logical still
/// returns the committed value, so the argument is unchanged.
///
/// Besides the global spread, the tracker measures *local skew* — the max
/// clock difference over pairs of topology-adjacent nodes, the figure of
/// merit of gradient clock synchronization (Kuhn/Lenzen/Locher/Oshman). The
/// adjacency is read from the simulator's CURRENT graph at every sample, so
/// on a dynamic topology the metric always reflects the links that were
/// live at measurement time. On the complete topology (or with no topology)
/// local skew equals the global spread, at no extra cost.
///
/// Sparse graphs keep the plain full scan, because the local-skew pass needs
/// every node's value anyway. That pass is built to survive n = 10^6:
/// per-node scratch is marked with a generation counter (no O(n) re-zeroing
/// per sample), and the O(E) adjacent-pair rescan is skipped entirely —
/// reusing the previous result bit-for-bit — when the sampled set, every
/// sampled value, and the live graph are all unchanged since the last
/// sample.
///
/// Past n = kLocalSkewPoolMaxN the per-node scratch itself would be the
/// problem (16 bytes/node = 160 MB per tracker at 10^7), so the local-skew
/// measurement pools: only nodes with id < kLocalSkewPoolMaxN carry scratch,
/// and local skew is measured over the subgraph induced on that prefix — a
/// deterministic sample of the fleet's adjacent pairs. The global spread
/// still scans every node (no storage needed). Every run at or below the
/// cap — including the whole golden suite and the n = 10^6 benches — is
/// bit-identical to the unpooled tracker.
namespace stclock {

class SkewTracker {
 public:
  /// Fleet size past which local skew pools to the id < cap prefix (2^20,
  /// comfortably above n = 10^6).
  static constexpr std::uint32_t kLocalSkewPoolMaxN = 1u << 20;
  /// `include` filters which nodes count (e.g. to exclude a joiner until it
  /// has integrated); null means "all honest started nodes".
  explicit SkewTracker(Duration series_interval = 0.05,
                       std::function<bool(NodeId)> include = nullptr);

  /// Samples the current spread; called from the post-event hook.
  void sample(const Simulator& sim);

  /// Ignore samples before `t` in steady_max_skew() (skip the initial
  /// convergence phase).
  void set_steady_start(RealTime t) { steady_start_ = t; }

  /// Decimates sampling itself: samples closer than `gap` to the previous
  /// one are dropped wholesale. At n >= the scale threshold the per-event
  /// O(n) value sweep is what dominates a run, and event densities make
  /// per-event sampling redundant; the runner engages this only for fleets
  /// far above everything the golden suite pins. 0 (the default) keeps the
  /// every-event behavior.
  void set_min_sample_gap(Duration gap) { min_sample_gap_ = gap; }

  /// Arms the stabilization watch: samples at t >= `after` (the last
  /// corruption event) are judged against `threshold`, and the tracker
  /// records the first time from which the spread enters — and then STAYS —
  /// inside it. threshold <= 0 selects the pre-corruption reference: the
  /// max spread observed in [steady_start, after), i.e. "as tight as it was
  /// before the fault" (for baselines with no derived precision bound).
  void set_stabilization(RealTime after, double threshold);

  /// True iff post-corruption samples exist and the spread re-entered the
  /// threshold and never left again.
  [[nodiscard]] bool stabilized() const {
    return stab_armed_ && stab_post_seen_ && stab_candidate_ >= 0;
  }
  /// Recovery latency: first time (minus `after`) from which the spread
  /// stayed inside the threshold; 0 if it never left, -1 if not stabilized.
  [[nodiscard]] double stabilization_time() const {
    return stabilized() ? std::max(0.0, stab_candidate_ - stab_after_) : -1.0;
  }

  [[nodiscard]] double max_skew() const { return max_skew_; }
  [[nodiscard]] double steady_max_skew() const { return steady_max_skew_; }
  [[nodiscard]] RealTime max_skew_time() const { return max_skew_time_; }
  /// Max skew over topology-adjacent pairs (== max_skew when complete).
  [[nodiscard]] double local_skew() const { return local_skew_; }
  [[nodiscard]] double steady_local_skew() const { return steady_local_skew_; }

  /// Decimated (time, spread) series for the skew-trace figure.
  [[nodiscard]] const std::vector<std::pair<RealTime, double>>& series() const {
    return series_;
  }

  /// Smallest and largest counted clock value at the last sample that had
  /// any node to measure (the endpoints of its spread).
  [[nodiscard]] std::pair<double, double> last_extremes() const { return {last_lo_, last_hi_}; }

  /// Full re-reads of the fleet the complete-graph index has made (see the
  /// rebuild triggers above); a hook-driven run makes a handful.
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  /// Indexed binary max-heap of node ids under per-node keys. The keyed
  /// quantity is sign * value; `slope` bounds its rate, so a node keyed at
  /// t_i reaches at most key + slope * t at any later t.
  struct KeyHeap {
    static constexpr std::uint32_t kAbsent = 0xffffffffu;
    std::vector<NodeId> order;       ///< heap array, largest key first
    std::vector<std::uint32_t> pos;  ///< per node: index into order, or kAbsent
    std::vector<double> key;         ///< per node; meaningful while present
    double sign = 1;
    double slope = 0;

    void reset(std::uint32_t n);
    /// Inserts `id` or moves it to key `k`.
    void set(NodeId id, double k);
    void erase(NodeId id);

   private:
    void place(std::uint32_t i, NodeId id) {
      order[i] = id;
      pos[id] = i;
    }
    void sift_up(std::uint32_t i);
    void sift_down(std::uint32_t i);
  };

  /// True iff node `id` counts toward the spread right now.
  [[nodiscard]] bool counted(const Simulator& sim, NodeId id) const {
    return sim.observe_started(id) && (include_ ? include_(id) : sim.observe_include(id));
  }
  /// Notes what the events since the previous call changed (every call).
  void track_events(const Simulator& sim);
  /// The sparse path: full scan plus local skew. False if no node counts.
  bool sample_sparse(const Simulator& sim, const Topology& topology, RealTime t, double& lo,
                     double& hi, double& local);
  /// The complete-graph path through the index. False if no node counts.
  bool sample_complete(const Simulator& sim, RealTime t, double& lo, double& hi);
  bool rebuild(const Simulator& sim, RealTime t, double& lo, double& hi);
  /// Node `id`'s value at t, read at most once per sample.
  double read(const Simulator& sim, NodeId id, RealTime t);
  /// Keys node `id` in both heaps by its value read at t.
  void rekey(NodeId id, RealTime t);
  /// Exact max over a non-empty `heap` of its keyed quantity at t.
  double search(const Simulator& sim, const KeyHeap& heap, RealTime t);

  Duration series_interval_;
  std::function<bool(NodeId)> include_;
  RealTime steady_start_ = 0;
  Duration min_sample_gap_ = 0;
  RealTime last_sample_time_ = -1;

  bool stab_armed_ = false;
  RealTime stab_after_ = 0;
  double stab_threshold_ = 0;   ///< <= 0: use stab_pre_max_
  double stab_pre_max_ = 0;     ///< max spread in [steady_start_, stab_after_)
  bool stab_post_seen_ = false;
  RealTime stab_candidate_ = -1;  ///< start of the current inside streak (-1: violating)

  double max_skew_ = 0;
  double steady_max_skew_ = 0;
  double local_skew_ = 0;
  double steady_local_skew_ = 0;
  RealTime max_skew_time_ = 0;
  double last_lo_ = 0;
  double last_hi_ = 0;
  RealTime last_series_sample_ = -1;
  std::vector<std::pair<RealTime, double>> series_;

  /// Per-node sample scratch for the sparse local-skew pass, sized
  /// min(n, kLocalSkewPoolMaxN). A slot holds a current value iff
  /// gen_[id] == cur_gen_ — bumping cur_gen_ invalidates the whole array in
  /// O(1), replacing the old per-sample O(n) assign.
  std::vector<double> values_;
  std::vector<std::uint64_t> gen_;
  /// Nodes carrying scratch: ids < pool_n_ (n, unless pooled).
  std::uint32_t pool_n_ = 0;
  std::uint64_t cur_gen_ = 0;
  /// Rescan-skip cache: the previous sample's per-sample local skew is
  /// reused verbatim when the graph, the sampled set, and every sampled
  /// value are unchanged (exact compares, so reuse is bit-identical).
  bool local_cache_valid_ = false;
  double last_local_ = 0;
  const Topology* last_topology_ = nullptr;
  std::uint32_t last_sampled_count_ = 0;

  /// Complete-graph index state (sized n on the first rebuild). upper_
  /// keys v - R t, lower_ keys -(v - r t); both are max-heaps.
  KeyHeap upper_;
  KeyHeap lower_;
  bool index_valid_ = false;
  const Simulator* index_sim_ = nullptr;
  std::uint64_t events_seen_ = 0;
  std::uint64_t rebuilds_ = 0;
  /// Nodes touched by events since the last sample, to re-key (deduplicated
  /// by dirty_flag_).
  std::vector<NodeId> dirty_;
  std::vector<std::uint8_t> dirty_flag_;
  /// Per-sample read cache: read_value_[id] is current iff
  /// read_stamp_[id] == stamp_; read_ lists this sample's reads.
  std::vector<double> read_value_;
  std::vector<std::uint64_t> read_stamp_;
  std::uint64_t stamp_ = 0;
  std::vector<NodeId> read_;
  /// Best-first search frontier: (key, heap index), a max-heap on key.
  std::vector<std::pair<double, std::uint32_t>> frontier_;
};

}  // namespace stclock
