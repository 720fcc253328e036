#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "clocks/hardware_clock.h"
#include "clocks/logical_clock.h"
#include "crypto/signature.h"
#include "sim/broadcast_mode.h"
#include "sim/corruption.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/topology.h"
#include "sim/topology_schedule.h"
#include "trace/counters.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/types.h"

/// The discrete-event simulator: the "testbed" substrate on which every
/// protocol and experiment in this repository runs.
///
/// A Simulator owns n nodes, each with a fixed hardware-clock trajectory and
/// a logical clock. Honest nodes run a `Process`; corrupted nodes are driven
/// collectively by one `Adversary`. All scheduling is deterministic given the
/// seed: ties in event time break by insertion order, and every node gets an
/// independent forked RNG stream.
namespace stclock {

struct SimParams {
  std::uint32_t n = 0;
  /// Maximum end-to-end delay between correct processes (the model's tdel).
  Duration tdel = 0.01;
  std::uint64_t seed = 1;
  /// Safety valve against runaway protocols.
  std::uint64_t max_events = 50'000'000;
  /// Pre-sizing hint for the event queue: the expected number of events
  /// resident at once. Zero derives the default from n — one full broadcast
  /// round of deliveries plus per-node timers, n * (n + 2).
  std::size_t queue_reserve = 0;
  /// Network graph. Null means the paper's implicit complete graph (the
  /// legacy behavior, bit-for-bit); an explicit complete topology takes the
  /// same code path. Any other graph restricts broadcasts to neighbors and
  /// drops sends on missing links.
  std::shared_ptr<const Topology> topology;
  /// Timed topology changes (compile a TopologySchedule against `topology`).
  /// Null — or a single-epoch compilation of an empty schedule — keeps the
  /// static path bit-for-bit: no epoch events are armed and every send
  /// consults the same graph. With later epochs, each boundary becomes a
  /// simulator event that swaps the live graph; link existence is checked at
  /// send time, so in-flight messages survive a switch. Requires `topology`
  /// to be the schedule's epoch-0 graph (same object).
  std::shared_ptr<const CompiledTopologySchedule> schedule;
  /// Scheduled state-corruption events (see sim/corruption.h). Times must be
  /// positive and non-decreasing. Empty — the default — arms no corruption
  /// machinery and leaves every RNG stream untouched, so the disabled path
  /// is bit-identical to a build without fault injection.
  std::vector<CorruptionEvent> corruptions;
  /// Broadcast fan-out policy (see sim/broadcast_mode.h). kFull and
  /// kNeighbors take exactly the legacy fan-out path; kSampled draws
  /// sample_size peers per broadcast from a dedicated RNG stream.
  BroadcastMode broadcast_mode = BroadcastMode::kFull;
  /// Peers per broadcast under kSampled (>= 1 required then); ignored in the
  /// other modes.
  std::uint32_t sample_size = 0;
};

class Simulator {
 public:
  /// `clocks` must have exactly params.n entries. The registry (for the
  /// authenticated variants) may be null when no protocol signs anything.
  Simulator(SimParams params, std::vector<HardwareClock> clocks,
            std::unique_ptr<DelayPolicy> delays, const crypto::KeyRegistry* registry);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Installs the honest protocol instance for node `id`. Must not be called
  /// for corrupted nodes.
  void set_process(NodeId id, std::unique_ptr<Process> process);

  /// Marks `ids` as corrupted and installs the Byzantine strategy driving
  /// them. Call at most once, before start().
  void set_adversary(std::vector<NodeId> ids, std::unique_ptr<Adversary> adversary);

  /// Delays the on_start of node `id` until real time `t` (models a node
  /// that boots late and must integrate — see core/joiner.h).
  void set_start_time(NodeId id, RealTime t);

  /// Builds the replacement process for a node rejoining after churn.
  using ProcessBuilder = std::function<std::unique_ptr<Process>()>;

  /// Schedules honest node `id` to crash at `down_at` and reboot at `up_at`
  /// as a fresh process built by `rebuild` (typically a passively integrating
  /// joiner — see core/joiner.h). While down, the node's pending timers are
  /// cancelled and deliveries to it are lost; the rebuilt process gets
  /// on_start at `up_at`. Call before start(); at most once per node.
  void schedule_restart(NodeId id, RealTime down_at, RealTime up_at,
                        ProcessBuilder rebuild);

  /// Dispatches on_start for every installed process and the adversary, then
  /// runs events until `horizon` (inclusive). May be called repeatedly with
  /// increasing horizons.
  void run_until(RealTime horizon);

  // --- Introspection (used by metrics, adversaries, and tests) ---
  /// Current simulation time: the time of the event being dispatched, or
  /// the horizon of the last run_until once it returns.
  [[nodiscard]] RealTime now() const { return now_; }
  [[nodiscard]] const SimParams& params() const { return params_; }
  [[nodiscard]] std::uint32_t n() const { return params_.n; }
  [[nodiscard]] bool is_corrupt(NodeId id) const;
  /// Honest node ids, ascending.
  [[nodiscard]] const std::vector<NodeId>& honest_ids() const { return honest_ids_; }
  /// True once node `id` has been started (relevant for late joiners).
  [[nodiscard]] bool is_started(NodeId id) const {
    ST_REQUIRE(id < params_.n, "is_started: node id out of range");
    return nodes_[id].started;
  }

  /// A node filter for SkewTracker instances built without one of their
  /// own: the tracker counts only nodes for which `probe` holds. Kept for
  /// perfbench's traced runner, which installs its "protocol instance is
  /// integrated" filter here; the scenario engine hands its filter to the
  /// tracker directly. Null (the default) counts every started node.
  void set_include_probe(std::function<bool(NodeId)> probe);
  [[nodiscard]] const std::function<bool(NodeId)>& include_probe() const {
    return include_probe_;
  }

  /// The base (epoch-0) network graph, or null for the implicit complete
  /// graph.
  [[nodiscard]] const Topology* topology() const { return params_.topology.get(); }

  /// The graph live right now: the base graph until the first epoch switch,
  /// then the current epoch's snapshot. Null for the implicit complete
  /// graph. The skew tracker samples local skew against this, so the metric
  /// always reflects the adjacency that was live at measurement time.
  [[nodiscard]] const Topology* current_topology() const { return topo_now_; }

  /// Index of the live epoch (0 until the first switch; static runs stay 0).
  [[nodiscard]] std::size_t topology_epoch() const { return epoch_; }

  [[nodiscard]] const HardwareClock& hardware(NodeId id) const {
    ST_REQUIRE(id < params_.n, "hardware: node id out of range");
    return *nodes_[id].hw;
  }
  [[nodiscard]] const LogicalClock& logical(NodeId id) const {
    ST_REQUIRE(id < params_.n, "logical: node id out of range");
    return *nodes_[id].logical;
  }
  [[nodiscard]] LogicalClock& logical(NodeId id) {
    ST_REQUIRE(id < params_.n, "logical: node id out of range");
    return *nodes_[id].logical;
  }

  [[nodiscard]] const MessageCounters& counters() const { return counters_; }
  [[nodiscard]] MessageCounters& counters() { return counters_; }

  /// last_event_node() sentinels: the last event changed no node's state
  /// (topology epoch, adversary, cancelled timer), or possibly every node's
  /// (a corruption event).
  static constexpr NodeId kNoNode = 0xffffffffu;
  static constexpr NodeId kAllNodes = 0xfffffffeu;

  /// The only honest node whose observable state (started flag, include
  /// probe, logical clock) the last dispatched event may have changed: the
  /// timer's owner or the delivery's recipient, kNoNode or kAllNodes for
  /// fleet-wide events. Together with events_dispatched() this lets a
  /// post-event hook update per-node state incrementally instead of
  /// re-reading the fleet. It is set before the hook runs.
  [[nodiscard]] NodeId last_event_node() const { return last_event_node_; }

  /// Total events dispatched so far (timers + deliveries, cancelled timer
  /// pops included). Part of the determinism contract: for a fixed spec the
  /// count is reproducible bit-for-bit, which the golden trace test pins.
  [[nodiscard]] std::uint64_t events_dispatched() const { return events_dispatched_; }

  /// Sends lost in transit: the delay policy chose kDropMessage (partitions),
  /// the sender has no link to the recipient in the topology, or the
  /// recipient's in-flight buffer was wiped by a corruption event.
  [[nodiscard]] std::uint64_t messages_dropped() const { return messages_dropped_; }

  /// Corruption events that fired (== params.corruptions entries reached
  /// before the horizon) and the total victim count across them.
  [[nodiscard]] std::uint64_t corruption_events_fired() const {
    return corruption_events_fired_;
  }
  [[nodiscard]] std::uint64_t nodes_corrupted() const { return nodes_corrupted_; }

  /// Called after every dispatched event; used by the skew tracker to sample
  /// at exactly the moments state can change.
  void set_post_event_hook(std::function<void(const Simulator&)> hook);

 private:
  friend class Context;
  friend class AdversaryContext;

  /// Lifecycle of one timer id in the flat state table. Armed states encode
  /// the dispatch target; a fired or cancel-consumed timer is retired to
  /// kFired, so the table holds exactly one byte per timer ever armed and no
  /// tombstone set can grow unboundedly.
  enum class TimerState : std::uint8_t {
    kArmedProcess,
    kArmedStart,
    kArmedStop,  // churn: node goes down, replacement armed for the rejoin
    kArmedAdversary,
    kArmedEpoch,    // topology schedule: the owner slot holds the epoch index
    kArmedCorrupt,  // corruption event: the owner slot holds the event index
    kArmedTick,     // hardware ticker: auto re-arms, immune to corruption
    kCancelled,
    kFired,
  };

  struct Node {
    std::optional<HardwareClock> hw;
    std::optional<LogicalClock> logical;
    std::unique_ptr<Process> process;
    std::optional<Context> ctx;
    std::optional<Rng> rng;
    bool corrupt = false;
    RealTime start_time = 0;
    bool started = false;
    /// Corrupted receive buffer: deliveries sent strictly before this real
    /// time are dropped on arrival (-1 = never; the corruption-free path
    /// costs one always-false compare).
    RealTime purge_before = -1;
    /// Earliest time trim_clocks next releases this node's clock history.
    RealTime trim_due = 0;
    /// Hardware ticker interval (0 = no ticker; see Context::start_ticker).
    Duration ticker_interval = 0;
  };

  /// One scheduled churn restart (schedule_restart).
  struct Restart {
    NodeId node = 0;
    RealTime down_at = 0;
    RealTime up_at = 0;
    ProcessBuilder rebuild;
    TimerId stop_timer = 0;  // assigned when the simulation starts
  };

  void dispatch(const Event& ev);
  /// Releases node `id`'s clock history before `now_`, the oldest time any
  /// reader can still query it at (time only moves forward). Called for the
  /// node of each dispatched event and acting at most once per tdel per
  /// node, so per-node clock state stays a few segments and pieces however
  /// long the run.
  void trim_clocks(NodeId id);

  // Context plumbing.
  /// Unicast entry point: checks the topology link (off-graph sends drop).
  void honest_send(NodeId from, NodeId to, const Message& m);
  /// Pre-shared overload: Context::broadcast interns the message once and
  /// fans the same immutable payload out to every recipient. Trusts the
  /// caller to respect the topology (the fan-out loop visits neighbors
  /// only), keeping the per-recipient path free of adjacency checks.
  void honest_send(NodeId from, NodeId to, std::shared_ptr<const Message> msg);
  /// Broadcast fan-out on a non-complete topology: self plus neighbors.
  void sparse_fan_out(NodeId from, const Topology& topo,
                      const std::shared_ptr<const Message>& msg);
  /// kSampled: fills sample_scratch_ with this broadcast's recipients —
  /// params.sample_size distinct draws from the sender's domain (neighbor
  /// row, or everyone else on the complete graph), sorted ascending, self
  /// excluded. Returns false WITHOUT consuming draws when the domain is no
  /// larger than the sample; the caller falls back to the full fan-out.
  bool sample_broadcast_targets(NodeId from);
  /// Broadcast fan-out under kSampled: self plus the sampled peer set.
  void sampled_fan_out(NodeId from, const std::shared_ptr<const Message>& msg);
  void adversary_send(NodeId from, NodeId to, std::shared_ptr<const Message> msg,
                      RealTime deliver_at);
  TimerId arm_timer(NodeId node, RealTime fire_at,
                    TimerState kind = TimerState::kArmedProcess);
  void cancel_timer(TimerId id);
  [[nodiscard]] TimerState& timer_state(TimerId id);
  void start_ticker(NodeId id, Duration hw_interval);
  /// Fires corruption event `idx`: picks the victim subset with the
  /// dedicated corruption stream and scrambles each victim's memory.
  void apply_corruption(std::size_t idx);

  SimParams params_;
  /// Graph live right now (params_.topology until the first epoch switch);
  /// every broadcast fan-out, link check, and adversary send reads this one
  /// pointer, so the static path costs exactly what it did pre-schedule.
  const Topology* topo_now_ = nullptr;
  std::size_t epoch_ = 0;
  std::vector<Node> nodes_;
  std::vector<NodeId> honest_ids_;
  std::unique_ptr<DelayPolicy> delays_;
  const crypto::KeyRegistry* registry_;
  std::vector<crypto::Signer> signers_;  // index = node id

  std::unique_ptr<Adversary> adversary_;
  std::optional<AdversaryContext> adv_ctx_;
  std::optional<Rng> adv_rng_;

  EventQueue queue_;
  RealTime now_ = 0;
  bool started_ = false;
  std::uint64_t events_dispatched_ = 0;
  NodeId last_event_node_ = kNoNode;
  std::uint64_t messages_dropped_ = 0;
  TimerId next_timer_id_ = 1;
  /// Flat timer-state table, indexed by TimerId - 1 (ids are allocated
  /// sequentially from 1); replaces the cancelled/start/adversary lookup
  /// maps with one byte-per-timer array access.
  std::vector<TimerState> timer_states_;
  /// Owner of each armed timer (parallel to timer_states_): lets a churn
  /// stop event cancel exactly the departing node's pending process timers.
  std::vector<NodeId> timer_owners_;
  std::vector<Restart> restarts_;
  std::optional<Rng> net_rng_;
  /// Corruption draws come from their own stream, derived from the seed but
  /// OUTSIDE the root fork sequence (net, adversary, per-node): enabling
  /// corruption must not perturb any other stream, and with it disabled no
  /// stream is even created. Engaged only when params.corruptions is
  /// non-empty.
  std::optional<Rng> corrupt_rng_;
  /// Peer draws for kSampled broadcasts, likewise derived from the seed
  /// outside the root fork sequence and created only in sampled mode — full
  /// and neighbors runs stay bit-identical to the pre-fabric engine.
  std::optional<Rng> bcast_rng_;
  /// Recipient scratch for sampled fan-outs (capacity sample_size, reused).
  std::vector<NodeId> sample_scratch_;
  /// Mutable CSR copy backing the partial Fisher–Yates sampled draws (only
  /// built once a sampled run actually draws with sample_size >=
  /// kFisherYatesMinSample on a sparse graph; see broadcast_sample.h). Rows
  /// are left permuted between draws — same id set, order evolving — which
  /// keeps every draw O(m) while the seed -> sample-sequence mapping stays a
  /// pure function of (seed, topology, draw order).
  std::vector<std::uint64_t> fy_offsets_;
  std::vector<NodeId> fy_rows_;
  const Topology* fy_src_ = nullptr;
  std::uint64_t corruption_events_fired_ = 0;
  std::uint64_t nodes_corrupted_ = 0;

  MessageCounters counters_;
  std::function<void(const Simulator&)> post_event_hook_;
  std::function<bool(NodeId)> include_probe_;
};

}  // namespace stclock
