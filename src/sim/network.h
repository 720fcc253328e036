#pragma once

#include <memory>

#include "util/rng.h"
#include "util/types.h"

/// Delay policies: the adversary's control over honest-to-honest message
/// delays. The model guarantees only that any message between correct
/// processes is delivered within tdel; *which* delay in [0, tdel] each
/// message gets is adversarial. A DelayPolicy encodes one such strategy.
/// Policies returning values outside [0, tdel] are clamped (and this is a
/// contract violation caught in debug checks).
///
/// Policies are *link-keyed*: delay() receives the directed link (from, to),
/// so a policy may treat every link independently (see LinkDelay). Policies
/// that need the network graph itself override on_topology(), which the
/// simulator calls once before any traffic flows.
namespace stclock {

class Topology;

/// Sentinel a DelayPolicy may return instead of a delay: the message is lost.
/// This steps OUTSIDE the Srikanth–Toueg model (which guarantees delivery
/// within tdel between correct processes); it exists for the dynamic-network
/// workloads — partitions that later heal — where the paper's liveness
/// guarantees are deliberately suspended for a window.
inline constexpr Duration kDropMessage = -1.0;

class DelayPolicy {
 public:
  virtual ~DelayPolicy() = default;

  /// Delay for a message on the directed link from honest `from` to honest
  /// `to`, sent at `now`. Must lie in [0, tdel], or be exactly kDropMessage
  /// to lose the message.
  [[nodiscard]] virtual Duration delay(NodeId from, NodeId to, RealTime now, Duration tdel,
                                       Rng& rng) = 0;

  /// Lower bound on every value delay() can return for the given tdel. No
  /// engine reads it: the simulator is sequential. Kept because perfbench's
  /// traced runner overrides it in its timing wrapper; delete it with that
  /// override at the benchmark's next change.
  [[nodiscard]] virtual Duration min_delay(Duration tdel) const {
    (void)tdel;
    return 0.0;
  }

  /// Called once by the simulator, before any delay() call, when the run has
  /// an explicit topology. The default keeps node-keyed policies working
  /// bit-exactly as before; override to size per-link state or key decisions
  /// on the graph. `topo` outlives the simulation.
  virtual void on_topology(const Topology& topo) { (void)topo; }

  /// Called at every topology-schedule epoch switch (dynamic runs only; a
  /// static run never calls this) with the graph that just went live, before
  /// any delay() at or after `at`. Policies that cached per-link state from
  /// on_topology() refresh it here. `topo` outlives the epoch.
  virtual void on_topology_change(const Topology& topo, RealTime at) {
    (void)topo;
    (void)at;
  }
};

/// Every message takes exactly `fraction * tdel`.
class FixedDelay final : public DelayPolicy {
 public:
  explicit FixedDelay(double fraction);
  [[nodiscard]] Duration delay(NodeId, NodeId, RealTime, Duration tdel, Rng&) override;

 private:
  double fraction_;
};

/// Delay uniform in [lo_fraction, hi_fraction] * tdel.
class UniformDelay final : public DelayPolicy {
 public:
  UniformDelay(double lo_fraction, double hi_fraction);
  [[nodiscard]] Duration delay(NodeId, NodeId, RealTime, Duration tdel, Rng& rng) override;

 private:
  double lo_, hi_;
};

/// Heterogeneous per-link latency: each *directed* link (from, to) gets its
/// own fixed fraction of tdel, drawn once by hashing (seed, from, to) into
/// [lo_fraction, hi_fraction]. Models a WAN where every link has a stable
/// but different latency — the simplest genuinely link-keyed policy, and
/// stateless: no table, so it works for any n and any topology.
class LinkDelay final : public DelayPolicy {
 public:
  LinkDelay(double lo_fraction, double hi_fraction, std::uint64_t seed);
  [[nodiscard]] Duration delay(NodeId from, NodeId to, RealTime, Duration tdel,
                               Rng&) override;

 private:
  double lo_, hi_;
  std::uint64_t seed_;
};

}  // namespace stclock
