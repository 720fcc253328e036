#pragma once

#include <memory>
#include <vector>

#include "sim/network.h"
#include "sim/topology_schedule.h"

/// Adversarial delay policies: skew-maximizing assignments of honest-to-
/// honest message delays within the model's [0, tdel].
namespace stclock {

/// Messages to nodes in `slow_targets` take the full tdel; everything else
/// is instantaneous. Maximizes the spread of acceptance times.
class SplitDelay final : public DelayPolicy {
 public:
  explicit SplitDelay(std::vector<NodeId> slow_targets);
  [[nodiscard]] Duration delay(NodeId from, NodeId to, RealTime now, Duration tdel,
                               Rng& rng) override;

 private:
  std::vector<NodeId> slow_;
};

/// Alternates which half of the nodes is slow, switching every `interval`
/// of real time — the lagging group changes between rounds, which stresses
/// the precision analysis harder than a static split.
class AlternatingDelay final : public DelayPolicy {
 public:
  explicit AlternatingDelay(Duration interval);
  [[nodiscard]] Duration delay(NodeId from, NodeId to, RealTime now, Duration tdel,
                               Rng& rng) override;

 private:
  Duration interval_;
};

/// Windowed topology cut (dynamic networks, outside the ST model): during
/// [start, end) every message crossing the cut between the member set
/// (`in_side_a[id]` true) and its complement is dropped (kDropMessage); all
/// other traffic — and all traffic once the cut heals — is delegated to the
/// base policy. Nodes beyond the membership vector are on side B, so any
/// node-set cut of any topology is expressible.
///
/// Since the topology-schedule refactor this is a thin wrapper over a
/// compiled TopologySchedule: on_topology() compiles a three-epoch schedule
/// over the complete graph — full / cross-cut links removed / full again —
/// and delay() drops exactly the sends whose link is missing at their send
/// time. "Which links exist at time t" therefore has a single source of
/// truth, shared with the simulator's own dynamic-graph machinery. The cut
/// schedule is built over the COMPLETE graph on n nodes deliberately: the
/// simulator already enforces the run's actual (possibly itself dynamic)
/// topology, so the policy only encodes what the cut forbids, and the two
/// compose.
class CutDelay : public DelayPolicy {
 public:
  CutDelay(std::vector<bool> in_side_a, RealTime start, RealTime end,
           std::unique_ptr<DelayPolicy> base);
  [[nodiscard]] Duration delay(NodeId from, NodeId to, RealTime now, Duration tdel,
                               Rng& rng) override;
  /// Compiles the cut schedule (needs the fleet size) and forwards to the
  /// base policy. Must run before any delay() call — the simulator
  /// guarantees this for every run with a topology, which the scenario
  /// engine always installs.
  void on_topology(const Topology& topo) override;
  void on_topology_change(const Topology& topo, RealTime at) override;  // forwarded

 private:
  [[nodiscard]] bool in_a(NodeId id) const {
    return id < in_a_.size() && in_a_[id];
  }

  std::vector<bool> in_a_;
  RealTime start_, end_;
  std::unique_ptr<DelayPolicy> base_;
  /// full -> cut -> full epochs; null until on_topology().
  std::shared_ptr<const CompiledTopologySchedule> cut_;
};

/// The PR-3 partition/heal workload, now a special case of a topology cut:
/// side A is the contiguous prefix [0, group_a).
class PartitionDelay final : public CutDelay {
 public:
  PartitionDelay(std::uint32_t group_a, RealTime start, RealTime end,
                 std::unique_ptr<DelayPolicy> base);
};

}  // namespace stclock
