#include "adversary/delay_policies.h"

#include <algorithm>
#include <cmath>

#include "util/contracts.h"

namespace stclock {

SplitDelay::SplitDelay(std::vector<NodeId> slow_targets) : slow_(std::move(slow_targets)) {
  std::sort(slow_.begin(), slow_.end());
}

Duration SplitDelay::delay(NodeId /*from*/, NodeId to, RealTime /*now*/, Duration tdel,
                           Rng& /*rng*/) {
  return std::binary_search(slow_.begin(), slow_.end(), to) ? tdel : 0.0;
}

AlternatingDelay::AlternatingDelay(Duration interval) : interval_(interval) {
  ST_REQUIRE(interval > 0, "AlternatingDelay: interval must be positive");
}

Duration AlternatingDelay::delay(NodeId /*from*/, NodeId to, RealTime now, Duration tdel,
                                 Rng& /*rng*/) {
  const auto phase = static_cast<std::uint64_t>(std::floor(now / interval_));
  const bool odd_slow = (phase % 2) == 0;
  const bool to_odd = (to % 2) == 1;
  return (to_odd == odd_slow) ? tdel : 0.0;
}

CutDelay::CutDelay(std::vector<bool> in_side_a, RealTime start, RealTime end,
                   std::unique_ptr<DelayPolicy> base)
    : in_a_(std::move(in_side_a)), start_(start), end_(end), base_(std::move(base)) {
  bool any = false;
  for (const bool member : in_a_) any = any || member;
  ST_REQUIRE(any, "CutDelay: side A must be non-empty");
  ST_REQUIRE(start >= 0 && end > start, "CutDelay: need 0 <= start < end");
  ST_REQUIRE(base_ != nullptr, "CutDelay: base policy required");
}

Duration CutDelay::delay(NodeId from, NodeId to, RealTime now, Duration tdel, Rng& rng) {
  ST_REQUIRE(cut_ != nullptr, "CutDelay: on_topology must run before traffic flows");
  // The cut schedule is the single source of truth for which links the cut
  // permits at time t: a send whose link is missing is lost in transit.
  if (!cut_->adjacent_at(now, from, to)) return kDropMessage;
  return base_->delay(from, to, now, tdel, rng);
}

void CutDelay::on_topology(const Topology& topo) {
  // Compile the cut as a topology schedule over the complete graph on the
  // fleet: full until the window opens, cross-cut links removed inside it,
  // full again once it heals. The run's actual graph is enforced by the
  // simulator itself, so only the cut's own prohibitions live here.
  const std::uint32_t n = topo.n();
  std::vector<std::pair<NodeId, NodeId>> kept;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (in_a(a) == in_a(b)) kept.emplace_back(a, b);
    }
  }
  const auto full = std::make_shared<const Topology>(Topology::complete(n));
  const auto cut_graph = std::make_shared<const Topology>(Topology::from_edges(n, kept));
  TopologySchedule schedule;
  if (start_ > 0) {
    schedule.set_graph(start_, cut_graph);
    schedule.set_graph(end_, full);
    cut_ = std::make_shared<const CompiledTopologySchedule>(schedule.compile(full));
  } else {
    // A cut open from time 0: the cut graph IS the base epoch.
    schedule.set_graph(end_, full);
    cut_ = std::make_shared<const CompiledTopologySchedule>(schedule.compile(cut_graph));
  }
  base_->on_topology(topo);
}

void CutDelay::on_topology_change(const Topology& topo, RealTime at) {
  // The cut is a node-set cut — independent of which links the live graph
  // happens to have — so only the base policy needs to hear about epochs.
  base_->on_topology_change(topo, at);
}

PartitionDelay::PartitionDelay(std::uint32_t group_a, RealTime start, RealTime end,
                               std::unique_ptr<DelayPolicy> base)
    : CutDelay(std::vector<bool>(group_a, true), start, end, std::move(base)) {}

}  // namespace stclock
