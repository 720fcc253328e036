#pragma once

// Workloads and engine set-up shared by the end-to-end runner and the traced
// harness. Everything here goes through the simulator's public functions, in
// the order run_scenario performs its own set-up, so a set-up built here
// consumes the same random streams and yields the same run.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "adversary/strategies.h"
#include "core/joiner.h"
#include "core/sync_protocol.h"
#include "core/theory.h"
#include "crypto/signature.h"
#include "experiment/environment.h"
#include "experiment/scenario.h"
#include "sim/simulator.h"
#include "sim/topology.h"

namespace perfbench {

using namespace stclock;

/// The four benchmark workloads, all `auth` with rho = 1e-4, tdel = 0.01,
/// P = 1 and initial_sync = 0.005. The seed feeds both the scenario seed and
/// the topology seed; sim_threads stays at the spec default.
inline std::optional<experiment::ScenarioSpec> workload_spec(std::string_view name,
                                                             std::uint64_t seed) {
  experiment::ScenarioSpec spec;
  spec.protocol = "auth";
  spec.cfg.rho = 1e-4;
  spec.cfg.tdel = 0.01;
  spec.cfg.period = 1.0;
  spec.cfg.initial_sync = 0.005;
  spec.cfg.f = 0;
  spec.seed = seed;
  spec.topology_seed = seed;
  spec.delay = DelayKind::kUniform;
  const auto sparse = [&spec](std::uint32_t n, RealTime horizon) {
    spec.cfg.n = n;
    spec.horizon = horizon;
    spec.topology = TopologyKind::kExpander;
    spec.expander_k = 8;
    spec.broadcast_mode = BroadcastMode::kSampled;
    spec.sample_size = 8;
    spec.delay = DelayKind::kHalf;
  };
  if (name == "dense_n300") {
    spec.cfg.n = 300;
    spec.horizon = 5;
  } else if (name == "sparse_n1e5") {
    sparse(100000, 5);
  } else if (name == "soak_n4096") {
    sparse(4096, 100);
  } else if (name == "byzantine_n300") {
    // The paper's resilience limit for signatures: f = ceil(n/2) - 1, every
    // faulty node forging signatures for honest signers.
    spec.cfg.n = 300;
    spec.cfg.f = 149;
    spec.attack = AttackKind::kForge;
    spec.horizon = 10;
  } else {
    return std::nullopt;
  }
  return spec;
}

inline double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
}

/// This process's resident-set high-water mark.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KB
}

/// Host seconds spent in each public set-up call.
struct SetupTimes {
  double validate = 0;
  double topology = 0;
  double clocks = 0;
  double keys = 0;
  double simulator = 0;
  double processes = 0;
};

/// Optional wrappers the traced harness installs around each layer's
/// public interface; an empty function leaves the layer as built.
struct Decorators {
  std::function<std::unique_ptr<DelayPolicy>(std::unique_ptr<DelayPolicy>)> delay;
  std::function<std::unique_ptr<BroadcastPrimitive>(std::unique_ptr<BroadcastPrimitive>)>
      primitive;
  std::function<std::unique_ptr<Process>(std::unique_ptr<Process>)> process;
  std::function<std::unique_ptr<Adversary>(std::unique_ptr<Adversary>)> adversary;
};

/// A simulation set up to its first event, as run_scenario sets it up for
/// the workloads' feature subset (static topology, no joiners, churn,
/// partition or state corruption). Callbacks hold `this`, so it is neither
/// copied nor moved.
class Engine {
 public:
  Engine(const experiment::ScenarioSpec& requested, const Decorators& deco) {
    using Clock = std::chrono::steady_clock;
    spec = experiment::resolved_spec(requested);
    const SyncConfig& cfg = spec.cfg;

    auto t = Clock::now();
    experiment::validate_spec(spec, experiment::EngineMode::kSyncProtocol);
    times.validate = seconds_since(t);

    t = Clock::now();
    topology = experiment::build_topology(spec.topology, cfg.n, spec.gnp_p,
                                          spec.topology_seed, spec.expander_k);
    times.topology = seconds_since(t);
    bounds = theory::derive_bounds(cfg);

    t = Clock::now();
    Rng rng(spec.seed);
    std::vector<HardwareClock> clocks = experiment::build_clock_fleet(
        spec.drift, cfg.n, cfg.rho, cfg.initial_sync, spec.horizon, cfg.period, rng);
    times.clocks = seconds_since(t);

    t = Clock::now();
    registry = std::make_unique<crypto::KeyRegistry>(cfg.n, spec.seed ^ 0x5eedULL);
    times.keys = seconds_since(t);

    t = Clock::now();
    SimParams params;
    params.n = cfg.n;
    params.tdel = cfg.tdel;
    params.seed = rng.next_u64();
    params.topology = topology;
    params.broadcast_mode = spec.broadcast_mode;
    params.sample_size = spec.sample_size;
    const auto rounds_budget = static_cast<std::uint64_t>(spec.horizon / cfg.period) + 2;
    params.max_events =
        std::max<std::uint64_t>(params.max_events, 256ULL * cfg.n * rounds_budget);
    std::unique_ptr<DelayPolicy> delay =
        experiment::build_delay_policy(spec.delay, cfg.n, cfg.period, spec.seed);
    if (deco.delay) delay = deco.delay(std::move(delay));
    sim = std::make_unique<Simulator>(params, std::move(clocks), std::move(delay),
                                      registry.get());
    times.simulator = seconds_since(t);

    t = Clock::now();
    // Corrupted nodes take the highest ids, as in the engine.
    const std::uint32_t corrupt_count = spec.attack == AttackKind::kNone ? 0 : cfg.f;
    honest_count = cfg.n - corrupt_count;
    if (corrupt_count > 0) {
      std::vector<NodeId> corrupt;
      for (NodeId id = honest_count; id < cfg.n; ++id) corrupt.push_back(id);
      AttackParams attack;
      attack.period = cfg.period;
      attack.nominal_delay = cfg.tdel / 2;
      attack.max_round = static_cast<Round>(spec.horizon / bounds.min_period) + 8;
      attack.variant = cfg.variant;
      std::unique_ptr<Adversary> adversary = make_attack(spec.attack, attack);
      if (adversary && deco.adversary) adversary = deco.adversary(std::move(adversary));
      sim->set_adversary(std::move(corrupt), std::move(adversary));
    }
    pulses.resize(cfg.n);
    protocols.assign(cfg.n, nullptr);
    const std::uint32_t fanin = experiment::broadcast_fanin(spec);
    for (NodeId id = 0; id < honest_count; ++id) {
      // What the registry's "auth" factory builds (make_sync_process), with
      // the primitive exposed so it can be wrapped.
      std::unique_ptr<BroadcastPrimitive> primitive = make_primitive(cfg, fanin);
      if (deco.primitive) primitive = deco.primitive(std::move(primitive));
      auto sync = std::make_unique<SyncProtocol>(cfg, std::move(primitive));
      protocols[id] = sync.get();
      sync->set_pulse_observer([this](NodeId node, Round round) {
        pulses[node][round] = sim->now();
      });
      std::unique_ptr<Process> process = std::move(sync);
      if (deco.process) process = deco.process(std::move(process));
      sim->set_process(id, std::move(process));
    }
    times.processes = seconds_since(t);
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  experiment::ScenarioSpec spec;
  theory::Bounds bounds;
  SetupTimes times;
  std::shared_ptr<const Topology> topology;
  std::unique_ptr<crypto::KeyRegistry> registry;
  std::unique_ptr<Simulator> sim;
  std::uint32_t honest_count = 0;
  std::vector<SyncProtocol*> protocols;
  /// Pulse real times per node and round, the engine's pulse log.
  std::vector<std::map<Round, RealTime>> pulses;
};

/// A lower bound on the graph diameter: the eccentricity of the node
/// farthest from node 0 (a double BFS sweep). Used by the sparse skew
/// envelope, which it makes no looser than the exact diameter would.
inline std::uint32_t diameter_lower_bound(const Topology& topo) {
  if (topo.is_complete()) return topo.n() > 1 ? 1 : 0;
  const auto sweep = [&topo](NodeId src) {
    std::vector<std::uint32_t> dist(topo.n(), UINT32_MAX);
    std::vector<NodeId> frontier = {src};
    std::vector<NodeId> next;
    dist[src] = 0;
    std::pair<NodeId, std::uint32_t> far{src, 0};
    while (!frontier.empty()) {
      next.clear();
      for (const NodeId a : frontier) {
        const auto [nbrs, degree] = topo.neighbor_span(a);
        for (std::size_t i = 0; i < degree; ++i) {
          if (dist[nbrs[i]] != UINT32_MAX) continue;
          dist[nbrs[i]] = dist[a] + 1;
          far = {nbrs[i], dist[a] + 1};
          next.push_back(nbrs[i]);
        }
      }
      frontier.swap(next);
    }
    return far;
  };
  return sweep(sweep(0).first).second;
}

}  // namespace perfbench
