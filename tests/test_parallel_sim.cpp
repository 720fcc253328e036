#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "golden_specs.h"
#include "resultstore/codec.h"
#include "scenfile/scenfile.h"

/// Bit-identity suite for the lookahead-windowed parallel engine.
///
/// The contract under test: for any scenario the registry can express,
/// running with sim_threads in {2, 4, 8} must produce a ScenarioResult whose
/// resultstore encoding is byte-for-byte equal to the sequential engine's —
/// same skew series, same pulse times, same message/byte/event counters,
/// same stabilization verdicts. The corpus is the golden registry
/// (tests/golden_specs.h): every topology kind, both broadcast fan-out
/// variants plus sampled mode, joiners, churn, partitions, dynamic epochs,
/// and state corruption.
///
/// Two deliberate corpus edits:
///  - delay is forced to "half" (FixedDelay tdel/2), the registry's only
///    positive-min_delay policies being half/max. The default uniform draw
///    has min_delay 0 and must instead take the loud sequential fallback —
///    pinned separately below.
///  - specs with an adversary (corrupt nodes) keep whatever engine the
///    fallback picks; the adversary's omniscient API is sequential-only, so
///    these rows pin the fallback path rather than the parallel one.
namespace stclock::experiment {
namespace {

ScenarioResult run_with_threads(ScenarioSpec spec, std::uint32_t threads) {
  spec.sim_threads = threads;
  return run_scenario(spec);
}

std::vector<ScenarioSpec> parallel_corpus() {
  std::vector<ScenarioSpec> specs = golden::specs();
  for (ScenarioSpec& spec : specs) spec.delay = DelayKind::kHalf;
  return specs;
}

// Mirrors the engine's parallel precondition: an adversary OBJECT disables
// windows. kCrash corrupts nodes but installs no strategy (make_attack
// returns null — crashed nodes are simply inert), so it stays parallel.
bool has_adversary_object(const ScenarioSpec& spec) {
  return spec.attack != AttackKind::kNone && spec.attack != AttackKind::kCrash &&
         (spec.corrupt_override > 0 || spec.cfg.f > 0);
}

TEST(ParallelSim, RegistryWideBitIdenticalToSequential) {
  const std::vector<ScenarioSpec> specs = parallel_corpus();
  ASSERT_FALSE(specs.empty());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioResult seq = run_with_threads(specs[i], 1);
    const auto seq_bytes = resultstore::encode_result(seq);
    const bool has_adversary = has_adversary_object(specs[i]);
    for (const std::uint32_t threads : {2u, 4u, 8u}) {
      const ScenarioResult par = run_with_threads(specs[i], threads);
      EXPECT_EQ(resultstore::encode_result(par), seq_bytes)
          << "spec " << i << " (" << specs[i].protocol << ", seed "
          << specs[i].seed << ") diverged at sim_threads=" << threads;
      if (has_adversary) {
        EXPECT_EQ(par.parallel_windows, 0u)
            << "spec " << i << ": adversarial runs must fall back to sequential";
      } else {
        EXPECT_GT(par.parallel_windows, 0u)
            << "spec " << i << ": parallel engine never engaged at sim_threads="
            << threads;
      }
    }
  }
}

// The skew tracker's complete-graph index follows the parallel commit
// replay event by event (Simulator::last_event_node is set for every
// replayed record), so a complete-graph golden run re-reads the fleet as
// rarely in parallel as sequentially — at its first sample only — and its
// bytes stay equal.
TEST(ParallelSim, CompleteGraphSkewIndexStaysIncremental) {
  const std::vector<ScenarioSpec> specs = parallel_corpus();
  std::size_t checked = 0;
  for (const ScenarioSpec& spec : specs) {
    if (spec.topology != TopologyKind::kComplete || !spec.topology_events.empty() ||
        has_adversary_object(spec) || !spec.corrupt_at.empty()) {
      continue;
    }
    const ScenarioResult seq = run_with_threads(spec, 1);
    ASSERT_EQ(seq.skew_rebuilds, 1u);
    for (const std::uint32_t threads : {2u, 4u}) {
      const ScenarioResult par = run_with_threads(spec, threads);
      EXPECT_GT(par.parallel_windows, 0u);
      EXPECT_EQ(par.skew_rebuilds, seq.skew_rebuilds)
          << spec.protocol << " seed " << spec.seed << " at sim_threads=" << threads;
      EXPECT_EQ(resultstore::encode_result(par), resultstore::encode_result(seq));
    }
    ++checked;
  }
  EXPECT_GE(checked, 1u);
}

// The corruption + churn + sampled-broadcast combination in one run: the
// three workloads with the most engine-side mutable state (purge scans,
// restart timers, the dedicated broadcast RNG stream) interacting.
TEST(ParallelSim, CorruptionChurnSampledComboIsBitIdentical) {
  ScenarioSpec spec;
  spec.protocol = "auth_stab";
  spec.cfg.n = 9;
  spec.cfg.f = 0;
  spec.cfg.rho = 1e-4;
  spec.cfg.tdel = 0.01;
  spec.cfg.period = 1.0;
  spec.cfg.initial_sync = 0.005;
  spec.seed = 21;
  spec.horizon = 18.0;
  spec.drift = DriftKind::kRandomWalk;
  spec.delay = DelayKind::kHalf;
  spec.broadcast_mode = BroadcastMode::kSampled;
  spec.sample_size = 4;
  spec.churn_nodes = 2;
  spec.churn_leave = 3.0;
  spec.churn_rejoin = 6.0;
  spec.corrupt_at = {9.25};
  spec.corrupt_fraction = 0.5;

  const ScenarioResult seq = run_with_threads(spec, 1);
  const auto seq_bytes = resultstore::encode_result(seq);
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    const ScenarioResult par = run_with_threads(spec, threads);
    EXPECT_GT(par.parallel_windows, 0u);
    EXPECT_EQ(resultstore::encode_result(par), seq_bytes)
        << "combo diverged at sim_threads=" << threads;
  }
}

// delay=max is the other positive-min_delay policy; the window then spans a
// full tdel, the widest the contract allows.
TEST(ParallelSim, MaxDelayWindowsAreBitIdentical) {
  ScenarioSpec spec;
  spec.protocol = "auth";
  spec.cfg.n = 8;
  spec.cfg.f = 0;
  spec.cfg.rho = 1e-4;
  spec.cfg.tdel = 0.01;
  spec.cfg.period = 1.0;
  spec.cfg.initial_sync = 0.005;
  spec.seed = 22;
  spec.horizon = 8.0;
  spec.delay = DelayKind::kMax;
  spec.topology = TopologyKind::kExpander;
  spec.expander_k = 4;
  spec.broadcast_mode = BroadcastMode::kNeighbors;

  const ScenarioResult seq = run_with_threads(spec, 1);
  const ScenarioResult par = run_with_threads(spec, 8);
  EXPECT_GT(par.parallel_windows, 0u);
  EXPECT_EQ(resultstore::encode_result(par), resultstore::encode_result(seq));
}

// A zero-min_delay policy must NOT deadlock or silently serialize window by
// window: the engine refuses parallel mode up front (stderr notice), runs
// the plain sequential path, and the results match sim_threads=1 exactly.
TEST(ParallelSim, ZeroMinDelayFallsBackLoudly) {
  ScenarioSpec spec;
  spec.protocol = "auth";
  spec.cfg.n = 7;
  spec.cfg.f = 0;
  spec.cfg.rho = 1e-4;
  spec.cfg.tdel = 0.01;
  spec.cfg.period = 1.0;
  spec.cfg.initial_sync = 0.005;
  spec.seed = 23;
  spec.horizon = 6.0;
  spec.delay = DelayKind::kUniform;  // lower bound 0 => no lookahead

  const ScenarioResult seq = run_with_threads(spec, 1);
  const ScenarioResult par = run_with_threads(spec, 8);
  EXPECT_EQ(par.parallel_windows, 0u) << "zero lookahead must disable windows";
  EXPECT_EQ(resultstore::encode_result(par), resultstore::encode_result(seq));
}

// The scenfile knob round-trips and rejects nonsense.
TEST(ParallelSim, ScenfileKnobRoundTrips) {
  ScenarioSpec spec;
  spec.protocol = "auth";
  spec.sim_threads = 8;
  const std::string json = scenfile::spec_to_json(spec);
  const ScenarioSpec back = scenfile::parse_spec(json, "roundtrip");
  EXPECT_EQ(back.sim_threads, 8u);

  EXPECT_THROW(scenfile::parse_spec(
                   R"({"protocol": "auth", "sim_threads": 0})", "bad"),
               std::exception);
  EXPECT_THROW(scenfile::parse_spec(
                   R"({"protocol": "auth", "sim_threads": 65})", "bad"),
               std::exception);
}

}  // namespace
}  // namespace stclock::experiment
