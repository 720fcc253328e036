#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "broadcast/echo_broadcast.h"
#include "clocks/drift_models.h"
#include "core/sync_protocol.h"
#include "sim/simulator.h"
#include "sim/topology_schedule.h"
#include "trace/envelope.h"
#include "trace/skew_tracker.h"

namespace stclock {
namespace {

Simulator make_sim(std::vector<HardwareClock> clocks) {
  SimParams params;
  params.n = static_cast<std::uint32_t>(clocks.size());
  params.tdel = 0.01;
  params.seed = 1;
  return Simulator(params, std::move(clocks), std::make_unique<FixedDelay>(0.0), nullptr);
}

class Idle final : public Process {
 public:
  void on_start(Context&) override {}
  void on_message(Context&, NodeId, const Message&) override {}
  void on_timer(Context&, TimerId) override {}
};

TEST(SkewTrackerTest, MeasuresSpreadOfFreeRunningClocks) {
  std::vector<HardwareClock> clocks;
  clocks.emplace_back(0.0, 1.01);   // fast
  clocks.emplace_back(0.0, 0.99);   // slow
  Simulator sim = make_sim(std::move(clocks));
  sim.set_process(0, std::make_unique<Idle>());
  sim.set_process(1, std::make_unique<Idle>());

  SkewTracker tracker(0.1);
  for (double t = 0.5; t <= 10.0; t += 0.5) {
    sim.run_until(t);
    tracker.sample(sim);
  }
  // Spread at t: (1.01 - 0.99) * t = 0.02 t -> max at t = 10.
  EXPECT_NEAR(tracker.max_skew(), 0.2, 1e-9);
  EXPECT_NEAR(tracker.max_skew_time(), 10.0, 1e-9);
}

TEST(SkewTrackerTest, SteadyWindowIgnoresEarlySamples) {
  std::vector<HardwareClock> clocks;
  clocks.emplace_back(0.3, 1.0);  // offset that will persist
  clocks.emplace_back(0.0, 1.0);
  Simulator sim = make_sim(std::move(clocks));
  sim.set_process(0, std::make_unique<Idle>());
  sim.set_process(1, std::make_unique<Idle>());

  SkewTracker tracker(0.1);
  tracker.set_steady_start(5.0);
  for (double t = 0.5; t <= 10.0; t += 0.5) {
    sim.run_until(t);
    tracker.sample(sim);
  }
  EXPECT_NEAR(tracker.steady_max_skew(), 0.3, 1e-9);
  EXPECT_NEAR(tracker.max_skew(), 0.3, 1e-9);
}

TEST(SkewTrackerTest, IncludeFilterExcludesNodes) {
  std::vector<HardwareClock> clocks;
  clocks.emplace_back(0.0, 1.0);
  clocks.emplace_back(5.0, 1.0);  // wild outlier, filtered out
  clocks.emplace_back(0.1, 1.0);
  Simulator sim = make_sim(std::move(clocks));
  for (NodeId id = 0; id < 3; ++id) sim.set_process(id, std::make_unique<Idle>());

  SkewTracker tracker(0.1, [](NodeId id) { return id != 1; });
  sim.run_until(1.0);
  tracker.sample(sim);
  EXPECT_NEAR(tracker.max_skew(), 0.1, 1e-9);
}

TEST(SkewTrackerTest, SeriesIsDecimated) {
  std::vector<HardwareClock> clocks;
  clocks.emplace_back(0.0, 1.0);
  clocks.emplace_back(0.0, 1.0);
  Simulator sim = make_sim(std::move(clocks));
  sim.set_process(0, std::make_unique<Idle>());
  sim.set_process(1, std::make_unique<Idle>());

  SkewTracker tracker(1.0);  // one-second series interval
  for (double t = 0.01; t <= 5.0; t += 0.01) {
    sim.run_until(t);
    tracker.sample(sim);
  }
  // ~5 series points despite 500 samples.
  EXPECT_LE(tracker.series().size(), 7u);
  EXPECT_GE(tracker.series().size(), 4u);
}

// --- Differential suite: the complete-graph index against a full scan ---
//
// Each case drives a SkewTracker from the post-event hook (or, once, from a
// step loop only) and after every sample recomputes the extremes by brute
// force over the same observe_* reads. The tracker's lo/hi must match
// bit for bit at every sample.

/// Keeps its clock moving: every 10-40 ms of hardware time it applies a
/// correction in [-0.02, 0.02] — instantly, or as a 50 ms amortized ramp
/// when `amortized` (ramps of either sign, slopes 0.6..1.4) — and
/// broadcasts, so every node sees a stream of deliveries. integrated()
/// turns true at its first correction (for include-probe cases).
class Jitter final : public Process {
 public:
  explicit Jitter(bool amortized = false) : amortized_(amortized) {}
  void on_start(Context& ctx) override { arm(ctx); }
  void on_message(Context&, NodeId, const Message&) override {}
  void on_timer(Context& ctx, TimerId) override {
    const LocalTime h = ctx.hardware_now();
    const Duration delta = ctx.rng().uniform(-0.02, 0.02);
    if (!amortized_) {
      ctx.logical().adjust_instant(h, delta);
    } else if (h >= ramp_end_) {
      ctx.logical().adjust_amortized(h, delta, kWindow);
      ramp_end_ = h + kWindow;
    }
    integrated_ = true;
    ctx.broadcast(Message(InitMsg{1}));
    arm(ctx);
  }
  [[nodiscard]] bool integrated() const { return integrated_; }

 private:
  static constexpr Duration kWindow = 0.05;
  void arm(Context& ctx) {
    (void)ctx.set_timer_at_hardware(ctx.hardware_now() + ctx.rng().uniform(0.01, 0.04));
  }
  bool amortized_;
  bool integrated_ = false;
  LocalTime ramp_end_ = 0;
};

/// Clocks well outside any rho: constant rates 1.05 and 0.95 for half the
/// fleet, random walks in [0.91, 1.1] (segments every ~0.2 s, whose
/// boundaries the bounds must survive) for the other half.
std::vector<HardwareClock> wild_clocks(std::uint32_t n) {
  Rng rng(99);
  std::vector<HardwareClock> clocks;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (i % 4 == 0) {
      clocks.emplace_back(0.001 * i, 1.05);
    } else if (i % 4 == 1) {
      clocks.emplace_back(0.001 * i, 0.95);
    } else {
      clocks.push_back(drift::random_walk(rng, 0.1, 0.01, 10.0, 0.2));
    }
  }
  return clocks;
}

SimParams differential_params(std::uint32_t n, std::uint32_t threads = 1) {
  SimParams params;
  params.n = n;
  params.tdel = 0.01;
  params.seed = 7;
  params.sim_threads = threads;
  return params;
}

/// Samples through a tracker and, at every sample it takes, checks its
/// extremes against a full scan. The series interval is 0, so the series
/// grows exactly when the tracker measured (decimation may skip samples).
class Differential {
 public:
  explicit Differential(std::function<bool(NodeId)> include = nullptr, Duration gap = 0)
      : include_(include), tracker_(0.0, std::move(include)) {
    tracker_.set_min_sample_gap(gap);
  }

  void sample(const Simulator& sim) {
    const std::size_t measured = tracker_.series().size();
    tracker_.sample(sim);
    if (tracker_.series().size() == measured) return;
    bool any = false;
    double lo = 0, hi = 0;
    for (NodeId id : sim.honest_ids()) {
      if (!sim.observe_started(id)) continue;
      if (include_ ? !include_(id) : !sim.observe_include(id)) continue;
      const double c = sim.observe_logical(id, sim.now());
      lo = any ? std::min(lo, c) : c;
      hi = any ? std::max(hi, c) : c;
      any = true;
    }
    ASSERT_TRUE(any);
    ++checked_;
    const auto [tlo, thi] = tracker_.last_extremes();
    if (std::bit_cast<std::uint64_t>(tlo) != std::bit_cast<std::uint64_t>(lo) ||
        std::bit_cast<std::uint64_t>(thi) != std::bit_cast<std::uint64_t>(hi)) {
      ADD_FAILURE() << "t=" << sim.now() << " index [" << tlo << ", " << thi
                    << "] vs scan [" << lo << ", " << hi << "]";
    }
  }
  void install(Simulator& sim) {
    sim.set_post_event_hook([this](const Simulator& s) { sample(s); });
  }

  [[nodiscard]] const SkewTracker& tracker() const { return tracker_; }
  [[nodiscard]] std::uint64_t checked() const { return checked_; }

 private:
  std::function<bool(NodeId)> include_;
  SkewTracker tracker_;
  std::uint64_t checked_ = 0;
};

TEST(SkewIndexDifferential, FleetOutsideRhoBothEngines) {
  for (const std::uint32_t threads : {1u, 2u}) {
    Simulator sim(differential_params(12, threads), wild_clocks(12),
                  std::make_unique<UniformDelay>(0.002, 0.01), nullptr);
    for (NodeId id = 0; id < 12; ++id) sim.set_process(id, std::make_unique<Jitter>());
    Differential diff;
    diff.install(sim);
    sim.run_until(8.0);
    EXPECT_GT(diff.checked(), 10000u);
    // One rebuild at the first sample: the hook path never re-reads the
    // fleet, whichever engine replays the events.
    EXPECT_EQ(diff.tracker().rebuilds(), 1u) << "threads=" << threads;
    if (threads > 1) {
      EXPECT_GT(sim.parallel_windows(), 0u);
    }
  }
}

TEST(SkewIndexDifferential, AmortizedRampsOfBothSigns) {
  Simulator sim(differential_params(10), wild_clocks(10),
                std::make_unique<UniformDelay>(0.0, 0.01), nullptr);
  for (NodeId id = 0; id < 10; ++id) sim.set_process(id, std::make_unique<Jitter>(true));
  Differential diff;
  diff.install(sim);
  sim.run_until(8.0);
  EXPECT_GT(diff.checked(), 5000u);
  // Ramps steeper than any seen before widen [r, R] and force a rebuild;
  // that happens a few times early on, then never again.
  EXPECT_GT(diff.tracker().rebuilds(), 1u);
  EXPECT_LT(diff.tracker().rebuilds(), 30u);
}

TEST(SkewIndexDifferential, DecimatedSamplesCatchUpOnSkippedEvents) {
  Simulator sim(differential_params(12), wild_clocks(12),
                std::make_unique<UniformDelay>(0.0, 0.01), nullptr);
  for (NodeId id = 0; id < 12; ++id) sim.set_process(id, std::make_unique<Jitter>());
  Differential diff(nullptr, /*gap=*/0.02);
  diff.install(sim);
  sim.run_until(8.0);
  // One sample per 20 ms gap at most; the events in between are re-keyed
  // at the next sample, not re-read from scratch.
  EXPECT_GT(diff.checked(), 300u);
  EXPECT_LT(diff.checked(), 401u);
  EXPECT_EQ(diff.tracker().rebuilds(), 1u);
}

// The ramps AdjustMode::kAmortized applies, through the real protocol: the
// echo variant (no keys needed) with hardware clocks spread by 0.2 s, so
// the first corrections are large ramps of both signs.
TEST(SkewIndexDifferential, SyncProtocolAmortizedCorrections) {
  SyncConfig cfg;
  cfg.n = 7;
  cfg.f = 2;
  cfg.rho = 1e-3;
  cfg.variant = Variant::kEcho;
  cfg.adjust = AdjustMode::kAmortized;
  cfg.initial_sync = 0.2;
  cfg.allow_unsynchronized_start = true;
  Rng rng(5);
  Simulator sim(differential_params(cfg.n),
                drift::random_fleet(rng, cfg.n, cfg.rho, cfg.initial_sync, 10.0, 0.5),
                std::make_unique<UniformDelay>(0.0, cfg.tdel), nullptr);
  for (NodeId id = 0; id < cfg.n; ++id) {
    sim.set_process(id, std::make_unique<SyncProtocol>(
                            cfg, std::make_unique<EchoBroadcast>(cfg.n, cfg.f)));
  }
  Differential diff;
  diff.install(sim);
  sim.run_until(10.0);
  EXPECT_GT(diff.checked(), 500u);
  EXPECT_LT(diff.tracker().rebuilds(), 20u);
  double min_slope = 1, max_slope = 1;
  for (NodeId id = 0; id < cfg.n; ++id) {
    min_slope = std::min(min_slope, sim.logical(id).min_slope());
    max_slope = std::max(max_slope, sim.logical(id).max_slope());
  }
  EXPECT_LT(min_slope, 1.0);  // a backward correction ramped in
  EXPECT_GT(max_slope, 1.0);  // and a forward one
}

TEST(SkewIndexDifferential, ClockCorruptionRebuilds) {
  SimParams params = differential_params(10);
  params.corruptions = {CorruptionEvent{1.5, 0.5, kCorruptClocks, 0.5},
                        CorruptionEvent{3.0, 1.0, kCorruptClocks | kCorruptTimers, 2.0}};
  Simulator sim(params, wild_clocks(10), std::make_unique<UniformDelay>(0.0, 0.01), nullptr);
  for (NodeId id = 0; id < 10; ++id) sim.set_process(id, std::make_unique<Jitter>());
  Differential diff;
  diff.install(sim);
  sim.run_until(5.0);
  EXPECT_EQ(sim.corruption_events_fired(), 2u);
  EXPECT_GT(diff.checked(), 1000u);
  EXPECT_EQ(diff.tracker().rebuilds(), 3u);  // first sample + one per corruption
}

TEST(SkewIndexDifferential, ChurnStopAndRestart) {
  Simulator sim(differential_params(8), wild_clocks(8),
                std::make_unique<UniformDelay>(0.0, 0.01), nullptr);
  for (NodeId id = 0; id < 8; ++id) sim.set_process(id, std::make_unique<Jitter>());
  sim.schedule_restart(2, 1.0, 2.5, [] { return std::make_unique<Jitter>(); });
  sim.schedule_restart(5, 1.2, 1.8, [] { return std::make_unique<Jitter>(true); });
  Differential diff;
  diff.install(sim);
  sim.run_until(4.0);
  EXPECT_GT(diff.checked(), 1000u);
  // The rejoiner's amortized ramps may widen the bounds; nothing else may.
  EXPECT_LT(diff.tracker().rebuilds(), 10u);
}

TEST(SkewIndexDifferential, LateJoinersIncludeProbeFlips) {
  constexpr std::uint32_t kN = 9;
  Simulator sim(differential_params(kN), wild_clocks(kN),
                std::make_unique<UniformDelay>(0.0, 0.01), nullptr);
  std::vector<const Jitter*> processes(kN);
  for (NodeId id = 0; id < kN; ++id) {
    auto process = std::make_unique<Jitter>();
    processes[id] = process.get();
    sim.set_process(id, std::move(process));
  }
  sim.set_start_time(6, 1.0);
  sim.set_start_time(7, 2.0);
  sim.set_start_time(8, 2.0);
  // Through the simulator's probe (observe_include) ...
  sim.set_include_probe([&processes](NodeId id) { return processes[id]->integrated(); });
  Differential probed;
  // ... and through the tracker's own functor, on the same events.
  Differential filtered([&processes](NodeId id) { return processes[id]->integrated(); });
  sim.set_post_event_hook([&](const Simulator& s) {
    probed.sample(s);
    filtered.sample(s);
  });
  sim.run_until(4.0);
  EXPECT_GT(probed.checked(), 1000u);
  EXPECT_EQ(probed.tracker().rebuilds(), 1u);
  EXPECT_EQ(filtered.tracker().rebuilds(), 1u);
}

TEST(SkewIndexDifferential, StepLoopWithoutHookRebuildsOnMissedEvents) {
  Simulator sim(differential_params(8), wild_clocks(8),
                std::make_unique<UniformDelay>(0.0, 0.01), nullptr);
  for (NodeId id = 0; id < 8; ++id) sim.set_process(id, std::make_unique<Jitter>(true));
  Differential diff;
  std::uint64_t steps = 0;
  std::uint64_t expected_rebuilds = 0;
  for (RealTime t = 0.01; t <= 3.0; t += 0.01) {
    const std::uint64_t before = sim.events_dispatched();
    sim.run_until(t);
    // A single event since the last sample is still tracked exactly; two or
    // more leave all but the last unseen, so the fleet is re-read (once).
    if (steps == 0 || sim.events_dispatched() - before > 1) ++expected_rebuilds;
    diff.sample(sim);
    diff.sample(sim);  // no events in between: the keys stay valid
    ++steps;
  }
  EXPECT_EQ(diff.checked(), 2 * steps);
  EXPECT_GT(expected_rebuilds, steps / 2);
  EXPECT_EQ(diff.tracker().rebuilds(), expected_rebuilds);
}

TEST(SkewIndexDifferential, ScheduleSwitchingCompleteAndSparse) {
  constexpr std::uint32_t kN = 8;
  const auto complete = std::make_shared<const Topology>(Topology::complete(kN));
  const auto ring = std::make_shared<const Topology>(Topology::ring(kN));
  TopologySchedule schedule;
  schedule.set_graph(1.0, ring).set_graph(2.0, complete).set_graph(3.0, ring).set_graph(3.5,
                                                                                      complete);
  SimParams params = differential_params(kN);
  params.topology = complete;
  params.schedule = std::make_shared<const CompiledTopologySchedule>(schedule.compile(complete));
  Simulator sim(params, wild_clocks(kN), std::make_unique<UniformDelay>(0.0, 0.01), nullptr);
  for (NodeId id = 0; id < kN; ++id) sim.set_process(id, std::make_unique<Jitter>());
  Differential diff;
  diff.install(sim);
  sim.run_until(5.0);
  EXPECT_EQ(sim.topology_epoch(), 4u);
  EXPECT_GT(diff.checked(), 1000u);
  // Epoch 0 runs on the index. Later epochs are edge-list snapshots — the
  // all-pairs ones too — so from t = 1 on every sample takes the sparse
  // scan, and the index is never rebuilt.
  EXPECT_FALSE(sim.current_topology()->is_complete());
  EXPECT_EQ(diff.tracker().rebuilds(), 1u);
  EXPECT_GT(diff.tracker().local_skew(), 0.0);
}

TEST(EnvelopeTrackerTest, RecoversConstantRates) {
  std::vector<HardwareClock> clocks;
  clocks.emplace_back(0.0, 1.02);
  clocks.emplace_back(0.0, 0.98);
  Simulator sim = make_sim(std::move(clocks));
  sim.set_process(0, std::make_unique<Idle>());
  sim.set_process(1, std::make_unique<Idle>());

  EnvelopeTracker tracker(0.1);
  for (double t = 0.1; t <= 20.0; t += 0.1) {
    sim.run_until(t);
    tracker.sample(sim);
  }
  const auto report = tracker.report(0.98, 1.02, 0.0);
  EXPECT_NEAR(report.max_rate, 1.02, 1e-9);
  EXPECT_NEAR(report.min_rate, 0.98, 1e-9);
  // The candidate slopes match exactly, so offsets stay ~0.
  EXPECT_LT(report.upper_offset, 1e-9);
  EXPECT_LT(report.lower_offset, 1e-9);
}

TEST(EnvelopeTrackerTest, OffsetsDetectEnvelopeViolations) {
  std::vector<HardwareClock> clocks;
  clocks.emplace_back(0.0, 1.1);  // faster than the claimed envelope
  Simulator sim = make_sim(std::move(clocks));
  sim.set_process(0, std::make_unique<Idle>());

  EnvelopeTracker tracker(0.1);
  for (double t = 0.1; t <= 10.0; t += 0.1) {
    sim.run_until(t);
    tracker.sample(sim);
  }
  const auto report = tracker.report(0.99, 1.01, 0.0);
  // C(t) - 1.01 t = 0.09 t grows: a large upper offset flags the violation.
  EXPECT_GT(report.upper_offset, 0.5);
}

TEST(EnvelopeTrackerTest, SteadyStartRestrictsFitNotOffsets) {
  std::vector<HardwareClock> clocks;
  // Rate 2 until t = 5, then rate 1: the steady fit should see slope ~1.
  HardwareClock clock(0.0, 2.0);
  clock.set_rate_from(5.0, 1.0);
  clocks.push_back(std::move(clock));
  Simulator sim = make_sim(std::move(clocks));
  sim.set_process(0, std::make_unique<Idle>());

  EnvelopeTracker tracker(0.1);
  for (double t = 0.1; t <= 30.0; t += 0.1) {
    sim.run_until(t);
    tracker.sample(sim);
  }
  const auto report = tracker.report(0.9, 1.1, /*steady_start=*/6.0);
  EXPECT_NEAR(report.max_rate, 1.0, 1e-6);
}

TEST(EnvelopeTrackerTest, ReportWithoutSamplesThrows) {
  EnvelopeTracker tracker(0.1);
  EXPECT_THROW((void)tracker.report(1.0, 1.0, 0.0), std::logic_error);
}

}  // namespace
}  // namespace stclock
