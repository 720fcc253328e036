#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/theory.h"
#include "experiment/sweep.h"

/// The paper's claims as gates. Each TEST builds one experiment grid (T1–T6
/// check a theorem, F1–F5 the data behind a figure), runs it through the
/// scenario engine and asserts the claim on every row. A failing row is
/// named by its grid labels. The grids run the protocol in the regime its
/// bounds are about: extremal drift, split delays and an active attack.
namespace stclock::experiment {
namespace {

/// Relative slack for a measured value that can meet its closed-form bound
/// exactly; it covers float rounding only. A pulse spread is a difference of
/// real times up to the horizon, so its rounding scales with the horizon, not
/// with D: spreads land up to 5.1e-15 s above D at a 100 s horizon, and
/// 1.2e-15 s (1.2e-12·D) above D = 1 ms at 30 s. Fitted rates of free-running
/// clocks land ~1e-15 outside [1/(1+rho), 1+rho].
constexpr double kFloatSlack = 1e-12;

SyncConfig auth_config() {
  SyncConfig cfg;
  cfg.n = 7;
  cfg.f = 3;  // ceil(7/2) - 1, the authenticated maximum
  cfg.rho = 1e-4;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.005;
  cfg.variant = Variant::kAuthenticated;
  return cfg;
}

SyncConfig echo_config() {
  SyncConfig cfg = auth_config();
  cfg.f = 2;  // ceil(7/3) - 1, the signature-free maximum
  cfg.variant = Variant::kEcho;
  return cfg;
}

/// Worst case for a Srikanth–Toueg config: extremal drift, split delays and
/// the spam-early attack.
ScenarioSpec adversarial(const SyncConfig& cfg, RealTime horizon) {
  ScenarioSpec spec;
  spec.protocol = cfg.variant_name();
  spec.cfg = cfg;
  spec.horizon = horizon;
  spec.drift = DriftKind::kExtremal;
  spec.delay = DelayKind::kSplit;
  spec.attack = AttackKind::kSpamEarly;
  return spec;
}

/// Swaps in a whole config and its protocol. It replaces cfg wholesale, so
/// it must be the first axis of a grid.
SweepGrid::Value variant(const SyncConfig& cfg) {
  return {cfg.variant_name(), [cfg](ScenarioSpec& spec) {
            spec.cfg = cfg;
            spec.protocol = cfg.variant_name();
          }};
}

/// A grid over both variants at their maximal resilience.
SweepGrid variant_grid(RealTime horizon) {
  SweepGrid grid(adversarial(auth_config(), horizon));
  grid.axis("variant", {variant(auth_config()), variant(echo_config())});
  return grid;
}

/// A grid label for a number, such as 0.001 or 1e-05.
std::string label(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// One axis value per number, each applied by `set`.
std::vector<SweepGrid::Value> numbers(const std::string& prefix, std::vector<double> values,
                                      std::function<void(ScenarioSpec&, double)> set) {
  std::vector<SweepGrid::Value> axis;
  for (const double v : values) {
    axis.emplace_back(prefix + label(v), [v, set](ScenarioSpec& spec) { set(spec, v); });
  }
  return axis;
}

/// Fleet sizes, each at the variant's maximal resilience.
std::vector<SweepGrid::Value> fleet_sizes(std::vector<double> sizes) {
  return numbers("", std::move(sizes), [](ScenarioSpec& spec, double v) {
    const auto n = static_cast<std::uint32_t>(v);
    spec.cfg.n = n;
    spec.cfg.f = spec.cfg.variant == Variant::kAuthenticated ? max_faults_authenticated(n)
                                                             : max_faults_echo(n);
  });
}

/// Runs every cell and checks `claim` on each row, naming the row (its grid
/// labels) when an expectation fails.
void check_rows(const std::vector<SweepCell>& cells,
                const std::function<void(const SweepCell&, const ScenarioResult&)>& claim) {
  const std::vector<ScenarioResult> results = SweepRunner().run(cells);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::string name;
    for (const auto& [axis, value] : cells[i].labels) name += axis + '=' + value + ' ';
    SCOPED_TRACE(name);
    claim(cells[i], results[i]);
  }
}

/// Precision (the agreement theorem) and liveness.
void expect_precision(const ScenarioResult& r) {
  EXPECT_TRUE(r.live) << "an honest node stopped pulsing";
  EXPECT_LE(r.steady_skew, r.bounds.precision) << "skew above Dmax";
}

void expect_pulse_spread(const ScenarioSpec& spec, const ScenarioResult& r) {
  EXPECT_LE(r.pulse_spread, r.bounds.pulse_spread + kFloatSlack * spec.horizon)
      << "pulse spread above D";
}

/// Precision, plus accuracy: the fitted logical-clock rates lie in the
/// derived envelope, up to the fit noise of a finite window that the engine
/// reports.
void expect_precision_and_rates(const SweepCell&, const ScenarioResult& r) {
  expect_precision(r);
  EXPECT_GE(r.envelope.min_rate, r.bounds.rate_lo - r.rate_fit_tolerance) << "rate too slow";
  EXPECT_LE(r.envelope.max_rate, r.bounds.rate_hi + r.rate_fit_tolerance) << "rate too fast";
}

/// The accuracy claim of T3 and F2 for one algorithm row. Srikanth–Toueg
/// keeps its derived envelope under attack, and free-running clocks are the
/// hardware envelope itself. Averaging (CNV), single-signature acceptance
/// (HSSD) and a corrupt leader let the adversary drag every clock past the
/// fastest hardware rate. Lundelius–Welch's f-trim, like any unattacked
/// baseline, keeps only the delay bias: asymmetric delays bias each reading
/// by up to tdel/2, an O(tdel/P) rate term.
void expect_accuracy_claim(const SweepCell& cell, const ScenarioResult& r) {
  const ScenarioSpec& spec = cell.spec;
  const double hw_hi = 1 + spec.cfg.rho;
  const double hw_lo = 1 / (1 + spec.cfg.rho);
  if (spec.protocol == "auth" || spec.protocol == "echo") {
    expect_precision_and_rates(cell, r);
  } else if (spec.protocol == "unsynchronized") {
    EXPECT_GE(r.envelope.min_rate, hw_lo * (1 - kFloatSlack));
    EXPECT_LE(r.envelope.max_rate, hw_hi * (1 + kFloatSlack));
  } else if (spec.attack == AttackKind::kCnvPull || spec.attack == AttackKind::kHssdEarly ||
             spec.protocol == "leader_corrupt") {
    EXPECT_GT(r.envelope.max_rate, hw_hi) << "the attack should amplify drift";
  } else {
    const double bias = spec.cfg.tdel / spec.cfg.period;
    EXPECT_GT(r.envelope.min_rate, hw_lo - bias);
    EXPECT_LT(r.envelope.max_rate, hw_hi + bias);
  }
}

/// Each algorithm's worst implemented attack.
void under_matched_attack(ScenarioSpec& spec) {
  static const std::map<std::string, AttackKind> kMatched = {
      {"auth", AttackKind::kSpamEarly},
      {"echo", AttackKind::kSpamEarly},
      {"lundelius_welch", AttackKind::kLwPull},
      {"interactive_convergence", AttackKind::kCnvPull},
      {"hssd", AttackKind::kHssdEarly},
  };
  // The registry entry forces the leader's lie.
  if (spec.protocol == "leader") spec.protocol = "leader_corrupt";
  const auto it = kMatched.find(spec.protocol);
  spec.attack = it == kMatched.end() ? AttackKind::kNone : it->second;
}

/// Crashed faulty nodes: redundancy is gone, nobody lies.
void benign(ScenarioSpec& spec) {
  const bool faultless = spec.protocol == "leader" || spec.protocol == "unsynchronized";
  spec.attack = faultless ? AttackKind::kNone : AttackKind::kCrash;
}

SweepGrid::Value algorithm(std::string name, std::string protocol, double delta = 0.05) {
  return {std::move(name), [protocol, delta](ScenarioSpec& spec) {
            spec.protocol = protocol;
            spec.delta = delta;
          }};
}

// T1: skew <= Dmax = Theta(tdel + rho*P) at optimal resilience, with pulse
// spread <= D and hardware-optimal rates, across tdel and P.
TEST(PaperClaims, T1PrecisionAcrossDelayAndPeriod) {
  SweepGrid grid = variant_grid(30.0);
  std::vector<SweepGrid::Value> sweep =
      numbers("tdel=", {0.001, 0.002, 0.005, 0.01, 0.02}, [](ScenarioSpec& spec, double tdel) {
        spec.cfg.tdel = tdel;
        spec.cfg.initial_sync = tdel / 2;
      });
  // A larger rho makes the rho*P term visible.
  const std::vector<SweepGrid::Value> periods =
      numbers("P=", {0.5, 1.0, 2.0, 5.0}, [](ScenarioSpec& spec, double period) {
        spec.cfg.rho = 1e-3;
        spec.cfg.period = period;
        spec.horizon = 20 * period;
      });
  sweep.insert(sweep.end(), periods.begin(), periods.end());
  grid.axis("sweep", std::move(sweep));
  check_rows(grid.cells(), [](const SweepCell& cell, const ScenarioResult& r) {
    expect_precision_and_rates(cell, r);
    expect_pulse_spread(cell.spec, r);
  });
}

// T2: auth is correct iff corrupt <= ceil(n/2)-1, echo iff corrupt <=
// ceil(n/3)-1. One node past the bound, the adversary assembles quorums
// alone and the pulse-rate floor collapses.
TEST(PaperClaims, T2CorrectIffCorruptWithinResilience) {
  std::vector<SweepCell> cells;
  for (const SyncConfig& cfg : {auth_config(), echo_config()}) {
    ScenarioSpec base = adversarial(cfg, 20.0);
    base.delay = DelayKind::kZero;  // the adversary's best case
    std::vector<double> counts(cfg.f + 2);
    for (std::size_t c = 0; c < counts.size(); ++c) counts[c] = static_cast<double>(c);
    SweepGrid grid(base);
    grid.axis("variant", {variant(cfg)})
        .axis("corrupt", numbers("", counts, [](ScenarioSpec& spec, double c) {
                spec.corrupt_override = static_cast<std::uint32_t>(c);
                if (c == 0) spec.attack = AttackKind::kNone;
              }));
    for (SweepCell& cell : grid.cells()) cells.push_back(std::move(cell));
  }
  check_rows(cells, [](const SweepCell& cell, const ScenarioResult& r) {
    const bool within = cell.spec.corrupt_override <= cell.spec.cfg.f;
    const bool ok = r.steady_skew <= r.bounds.precision && r.min_period >= r.bounds.min_period;
    EXPECT_EQ(ok, within) << "skew " << r.steady_skew << " (Dmax " << r.bounds.precision
                          << "), min period " << r.min_period << " (floor "
                          << r.bounds.min_period << ")";
  });
}

// T3: on one substrate (n=7, f=2), Srikanth–Toueg keeps skew AND rate
// bounded under attack; averaging amplifies drift by an amount the attacker
// scales with CNV's threshold, and one corrupt leader hijacks every clock.
TEST(PaperClaims, T3ComparisonAgainstPriorAlgorithms) {
  SyncConfig cfg = auth_config();
  cfg.f = 2;  // the baselines' f, so every algorithm faces the same faults
  SweepGrid grid(adversarial(cfg, 30.0));
  grid.axis("algorithm", {algorithm("srikanth-toueg-auth", "auth"),
                          algorithm("srikanth-toueg-echo", "echo"),
                          algorithm("lundelius-welch", "lundelius_welch"),
                          algorithm("interactive-conv d=0.05", "interactive_convergence", 0.05),
                          algorithm("interactive-conv d=0.20", "interactive_convergence", 0.2),
                          algorithm("leader-sync", "leader"),
                          algorithm("unsynchronized", "unsynchronized")});
  grid.axis("regime", {{"benign", benign}, {"attacked", under_matched_attack}});
  std::map<double, double> cnv_excess;  // CNV threshold -> attacked rate excess
  check_rows(grid.cells(), [&cnv_excess](const SweepCell& cell, const ScenarioResult& r) {
    expect_accuracy_claim(cell, r);
    if (cell.spec.attack == AttackKind::kCnvPull) {
      cnv_excess[cell.spec.delta] = r.envelope.max_rate - (1 + cell.spec.cfg.rho);
    }
  });
  ASSERT_EQ(cnv_excess.size(), 2u);
  EXPECT_GT(cnv_excess.at(0.2), cnv_excess.at(0.05))
      << "CNV's drift amplification should grow with its discard threshold";
}

// T4: a process booting mid-run integrates passively within one maximal
// period, under attack, without disturbing the running system.
TEST(PaperClaims, T4JoinerIntegratesWithinOnePeriod) {
  SweepGrid grid = variant_grid(30.0);
  std::vector<SweepGrid::Value> joins;
  for (const double phase : {0.0, 0.25, 0.5, 0.75}) {
    for (const RealTime base : {8.0, 15.0}) {
      joins.emplace_back(label(base) + "s+" + label(phase) + "P",
                         [phase, base](ScenarioSpec& spec) {
                           spec.joiners = 1;
                           spec.join_time = base + phase * spec.cfg.period;
                         });
    }
  }
  grid.axis("join", std::move(joins));
  check_rows(grid.cells(), [](const SweepCell& cell, const ScenarioResult& r) {
    EXPECT_TRUE(r.joiners_integrated);
    EXPECT_LE(r.join_latency, r.bounds.max_period) << "integration took over one period";
    expect_precision_and_rates(cell, r);
  });
}

// T5: correctness holds for any adjustment constant alpha in (0, P); the
// paper's alpha = (1+rho)*D only balances skew against rate inflation.
TEST(PaperClaims, T5AnyAlphaKeepsTheBounds) {
  SweepGrid grid = variant_grid(30.0);
  grid.axis("alpha/default",
            numbers("", {0.25, 0.5, 1.0, 2.0, 8.0, 32.0}, [](ScenarioSpec& spec, double mult) {
              spec.cfg.alpha = mult * theory::resolve_alpha(spec.cfg);
            }));
  check_rows(grid.cells(), expect_precision_and_rates);
}

// T6: corrections amortized over a window keep the bounds at every n; the
// in-flight part of a correction stays inside Dmax.
TEST(PaperClaims, T6AmortizedCorrectionsKeepTheBounds) {
  SweepGrid grid = variant_grid(30.0);
  grid.axis("n", fleet_sizes({7, 13, 25}));
  std::vector<SweepGrid::Value> modes = {
      {"instant", [](ScenarioSpec& spec) { spec.cfg.adjust = AdjustMode::kInstant; }}};
  // Multiples of the default window (half the minimum period); 1.9 is the
  // widest that validate() admits before consecutive corrections overlap.
  const std::vector<SweepGrid::Value> amortized =
      numbers("amortized/", {0.25, 1.0, 1.9}, [](ScenarioSpec& spec, double mult) {
        spec.cfg.adjust = AdjustMode::kAmortized;
        spec.cfg.amortize_window = mult * theory::derive_bounds(spec.cfg).min_period / 2;
      });
  modes.insert(modes.end(), amortized.begin(), amortized.end());
  grid.axis("adjust", std::move(modes));
  check_rows(grid.cells(), expect_precision_and_rates);
}

// F1: skew over time is a sawtooth that never exceeds Dmax.
TEST(PaperClaims, F1SkewTraceNeverExceedsDmax) {
  SyncConfig cfg = auth_config();
  cfg.rho = 1e-3;  // a visible drift component
  ScenarioSpec spec = adversarial(cfg, 30.0);
  spec.skew_series_interval = 0.25;
  SweepGrid grid(spec);
  grid.axis("figure", {{"f1-skew-trace", nullptr}});
  check_rows(grid.cells(), [](const SweepCell&, const ScenarioResult& r) {
    expect_precision(r);
    EXPECT_FALSE(r.skew_series.empty());
    for (const auto& [t, skew] : r.skew_series) {
      EXPECT_LE(skew, r.bounds.precision) << "skew above Dmax at t=" << t;
    }
  });
}

// F2: Srikanth–Toueg rates stay hardware-optimal under attack, while
// averaging, single-signature acceptance and a lying leader amplify drift.
TEST(PaperClaims, F2AccuracyEnvelopeUnderAttack) {
  SyncConfig cfg = auth_config();
  cfg.f = 2;
  SweepGrid grid(adversarial(cfg, 60.0));
  const SweepGrid::Value hssd = {"hssd-single-sig", [](ScenarioSpec& spec) {
                                   spec.protocol = "hssd";
                                   spec.cfg.f = 1;  // one corrupted node suffices
                                 }};
  grid.axis("algorithm", {algorithm("srikanth-toueg-auth", "auth"),
                          algorithm("srikanth-toueg-echo", "echo"),
                          algorithm("lundelius-welch", "lundelius_welch"),
                          algorithm("interactive-conv", "interactive_convergence"), hssd,
                          algorithm("leader-sync", "leader"),
                          algorithm("unsynchronized", "unsynchronized")});
  grid.axis("regime", {{"attacked", under_matched_attack}});
  check_rows(grid.cells(), expect_accuracy_claim);
}

// F3: Dmax = Theta(tdel + rho*P) holds across the drift bound rho, from the
// delay-dominated regime into the drift-dominated one.
TEST(PaperClaims, F3PrecisionAcrossDrift) {
  SweepGrid grid = variant_grid(30.0);
  grid.axis("rho", numbers("", {0.0, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2},
                           [](ScenarioSpec& spec, double rho) { spec.cfg.rho = rho; }));
  check_rows(grid.cells(),
             [](const SweepCell&, const ScenarioResult& r) { expect_precision(r); });
}

// F4: both primitives send O(n^2) messages per round; auth relays carry
// Theta(n)-signature bundles, so auth bytes per round grow faster than n^2
// while echo messages stay constant-size.
TEST(PaperClaims, F4QuadraticMessagesPerRound) {
  SweepGrid grid = variant_grid(15.0);
  grid.axis("n", fleet_sizes({4, 7, 10, 13, 16}));
  grid.axis("attack", {{"crash", [](ScenarioSpec& spec) {
                          spec.attack = AttackKind::kCrash;  // only the protocol's traffic
                        }}});
  // Per variant, in increasing n: messages and bytes per round over n^2.
  std::map<std::string, std::vector<double>> msgs;
  std::map<std::string, std::vector<double>> bytes;
  check_rows(grid.cells(), [&](const SweepCell& cell, const ScenarioResult& r) {
    EXPECT_TRUE(r.live);
    ASSERT_GT(r.rounds_completed, 0u);
    const double n = cell.spec.cfg.n;
    const double per_round_n2 = static_cast<double>(r.rounds_completed) * n * n;
    msgs[cell.spec.protocol].push_back(static_cast<double>(r.messages_sent) / per_round_n2);
    bytes[cell.spec.protocol].push_back(static_cast<double>(r.bytes_sent) / per_round_n2);
  });
  const auto spread = [](const std::vector<double>& xs) {
    const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
    return *hi / *lo;
  };
  EXPECT_LE(spread(msgs.at("auth")), 1.25) << "auth messages per round are not ~n^2";
  EXPECT_LE(spread(msgs.at("echo")), 1.25) << "echo messages per round are not ~n^2";
  EXPECT_LE(spread(bytes.at("echo")), 1.25) << "echo messages are not constant-size";
  const std::vector<double>& auth_bytes = bytes.at("auth");
  for (std::size_t i = 1; i < auth_bytes.size(); ++i) {
    EXPECT_GT(auth_bytes[i], auth_bytes[i - 1]) << "auth bytes/round/n^2 should grow with n";
  }
}

// F5: no implemented Byzantine strategy pushes skew past Dmax, pulse spread
// past D, or the pulse rate past the unforgeability floor.
TEST(PaperClaims, F5EveryAttackStaysWithinTheBounds) {
  SweepGrid grid = variant_grid(20.0);
  std::vector<SweepGrid::Value> attacks;
  for (const AttackKind attack : {AttackKind::kNone, AttackKind::kCrash, AttackKind::kSpamEarly,
                                  AttackKind::kEquivocate, AttackKind::kReplay,
                                  AttackKind::kForge}) {
    attacks.emplace_back(attack_name(attack),
                         [attack](ScenarioSpec& spec) { spec.attack = attack; });
  }
  grid.axis("attack", std::move(attacks));
  check_rows(grid.cells(), [](const SweepCell& cell, const ScenarioResult& r) {
    expect_precision(r);
    expect_pulse_spread(cell.spec, r);
    EXPECT_GE(r.min_period, r.bounds.min_period) << "pulse rate above the unforgeability floor";
  });
}

}  // namespace
}  // namespace stclock::experiment
