// Quickstart: synchronize a 5-node system that tolerates 2 Byzantine nodes.
//
// Build & run:
//   cmake -B build && cmake --build build && ./build/example_quickstart
//
// The snippet below is the complete recipe: describe the system with a
// SyncConfig, describe the protocol/environment/adversary with a
// ScenarioSpec, call run_scenario(), and read the metrics off the result.
// The same three steps run every protocol in the registry — swap
// spec.protocol for "echo", "lundelius_welch", ... and nothing else changes.

#include <iomanip>
#include <iostream>

#include "experiment/scenario.h"

int main() {
  using namespace stclock;

  // --- 1. Describe the system --------------------------------------------
  SyncConfig cfg;
  cfg.n = 5;                            // five processes
  cfg.f = 2;                            // tolerate 2 Byzantine (= ceil(5/2)-1)
  cfg.variant = Variant::kAuthenticated;  // signatures -> f < n/2
  cfg.rho = 1e-4;      // hardware clocks drift up to 100 ppm
  cfg.tdel = 0.01;     // messages arrive within 10 ms
  cfg.period = 1.0;    // resynchronize every second of logical time
  cfg.initial_sync = 0.005;  // clocks boot within 5 ms of each other
  cfg.validate();            // throws on inconsistent parameters

  // The closed-form guarantees for this configuration:
  const theory::Bounds bounds = theory::derive_bounds(cfg);
  std::cout << "Configured system: n=" << cfg.n << ", f=" << cfg.f << " ("
            << cfg.variant_name() << ")\n"
            << std::scientific << std::setprecision(3)
            << "  guaranteed skew  (Dmax): " << bounds.precision << " s\n"
            << "  pulse spread bound (D):  " << bounds.pulse_spread << " s\n"
            << std::fixed << std::setprecision(4)
            << "  period: [" << bounds.min_period << ", " << bounds.max_period << "] s\n\n";

  // --- 2. Describe the protocol, environment, and adversary --------------
  experiment::ScenarioSpec spec;
  spec.protocol = "auth";              // any ProtocolRegistry name runs here
  spec.cfg = cfg;
  spec.seed = 42;                      // fully deterministic replay
  spec.horizon = 30.0;                 // simulate 30 s of real time
  spec.drift = DriftKind::kExtremal;   // worst-case clock rates
  spec.delay = DelayKind::kSplit;      // worst-case delay assignment
  spec.attack = AttackKind::kSpamEarly;  // f nodes actively Byzantine

  // --- 3. Run and inspect ------------------------------------------------
  const experiment::ScenarioResult result = experiment::run_scenario(spec);

  std::cout << std::defaultfloat << "After " << spec.horizon << " s under attack:\n"
            << "  all nodes kept pulsing:   " << (result.live ? "yes" : "NO") << "\n"
            << std::scientific << std::setprecision(3)
            << "  worst skew observed:      " << result.steady_skew
            << " s (bound " << result.bounds.precision << ")\n"
            << "  worst pulse spread:       " << result.pulse_spread
            << " s (bound " << result.bounds.pulse_spread << ")\n"
            << std::fixed << std::setprecision(6)
            << "  clock rates stayed within [" << result.envelope.min_rate << ", "
            << result.envelope.max_rate << "]\n"
            << "  messages sent:            " << result.messages_sent << "\n";

  const bool ok = result.live && result.steady_skew <= result.bounds.precision;
  std::cout << "\n" << (ok ? "All guarantees held." : "GUARANTEE VIOLATED (bug!)") << "\n";
  return ok ? 0 : 1;
}
