// WAN cluster scenario: geo-distributed replicas keeping time together.
//
// A 9-node cluster spread across data centers: one-way delays up to 50 ms,
// oven-stabilized oscillators (20 ppm drift), resynchronization every 5 s.
// Four replicas may be compromised (the authenticated maximum for n = 9).
// Compares the Srikanth–Toueg protocol against Lundelius–Welch and the
// unsynchronized control under identical conditions — three registry names,
// one parallel sweep, one engine.

#include <iomanip>
#include <iostream>

#include "experiment/sweep.h"

int main() {
  using namespace stclock;

  experiment::ScenarioSpec base;
  base.cfg.n = 9;
  base.cfg.f = 4;  // authenticated maximum
  base.cfg.rho = 2e-5;    // 20 ppm oscillators
  base.cfg.tdel = 0.05;   // 50 ms WAN delay bound
  base.cfg.period = 5.0;  // resync every 5 s
  base.cfg.initial_sync = 0.02;
  base.delta = 0.2;
  base.seed = 2024;
  base.horizon = 300.0;  // five minutes
  base.drift = DriftKind::kRandomWalk;  // realistic wandering oscillators
  base.delay = DelayKind::kUniform;     // jittery network

  std::cout << "WAN cluster: n=9 replicas, 4 compromised, 50 ms delays, 20 ppm\n"
               "oscillators, resync every 5 s, 5 minutes of operation.\n\n";

  experiment::SweepGrid grid(base);
  grid.axis("algorithm",
            {{"srikanth-toueg (auth)",
              [](experiment::ScenarioSpec& spec) {
                spec.protocol = "auth";
                spec.attack = AttackKind::kSpamEarly;
              }},
             {"lundelius-welch",
              [](experiment::ScenarioSpec& spec) {
                spec.protocol = "lundelius_welch";
                spec.cfg.f = 2;  // LW cannot tolerate 4 of 9 — n > 3f forces f <= 2
                spec.attack = AttackKind::kLwPull;
              }},
             {"unsynchronized", [](experiment::ScenarioSpec& spec) {
                spec.protocol = "unsynchronized";
                spec.cfg.f = 2;
                spec.attack = AttackKind::kNone;
              }}});
  const std::vector<experiment::SweepCell> cells = grid.cells();
  const std::vector<experiment::ScenarioResult> results =
      experiment::SweepRunner(/*threads=*/3).run(cells);
  const experiment::ScenarioResult& st = results[0];
  const experiment::ScenarioResult& lw = results[1];
  const experiment::ScenarioResult& unsync = results[2];

  std::cout << std::left << std::fixed << std::setprecision(2) << std::setw(23) << "algorithm"
            << std::setw(18) << "tolerates" << std::setw(16) << "worst skew(ms)"
            << std::setw(16) << "skew bound(ms)" << "msgs sent\n"
            << std::setw(23) << "srikanth-toueg (auth)" << std::setw(18) << "4 of 9 Byzantine"
            << std::setw(16) << st.steady_skew * 1e3 << std::setw(16)
            << st.bounds.precision * 1e3 << st.messages_sent << "\n"
            << std::setw(23) << "lundelius-welch" << std::setw(18) << "2 of 9 Byzantine"
            << std::setw(16) << lw.steady_skew * 1e3 << std::setw(16) << "-"
            << lw.messages_sent << "\n"
            << std::setw(23) << "unsynchronized" << std::setw(18) << "-" << std::setw(16)
            << unsync.max_skew * 1e3 << std::setw(16) << "(grows forever)" << "0\n";

  // When would free-running clocks overtake the synchronized bound?
  const double gamma = (1 + base.cfg.rho) - 1 / (1 + base.cfg.rho);
  const double crossover_min = st.bounds.precision / gamma / 60.0;

  std::cout << "\nTakeaways:\n"
            << "  - under 4 compromised replicas only the signature-based protocol\n"
            << "    still runs at all; LW's resilience tops out at f=2 for n=9;\n"
            << "  - synchronized skew is bounded FOREVER at the scale of the delay\n"
            << "    bound; free-running clocks drift ~" << std::setprecision(0)
            << gamma * 3600 * 1e3 << " ms/hour and pass the\n"
            << "    synchronized bound after ~" << crossover_min
            << " minutes, growing without limit;\n"
            << "  - every replica pulsed " << st.min_pulses << "-" << st.max_pulses
            << " times (period within [" << std::setprecision(2) << st.min_period << ", "
            << st.max_period << "] s).\n";
  return 0;
}
