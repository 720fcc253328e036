// Lockstep rounds: simulating synchronous execution on synchronized clocks.
//
// The paper's introduction argues that Byzantine clock synchronization is
// the foundation for simulating synchronous rounds. This example runs a
// classic synchronous algorithm — flooding the minimum of the nodes' inputs
// — on top of the full Srikanth–Toueg stack, with worst-case drift and
// delays, and verifies the synchrony contract held (no message ever arrived
// after its round ended).

#include <iomanip>
#include <iostream>

#include "adversary/delay_policies.h"
#include "clocks/drift_models.h"
#include "core/synchronizer.h"
#include "sim/simulator.h"

namespace {

/// Each node starts with a private input and repeatedly broadcasts the
/// smallest value it has seen. In a fully connected system one complete
/// round suffices; we run several to show the steady state.
class MinFlood final : public stclock::LockstepApp {
 public:
  explicit MinFlood(std::uint64_t input) : min_(input) {}

  std::uint64_t on_round(stclock::NodeId, std::uint64_t) override { return min_; }
  void on_round_message(stclock::NodeId, std::uint64_t, std::uint64_t payload) override {
    min_ = std::min(min_, payload);
  }

  [[nodiscard]] std::uint64_t current_min() const { return min_; }

 private:
  std::uint64_t min_;
};

}  // namespace

int main() {
  using namespace stclock;

  SyncConfig cfg;
  cfg.n = 5;
  cfg.f = 2;
  cfg.rho = 1e-3;
  cfg.tdel = 0.01;
  cfg.period = 1.0;
  cfg.initial_sync = 0.005;

  const Duration round_len = min_lockstep_round_duration(cfg);
  std::cout << "n=5, f=2; lockstep round duration " << std::fixed << std::setprecision(1)
            << round_len * 1e3
            << " ms (= skew bound + one delivery, logical time)\n\n";

  const crypto::KeyRegistry registry(cfg.n, 7);
  SimParams params;
  params.n = cfg.n;
  params.tdel = cfg.tdel;
  params.seed = 7;
  Simulator sim(params, drift::adversarial_fleet(cfg.n, cfg.rho, cfg.initial_sync),
                std::make_unique<SplitDelay>(std::vector<NodeId>{1, 3}), &registry);

  const std::uint64_t inputs[] = {170, 42, 980, 301, 55};
  std::vector<MinFlood*> apps;
  std::vector<SynchronizedApp*> nodes;
  for (NodeId id = 0; id < cfg.n; ++id) {
    auto app = std::make_unique<MinFlood>(inputs[id]);
    apps.push_back(app.get());
    auto node = std::make_unique<SynchronizedApp>(cfg, round_len,
                                                  /*first_round_at=*/3 * cfg.period,
                                                  std::move(app));
    nodes.push_back(node.get());
    sim.set_process(id, std::move(node));
  }

  sim.run_until(15.0);

  std::cout << std::left << std::setw(6) << "node" << std::setw(7) << "input" << std::setw(12)
            << "agreed min" << std::setw(17) << "rounds executed" << "late msgs\n";
  bool all_agree = true;
  for (NodeId id = 0; id < cfg.n; ++id) {
    std::cout << std::setw(6) << id << std::setw(7) << inputs[id] << std::setw(12)
              << apps[id]->current_min() << std::setw(17) << nodes[id]->rounds_executed()
              << nodes[id]->late_messages() << "\n";
    all_agree &= apps[id]->current_min() == 42 && nodes[id]->late_messages() == 0;
  }

  std::cout << "\nEvery node agreed on min = 42 after the first full exchange, and\n"
               "no message ever missed its round: the clocks simulated synchrony.\n";
  return all_agree ? 0 : 1;
}
