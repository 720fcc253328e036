// End-to-end runner: one benchmark workload per process, untraced.
//
//   e2e_runner run   <workload> <seed>
//       Times run_scenario(spec) and prints one JSON object: the host wall
//       seconds, this process's peak RSS, and the simulated statistics the
//       benchmark's correctness gate reads.
//   e2e_runner setup <workload> <seed>
//       Repeats the public set-up calls (spec to the first event) for
//       kSetupBudgetS host seconds, at least kSetupMinReps and at most
//       kSetupMaxReps times, and prints the seconds each repetition took. A
//       separate process, so set-up never shows in a `run` process's peak RSS.
//
// Exits 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

// One set-up burst; run.py makes one after every `run` process, so the
// repetitions spread over the whole benchmark run.
constexpr double kSetupBudgetS = 0.5;
constexpr int kSetupMinReps = 2;
constexpr int kSetupMaxReps = 500;

int run(const experiment::ScenarioSpec& spec) {
  const auto begin = std::chrono::steady_clock::now();
  const experiment::ScenarioResult r = experiment::run_scenario(spec);
  const double wall = seconds_since(begin);
  const double rss = peak_rss_mb();  // before the diameter sweep allocates anything
  const std::uint32_t diameter = diameter_lower_bound(*experiment::build_topology(
      spec.topology, spec.cfg.n, spec.gnp_p, spec.topology_seed, spec.expander_k));

  std::printf(
      "{\"wall_s\": %.17g, \"peak_rss_mb\": %.17g, \"events\": %llu, \"messages\": %llu, "
      "\"max_skew\": %.17g, \"steady_skew\": %.17g, \"local_skew\": %.17g, "
      "\"steady_local_skew\": %.17g, \"min_pulses\": %llu, \"max_pulses\": %llu, "
      "\"live\": %s, \"parallel_windows\": %llu, \"complete\": %s, \"diameter_lb\": %u, "
      "\"n\": %u, \"horizon\": %.17g, \"period\": %.17g, \"tdel\": %.17g, \"rho\": %.17g, "
      "\"initial_sync\": %.17g, \"precision\": %.17g, \"rate_lo\": %.17g, "
      "\"rate_hi\": %.17g, \"rate_tol\": %.17g, \"min_rate\": %.17g, \"max_rate\": %.17g}\n",
      wall, rss, static_cast<unsigned long long>(r.events_dispatched),
      static_cast<unsigned long long>(r.messages_sent), r.max_skew, r.steady_skew,
      r.local_skew, r.steady_local_skew, static_cast<unsigned long long>(r.min_pulses),
      static_cast<unsigned long long>(r.max_pulses), r.live ? "true" : "false",
      static_cast<unsigned long long>(r.parallel_windows),
      spec.topology == TopologyKind::kComplete ? "true" : "false", diameter, spec.cfg.n,
      spec.horizon, spec.cfg.period, spec.cfg.tdel, spec.cfg.rho, spec.cfg.initial_sync,
      r.bounds.precision, r.bounds.rate_lo, r.bounds.rate_hi, r.rate_fit_tolerance,
      r.envelope.min_rate, r.envelope.max_rate);
  return 0;
}

int setup(const experiment::ScenarioSpec& spec) {
  const auto begin = std::chrono::steady_clock::now();
  std::string times;
  for (int rep = 0;
       rep < kSetupMaxReps && (rep < kSetupMinReps || seconds_since(begin) < kSetupBudgetS);
       ++rep) {
    const auto t = std::chrono::steady_clock::now();
    double took = 0;
    {
      const Engine engine(spec, Decorators{});
      took = seconds_since(t);  // tear-down is not set-up
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%s%.17g", times.empty() ? "" : ", ", took);
    times += buf;
  }
  std::printf("{\"setup_s\": [%s]}\n", times.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  const bool is_run = mode == "run" && argc == 4;
  const bool is_setup = mode == "setup" && argc == 4;
  if (!is_run && !is_setup) {
    std::fprintf(stderr,
                 "usage: e2e_runner run <workload> <seed>\n"
                 "       e2e_runner setup <workload> <seed>\n");
    return 2;
  }
  const auto spec = perfbench::workload_spec(argv[2], std::strtoull(argv[3], nullptr, 10));
  if (!spec) {
    std::fprintf(stderr, "e2e_runner: unknown workload %s\n", argv[2]);
    return 2;
  }
  if (is_run) return perfbench::run(*spec);
  return perfbench::setup(*spec);
}
