// Scale sweep driver: wall-clock and memory for sparse-topology scenarios
// at fleet sizes up to n = 10^6 — the regime the sparse-first topology
// representation and the ladder event queue exist for. Unlike bench_micro
// (google-benchmark hot paths) this is a plain binary: one row per cell,
// timed end-to-end through the real run_scenario path, metrics included.
//
//   bench_scale                        # default sweep: ring 10^4..10^6
//   bench_scale --topology torus --n 1000000
//   bench_scale --topology gnp --n 100000 --gnp-p 2e-4
//   bench_scale --protocol unsynchronized ...   # metric-overhead floor
//   bench_scale --topology expander --expander-k 16 --mode sampled
//       --sample 8 --protocol auth --n 100000   # sparse-fabric acceptance cell
//
// The sparse-fabric knobs mirror the scenario fields: --mode
// full|neighbors|sampled selects the broadcast fan-out, --sample M the
// per-broadcast recipient count in sampled mode, --expander-k the expander
// degree. The msgs/rnd column (messages / protocol rounds) is the
// message-complexity cliff: Theta(n^2) per round in full mode vs O(k*n) on
// the sparse fabric.
//
// Exits non-zero if any cell exceeds --budget wall seconds (default: off),
// so CI can enforce "a million-node ring sweep finishes in minutes".
// --json FILE appends one JSON object per row (ndjson) for
// scripts/bench.sh --scale to fold into BENCH_core.json.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "experiment/registry.h"
#include "experiment/scenario.h"
#include "sim/topology.h"

namespace stclock {
namespace {

long peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024;  // Linux reports KB
}

struct Options {
  std::vector<std::uint32_t> sizes;
  std::string topology = "ring";
  std::string protocol = "gradient";
  std::string mode = "full";
  std::uint32_t sample = 0;
  std::uint32_t expander_k = 16;
  double gnp_p = 2e-4;
  double horizon = 5.0;
  double budget = 0;      // wall-seconds per cell; 0 = unenforced
  long rss_budget = 0;    // peak-RSS MB per cell; 0 = unenforced
  std::uint32_t sim_threads = 1;
  std::string delay = "uniform";
  std::uint64_t seed = 1;
  std::string json_path;  // append ndjson rows here when non-empty
};

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--n" && has_value) {
      opts.sizes.push_back(static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10)));
    } else if (arg == "--topology" && has_value) {
      opts.topology = argv[++i];
    } else if (arg == "--protocol" && has_value) {
      opts.protocol = argv[++i];
    } else if (arg == "--gnp-p" && has_value) {
      opts.gnp_p = std::strtod(argv[++i], nullptr);
    } else if (arg == "--mode" && has_value) {
      opts.mode = argv[++i];
    } else if (arg == "--sample" && has_value) {
      opts.sample = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--expander-k" && has_value) {
      opts.expander_k = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--json" && has_value) {
      opts.json_path = argv[++i];
    } else if (arg == "--horizon" && has_value) {
      opts.horizon = std::strtod(argv[++i], nullptr);
    } else if (arg == "--budget" && has_value) {
      opts.budget = std::strtod(argv[++i], nullptr);
    } else if (arg == "--rss-budget" && has_value) {
      opts.rss_budget = std::strtol(argv[++i], nullptr, 10);
    } else if (arg == "--sim-threads" && has_value) {
      opts.sim_threads = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--delay" && has_value) {
      opts.delay = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bench_scale [--n N]... [--topology ring|torus|gnp|expander|complete] "
          "[--protocol NAME] [--mode full|neighbors|sampled] [--sample M] "
          "[--expander-k K] [--gnp-p P] [--horizon H] [--budget SECONDS] "
          "[--rss-budget MB] [--sim-threads T] [--delay uniform|half|max] [--seed S] "
          "[--json FILE]\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "bench_scale: unknown option %s (try --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  if (opts.sizes.empty()) opts.sizes = {10000, 100000, 1000000};
  return opts;
}

}  // namespace
}  // namespace stclock

int main(int argc, char** argv) {
  using namespace stclock;
  const Options opts = parse(argc, argv);

  std::printf("# protocol=%s topology=%s mode=%s delay=%s threads=%u horizon=%.2f seed=%llu\n",
              opts.protocol.c_str(), opts.topology.c_str(), opts.mode.c_str(),
              opts.delay.c_str(), opts.sim_threads, opts.horizon,
              static_cast<unsigned long long>(opts.seed));
  std::printf("%10s %12s %12s %10s %10s %10s %12s %12s %8s %10s\n", "n", "events",
              "messages", "msgs_rnd", "wall_s", "rss_mb", "max_skew", "local_skew", "windows",
              "metrics");

  std::FILE* json = nullptr;
  if (!opts.json_path.empty()) {
    json = std::fopen(opts.json_path.c_str(), "a");
    if (json == nullptr) {
      std::fprintf(stderr, "bench_scale: cannot open %s\n", opts.json_path.c_str());
      return 2;
    }
  }

  bool over_budget = false;
  for (const std::uint32_t n : opts.sizes) {
    experiment::ScenarioSpec spec;
    spec.protocol = opts.protocol;
    spec.cfg.n = n;
    spec.cfg.f = 0;
    spec.cfg.rho = 1e-4;
    spec.cfg.tdel = 0.01;
    spec.cfg.period = 1.0;
    spec.cfg.initial_sync = 0.005;
    spec.seed = opts.seed;
    spec.horizon = opts.horizon;
    spec.attack = AttackKind::kNone;
    spec.gnp_p = opts.gnp_p;
    spec.topology_seed = opts.seed;
    spec.expander_k = opts.expander_k;
    spec.sim_threads = opts.sim_threads;
    if (opts.delay == "uniform") {
      spec.delay = DelayKind::kUniform;
    } else if (opts.delay == "half") {
      spec.delay = DelayKind::kHalf;
    } else if (opts.delay == "max") {
      spec.delay = DelayKind::kMax;
    } else {
      std::fprintf(stderr, "bench_scale: unknown delay %s (uniform|half|max)\n",
                   opts.delay.c_str());
      return 2;
    }
    if (opts.topology == "ring") {
      spec.topology = TopologyKind::kRing;
    } else if (opts.topology == "torus") {
      spec.topology = TopologyKind::kTorus;
    } else if (opts.topology == "gnp") {
      spec.topology = TopologyKind::kGnp;
    } else if (opts.topology == "expander") {
      spec.topology = TopologyKind::kExpander;
    } else if (opts.topology == "complete") {
      spec.topology = TopologyKind::kComplete;
    } else {
      std::fprintf(stderr, "bench_scale: unknown topology %s\n", opts.topology.c_str());
      return 2;
    }
    if (opts.mode == "full") {
      spec.broadcast_mode = BroadcastMode::kFull;
    } else if (opts.mode == "neighbors") {
      spec.broadcast_mode = BroadcastMode::kNeighbors;
    } else if (opts.mode == "sampled") {
      spec.broadcast_mode = BroadcastMode::kSampled;
      spec.sample_size = opts.sample > 0 ? opts.sample : 8;
    } else {
      std::fprintf(stderr, "bench_scale: unknown mode %s\n", opts.mode.c_str());
      return 2;
    }

    const auto begin = std::chrono::steady_clock::now();
    const experiment::ScenarioResult r = experiment::run_scenario(spec);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();

    // Protocol rounds: pulses when the protocol produces them, else the
    // resync schedule implied by the horizon. Guards the division for short
    // horizons that never complete a round.
    const std::uint64_t rounds = std::max<std::uint64_t>(
        r.max_pulses > 0 ? r.max_pulses
                         : static_cast<std::uint64_t>(opts.horizon / spec.cfg.period),
        1);
    const double msgs_per_round = static_cast<double>(r.messages_sent) / rounds;
    const long rss = peak_rss_mb();

    const char* regime = experiment::metric_regime_name(r.metric_regime);
    std::printf("%10u %12llu %12llu %10.3e %10.2f %10ld %12.3e %12.3e %8llu %10s\n", n,
                static_cast<unsigned long long>(r.events_dispatched),
                static_cast<unsigned long long>(r.messages_sent), msgs_per_round, wall,
                rss, r.max_skew, r.local_skew,
                static_cast<unsigned long long>(r.parallel_windows), regime);
    std::fflush(stdout);
    if (json != nullptr) {
      std::fprintf(json,
                   "{\"name\": \"bench_scale/%s/%s/%s/n=%u/t=%u\", \"n\": %u, "
                   "\"sim_threads\": %u, \"events\": %llu, \"messages\": %llu, "
                   "\"msgs_per_round\": %.1f, \"wall_s\": %.3f, \"rss_mb\": %ld, "
                   "\"max_skew\": %.6e, \"local_skew\": %.6e, \"parallel_windows\": %llu, "
                   "\"metric_regime\": \"%s\"}\n",
                   opts.protocol.c_str(), opts.topology.c_str(), opts.mode.c_str(), n,
                   opts.sim_threads, n, opts.sim_threads,
                   static_cast<unsigned long long>(r.events_dispatched),
                   static_cast<unsigned long long>(r.messages_sent), msgs_per_round, wall,
                   rss, r.max_skew, r.local_skew,
                   static_cast<unsigned long long>(r.parallel_windows), regime);
      std::fflush(json);
    }
    if (opts.budget > 0 && wall > opts.budget) {
      std::fprintf(stderr, "bench_scale: n=%u took %.1fs (budget %.1fs)\n", n, wall,
                   opts.budget);
      over_budget = true;
    }
    if (opts.rss_budget > 0 && rss > opts.rss_budget) {
      std::fprintf(stderr, "bench_scale: n=%u peaked at %ld MB RSS (budget %ld MB)\n", n,
                   rss, opts.rss_budget);
      over_budget = true;
    }
  }
  if (json != nullptr) std::fclose(json);
  return over_budget ? 1 : 0;
}
