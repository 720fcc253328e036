// Traced harness: the per-layer split of one benchmark workload.
//
//   traced_runner <workload> <seed> <events> <messages> <max_skew> <local_skew>
//
// Rebuilds run_scenario's engine for the workloads' feature subset from
// public functions (workloads.h), wraps each layer's public interface in a
// timed decorator, runs it, and prints one JSON object. The last four
// arguments are the untraced run's statistics; unless the traced run
// reproduces all four exactly, the output says "valid": false and carries
// no per-layer numbers.
//
// Spans nest (a protocol handler calls the broadcast primitive, which sends
// through the delay policy), and time is charged to the innermost open span
// only, so every traced second is attributed to exactly one layer. The
// layers are the src/ modules:
//
//   sim             run_until's own time: event queue, dispatch, fan-out
//                   the simulator does for timers and deliveries
//   network         DelayPolicy::delay
//   protocol        Process handlers (core's SyncProtocol) and the accept
//                   callback the primitive fires into the protocol
//   broadcast       BroadcastPrimitive calls: signature checks (crypto) and
//                   the sends the primitive makes, less the delay policy
//   adversary       Adversary handlers (src/adversary strategies)
//   trace.skew      SkewTracker::sample
//   trace.envelope  EnvelopeTracker::sample and the final envelope fit
//   experiment      everything else after set-up: the step loop and the
//                   pulse/liveness collection
//
// Set-up is timed call by call, before the first span. After the run the
// harness times KeyRegistry::verify and Signer::sign on their own.
//
// The profile is a single global stack: the harness drives the sequential
// engine only. Exits 2 on bad arguments.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <variant>

#include "broadcast/primitive.h"
#include "sim/message.h"
#include "trace/envelope.h"
#include "trace/skew_tracker.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

enum Layer : std::size_t {
  kExperiment,
  kSim,
  kNetwork,
  kProtocol,
  kBroadcast,
  kAdversary,
  kSkew,
  kEnvelope,
  kLayerCount,
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "experiment", "sim",       "network",    "protocol",
    "broadcast",  "adversary", "trace.skew", "trace.envelope"};

/// Self-time accounting over a stack of open spans: each clock reading
/// charges the time since the previous one to the innermost open layer.
class Profile {
 public:
  /// Starts attribution; anything recorded before (a span fired during
  /// set-up) is dropped, since set-up is timed call by call instead.
  void start() {
    self_ = {};
    calls_ = {};
    depth_ = 0;
    stack_[0] = kExperiment;
    last_ = Clock::now();
  }
  void enter(Layer layer) {
    charge();
    if (depth_ + 1 >= stack_.size()) {
      std::fprintf(stderr, "traced_runner: span stack overflow\n");
      std::abort();
    }
    stack_[++depth_] = layer;
    ++calls_[layer];
  }
  void leave() {
    charge();
    --depth_;
  }
  /// Charges the time since the last reading; call once before reporting.
  void charge() {
    const Clock::time_point now = Clock::now();
    self_[stack_[depth_]] += now - last_;
    last_ = now;
  }

  [[nodiscard]] double self_s(Layer layer) const {
    return std::chrono::duration<double>(self_[layer]).count();
  }
  [[nodiscard]] std::uint64_t calls(Layer layer) const { return calls_[layer]; }

 private:
  std::array<Layer, 64> stack_{};
  std::size_t depth_ = 0;
  Clock::time_point last_{};
  std::array<Clock::duration, kLayerCount> self_{};
  std::array<std::uint64_t, kLayerCount> calls_{};
};

Profile g_profile;
std::uint64_t g_sigs_offered = 0;  ///< signatures in messages fed to primitives

class Span {
 public:
  explicit Span(Layer layer) { g_profile.enter(layer); }
  ~Span() { g_profile.leave(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

class TimedDelay final : public DelayPolicy {
 public:
  explicit TimedDelay(std::unique_ptr<DelayPolicy> inner) : inner_(std::move(inner)) {}
  Duration delay(NodeId from, NodeId to, RealTime now, Duration tdel, Rng& rng) override {
    const Span span(kNetwork);
    return inner_->delay(from, to, now, tdel, rng);
  }
  [[nodiscard]] Duration min_delay(Duration tdel) const override {
    return inner_->min_delay(tdel);
  }
  void on_topology(const Topology& topo) override { inner_->on_topology(topo); }
  void on_topology_change(const Topology& topo, RealTime at) override {
    inner_->on_topology_change(topo, at);
  }

 private:
  std::unique_ptr<DelayPolicy> inner_;
};

class TimedPrimitive final : public BroadcastPrimitive {
 public:
  explicit TimedPrimitive(std::unique_ptr<BroadcastPrimitive> inner) : inner_(std::move(inner)) {
    // Acceptance runs the protocol's correction: charge it to the protocol.
    inner_->set_accept_handler([this](Context& ctx, Round k) {
      const Span span(kProtocol);
      deliver_accept(ctx, k);
    });
  }
  TimedPrimitive(const TimedPrimitive&) = delete;
  TimedPrimitive& operator=(const TimedPrimitive&) = delete;

  void broadcast_ready(Context& ctx, Round k) override {
    const Span span(kBroadcast);
    inner_->broadcast_ready(ctx, k);
  }
  bool handle_message(Context& ctx, NodeId from, const Message& m) override {
    const Span span(kBroadcast);
    if (const auto* rm = std::get_if<RoundMsg>(&m)) g_sigs_offered += rm->sigs.size();
    return inner_->handle_message(ctx, from, m);
  }
  void forget_below(Round floor) override {
    const Span span(kBroadcast);
    inner_->forget_below(floor);
  }
  [[nodiscard]] Duration accept_spread(Duration tdel) const override {
    return inner_->accept_spread(tdel);
  }
  void corrupt_state(Rng& rng) override { inner_->corrupt_state(rng); }
  void stabilize(Round expected_floor) override { inner_->stabilize(expected_floor); }

 private:
  std::unique_ptr<BroadcastPrimitive> inner_;
};

class TimedProcess final : public Process {
 public:
  explicit TimedProcess(std::unique_ptr<Process> inner) : inner_(std::move(inner)) {}
  void on_start(Context& ctx) override {
    const Span span(kProtocol);
    inner_->on_start(ctx);
  }
  void on_message(Context& ctx, NodeId from, const Message& m) override {
    const Span span(kProtocol);
    inner_->on_message(ctx, from, m);
  }
  void on_timer(Context& ctx, TimerId id) override {
    const Span span(kProtocol);
    inner_->on_timer(ctx, id);
  }
  void on_tick(Context& ctx) override {
    const Span span(kProtocol);
    inner_->on_tick(ctx);
  }
  void corrupt_state(Rng& rng) override { inner_->corrupt_state(rng); }

 private:
  std::unique_ptr<Process> inner_;
};

class TimedAdversary final : public Adversary {
 public:
  explicit TimedAdversary(std::unique_ptr<Adversary> inner) : inner_(std::move(inner)) {}
  void on_start(AdversaryContext& ctx) override {
    const Span span(kAdversary);
    inner_->on_start(ctx);
  }
  void on_message(AdversaryContext& ctx, NodeId at, NodeId from, const Message& m) override {
    const Span span(kAdversary);
    inner_->on_message(ctx, at, from, m);
  }
  void on_timer(AdversaryContext& ctx, TimerId id) override {
    const Span span(kAdversary);
    inner_->on_timer(ctx, id);
  }

 private:
  std::unique_ptr<Adversary> inner_;
};

template <class Wrapper, class Base>
std::function<std::unique_ptr<Base>(std::unique_ptr<Base>)> wrap_with() {
  return [](std::unique_ptr<Base> inner) -> std::unique_ptr<Base> {
    return std::make_unique<Wrapper>(std::move(inner));
  };
}

/// The statistics the traced run must reproduce exactly.
struct Stats {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  double max_skew = 0;
  double local_skew = 0;

  friend bool operator==(const Stats&, const Stats&) = default;
};

struct CryptoTimes {
  double verify_ns = 0;
  double sign_ns = 0;
  bool all_verified = true;
};

/// Median ns per call of Signer::sign and KeyRegistry::verify over
/// round_signing_payload, for signers spread across the whole fleet.
CryptoTimes time_crypto(const crypto::KeyRegistry& registry) {
  constexpr std::size_t kOps = 4096;
  constexpr int kBatches = 7;
  constexpr Round kRounds = 16;
  std::vector<Bytes> payloads;
  for (Round k = 1; k <= kRounds; ++k) payloads.push_back(round_signing_payload(k));
  std::vector<crypto::Signer> signers;
  signers.reserve(kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    signers.push_back(registry.signer_for(static_cast<NodeId>((i * 7919) % registry.size())));
  }
  std::vector<crypto::Signature> sigs(kOps);
  std::vector<double> sign_ns;
  std::vector<double> verify_ns;
  CryptoTimes out;
  for (int batch = 0; batch < kBatches; ++batch) {
    auto t = Clock::now();
    for (std::size_t i = 0; i < kOps; ++i) sigs[i] = signers[i].sign(payloads[i % kRounds]);
    sign_ns.push_back(seconds_since(t) * 1e9 / kOps);
    std::size_t ok = 0;
    t = Clock::now();
    for (std::size_t i = 0; i < kOps; ++i) ok += registry.verify(sigs[i], payloads[i % kRounds]);
    verify_ns.push_back(seconds_since(t) * 1e9 / kOps);
    out.all_verified = out.all_verified && ok == kOps;
  }
  std::sort(sign_ns.begin(), sign_ns.end());
  std::sort(verify_ns.begin(), verify_ns.end());
  out.sign_ns = sign_ns[kBatches / 2];
  out.verify_ns = verify_ns[kBatches / 2];
  return out;
}

int traced(const experiment::ScenarioSpec& requested, const Stats& expected) {
  const auto wall_begin = Clock::now();
  Decorators deco;
  deco.delay = wrap_with<TimedDelay, DelayPolicy>();
  deco.primitive = wrap_with<TimedPrimitive, BroadcastPrimitive>();
  deco.process = wrap_with<TimedProcess, Process>();
  deco.adversary = wrap_with<TimedAdversary, Adversary>();
  Engine engine(requested, deco);
  const double rss_setup = peak_rss_mb();
  const experiment::ScenarioSpec& spec = engine.spec;
  Simulator& sim = *engine.sim;

  // The engine's metric policy, including the regime it switches to at
  // n >= kScaleMetricThreshold (decimated skew samples, streaming envelope).
  const Duration step = std::max(spec.skew_series_interval, 1e-3);
  const bool scale_mode = spec.cfg.n >= experiment::kScaleMetricThreshold;
  sim.set_include_probe([&engine](NodeId id) {
    return engine.protocols[id] == nullptr || engine.protocols[id]->integrated();
  });
  SkewTracker skew(spec.skew_series_interval, nullptr);
  skew.set_steady_start(2 * engine.bounds.max_period);
  if (scale_mode) skew.set_min_sample_gap(step * 0.5);
  const double env_lo = engine.bounds.rate_lo;
  const double env_hi = engine.bounds.rate_hi;
  const RealTime env_steady = 2 * engine.bounds.max_period;
  EnvelopeTracker envelope(spec.envelope_interval);
  if (scale_mode) envelope.enable_streaming(env_lo, env_hi, env_steady);
  const auto sample = [&skew, &envelope](const Simulator& s) {
    {
      const Span span(kSkew);
      skew.sample(s);
    }
    const Span span(kEnvelope);
    envelope.sample(s);
  };
  sim.set_post_event_hook(sample);

  g_profile.start();
  for (RealTime t = step; t < spec.horizon + step; t += step) {
    {
      const Span span(kSim);
      sim.run_until(std::min(t, spec.horizon));
    }
    sample(sim);
  }
  if (spec.horizon > env_steady + 3 * spec.envelope_interval) {
    const Span span(kEnvelope);
    (void)envelope.report(env_lo, env_hi, env_steady);
  }
  std::uint64_t min_pulses = UINT64_MAX;
  Round front = 0;
  Round back = UINT64_MAX;
  for (NodeId id = 0; id < engine.honest_count; ++id) {
    min_pulses = std::min<std::uint64_t>(min_pulses, engine.pulses[id].size());
    front = std::max(front, engine.protocols[id]->last_round());
    back = std::min(back, engine.protocols[id]->last_round());
  }
  const bool live = min_pulses >= 2 && front <= back + 1;
  g_profile.charge();
  const double wall = seconds_since(wall_begin);
  const double rss_peak = peak_rss_mb();

  const Stats got{sim.events_dispatched(), sim.counters().total_sent(), skew.max_skew(),
                  skew.local_skew()};
  const CryptoTimes crypto = time_crypto(*engine.registry);
  const bool valid = got == expected && crypto.all_verified;
  std::printf(
      "{\"valid\": %s, \"events\": %llu, \"messages\": %llu, \"max_skew\": %.17g, "
      "\"local_skew\": %.17g, \"min_pulses\": %llu, \"live\": %s",
      valid ? "true" : "false", static_cast<unsigned long long>(got.events),
      static_cast<unsigned long long>(got.messages), got.max_skew, got.local_skew,
      static_cast<unsigned long long>(min_pulses), live ? "true" : "false");
  if (!valid) {
    std::printf("}\n");
    std::fprintf(stderr, "traced_runner: traced run diverged from the untraced run%s\n",
                 crypto.all_verified ? "" : " (a signature failed to verify)");
    return 0;
  }
  const SetupTimes& st = engine.times;
  std::printf(
      ", \"wall_s\": %.17g, \"setup\": {\"validate_s\": %.17g, \"topology_s\": %.17g, "
      "\"clocks_s\": %.17g, \"keys_s\": %.17g, \"simulator_s\": %.17g, "
      "\"processes_s\": %.17g}, \"rss_setup_mb\": %.17g, \"rss_peak_mb\": %.17g, "
      "\"sigs_offered\": %llu, \"verify_ns\": %.17g, \"sign_ns\": %.17g, \"layers\": {",
      wall, st.validate, st.topology, st.clocks, st.keys, st.simulator, st.processes,
      rss_setup, rss_peak, static_cast<unsigned long long>(g_sigs_offered),
      crypto.verify_ns, crypto.sign_ns);
  for (std::size_t layer = 0; layer < kLayerCount; ++layer) {
    const auto l = static_cast<Layer>(layer);
    std::printf("%s\"%s\": {\"self_s\": %.17g, \"calls\": %llu}", layer == 0 ? "" : ", ",
                kLayerNames[layer], g_profile.self_s(l),
                static_cast<unsigned long long>(g_profile.calls(l)));
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc != 7) {
    std::fprintf(stderr,
                 "usage: traced_runner <workload> <seed> <events> <messages> <max_skew> "
                 "<local_skew>\n");
    return 2;
  }
  const auto spec = perfbench::workload_spec(argv[1], std::strtoull(argv[2], nullptr, 10));
  if (!spec) {
    std::fprintf(stderr, "traced_runner: unknown workload %s\n", argv[1]);
    return 2;
  }
  const perfbench::Stats expected{std::strtoull(argv[3], nullptr, 10),
                                  std::strtoull(argv[4], nullptr, 10),
                                  std::strtod(argv[5], nullptr), std::strtod(argv[6], nullptr)};
  return perfbench::traced(*spec, expected);
}
