#include <gtest/gtest.h>

#include "golden_specs.h"

/// Golden trace-equivalence test for the simulator hot path.
///
/// Every metric below was captured (at %.17g round-trip precision, so the
/// comparison is bit-exact for doubles) from the scenarios in
/// tests/golden_specs.h BEFORE the hot-path refactor landed — message
/// interning in Context::broadcast / AdversaryContext::send_from_to_all, the
/// slab-backed slim event queue, the flat timer-state table, and enum-keyed
/// counters. Running them today must reproduce every value exactly: the
/// refactor is a pure performance change with no observable behavior.
///
/// Regenerating (only after a DELIBERATE semantic change): run each spec
/// from golden_specs() through run_scenario and print the Expected fields
/// with printf("%.17g"/PRIu64); paste the rows below in order.
namespace stclock::experiment {
namespace {

struct Expected {
  double max_skew;
  double steady_skew;
  double pulse_spread;
  double min_period;
  double max_period;
  std::uint64_t min_pulses;
  std::uint64_t max_pulses;
  bool live;
  double envelope_min_rate;
  double envelope_max_rate;
  std::uint64_t messages_sent;
  std::uint64_t bytes_sent;
  std::uint64_t events_dispatched;
  std::uint64_t rounds_completed;
  // PR-3 workload metrics; rows predating them keep the defaults.
  std::uint64_t messages_dropped = 0;
  double rejoin_latency = -1;
  bool churned_rejoined = false;
  // PR-4 topology metrics. On the complete topology local skew IS the
  // global spread, so rows predating the topology layer keep the -1
  // sentinel and are checked against max_skew / steady_skew instead.
  double local_skew = -1;
  double steady_local_skew = -1;
  // PR-5 dynamic-topology metric; static rows keep the single epoch.
  std::uint64_t topology_epochs = 1;
  // PR-7 fault-injection metrics; corruption-free rows keep the defaults.
  std::uint64_t corruption_events = 0;
  std::uint64_t nodes_corrupted = 0;
  bool stabilized = false;
  double stabilization_time = -1;
};

// Captured at commit "PR 1" (pre-refactor), in golden_specs() order:
// auth+spam_early seeds 1,2,3; echo+replay seeds 1,4; auth+joiner; LW
// baseline. The last two rows (auth+churn, echo+partition) were captured
// when the PR-3 dynamic-network workloads landed.
constexpr Expected kExpected[] = {
    {0.01123902034072799, 0.01123902034072799, 0.0012091023750455676, 0.9891038644601311,
     0.99008140976091319, 10, 10, true, 1.0100784746402467, 1.0101815993153049, 755, 64215,
     832, 10},
    {0.013158159271966396, 0.012135114613062381, 0.0025895859557885093, 0.98850975663999252,
     0.99007817999121706, 10, 10, true, 1.010093533422626, 1.0103922611619955, 706, 62010,
     776, 10},
    {0.01371718437232472, 0.011162237978668443, 0.0011612496921236115, 0.9894399122028541,
     0.99007614983487979, 10, 10, true, 1.0101068509449915, 1.0102511697786023, 748, 63900,
     824, 10},
    {0.017454856432758126, 0.014218551121503609, 0.0082548374371105293, 0.98517874133324668,
     0.99951185328134118, 10, 10, true, 1.0070963520399832, 1.0076728282686829, 6180, 55620,
     6290, 10},
    {0.016076320087703655, 0.015156587569736146, 0.008358284330585164, 0.9850398080763263,
     1.0007802257922318, 10, 10, true, 1.006266248397963, 1.0072167965457299, 6160, 55440,
     6270, 10},
    {0.016727364724340887, 0.016727364724340887, 0.0067141557504672988, 0.98500448223381731,
     0.995782581777795, 15, 15, true, 1.0100741426424302, 1.0119599633661818, 1200, 89784,
     1351, 15},
    {0.0074836537359008748, 0.0051657812043153228, 0, 0, 0, 0, 0, false, 1.0016072463274817,
     1.0021873777992789, 1880, 16920, 2060, 0},
    {0.011755068739271124, 0.011755068739271124, 0.0061539553240770317, 0.9887020559207258,
     0.99992503103077102, 12, 12, true, 1.0054558126167632, 1.0062000375436042, 721, 59661,
     828, 12, 0, 0.96862062064054566, true},
    {0.033081797726873141, 0.033081797726873141, 0.0066855862152257473, 0.98208627469343313,
     2.9719787595449709, 10, 12, true, 1.010835667183057, 1.0115390447457415, 1134, 10206,
     1236, 12, 60, -1, false},
    // PR-4 topology rows: ring x {auth, echo}, gnp x {auth, echo}. Captured
    // when the topology layer landed; local skew is now a distinct metric.
    {0.014380101625396158, 0.014038740247466208, 0.0040524120741145531, 0.98713344837244743,
     0.99009748830299282, 8, 8, true, 1.0100738650743086, 1.010532407398119, 360, 16200,
     480, 8, 0, -1, false, 0.013897451823208118, 0.013559554786396699},
    {0.024381101625396306, 0.024041407074483878, 0.0040519801122878008, 0.97713330393571685,
     0.98009549337116131, 8, 8, true, 1.0199236988332299, 1.0203822221658654, 357, 3213,
     477, 8, 0, -1, false, 0.023898451823208267, 0.023561629357466529},
    {0.012311027307200462, 0.012311027307200462, 0.0038856628953949368, 0.98881777368769797,
     0.9941229688586013, 8, 8, true, 1.0085718962342123, 1.009100908384067, 859, 54783,
     983, 8, 0, -1, false, 0.012311027307200462, 0.012311027307200462},
    {0.023780192229139629, 0.023780192229139629, 0.0086071105073468601, 0.979314198636553,
     0.98944499735917057, 8, 8, true, 1.0150487870756677, 1.0160928340105337, 890, 8010,
     1018, 8, 0, -1, false, 0.023780192229139629, 0.023780192229139629},
    // PR-5 dynamic-topology rows: ring with an edge-failure window (the
    // {0, 1} edge out over [2.5, 5.5)) x {auth, echo} — three compiled
    // epochs, broadcasts rerouted mid-run — and the gradient baseline on
    // the static ring. Captured when the topology-schedule layer landed.
    {0.013621065043235125, 0.012903531952113578, 0.0029153297649813226, 0.98793316985466428,
     0.99009490240298126, 8, 8, true, 1.0097482014523265, 1.0101741615108677, 348, 15660,
     471, 8, 0, -1, false, 0.013621065043235125, 0.012257493825187815, 3},
    {0.023622065043235274, 0.022902430782282046, 0.0029153297649813226, 0.97793130859712618,
     0.98009293359398963, 8, 8, true, 1.0198514995633599, 1.0202744594152133, 348, 3132,
     471, 8, 0, -1, false, 0.023622065043235274, 0.022255969480081461, 3},
    // PR-7 fault-injection rows: auth vs auth_stab on the ring, one
    // full-fraction corruption event at t=4.25. Plain auth never recovers —
    // its process timers died with its memory and its round counter keeps
    // the scrambled value (hence the absurd rounds_completed) — while
    // auth_stab's hardware-anchored watchdog repairs clock, counters, and
    // primitive floor and re-enters the precision envelope.
    {5.7439196861006403, 5.7439196861006403, 0.0026354978737882506, 0.98800910986171786,
     0.99008508421617525, 4, 4, false, 0.90203631998148259, 1.097602536331145, 177, 7965,
     253, 137912, 0, -1, false, 5.7439196861006403, 5.7439196861006403, 1,
     1, 8, false, -1},
    {6.4810395603914719, 6.4810395603914719, 1.445091952233355, -0.4550723494657456,
     2.4351702083415514, 20, 22, true, 1.0731434327004907, 1.1001062165798301, 972, 43740,
     2539, 22, 0, -1, false, 5.3759078925225765, 5.3759078925225765, 1,
     1, 8, true, 0.90115068363147977},
    {0.004388306538742115, 0.0036859473499006867, 0, 0,
     0, 0, 0, false, 0.99961388847323385, 1.0008601072591083, 192, 3264,
     250, 0, 0, -1, false, 0.0039895831942931004, 0.0035611683515077708, 1},
    // PR-9 sparse-fabric rows: auth on the k=4 expander under neighbors
    // fan-out, and auth on the complete graph under sampled fan-out (m=3).
    // Captured when the broadcast-mode layer landed; they pin the expander
    // edge set and the dedicated sampled-broadcast RNG stream.
    {0.014938677203654716, 0.014141475885360855, 0.0041921857975512067, 0.9872555956556025,
     0.99005230075167461, 8, 8, true, 1.010107586409746, 1.0105635958787018, 451, 20295,
     558, 8, 0, -1, false, 0.014938677203654716, 0.013029364801028009, 1},
    {0.013185200562091159, 0.011918016951859567, 0.0026307569216621474, 0.98800063206422628,
     0.99008353213763733, 8, 8, true, 1.0100359247595274, 1.0103825610145274, 464, 20880,
     581, 8, 0, -1, false, -1, -1, 1},
};

TEST(GoldenTrace, MetricsAreBitIdenticalAcrossHotPathRefactor) {
  const std::vector<ScenarioSpec> specs = golden::specs();
  ASSERT_EQ(specs.size(), std::size(kExpected));

  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("scenario " + std::to_string(i) + " (" + specs[i].protocol + ", seed " +
                 std::to_string(specs[i].seed) + ")");
    const ScenarioResult r = run_scenario(specs[i]);
    const Expected& e = kExpected[i];

    EXPECT_EQ(r.max_skew, e.max_skew);
    EXPECT_EQ(r.steady_skew, e.steady_skew);
    EXPECT_EQ(r.pulse_spread, e.pulse_spread);
    EXPECT_EQ(r.min_period, e.min_period);
    EXPECT_EQ(r.max_period, e.max_period);
    EXPECT_EQ(r.min_pulses, e.min_pulses);
    EXPECT_EQ(r.max_pulses, e.max_pulses);
    EXPECT_EQ(r.live, e.live);
    EXPECT_EQ(r.envelope.min_rate, e.envelope_min_rate);
    EXPECT_EQ(r.envelope.max_rate, e.envelope_max_rate);
    EXPECT_EQ(r.messages_sent, e.messages_sent);
    EXPECT_EQ(r.bytes_sent, e.bytes_sent);
    EXPECT_EQ(r.events_dispatched, e.events_dispatched);
    EXPECT_EQ(r.rounds_completed, e.rounds_completed);
    EXPECT_EQ(r.messages_dropped, e.messages_dropped);
    EXPECT_EQ(r.rejoin_latency, e.rejoin_latency);
    EXPECT_EQ(r.churned_rejoined, e.churned_rejoined);
    EXPECT_EQ(r.topology_epochs, e.topology_epochs);
    EXPECT_EQ(r.corruption_events, e.corruption_events);
    EXPECT_EQ(r.nodes_corrupted, e.nodes_corrupted);
    EXPECT_EQ(r.stabilized, e.stabilized);
    EXPECT_EQ(r.stabilization_time, e.stabilization_time);
    if (e.local_skew < 0) {
      // Complete topology: the local-skew metric must degenerate to the
      // global spread exactly (every pair is adjacent).
      EXPECT_EQ(r.local_skew, r.max_skew);
      EXPECT_EQ(r.steady_local_skew, r.steady_skew);
    } else {
      EXPECT_EQ(r.local_skew, e.local_skew);
      EXPECT_EQ(r.steady_local_skew, e.steady_local_skew);
    }
    // On the complete graph the skew index stays incremental: the tracker
    // reads the whole fleet once, at its first sample, and from then on
    // re-keys only the node each event touched.
    if (specs[i].topology == TopologyKind::kComplete) {
      EXPECT_EQ(r.skew_rebuilds, 1u);
    }
  }
}

TEST(GoldenTrace, RepeatRunsAreDeterministic) {
  // The golden values above only pin the engine against history; this pins
  // it against itself — two runs of one spec in one process must agree.
  const std::vector<ScenarioSpec> specs = golden::specs();
  const ScenarioResult a = run_scenario(specs.front());
  const ScenarioResult b = run_scenario(specs.front());
  EXPECT_EQ(a.max_skew, b.max_skew);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
}

}  // namespace
}  // namespace stclock::experiment
