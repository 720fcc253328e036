#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "scenfile/scenfile.h"

/// Negative and fuzz coverage for the scenario-file parser: every entry in
/// the malformed corpus must fail with a DISTINCT error that names the
/// offending field (no crashes, no silent defaults), and no truncation or
/// byte mutation of a valid document may escape ScenarioFileError.
namespace stclock::scenfile {
namespace {

struct BadCase {
  const char* name;
  const char* text;
  /// Every case's error must contain this field-naming fragment.
  const char* expect;
};

const BadCase kCorpus[] = {
    {"truncated_json", R"({"base": {"n": 7)", "unexpected end of input"},
    {"trailing_garbage", R"({"base": {"n": 7}} extra)", "trailing characters"},
    {"duplicate_json_key", R"({"base": {"n": 7, "n": 9}})", "duplicate key \"n\""},
    {"wrong_type_n", R"({"base": {"n": "seven"}})", "base.n: expected number, got string"},
    {"negative_n", R"({"base": {"n": -3}})", "base.n: expected a non-negative integer"},
    {"fractional_seed", R"({"base": {"seed": 1.5}})",
     "base.seed: expected a non-negative integer"},
    {"negative_duration", R"({"base": {"tdel": -0.01}})", "base.tdel: must be positive"},
    {"negative_rho", R"({"base": {"rho": -1e-4}})", "base.rho: must be non-negative"},
    {"unknown_base_field", R"({"base": {"frobnicate": 1}})",
     "base.frobnicate: unknown field"},
    {"unknown_top_level_key", R"({"bass": {}})", "bass: unknown key"},
    {"unregistered_protocol", R"({"base": {"protocol": "ntp"}})",
     "base.protocol: unregistered protocol \"ntp\""},
    {"unknown_drift", R"({"base": {"drift": "warp"}})", "unknown drift kind \"warp\""},
    {"unknown_attack", R"({"base": {"attack": "ddos"}})", "unknown attack kind \"ddos\""},
    {"auth_overcommitted_f", R"({"base": {"protocol": "auth", "n": 4, "f": 2}})",
     "resilience bound"},
    {"duplicate_axis",
     R"({"axes": [{"name": "seed", "values": [1]}, {"name": "seed", "values": [2]}]})",
     "duplicate axis \"seed\""},
    {"empty_axis_values", R"({"axes": [{"name": "seed", "values": []}]})",
     "axis needs at least one value"},
    {"unknown_axis_field", R"({"axes": [{"name": "color", "values": [1]}]})",
     "unknown axis field \"color\""},
    {"array_axis_value_on_scalar_field", R"({"axes": [{"name": "seed", "values": [[1]]}]})",
     "expected number, got array"},
    {"object_axis_value", R"({"axes": [{"name": "seed", "values": [{"v": 1}]}]})",
     "axis values must be scalars or arrays"},
    {"axis_missing_values", R"({"axes": [{"name": "seed"}]})", "missing \"values\""},
    {"churn_window_reversed",
     R"({"base": {"churn_nodes": 1, "churn_leave": 9.0, "churn_rejoin": 3.0}})",
     "churn_rejoin must come after churn_leave"},
    {"partition_covers_everyone", R"({"base": {"n": 5, "partition_group": 5}})",
     "partition_group must leave both sides non-empty"},
    {"baseline_with_joiners", R"({"base": {"protocol": "hssd", "joiners": 1}})",
     "baselines do not support joiners"},
    {"baseline_with_churn", R"({"base": {"protocol": "lundelius_welch", "churn_nodes": 1}})",
     "baselines do not support churn"},
    {"churn_eats_every_regular_node",
     R"({"base": {"protocol": "auth", "n": 3, "f": 1, "attack": "crash",
                  "churn_nodes": 2}})",
     "churn must leave at least one always-up honest node"},
    {"partition_names_missing_nodes", R"({"base": {"n": 5, "partition_group": 9}})",
     "partition_group names nodes outside [0, n)"},
    {"unknown_topology", R"({"base": {"topology": "mobius"}})",
     "unknown topology kind \"mobius\""},
    {"gnp_p_out_of_range", R"({"base": {"topology": "gnp", "gnp_p": 1.5}})",
     "edge probability must lie in (0, 1]"},
    {"disconnected_gnp",
     R"({"base": {"n": 10, "f": 1, "topology": "gnp", "gnp_p": 0.02,
                  "topology_seed": 7}})",
     "topology is disconnected"},
    // --- sparse broadcast fabric (PR-9) ---
    {"unknown_broadcast_mode", R"({"base": {"broadcast_mode": "gossip"}})",
     "unknown broadcast mode \"gossip\""},
    {"odd_expander_k", R"({"base": {"topology": "expander", "expander_k": 5}})",
     "expander degree must be even and >= 2, got 5"},
    {"sampled_without_sample_size", R"({"base": {"broadcast_mode": "sampled"}})",
     "broadcast_mode=sampled needs sample_size >= 1"},
    // --- topology_events (PR-5 dynamic topologies) ---
    {"topology_events_not_array", R"({"base": {"topology_events": 3}})",
     "base.topology_events: expected array, got number"},
    {"topology_event_missing_at",
     R"({"base": {"topology_events": [{"add": [0, 1]}]}})", "missing \"at\""},
    {"topology_event_no_action", R"({"base": {"topology_events": [{"at": 2.0}]}})",
     "need exactly one of \"add\", \"remove\", \"set\""},
    {"topology_event_two_actions",
     R"({"base": {"topology_events": [{"at": 2.0, "add": [0, 2], "remove": [1, 2]}]}})",
     "need exactly one of \"add\", \"remove\", \"set\""},
    {"topology_event_unknown_key",
     R"({"base": {"topology_events": [{"at": 2.0, "destroy": [0, 1]}]}})",
     "unknown key (known: at, add, remove, set)"},
    {"topology_event_bad_arity",
     R"({"base": {"topology_events": [{"at": 2.0, "add": [0]}]}})",
     "expected an edge [a, b]"},
    {"topology_event_self_loop",
     R"({"base": {"topology_events": [{"at": 2.0, "add": [1, 1]}]}})",
     "edge endpoints must be distinct"},
    {"topology_event_negative_time",
     R"({"base": {"topology_events": [{"at": -1.0, "add": [0, 2]}]}})",
     ".at: must be positive"},
    {"topology_event_unordered_times",
     R"({"base": {"topology_events": [{"at": 5.0, "remove": [0, 1]},
                                      {"at": 2.0, "add": [0, 1]}]}})",
     "topology_events times must be non-decreasing"},
    {"topology_event_unknown_set_kind",
     R"({"base": {"topology_events": [{"at": 2.0, "set": "mobius"}]}})",
     ".set: unknown topology kind \"mobius\""},
    // Engine-side load-time validation, mirroring the partition_group check.
    {"topology_event_node_out_of_range",
     R"({"base": {"n": 5, "topology_events": [{"at": 2.0, "add": [0, 9]}]}})",
     "topology_events names nodes outside [0, n)"},
    {"topology_event_removes_missing_link",
     R"({"base": {"n": 5, "topology": "ring",
                  "topology_events": [{"at": 2.0, "remove": [0, 2]}]}})",
     "remove_edge of a link that does not exist"},
    {"topology_event_adds_present_link",
     R"({"base": {"n": 5, "topology": "ring",
                  "topology_events": [{"at": 2.0, "add": [0, 1]}]}})",
     "add_edge of a link that already exists"},
    {"topology_event_disconnects_an_epoch",
     R"({"base": {"n": 5, "topology": "star",
                  "topology_events": [{"at": 2.0, "remove": [0, 1]}]}})",
     "disconnects the topology"},
    // --- corruption knobs (PR-7 fault injection) ---
    {"corrupt_at_wrong_type", R"({"base": {"corrupt_at": "late"}})",
     "base.corrupt_at: expected number or array, got string"},
    {"corrupt_at_negative", R"({"base": {"corrupt_at": -2.0}})",
     "base.corrupt_at: must be positive, got -2.0"},
    {"corrupt_at_decreasing", R"({"base": {"corrupt_at": [5.0, 3.0]}})",
     "base.corrupt_at[1]: corrupt_at times must be non-decreasing"},
    {"corrupt_at_past_horizon", R"({"base": {"horizon": 10.0, "corrupt_at": [12.0]}})",
     "corrupt_at must fall before the horizon"},
    {"corrupt_fraction_zero", R"({"base": {"corrupt_at": 2.0, "corrupt_fraction": 0}})",
     "corrupt_fraction must lie in (0, 1], got 0"},
    {"corrupt_fraction_above_one",
     R"({"base": {"corrupt_at": 2.0, "corrupt_fraction": 1.5}})",
     "corrupt_fraction must lie in (0, 1], got 1.5"},
    {"corrupt_kinds_unknown_name",
     R"({"base": {"corrupt_at": 2.0, "corrupt_kinds": "clocks,ram"}})",
     "unknown corruption kind \"ram\""},
    {"corrupt_kinds_duplicate_name",
     R"({"base": {"corrupt_at": 2.0, "corrupt_kinds": "timers,timers"}})",
     "duplicate corruption kind \"timers\""},
    // --- the removed parallel-engine knob: a clear load error, with the file,
    // the line and the field named, whether it is set or swept ---
    {"sim_threads_base_field", R"({"base": {"n": 7,
                  "sim_threads": 4}})",
     "sim_threads_base_field:2: base.sim_threads: unknown field"},
    {"sim_threads_sweep_axis", R"({"axes": [
                  {"name": "sim_threads", "values": [4]}]})",
     "sim_threads_sweep_axis:2: axes[0].name: unknown axis field \"sim_threads\""},
};

TEST(ScenfileErrors, EveryMalformedFileFailsWithADistinctFieldNamingError) {
  std::set<std::string> messages;
  for (const BadCase& bad : kCorpus) {
    SCOPED_TRACE(bad.name);
    std::string message;
    try {
      (void)parse_grid(bad.text, bad.name);
      FAIL() << "expected ScenarioFileError";
    } catch (const ScenarioFileError& e) {
      message = e.what();
    }
    EXPECT_NE(message.find(bad.expect), std::string::npos)
        << "error was: " << message;
    // Distinct errors: no two corpus entries may collapse into one message.
    EXPECT_TRUE(messages.insert(message).second) << "duplicate error: " << message;
  }
}

TEST(ScenfileErrors, ErrorsCarrySourceNameAndLine) {
  const char* text = "{\n  \"base\": {\n    \"tdel\": -1\n  }\n}";
  try {
    (void)parse_grid(text, "grid.json");
    FAIL() << "expected ScenarioFileError";
  } catch (const ScenarioFileError& e) {
    EXPECT_NE(std::string(e.what()).find("grid.json:3: base.tdel"), std::string::npos)
        << e.what();
  }
}

TEST(ScenfileErrors, ValidationErrorsNameTheOffendingCell) {
  // f=3 is fine for auth at n=7 but over the echo bound: only the echo cells
  // may fail, and the error must say which cell.
  const char* text = R"({
    "base": {"n": 7, "f": 3},
    "axes": [{"name": "protocol", "values": ["auth", "echo"]}]
  })";
  try {
    (void)parse_grid(text, "grid.json");
    FAIL() << "expected ScenarioFileError";
  } catch (const ScenarioFileError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("cell 1 (protocol=echo)"), std::string::npos) << message;
    EXPECT_NE(message.find("resilience"), std::string::npos) << message;
  }
}

const char* valid_document() {
  return R"({
  "base": {
    "protocol": "auth",
    "n": 7,
    "f": 2,
    "rho": 0.0001,
    "tdel": 0.01,
    "seed": 42,
    "horizon": 12.0,
    "drift": "extremal",
    "delay": "split",
    "attack": "spam-early",
    "churn_nodes": 1,
    "churn_leave": 4.0,
    "churn_rejoin": 8.0
  },
  "axes": [
    {"name": "protocol", "values": ["auth", "echo"]},
    {"name": "seed", "values": [1, 2, 3]}
  ],
  "reseed_per_cell": true
})";
}

TEST(ScenfileFuzz, EveryTruncationEitherParsesOrThrowsScenarioFileError) {
  const std::string valid = valid_document();
  ASSERT_NO_THROW((void)parse_grid(valid, "fuzz"));
  for (std::size_t len = 0; len < valid.size(); ++len) {
    try {
      (void)parse_grid(valid.substr(0, len), "fuzz");
    } catch (const ScenarioFileError&) {
      // expected for almost every prefix
    } catch (...) {
      FAIL() << "truncation at " << len << " escaped ScenarioFileError";
    }
  }
}

TEST(ScenfileFuzz, SingleByteMutationsNeverCrashOrEscape) {
  const std::string valid = valid_document();
  // Deterministic byte substitutions at every position: structural characters
  // and digits are the interesting corruptions for a JSON grammar.
  const char replacements[] = {'{', '}', '[', ']', '"', ':', ',', '0', '9',
                               '-', '.', 'x', '\\', ' ', '\n', '\0'};
  for (std::size_t pos = 0; pos < valid.size(); ++pos) {
    for (const char replacement : replacements) {
      std::string mutated = valid;
      mutated[pos] = replacement;
      try {
        (void)parse_grid(mutated, "fuzz");
      } catch (const ScenarioFileError&) {
        // fine: strict rejection
      } catch (...) {
        FAIL() << "mutation at " << pos << " ('" << replacement
               << "') escaped ScenarioFileError";
      }
    }
  }
}

}  // namespace
}  // namespace stclock::scenfile
