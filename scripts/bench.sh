#!/usr/bin/env bash
# Perf trajectory runner: builds bench_micro in Release and runs the tracked
# hot-path benchmarks (broadcast fan-out, event-queue churn, counters, the
# BM_Sweep_Grid8 end-to-end sweep, and the HMAC / signature-verify memo-hit,
# memo-miss and forged paths), appending the result as one labelled point to
# BENCH_core.json.
#
# Usage: scripts/bench.sh [--smoke] [--scale] [--label NAME] [build-dir]
#   --smoke   1-iteration run to a temp file (CI bit-rot guard; does NOT
#             touch BENCH_core.json)
#   --scale   run the bench_scale sparse-fabric sweep (auth on expander k=16,
#             full vs sampled fan-out) instead of bench_micro, and append its
#             rows as a labelled point to BENCH_core.json
#   --label   label recorded with the run (default: git describe)
#   build-dir defaults to build-bench
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
SCALE=0
LABEL=""
BUILD_DIR="build-bench"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) SMOKE=1; shift ;;
    --scale) SCALE=1; shift ;;
    --label)
      [[ $# -ge 2 ]] || { echo "bench.sh: --label needs a value (see --help)" >&2; exit 2; }
      LABEL="$2"; shift 2 ;;
    -h|--help)
      echo "usage: scripts/bench.sh [--smoke] [--scale] [--label NAME] [build-dir]"; exit 0 ;;
    *) BUILD_DIR="$1"; shift ;;
  esac
done
[[ -n "$LABEL" ]] || LABEL="$(git describe --always --dirty 2>/dev/null || echo unlabelled)"

if [[ "$SCALE" -eq 1 ]]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j --target bench_scale

  ROWS="$(mktemp)"
  trap 'rm -f "$ROWS"' EXIT
  # The message-complexity cliff: the same auth cells in full mode (Theta(n^2)
  # per round — n = 1000 alone is ~5M messages, which is why the full leg
  # stops there) vs sampled fan-out on an expander (O(m*n), so n = 10^5 is
  # cheaper than full mode at n = 10^3). The full-mode n = 300 and n = 1000
  # rows are the complete-graph ladder cells. The acceptance cell is the
  # n = 10^5 sampled row, budget-enforced.
  # (n = 4096, not a round 4000: cells at or above kScaleMetricThreshold use
  # the O(n) streaming metric policy; 4000 would pay full-fidelity metrics
  # and dominate its own row.)
  "$BUILD_DIR/bench_scale" --protocol auth --topology complete --mode full \
    --n 300 --n 1000 --horizon 5 --json "$ROWS"
  "$BUILD_DIR/bench_scale" --protocol auth --topology expander --expander-k 16 \
    --mode sampled --sample 8 --n 1000 --n 4096 --n 100000 --horizon 5 \
    --budget 120 --json "$ROWS"

  # The million-node ladder cell: expander(8), sampled(8), delay=half.
  "$BUILD_DIR/bench_scale" --protocol auth --topology expander --expander-k 8 \
    --mode sampled --sample 8 --n 1000000 --horizon 5 --delay half --json "$ROWS"

  # The 10^7 frontier smoke cell: one order of magnitude past the million-node
  # acceptance row, budget-enforced on both wall clock and peak RSS so a
  # memory or runtime regression at the frontier fails the leg loudly.
  "$BUILD_DIR/bench_scale" --protocol auth --topology expander --expander-k 8 \
    --mode sampled --sample 8 --n 10000000 --horizon 1 --delay half \
    --budget 1200 --rss-budget 65536 --json "$ROWS"

  LABEL="$LABEL" ROWS="$ROWS" python3 - <<'EOF'
import datetime, json, os

rows = [json.loads(line) for line in open(os.environ["ROWS"]) if line.strip()]
point = {
    "label": os.environ["LABEL"] + "/scale",
    "date": datetime.datetime.now().isoformat(),
    "host": {"num_cpus": len(os.sched_getaffinity(0))},
    "benchmarks": rows,
}

path = "BENCH_core.json"
doc = {"tracks": "scripts/bench.sh hot-path trajectory", "history": []}
if os.path.exists(path):
    doc = json.load(open(path))
doc["history"].append(point)
json.dump(doc, open(path, "w"), indent=1)
open(path, "a").write("\n")
print(f"bench.sh: appended scale run '{point['label']}' to {path} "
      f"({len(doc['history'])} point(s) in trajectory)")
EOF
  exit 0
fi

FILTER='BM_Broadcast_N64|BM_Broadcast_N256|BM_Broadcast_N4096|BM_Broadcast_N65536|BM_TopoSwitch_Epochs|BM_EventQueue_Churn|BM_Counters|BM_Sweep_Grid8|BM_CellFingerprint|BM_StoreLookup|BM_HmacSha256|BM_VerifyRoundMessage|BM_VerifyRoundMessage_Miss|BM_VerifyForged'

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j --target bench_micro
if [[ ! -x "$BUILD_DIR/bench_micro" ]]; then
  echo "bench.sh: bench_micro not built (google-benchmark not found)" >&2
  exit 1
fi

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

EXTRA=()
if [[ "$SMOKE" -eq 1 ]]; then
  # Near-zero min_time: each benchmark runs a handful of iterations, just
  # enough to prove the binaries still build and execute. (The "1x"
  # iteration syntax needs google-benchmark >= 1.8, which the image lacks.)
  EXTRA+=(--benchmark_min_time=0.001)
fi

"$BUILD_DIR/bench_micro" \
  --benchmark_filter="$FILTER" \
  --benchmark_out="$RAW" \
  --benchmark_out_format=json \
  "${EXTRA[@]}"

if [[ "$SMOKE" -eq 1 ]]; then
  echo "bench.sh: smoke run OK (BENCH_core.json unchanged)"
  exit 0
fi

# Append this run to the perf trajectory. Requires python3 (baked into the
# dev image); the raw google-benchmark JSON is preserved verbatim per run.
LABEL="$LABEL" RAW="$RAW" python3 - <<'EOF'
import json, os

raw = json.load(open(os.environ["RAW"]))
point = {
    "label": os.environ["LABEL"],
    "date": raw["context"]["date"],
    "host": {k: raw["context"].get(k) for k in ("num_cpus", "mhz_per_cpu", "library_build_type")},
    "benchmarks": [
        {k: b.get(k) for k in ("name", "iterations", "real_time", "cpu_time",
                               "time_unit", "items_per_second") if k in b}
        for b in raw["benchmarks"]
    ],
}

path = "BENCH_core.json"
doc = {"tracks": "scripts/bench.sh hot-path trajectory", "history": []}
if os.path.exists(path):
    doc = json.load(open(path))
doc["history"].append(point)
json.dump(doc, open(path, "w"), indent=1)
open(path, "a").write("\n")
print(f"bench.sh: appended run '{point['label']}' to {path} "
      f"({len(doc['history'])} point(s) in trajectory)")
EOF
