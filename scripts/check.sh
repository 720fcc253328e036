#!/usr/bin/env bash
# Local / CI gate: the tier-1 verify line with warnings-as-errors. The whole
# tree (src/, tests/, bench/, examples/) builds under -Wall -Wextra -Werror,
# so any new warning in the hot-path files fails the gate.
#
# Usage: scripts/check.sh [--bench] [--scen] [--store] [--faults] [--scale]
#                         [--asan] [--tsan] [build-dir]
#                         (default build-dir: build-check)
#   --bench  additionally smoke-run the tracked perf benchmarks (1 iteration,
#            via scripts/bench.sh --smoke) so the bench binaries cannot
#            bit-rot; BENCH_core.json is not modified.
#   --scen   additionally smoke-run the scenario-file driver: scenrun on every
#            checked-in example grid, then re-run each grid sharded in two
#            halves (--cells) and verify scenmerge reassembles dumps
#            byte-identical to the unsharded run.
#   --store  additionally smoke-run the result store: cold run of an example
#            grid with --store, warm re-run asserted 100% hits with
#            byte-identical dumps, scenstore ls/stats/gc, and a scenlaunch
#            host-manifest run WITH an injected straggler whose re-dispatched
#            merge must still match the cold run byte for byte.
#   --faults additionally smoke-run the fault-injection layer: the corruption
#            grid sharded across scenlaunch workers against the unsharded run
#            (stabilization metrics must be byte-identical across shard
#            boundaries), a scenstore verify pass over a freshly populated
#            store, and scenrun --store pointed at an uncreatable directory
#            asserted to fail loudly.
#   --scale  additionally smoke-run the million-node machinery at CI-sized
#            scale: the n=65536 ring grid (examples/scenarios/scale/) under a
#            hard wall-clock budget, the same grid sharded across scenlaunch
#            workers diffed byte-identical against the unsharded run, a
#            bench_scale ring cell with its per-cell budget enforced, the
#            n=65536 expander auth grid (neighbors + sampled fan-out,
#            sharded + byte-diffed), the sparse-fabric acceptance cell
#            (auth n=1e5, expander k=16, sampled m=8, 120 s budget), and the
#            soak cell (auth n=4096, expander k=8, sampled m=8, 500 rounds)
#            under a wall and a peak-RSS budget: per-node memory that grows
#            with run length breaks the RSS budget several times over.
#   --asan   additionally build the tree under ASan+UBSan (its own build
#            directory, <build-dir>-asan) and run the tier-1 ctest suite in
#            it; any sanitizer report fails the gate.
#   --tsan   additionally build under ThreadSanitizer (<build-dir>-tsan) and
#            run the suites that start threads: signature (4 threads signing
#            and verifying on one shared KeyRegistry memo), experiment and
#            corruption (SweepRunner worker pools), and incremental,
#            resultstore and scenfile (sweep pools, concurrent store
#            writers); any data-race report fails the gate.
#
# Uses a separate build directory so the strict flags never pollute an
# incremental developer build.
set -euo pipefail

cd "$(dirname "$0")/.."
RUN_BENCH=0
RUN_SCEN=0
RUN_STORE=0
RUN_FAULTS=0
RUN_SCALE=0
RUN_ASAN=0
RUN_TSAN=0
BUILD_DIR="build-check"
for arg in "$@"; do
  case "$arg" in
    -h|--help) sed -n 's/^# \{0,1\}//p' "$0" | sed -n '2,49p'; exit 0 ;;
    --bench) RUN_BENCH=1 ;;
    --scen) RUN_SCEN=1 ;;
    --store) RUN_STORE=1 ;;
    --faults) RUN_FAULTS=1 ;;
    --scale) RUN_SCALE=1 ;;
    --asan) RUN_ASAN=1 ;;
    --tsan) RUN_TSAN=1 ;;
    -*) echo "check.sh: unknown option: $arg (see --help)" >&2; exit 2 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

cmake -B "$BUILD_DIR" -S . -DCMAKE_CXX_FLAGS="-Wall -Wextra -Werror"
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

if [[ "$RUN_BENCH" -eq 1 ]]; then
  scripts/bench.sh --smoke "$BUILD_DIR-bench"
fi

SCEN_TMP=""
STORE_TMP=""
FAULT_TMP=""
SCALE_TMP=""
trap 'rm -rf ${SCEN_TMP:+"$SCEN_TMP"} ${STORE_TMP:+"$STORE_TMP"} ${FAULT_TMP:+"$FAULT_TMP"} ${SCALE_TMP:+"$SCALE_TMP"}' EXIT

if [[ "$RUN_SCEN" -eq 1 ]]; then
  SCEN_TMP="$(mktemp -d)"
  for grid in examples/scenarios/*.json; do
    name="$(basename "$grid" .json)"
    total="$("$BUILD_DIR/scenrun" "$grid" --count)"
    "$BUILD_DIR/scenrun" "$grid" --threads 4 \
      --json "$SCEN_TMP/$name.full.json" --csv "$SCEN_TMP/$name.full.csv"
    if (( total < 2 )); then
      echo "check.sh: scen smoke OK: $name ($total cell, too small to shard)"
      continue
    fi
    half=$((total / 2))
    "$BUILD_DIR/scenrun" "$grid" --cells "0:$half" \
      --json "$SCEN_TMP/$name.a.json" --csv "$SCEN_TMP/$name.a.csv"
    "$BUILD_DIR/scenrun" "$grid" --cells "$half:$total" \
      --json "$SCEN_TMP/$name.b.json" --csv "$SCEN_TMP/$name.b.csv"
    # Merge out of order: scenmerge must reassemble by global cell index.
    "$BUILD_DIR/scenmerge" -o "$SCEN_TMP/$name.merged.json" \
      "$SCEN_TMP/$name.b.json" "$SCEN_TMP/$name.a.json"
    "$BUILD_DIR/scenmerge" -o "$SCEN_TMP/$name.merged.csv" \
      "$SCEN_TMP/$name.b.csv" "$SCEN_TMP/$name.a.csv"
    diff "$SCEN_TMP/$name.full.json" "$SCEN_TMP/$name.merged.json"
    diff "$SCEN_TMP/$name.full.csv" "$SCEN_TMP/$name.merged.csv"
    echo "check.sh: scen smoke OK: $name ($total cells, shards byte-identical)"
  done
  # The dynamic-topology grid additionally goes through the process-level
  # shard launcher, so the schedule path is covered end-to-end: scenlaunch
  # splits it across worker processes, scenmerges the dumps, and the result
  # must be byte-identical to the unsharded run above.
  scripts/scenlaunch.sh examples/scenarios/dynamic_ring_grid.json \
    --workers 3 --build-dir "$BUILD_DIR" \
    --json "$SCEN_TMP/dynamic.launched.json" --csv "$SCEN_TMP/dynamic.launched.csv"
  diff "$SCEN_TMP/dynamic_ring_grid.full.json" "$SCEN_TMP/dynamic.launched.json"
  diff "$SCEN_TMP/dynamic_ring_grid.full.csv" "$SCEN_TMP/dynamic.launched.csv"
  echo "check.sh: scen smoke OK: dynamic_ring_grid via scenlaunch (byte-identical)"
fi

if [[ "$RUN_STORE" -eq 1 ]]; then
  STORE_TMP="$(mktemp -d)"
  GRID="examples/scenarios/dynamic_ring_grid.json"
  STORE="$STORE_TMP/store"
  TOTAL="$("$BUILD_DIR/scenrun" "$GRID" --count)"

  # Cold: every cell is a miss and gets published.
  "$BUILD_DIR/scenrun" "$GRID" --threads 4 --store "$STORE" \
    --csv "$STORE_TMP/cold.csv" --json "$STORE_TMP/cold.json" \
    2> "$STORE_TMP/cold.err"
  grep -q "hits=0 misses=$TOTAL" "$STORE_TMP/cold.err" \
    || { echo "check.sh: cold run was not all misses:"; cat "$STORE_TMP/cold.err"; exit 1; }

  # Warm: zero scenario computations, byte-identical dumps (different thread
  # count on purpose — neither caching nor threading may show in the bytes).
  "$BUILD_DIR/scenrun" "$GRID" --threads 2 --store "$STORE" \
    --csv "$STORE_TMP/warm.csv" --json "$STORE_TMP/warm.json" \
    2> "$STORE_TMP/warm.err"
  grep -q "hits=$TOTAL misses=0" "$STORE_TMP/warm.err" \
    || { echo "check.sh: warm run was not 100% hits:"; cat "$STORE_TMP/warm.err"; exit 1; }
  diff "$STORE_TMP/cold.csv" "$STORE_TMP/warm.csv"
  diff "$STORE_TMP/cold.json" "$STORE_TMP/warm.json"
  echo "check.sh: store smoke OK: warm re-run $TOTAL/$TOTAL hits, byte-identical"

  # Store maintenance round-trips.
  [[ "$("$BUILD_DIR/scenstore" "$STORE" ls | wc -l)" -eq "$TOTAL" ]] \
    || { echo "check.sh: scenstore ls disagrees with cell count" >&2; exit 1; }
  "$BUILD_DIR/scenstore" "$STORE" stats
  "$BUILD_DIR/scenstore" "$STORE" gc --keep-days 0 | grep -q "entries=0" \
    || { echo "check.sh: scenstore gc --keep-days 0 left entries behind" >&2; exit 1; }
  echo "check.sh: store smoke OK: scenstore ls/stats/gc"

  # Multi-host launcher against a host manifest, with shard 1's first
  # attempt wedged (no heartbeat): the monitor must re-dispatch it and the
  # merged dumps must STILL be byte-identical to the cold unsharded run.
  printf 'local 2\nlocal 1\n' > "$STORE_TMP/hosts"
  scripts/scenlaunch.sh "$GRID" --hosts "$STORE_TMP/hosts" --shards 4 \
    --build-dir "$BUILD_DIR" --store "$STORE" \
    --test-straggle 1 --heartbeat 2 --retries 2 \
    --csv "$STORE_TMP/launched.csv" --json "$STORE_TMP/launched.json"
  diff "$STORE_TMP/cold.csv" "$STORE_TMP/launched.csv"
  diff "$STORE_TMP/cold.json" "$STORE_TMP/launched.json"
  echo "check.sh: store smoke OK: scenlaunch straggler re-dispatch, byte-identical"
fi

if [[ "$RUN_FAULTS" -eq 1 ]]; then
  FAULT_TMP="$(mktemp -d)"
  GRID="examples/scenarios/corruption_grid.json"

  # Unsharded reference run, then the same grid split across scenlaunch
  # worker processes: the stabilization-time column must survive sharding
  # byte for byte (the corruption RNG is derived per cell, never from run
  # layout).
  "$BUILD_DIR/scenrun" "$GRID" --threads 4 \
    --json "$FAULT_TMP/full.json" --csv "$FAULT_TMP/full.csv"
  grep -q "stabilization_time" "$FAULT_TMP/full.csv" \
    || { echo "check.sh: corruption CSV lacks stabilization_time" >&2; exit 1; }
  scripts/scenlaunch.sh "$GRID" --workers 3 --build-dir "$BUILD_DIR" \
    --json "$FAULT_TMP/launched.json" --csv "$FAULT_TMP/launched.csv"
  diff "$FAULT_TMP/full.json" "$FAULT_TMP/launched.json"
  diff "$FAULT_TMP/full.csv" "$FAULT_TMP/launched.csv"
  echo "check.sh: faults smoke OK: corruption grid via scenlaunch (byte-identical)"

  # A populated store must pass a full verify sweep...
  "$BUILD_DIR/scenrun" "$GRID" --threads 4 --store "$FAULT_TMP/store" \
    --csv /dev/null 2> /dev/null
  "$BUILD_DIR/scenstore" "$FAULT_TMP/store" verify \
    || { echo "check.sh: scenstore verify failed on a healthy store" >&2; exit 1; }
  # ...and an unusable store directory must fail loudly, not quietly compute.
  : > "$FAULT_TMP/not-a-dir"
  if "$BUILD_DIR/scenrun" "$GRID" --store "$FAULT_TMP/not-a-dir/store" \
    --csv /dev/null 2> "$FAULT_TMP/store.err"; then
    echo "check.sh: scenrun --store accepted an uncreatable directory" >&2; exit 1
  fi
  grep -q "scenrun:" "$FAULT_TMP/store.err" \
    || { echo "check.sh: unusable store died without naming itself:" >&2; \
         cat "$FAULT_TMP/store.err" >&2; exit 1; }
  echo "check.sh: faults smoke OK: scenstore verify + loud store failure"
fi

if [[ "$RUN_SCALE" -eq 1 ]]; then
  SCALE_TMP="$(mktemp -d)"
  GRID="examples/scenarios/scale/ring_smoke_grid.json"

  # The n=65536 smoke grid must finish inside a hard budget: with the
  # sparse-first topology and the ladder queue the four cells take ~10 s;
  # the old n x n bitset alone would have needed 512 MB per cell and the
  # heap made every one of the ~5M queue ops pay a log-of-population sift.
  timeout 300 "$BUILD_DIR/scenrun" "$GRID" --threads 4 \
    --json "$SCALE_TMP/full.json" --csv "$SCALE_TMP/full.csv" \
    || { echo "check.sh: scale grid failed or blew its 300 s budget" >&2; exit 1; }

  # Sharding a scale grid across worker processes must not show in the
  # bytes: each cell's topology, RNG, and metric policy derive from the spec
  # alone, never from run layout.
  scripts/scenlaunch.sh "$GRID" --workers 3 --build-dir "$BUILD_DIR" \
    --json "$SCALE_TMP/launched.json" --csv "$SCALE_TMP/launched.csv"
  diff "$SCALE_TMP/full.json" "$SCALE_TMP/launched.json"
  diff "$SCALE_TMP/full.csv" "$SCALE_TMP/launched.csv"
  echo "check.sh: scale smoke OK: n=65536 grid in budget, shards byte-identical"

  # One bench_scale ring cell with the per-cell budget enforced end-to-end.
  "$BUILD_DIR/bench_scale" --n 65536 --horizon 2 --budget 120 \
    || { echo "check.sh: bench_scale n=65536 blew its 120 s budget" >&2; exit 1; }
  echo "check.sh: scale smoke OK: bench_scale n=65536 in budget"

  # The sparse broadcast fabric at scale: the n=65536 auth grid on an
  # expander (neighbors + sampled fan-out) in budget, and sharded across
  # scenlaunch workers byte-identical — the sampled-mode RNG stream derives
  # from the cell spec alone, so shard layout cannot leak into the draws.
  EGRID="examples/scenarios/scale/expander_auth_grid.json"
  timeout 300 "$BUILD_DIR/scenrun" "$EGRID" --threads 4 \
    --json "$SCALE_TMP/efull.json" --csv "$SCALE_TMP/efull.csv" \
    || { echo "check.sh: expander grid failed or blew its 300 s budget" >&2; exit 1; }
  scripts/scenlaunch.sh "$EGRID" --workers 3 --build-dir "$BUILD_DIR" \
    --json "$SCALE_TMP/elaunched.json" --csv "$SCALE_TMP/elaunched.csv"
  diff "$SCALE_TMP/efull.json" "$SCALE_TMP/elaunched.json"
  diff "$SCALE_TMP/efull.csv" "$SCALE_TMP/elaunched.csv"
  echo "check.sh: scale smoke OK: expander auth grid in budget, shards byte-identical"

  # The sparse-fabric acceptance cell: auth at n=10^5 on expander(k=16) with
  # sampled fan-out, per-cell wall budget enforced by bench_scale itself.
  "$BUILD_DIR/bench_scale" --protocol auth --topology expander --expander-k 16 \
    --mode sampled --sample 8 --n 100000 --horizon 5 --budget 120 \
    || { echo "check.sh: sampled expander auth n=1e5 blew its 120 s budget" >&2; exit 1; }
  echo "check.sh: scale smoke OK: auth n=1e5 sampled expander in budget"

  # The soak cell: 500 rounds at n=4096. Node clocks are trimmed to a few
  # segments and pieces, so only the 16 B/pulse log and the timer table grow
  # with the run. The budgets are the measured 19-27 s / 73 MB (4-CPU host,
  # this build type) plus 15%; full clock histories and per-node pulse maps
  # peaked at 282 MB (37 s) here.
  "$BUILD_DIR/bench_scale" --protocol auth --topology expander --expander-k 8 \
    --mode sampled --sample 8 --n 4096 --horizon 500 --delay half \
    --budget 31 --rss-budget 84 \
    || { echo "check.sh: soak cell n=4096 x 500 rounds blew its budget" >&2; exit 1; }
  echo "check.sh: scale smoke OK: soak cell n=4096 x 500 rounds in budget"
fi

if [[ "$RUN_ASAN" -eq 1 ]]; then
  # -O1 keeps the sanitized suite quick; -fno-sanitize-recover turns every
  # UBSan finding into a hard test failure instead of a log line.
  SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1 -fno-omit-frame-pointer"
  cmake -B "$BUILD_DIR-asan" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build "$BUILD_DIR-asan" -j
  ctest --test-dir "$BUILD_DIR-asan" --output-on-failure -j "$(nproc)"
  echo "check.sh: asan suite OK"
fi

if [[ "$RUN_TSAN" -eq 1 ]]; then
  # The simulator itself is single-threaded; threads appear only in sweep
  # pools (one simulator per worker), concurrent result-store writers, and
  # test_signature's threads sharing one KeyRegistry memo behind its striped
  # mutexes. Run just the suites that start them: the full tree under TSan
  # would multiply CI time for no extra coverage.
  TSAN_FLAGS="-fsanitize=thread -g -O1 -fno-omit-frame-pointer"
  cmake -B "$BUILD_DIR-tsan" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build "$BUILD_DIR-tsan" -j \
    --target test_signature test_experiment test_corruption test_incremental \
    test_resultstore test_scenfile
  ctest --test-dir "$BUILD_DIR-tsan" --output-on-failure \
    -R '^(test_signature|test_experiment|test_corruption|test_incremental|test_resultstore|test_scenfile)$'
  echo "check.sh: tsan suite OK"
fi
echo "check.sh: all green"
