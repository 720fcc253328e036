#!/usr/bin/env python3
"""The simulator benchmark: four `auth` workloads, measured from outside.

    python3 perfbench/run.py --workload dense_n300 --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the simulator library plus two programs) into
.bench_build/perfbench, then runs one workload, each simulation in a fresh
process:

  --trace 0  repeats e2e_runner's `run`, each followed by a `setup` process,
             while the next pair is expected to end within --seconds;
             reports the end-to-end metrics: wall_s, the mean over the
             processes, and peak_rss_mb and setup_s, the medians of their
             samples.
  --trace 1  one untraced `run` plus one traced_runner process; reports the
             per-layer metrics.

Every simulated run passes a correctness gate (see `gate`); a run that fails
it, or a traced run that does not reproduce the untraced run exactly, counts
as a failed operation. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. perfbench/README.md explains
the workloads and every metric.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("dense_n300", "sparse_n1e5", "soak_n4096", "byzantine_n300")
DEADLINE_S = 170  # a whole run, programs included, ends within 180 s
STATS = ("events", "messages", "max_skew", "steady_skew", "local_skew", "steady_local_skew")
EXACT = ("events", "messages", "max_skew", "local_skew")  # traced must reproduce these


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(targets):
    if not (ROOT / "src" / "experiment" / "scenario.h").is_file():
        log(f"perfbench: no simulator sources under {ROOT / 'src'}")
        sys.exit(2)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", "4", "--target", *targets],
                   check=True, stdout=sys.stderr)


def call(args, deadline):
    """Runs one benchmark program; returns its JSON output, or None if it failed."""
    try:
        proc = subprocess.run([str(BUILD_DIR / args[0]), *args[1:]], capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args[0]} timed out")
        return None
    if proc.returncode != 0:
        log(f"perfbench: {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
        return None
    if proc.stderr.strip():
        log(proc.stderr.strip())
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate(r):
    """The paper's claims on one untraced run; returns the names of failed checks."""
    failed = []
    if not r["live"]:
        failed.append("live")
    if r["min_pulses"] < r["horizon"] / r["period"] - 1:
        failed.append("min_pulses >= horizon/P - 1")
    if r["complete"]:
        if not r["steady_skew"] <= r["precision"]:
            failed.append("steady_skew <= bounds.precision")
    else:
        # The sparse-fabric envelope, over a lower bound on the diameter.
        envelope = 2 * (r["initial_sync"] + r["diameter_lb"] * r["tdel"]
                        + 2 * r["rho"] * r["period"])
        if not r["max_skew"] <= envelope:
            failed.append("max_skew <= 2(initial_sync + diameter*tdel + 2*rho*P)")
    tol = r["rate_tol"]
    if not (tol > 0 and r["rate_lo"] - tol <= r["min_rate"] and r["max_rate"] <= r["rate_hi"] + tol):
        failed.append("fitted rates within [rate_lo - tol, rate_hi + tol]")
    return failed


class Tally:
    """Counts simulated runs and failed ones; prints each run's statistics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = None  # the first run's statistics; later runs must match

    def untraced(self, r):
        self.attempted += 1
        if r is None:
            self.failed += 1
            return None
        failed = gate(r)
        stats = {key: r[key] for key in STATS}
        if self.reference is None:
            self.reference = stats
        elif stats != self.reference:
            failed.append("same statistics as the run's first repetition")
        print("  run: wall_s=%.4f peak_rss_mb=%.2f %s%s" % (
            r["wall_s"], r["peak_rss_mb"], " ".join(f"{k}={v}" for k, v in stats.items()),
            "  FAILED: " + "; ".join(failed) if failed else ""))
        if failed:
            self.failed += 1
            return None
        return r


def describe(name, unit, values):
    """Prints a timing as its median and the highest percentile with >= 10 samples beyond it."""
    values = sorted(values)
    n = len(values)
    if n >= 20:
        tail = "p%.1f=%.6g %s" % (100.0 * (n - 10) / n, values[n - 11], unit)
    else:
        tail = "no percentile above the median has 10 samples beyond it"
    print(f"  {name}: median {statistics.median(values):.6g} {unit} over {n} samples; "
          f"mean {statistics.mean(values):.6g}, min {values[0]:.6g} {unit}; {tail}")


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, deadline, tally):
    begin = time.monotonic()
    walls, rss, setups = [], [], []
    spans = []  # host seconds per run + setup pair, start to exit
    while not walls or time.monotonic() - begin + statistics.median(spans) <= seconds:
        start = time.monotonic()
        r = tally.untraced(call(["e2e_runner", "run", workload, str(seed)], deadline))
        setup = call(["e2e_runner", "setup", workload, str(seed)], deadline)
        if r is None or setup is None:
            return None
        spans.append(time.monotonic() - start)
        walls.append(r["wall_s"])
        rss.append(r["peak_rss_mb"])
        setups.extend(setup["setup_s"])
    describe("wall_s", "s", walls)
    describe("peak_rss_mb", "MB", rss)
    describe("setup_s", "s", setups)
    # Every process of a run does the same deterministic work (the gate checks
    # it), so their wall times differ only by host interference. That noise
    # comes and goes between processes; the mean averages it out best
    # (perfbench/README.md compares mean, median and minimum).
    return {
        "wall_s": metric(statistics.mean(walls), "s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def per_layer(workload, seed, deadline, tally):
    r = tally.untraced(call(["e2e_runner", "run", workload, str(seed)], deadline))
    if r is None:
        return None
    tally.attempted += 1
    t = call(["traced_runner", workload, str(seed)] + [repr(r[key]) for key in EXACT], deadline)
    if t is None or not t["valid"] or any(t[key] != r[key] for key in EXACT):
        print("  traced run: INVALID (did not reproduce the untraced run)")
        tally.failed += 1
        return None
    layers = t["layers"]
    sim = layers["sim"]["self_s"]
    metrics = {f"setup.{key}": metric(value, "s") for key, value in t["setup"].items()}
    metrics.update({
        "rss.setup_mb": metric(t["rss_setup_mb"], "MB"),
        "rss.growth_mb": metric(t["rss_peak_mb"] - t["rss_setup_mb"], "MB"),
        "sim.self_s": metric(sim, "s"),
        "sim.events": metric(t["events"], "count"),
        "sim.messages": metric(t["messages"], "count"),
        "sim.ns_per_event": metric(sim * 1e9 / max(t["events"], 1), "ns"),
        "sim.parallel_windows": metric(r["parallel_windows"], "count"),
        "network.delay_calls": metric(layers["network"]["calls"], "count"),
        "network.delay_self_s": metric(layers["network"]["self_s"], "s"),
        "protocol.self_s": metric(layers["protocol"]["self_s"], "s"),
        "protocol.calls": metric(layers["protocol"]["calls"], "count"),
        "broadcast.self_s": metric(layers["broadcast"]["self_s"], "s"),
        "broadcast.calls": metric(layers["broadcast"]["calls"], "count"),
        "broadcast.sigs_offered": metric(t["sigs_offered"], "count"),
        "crypto.verify_ns": metric(t["verify_ns"], "ns"),
        "crypto.sign_ns": metric(t["sign_ns"], "ns"),
        # Computed, not measured: every offered signature verified once.
        "crypto.verify_upper_s": metric(t["verify_ns"] * t["sigs_offered"] * 1e-9, "s"),
        "adversary.self_s": metric(layers["adversary"]["self_s"], "s"),
        "adversary.calls": metric(layers["adversary"]["calls"], "count"),
        "trace.skew_self_s": metric(layers["trace.skew"]["self_s"], "s"),
        "trace.envelope_self_s": metric(layers["trace.envelope"]["self_s"], "s"),
        "trace.samples": metric(layers["trace.skew"]["calls"], "count"),
        "experiment.self_s": metric(layers["experiment"]["self_s"], "s"),
        "trace.wall_s": metric(t["wall_s"], "s"),
        "trace.overhead_frac": metric(t["wall_s"] / r["wall_s"] - 1, "ratio"),
    })
    traced = sum(layer["self_s"] for layer in layers.values())
    print("  traced run: reproduces the untraced run exactly; wall_s=%.4f "
          "(untraced %.4f)" % (t["wall_s"], r["wall_s"]))
    for name, layer in sorted(layers.items(), key=lambda item: -item[1]["self_s"]):
        print("    %-15s %8.4f s  %5.1f%%  %d calls" % (
            name, layer["self_s"], 100 * layer["self_s"] / traced, layer["calls"]))
    print("  crypto.verify_upper_s is computed, not measured: crypto.verify_ns x "
          "broadcast.sigs_offered, an upper bound on verify time")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    deadline = time.monotonic() + DEADLINE_S
    build(["e2e_runner", "traced_runner"] if args.trace else ["e2e_runner"])

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    tally = Tally()
    if args.trace:
        metrics = per_layer(args.workload, args.seed, deadline, tally)
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, deadline, tally)
    for name, m in (metrics or {}).items():
        print(f"  {name} = {m['value']} {m['unit']}")
    correct = metrics is not None and tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed if correct else max(tally.failed, 1),
                      "metrics": metrics or {}}))


if __name__ == "__main__":
    main()
