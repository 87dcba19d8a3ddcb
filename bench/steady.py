#!/usr/bin/env python3
"""Steadiness mode: run each workload repeatedly and summarise the spread.

    python3 bench/steady.py [--first-seed 1]

For each workload in BENCHMARK.json it makes ten ``bench/run.py --trace 0``
runs, each a separate invocation with its own seed (first-seed,
first-seed + 1, ...) and BENCHMARK.json's run length, one after another.
For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the quartile spread as a share of
the median, the worst run-to-run ratio (largest value over smallest) and
whether the spread stays below a third of the metric's bound.  Before each
run it times a fixed pure-Python loop, so that a drift in the host's speed
shows next to the metrics.  All values go to bench/work/steady-seed<N>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    lo, hi = min(values), max(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("nan"),
        "worst_ratio": hi / lo if lo > 0 else float("nan"),
        "values": values,
    }


def host_probe():
    """Seconds for a fixed pure-Python loop: how fast the host runs right now."""
    start = time.perf_counter()
    sum(range(5_000_000))
    return time.perf_counter() - start


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit("run failed (%s seed %d):\n%s" % (workload, seed, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    seeds = range(args.first_seed, args.first_seed + RUNS)

    report = {}
    for workload in names:
        results, walls, probes = [], [], []
        for seed in seeds:
            probes.append(host_probe())
            result, wall = run_once(workload, seed, spec["run_seconds"])
            results.append(result)
            walls.append(wall)
            print("  %s seed %d: %.1f s, host probe %.3f s, correct %s, %d/%d failed" % (
                workload, seed, wall, probes[-1], result["correct"],
                result["failed"], result["attempted"]), flush=True)
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in results])
            for name in results[0]["metrics"]
        }
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        report[workload] = {
            "seeds": [seeds[0], seeds[-1]],
            "correct": all(r["correct"] for r in results),
            "failed_shares": shares,
            "run_wall_s": summarise(walls),
            "host_probe_s": summarise(probes),
            "metrics": metrics,
        }
        print("%s: seeds %d..%d, correct %s, failed share(s) %s, run wall median %.1f s (max %.1f), "
              "host probe spread %.4f" % (
                  workload, seeds[0], seeds[-1], report[workload]["correct"],
                  shares, statistics.median(walls), max(walls), report[workload]["host_probe_s"]["spread"]))
        print("  %-36s %12s %12s %12s %8s %8s %s" % ("metric", "median", "q1", "q3", "spread", "worst", "bound"))
        for name, s in metrics.items():
            bound = bounds[name]
            flag = "%.2f %s" % (bound, "ok" if s["spread"] < bound / 3 else "WIDE")
            print("  %-36s %12.6g %12.6g %12.6g %8.4f %8.4f %s" % (
                name, s["median"], s["q1"], s["q3"], s["spread"], s["worst_ratio"], flag))
    out = BENCH / "work" / ("steady-seed%d.json" % args.first_seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print("written to %s" % out.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
