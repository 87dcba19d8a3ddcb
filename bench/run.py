#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the detmax coreset pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` and ``detmax run`` is started as ``python -m detmax`` with
``PYTHONPATH=src``.  Inputs are generated from ``--seed`` into
``bench/work/`` (git-ignored).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped, in
two cycles that share ``--seconds``: set-up passes (``load_instance`` on
the parsed document), one ``detmax run`` child per instance, then in-process
pipeline passes (``run_distributed``), each on its own split, until the
cycle's time is used.  Each time metric is a median over all its passes,
taken per instance and summed over the batch.
``--trace 1`` runs an untraced pipeline, then the traced set-up and
pipeline, and reports the per-layer metrics along with the deep
correctness checks on the coresets and the selection.

See bench/README.md for the workloads, the metrics and reference figures.
"""

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

# One BLAS thread per program thread: run_distributed already runs one
# thread per part, and the reference machine has two cores.  Set before numpy
# loads, here and in every child.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

# The benchmark, run_distributed's pool threads and every child run on one
# CPU (threads and children inherit the affinity).  On a shared 2-vCPU host
# the wall time of two threads on two CPUs swings by up to 2x with the
# neighbours' load; on one CPU it is the program's own work, and run medians
# spread several times less.  Parallel speed-ups do not show here.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import layers  # noqa: E402  (these load numpy, which reads THREAD_ENV once)
from checks import check_layers, check_report, check_selection, enumerated_optimum  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import M_PARTS, WORKLOADS, ZETA, draws  # noqa: E402

# cycles per run, each with one CLI round: cli_run_s and peak_rss_mib are medians over these
CYCLES = 2
# pipeline passes in a cycle repeat until its time is used, and at least this often
PIPELINE_MIN = 2
# set-up passes in a cycle repeat until they have taken this long
SETUP_MIN_S = 0.25


def _median(values):
    return float(statistics.median(values))


def split_seed(seed, pass_no):
    """Each pipeline pass splits the instance afresh, so one run samples many splits."""
    return seed * 1000 + pass_no


def _import_program():
    if not (SRC / "detmax" / "__init__.py").is_file():
        raise SystemExit("error: no src/detmax here; run from the root of a detmax checkout")
    sys.path.insert(0, str(SRC))
    import detmax
    import detmax.harness  # noqa: F401  (attributes are looked up at call time, so wrappers apply)
    import detmax.instances  # noqa: F401

    if Path(detmax.__file__).resolve().parent != (SRC / "detmax").resolve():
        raise SystemExit("error: imported detmax from %s, not from src/" % detmax.__file__)
    return detmax


def write_inputs(workload, draw, batch):
    """Write each instance document where ``detmax run`` can read it."""
    out = WORK / workload / ("draw%d" % draw)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for inst in batch:
        path = out / (inst.name + ".json")
        with open(path, "w") as fh:
            fh.write(json.dumps(inst.doc, separators=(",", ":")))
        paths.append(path)
    return paths


class Spawner:
    """The small process that starts each ``detmax run`` child (see spawner.py)."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self):
        self._proc.stdin.close()
        self._proc.wait(timeout=60)

    def run_cli(self, path, inst, seed, report_path):
        """One ``detmax run`` child: wall seconds, peak RSS in MiB, report JSON or None, error."""
        cmd = [
            sys.executable, "-m", "detmax", "run",
            "--instance", str(path), "--parts", str(M_PARTS), "--seed", str(seed),
            "--oracle", inst.oracle, "--out", str(report_path),
        ]
        err_path = report_path.with_suffix(".stderr")
        if report_path.exists():
            report_path.unlink()
        job = {"cmd": cmd, "cwd": str(ROOT), "stderr": str(err_path),
               "env": dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)}
        self._proc.stdin.write(json.dumps(job) + "\n")
        self._proc.stdin.flush()
        done = json.loads(self._proc.stdout.readline())
        wall, rss_mib = done["wall_s"], done["maxrss_kib"] / 1024.0  # Linux reports KiB
        if done["exit"] != 0 or not report_path.exists():
            return wall, rss_mib, None, "detmax run exited %d: %s" % (done["exit"], err_path.read_text()[-300:])
        with open(report_path) as fh:
            return wall, rss_mib, json.load(fh), None


def _strip_timings(doc):
    return {k: v for k, v in doc.items() if k != "timings"}


def _same_report(a, b):
    """Two RunReports (as JSON) agree apart from their timings."""
    return isinstance(a, dict) and isinstance(b, dict) and _strip_timings(a) == _strip_timings(b)


class Ledger:
    """Operations attempted and failed.

    A failure is expected only where an instance shows its known fault's own
    symptom and nothing else; any other problem makes the run not correct.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.expected = set()

    def record(self, inst, problems, symptom=False):
        self.attempted += 1
        if not problems and not symptom:
            return
        self.failed += 1
        if symptom:
            self.expected.add("%s: %s" % (inst.name, inst.known_fault))
        if problems:
            self.unexpected.append("%s: %s" % (inst.name, "; ".join(problems)))

    @property
    def correct(self):
        return not self.unexpected


class Context:
    """What every measurement needs: the program, the inputs and the checks' own answers."""

    def __init__(self, detmax, workload, batch, paths, seed):
        self.harness = detmax.harness
        self.instances = detmax.instances
        self.workload = workload
        self.batch = batch
        self.paths = paths
        self.seed = seed
        # the full optimum by enumeration, wherever the program's oracle runs
        self.full = {
            inst.name: enumerated_optimum(inst, inst.X)[0]
            for inst in batch
            if inst.oracle == "force"
        }
        # the optimum as the known fault lets the program see it
        self.fault_full = {
            inst.name: enumerated_optimum(inst, inst.X, set(range(inst.n)) - inst.fault_hides)[0]
            for inst in batch
            if inst.oracle == "force" and inst.fault_hides
        }

    def load(self):
        return [self.instances.load_instance(inst.doc) for inst in self.batch]

    def pipeline(self, loaded, sseed, tracer=None):
        """run_distributed on every instance: (JSON reports or exceptions, seconds each, records)."""
        reports, elapsed, records = [], [], []
        for inst, (points, constraint, _) in zip(self.batch, loaded):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rep = self.harness.run_distributed(points, constraint, M_PARTS, sseed, oracle=inst.oracle)
                else:
                    with tracer.span("bench.pipeline"):
                        rep = self.harness.run_distributed(points, constraint, M_PARTS, sseed, oracle=inst.oracle)
            except Exception as exc:  # a failed operation; the ledger counts it
                rep = exc
            elapsed.append(time.perf_counter() - t0)
            reports.append(rep if isinstance(rep, Exception) else json.loads(json.dumps(rep.to_json())))
            if tracer is not None:
                records.append(tracer.drain())
        return reports, elapsed, records

    def check(self, inst, rep, rec=None):
        """(problems, symptom) for one instance's run.

        ``symptom`` is true when the run is wrong only in the way its known
        fault makes it wrong: every check fails to hold against the true
        optima and holds once the points the fault hides are left out.
        """
        problems = self._check(inst, rep, rec, self.full.get(inst.name), frozenset())
        if problems and inst.fault_hides:
            if not self._check(inst, rep, rec, self.fault_full[inst.name], inst.fault_hides):
                return [], True
        return problems, False

    def _check(self, inst, rep, rec, full, hidden):
        """Problems with one run; with a capture record, also its coresets and selection."""
        if isinstance(rep, Exception):
            return ["run_distributed raised %r" % (rep,)]
        problems = check_report(inst, rep, full)
        if rec is None:
            return problems
        builds = rec.kept.get("coreset.build", [])
        solves = rec.kept.get("solver.solve", [])
        X = inst.X
        if builds and solves:
            composed = set().union(*(cs.ids for _, cs in builds))
            problems += check_selection(inst, X, solves[0][1], composed, rep, hidden)
        if builds and inst.kind != "laminar":
            problems += check_layers(inst, X, [(args[1], cs) for args, cs in builds], ZETA)
        return problems


def end_to_end(ctxs, seconds, ledger, spawner):
    """Untraced cycles of set-up, CLI and pipeline, then one captured pass for the deep checks.

    The run is split into ``CYCLES`` cycles of equal length, which take the
    workload's draws in turn.  A cycle times set-up passes (for at least
    ``SETUP_MIN_S``), one ``detmax run`` child per instance, and then
    pipeline passes until its share of ``seconds`` is used (at least
    ``PIPELINE_MIN`` of them).  Every pipeline
    pass splits the data with its own seed, so one run averages over many
    splits as well as over the host's speed, which moves in phases of about a
    second.  Per-instance times are medians over all their passes, summed
    over the batch.
    """
    gc.collect()
    gc.freeze()  # the generated documents are long-lived; keep them out of collections
    n = len(ctxs[0].batch)
    setup, pipe, cli = [], [[] for _ in range(n)], [[] for _ in range(n)]
    rss, composed, objective = [], [], []
    passes = 0
    start = time.perf_counter()
    for cycle in range(CYCLES):
        ctx = ctxs[cycle % len(ctxs)]
        cycle_end = start + seconds * (cycle + 1) / CYCLES
        loaded, spent = None, 0.0
        while loaded is None or spent < SETUP_MIN_S:
            loaded = None  # drop the last pass's instances outside the timing
            t0 = time.perf_counter()
            loaded = ctx.load()
            setup.append(time.perf_counter() - t0)
            spent += setup[-1]
        first, cycle_passes = None, 0
        while cycle_passes < PIPELINE_MIN or time.perf_counter() < cycle_end:
            sseed = split_seed(ctx.seed, passes)
            reports, elapsed, _ = ctx.pipeline(loaded, sseed)
            passes += 1
            cycle_passes += 1
            for i, (inst, rep) in enumerate(zip(ctx.batch, reports)):
                pipe[i].append(elapsed[i])
                ledger.record(inst, *ctx.check(inst, rep))
            good = [r for r in reports if not isinstance(r, Exception)]
            composed.append(sum(r["composed_size"] for r in good))
            objective.append(sum(r["coreset_value"] for r in good if r["coreset_value"] != "-inf"))
            if first is None:
                first = (sseed, reports)
                _cli_round(ctx, sseed, reports, ledger, spawner, cli, rss)

    # the last cycle's first split again, with the capture wrappers on
    sseed, reports0 = first
    capture = Tracer()
    keep = [t for t in layers.targets() if t.keep]
    with capture.installed(keep):
        reports, _, records = ctx.pipeline(loaded, sseed, capture)
    for inst, rep, rec, rep0 in zip(ctx.batch, reports, records, reports0):
        problems, symptom = ctx.check(inst, rep, rec)
        if not isinstance(rep, Exception) and not _same_report(rep, rep0):
            problems.append("rerun with the same split gave another report")
        ledger.record(inst, problems, symptom)
    gc.unfreeze()
    _print_absent(capture)
    print("%d set-up passes, %d pipeline passes, %d CLI rounds, %d draw(s)"
          % (len(setup), passes, CYCLES, len(ctxs)))
    return {
        "setup_s": (_median(setup), "s"),
        "pipeline_s": (sum(_median(t) for t in pipe), "s"),
        "cli_run_s": (sum(_median(t) for t in cli), "s"),
        "peak_rss_mib": (_median(rss), "MiB"),
        "composed_points": (_median(composed), "count"),
        "objective_log": (_median(objective), "nats"),
    }, CYCLES


def _cli_round(ctx, sseed, reports, ledger, spawner, cli, rss):
    """One ``detmax run`` child per instance on split ``sseed``, checked against the in-process reports."""
    rss_max = 0.0
    for i, (inst, path, rep) in enumerate(zip(ctx.batch, ctx.paths, reports)):
        report_path = path.with_suffix(".report.json")
        wall, peak, cli_rep, cli_err = spawner.run_cli(path, inst, sseed, report_path)
        cli[i].append(wall)
        rss_max = max(rss_max, peak)
        if cli_err:
            problems, symptom = [cli_err], False
        else:
            problems, symptom = ctx.check(inst, cli_rep)
            if not isinstance(rep, Exception) and not _same_report(cli_rep, rep):
                problems.append("detmax run report differs from the in-process report")
        ledger.record(inst, problems, symptom)
    rss.append(rss_max)


def traced(ctx, seconds, ledger):
    """Rounds of an untraced pipeline, then the traced set-up and pipeline on the same split."""
    gc.collect()
    gc.freeze()
    tracer = Tracer()
    targets = layers.targets()
    sseed = split_seed(ctx.seed, 0)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        untraced = sum(ctx.pipeline(ctx.load(), sseed)[1])
        setup_recs = []
        with tracer.installed(targets):
            loaded = []
            for inst in ctx.batch:
                with tracer.span("bench.setup"):
                    loaded.append(ctx.instances.load_instance(inst.doc))
                setup_recs.append(tracer.drain())
            reports, _, pipe_recs = ctx.pipeline(loaded, sseed, tracer)
        del loaded
        for inst, rep, rec in zip(ctx.batch, reports, pipe_recs):
            ledger.record(inst, *ctx.check(inst, rep, rec))
        rounds.append((untraced, setup_recs, pipe_recs, reports))
    gc.unfreeze()
    metrics, problems = layers.metrics(rounds, tracer.absent)
    ledger.unexpected += ["trace: " + p for p in problems]
    spans_path = WORK / ctx.workload / "trace.json"
    with open(spans_path, "w") as fh:
        json.dump(layers.spans_doc(rounds, ctx.batch), fh)
    _print_absent(tracer)
    print("spans written to %s" % spans_path.relative_to(ROOT))
    return metrics, len(rounds)


def _print_absent(tracer):
    """A renamed boundary must show: its metrics are left out and its checks skipped."""
    print("wrap targets absent: %s" % (", ".join(t.label for t in tracer.absent) or "none"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gen-only", action="store_true",
                        help="write the workload's instance files to bench/work/ and stop")
    args = parser.parse_args(argv)

    detmax = _import_program()
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)" % (args.workload, ", ".join(WORKLOADS)))
    spawner = None if args.trace or args.gen_only else Spawner()  # before the inputs exist
    try:
        return _run(args, detmax, spawner)
    finally:
        if spawner is not None:
            spawner.close()


def _run(args, detmax, spawner):
    t0 = time.perf_counter()
    batches = draws(args.workload, args.seed, limit=1 if args.trace else None)  # the traced pass runs draw 0
    paths = [write_inputs(args.workload, draw, batch) for draw, batch in enumerate(batches)]
    print("generated %d draw(s) of %d instance(s) in %.2f s"
          % (len(batches), len(batches[0]), time.perf_counter() - t0))
    if args.gen_only:
        for path in sum(paths, []):
            print(path.relative_to(ROOT))
        return 0

    ledger = Ledger()
    ctxs = [Context(detmax, args.workload, batch, p, args.seed) for batch, p in zip(batches, paths)]
    if args.trace:
        metrics, rounds = traced(ctxs[0], args.seconds, ledger)
    else:
        metrics, rounds = end_to_end(ctxs, args.seconds, ledger, spawner)
    print("workload %s, seed %d, %d round(s)" % (args.workload, args.seed, rounds))
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, unit))
    print("operations attempted %d, failed %d" % (ledger.attempted, ledger.failed))
    for line in sorted(ledger.expected):
        print("  expected failure (known fault): %s" % line)
    for line in ledger.unexpected:
        print("  FAILED: %s" % line)
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
