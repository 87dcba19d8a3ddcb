"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line on the real stdout (bypassing
pytest's capture) so the tee'd run log doubles as the acceptance report,
then asserts the same condition so pytest's verdict agrees with the line.
Checks c01-c08 are the property bodies of ``detmax.properties``, run at
their fixed seeds; ``detmax verify`` runs the same bodies.
"""

import contextlib
import csv
import io
import json
import sys
import time

import pytest

from detmax import (
    InstanceSpec,
    bench_scaling,
    build_coreset,
    coreset_to_json,
    main,
    properties,
    random_instance,
)

ZETA = 1.01


@pytest.fixture
def report(capfd):
    """Emit one PASS/FAIL line past pytest's capture, onto the real stdout."""

    def _emit(tag, ok, detail=""):
        line = "%s %s" % ("PASS" if ok else "FAIL", tag)
        if detail:
            line += ": " + detail
        with capfd.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()

    return _emit


def _gate(report, tag, outcome):
    ok, detail = outcome
    report(tag, ok, detail)
    assert ok, detail


def test_c01_cauchy_binet_equivalence(report):
    t0 = time.perf_counter()
    ok, detail = properties.cauchy_binet(20260825)
    elapsed = time.perf_counter() - t0
    _gate(report, "01 cauchy-binet equivalence", (ok and elapsed < 10.0, "%s, %.2fs" % (detail, elapsed)))


def test_c02_exchange_inequality_at_local_optima(report):
    _gate(report, "02 exchange inequality at local optima", properties.exchange_inequality(9))


def test_c03_value_preserving_exchange_constructivity(report):
    _gate(report, "03 value-preserving exchange constructivity", properties.value_preserving_exchange(31))


def test_c04_end_to_end_composability_bound(report):
    _gate(report, "04 end-to-end composability bound", properties.composability(77))


def test_c05_coreset_size_bounds(report):
    _gate(report, "05 coreset size bounds", properties.size_bounds(55))


def test_c06_laminar_exchange_feasibility(report):
    _gate(report, "06 laminar exchange feasibility", properties.laminar_exchange(66))


def test_c07_adversarial_lower_bounds(report):
    _gate(report, "07 adversarial lower bounds", properties.lower_bounds())


def test_c08_hard_instance_planted_advantage(report):
    _gate(report, "08 hard-instance planted advantage", properties.hard_input(3))


def test_c09_construction_time_scaling(report):
    t0 = time.perf_counter()
    rows = bench_scaling(8, 12, [1000, 10000, 100000], seed=0, repeats=3)
    elapsed = time.perf_counter() - t0
    ratios = [b["seconds"] / a["seconds"] for a, b in zip(rows, rows[1:])]
    ok = all(r <= 15.0 for r in ratios) and elapsed < 120.0
    report(
        "09 construction-time scaling",
        ok,
        "seconds %s, 10x-growth ratios %s, total %.1fs"
        % (
            ["%.4f" % r["seconds"] for r in rows],
            ["%.2f" % r for r in ratios],
            elapsed,
        ),
    )
    assert ok, "ratios %r, elapsed %.1fs" % (ratios, elapsed)


def _strip_timings(path):
    doc = json.loads(path.read_text())
    doc.pop("timings", None)
    return json.dumps(doc, sort_keys=True)


def _strip_seconds(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row.pop("seconds", None)
    return json.dumps(rows)


def test_c10_cli_determinism(tmp_path, report):
    mismatches = []

    def twice(name, argv_of, canon):
        a, b = tmp_path / (name + "_a"), tmp_path / (name + "_b")
        assert main(argv_of(a)) == 0
        assert main(argv_of(b)) == 0
        if canon(a) != canon(b):
            mismatches.append(name)
        return a

    raw = lambda p: p.read_bytes()
    inst = twice(
        "gen",
        lambda out: ["gen", "--generator", "random", "--n", "12", "--d", "3",
                     "--constraint", "partition", "--caps", "2,1,1", "--seed", "4",
                     "--out", str(out)],
        raw,
    )
    cs = twice(
        "coreset",
        lambda out: ["coreset", "--instance", str(inst), "--zeta", "1.01",
                     "--out", str(out)],
        raw,
    )
    twice(
        "solve",
        lambda out: ["solve", "--instance", str(inst), "--coreset", str(cs),
                     "--out", str(out)],
        raw,
    )
    half_spec = InstanceSpec(
        "random", 12, 2, 2, {"type": "partition", "caps": [1, 1]}, 21
    )
    points, constraint = random_instance(half_spec)
    pa, pb = tmp_path / "left.json", tmp_path / "right.json"
    pa.write_text(json.dumps(coreset_to_json(
        build_coreset(points, list(range(6)), constraint, ZETA, "auto"))))
    pb.write_text(json.dumps(coreset_to_json(
        build_coreset(points, list(range(6, 12)), constraint, ZETA, "auto"))))
    twice(
        "compose",
        lambda out: ["compose", str(pa), str(pb), "--out", str(out)],
        raw,
    )
    twice(
        "run",
        lambda out: ["run", "--instance", str(inst), "--parts", "2", "--seed", "9",
                     "--out", str(out)],
        _strip_timings,
    )
    twice(
        "bench",
        lambda out: ["bench", "--n-list", "200,400", "--d", "3", "--k", "4",
                     "--seed", "2", "--out", str(out)],
        _strip_seconds,
    )
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["verify", "--suite", "sizes", "--seed", "1"])
        assert code == 0
        outs.append(buf.getvalue())
    if outs[0] != outs[1]:
        mismatches.append("verify")
    ok = not mismatches
    report(
        "10 CLI determinism",
        ok,
        "gen/coreset/solve/compose/run/bench/verify reran byte-identical"
        if ok else "mismatched: %s" % ", ".join(mismatches),
    )
    assert ok, "non-deterministic commands: %r" % mismatches
