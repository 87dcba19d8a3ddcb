import csv
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import detmax.harness
import detmax.properties
from detmax import (
    CardinalityConstraint,
    InstanceSpec,
    InvariantError,
    LaminarConstraint,
    PointSet,
    PreconditionError,
    bench_scaling,
    build_coreset,
    coreset_to_json,
    instance_to_json,
    main,
    random_instance,
    run_distributed,
    run_suites,
)


def _partition_instance(seed=5, n=14, d=3, caps=(2, 2, 1)):
    spec = InstanceSpec(
        "random", n, d, sum(caps), {"type": "partition", "caps": list(caps)}, seed
    )
    return random_instance(spec)


def _strip_timings(doc):
    doc = dict(doc)
    doc.pop("timings", None)
    return doc


class TestRunDistributed:
    def test_ratio_within_bound(self):
        points, constraint = _partition_instance()
        report = run_distributed(points, constraint, 2, seed=0)
        assert report.oracle == "brute_force"
        assert report.ratio_log is not None
        assert -1e-9 <= report.ratio_log <= report.bound_log + 1e-9

    def test_single_part_equals_plain_coreset(self):
        points, constraint = _partition_instance(seed=7)
        report = run_distributed(points, constraint, 1, seed=0)
        cs = build_coreset(points, points.ids, constraint, 1.01)
        assert report.composed_size == len(cs.ids)

    def test_adversarial_split(self):
        points, constraint = _partition_instance(seed=8)
        report = run_distributed(points, constraint, 2, seed=0, split="by-group")
        assert report.config["split"] == "by-group"
        assert -1e-9 <= report.ratio_log <= report.bound_log + 1e-9

    def test_more_parts_than_points(self):
        points, constraint = _partition_instance(seed=9, n=6, d=2, caps=(1, 1))
        report = run_distributed(points, constraint, 5, seed=3)
        assert sum(p["size"] for p in report.parts) == 6

    def test_report_excluding_timings_deterministic(self):
        points, constraint = _partition_instance(seed=10)
        a = run_distributed(points, constraint, 3, seed=4).to_json()
        b = run_distributed(points, constraint, 3, seed=4).to_json()
        assert _strip_timings(a) == _strip_timings(b)
        assert json.dumps(_strip_timings(a), sort_keys=True) == json.dumps(
            _strip_timings(b), sort_keys=True
        )

    def test_bound_violation_raises(self, monkeypatch):
        # a raised check, so it also holds under `python -O`
        points, constraint = _partition_instance()
        true_opt = detmax.harness.brute_force_opt

        def inflated(pts, cons):
            res = true_opt(pts, cons)
            return dataclasses.replace(res, log_value=res.log_value + 100.0)

        monkeypatch.setattr(detmax.harness, "brute_force_opt", inflated)
        with pytest.raises(InvariantError, match="approximation bound violated"):
            run_distributed(points, constraint, 2, seed=0)

    def test_oracle_skip(self):
        points, constraint = _partition_instance(seed=11)
        report = run_distributed(points, constraint, 2, seed=0, oracle="skip")
        assert report.oracle == "skipped"
        assert report.ratio_log is None
        assert report.full_value is None

    def test_bad_arguments(self, monkeypatch):
        points, constraint = _partition_instance(seed=12)
        with pytest.raises(PreconditionError):
            run_distributed(points, constraint, 0, seed=0)
        with pytest.raises(PreconditionError):
            run_distributed(points, constraint, 2, seed=0, split="sorted")

        def no_coreset(*args, **kwargs):
            raise AssertionError("build_coreset ran before oracle was checked")

        monkeypatch.setattr(detmax.harness, "build_coreset", no_coreset)
        with pytest.raises(PreconditionError, match="oracle must be"):
            run_distributed(points, constraint, 2, seed=0, oracle="maybe")


class TestBench:
    def test_rows_and_sizes(self):
        rows = bench_scaling(4, 6, [100, 200], seed=0, s=2, repeats=2)
        assert [r["n"] for r in rows] == [100, 200]
        for r in rows:
            assert r["seconds"] > 0
            assert 0 < r["coreset_size"] <= 6 * 4


class TestSuites:
    def test_all_suites_green(self):
        for name, ok, detail in run_suites("all", seed=0):
            assert ok, "%s failed: %s" % (name, detail)

    def test_unknown_suite(self):
        with pytest.raises(PreconditionError):
            run_suites("nonexistent")

    def test_a_body_that_raises_is_a_fail_line(self, monkeypatch, capsys):
        def body(seed):
            raise InvariantError("peeling layers must be disjoint")

        monkeypatch.setitem(detmax.properties.SUITES, "sizes", body)
        assert run_suites("sizes", seed=3) == [
            ("sizes", False, "raised InvariantError: peeling layers must be disjoint")
        ]
        assert main(["verify", "--suite", "sizes"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("FAIL sizes: raised InvariantError: peeling layers must be disjoint\n", "")


RUN = ["run", "--instance", "{path}"]  # argv of a run on the test's instance file


class TestCli:
    def _gen(self, tmp_path, name="inst.json", extra=()):
        path = tmp_path / name
        argv = [
            "gen", "--generator", "random", "--n", "14", "--d", "3",
            "--constraint", "partition", "--caps", "2,2,1", "--seed", "5",
            "--out", str(path),
        ]
        argv.extend(extra)
        assert main(argv) == 0
        return path

    def test_gen_solve_pipeline(self, tmp_path):
        inst = self._gen(tmp_path)
        cs = tmp_path / "cs.json"
        sol = tmp_path / "sol.json"
        assert main(["coreset", "--instance", str(inst), "--out", str(cs)]) == 0
        assert main(["solve", "--instance", str(inst), "--coreset", str(cs),
                     "--out", str(sol)]) == 0
        got = json.loads(sol.read_text())
        assert got["feasible"] is True
        doc = json.loads(cs.read_text())
        assert set(doc) >= {"regime", "ids", "layers", "declared_bound", "zeta", "ell", "source"}

    def test_run_command_and_csv(self, tmp_path):
        inst = self._gen(tmp_path)
        out = tmp_path / "run.json"
        csv_path = tmp_path / "run.csv"
        assert main(["run", "--instance", str(inst), "--parts", "2", "--seed", "3",
                     "--out", str(out), "--csv", str(csv_path)]) == 0
        report = json.loads(out.read_text())
        assert report["oracle"] == "brute_force"
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["n"] == "14"

    def test_compose_distinct_machines(self, tmp_path):
        points, constraint = _partition_instance(seed=20, n=16, d=2, caps=(1, 1))
        a = build_coreset(points, list(range(8)), constraint, 1.01)
        b = build_coreset(points, list(range(8, 16)), constraint, 1.01)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(coreset_to_json(a)))
        pb.write_text(json.dumps(coreset_to_json(b)))
        out = tmp_path / "union.json"
        assert main(["compose", str(pa), str(pb), "--out", str(out)]) == 0
        union = json.loads(out.read_text())
        assert set(union["ids"]) == set(a.ids) | set(b.ids)
        assert union["kind"] == "composed"
        # overlap rejection
        assert main(["compose", str(pa), str(pa), "--out", str(out)]) == 2

    def test_compose_refuses_other_or_missing_kind(self, tmp_path):
        points, constraint = _partition_instance(seed=20, n=16, d=2, caps=(1, 1))
        a = coreset_to_json(build_coreset(points, list(range(8)), constraint, 1.01))
        card = CardinalityConstraint(2, points.ids)
        b = coreset_to_json(build_coreset(points, list(range(8, 16)), card, 1.01))
        assert (a["ell"], a["regime"]) == (b["ell"], b["regime"])
        pa, pb, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "union.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        assert main(["compose", str(pa), str(pb), "--out", str(out)]) == 2
        del b["kind"]
        pb.write_text(json.dumps(b))
        assert main(["compose", str(pb), "--out", str(out)]) == 2

    @pytest.mark.parametrize("content, argv", [
        # InstanceFormatError: one coordinate in a dim-2 file
        ({"dim": 2, "points": [{"id": 0, "coords": [1.0]}],
          "constraint": {"type": "cardinality", "k": 1}}, RUN),
        # UnknownIdError: a laminar set naming an id that has no point
        ({"dim": 2, "points": [{"id": 0, "coords": [1.0, 0.0]}],
          "constraint": {"type": "laminar", "sets": [{"ids": [9], "cap": 1}]}}, RUN),
        ("dim: 2", RUN),
        (None, RUN),
        # PreconditionError: a list flag with a token that is not a number
        (None, ["gen", "--constraint", "partition", "--caps", "2,x"]),
        (None, ["gen", "--generator", "lb-low-dim", "--caps", "1,1", "--d", "2", "--perm", "0,y"]),
        (None, ["gen", "--generator", "lb-high-dim", "--k", "3", "--d", "2", "--Ms", "100,ten,1"]),
        # PreconditionError: no caps, or a caps list with no group in it
        (None, ["gen", "--generator", "lb-low-dim", "--d", "2"]),
        (None, ["gen", "--constraint", "partition", "--caps", ","]),
        (None, ["bench", "--s", "0"]),
        (None, ["bench", "--s", "-1"]),
        (None, ["bench", "--k", "0"]),
        # InstanceFormatError: coordinates that are not numbers, a dim that is a bool
        ({"dim": 2, "points": [{"id": 0, "coords": [1.0, "a"]}],
          "constraint": {"type": "cardinality", "k": 1}}, RUN),
        ({"dim": 2, "points": [{"id": 0, "coords": [1.0, [2]]}],
          "constraint": {"type": "cardinality", "k": 1}}, RUN),
        ({"dim": 2, "points": [{"id": 0, "coords": {"a": 1}}],
          "constraint": {"type": "cardinality", "k": 1}}, RUN),
        ({"dim": True, "points": [{"id": 0, "coords": [1.0]}],
          "constraint": {"type": "cardinality", "k": 1}}, RUN),
        # InstanceFormatError: a laminar set whose ids are not a list
        ({"dim": 2, "points": [{"id": 0, "coords": [1.0, 0.0]}],
          "constraint": {"type": "laminar", "sets": [{"ids": None, "cap": 1}]}}, RUN),
        ({"dim": 2, "points": [{"id": 0, "coords": [1.0, 0.0]}],
          "constraint": {"type": "laminar", "sets": [{"ids": 5, "cap": 1}]}}, RUN),
        # InstanceFormatError: a coordinate beyond MAX_COORD
        ({"dim": 2, "points": [{"id": 0, "coords": [1e308, 1e308]}],
          "constraint": {"type": "cardinality", "k": 1}}, RUN),
    ], ids=["short-point", "unknown-id", "not-json", "missing-file", "caps", "perm", "Ms",
            "lb-no-caps", "empty-caps", "bench-s-0", "bench-s-neg", "bench-k-0",
            "str-coord", "nested-coord", "dict-coords", "bool-dim", "laminar-ids-null",
            "laminar-ids-int", "huge-coord"])
    def test_input_errors_exit_2(self, tmp_path, capsys, content, argv):
        path = tmp_path / "inst.json"
        if content is not None:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
        argv = [str(path) if a == "{path}" else a for a in argv] + ["--out", str(tmp_path / "out.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_rank_0_run_exits_2_as_coreset_does(self, tmp_path, capsys):
        # rank 0 gives ell 0: run refused it only after the coreset stage, in a math domain error,
        # and solve answered the empty base
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"constraint": {"caps": [1, 1, 1], "type": "partition"}, "dim": 3, "points": []}))
        for command in ("coreset", "run", "solve"):
            assert main([command, "--instance", str(path), "--out", str(tmp_path / "out.json")]) == 2
            assert capsys.readouterr().err == "error: ell must be a positive int, got 0\n"

    def test_gen_laminar_takes_k_from_the_family(self, tmp_path):
        out = tmp_path / "lam.json"
        sets = json.dumps([{"ids": [0, 1, 2], "cap": 1}])
        assert main(["gen", "--n", "10", "--d", "2", "--constraint", "laminar",
                     "--laminar-sets", sets, "--out", str(out)]) == 0
        # one of the three capped ids plus the seven free ones
        assert json.loads(out.read_text())["meta"]["spec"]["k"] == 8

    def test_lb_low_dim_without_caps_names_the_flag(self, capsys):
        assert main(["gen", "--generator", "lb-low-dim", "--d", "2"]) == 2
        assert "--caps" in capsys.readouterr().err

    def test_verify_negative_seed_exit_2(self, capsys):
        assert main(["verify", "--suite", "sizes", "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        with pytest.raises(PreconditionError):
            run_suites("sizes", seed=-1)

    def test_solve_coreset_with_non_int_ids_exit_2(self, tmp_path, capsys):
        inst = self._gen(tmp_path)
        for ids in (["a"], [True], [-1], [1.0]):
            cs = tmp_path / "bad.json"
            cs.write_text(json.dumps({"ids": ids}))
            assert main(["solve", "--instance", str(inst), "--coreset", str(cs)]) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_verify_single_suite(self, capsys):
        # seed 1 draws a scatter whose two float routes sit 1.5e-8 apart,
        # each within 1e-8 of the exact log-det
        for seed_args in ([], ["--seed", "1"]):
            assert main(["verify", "--suite", "cauchy-binet"] + seed_args) == 0
            out = capsys.readouterr().out
            assert out.startswith("PASS cauchy-binet")

    def test_deep_chain_instance(self, tmp_path, capsys):
        # a chain of 500 nested sets: the constructor, the coreset and the run keep no call frame per level
        rng = np.random.default_rng(0)
        points = PointSet(4, [(i, rng.standard_normal(4), None) for i in range(500)])
        chain = LaminarConstraint([(range(i + 1), i + 1) for i in range(500)], range(500))
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(instance_to_json(points, chain)))
        assert main(["coreset", "--instance", str(path), "--out", str(tmp_path / "cs.json")]) == 0
        assert main(["run", "--instance", str(path), "--oracle", "skip", "--out", str(tmp_path / "run.json")]) == 0
        assert json.loads((tmp_path / "cs.json").read_text())["kind"] == "laminar"
        assert capsys.readouterr().err == ""

    def test_bench_command(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--n-list", "80,160", "--d", "3", "--k", "4",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n"] for r in rows] == ["80", "160"]

    def test_solve_infeasible_exit_code(self, tmp_path):
        inst = self._gen(tmp_path)
        cs = tmp_path / "tiny.json"
        doc = {"regime": "highk", "ids": [0], "layers": [], "declared_bound": 1,
               "zeta": 1.01, "ell": 3, "source": [0]}
        cs.write_text(json.dumps(doc))
        code = main(["solve", "--instance", str(inst), "--coreset", str(cs)])
        assert code == 3

    def test_gen_lb_and_hard(self, tmp_path):
        lb = tmp_path / "lb.json"
        assert main(["gen", "--generator", "lb-low-dim", "--caps", "1,1",
                     "--d", "2", "--M", "100", "--out", str(lb)]) == 0
        doc = json.loads(lb.read_text())
        assert doc["meta"]["generator"] == "lb-low-dim"
        hard = tmp_path / "hard.json"
        assert main(["gen", "--generator", "hard", "--d", "4", "--beta", "0.0117",
                     "--k", "8", "--g-cap", "5", "--seed", "1", "--out", str(hard)]) == 0
        doc = json.loads(hard.read_text())
        assert len(doc["points"]) == 16
        assert doc["meta"]["planted_log_value"] > 0

    def test_gen_hard_that_cannot_be_sampled_exit_2(self, tmp_path, capsys):
        # 16 unit vectors in R^4 at tolerance 0.3 are past the simplex fallback
        assert main(["gen", "--generator", "hard", "--d", "4", "--k", "8", "--seed", "1",
                     "--g-cap", "60", "--out", str(tmp_path / "hard.json")]) == 2
        assert capsys.readouterr().err.startswith("error: found 4 of 16 unit vectors")
        assert not (tmp_path / "hard.json").exists()

    def test_cli_error_paths(self, tmp_path, capsys):
        inst = self._gen(tmp_path)
        # coreset on a bare point file (no constraint) must fail cleanly
        bare = tmp_path / "bare.json"
        doc = json.loads(inst.read_text())
        bare.write_text(json.dumps({"dim": doc["dim"], "points": doc["points"]}))
        assert main(["coreset", "--instance", str(bare)]) == 2
        err = capsys.readouterr().err
        assert "constraint" in err


ROOT = Path(__file__).resolve().parent.parent


class TestEntryPoints:
    def test_python_m_detmax(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "detmax", "gen", "--n", "6", "--d", "2", "--k", "2"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert len(json.loads(done.stdout)["points"]) == 6

    def test_console_script_is_main(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["detmax"]
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is detmax.main
