import csv
import dataclasses
import json

import pytest

import detmax.harness
from detmax import (
    CardinalityConstraint,
    InstanceSpec,
    InvariantError,
    PreconditionError,
    bench_scaling,
    build_coreset,
    coreset_to_json,
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

    def test_identity_coreset_mode_is_lossless(self):
        points, constraint = _partition_instance(seed=6)
        report = run_distributed(points, constraint, 3, seed=1, coreset_mode="full")
        assert report.ratio_log == 0.0
        assert report.composed_size == len(points)

    def test_single_part_equals_plain_coreset(self):
        points, constraint = _partition_instance(seed=7)
        report = run_distributed(points, constraint, 1, seed=0)
        cs = build_coreset(points, points.ids, constraint, 1.01, "auto")
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

    def test_bad_arguments(self):
        points, constraint = _partition_instance(seed=12)
        with pytest.raises(PreconditionError):
            run_distributed(points, constraint, 0, seed=0)
        with pytest.raises(PreconditionError):
            run_distributed(points, constraint, 2, seed=0, split="sorted")
        with pytest.raises(PreconditionError):
            run_distributed(points, constraint, 2, seed=0, coreset_mode="gzip")
        with pytest.raises(PreconditionError):
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
        a = build_coreset(points, list(range(8)), constraint, 1.01, "auto")
        b = build_coreset(points, list(range(8, 16)), constraint, 1.01, "auto")
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
        a = coreset_to_json(build_coreset(points, list(range(8)), constraint, 1.01, "auto"))
        card = CardinalityConstraint(2, points.ids)
        b = coreset_to_json(build_coreset(points, list(range(8, 16)), card, 1.01, "auto"))
        assert (a["ell"], a["regime"]) == (b["ell"], b["regime"])
        pa, pb, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "union.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        assert main(["compose", str(pa), str(pb), "--out", str(out)]) == 2
        del b["kind"]
        pb.write_text(json.dumps(b))
        assert main(["compose", str(pb), "--out", str(out)]) == 2

    @pytest.mark.parametrize("content", [
        # InstanceFormatError: one coordinate in a dim-2 file
        {"dim": 2, "points": [{"id": 0, "coords": [1.0]}],
         "constraint": {"type": "cardinality", "k": 1}},
        # UnknownIdError: a laminar set naming an id that has no point
        {"dim": 2, "points": [{"id": 0, "coords": [1.0, 0.0]}],
         "constraint": {"type": "laminar", "sets": [{"ids": [9], "cap": 1}]}},
        "dim: 2",
        None,
    ], ids=["short-point", "unknown-id", "not-json", "missing-file"])
    def test_input_errors_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "inst.json"
        if content is not None:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
        assert main(["run", "--instance", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_verify_single_suite(self, capsys):
        assert main(["verify", "--suite", "cauchy-binet"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS cauchy-binet")

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

    def test_cli_error_paths(self, tmp_path, capsys):
        inst = self._gen(tmp_path)
        # coreset on a bare point file (no constraint) must fail cleanly
        bare = tmp_path / "bare.json"
        doc = json.loads(inst.read_text())
        bare.write_text(json.dumps({"dim": doc["dim"], "points": doc["points"]}))
        assert main(["coreset", "--instance", str(bare)]) == 2
        err = capsys.readouterr().err
        assert "constraint" in err
