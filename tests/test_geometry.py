import math

import numpy as np
import pytest

from detmax import (
    MAX_COORD,
    MAX_DIM,
    InstanceFormatError,
    MatrixInvariantError,
    PointSet,
    UnknownIdError,
    brute_force_opt,
    build_coreset,
    load_instance,
    load_pointset,
    log_det_psd,
    logdet_psd_batch,
    merge_pointsets,
    run_distributed,
    solve_on_coreset,
)
from exact_oracles import exact_gram_det, exact_log


def _ps(vectors, groups=None):
    items = []
    for i, v in enumerate(vectors):
        g = None if groups is None else groups[i]
        items.append((i, np.asarray(v, dtype=float), g))
    return PointSet(len(vectors[0]), items)


class TestPointSet:
    def test_basic_accessors(self):
        ps = _ps([(1.0, 0.0), (0.0, 2.0), (3.0, 3.0)], groups=[0, 0, 1])
        assert len(ps) == 3
        assert ps.dim == 2
        assert list(ps.ids) == [0, 1, 2]
        assert np.allclose(ps.rows([2])[0], [3.0, 3.0])
        assert ps.labels[ps.index(1)] == 0
        assert ps.labels.tolist() == [0, 0, 1]
        assert 2 in ps and 7 not in ps

    def test_insertion_order_preserved(self):
        items = [(5, np.array([1.0]), None), (2, np.array([2.0]), None)]
        ps = PointSet(1, items)
        assert list(ps.ids) == [5, 2]
        assert np.allclose(ps.rows([5, 2]), [[1.0], [2.0]])

    def test_duplicate_id_rejected(self):
        items = [(0, np.zeros(2), None), (0, np.ones(2), None)]
        with pytest.raises(Exception):
            PointSet(2, items)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(Exception):
            PointSet(2, [(0, np.zeros(3), None)])

    def test_dim_cap(self):
        with pytest.raises(Exception):
            PointSet(MAX_DIM + 1, [(0, np.zeros(MAX_DIM + 1), None)])

    def test_unknown_id(self):
        ps = _ps([(1.0, 0.0)])
        with pytest.raises(UnknownIdError):
            ps.index(9)
        with pytest.raises(UnknownIdError):
            ps.rows([0, 9])

    def test_restrict_keeps_ids_and_coords(self):
        ps = _ps([(1.0, 0.0), (0.0, 1.0), (2.0, 2.0)], groups=[0, 1, 1])
        sub = ps.restrict([2, 0])
        assert sorted(sub.ids) == [0, 2]
        assert np.allclose(sub.rows([2])[0], [2.0, 2.0])
        assert sub.labels[sub.index(2)] == 1

    def test_coords_read_only(self):
        ps = _ps([(1.0, 0.0)])
        with pytest.raises((ValueError, RuntimeError)):
            ps.coords[0, 0] = 9.0

    def test_merge_disjoint(self):
        a = PointSet(2, [(0, np.array([1.0, 0.0]), 0)])
        b = PointSet(2, [(1, np.array([0.0, 1.0]), 1)])
        m = merge_pointsets(a, b)
        assert sorted(m.ids) == [0, 1]
        assert m.labels[m.index(1)] == 1

    def test_merge_collision_rejected(self):
        a = PointSet(2, [(0, np.array([1.0, 0.0]), None)])
        b = PointSet(2, [(0, np.array([0.0, 1.0]), None)])
        with pytest.raises(Exception):
            merge_pointsets(a, b)


class TestGramAndLogDet:
    def test_log_det_frozen(self):
        val = log_det_psd(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert abs(val - math.log(3.0)) < 1e-12

    def test_log_det_singular_is_neg_inf(self):
        assert log_det_psd(np.ones((2, 2))) == -math.inf

    def test_log_det_rejects_asymmetric(self):
        with pytest.raises(MatrixInvariantError):
            log_det_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_log_det_rejects_indefinite(self):
        with pytest.raises(MatrixInvariantError):
            log_det_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_singular_scatter_rounding_below_tolerance_is_neg_inf(self):
        # the scatter of a, a, b is singular, yet its last Cholesky pivot
        # rounds to -2.1e-10, below the PSD tolerance; its spectrum is not
        # negative beyond roundoff, so it scores -inf like the Gram matrix
        a = [-0.174814684487072, -0.3325885477177439, -0.09013882000816122]
        b = [-0.16551115509922448, -0.3155415103316193, -1.5949635162026197]
        x = np.array([a, a, b])
        assert logdet_psd_batch(np.array([x.T @ x, x @ x.T])).tolist() == [-math.inf, -math.inf]
        with pytest.raises(MatrixInvariantError, match="matrix 1 is not PSD"):
            logdet_psd_batch(np.array([np.eye(2), np.diag([1.0, -1.0])]))
        assert round(log_det_psd(np.diag([1e14, 1.0])), 3) == 32.236

    def test_scaling_identity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        m = a @ a.T + 0.5 * np.eye(4)
        for c in (2.0, 10.0, 1e6):
            got = log_det_psd(c * m)
            assert abs(got - (4 * math.log(c) + log_det_psd(m))) < 1e-8

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        mats = []
        for _ in range(16):
            a = rng.standard_normal((3, 3))
            mats.append(a @ a.T + 0.1 * np.eye(3))
        mats.append(np.zeros((3, 3)))
        got = logdet_psd_batch(np.array(mats))
        for val, m in zip(got, mats):
            assert val == log_det_psd(m) or abs(val - log_det_psd(m)) < 1e-12

    def test_exact_oracle_agreement(self):
        # integer-coordinate point sets: float pipeline vs Bareiss fractions
        rng = np.random.default_rng(7)
        for trial in range(25):
            d = int(rng.integers(2, 5))
            k = int(rng.integers(d, d + 3))
            vecs = rng.integers(-3, 4, size=(k, d))
            rows = PointSet(d, [(i, vecs[i].astype(float), None) for i in range(k)]).rows(range(k))
            got = log_det_psd(rows.T @ rows)
            det = exact_gram_det(vecs.tolist())
            if det == 0:
                assert got == -math.inf
            else:
                assert abs(got - exact_log(det)) < 1e-9

    def test_large_scale_stability(self):
        # M-scaled diagonal Gram stays exact in the log domain
        m = 1e8
        rows = _ps([(m, 0.0), (0.0, m)]).rows([0, 1])
        got = log_det_psd(rows.T @ rows)
        assert abs(got - 4 * math.log(m)) < 1e-9

    def test_dynamic_range_is_not_singular(self):
        # each pivot is judged against its own diagonal, not against trace/d
        assert abs(log_det_psd(np.diag([1e14, 1.0])) - 14 * math.log(10.0)) < 1e-9


class TestLoaders:
    def test_json_roundtrip(self, tmp_path):
        doc = {
            "dim": 2,
            "points": [
                {"id": 0, "group": 0, "coords": [1.0, 0.0]},
                {"id": 3, "group": 1, "coords": [0.5, -2.0]},
            ],
        }
        ps = load_pointset(doc)
        assert sorted(ps.ids) == [0, 3]
        assert ps.labels[ps.index(3)] == 1
        assert np.allclose(ps.rows([3])[0], [0.5, -2.0])

    def test_json_rejects_bad_doc(self):
        with pytest.raises(Exception):
            load_pointset({"dim": 2, "points": [{"id": 0, "coords": [1.0]}]})


class TestCoordinateBound:
    """Coordinates up to MAX_COORD keep every Gram entry finite; larger ones are refused."""

    @staticmethod
    def _doc(X, constraint):
        return {"dim": X.shape[1], "constraint": constraint,
                "points": [{"id": i, "group": i % 3, "coords": x} for i, x in enumerate(X.tolist())]}

    @pytest.mark.parametrize("d, constraint", [
        (4, {"type": "partition", "caps": [2, 1, 1]}),
        (2, {"type": "partition", "caps": [2, 1, 1]}),
        (4, {"type": "cardinality", "k": 3}),
    ])
    def test_scaled_to_the_bound_selects_the_same_ids(self, d, constraint):
        X = np.random.default_rng(0).standard_normal((30, d))
        seen = []
        for scale in (1.0, MAX_COORD / np.abs(X).max()):
            points, cons, _ = load_instance(self._doc(scale * X, constraint))
            cs = build_coreset(points, points.ids, cons, 1.01)
            report = run_distributed(points, cons, 2, 0, oracle="force")
            assert math.isfinite(report.coreset_value) and math.isfinite(report.full_value)
            seen.append((sorted(cs.ids), solve_on_coreset(points, cons, cs.ids).ids,
                         brute_force_opt(points, cons).ids, round(report.ratio_log, 9)))
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("scale", [1e160, 1e154])
    def test_beyond_the_bound_is_refused(self, scale):
        X = np.random.default_rng(0).standard_normal((30, 4))
        with pytest.raises(InstanceFormatError, match="beyond"):
            load_instance(self._doc(scale * X, {"type": "cardinality", "k": 3}))
