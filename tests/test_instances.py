import math
from itertools import permutations

import numpy as np
import pytest

from detmax import (
    InstanceFormatError,
    InstanceSpec,
    PreconditionError,
    RejectionSamplingError,
    brute_force_opt,
    build_coreset,
    hard_instance,
    instance_to_json,
    is_base,
    lb_high_dim_instance,
    lb_low_dim_instance,
    load_instance,
    merge_pointsets,
    mu,
    random_instance,
)
from detmax.geometry import UNLABELED, first_true, int_column


class TestRandomInstance:
    def test_deterministic(self):
        spec = InstanceSpec("random", 20, 3, 4, {"type": "cardinality", "k": 4}, 9)
        a, _ = random_instance(spec)
        b, _ = random_instance(spec)
        assert np.array_equal(a.coords, b.coords)

    def test_shapes_and_constraint(self):
        spec = InstanceSpec(
            "random", 12, 2, 3, {"type": "partition", "caps": [2, 1]}, 4
        )
        points, constraint = random_instance(spec)
        assert len(points) == 12
        assert points.dim == 2
        assert constraint.kind == "partition"
        assert constraint.rank == 3
        # round-robin group assignment touches every group
        assert set(points.labels.tolist()) == {0, 1}

    def test_grid_mode_integer_coords(self):
        spec = InstanceSpec(
            "random", 10, 2, 2, {"type": "cardinality", "k": 2}, 5,
            {"coord_mode": "grid"},
        )
        points, _ = random_instance(spec)
        assert np.array_equal(points.coords, np.round(points.coords))
        assert np.abs(points.coords).max() <= 3

    def test_n_below_k_rejected(self):
        spec = InstanceSpec("random", 3, 2, 4, {"type": "cardinality", "k": 4}, 0)
        with pytest.raises(Exception):
            random_instance(spec)

    def test_json_round_trip(self):
        spec = InstanceSpec(
            "random", 8, 2, 2, {"type": "partition", "caps": [1, 1]}, 3
        )
        points, constraint = random_instance(spec)
        doc = instance_to_json(points, constraint, {"note": "rt"})
        pts2, cons2, meta = load_instance(doc)
        assert sorted(pts2.ids) == sorted(points.ids)
        assert np.allclose(pts2.rows(sorted(pts2.ids)), points.rows(sorted(points.ids)))
        assert cons2.kind == "partition" and cons2.rank == constraint.rank
        assert meta["note"] == "rt"


class TestLowDimLowerBound:
    def test_frozen_opt_value(self):
        # brute force on the 6-point instance: the planted optimum is M**2
        for M in (10.0, 100.0, 1000.0, 1e7, 1e10):
            v, vp, constraint = lb_low_dim_instance(2, (1, 1), 2, M)
            whole = merge_pointsets(v, vp)
            opt = brute_force_opt(whole, constraint)
            assert abs(opt.log_value - 2 * math.log(M)) < 1e-9

    def test_every_small_subset_fails_some_adversary(self):
        M = 100.0
        v, _, _ = lb_low_dim_instance(2, (1, 1), 2, M)
        adversaries = [
            lb_low_dim_instance(2, (1, 1), 2, M, probe, perm)
            for probe in range(2)
            for perm in permutations(range(2))
        ]
        for drop in v.ids:
            kept = [pid for pid in v.ids if pid != drop]
            best = math.inf
            for _, vp, cons in adversaries:
                opt_u = brute_force_opt(merge_pointsets(v.restrict(kept), vp), cons).log_value
                opt_v = brute_force_opt(merge_pointsets(v, vp), cons).log_value
                best = min(best, opt_u - opt_v)
            assert best <= -2 * math.log(M) + math.log(1 + 1e-6)

    def test_own_coreset_survives_all_adversaries(self):
        M = 100.0
        v, _, base_cons = lb_low_dim_instance(2, (1, 1), 2, M)
        cs = build_coreset(v, v.ids, base_cons, 1.01)
        ell = cs.ell
        for probe in range(2):
            for perm in permutations(range(2)):
                _, vp, cons = lb_low_dim_instance(2, (1, 1), 2, M, probe, perm)
                opt_cs = brute_force_opt(
                    merge_pointsets(v.restrict(sorted(cs.ids)), vp), cons
                ).log_value
                opt_v = brute_force_opt(merge_pointsets(v, vp), cons).log_value
                assert opt_cs - opt_v >= -2 * ell * math.log(2 * ell) - 1e-9

    def test_parameter_validation(self):
        with pytest.raises(PreconditionError):
            lb_low_dim_instance(2, (1, 1), 1, 100.0)  # k = 2 > d = 1
        with pytest.raises(PreconditionError):
            lb_low_dim_instance(2, (1, 1), 2, 1.0)  # M must exceed 1
        with pytest.raises(PreconditionError):
            lb_low_dim_instance(2, (1, 1), 2, 100.0, probe_part=5)
        with pytest.raises(PreconditionError):
            lb_low_dim_instance(2, (1, 1), 2, 100.0, perm=(0, 0))


class TestHighDimLowerBound:
    def test_frozen_opt_value(self):
        # M * e_1 plus the top group's 100 * e_0 and a unit vector along e_0
        for M in (1e5, 1e10):
            v, vp, cons = lb_high_dim_instance(3, 2, (100.0, 10.0, 1.0), M)
            opt = brute_force_opt(merge_pointsets(v, vp), cons).log_value
            assert abs(opt - (2 * math.log(M) + math.log(100.0**2 + 1.0))) < 1e-9

    def test_frozen_drop_penalty(self):
        ms = (100.0, 10.0, 1.0)
        v, vp, cons = lb_high_dim_instance(3, 2, ms, 1e5)
        whole = merge_pointsets(v, vp)
        full = brute_force_opt(whole, cons).log_value
        # dropping the probe-direction vector of the top-scale group loses
        # (Ms[0]/Ms[-1])**2 up to a C(k, d) counting factor
        kept = [pid for pid in whole.ids if pid != 0]
        part = brute_force_opt(whole.restrict(kept), cons).log_value
        assert full - part >= 2 * math.log(ms[0] / ms[-1]) - math.log(math.comb(3, 2)) - 1e-9

    def test_truncating_nothing_changes_nothing(self):
        v, vp, cons = lb_high_dim_instance(3, 2, (100.0, 10.0, 1.0), 1e5)
        whole = merge_pointsets(v, vp)
        a = brute_force_opt(whole, cons).log_value
        b = brute_force_opt(whole.restrict(sorted(whole.ids)), cons).log_value
        assert a == b

    def test_ordering_validation(self):
        with pytest.raises(PreconditionError):
            lb_high_dim_instance(3, 2, (1.0, 10.0, 100.0), 1e5)
        with pytest.raises(PreconditionError):
            lb_high_dim_instance(3, 2, (100.0, 10.0, 1.0), 50.0)  # M below Ms[0]
        with pytest.raises(PreconditionError):
            lb_high_dim_instance(3, 2, (100.0, 10.0, 1.0), 1e5, probe=2)
        with pytest.raises(PreconditionError):
            lb_high_dim_instance(1, 2, (100.0,), 1e5)  # k < d


class TestHardInstance:
    def test_geometry_invariants(self):
        inst = hard_instance(4, 0.0117, 8, seed=2, M=1000.0, g_cap=5)
        g = inst.g_vectors
        assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)
        dots = np.abs(g @ g.T - np.eye(len(g)))
        assert dots.max() <= inst.tau + 1e-12
        q = inst.rotation
        assert np.abs(q.T @ q - np.eye(4)).max() <= 1e-12

    def test_duplication_and_ids(self):
        inst = hard_instance(4, 0.0117, 8, seed=2, M=1000.0, g_cap=5)
        # t = k/d copies of every vector, all with distinct ids
        assert inst.t == 2
        ids = sorted(inst.combined.ids)
        assert len(ids) == len(set(ids))
        coords = inst.combined.coords
        # every coordinate row appears exactly t times
        uniq = np.unique(np.round(coords, 9), axis=0)
        assert len(uniq) * inst.t == len(ids)

    def test_planted_value_formula(self):
        inst = hard_instance(4, 0.0117, 8, seed=3, M=1000.0, g_cap=5)
        planted = inst.planted_set
        assert is_base(inst.constraint, planted)
        val = mu(inst.combined, list(planted))
        expect = 4 * math.log(inst.t) + 2 * inst.m * math.log(1000.0)
        assert val >= expect - 1e-9
        assert abs(inst.planted_log_value - expect) < 1e-12

    def test_deterministic(self):
        a = hard_instance(4, 0.0117, 8, seed=5, M=1000.0, g_cap=5)
        b = hard_instance(4, 0.0117, 8, seed=5, M=1000.0, g_cap=5)
        assert np.array_equal(a.combined.coords, b.combined.coords)
        assert a.pi_indices == b.pi_indices
        assert np.array_equal(a.rotation, b.rotation)

    def test_rejection_route_without_fallback(self):
        # wider tolerance and fewer vectors than dimension + 1: plain
        # rejection sampling must succeed, giving non-simplex dots
        inst = hard_instance(16, 0.0325, 32, seed=1, g_cap=7)
        g = inst.g_vectors
        dots = np.abs(g @ g.T - np.eye(len(g)))
        assert dots.max() <= inst.tau + 1e-12

    def test_infeasible_family_raises(self):
        # 40 vectors cannot fit in R^4 at tau < 1/2; the simplex fallback
        # only covers up to dim + 1 of them
        with pytest.raises(RejectionSamplingError):
            hard_instance(4, 0.0117, 8, seed=0, g_cap=40)

    def test_parameter_validation(self):
        with pytest.raises(PreconditionError):
            hard_instance(3, 0.0117, 6, seed=0)  # d too small
        with pytest.raises(PreconditionError):
            hard_instance(4, 0.9, 8, seed=0)  # beta above d/(4 ln^2 d)
        with pytest.raises(PreconditionError):
            hard_instance(4, 0.0117, 9, seed=0)  # k not a multiple of d


def _doc(*points, dim=2, constraint=None):
    """An instance document whose points are (id, coords, group) triples."""
    return {
        "dim": dim,
        "points": [{"id": pid, "coords": c, "group": g} for pid, c, g in points],
        "constraint": constraint or {"type": "cardinality", "k": 1},
    }


_OK = ((0, [1.0, 0.0], 0), (7, [0.0, 1.0], 1))
_PART = {"type": "partition", "caps": [1, 1]}


# each malformed document and the message that names its first fault
_error_cases = pytest.mark.parametrize("doc, message", [
    (_doc(_OK[0], ("5", [1.0, 1.0], 0), _OK[1]), "point id must be a non-negative int, got '5'"),
    (_doc(_OK[0], (True, [1.0, 1.0], 0), _OK[1]), "point id must be a non-negative int, got True"),
    (_doc(_OK[0], (-3, [1.0, 1.0], 0), _OK[1]), "point id must be a non-negative int, got -3"),
    (_doc(_OK[0], (7, [1.0, 1.0], 0), _OK[1]), "duplicate point id 7"),
    (_doc(_OK[0], (5, [1.0], 0), _OK[1]), "point 5 has 1 coordinates, expected 2"),
    (_doc(_OK[0], (5, [1.0, math.inf], 0), _OK[1]), "point 5 has non-finite coordinates"),
    (_doc(_OK[0], (5, [math.nan, 1.0], 0), _OK[1]), "point 5 has non-finite coordinates"),
    (_doc(_OK[0], (5, [1.0, 1.0], "a"), _OK[1]), "group of point 5 must be a non-negative int or None"),
    (_doc(_OK[0], (5, [1.0, 1.0], -1), _OK[1]), "group of point 5 must be a non-negative int or None"),
    (_doc(_OK[0], (5, [1.0, 1.0], None), _OK[1], constraint=_PART),
     "point 5 has no group label; partition needs one"),
    (_doc(_OK[0], (5, [1.0, 1.0], 2), _OK[1], constraint=_PART),
     "point 5 has group 2 but only 2 caps were given"),
    (_doc(_OK[0], dim=0), "dim must be a positive integer, got 0"),
    # several faults: the first point with any fault is named, its first fault wins
    (_doc(_OK[0], (5, [1.0, 1.0], "a"), (6, [1.0], 0), ("x", [1.0, 1.0], 0)),
     "group of point 5 must be a non-negative int or None"),
    (_doc(_OK[0], (5, [1.0], 0), ("x", [1.0, 1.0], 0)), "point 5 has 1 coordinates, expected 2"),
    (_doc((5, [1.0], "a"), (5, [1.0, 1.0], 0)), "point 5 has 1 coordinates, expected 2"),
    (_doc(_OK[0], (0, [math.inf], 0)), "duplicate point id 0"),
    (_doc(_OK[0], (5, [1.0, None], 0), _OK[1]), "point 5 coordinates are not a list of numbers"),
    (_doc(_OK[0], (5, [1.0, "a"], 0), _OK[1]), "point 5 coordinates are not a list of numbers"),
    (_doc(_OK[0], (5, "ab", 0), _OK[1]), "point 5 coordinates are not a list of numbers"),
    (_doc(_OK[0], (5, [[1.0], [1.0]], 0), _OK[1]), "point 5 coordinates are not a list of numbers"),
    (_doc((5, [1.0, 1.0, 1.0], 0), (6, [1.0, 1.0, 1.0], 0)), "point 5 has 3 coordinates, expected 2"),
    (_doc((5, [True, False, True], 0), (6, [False, True, True], 0)), "point 5 has 3 coordinates, expected 2"),
], ids=["str-id", "bool-id", "negative-id", "duplicate-id", "short-point", "inf-coord", "nan-coord",
        "str-group", "negative-group", "no-group", "group-without-cap", "dim-0",
        "first-point-wins", "coords-before-later-id", "coords-before-group",
        "duplicate-before-coords", "null-coord", "str-coord", "str-coords", "nested-coords", "all-long", "all-long-bools"])


@_error_cases
def test_load_instance_error_messages(doc, message):
    with pytest.raises(InstanceFormatError) as exc:
        load_instance(doc)
    assert str(exc.value) == message


def test_coordinates_of_any_number_type_load_as_floats():
    points, _, _ = load_instance(_doc((0, [2**70, 1], 0), (1, [True, False], 0), (2, [3, 0.5], 0)))
    assert points.coords.dtype == float and points.coords.tolist() == [[2.0**70, 1.0], [1.0, 0.0], [3.0, 0.5]]


def _masked_int_column(values, none_ok=False):
    """int_column's list path with one object-array pass over every entry, the reference for its faster route."""
    n = len(values)
    obj = np.fromiter(values, dtype=object, count=n)
    kinds = np.fromiter(map(type, values), dtype=object, count=n)
    isint = np.isin(kinds, [t for t in set(kinds) if issubclass(t, (int, np.integer)) and t is not bool])
    isnone = (kinds == type(None)) & none_ok
    obj[~isint] = 0
    bad = ~(isint | isnone) | (obj < 0) | (obj > np.iinfo(np.int64).max)
    obj[bad] = 0
    col = obj.astype(np.int64)
    col[isnone] = UNLABELED
    return col, first_true(bad)


def _same_column(values, none_ok):
    (col, stop), (want, want_stop) = int_column(values, none_ok), _masked_int_column(values, none_ok)
    return col.dtype == np.int64 and np.array_equal(col, want) and stop == want_stop


# plain ints (the fast route, which -1 and 2**63 must leave as the reference does) and everything else
_PLAIN = [0, 1, 7, 2**40, 2**63 - 1, -1, 2**63]
_MIXED = _PLAIN + [True, False, None, np.int64(3), np.int64(-2), 1.0, "5", "a"]


@pytest.mark.parametrize("pool", [_PLAIN, _MIXED], ids=["plain", "mixed"])
@pytest.mark.parametrize("none_ok", [False, True])
def test_int_column_matches_masked_reference(pool, none_ok):
    rng = np.random.default_rng(19)
    for _ in range(500):
        values = [pool[i] for i in rng.integers(len(pool), size=rng.integers(13))]
        if rng.random() < 0.5:  # good but for the last entry, so a late fault is named too
            values = rng.integers(8, size=len(values[:-1])).tolist() + values[-1:]
        assert _same_column(values, none_ok), values
        assert _same_column(tuple(values), none_ok), values


@_error_cases
def test_int_column_matches_masked_reference_on_error_cases(doc, message):
    for key, none_ok in (("id", False), ("group", True)):
        assert _same_column([p[key] for p in doc["points"]], none_ok)

