import math
from itertools import combinations

import numpy as np
import pytest

import detmax.matroid as matroid
import detmax.solver as solver
from detmax import (
    CardinalityConstraint,
    GuardExceededError,
    InvariantError,
    LaminarConstraint,
    MatrixInvariantError,
    ORACLE_CAP_ENV,
    PartitionConstraint,
    PointSet,
    brute_force_opt,
    build_coreset,
    greedy_constrained,
    is_base,
    is_independent,
    nu,
    objective_value,
    solve_on_coreset,
)
from exact_oracles import reference_grower, reference_logdet_psd_batch


def _rand_ps(seed, n, d, groups=None):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, d))
    items = []
    for i in range(n):
        g = None if groups is None else groups[i]
        items.append((i, vecs[i], g))
    return PointSet(d, items)


def _reference_opt(points, constraint):
    """Independent re-derivation: python loop over combinations + scalar values."""
    k = constraint.rank
    best_val, best_ids = -math.inf, None
    for combo in combinations(sorted(points.ids), k):
        if not is_base(constraint, combo):
            continue
        val = objective_value(points, list(combo))
        if best_ids is None or val > best_val:
            best_val, best_ids = val, combo
    return best_ids, best_val


class TestBruteForce:
    def test_matches_reference_cardinality(self):
        for seed in range(8):
            ps = _rand_ps(seed, 9, 3)
            c = CardinalityConstraint(4, ps.ids)
            got = brute_force_opt(ps, c)
            ids, val = _reference_opt(ps, c)
            assert got.feasible
            assert got.ids == ids
            assert abs(got.log_value - val) < 1e-9

    def test_matches_reference_partition(self):
        for seed in range(8):
            groups = [i % 3 for i in range(9)]
            ps = _rand_ps(50 + seed, 9, 2, groups)
            c = PartitionConstraint((2, 1, 1), {i: groups[i] for i in range(9)})
            got = brute_force_opt(ps, c)
            ids, val = _reference_opt(ps, c)
            assert got.ids == ids
            assert abs(got.log_value - val) < 1e-9

    def test_below_dim_uses_volume(self):
        ps = _rand_ps(3, 7, 4)
        c = CardinalityConstraint(2, ps.ids)
        got = brute_force_opt(ps, c)
        assert abs(got.log_value - nu(ps, list(got.ids))) < 1e-9

    def test_tie_breaks_lexicographically(self):
        # ids 0 and 1 are identical copies; both pair with id 2 at the same
        # value and the smaller id must win
        ps = PointSet(2, [(0, np.array([1.0, 0.0]), None),
                          (1, np.array([1.0, 0.0]), None),
                          (2, np.array([0.0, 1.0]), None)])
        c = CardinalityConstraint(2, ps.ids)
        got = brute_force_opt(ps, c)
        assert got.ids == (0, 2)

    def test_all_singular_still_feasible(self):
        ps = PointSet(2, [(i, np.array([1.0, 1.0]) * (i + 1), None) for i in range(3)])
        c = CardinalityConstraint(2, ps.ids)
        got = brute_force_opt(ps, c)
        assert got.feasible
        assert got.log_value == -math.inf
        assert got.ids == (0, 1)

    def test_json_sentinel(self):
        ps = PointSet(2, [(i, np.array([1.0, 1.0]), None) for i in range(2)])
        c = CardinalityConstraint(2, ps.ids)
        doc = brute_force_opt(ps, c).to_json()
        assert doc["log_value"] == "-inf"

    def test_base_with_two_equal_points_scores_neg_inf(self):
        # k = d = 3: the scatter of a, a, b is singular but used to round its
        # last pivot below the PSD tolerance and raise MatrixInvariantError
        a = [-0.174814684487072, -0.3325885477177439, -0.09013882000816122]
        b = [-0.16551115509922448, -0.3155415103316193, -1.5949635162026197]
        coords = np.vstack([np.random.default_rng(0).standard_normal((5, 3)), [a, a, b]])
        ps = PointSet(3, [(i, coords[i], None) for i in range(8)])
        c = CardinalityConstraint(3, ps.ids)
        assert objective_value(ps, [5, 6, 7]) == -math.inf
        got = brute_force_opt(ps, c)
        ids, val = _reference_opt(ps, c)
        assert got.ids == ids and abs(got.log_value - val) < 1e-9

    def test_not_psd_error_names_the_base_in_the_whole_list(self, monkeypatch):
        real = solver.logdet_psd_batch

        def indefinite_base_5(mats, first):
            mats = mats.copy()
            if first <= 5 < first + len(mats):
                mats[5 - first] = np.diag([1.0, -1.0])
            return real(mats, first=first)

        monkeypatch.setattr(matroid, "_BATCH", 4)
        monkeypatch.setattr(solver, "logdet_psd_batch", indefinite_base_5)
        for d in (2, 3):  # k = 2: the scatter route, then the Gram route
            ps = _rand_ps(2, 5, d)
            with pytest.raises(MatrixInvariantError, match="matrix 5 is not PSD"):
                brute_force_opt(ps, CardinalityConstraint(2, ps.ids))

    def test_ties_across_chunks_go_to_the_lex_smallest(self, monkeypatch):
        # chunks of 3 bases: (1, 2) and its exact tie (2, 4) come in
        # different chunks; moving id 4 outward makes (2, 4) win outright
        monkeypatch.setattr(matroid, "_BATCH", 3)
        rows = [[0.1, 0.2], [1.0, 0.0], [0.0, 1.0], [0.3, 0.1], [1.0, 0.0], [0.2, 0.3]]
        ps = PointSet(2, [(i, np.array(r), None) for i, r in enumerate(rows)])
        c = CardinalityConstraint(2, ps.ids)
        chunk_of = {tuple(base): i for i, chunk in enumerate(matroid.enumerate_bases(c, ps)) for base in chunk.tolist()}
        assert chunk_of[(1, 2)] != chunk_of[(2, 4)]
        assert objective_value(ps, [1, 2]) == objective_value(ps, [2, 4])
        assert brute_force_opt(ps, c).ids == (1, 2)
        rows[4] = [1.5, 0.0]
        ps = PointSet(2, [(i, np.array(r), None) for i, r in enumerate(rows)])
        assert brute_force_opt(ps, c).ids == (2, 4)

    def test_matches_reference_laminar_in_small_chunks(self, monkeypatch):
        # blocks of 3 prefixes, so the walk slices, prunes and grows matrices
        # across many blocks, on the Gram (k < d) and the scatter (k >= d) route
        monkeypatch.setattr(matroid, "_BATCH", 3)
        rng = np.random.default_rng(12)
        for trial in range(10):
            n = int(rng.integers(7, 11))
            cut = int(rng.integers(3, n - 2))
            family = [(range(cut), int(rng.integers(2, 4))), (range(cut // 2 + 1), 1),
                      (range(cut, n - 1), int(rng.integers(1, 3)))]
            c = LaminarConstraint(family, range(n))
            for d in (c.rank + 1, max(c.rank - 1, 1)):
                ps = _rand_ps(300 + trial, n, d)
                got = brute_force_opt(ps, c)
                ids, val = _reference_opt(ps, c)
                assert got.feasible and got.ids == ids
                assert abs(got.log_value - val) < 1e-9

    def test_every_base_is_scored_once(self, monkeypatch):
        # pruning a prefix at a broken cap drops no base: the scorer gets
        # one matrix per base of the filter reference
        monkeypatch.setattr(matroid, "_BATCH", 3)
        real, handed = solver.logdet_psd_batch, []

        def counting(mats, first):
            handed.append(len(mats))
            return real(mats, first=first)

        monkeypatch.setattr(solver, "logdet_psd_batch", counting)
        labels = [i % 3 for i in range(9)]
        for d in (3, 5):  # ranks 3 and 4: the scatter route, then the Gram route
            ps = _rand_ps(21, 9, d, labels)
            for c in (
                CardinalityConstraint(3, range(9)),
                PartitionConstraint((2, 1, 1), dict(enumerate(labels))),
                LaminarConstraint([(range(5), 2), (range(2), 1), (range(5, 9), 1)], range(9)),
            ):
                handed.clear()
                brute_force_opt(ps, c)
                assert sum(handed) == sum(1 for s in combinations(range(9), c.rank) if is_base(c, s)) > 3

    @pytest.mark.parametrize("batch", [3, matroid._BATCH])
    def test_per_base_values_match_the_grown_matrices_bit_for_bit(self, monkeypatch, batch):
        # each base's value equals the one from its matrix grown a row at a time (a border per
        # row on the Gram route) and scored by the einsum sweep; ids are not in row order
        monkeypatch.setattr(matroid, "_BATCH", batch)
        real, scored = solver.logdet_psd_batch, []

        def recording(mats, first):
            scored.append(real(mats, first=first))
            return scored[-1]

        monkeypatch.setattr(solver, "logdet_psd_batch", recording)
        rng = np.random.default_rng(batch)
        labels = dict(enumerate(i % 3 for i in range(10)))
        constraints = [CardinalityConstraint(k, range(10)) for k in (1, 2, 3)] + [
            PartitionConstraint((2, 1, 1), labels),
            PartitionConstraint((1, 0, 1), labels),
            LaminarConstraint([(range(5), 2), (range(2), 1), (range(5, 10), 1)], range(10)),
        ]
        for d in (2, 4, 6):
            coords = rng.standard_normal((10, d))
            coords[3] = rng.integers(-2, 3, d)
            coords[[7, 8]] = coords[2]  # repeated rows: singular Grams and scatters
            ps = PointSet(d, [(int(i), coords[r], None) for r, i in enumerate(rng.permutation(10))])
            for c in constraints:
                scored.clear()
                brute_force_opt(ps, c)
                grow = reference_grower(ps.coords, c.rank >= d)
                want = [reference_logdet_psd_batch(mats) for _, mats in matroid.enumerate_bases(c, ps, grow)]
                assert np.concatenate(scored).tobytes() == np.concatenate(want).tobytes()

    def test_rank_above_point_count_is_infeasible(self):
        ps = _rand_ps(6, 3, 2)
        got = brute_force_opt(ps, CardinalityConstraint(4, range(6)))
        assert (got.ids, got.log_value, got.feasible) == ((), -math.inf, False)

    def test_rank_zero_is_one_empty_base(self):
        ps = _rand_ps(4, 3, 2, [0, 0, 1])
        got = brute_force_opt(ps, PartitionConstraint((0, 0), {0: 0, 1: 0, 2: 1}))
        assert (got.ids, got.feasible) == ((), True)

    def test_guard(self, monkeypatch):
        monkeypatch.setenv(ORACLE_CAP_ENV, "10")
        ps = _rand_ps(1, 10, 2)
        c = CardinalityConstraint(4, ps.ids)
        with pytest.raises(GuardExceededError):
            brute_force_opt(ps, c)


class TestGreedy:
    def test_feasible_and_bounded_by_brute(self):
        for seed in range(10):
            groups = [i % 2 for i in range(10)]
            ps = _rand_ps(80 + seed, 10, 2, groups)
            c = PartitionConstraint((2, 2), {i: groups[i] for i in range(10)})
            greedy = greedy_constrained(ps, c)
            brute = brute_force_opt(ps, c)
            assert greedy.feasible
            assert is_base(c, greedy.ids)
            assert greedy.log_value <= brute.log_value + 1e-9

    def test_usually_not_far_from_brute(self):
        gaps = []
        for seed in range(10):
            ps = _rand_ps(90 + seed, 10, 3)
            c = CardinalityConstraint(4, ps.ids)
            gaps.append(brute_force_opt(ps, c).log_value
                        - greedy_constrained(ps, c).log_value)
        assert min(gaps) >= -1e-9
        assert np.median(gaps) < math.log(4.0)

    def test_deterministic_tie_break(self):
        ps = PointSet(2, [(0, np.array([1.0, 0.0]), None),
                          (1, np.array([1.0, 0.0]), None),
                          (2, np.array([0.0, 1.0]), None)])
        c = CardinalityConstraint(2, ps.ids)
        got = greedy_constrained(ps, c)
        assert got.ids == (0, 2)

    def test_pushes_through_singular_prefix(self):
        # every pair is collinear so all intermediate gains are -inf, yet a
        # full-size base must still come out
        ps = PointSet(2, [(i, np.array([1.0, 1.0]) * (i + 1), None) for i in range(4)])
        c = CardinalityConstraint(3, ps.ids)
        got = greedy_constrained(ps, c)
        assert got.feasible and len(got.ids) == 3


    def test_masks_match_per_candidate_checks(self):
        # the cap mask picks what one is_independent call per candidate did,
        # on partitions (some short of a group's cap) and laminar families
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(9, 13))
            ps = _rand_ps(200 + trial, n, 3, [int(g) for g in rng.integers(0, 3, n)])
            if trial % 2:
                c = LaminarConstraint([(range(4), 1), (range(7), 3), (range(7, n), 1)], range(n))
            else:
                c = PartitionConstraint((2, 1, 2), {i: int(ps.labels[i]) for i in range(n)})
            keep = [i for i in range(n) if trial < 6 or rng.random() < 0.7]
            sub = ps.restrict(keep)
            chosen = []
            for _ in range(c.rank):
                cands = [x for x in keep if x not in chosen and is_independent(c, chosen + [x])]
                if not cands:
                    break
                chosen.append(cands[int(np.argmax([objective_value(sub, chosen + [x]) for x in cands]))])
            got = greedy_constrained(sub, c)
            assert got.ids == tuple(sorted(chosen))
            assert got.feasible == (len(chosen) == c.rank)

    def test_final_pick_is_checked(self, monkeypatch):
        ps = _rand_ps(5, 6, 2)
        monkeypatch.setattr(solver, "is_independent", lambda constraint, S: False)
        with pytest.raises(InvariantError, match="breaks a cap"):
            greedy_constrained(ps, CardinalityConstraint(2, ps.ids))


class TestSolveOnCoreset:
    def test_auto_picks_brute_when_small(self):
        ps = _rand_ps(7, 12, 2)
        c = CardinalityConstraint(3, ps.ids)
        res = solve_on_coreset(ps, c, sorted(ps.ids))
        assert res.method == "brute_force"
        # solving on every id loses nothing against the full optimum
        full = brute_force_opt(ps, c)
        assert (res.ids, res.log_value) == (full.ids, full.log_value)

    def test_auto_falls_back_to_greedy(self, monkeypatch):
        monkeypatch.setenv(ORACLE_CAP_ENV, "5")
        ps = _rand_ps(8, 12, 2)
        c = CardinalityConstraint(3, ps.ids)
        res = solve_on_coreset(ps, c, sorted(ps.ids))
        assert res.method == "greedy"
        assert res.feasible

    def test_restriction_respected(self):
        ps = _rand_ps(9, 12, 2)
        c = CardinalityConstraint(3, ps.ids)
        subset = [0, 1, 2, 3, 4]
        res = solve_on_coreset(ps, c, subset)
        assert set(res.ids) <= set(subset)

    def test_coreset_solution_within_declared_factor(self):
        for seed in range(6):
            ps = _rand_ps(110 + seed, 14, 2)
            c = CardinalityConstraint(4, ps.ids)
            cs = build_coreset(ps, ps.ids, c, 1.01)
            on_cs = solve_on_coreset(ps, c, sorted(cs.ids))
            full = brute_force_opt(ps, c)
            assert full.log_value <= on_cs.log_value + cs.approx_log_factor + 1e-9
            assert on_cs.log_value <= full.log_value + 1e-9

    def test_infeasible_when_coreset_too_small(self):
        ps = _rand_ps(10, 8, 2)
        c = CardinalityConstraint(4, ps.ids)
        res = solve_on_coreset(ps, c, [0, 1])
        assert not res.feasible

    def test_method_validation(self):
        ps = _rand_ps(11, 8, 2)
        c = CardinalityConstraint(2, ps.ids)
        with pytest.raises(Exception):
            solve_on_coreset(ps, c, sorted(ps.ids), method="sat")
