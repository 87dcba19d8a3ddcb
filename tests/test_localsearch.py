import math
from itertools import combinations

import numpy as np
import pytest

from detmax import (
    PointSet,
    PreconditionError,
    SwapLimitError,
    greedy_init,
    local_opt,
    nu,
    verify_local_opt,
)
from detmax.localsearch import _exchange_ratios


def _ps(vectors):
    return PointSet(
        len(vectors[0]),
        [(i, np.asarray(v, dtype=float), None) for i, v in enumerate(vectors)],
    )


def _rand_ps(seed, n, d):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, d))
    return PointSet(d, [(i, vecs[i], None) for i in range(n)])


def _brute_best(points, ids, ell):
    return max(nu(points, list(c)) for c in combinations(sorted(ids), ell))


class TestGreedyInit:
    def test_frozen_pick_order(self):
        # largest norm first (3 e2), then the best residual (e1)
        ps = _ps([(1.0, 0.0), (0.0, 3.0), (0.0, 1.0)])
        assert greedy_init(ps, [0, 1, 2], 2) == (1, 0)

    def test_norm_tie_breaks_low_id(self):
        ps = _ps([(0.0, 1.0), (1.0, 0.0)])
        assert greedy_init(ps, [0, 1], 1) == (0,)

    def test_rank_certifying(self):
        # greedy attains full rank whenever the ground set has it
        for seed in range(10):
            ps = _rand_ps(seed, 8, 3)
            picks = greedy_init(ps, ps.ids, 3)
            assert nu(ps, sorted(picks)) > -math.inf

    def test_rank_deficient_ground(self):
        ps = _ps([(1.0, 1.0), (2.0, 2.0), (-1.0, -1.0)])
        picks = greedy_init(ps, [0, 1, 2], 2)
        assert len(picks) == 2
        assert nu(ps, sorted(picks)) == -math.inf


class TestLocalOpt:
    def test_result_is_local_opt(self):
        for seed in range(15):
            ps = _rand_ps(100 + seed, 9, 3)
            res = local_opt(ps, ps.ids, 3, 1.01)
            assert not res.degenerate
            assert verify_local_opt(ps, ps.ids, res.ids, 1.01) is None
            assert abs(res.value - nu(ps, list(res.ids))) < 1e-9

    def test_never_worse_than_greedy_seed(self):
        for seed in range(15):
            ps = _rand_ps(200 + seed, 10, 2)
            seedsel = sorted(greedy_init(ps, ps.ids, 2))
            res = local_opt(ps, ps.ids, 2, 1.01)
            assert res.value >= nu(ps, seedsel) - 1e-12

    def test_swaps_happen_somewhere(self):
        # greedy is not always locally optimal; at least one seeded instance
        # must need a real swap, proving the sweep engine runs
        total_swaps = 0
        for seed in range(40):
            ps = _rand_ps(300 + seed, 10, 2)
            total_swaps += local_opt(ps, ps.ids, 2, 1.01).swap_count
        assert total_swaps > 0

    def test_close_to_brute_force(self):
        # zeta-local optima of size ell=d are within d*(zeta^2) per swap of
        # optimal in practice on small instances; just sanity-check the gap
        # against the exhaustive best is bounded and usually zero
        gaps = []
        for seed in range(10):
            ps = _rand_ps(400 + seed, 8, 2)
            res = local_opt(ps, ps.ids, 2, 1.01)
            gaps.append(_brute_best(ps, ps.ids, 2) - res.value)
        assert max(gaps) < math.log(4.0)
        assert min(gaps) >= -1e-12

    def test_unit_square_with_near_duplicate(self):
        # {e1, e2, e1 + 0.1 e2}: the optimal pair has squared volume 1 and
        # the search must land on a 1.01-local optimum of exactly that value
        ps = _ps([(1.0, 0.0), (0.0, 1.0), (1.0, 0.1)])
        res = local_opt(ps, [0, 1, 2], 2, 1.01)
        assert abs(res.value - _brute_best(ps, [0, 1, 2], 2)) < 1e-12
        assert verify_local_opt(ps, [0, 1, 2], res.ids, 1.01) is None

    def test_zeta_acceptance_boundary(self):
        # swapping e2 for c*e2 multiplies the squared volume by c**2; at
        # zeta = 1.01 the selection {e1, e2} is a valid local optimum against
        # c = 1.0049 (sub-threshold improvement) but not against c = 1.0051
        below = _ps([(1.0, 0.0), (0.0, 1.0), (0.0, 1.0049)])
        assert verify_local_opt(below, [0, 1, 2], (0, 1), 1.01) is None
        above = _ps([(1.0, 0.0), (0.0, 1.0), (0.0, 1.0051)])
        bad = verify_local_opt(above, [0, 1, 2], (0, 1), 1.01)
        assert bad is not None and bad[:2] == (1, 2)
        # and the search itself must finish holding the improving vector
        res = local_opt(above, [0, 1, 2], 2, 1.01)
        assert 2 in res.ids

    def test_degenerate_ground(self):
        ps = _ps([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        res = local_opt(ps, [0, 1, 2], 2, 1.01)
        assert res.degenerate
        assert res.value == -math.inf

    def test_deterministic(self):
        ps = _rand_ps(77, 12, 3)
        a = local_opt(ps, ps.ids, 3, 1.01)
        b = local_opt(ps, ps.ids, 3, 1.01)
        assert a.ids == b.ids and a.value == b.value

    def test_duplicate_coordinates_tie_break(self):
        # two identical copies of e1: the smaller id wins deterministically
        ps = _ps([(1.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        res = local_opt(ps, [0, 1, 2], 2, 1.01)
        assert res.ids == (0, 2)

    def test_ell_validation(self):
        ps = _rand_ps(1, 5, 2)
        with pytest.raises(PreconditionError):
            local_opt(ps, ps.ids, 0, 1.01)
        with pytest.raises(PreconditionError):
            local_opt(ps, ps.ids, 3, 1.01)  # ell exceeds dim
        with pytest.raises(PreconditionError):
            local_opt(ps, ps.ids, 6, 1.01)  # ell exceeds |V|

    def test_zeta_validation(self):
        ps = _rand_ps(1, 5, 2)
        with pytest.raises(PreconditionError):
            local_opt(ps, ps.ids, 2, 0.5)

    def test_swap_limit(self):
        # an instance that needs at least one swap trips a zero swap budget
        found = False
        for seed in range(40):
            ps = _rand_ps(300 + seed, 10, 2)
            if local_opt(ps, ps.ids, 2, 1.01).swap_count > 0:
                with pytest.raises(SwapLimitError):
                    local_opt(ps, ps.ids, 2, 1.01, swap_limit=0)
                found = True
                break
        assert found


class TestExchangeRatios:
    @pytest.mark.parametrize("n, d, ell", [(12, 5, 3), (10, 4, 4)], ids=["ell<d", "ell=d"])
    def test_matches_volumes_from_scratch(self, n, d, ell):
        # every (e, f) entry is exp(nu(U - e + f) - nu(U)); a member f = e
        # scores 1 and any other member 0, since U - e + f repeats a row
        for seed in range(5):
            ps = _rand_ps(500 + seed, n, d)
            X = ps.rows(ps.ids)
            rng = np.random.default_rng(seed)
            cur = sorted(int(p) for p in rng.choice(n, ell, replace=False))
            ratio = _exchange_ratios(X, np.einsum("ij,ij->i", X, X), cur)
            base = nu(ps, cur)
            for j, e in enumerate(cur):
                for f in range(n):
                    if f in cur:
                        want = 1.0 if f == e else 0.0
                        assert ratio[f, j] == pytest.approx(want, abs=1e-9)
                    else:
                        swapped = [x for x in cur if x != e] + [f]
                        want = math.exp(nu(ps, swapped) - base)
                        assert ratio[f, j] == pytest.approx(want, rel=1e-9)

    def test_clustered_instance_many_swaps(self):
        # greedy seeds several points near the same centres, so the search
        # makes many exchanges; its end point must pass the exhaustive check
        rng = np.random.default_rng(3)
        n, d = 300, 16
        centres = 3.0 * rng.standard_normal((20, d))
        X = centres[rng.integers(0, 20, n)] + 0.3 * rng.standard_normal((n, d))
        ps = PointSet(d, [(i, X[i], None) for i in range(n)])
        res = local_opt(ps, ps.ids, d, 1.01)
        assert res.swap_count >= 10
        assert verify_local_opt(ps, ps.ids, res.ids, 1.01) is None
        assert res.value == pytest.approx(nu(ps, list(res.ids)), abs=1e-9)

    def test_exact_tie_takes_smallest_out_then_smallest_in(self):
        # greedy seeds {0, 1, 3}; exchanging out 0 or 3 for in 2 or its
        # duplicate 4 all multiply the squared volume by exactly 9/4, and
        # every quantity in the sweep is a small dyadic rational, so the tie
        # is exact in floating point too.  Out 0, in 2 must win.
        ps = _ps([(0, 2, -2), (-2, -1, 1), (1, -1, -2), (2, -2, 0), (1, -1, -2)])
        assert sorted(greedy_init(ps, ps.ids, 3)) == [0, 1, 3]
        X = ps.rows(ps.ids)
        ratio = _exchange_ratios(X, np.einsum("ij,ij->i", X, X), [0, 1, 3])
        assert ratio[2, 0] == ratio[4, 0] == ratio[2, 2] == ratio[4, 2] == 2.25
        res = local_opt(ps, ps.ids, 3, 1.01)
        assert (res.ids, res.swap_count) == ((1, 2, 3), 1)


class TestVerifyLocalOpt:
    def test_flags_improvable_selection(self):
        ps = _ps([(1.0, 0.0), (0.0, 1.0), (0.0, 5.0)])
        bad = verify_local_opt(ps, [0, 1, 2], (0, 1), 1.01)
        assert bad is not None
        e, f, excess = bad
        assert (e, f) == (1, 2)
        assert excess > 0

    def test_accepts_true_local_opt(self):
        ps = _ps([(1.0, 0.0), (0.0, 1.0), (0.0, 5.0)])
        assert verify_local_opt(ps, [0, 1, 2], (0, 2), 1.01) is None
