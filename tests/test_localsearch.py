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
from detmax import localsearch
from detmax.geometry import SINGULAR_PIVOT_REL
from detmax.localsearch import (
    SWAP_LIMIT,
    LocalOptResult,
    _exchange_ratios,
    _greedy_positions,
    gather,
    search,
)


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


def _nu_rows(rows):
    """Log squared volume of a stack of row vectors, through ``localsearch.logdet_psd_batch`` as it is at call time."""
    return float(localsearch.logdet_psd_batch((rows @ rows.T)[None])[0])


def _greedy(X, take):
    """``_greedy_positions`` over the block of the rows of X, nothing masked."""
    return _greedy_positions(*gather(X, np.arange(len(X))), take)


def _search(X, ids, ell, **kw):
    """``search`` over the block of the rows of X, nothing masked."""
    return search(*gather(X, np.arange(len(X))), ids, ell, **kw)


def _reference_greedy(X, take):
    """Greedy max-residual picks with a fresh availability mask on every pick.

    ``_greedy_positions`` must pick the same rows: it keeps one residual
    array, updated in place, unclamped, with -inf on the rows already
    picked.  Projections are taken against the d x n copy of X, as the
    block holds it: once the picks span the rows, the residuals left are
    rounding noise, and which of them is largest depends on the product's
    layout.
    """
    n, d = X.shape
    cols = X.T.copy()
    res = np.einsum("ij,ij->i", X, X).astype(float)
    cut = SINGULAR_PIVOT_REL * res
    basis = np.zeros((take, d))
    nbasis = 0
    available = np.ones(n, dtype=bool)
    picked = []
    for _ in range(take):
        pos = int(np.argmax(np.where(available, res, -np.inf)))
        picked.append(pos)
        available[pos] = False
        if res[pos] > cut[pos] and nbasis < d:
            v = X[pos] - basis[:nbasis].T @ (basis[:nbasis] @ X[pos])
            norm = float(np.linalg.norm(v))
            if norm * norm > cut[pos]:
                q = v / norm
                basis[nbasis] = q
                nbasis += 1
                res = np.maximum(res - (q @ cols) ** 2, 0.0)
    return picked


def _reference_search(X, ids, ell, zeta=1.01, swap_limit=SWAP_LIMIT):
    """The swap loop in the n x ell layout, scoring the selection after every swap.

    ``search`` must reach the same result: it sweeps in the ell x n layout
    with one product per sweep and scores the visited selections once,
    after its loop.
    """
    take = min(ell, len(X))
    cur_pos = sorted(_reference_greedy(X, take))
    val = _nu_rows(X[cur_pos])
    norms = np.einsum("ij,ij->i", X, X)
    swaps = 0
    while val > -math.inf and len(X) > take:
        A = X[cur_pos]
        g_inv = np.linalg.inv(A @ A.T)
        B = X @ A.T
        C = B @ g_inv
        resid = np.maximum(norms - np.einsum("ij,ij->i", B, C), 0.0)
        ratio = C * C + resid[:, None] * np.diag(g_inv)
        ratio[cur_pos] = -np.inf
        into = ratio.argmax(axis=0)
        best = ratio[into, np.arange(take)]
        j = int(np.argmax(best))
        if not best[j] > zeta:
            break
        cur_pos = sorted(cur_pos[:j] + cur_pos[j + 1:] + [int(into[j])])
        val = _nu_rows(X[cur_pos])
        swaps += 1
        if swaps > swap_limit:
            raise SwapLimitError("local search exceeded %d accepted swaps" % swap_limit)
    return LocalOptResult(tuple(ids[cur_pos].tolist()), val, ell, zeta, swaps, val == -math.inf)


def _outcome(run, *args, **kw):
    """(ids, value, swap_count, degenerate) of a search, or the type of what it raised."""
    try:
        res = run(*args, **kw)
    except (SwapLimitError, np.linalg.LinAlgError) as exc:
        return type(exc)
    return res.ids, res.value, res.swap_count, res.degenerate


def _clustered(seed=3, n=300, d=16):
    rng = np.random.default_rng(seed)
    centres = 3.0 * rng.standard_normal((20, d))
    return centres[rng.integers(0, 20, n)] + 0.3 * rng.standard_normal((n, d))


def _search_input(kind, seed, full_rank):
    """Rows and ell for one reference comparison: ell = d when ``full_rank``, else ell < d."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))
    ell = d if full_rank else int(rng.integers(1, d))
    n = int(rng.integers(ell, 80))
    if kind == "random":
        X = rng.standard_normal((n, d))
    elif kind == "rounded":
        X = np.round(2.0 * rng.standard_normal((n, d)))
    elif kind == "rescaled":
        X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-6, 6, (n, 1))
    elif kind == "duplicated":
        base = rng.standard_normal((max(1, n // 3), d))
        X = base[rng.integers(0, len(base), n)]
    else:
        centres = 3.0 * rng.standard_normal((int(rng.integers(1, 6)), d))
        X = centres[rng.integers(0, len(centres), n)] + 0.05 * rng.standard_normal((n, d))
    return X, ell


@pytest.mark.parametrize("d", [1, 3, 8, 64])
def test_gather_writes_the_rows_block_a_slice_at_a_time(d):
    # several slices, rows in any order with repeats, and an empty block: the
    # same d x n block and, bit for bit, the same norms as the rows copied whole
    rng = np.random.default_rng(d)
    coords = rng.standard_normal((5000, d)) * 10.0 ** rng.uniform(-5, 5, (5000, 1))
    for rows in (rng.integers(0, 5000, 3 * (1 << 15) // d + 7), np.arange(5000), np.arange(3)[::-1], np.zeros(0, int)):
        cols, norms = gather(coords, rows)
        X = coords[rows]
        assert cols.flags.c_contiguous and np.array_equal(cols, X.T)
        assert norms.tobytes() == np.einsum("ij,ij->i", X, X).tobytes()


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


def _greedy_input(kind, seed):
    """Rows and their pick counts for one greedy comparison."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 9))
    n = int(rng.integers(1, 60))
    X = rng.standard_normal((n, d))
    if kind == "duplicate rows":
        X = X[rng.integers(0, max(1, n // 4), n)]
    elif kind == "zero rows":
        X[rng.random(n) < 0.5] = 0.0
    elif kind == "rank-deficient":  # rank r < d, all zero when r = 0
        r = int(rng.integers(0, d))
        X = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
    elif kind == "rounded":
        X = np.round(X)
    takes = {"take = n": n, "ell = d": min(n, d)}
    if d > 1:
        takes["ell < d"] = min(n, int(rng.integers(1, d)))
    return X, takes


class TestGreedyAgainstReference:
    @pytest.mark.parametrize("kind", ["random", "duplicate rows", "zero rows", "rank-deficient", "rounded"])
    def test_same_picks_as_masked_greedy(self, kind):
        # 64 inputs per kind, each with take = n, ell = d and (when d > 1) an ell below d
        for seed in range(64):
            X, takes = _greedy_input(kind, seed)
            for name, take in takes.items():
                assert _greedy(X, take) == _reference_greedy(X, take), (seed, name)

    def test_zero_and_duplicate_rows_in_one_input(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 2.0], [0.0, 2.0]])
        for take in range(1, len(X) + 1):
            assert _greedy(X, take) == _reference_greedy(X, take)
        assert _greedy(X, len(X)) == [4, 1, 0, 2, 3, 5]


class TestUnclampedGreedy:
    def test_all_live_residuals_at_most_zero_take_the_first_live_row(self):
        # rows that are multiples of one vector: once the largest is picked,
        # every other residual is rounding noise around 0 and stays below the
        # cut, so no basis vector is added; where all of it is <= 0, a clamp
        # ties every live row at 0 and the picks go in position order
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n, d = int(rng.integers(3, 30)), int(rng.integers(2, 6))
            X = rng.standard_normal(n)[:, None] * rng.standard_normal(d)
            cols, norms = gather(X, np.arange(len(X)))
            first = int(np.argmax(norms))
            left = norms - np.square(cols[:, first] / np.linalg.norm(cols[:, first]) @ cols)
            left[first] = -np.inf
            picks = _greedy(X, n)
            assert picks == _reference_greedy(X, n), seed
            if left.max() <= 0 and int(np.argmax(left)) != int(np.argmax(left > -np.inf)):
                assert picks == [first] + [p for p in range(n) if p != first], seed
                hits += 1
        assert hits >= 5

    def test_zero_rows_and_scalar_multiples(self):
        for seed in range(40):
            rng = np.random.default_rng(100 + seed)
            n, d = int(rng.integers(2, 40)), int(rng.integers(1, 6))
            directions = rng.standard_normal((int(rng.integers(1, d + 1)), d))
            X = rng.standard_normal(n)[:, None] * directions[rng.integers(0, len(directions), n)]
            X[rng.random(n) < 0.3] = 0.0
            for take in range(1, n + 1):
                assert _greedy(X, take) == _reference_greedy(X, take), (seed, take)
        # exact arithmetic: two axis vectors, multiples of them, and zero rows
        X = np.array([[0.0, 0.0], [0.0, -2.0], [3.0, 0.0], [0.0, 4.0], [0.0, 0.0], [0.0, 1.0], [-6.0, 0.0]])
        assert _greedy(X, len(X)) == [6, 3, 0, 1, 2, 4, 5]

    def test_a_masked_row_is_never_picked(self):
        for seed in range(30):
            rng = np.random.default_rng(200 + seed)
            n, d = int(rng.integers(4, 30)), int(rng.integers(1, 6))
            X = rng.standard_normal((n, d))
            big = int(rng.integers(n))
            X[big] *= 100.0  # the largest norm by far, and the best swap target
            gone = np.union1d(rng.choice(n, int(rng.integers(0, n // 2)), replace=False), [big])
            live = np.setdiff1d(np.arange(n), gone)
            for take in range(1, min(d, len(live)) + 1):
                picks = _greedy_positions(*gather(X, np.arange(len(X))), take, gone)
                assert picks == live[_reference_greedy(X[live], take)].tolist(), (seed, take)
            ids = 5 * np.arange(n) + 1
            for ell in range(1, d + 1):
                got = search(*gather(X, np.arange(len(X))), ids, ell, gone=gone)
                assert not set(got.ids) & set(ids[gone].tolist())
                want = _outcome(_search, X[live], ids[live], ell)
                assert (got.ids, got.value, got.swap_count, got.degenerate) == want, (seed, ell)


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
            ratio = _exchange_ratios(*gather(X, np.arange(len(X))), cur)[0].T
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
        X = _clustered()
        n, d = X.shape
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
        ratio = _exchange_ratios(*gather(X, np.arange(len(X))), [0, 1, 3])[0].T
        assert ratio[2, 0] == ratio[4, 0] == ratio[2, 2] == ratio[4, 2] == 2.25
        res = local_opt(ps, ps.ids, 3, 1.01)
        assert (res.ids, res.swap_count) == ((1, 2, 3), 1)


class TestAgainstReference:
    @pytest.mark.parametrize("kind", ["random", "rounded", "rescaled", "duplicated", "clustered"])
    def test_same_result_as_reference(self, kind):
        # 64 inputs per kind and rank mode, 640 in all; sparse ascending ids
        swaps = 0
        for full_rank in (False, True):
            for seed in range(64):
                X, ell = _search_input(kind, seed, full_rank)
                ids = 3 * np.arange(len(X)) + 7
                want = _outcome(_reference_search, X, ids, ell)
                assert _outcome(_search, X, ids, ell) == want, (full_rank, seed)
                swaps += want[2]
        assert swaps > 0

    def test_clustered_many_swaps_matches_reference(self):
        X = _clustered()
        ids = np.arange(len(X))
        want = _outcome(_reference_search, X, ids, X.shape[1])
        assert want[2] >= 10
        assert _outcome(_search, X, ids, X.shape[1]) == want

    def test_deferred_stop_at_a_singular_selection(self, monkeypatch):
        # the loop reads no volume, so a selection scored singular midway
        # must still end the search there, before a later sweep can fail
        X = _clustered()
        ids = np.arange(len(X))
        ell = X.shape[1]
        true_logdet = localsearch.logdet_psd_batch
        grams, calls = [], []

        def recording(mats, **kw):
            grams.extend(np.asarray(mats))
            calls.append(len(mats))
            return true_logdet(mats, **kw)

        monkeypatch.setattr(localsearch, "logdet_psd_batch", recording)
        plain = _search(X, ids, ell)
        assert plain.swap_count >= 10 and not plain.degenerate
        assert len(calls) <= 3
        del grams[:], calls[:]
        assert _outcome(_reference_search, X, ids, ell) == _outcome(_search, X, ids, ell)
        assert len(calls) == plain.swap_count + 1 + 3
        marked = grams[5]  # the reference's Gram after its fifth swap

        def singular_at_fifth(mats, **kw):
            vals = true_logdet(mats, **kw)
            vals[[np.array_equal(m, marked) for m in mats]] = -np.inf
            return vals

        monkeypatch.setattr(localsearch, "logdet_psd_batch", singular_at_fifth)
        for limit in (SWAP_LIMIT, 5, 4):
            want = _outcome(_reference_search, X, ids, ell, swap_limit=limit)
            assert _outcome(_search, X, ids, ell, swap_limit=limit) == want
        assert _outcome(_search, X, ids, ell)[2:] == (5, True)
        assert _outcome(_search, X, ids, ell, swap_limit=4) is SwapLimitError

        # a sweep from the singular selection, where the reference stops,
        # may fail; its error does not escape
        true_ratios = localsearch._exchange_ratios
        sweeps = []

        def failing_sixth_sweep(*args):
            sweeps.append(1)
            if len(sweeps) == 6:
                raise np.linalg.LinAlgError("Singular matrix")
            return true_ratios(*args)

        monkeypatch.setattr(localsearch, "_exchange_ratios", failing_sixth_sweep)
        assert _outcome(_search, X, ids, ell)[2:] == (5, True)
        sweeps.clear()
        monkeypatch.setattr(localsearch, "logdet_psd_batch", true_logdet)
        assert _outcome(_search, X, ids, ell) is np.linalg.LinAlgError


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
