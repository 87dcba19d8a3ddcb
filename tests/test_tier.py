"""A block's tier changes no search: every layer is the one the whole block gives.

``TIER_FLOOR`` is lowered so that blocks of a few hundred to a few thousand
points are searched on their tier first, and each result is compared with
the search of the whole block.  Counting wrappers around ``_greedy_positions``
and ``_sweep`` record which decisions a tier certified and which went to the
whole block, so the comparison is known to cover both.
"""

from collections import Counter

import numpy as np
import pytest

from detmax import PointSet, coreset, local_opt, localsearch
from detmax.localsearch import NOTHING, SLACK, TINY, _exchange_ratios, _sweep, gather, tier_of

KINDS = ["random", "rounded", "rescaled", "duplicated", "clustered", "rank-deficient", "zero rows", "tiny", "left out"]


def _rows(kind, rng, n, d):
    X = rng.standard_normal((n, d))
    if kind == "rounded":
        return np.round(2.0 * X)
    if kind == "rescaled":
        return X * 10.0 ** rng.uniform(-6, 6, (n, 1))
    if kind == "duplicated":
        return X[rng.integers(0, max(1, n // 3), n)]
    if kind == "clustered":
        centres = 3.0 * rng.standard_normal((int(rng.integers(1, 6)), d))
        return centres[rng.integers(0, len(centres), n)] + 0.05 * X
    if kind == "rank-deficient":  # rank r < d, all zero when r = 0
        r = int(rng.integers(0, d))
        return rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
    if kind == "zero rows":
        X[rng.random(n) < 0.5] = 0.0
        return X
    if kind == "tiny":  # Grams underflow, and inverses overflow
        return X * 1e-160
    if kind == "left out":  # the tier seed certifies, and for d > 2 a left-out row wins the first swap
        return _left_out(rng, n, d)
    return X


def _left_out(rng, n, d):
    """Kahan's rows, copies of them scaled by 0.9-0.99, and small rows, shuffled: the n // 8 large ones are the tier.

    Greedy takes Kahan's rows in order, each with a residual above r^2, r the
    largest small norm, so the tier seed certifies, and no tier row then
    clears zeta.  For d > 2 the largest column w of their inverse has
    r^2 |w|^2 > 1.2, so the small row of norm r along w wins a swap.
    """
    c = rng.uniform(0.7, 0.9)
    s = np.sqrt(1.0 - c * c)
    kahan = (np.eye(d) - c * np.tril(np.ones((d, d)), -1)) * (s * (1 - 1e-3)) ** np.arange(d)
    copies = kahan[rng.integers(0, d, n // 8 - d)] * rng.uniform(0.9, 0.99, (n // 8 - d, 1))
    w = np.linalg.inv(kahan)
    small = rng.standard_normal((n - n // 8, d))
    small[0] = w[:, np.argmax(np.square(w).sum(0))]
    small *= rng.uniform(0.5, 1.0, (len(small), 1)) / np.linalg.norm(small, axis=1, keepdims=True)
    small[0] /= np.linalg.norm(small[0])
    return rng.permutation(np.vstack([kahan, copies, 0.9 * (s * (1 - 1e-3)) ** (d - 1) * small]))


@pytest.fixture
def decisions(monkeypatch):
    """Counts of ("greedy" or "sweep", "tier" or "whole"), and for a tier whether it certified."""
    seen = Counter()
    greedy, sweep = localsearch._greedy_positions, localsearch._sweep

    def counting_greedy(cols, norms, take, gone=NOTHING, outside=None):
        picked = greedy(cols, norms, take, gone, outside)
        seen["greedy", "whole" if outside is None else "tier", picked is not None] += 1
        return picked

    def counting_sweep(cols, norms, gone, cur_pos, zeta, outside=None):
        step = sweep(cols, norms, gone, cur_pos, zeta, outside)
        seen["sweep", "whole" if outside is None else "tier", step is not False] += 1
        return step

    monkeypatch.setattr(localsearch, "_greedy_positions", counting_greedy)
    monkeypatch.setattr(localsearch, "_sweep", counting_sweep)
    return seen


def _both(monkeypatch, run):
    """run() with the tier floor at 255 points, then with no block reaching it."""
    monkeypatch.setattr(localsearch, "TIER_FLOOR", 255)
    tiered = run()
    monkeypatch.setattr(localsearch, "TIER_FLOOR", 10**9)
    return tiered, run()


def _layers(layers):
    return [(layer.ids, layer.value, layer.swap_count, layer.degenerate) for layer in layers]


def _mismatches(monkeypatch, kind):
    """(seed, ell, search) of each search whose layers differ with and without a tier.

    _peel (thresholds 1-4, half of them with child sets) and local_opt, for
    ell = d and ell < d, on blocks of 300-3000 rows.
    """
    bad = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        n = int(rng.integers(300, 3000))
        X = _rows(kind, rng, n, d)
        ids = np.sort(rng.choice(4 * n, n, replace=False))
        ps = PointSet(d, list(zip(ids.tolist(), X, [None] * n)))
        for ell in (d, int(rng.integers(1, d))):
            threshold = int(rng.integers(1, 5))
            child = rng.integers(-1, 4, n) if seed % 2 else None
            tiered, whole = _both(monkeypatch, lambda: _layers(coreset._peel(ids, X, np.arange(n), threshold, ell, 1.01, child)))
            bad += [(seed, ell, "_peel")] if tiered != whole else []
            tiered, whole = _both(monkeypatch, lambda: _layers([local_opt(ps, ids, ell)]))
            bad += [(seed, ell, "local_opt")] if tiered != whole else []
    return bad


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", KINDS)
def test_tier_search_matches_the_whole_block(monkeypatch, decisions, kind):
    assert _mismatches(monkeypatch, kind) == []
    assert decisions["greedy", "tier", True] + decisions["greedy", "tier", False] > 0
    if kind in ("random", "rescaled", "rounded", "zero rows"):
        assert decisions["sweep", "tier", True] > 0, decisions
    if kind == "left out":  # certified seeds, and sweeps that a left-out row keeps from standing
        assert decisions["greedy", "tier", True] > 0 and decisions["sweep", "tier", False] > 0, decisions


def test_an_always_certified_sweep_fails_the_property(monkeypatch):
    # negative control: a tier sweep that stands without its certificate
    # misses the left-out swaps, so the property must see differing layers
    sweep = localsearch._sweep
    monkeypatch.setattr(localsearch, "_sweep", lambda cols, norms, gone, cur_pos, zeta, outside=None:
                        sweep(cols, norms, gone, cur_pos, zeta))
    assert _mismatches(monkeypatch, "left out")


def test_random_rows_certify_for_ell_d_and_build_no_tier_below_it(monkeypatch, decisions):
    # on random rows the tier certifies seeds and sweeps for ell = d; a
    # search with ell < d takes every decision on the whole block
    for ell in (3, 6):
        for seed in range(4):
            X = np.random.default_rng(seed).standard_normal((2000, 6))
            ids = np.arange(2000)
            decisions.clear()
            tiered, whole = _both(monkeypatch, lambda: _layers(coreset._peel(ids, X, ids, 3, ell, 1.01)))
            assert tiered == whole
            tier = sum(n for (_, where, _), n in decisions.items() if where == "tier")
            if ell == 6:
                assert decisions["greedy", "tier", True] > 0 and decisions["sweep", "tier", True] > 0, decisions
            else:
                assert tier == 0 and decisions["greedy", "whole", True] == 6, decisions


def test_tier_is_the_largest_norm_eighth_in_position_order(monkeypatch):
    rng = np.random.default_rng(5)
    X = np.round(rng.standard_normal((4000, 3)), 1)  # many tied norms
    cols, norms = gather(X, np.arange(len(X)))
    assert tier_of(cols, norms, 3) is None  # at most TIER_FLOOR points: searched whole
    monkeypatch.setattr(localsearch, "TIER_FLOOR", 255)
    assert tier_of(cols, norms, 2) is None  # ell < d: searched whole
    pos, tier_cols, tier_norms, outside = tier_of(cols, norms, 3)
    assert 0 < len(pos) <= 500 and np.all(np.diff(pos) > 0)
    assert tier_cols.flags.c_contiguous and np.array_equal(tier_cols, cols[:, pos])
    assert np.array_equal(tier_norms, norms[pos]) and tier_norms.min() > outside
    left = np.delete(norms, pos)
    assert outside == left.max() and np.sum(norms >= outside) > 500


def test_a_left_out_swap_keeps_the_tier_from_stopping():
    # ell = d = 2: members at 53 degrees, a tier point between them, and
    # point 3 left out: no tier exchange clears zeta, but swapping point 3
    # in for member 0 multiplies the squared volume by about 1.27, so the
    # tier's stop must not stand
    X = np.array([[1.0, 0.0], [0.66, 0.88], [0.8, 0.6], [-0.6, 0.7], [0.5, 0.5]])
    cols, norms = gather(X, np.arange(len(X)))
    assert _sweep(cols, norms, NOTHING, [0, 1], 1.01) == (0, 3)
    pos = np.array([0, 1, 2])
    tier_cols, outside = np.take(cols, pos, axis=1), float(np.delete(norms, pos).max())
    assert _sweep(tier_cols, norms[pos], NOTHING, [0, 1], 1.01) is None
    assert _sweep(tier_cols, norms[pos], NOTHING, [0, 1], 1.01, outside) is False


def _ill_conditioned_block():
    """Members 0 and 1 nearly parallel (cond(G) about 1e14), tier point 2 orthogonal to both, e2 left out.

    Returns the rows, (G^-1)[e, e] and e2's computed ratio over
    (G^-1)[e, e] |e2|^2; the tier point's squared norm is set halfway
    between 1 and that excess.
    """
    A = np.array([[2.0, 0.0, 0.0], [2.0, 2e-7, 0.0]])
    X = np.vstack([A, [0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.5], [0.0, -0.6, 0.7]])
    g = np.diag(np.linalg.inv(A @ A.T))
    excess = _exchange_ratios(*gather(X, np.arange(len(X))), [0, 1])[0][0, 3] / g[0]
    X[2, 2] = np.sqrt((1.0 + excess) / 2)
    return X, g, excess


def test_ill_conditioned_ell_below_d_search_builds_no_tier(monkeypatch, decisions):
    # e2 lies in span(U), and in exact arithmetic its ratio is at most
    # (G^-1)[e, e] |e2|^2; computed, it passes that by far more than SLACK.
    # A tier of the members and point 2 (left out: e2 and smaller) would
    # then, under the exact-arithmetic bound, certify a swap to point 2
    # while the whole block swaps to e2; a search with ell < d builds no
    # tier and makes no tier decision
    X, g, excess = _ill_conditioned_block()
    assert excess > 1.0 + 100 * SLACK
    cols, norms = gather(X, np.arange(len(X)))
    assert _sweep(cols, norms, NOTHING, [0, 1], 1.01) == (0, 3)
    left_out = _exchange_ratios(cols, norms, [0, 1])[0][:, 3:].max()
    pos = np.array([0, 1, 2])
    tier_cols, outside = np.take(cols, pos, axis=1), float(np.delete(norms, pos).max())
    assert outside == 1.0
    tier_best = _exchange_ratios(tier_cols, norms[pos], [0, 1])[0][:, 2].max()
    assert g.max() * (outside + TINY) * (1.0 + SLACK) + TINY < tier_best < left_out
    # the same rows leading a block of 400 small ones, searched with ell = 2 < d = 3
    rows = np.vstack([X, 0.1 * np.random.default_rng(3).standard_normal((400, 3))])
    ids = np.arange(len(rows))
    monkeypatch.setattr(localsearch, "TIER_FLOOR", 255)
    assert tier_of(*gather(rows, ids), 2) is None and tier_of(*gather(rows, ids), 3) is not None
    tiered, whole = _both(monkeypatch, lambda: _layers(coreset._peel(ids, rows, ids, 2, 2, 1.01)))
    assert tiered == whole
    assert sum(n for (_, where, _), n in decisions.items() if where == "tier") == 0, decisions


def test_clustered_block_falls_back_to_the_whole_block(monkeypatch, decisions):
    # tight clusters: once a cluster is picked its points' residuals collapse,
    # and left-out points of other clusters reach as far as the tier's
    rng = np.random.default_rng(11)
    d = 16
    centres = 3.0 * rng.standard_normal((20, d))
    X = centres[rng.integers(0, 20, 3000)] + 0.3 * rng.standard_normal((3000, d))
    ids = np.arange(3000)
    tiered, whole = _both(monkeypatch, lambda: _layers(coreset._peel(ids, X, ids, 2, d, 1.01)))
    assert tiered == whole and sum(layer[2] for layer in whole) > 0
    # both layers of the tiered run seed on the whole block after their tier's
    # greedy fails, as both layers of the untiered run do: 4 whole-block seeds
    assert decisions["greedy", "tier", False] == 2 and decisions["greedy", "whole", True] == 4, decisions
    assert decisions["sweep", "tier", True] + decisions["sweep", "tier", False] == 0
