"""Greedy seeding and swap-based local search for the volume objective.

``local_opt`` returns a zeta-approximate local optimum of :func:`nu` inside
a working set V: a size-ell selection U such that no single exchange of one
member for one outsider multiplies the squared volume by more than zeta.
Seeding is greedy (largest residual first), then best-improvement swaps run
until no exchange clears the zeta threshold.

Determinism: candidate ids are scanned in ascending order and a swap is
adopted only when strictly better than the best found so far, so ties
resolve to the smallest outgoing id, then the smallest incoming id.  Reruns
on the same input produce the same selection.

Every candidate evaluation is vectorized: for a fixed outgoing element the
values nu(U - e + f) over all f factor into nu(U - e) plus the log squared
distance of f from span(U - e), computed for all f at once against an
orthonormal basis.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SwapLimitError
from .geometry import SINGULAR_PIVOT_REL, logdet_psd_batch

DEFAULT_ZETA = 1.01
SWAP_LIMIT = 10**6


@dataclass(frozen=True)
class LocalOptResult:
    """Outcome of one local search run.

    ``ids`` is the selected id tuple (sorted), ``value`` its log squared
    volume recomputed from scratch, ``degenerate`` flags a selection whose
    volume is zero at working precision (the working set had deficient
    rank), and ``swap_count`` the number of accepted exchanges.
    """

    ids: tuple
    value: float
    ell: int
    zeta: float
    swap_count: int
    degenerate: bool

    @property
    def id_set(self):
        return frozenset(self.ids)


def _nu_rows(rows):
    """Log squared volume of a stack of row vectors."""
    return float(logdet_psd_batch((rows @ rows.T)[None])[0])


def _sorted_working_set(points, V):
    ids = sorted(set(V))
    missing = [i for i in ids if i not in points]
    if missing:
        from .errors import UnknownIdError

        raise UnknownIdError("no point with id %r" % (missing[0],))
    return ids, points.rows(ids)


def _greedy_positions(X, take):
    """Greedy max-residual selection of ``take`` row indices of X.

    Ties go to the lowest index.  A vector whose residual is at most
    SINGULAR_PIVOT_REL times its own squared norm counts as already spanned
    and extends the selection without extending the basis.
    """
    n, d = X.shape
    res = np.einsum("ij,ij->i", X, X).astype(float)
    cut = SINGULAR_PIVOT_REL * res
    basis = np.zeros((take, d))
    nbasis = 0
    available = np.ones(n, dtype=bool)
    picked = []
    for _ in range(take):
        masked = np.where(available, res, -np.inf)
        pos = int(np.argmax(masked))
        picked.append(pos)
        available[pos] = False
        if res[pos] > cut[pos] and nbasis < d:
            v = X[pos] - basis[:nbasis].T @ (basis[:nbasis] @ X[pos])
            norm = float(np.linalg.norm(v))
            if norm * norm > cut[pos]:
                q = v / norm
                basis[nbasis] = q
                nbasis += 1
                res = np.maximum(res - (X @ q) ** 2, 0.0)
    return picked


def greedy_init(points, V, ell):
    """Greedy size-min(ell, |V|) seed, ids in pick order.

    Each step takes the candidate with the largest squared distance from the
    span of the current picks (largest squared norm first), smallest id on
    ties.
    """
    if not isinstance(ell, int) or ell < 1:
        raise PreconditionError("ell must be a positive int, got %r" % (ell,))
    if ell > points.dim:
        raise PreconditionError("ell=%d exceeds dim=%d" % (ell, points.dim))
    ids, X = _sorted_working_set(points, V)
    take = min(ell, len(ids))
    picked = _greedy_positions(X, take)
    return tuple(ids[p] for p in picked)


def _sweep_once(X, cur_pos, in_cur):
    """One best-improvement pass; returns (best_val, (out_pos, in_pos))."""
    norms = np.einsum("ij,ij->i", X, X)
    best_val = -math.inf
    best = None
    for out in cur_pos:  # ascending id order
        rest = [p for p in cur_pos if p != out]
        if rest:
            q, r = np.linalg.qr(X[rest].T, mode="reduced")
            diag = np.abs(np.diag(r))
            if np.any(diag * diag <= SINGULAR_PIVOT_REL * norms[rest]):
                continue
            base = 2.0 * float(np.log(diag).sum())
            proj = X @ q
            resid = np.maximum(norms - np.einsum("ij,ij->i", proj, proj), 0.0)
        else:
            base = 0.0
            resid = norms.copy()
        with np.errstate(divide="ignore"):
            vals = base + np.log(resid)
        vals[in_cur] = -np.inf
        f = int(np.argmax(vals))
        if vals[f] > best_val:
            best_val = float(vals[f])
            best = (out, f)
    return best_val, best


def local_opt(points, V, ell, zeta=DEFAULT_ZETA, swap_limit=SWAP_LIMIT):
    """Run greedy seeding plus best-improvement swaps to a zeta local optimum.

    Parameters
    ----------
    points : PointSet
    V : working id-set to search within
    ell : selection size (<= dim); if |V| < ell the whole of V is returned
    zeta : acceptance threshold, a swap must beat the current volume by a
        factor above zeta (checked in log domain); zeta >= 1
    swap_limit : hard cap on accepted swaps, exceeded -> SwapLimitError

    Returns a LocalOptResult.  A working set of deficient rank yields a
    degenerate result (value -inf) with no swaps attempted, since no
    exchange can repair the rank.
    """
    if not zeta >= 1.0:
        raise PreconditionError("zeta must be >= 1, got %r" % (zeta,))
    if not isinstance(ell, int) or ell < 1:
        raise PreconditionError("ell must be a positive int, got %r" % (ell,))
    if ell > points.dim:
        raise PreconditionError("ell=%d exceeds dim=%d" % (ell, points.dim))
    ids, X = _sorted_working_set(points, V)
    take = min(ell, len(ids))
    if take == 0:
        return LocalOptResult((), 0.0, ell, zeta, 0, False)
    cur_pos = sorted(_greedy_positions(X, take))
    val = _nu_rows(X[cur_pos])
    if val == -math.inf or len(ids) == take:
        return LocalOptResult(
            tuple(ids[p] for p in cur_pos), val, ell, zeta, 0, val == -math.inf
        )
    log_zeta = math.log(zeta)
    swaps = 0
    in_cur = np.zeros(len(ids), dtype=bool)
    in_cur[cur_pos] = True
    while True:
        best_val, best = _sweep_once(X, cur_pos, in_cur)
        if best is None or not best_val > val + log_zeta:
            break
        out, into = best
        in_cur[out] = False
        in_cur[into] = True
        cur_pos = sorted([p for p in cur_pos if p != out] + [into])
        val = _nu_rows(X[cur_pos])
        swaps += 1
        if swaps > swap_limit:
            raise SwapLimitError("local search exceeded %d accepted swaps" % swap_limit)
    return LocalOptResult(tuple(ids[p] for p in cur_pos), val, ell, zeta, swaps, False)


def verify_local_opt(points, V, selection, zeta, slack=1e-9):
    """Exhaustively check the local-optimum inequality from scratch.

    Tries every exchange of one member of ``selection`` for one outsider in
    V and returns the worst violating (e, f, excess) triple, or None when
    zeta * nu(selection) >= nu(selection - e + f) holds throughout (with
    ``slack`` of additive log-domain tolerance).
    """
    from .objective import nu

    sel = sorted(set(selection))
    outside = sorted(set(V) - set(sel))
    base = nu(points, sel)
    worst = None
    for e in sel:
        keep = [x for x in sel if x != e]
        for f in outside:
            cand = nu(points, keep + [f])
            excess = cand - (base + math.log(zeta))
            if excess > slack and (worst is None or excess > worst[2]):
                worst = (e, f, excess)
    return worst
