"""Greedy seeding and swap-based local search for the volume objective.

``local_opt`` returns a zeta-approximate local optimum of :func:`nu` inside
a working set V: a size-ell selection U such that no single exchange of one
member for one outsider multiplies the squared volume by more than zeta.
Seeding is greedy (largest residual first), then best-improvement swaps run
until no exchange clears the zeta threshold.

Determinism: each sweep adopts the exchange with the largest volume ratio,
ties resolving to the smallest outgoing id, then the smallest incoming id.
The rule sees ratios as computed in floating point: exchanges whose ratios
tie exactly in real arithmetic but round differently are decided by the
rounding, not by the ids.  Reruns on the same input produce the same
selection.

One sweep scores every exchange at once in closed form.  With A the rows of
U, G = A A^T and C = (G^-1 A) X^T (ell x n: one product, on the view X^T),
the exchange of member e for outsider f multiplies the squared volume by

    det G(U - e + f) / det G(U) = C[e, f]^2 + |P_U^perp f|^2 * (G^-1)[e, e],

where |P_U^perp f|^2 = |f|^2 - sum_j B[j, f] C[j, f], B = A X^T, is the
squared distance of f from span(U).  When ell = d, span(U) is all of R^d,
the distance is zero and neither B nor it is computed.  G^-1 is recomputed
from scratch on every sweep.  Each member's best outsider is a row argmax.

The sweep reads no volume.  An accepted swap multiplies it by more than
zeta >= 1, so a visited selection can score singular only through
rounding, and the search still ends at the first one that does.  The
visited selections are scored in one batched log-det after the loop, or
before a swap-limit or linear-algebra error escapes; the end selection's
value is taken alone, as the seed's is.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SwapLimitError
from .geometry import SINGULAR_PIVOT_REL, distinct_ids, is_count, logdet_psd_batch

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


def _nu_rows(rows):
    """Log squared volume of a stack of row vectors."""
    return float(logdet_psd_batch((rows @ rows.T)[None])[0])


def check_search(dim, ell, zeta=DEFAULT_ZETA):
    """PreconditionError unless zeta >= 1 and ``ell`` is a positive int of at most ``dim``."""
    if not zeta >= 1.0:
        raise PreconditionError("zeta must be >= 1, got %r" % (zeta,))
    if not is_count(ell, 1):
        raise PreconditionError("ell must be a positive int, got %r" % (ell,))
    if ell > dim:
        raise PreconditionError("ell=%d exceeds dim=%d" % (ell, dim))


def _greedy_positions(X, take):
    """Greedy max-residual selection of ``take`` row indices of X.

    Ties go to the lowest index.  A vector whose residual is at most
    SINGULAR_PIVOT_REL times its own squared norm counts as already spanned
    and extends the selection without extending the basis.
    """
    d = X.shape[1]
    res = np.einsum("ij,ij->i", X, X).astype(float)
    cut = SINGULAR_PIVOT_REL * res
    basis = np.zeros((take, d))
    nbasis = 0
    picked = []
    for _ in range(take):
        pos = int(np.argmax(res))  # picked rows hold -inf
        picked.append(pos)
        if res[pos] > cut[pos] and nbasis < d:
            v = X[pos] - basis[:nbasis].T @ (basis[:nbasis] @ X[pos])
            norm = float(np.linalg.norm(v))
            if norm * norm > cut[pos]:
                basis[nbasis] = v / norm
                res -= np.square(X @ basis[nbasis])
                nbasis += 1
                np.maximum(res, 0.0, out=res)
                res[picked] = -np.inf
        res[pos] = -np.inf
    return picked


def greedy_init(points, V, ell):
    """Greedy size-min(ell, |V|) seed, ids in pick order.

    Each step takes the candidate with the largest squared distance from the
    span of the current picks (largest squared norm first), smallest id on
    ties.
    """
    check_search(points.dim, ell)
    ids = distinct_ids(V)
    return tuple(ids[_greedy_positions(points.rows(ids), min(ell, len(ids)))].tolist())


def _exchange_ratios(X, cur_pos):
    """det G(U - e + f) / det G(U) for member e = cur_pos[i] and every row f of X, as an ell x n array."""
    A = X[cur_pos]
    g_inv = np.linalg.inv(A @ A.T)
    Ct = (g_inv @ A) @ X.T
    if len(cur_pos) == X.shape[1]:  # span(U) is all of R^d: no outsider has a residual
        return np.square(Ct, out=Ct)
    resid = np.maximum(np.einsum("ij,ij->i", X, X) - np.einsum("ij,ij->j", A @ X.T, Ct), 0.0)
    return Ct * Ct + np.diag(g_inv)[:, None] * resid


def _swap_sweeps(X, history, zeta, swap_limit):
    """Append each accepted selection to ``history`` until no exchange clears zeta."""
    cur_pos = history[-1]
    members = np.arange(len(cur_pos))
    while True:
        ratio = _exchange_ratios(X, cur_pos)
        ratio[:, cur_pos] = -np.inf
        into = ratio.argmax(axis=1)  # the best outsider for each member; ties: smallest in id
        best = ratio[members, into]
        j = int(np.argmax(best))  # ties: smallest out id
        if not best[j] > zeta:
            return
        cur_pos = sorted(cur_pos[:j] + cur_pos[j + 1:] + [int(into[j])])
        history.append(cur_pos)
        if len(history) > swap_limit + 1:
            raise SwapLimitError("local search exceeded %d accepted swaps" % swap_limit)


def _cut_at_singular(X, history, stop):
    """Drop what follows the first selection of volume zero among ``history[1:stop]``.

    One batched log-det scores them all.  Returns whether one was found.
    """
    if stop < 2:
        return False
    vals = logdet_psd_batch(np.stack([X[pos] @ X[pos].T for pos in history[1:stop]]))
    hits = np.flatnonzero(vals == -np.inf)
    if len(hits):
        del history[hits[0] + 2:]
    return len(hits) > 0


def search(X, ids, ell, zeta=DEFAULT_ZETA, swap_limit=SWAP_LIMIT):
    """Greedy seeding plus best-improvement swaps over the rows of X, to a zeta local optimum.

    ``ids`` holds the id of each row of X, ascending, so that the lowest row
    wins a tie; ``ell`` is at most X's width.  See :func:`local_opt`.
    """
    take = min(ell, len(X))
    history = [sorted(_greedy_positions(X, take))]
    val = _nu_rows(X[history[0]])
    if val > -math.inf and len(X) > take:
        try:
            _swap_sweeps(X, history, zeta, swap_limit)
        except (SwapLimitError, np.linalg.LinAlgError) as exc:
            # the search ends at a singular selection before any later sweep
            # fails; the selection that tripped the swap limit is not scored
            if not _cut_at_singular(X, history, len(history) - isinstance(exc, SwapLimitError)):
                raise
            val = -math.inf
        else:
            if _cut_at_singular(X, history, len(history) - 1):
                val = -math.inf
            elif len(history) > 1:
                val = _nu_rows(X[history[-1]])
    swaps = len(history) - 1
    return LocalOptResult(tuple(ids[history[-1]].tolist()), val, ell, zeta, swaps, val == -math.inf)


def local_opt(points, V, ell, zeta=DEFAULT_ZETA, swap_limit=SWAP_LIMIT):
    """Run greedy seeding plus best-improvement swaps to a zeta local optimum.

    Parameters
    ----------
    points : PointSet
    V : working id-set to search within
    ell : selection size (<= dim); if |V| < ell the whole of V is returned
    zeta : acceptance threshold, a swap must multiply the squared volume
        by a factor above zeta; zeta >= 1
    swap_limit : hard cap on accepted swaps, exceeded -> SwapLimitError

    Returns a LocalOptResult.  A working set of deficient rank yields a
    degenerate result (value -inf) with no swaps attempted, since no
    exchange can repair the rank.
    """
    check_search(points.dim, ell, zeta)
    ids = distinct_ids(V)
    return search(points.rows(ids), ids, ell, zeta, swap_limit)


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
