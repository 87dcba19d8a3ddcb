"""Greedy seeding and swap-based local search for the volume objective.

``local_opt`` returns a zeta-approximate local optimum of :func:`nu` inside
a working set V: a size-ell selection U such that no single exchange of one
member for one outsider multiplies the squared volume by more than zeta.
Seeding is greedy (largest residual first), then best-improvement swaps run
until no exchange clears the zeta threshold.

A search runs over a block, a working set's rows gathered once as their
d x n C-ordered copy X^T with the rows' squared norms, and a mask of the
positions taken out; ``coreset`` peels each group's layers off one block.
Masked and picked positions hold -inf, as greedy residuals or sweep ratios.
Greedy residuals are not clamped at 0: one that never reached 0 is bitwise
the clamped one, and when every live one is <= 0 the first live position is
taken, as a clamp would tie them all at 0.  Log-dets read C-ordered rows.

Determinism: each sweep adopts the exchange with the largest volume ratio,
ties resolving to the smallest outgoing id, then the smallest incoming id.
The rule sees ratios as computed in floating point: exchanges whose ratios
tie exactly in real arithmetic but round differently are decided by the
rounding, not by the ids.  Reruns on the same input produce the same
selection.

One sweep scores every exchange at once in closed form.  With A the rows of
U, G = A A^T and C = (G^-1 A) X^T (ell x n: one product, on the block),
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

A block of more than TIER_FLOOR points searched with ell = d, which
includes k = d, is searched on its tier first, as lazy greedy (Minoux 1978)
tries the largest bounds first: its largest-norm eighth, in position order
so ties still go to the smallest id, with ``outside`` the largest squared
norm left out.  A tier decision stands only when certified to be the whole
block's.  The first that is not, every later one, and a search whose tier
has at most ell live points, use the block.

* Greedy: a pick stands when its residual exceeds ``outside``.  Residuals
  start at the norms and only lose squares, and a rounded a - b, b >= 0, is
  at most a, so no left-out residual beats or ties it.
* Sweeps: every ratio of member e is C[e, f]^2 <= c_e |f|^2, c_e = |M_e|^2
  (M = G^-1 A, the computed one), up to d-term roundings that SLACK covers.
  reach = max_e c_e (outside + TINY)(1 + SLACK) + TINY bounds every
  left-out ratio (the TINY terms take underflow; coordinates of at most
  MAX_COORD keep c_e far above it).  A sweep stands when reach is below the
  tier's best ratio, or both are at most zeta.  NaN fails every test.

A search with ell < d gets no tier: its ratios add a residual term which,
computed under an ill-conditioned G, can pass |f|^2 and so c_e |f|^2.

Tier products come from other BLAS calls than the block's, so only a tie in
the last place could be decided differently.  Log-dets read the block: the
same histories are scored with or without a tier.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SwapLimitError
from .geometry import SINGULAR_PIVOT_REL, distinct_ids, is_count, logdet_psd_batch

DEFAULT_ZETA = 1.01
SWAP_LIMIT = 10**6
NOTHING = np.zeros(0, dtype=np.intp)  # a mask of no position
TIER_FLOOR = 8192  # a block of at most this many points is searched whole
SLACK = 1e-6  # relative room for rounding in a tier's sweep certificate
TINY = np.finfo(float).tiny  # absolute room for underflow in it


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


def check_search(dim, ell, zeta=DEFAULT_ZETA):
    """PreconditionError unless zeta >= 1 and ``ell`` is a positive int of at most ``dim``."""
    if not zeta >= 1.0:
        raise PreconditionError("zeta must be >= 1, got %r" % (zeta,))
    if not is_count(ell, 1):
        raise PreconditionError("ell must be a positive int, got %r" % (ell,))
    if ell > dim:
        raise PreconditionError("ell=%d exceeds dim=%d" % (ell, dim))


def gather(coords, rows):
    """The block of ``coords[rows]``: its d x n C-ordered copy and row-summed squared norms, 2**15 entries at a time."""
    cols, norms, step = np.empty((coords.shape[1], len(rows))), np.empty(len(rows)), (1 << 15) // coords.shape[1]
    for lo in range(0, len(rows), step):
        part = coords.take(rows[lo : lo + step], axis=0)
        cols[:, lo : lo + step], norms[lo : lo + step] = part.T, np.einsum("ij,ij->i", part, part)
    return cols, norms


def tier_of(cols, norms, ell):
    """(positions ascending, their columns and norms, outside): norms above ``outside``, the (n/8 + 1)-th largest.

    None for a block of at most TIER_FLOOR points or a search with ell < d.
    """
    n = len(norms)
    if n <= TIER_FLOOR or ell < len(cols):
        return None
    outside = np.partition(norms, n - n // 8 - 1)[n - n // 8 - 1]
    pos = np.flatnonzero(norms > outside)
    return pos, np.take(cols, pos, axis=1), norms[pos], float(outside)


def _logdets(cols, selections):
    """Log squared volumes of position lists of a block, each from a C-ordered copy of its rows."""
    return logdet_psd_batch(np.stack([A @ A.T for A in (cols[:, pos].T.copy() for pos in selections)]))


def _greedy_positions(cols, norms, take, gone=NOTHING, outside=None):
    """Greedy max-residual selection of ``take`` positions of the block, none in ``gone``.

    Ties go to the lowest position.  A vector whose residual is at most
    SINGULAR_PIVOT_REL times its own squared norm counts as already spanned
    and extends the selection without extending the basis.  On a tier, None
    unless every pick's residual exceeds ``outside``.
    """
    d = len(cols)
    res = norms.copy()
    res[gone] = -np.inf
    cut = SINGULAR_PIVOT_REL * norms
    basis = np.zeros((take, d))
    proj = np.empty_like(res)
    nbasis = 0
    picked = []
    for step in range(1, take + 1):
        pos = int(np.argmax(res))  # picked and masked positions hold -inf
        if outside is not None and not res[pos] > outside:
            return None
        if not res[pos] > 0:  # every live residual is <= 0: the first live position
            pos = int(np.argmax(res > -np.inf))
        picked.append(pos)
        if step < take and res[pos] > cut[pos] and nbasis < d:  # the last pick updates nothing
            x = cols[:, pos].copy()
            v = x - basis[:nbasis].T @ (basis[:nbasis] @ x)
            norm = float(np.linalg.norm(v))
            if norm * norm > cut[pos]:
                basis[nbasis] = v / norm
                res -= np.square(np.matmul(basis[nbasis], cols, out=proj), out=proj)
                nbasis += 1
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
    return tuple(ids[_greedy_positions(*gather(points.coords, points.index(ids)), min(ell, len(ids)))].tolist())


def _exchange_ratios(cols, norms, cur_pos):
    """det G(U - e + f) / det G(U), member e = cur_pos[i], f each position (ell x n), and G^-1 A."""
    A = cols[:, cur_pos].T.copy()
    g_inv = np.linalg.inv(A @ A.T)
    M = g_inv @ A
    Ct = M @ cols
    if len(cur_pos) == len(cols):  # span(U) is all of R^d: no outsider has a residual
        return np.square(Ct, out=Ct), M
    resid = np.maximum(norms - np.einsum("ij,ij->j", A @ cols, Ct), 0.0)
    return Ct * Ct + np.diag(g_inv)[:, None] * resid, M


def _sweep(cols, norms, gone, cur_pos, zeta, outside=None):
    """One sweep's exchange: (member index, position), None when none clears zeta, False if uncertified on a tier."""
    ratio, M = _exchange_ratios(cols, norms, cur_pos)
    ratio[:, cur_pos] = -np.inf
    ratio[:, gone] = -np.inf
    into = ratio.argmax(axis=1)  # the best outsider for each member; ties: smallest in id
    best = ratio[np.arange(len(cur_pos)), into]
    j = int(np.argmax(best))  # ties: smallest out id
    if outside is not None:
        reach = float(np.einsum("ij,ij->i", M, M).max()) * (outside + TINY) * (1.0 + SLACK) + TINY
        if not (reach < best[j] or best[j] <= zeta and reach <= zeta):
            return False
    return (j, int(into[j])) if best[j] > zeta else None


def _swap_sweeps(cols, norms, gone, history, zeta, swap_limit, top=None):
    """Append each accepted selection to ``history`` until no exchange clears zeta.

    ``top``, the tier's (positions, (cols, norms, gone), outside), is swept until a sweep there is uncertified.
    """
    cur_pos = history[-1]
    while True:
        with np.errstate(all="ignore"):  # an uncertified tier sweep is redone on the block, warnings and all
            step = False if top is None else _sweep(*top[1], np.searchsorted(top[0], cur_pos), zeta, top[2])
        if step is False:
            top, step = None, _sweep(cols, norms, gone, cur_pos, zeta)
        elif step:
            step = step[0], int(top[0][step[1]])
        if step is None:
            return
        j, into = step
        cur_pos = sorted(cur_pos[:j] + cur_pos[j + 1:] + [into])
        history.append(cur_pos)
        if len(history) > swap_limit + 1:
            raise SwapLimitError("local search exceeded %d accepted swaps" % swap_limit)


def _cut_at_singular(cols, history, stop):
    """Drop what follows the first selection of volume zero among ``history[1:stop]``.

    One batched log-det scores them all.  Returns whether one was found.
    """
    if stop < 2:
        return False
    vals = _logdets(cols, history[1:stop])
    hits = np.flatnonzero(vals == -np.inf)
    if len(hits):
        del history[hits[0] + 2:]
    return len(hits) > 0


def search(cols, norms, ids, ell, zeta=DEFAULT_ZETA, swap_limit=SWAP_LIMIT, gone=NOTHING, tier=None):
    """Greedy seeding plus best-improvement swaps over a block, to a zeta local optimum.

    ``cols`` and ``norms`` come from :func:`gather`, and ``gone`` holds the
    distinct masked positions.  ``ids`` holds the id of each position,
    ascending, so that the lowest wins a tie; ``ell`` is at most the block's
    height.  ``tier`` is the block's :func:`tier_of`, searched first while
    it certifies.  See :func:`local_opt`.
    """
    live = len(ids) - len(gone)
    take = min(ell, live)
    top = picked = None
    if tier is not None:
        pos, tier_cols, tier_norms, outside = tier
        dead = np.zeros(len(ids), dtype=bool)
        dead[gone] = True
        tier_gone = np.flatnonzero(dead[pos])
        top = pos, (tier_cols, tier_norms, tier_gone), outside
        if len(pos) - len(tier_gone) > ell:
            picked = _greedy_positions(tier_cols, tier_norms, take, tier_gone, outside)
    if picked is None:
        picked, top = _greedy_positions(cols, norms, take, gone), None
    history = [sorted(picked if top is None else pos[picked].tolist())]
    val = float(_logdets(cols, history[:1])[0])
    if val > -math.inf and live > take:
        try:
            _swap_sweeps(cols, norms, gone, history, zeta, swap_limit, top)
        except (SwapLimitError, np.linalg.LinAlgError) as exc:
            # the search ends at a singular selection before any later sweep
            # fails; the selection that tripped the swap limit is not scored
            if not _cut_at_singular(cols, history, len(history) - isinstance(exc, SwapLimitError)):
                raise
            val = -math.inf
        else:
            if _cut_at_singular(cols, history, len(history) - 1):
                val = -math.inf
            elif len(history) > 1:
                val = float(_logdets(cols, history[-1:])[0])
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
    cols, norms = gather(points.coords, points.index(ids))
    return search(cols, norms, ids, ell, zeta, swap_limit, tier=tier_of(cols, norms, ell))


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
