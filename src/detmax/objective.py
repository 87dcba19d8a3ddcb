"""Determinantal objectives in plain, combinatorial, and reweighted form.

Two determinants show up, depending on how the selection size k compares to
the ambient dimension d:

* ``nu(W)`` for a selection of size ell <= d is the squared ell-volume of the
  parallelepiped spanned by the vectors: det of the ell x ell inner-product
  matrix.  It is finite exactly when the vectors are linearly independent.
* ``mu(S)`` for a selection of size k >= d is det of the d x d sum of outer
  products.  By the Cauchy-Binet expansion it equals the sum of ``nu`` over
  all size-d subsets of S, which :func:`mu_cauchy_binet` recomputes directly
  and serves as the independent cross-check.

``mu_tilde`` is the reweighted objective used by the exchange arguments: a
selection profile marks a coreset U and every size-ell subset W is weighted
by (zeta*ell)**(2*|W cap U|).  Rather than enumerating subsets, the weight
factors into a per-vector scaling sqrt(c_i) with c_i = (zeta*ell)**2 for
i in U, so the whole thing is one scaled Gram determinant.  The enumeration
route survives as :func:`mu_tilde_by_enumeration` for cross-checking only.

All returns are log domain floats, ``-inf`` for a vanishing determinant.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import GuardExceededError, PreconditionError
from .geometry import logdet_psd_batch

REGIME_HIGHK = "highk"
REGIME_LOWK = "lowk"


def regime_of(rank, dim):
    """The construction that rank k and dimension d fix: (regime, ell) with ell = min(k, d).

    Low rank (k <= d) keeps one local optimum of size k per group; high
    rank peels each group into layers of size d.
    """
    return (REGIME_LOWK, rank) if rank <= dim else (REGIME_HIGHK, dim)


# subset enumeration in the cross-check oracles is capped at this many items
ENUMERATION_CAP = 20


def logsumexp(values):
    """log(sum(exp(values))) with max-shift; -inf for an empty or all--inf input."""
    vals = [v for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    top = max(vals)
    return top + math.log(sum(math.exp(v - top) for v in vals))


def nu(points, W, ell=None):
    """Log squared volume of the vectors selected by ``W``.

    Parameters
    ----------
    points : PointSet
    W : sequence of ids, repeats allowed (a repeat forces -inf)
    ell : expected size; defaults to len(W) and must match it

    Returns the log-determinant of the |W| x |W| inner-product matrix, which
    is -inf exactly when the selected vectors are linearly dependent.
    Requires |W| <= dim; the empty selection has value 0 (determinant 1).
    """
    sel = list(W)
    if ell is None:
        ell = len(sel)
    if len(sel) != ell:
        raise PreconditionError("nu: |W|=%d but ell=%d" % (len(sel), ell))
    if ell > points.dim:
        raise PreconditionError("nu: |W|=%d exceeds dim=%d" % (ell, points.dim))
    rows = points.rows(sel)
    return float(logdet_psd_batch((rows @ rows.T)[None])[0])


def mu(points, S):
    """Log-determinant of sum of outer products over ``S`` (|S| >= dim).

    -inf when the selection does not span all of R^d.  For selections
    smaller than dim use :func:`nu`, whose value the Cauchy-Binet expansion
    of this determinant reduces to.
    """
    sel = list(S)
    if len(sel) < points.dim:
        raise PreconditionError(
            "mu: |S|=%d below dim=%d; nu covers selections smaller than dim" % (len(sel), points.dim)
        )
    rows = points.rows(sel)
    return float(logdet_psd_batch((rows.T @ rows)[None])[0])


def objective_value(points, S):
    """Dispatch to mu for |S| >= dim and nu otherwise.

    This is the solver-facing objective: determinant of the k x k
    inner-product matrix while the selection is smaller than the dimension,
    determinant of the d x d outer-product sum from then on.  The two agree
    at |S| = dim.
    """
    sel = list(S)
    if len(sel) >= points.dim:
        return mu(points, sel)
    return nu(points, sel)


def mu_cauchy_binet(points, S, ell=None):
    """Recompute mu(S) as logsumexp of nu over all size-ell subsets of S.

    Independent cross-check of :func:`mu`; |S| is capped at 20 because the
    subset count explodes.  ``ell`` defaults to the dimension.
    """
    sel = sorted(S)
    if ell is None:
        ell = points.dim
    if len(sel) > ENUMERATION_CAP:
        raise GuardExceededError(
            "mu_cauchy_binet enumerates C(%d, %d) subsets; cap is |S| <= %d"
            % (len(sel), ell, ENUMERATION_CAP)
        )
    if ell > len(sel):
        raise PreconditionError("mu_cauchy_binet: ell=%d exceeds |S|=%d" % (ell, len(sel)))
    return logsumexp(nu(points, w) for w in combinations(sel, ell))


@dataclass(frozen=True)
class WeightProfile:
    """Parameters of the reweighted objectives.

    coreset_ids is the id-set U whose members get boosted, zeta >= 1 is the
    local-search slack, ell >= 1 the subset size the weights refer to, and
    regime is "highk" (mu_tilde applies) or "lowk" (mu_hat_lowdim applies).
    """

    coreset_ids: frozenset
    zeta: float
    ell: int
    regime: str

    def __post_init__(self):
        object.__setattr__(self, "coreset_ids", frozenset(self.coreset_ids))
        if self.regime not in (REGIME_HIGHK, REGIME_LOWK):
            raise PreconditionError("regime must be 'highk' or 'lowk', got %r" % (self.regime,))
        if not self.zeta >= 1.0:
            raise PreconditionError("zeta must be >= 1, got %r" % (self.zeta,))
        if not (isinstance(self.ell, int) and self.ell >= 1):
            raise PreconditionError("ell must be a positive int, got %r" % (self.ell,))

    @property
    def log_boost(self):
        """Log of the per-element weight (zeta*ell)**2 carried by U members."""
        return 2.0 * math.log(self.zeta * self.ell)


def mu_tilde(points, S, profile):
    """Reweighted determinant objective, computed as one scaled Gram det.

    Each vector with id in ``profile.coreset_ids`` is scaled by zeta*ell
    before the d x d sum of outer products; by Cauchy-Binet this multiplies
    every size-ell subset's contribution by (zeta*ell)**(2*|W cap U|),
    which is exactly the subset weighting the exchange arguments need.
    ``S`` may repeat ids.  Requires the highk regime and |S| >= ell.
    """
    if profile.regime != REGIME_HIGHK:
        raise PreconditionError("mu_tilde is a highk objective; profile says %r" % profile.regime)
    sel = list(S)
    if len(sel) < profile.ell:
        raise PreconditionError("mu_tilde: |S|=%d below ell=%d" % (len(sel), profile.ell))
    rows = points.rows(sel).copy()
    boost = profile.zeta * profile.ell
    in_u = np.fromiter((pid in profile.coreset_ids for pid in sel), dtype=bool, count=len(sel))
    rows[in_u] *= boost
    return float(logdet_psd_batch((rows.T @ rows)[None])[0])


def mu_tilde_by_enumeration(points, S, profile):
    """Oracle route for mu_tilde: weighted logsumexp over size-ell subsets.

    Enumerates every size-ell subset W of the (multi)set S and adds
    nu(W) + 2*|W cap U|*log(zeta*ell).  Guarded at |S| <= 20.
    """
    if profile.regime != REGIME_HIGHK:
        raise PreconditionError("mu_tilde is a highk objective; profile says %r" % profile.regime)
    sel = sorted(S)
    if len(sel) > ENUMERATION_CAP:
        raise GuardExceededError("mu_tilde_by_enumeration caps at |S| <= %d" % ENUMERATION_CAP)
    if len(sel) < profile.ell:
        raise PreconditionError("mu_tilde: |S|=%d below ell=%d" % (len(sel), profile.ell))
    terms = []
    for pos in combinations(range(len(sel)), profile.ell):
        w = [sel[p] for p in pos]
        overlap = sum(1 for pid in w if pid in profile.coreset_ids)
        terms.append(nu(points, w) + overlap * profile.log_boost)
    return logsumexp(terms)


def mu_hat_lowdim(points, S, profile):
    """Low-k reweighted objective: nu(S) plus the boost for each U member.

    For selections of size exactly ell (= k <= d) the subset expansion has a
    single term, so the weighting collapses to
    ``nu(S) + 2*|S cap U|*log(zeta*ell)``.  Requires the lowk regime.
    """
    if profile.regime != REGIME_LOWK:
        raise PreconditionError("mu_hat_lowdim is a lowk objective; profile says %r" % profile.regime)
    sel = list(S)
    if len(sel) != profile.ell:
        raise PreconditionError("mu_hat_lowdim: |S|=%d must equal ell=%d" % (len(sel), profile.ell))
    base = nu(points, sel)
    if base == -math.inf:
        return -math.inf
    overlap = len(set(sel) & profile.coreset_ids)
    return base + overlap * profile.log_boost
