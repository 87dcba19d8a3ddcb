"""Exact and greedy solvers for constrained determinant maximization.

The objective is the solver dispatch from the objective module: determinant
of the k x k inner-product matrix while selections are smaller than the
dimension, determinant of the d x d outer-product sum otherwise.  The brute
force route walks the lex tree of independent prefixes (guarded by
DETMAX_ORACLE_CAP), so what each prefix shares with its extensions (its
scatter while k >= d, its point rows while k < d) is grown once.  Grams are
read from one table of pairwise inner products.  Each chunk of bases is
scored in one vectorized batch through the same pivot rule as the scalar
path, so batch and scalar evaluations cannot disagree about singularity.
Ties go to the lexicographically smallest base.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, PreconditionError
from .geometry import logdet_psd_batch
from .localsearch import check_search
from .matroid import enumerate_bases, is_independent, membership, oracle_cap
from .objective import objective_value, regime_of


def json_float(v):
    """A log value for JSON: None stays None and -inf becomes "-inf"."""
    if v is None:
        return None
    return "-inf" if v == -math.inf else float(v)


@dataclass(frozen=True)
class SolveResult:
    """Solver outcome: selected ids, log objective, feasibility, method tag.

    ``feasible`` False means no base exists within the offered ground set;
    ``ids`` then holds the partial selection reached (possibly empty) and
    ``log_value`` is -inf.  A feasible result can still carry -inf when
    every base is singular.
    """

    ids: tuple
    log_value: float
    feasible: bool
    method: str

    def to_json(self):
        return {
            "ids": list(self.ids),
            "log_value": json_float(self.log_value),
            "feasible": self.feasible,
            "method": self.method,
        }


def _grower(coords, scatter):
    """The empty selection's (1, ...) value and the step that extends a stack of selections by one row each.

    ``step(grown, prefix, child)`` takes the values of the selections whose
    rows of ``coords`` are the (b, j) array ``prefix`` and returns those of
    each prefix plus its row in ``child``: the d x d scatter plus the child's
    outer product, or, without ``scatter``, the rows themselves.
    """
    def outer(mats, prefix, child):
        x = coords[child]
        out = np.einsum("bi,bj->bij", x, x)
        out += mats
        return out

    if not scatter:
        return np.empty((1, 0), dtype=np.intp), lambda _, prefix, child: np.column_stack((prefix, child))
    d = coords.shape[1]
    return np.zeros((1, d, d)), outer


def _gram_stacks(coords, k):
    """A function from a (b, k) array of rows of ``coords`` to the (b, k, k) Grams of those rows.

    Every entry is read from one table of pairwise inner products, each the
    same einsum sum over d that forming the Gram alone would take, so the
    values are bitwise the same.  Each of the k(k+1)/2 lower-triangle
    entries is taken for the whole chunk straight into its row of a
    batch-innermost (k, k, b) array, the layout :func:`logdet_psd_batch`
    factors; the upper triangle, which it does not read, is left 0.  The
    table is n x n from k = 2 on, about 2 * C(n, 2) <= 2 * C(n, k) entries;
    for k <= 1, C(n, 2) may pass the oracle cap, and the squared norms do.
    """
    n = len(coords)
    if k <= 1:
        table, stride = np.einsum("bd,bd->b", coords, coords), 0
    else:
        table, stride = np.einsum("pd,qd->pq", coords, coords).ravel(), n

    def grams(rows):
        rows = np.ascontiguousarray(rows.T)
        scaled = rows * stride
        out = np.zeros((k, k, rows.shape[1]))
        for i, j in zip(*np.tril_indices(k)):
            np.take(table, scaled[i] + rows[j], out=out[i, j])
        return out.transpose(2, 0, 1)

    return grams


def brute_force_opt(points, constraint):
    """Enumerate every base and return the best (lex-smallest on ties).

    The base walk grows each prefix once, from its parent, and hands the
    bases over chunk by chunk in lex order; each chunk is scored in one
    :func:`logdet_psd_batch` call.  While k >= d each prefix carries its
    d x d scatter, grown by one outer product per element.  While k < d
    each prefix carries its rows, and a chunk's k x k Grams are gathered
    from one table of pairwise inner products.  A later chunk takes over
    only with a strictly larger value.  Raises GuardExceededError through
    the base enumerator when C(n, k) exceeds the oracle cap.  No bases at
    all gives an infeasible result; all-singular bases give a feasible
    result with -inf.
    """
    k = constraint.rank
    scatter = k >= points.dim
    walk = enumerate_bases(constraint, points, _grower(points.coords, scatter))  # checks the cap before the table
    mats = (lambda grown: grown) if scatter else _gram_stacks(points.coords, k)
    best, best_val, seen = None, -math.inf, 0
    for chunk, grown in walk:
        vals = logdet_psd_batch(mats(grown), first=seen)
        top = int(np.argmax(vals))
        if best is None or vals[top] > best_val:
            best, best_val = chunk[top], vals[top]
        seen += len(chunk)
    if best is None:
        return SolveResult((), -math.inf, False, "brute_force")
    chosen = tuple(best.tolist())
    return SolveResult(chosen, objective_value(points, chosen), True, "brute_force")


def greedy_constrained(points, constraint):
    """Grow a base one element at a time, maximizing the objective each step.

    Candidates that would break a cap are masked out; ties go to the
    smallest id.  Each candidate's matrix is one product of its rows: the
    Gram while the selection stays below the dimension, the scatter from
    then on.  Once the rank is unreachable from the current selection the
    result is marked infeasible and carries the partial pick.  Note the
    greedy chain keeps extending through singular selections (all gains
    -inf) because later picks can still restore full rank.
    """
    ids = np.sort(points.id_array)
    member, caps = membership(constraint, ids)
    coords = points.coords[points.index(ids)]
    picks = []  # positions into ids, in pick order
    for j in range(constraint.rank):
        blocked = member[:, member[picks].sum(0) >= caps].any(1)  # in a set already at its cap
        blocked[picks] = True
        cands = np.flatnonzero(~blocked)
        if not len(cands):
            return SolveResult(tuple(sorted(ids[picks].tolist())), -math.inf, False, "greedy")
        rows = np.empty((len(cands), j + 1), dtype=np.intp)
        rows[:, :-1], rows[:, -1] = picks, cands
        sel = coords[rows]  # (b, j + 1, d)
        spec = "bki,bkj->bij" if j + 1 >= points.dim else "bki,bli->bkl"  # scatter, else Gram
        picks.append(int(cands[np.argmax(logdet_psd_batch(np.einsum(spec, sel, sel)))]))
    final = tuple(sorted(ids[picks].tolist()))
    if not is_independent(constraint, final):
        raise InvariantError("greedy picked %r, which breaks a cap" % (final,))
    return SolveResult(final, objective_value(points, final), True, "greedy")


def solve_on_coreset(points, constraint, coreset_ids, method="auto"):
    """Solve restricted to ``coreset_ids`` (original ids are preserved).

    ``method`` is "auto" (brute force when C(|coreset|, k) fits the oracle
    cap, greedy otherwise), or an explicit "brute" / "greedy".  An empty or
    rank-deficient coreset comes back infeasible.  Rank 0 raises
    PreconditionError, as it does for building a coreset: ell is 0.
    """
    ids = sorted(set(coreset_ids))
    if method not in ("auto", "brute", "greedy"):
        raise PreconditionError("method must be auto, brute, or greedy, got %r" % (method,))
    check_search(points.dim, regime_of(constraint.rank, points.dim)[1])
    sub = points.restrict(ids)
    if method == "auto":  # C(n, k) is 0 when k > n
        method = "brute" if math.comb(len(ids), constraint.rank) <= oracle_cap() else "greedy"
    if method == "brute":
        return brute_force_opt(sub, constraint)
    return greedy_constrained(sub, constraint)
