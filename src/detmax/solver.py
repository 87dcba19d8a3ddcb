"""Exact and greedy solvers for constrained determinant maximization.

The objective is the solver dispatch from the objective module: determinant
of the k x k inner-product matrix while selections are smaller than the
dimension, determinant of the d x d outer-product sum otherwise.  The brute
force route enumerates every base (guarded by DETMAX_ORACLE_CAP) and
evaluates them in vectorized batches through the same pivot rule as the
scalar path, so batch and scalar evaluations cannot disagree about
singularity.  Ties go to the lexicographically smallest base.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .geometry import logdet_psd_batch
from .matroid import enumerate_bases, is_independent, oracle_cap
from .objective import objective_value

_BATCH = 1 << 14


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


def _batched_values(points, bases):
    """Objective for a list of equal-size id tuples, in one vector sweep."""
    coords = points.coords
    k = len(bases[0])
    d = points.dim
    pos = points.index(bases)
    out = np.empty(len(bases))
    for lo in range(0, len(bases), _BATCH):
        chunk = pos[lo : lo + _BATCH]
        sel = coords[chunk]  # (B, k, d)
        if k >= d:
            mats = np.einsum("bki,bkj->bij", sel, sel)
        else:
            mats = np.einsum("bki,bli->bkl", sel, sel)
        out[lo : lo + _BATCH] = logdet_psd_batch(mats, first=lo)
    return out


def brute_force_opt(points, constraint):
    """Enumerate every base and return the best (lex-smallest on ties).

    Raises GuardExceededError through the base enumerator when C(n, k)
    exceeds the oracle cap.  No bases at all gives an infeasible result;
    all-singular bases give a feasible result with log_value -inf.
    """
    bases = list(enumerate_bases(constraint, points))
    if not bases:
        return SolveResult((), -math.inf, False, "brute_force")
    vals = _batched_values(points, bases)
    best = int(np.argmax(vals))
    chosen = bases[best]
    return SolveResult(tuple(chosen), objective_value(points, chosen), True, "brute_force")


def greedy_constrained(points, constraint):
    """Grow a base one element at a time, maximizing the objective each step.

    Candidates that would break independence are skipped; ties go to the
    smallest id.  Once the rank is unreachable from the current selection
    the result is marked infeasible and carries the partial pick.  Note the
    greedy chain keeps extending through singular selections (all gains
    -inf) because later picks can still restore full rank.
    """
    k = constraint.rank
    chosen = []
    chosen_set = set()
    ids = sorted(points.ids)
    for _ in range(k):
        candidates = [
            c
            for c in ids
            if c not in chosen_set and is_independent(constraint, chosen + [c])
        ]
        if not candidates:
            return SolveResult(tuple(sorted(chosen)), -math.inf, False, "greedy")
        vals = _batched_values(points, [tuple(chosen) + (c,) for c in candidates])
        pick = candidates[int(np.argmax(vals))]
        chosen.append(pick)
        chosen_set.add(pick)
    final = tuple(sorted(chosen))
    return SolveResult(final, objective_value(points, final), True, "greedy")


def solve_on_coreset(points, constraint, coreset_ids, method="auto"):
    """Solve restricted to ``coreset_ids`` (original ids are preserved).

    ``method`` is "auto" (brute force when C(|coreset|, k) fits the oracle
    cap, greedy otherwise), or an explicit "brute" / "greedy".  An empty or
    rank-deficient coreset comes back infeasible.
    """
    ids = sorted(set(coreset_ids))
    if method not in ("auto", "brute", "greedy"):
        raise PreconditionError("method must be auto, brute, or greedy, got %r" % (method,))
    sub = points.restrict(ids)
    if method == "auto":
        fits = math.comb(len(ids), constraint.rank) <= oracle_cap() if constraint.rank <= len(ids) else True
        method = "brute" if fits else "greedy"
    if method == "brute":
        return brute_force_opt(sub, constraint)
    return greedy_constrained(sub, constraint)
