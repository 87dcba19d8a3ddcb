"""Distributed-pipeline simulation and the construction-time benchmark.

``run_distributed`` splits an instance across simulated machines, builds a
coreset per machine one after another, composes the coresets, solves on
the composed set, and, where the enumeration guard allows, compares against
the full-instance brute-force optimum.  The report keeps every wall-time
under a single ``timings`` key so byte-level determinism of the remaining
fields can be checked by rerunning.

The property suites live in ``properties`` and the CLI in ``cli``.
"""

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .coreset import build_coreset, compose
from .errors import InvariantError, PreconditionError
from .geometry import UNLABELED
from .instances import InstanceSpec, random_instance
from .localsearch import DEFAULT_ZETA, check_search
from .matroid import oracle_cap
from .objective import regime_of
from .solver import brute_force_opt, json_float, solve_on_coreset


@dataclass
class RunReport:
    """Everything one distributed run produced, timings quarantined."""

    instance: dict
    config: dict
    parts: list
    composed_size: int
    coreset_value: float
    coreset_feasible: bool
    coreset_method: str
    full_value: float
    full_feasible: bool
    oracle: str
    ratio_log: float
    bound_log: float
    warnings: tuple
    timings: dict

    def to_json(self):
        doc = asdict(self)
        for key in ("coreset_value", "full_value", "ratio_log"):
            doc[key] = json_float(doc[key])
        doc["warnings"] = list(self.warnings)
        doc["timings"] = {k: float(v) for k, v in self.timings.items()}
        return doc

    def csv_row(self):
        """One flat row: the instance, the run's settings, its sizes and values."""
        doc = self.to_json()
        row = dict(doc["instance"])
        for key in ("m_parts", "seed", "zeta", "regime", "split"):
            row[key] = doc["config"][key]
        for key in ("composed_size", "coreset_value", "full_value", "ratio_log", "bound_log", "oracle"):
            row[key] = doc[key]
        return row


def _split_ids(points, m_parts, seed, split):
    """The ids of each part as an int array, in the point set's order."""
    if split == "random":
        part = np.random.default_rng(seed).integers(0, m_parts, size=len(points))
    elif split == "by-group":
        if (points.labels == UNLABELED).any():
            raise PreconditionError("by-group split needs a group label on every point")
        part = points.labels % m_parts
    else:
        raise PreconditionError("split must be 'random' or 'by-group', got %r" % (split,))
    return [points.id_array[np.flatnonzero(part == p)] for p in range(m_parts)]


def run_distributed(
    points,
    constraint,
    m_parts,
    seed,
    zeta=DEFAULT_ZETA,
    split="random",
    oracle="auto",
):
    """Simulate the distributed pipeline and cross-check against brute force.

    Each part's coreset comes from :func:`build_coreset`, so the rank and
    the dimension fix ell and the regime (``objective.regime_of``).
    ``oracle`` is "auto" (brute force the full instance when C(n, k) fits
    the cap), "skip", or "force".

    When both optima are available the report's log ratio must be
    sandwiched in [-1e-9, 2*ell*log(zeta*ell) + 1e-9], and feasibility on
    the coreset must match feasibility on the full instance; either failure
    raises InvariantError.
    """
    if not isinstance(m_parts, int) or m_parts < 1:
        raise PreconditionError("m_parts must be a positive int, got %r" % (m_parts,))
    if oracle not in ("auto", "skip", "force"):
        raise PreconditionError("oracle must be 'auto', 'skip', or 'force', got %r" % (oracle,))
    k = constraint.rank
    d = points.dim
    regime, ell = regime_of(k, d)
    check_search(d, ell, zeta)
    timings = {}
    t0 = time.perf_counter()
    part_ids = _split_ids(points, m_parts, seed, split)
    timings["split"] = time.perf_counter() - t0

    warnings = []
    part_rows = []
    built = []
    t0 = time.perf_counter()
    for idx, ids in enumerate(part_ids):
        if not len(ids):
            part_rows.append({"part": idx, "size": 0, "coreset_size": 0, "declared_bound": 0})
            continue
        cs = build_coreset(points, ids, constraint, zeta)
        built.append(cs)
        warnings.extend("part %d: %s" % (idx, w) for w in cs.warnings)
        part_rows.append(
            {
                "part": idx,
                "size": len(ids),
                "coreset_size": len(cs.ids),
                "declared_bound": cs.declared_bound,
            }
        )
    composed_ids = sorted(compose(built).ids) if built else []
    timings["coreset"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    solved = solve_on_coreset(points, constraint, composed_ids)
    timings["solve"] = time.perf_counter() - t0

    full_value = None
    full_feasible = None
    oracle_tag = "skipped"
    t0 = time.perf_counter()
    if oracle == "force" or (
        oracle == "auto" and math.comb(len(points), k) <= oracle_cap()
    ):
        full = brute_force_opt(points, constraint)
        full_value = full.log_value
        full_feasible = full.feasible
        oracle_tag = "brute_force"
    timings["oracle"] = time.perf_counter() - t0
    timings["total"] = sum(timings.values())

    bound_log = 2.0 * ell * math.log(zeta * ell)
    ratio = None
    if oracle_tag != "skipped":
        if solved.feasible != full_feasible:
            raise InvariantError("coreset feasibility must match full instance")
        if full_value == -math.inf and solved.log_value == -math.inf:
            ratio = 0.0
        elif full_feasible:
            ratio = full_value - solved.log_value
        if ratio is not None and solved.method == "brute_force":
            if ratio < -1e-9:
                raise InvariantError("coreset optimum exceeded full optimum: ratio %r" % ratio)
            if ratio > bound_log + 1e-9:
                raise InvariantError(
                    "approximation bound violated: ratio %r > bound %r" % (ratio, bound_log)
                )
    return RunReport(
        instance={"n": len(points), "d": d, "k": k, "kind": constraint.kind},
        config={
            "m_parts": m_parts,
            "seed": seed,
            "zeta": zeta,
            "regime": regime,
            "split": split,
            "ell": ell,
        },
        parts=part_rows,
        composed_size=len(composed_ids),
        coreset_value=solved.log_value,
        coreset_feasible=solved.feasible,
        coreset_method=solved.method,
        full_value=full_value,
        full_feasible=full_feasible,
        oracle=oracle_tag,
        ratio_log=ratio,
        bound_log=bound_log,
        warnings=tuple(warnings),
        timings=timings,
    )


def _even_caps(k, s):
    """k split over s groups as evenly as possible, empty groups dropped."""
    caps = [k // s + (i < k % s) for i in range(s)]
    return [c for c in caps if c > 0]


def bench_scaling(d, k, n_list, seed, s=3, zeta=DEFAULT_ZETA, repeats=1):
    """Time the partition coreset construction across instance sizes.

    Returns one row per n: {"n", "seconds", "coreset_size"}, seconds being
    the best of ``repeats`` runs on a fresh seeded instance.  The instance
    is a random normal point set with k split as evenly as possible over s
    groups.
    """
    caps = _even_caps(k, s)
    rows = []
    for offset, n in enumerate(n_list):
        spec = InstanceSpec(
            "random", n, d, k, {"type": "partition", "caps": caps}, seed + offset
        )
        points, constraint = random_instance(spec)
        seconds = []
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            cs = build_coreset(points, points.id_array, constraint, zeta)
            seconds.append(time.perf_counter() - t0)
        rows.append({"n": n, "seconds": min(seconds), "coreset_size": len(cs.ids)})
    return rows
