"""Distributed-pipeline simulation, scaling benchmark, property suites, CLI.

``run_distributed`` splits an instance across simulated machines, builds a
coreset per machine one after another, composes the coresets, solves on
the composed set, and, where the enumeration guard allows, compares against
the full-instance brute-force optimum.  The report keeps every wall-time
under a single ``timings`` key so byte-level determinism of the remaining
fields can be checked by rerunning.

The module is also the CLI entry point (``detmax``), with subcommands gen,
coreset, solve, compose, run, bench, and verify.
"""

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .coreset import (
    build_coreset,
    compose,
    coreset_from_json,
    coreset_to_json,
    coreset_ids_from_json,
    find_laminar_exchange,
    find_value_preserving_exchange,
    laminar_coreset,
    peeling_coreset,
)
from .errors import (
    GuardExceededError,
    InstanceFormatError,
    InvariantError,
    PreconditionError,
    UnknownIdError,
)
from .geometry import merge_pointsets
from .instances import (
    InstanceSpec,
    hard_instance,
    instance_to_json,
    lb_high_dim_instance,
    lb_low_dim_instance,
    load_instance,
    random_instance,
)
from .localsearch import DEFAULT_ZETA, local_opt
from .matroid import LaminarConstraint, enumerate_bases, is_base, oracle_cap
from .objective import (
    REGIME_HIGHK,
    REGIME_LOWK,
    WeightProfile,
    logsumexp,
    mu,
    mu_cauchy_binet,
    mu_tilde,
    mu_tilde_by_enumeration,
    nu,
)
from .solver import brute_force_opt, solve_on_coreset


def _json_float(v):
    if v is None:
        return None
    if v == -math.inf:
        return "-inf"
    return float(v)


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
        return {
            "instance": self.instance,
            "config": self.config,
            "parts": self.parts,
            "composed_size": self.composed_size,
            "coreset_value": _json_float(self.coreset_value),
            "coreset_feasible": self.coreset_feasible,
            "coreset_method": self.coreset_method,
            "full_value": _json_float(self.full_value),
            "full_feasible": self.full_feasible,
            "oracle": self.oracle,
            "ratio_log": _json_float(self.ratio_log),
            "bound_log": self.bound_log,
            "warnings": list(self.warnings),
            "timings": {k: float(v) for k, v in self.timings.items()},
        }

    def csv_row(self):
        flat = {
            "n": self.instance["n"],
            "d": self.instance["d"],
            "k": self.instance["k"],
            "kind": self.instance["kind"],
            "m_parts": self.config["m_parts"],
            "seed": self.config["seed"],
            "zeta": self.config["zeta"],
            "regime": self.config["regime"],
            "split": self.config["split"],
            "composed_size": self.composed_size,
            "coreset_value": _json_float(self.coreset_value),
            "full_value": _json_float(self.full_value),
            "ratio_log": _json_float(self.ratio_log),
            "bound_log": self.bound_log,
            "oracle": self.oracle,
        }
        return flat


def _split_ids(points, m_parts, seed, split):
    ids = list(points.ids)
    parts = [[] for _ in range(m_parts)]
    if split == "random":
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, m_parts, size=len(ids))
        for pid, p in zip(ids, assignment):
            parts[int(p)].append(pid)
    elif split == "by-group":
        for pid in ids:
            g = points.group_of(pid)
            if g is None:
                raise PreconditionError("by-group split needs a group label on every point")
            parts[g % m_parts].append(pid)
    else:
        raise PreconditionError("split must be 'random' or 'by-group', got %r" % (split,))
    return parts


def run_distributed(
    points,
    constraint,
    m_parts,
    seed,
    zeta=DEFAULT_ZETA,
    regime="auto",
    split="random",
    coreset_mode="peel",
    oracle="auto",
):
    """Simulate the distributed pipeline and cross-check against brute force.

    ``coreset_mode`` "full" ships every part verbatim (a debugging identity
    coreset whose ratio must be exactly zero); "peel" runs the real
    construction.  ``oracle`` is "auto" (brute force the full instance when
    C(n, k) fits the cap), "skip", or "force".

    When both optima are available the report's log ratio must be
    sandwiched in [-1e-9, 2*ell*log(zeta*ell) + 1e-9], and feasibility on
    the coreset must match feasibility on the full instance; either failure
    raises InvariantError.
    """
    if not isinstance(m_parts, int) or m_parts < 1:
        raise PreconditionError("m_parts must be a positive int, got %r" % (m_parts,))
    k = constraint.rank
    d = points.dim
    eff_regime = regime
    if eff_regime == "auto":
        eff_regime = REGIME_LOWK if k <= d else REGIME_HIGHK
    ell = k if eff_regime == REGIME_LOWK else d
    timings = {}
    t0 = time.perf_counter()
    part_ids = _split_ids(points, m_parts, seed, split)
    timings["split"] = time.perf_counter() - t0

    warnings = []
    part_rows = []
    t0 = time.perf_counter()
    if coreset_mode == "full":
        composed_ids = sorted(points.ids)
        for idx, ids in enumerate(part_ids):
            part_rows.append(
                {"part": idx, "size": len(ids), "coreset_size": len(ids), "declared_bound": None}
            )
    elif coreset_mode == "peel":
        built = []
        for idx, ids in enumerate(part_ids):
            if not ids:
                part_rows.append({"part": idx, "size": 0, "coreset_size": 0, "declared_bound": 0})
                continue
            cs = build_coreset(points, ids, constraint, zeta, regime)
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
    else:
        raise PreconditionError("coreset_mode must be 'peel' or 'full', got %r" % (coreset_mode,))
    timings["coreset"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    solved = solve_on_coreset(points, constraint, composed_ids)
    timings["solve"] = time.perf_counter() - t0

    full_value = None
    full_feasible = None
    oracle_tag = "skipped"
    t0 = time.perf_counter()
    if oracle not in ("auto", "skip", "force"):
        raise PreconditionError("oracle must be 'auto', 'skip', or 'force', got %r" % (oracle,))
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
            "regime": eff_regime,
            "requested_regime": regime,
            "split": split,
            "coreset_mode": coreset_mode,
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
    base = k // s
    caps = [base] * s
    for i in range(k - base * s):
        caps[i] += 1
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
        best = None
        size = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            cs = build_coreset(points, points.ids, constraint, zeta, "auto")
            dt = time.perf_counter() - t0
            size = len(cs.ids)
            best = dt if best is None else min(best, dt)
        rows.append({"n": n, "seconds": best, "coreset_size": size})
    return rows


# ---------------------------------------------------------------------------
# property suites behind `detmax verify`
# ---------------------------------------------------------------------------


def _random_cardinality(seed, n, d, k, mode="normal"):
    spec = InstanceSpec("random", n, d, k, {"type": "cardinality", "k": k}, seed,
                        {"coord_mode": mode})
    return random_instance(spec)


def _suite_cauchy_binet(seed):
    rng = np.random.default_rng(seed)
    for trial in range(60):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d + 1, 11))
        k = int(rng.integers(d, min(6, n) + 1))
        points, _ = _random_cardinality(1000 + trial, n, d, k)
        sel = sorted(rng.choice(points.ids, size=k, replace=False).tolist())
        direct = mu(points, sel)
        expanded = mu_cauchy_binet(points, sel)
        if direct == -math.inf or expanded == -math.inf:
            if direct != expanded:
                return False, "finiteness mismatch on trial %d" % trial
        elif abs(direct - expanded) > 1e-8:
            return False, "log gap %.2e on trial %d" % (abs(direct - expanded), trial)
    return True, "60 random selections matched within 1e-8"


def _suite_sandwich(seed):
    rng = np.random.default_rng(seed)
    for trial in range(40):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(d + 2, 10))
        k = int(rng.integers(d, min(6, n) + 1))
        points, _ = _random_cardinality(2000 + trial, n, d, k)
        sel = sorted(rng.choice(points.ids, size=k, replace=False).tolist())
        u = frozenset(rng.choice(points.ids, size=max(1, n // 3), replace=False).tolist())
        profile = WeightProfile(u, 1.01, d, REGIME_HIGHK)
        plain = mu(points, sel)
        weighted = mu_tilde(points, sel, profile)
        enumerated = mu_tilde_by_enumeration(points, sel, profile)
        top = plain + 2 * d * math.log(1.01 * d)
        if weighted != -math.inf and abs(weighted - enumerated) > 1e-8:
            return False, "scaled Gram vs enumeration gap %.2e" % abs(weighted - enumerated)
        if not (plain - 1e-9 <= weighted <= top + 1e-9):
            return False, "sandwich violated on trial %d" % trial
    return True, "40 selections: scaled Gram = enumeration, sandwich holds"


def _suite_exchange(seed):
    worst = 0.0
    for trial in range(20):
        d = 2 + trial % 2
        n = 7
        points, _ = _random_cardinality(3000 + trial, n, d, d)
        opt = local_opt(points, points.ids, d, 1.01)
        if opt.degenerate:
            continue
        uset = set(opt.ids)
        for w in combinations(sorted(points.ids), d):
            base = nu(points, w) + opt.value
            if base == -math.inf:
                continue
            for e in w:
                if e in uset:
                    continue
                rhs = [
                    nu(points, sorted(set(w) - {e} | {j})) + nu(points, sorted(uset - {j} | {e}))
                    for j in uset - set(w)
                ]
                bound = math.log(d) + logsumexp(rhs)
                worst = max(worst, base - bound)
                if base > bound + 1e-9:
                    return False, "exchange inequality violated by %.2e" % (base - bound)
    return True, "pairwise exchange inequality held (worst slack %.1e)" % worst


def _suite_smart_exchange(seed):
    rng = np.random.default_rng(seed)
    for trial in range(8):
        d, k, k_v = 2, 4, 3
        n = 10
        points, constraint = _random_cardinality(4000 + trial, n, d, k)
        v = sorted(rng.choice(points.ids, size=7, replace=False).tolist())
        peel = peeling_coreset(points, v, k_v, d, 1.01)
        profile = WeightProfile(peel.union, 1.01, d, REGIME_HIGHK)
        for sel in combinations(sorted(points.ids), k):
            sset = set(sel)
            if len(sset & set(v)) > k_v:
                continue
            eligible = (sset & set(v)) - peel.union
            for e in sorted(eligible):
                f = find_value_preserving_exchange(points, sel, e, peel, profile)
                before = mu_tilde(points, sorted(sel), profile)
                after = mu_tilde(points, sorted(sset - {e} | {f}), profile)
                if f in sset - {e}:
                    return False, "returned f already in S"
                if after < before - 1e-9:
                    return False, "mu_tilde dropped by %.2e" % (before - after)
    return True, "exchanges kept mu_tilde non-decreasing on 8 exhaustive instances"


def _suite_sizes(seed):
    rng = np.random.default_rng(seed)
    for trial in range(30):
        d = int(rng.integers(2, 5))
        s = int(rng.integers(1, 4))
        caps = [int(rng.integers(1, 4)) for _ in range(s)]
        k = sum(caps)
        n = int(rng.integers(max(k, d) + 2, max(k, d) + 12))
        spec = InstanceSpec(
            "random", n, d, k, {"type": "partition", "caps": caps}, 5000 + trial
        )
        points, constraint = random_instance(spec)
        cs = build_coreset(points, points.ids, constraint, 1.01, "auto")
        if cs.regime == REGIME_LOWK and len(cs.ids) > s * k:
            return False, "lowk size %d exceeded s*k=%d" % (len(cs.ids), s * k)
        if cs.regime == REGIME_HIGHK and len(cs.ids) > k * d:
            return False, "highk size %d exceeded k*d=%d" % (len(cs.ids), k * d)
    return True, "30 partition coresets within declared size bounds"


def _suite_composability(seed):
    ratios = []
    for trial in range(10):
        d = 2 + trial % 2
        s = 1 + trial % 3
        caps = [1 + (trial + j) % 2 for j in range(s)]
        k = sum(caps)
        n = 12
        spec = InstanceSpec(
            "random", n, d, k, {"type": "partition", "caps": caps}, 6000 + trial
        )
        points, constraint = random_instance(spec)
        report = run_distributed(points, constraint, 1 + trial % 3, seed + trial)
        if report.ratio_log is not None:
            ratios.append(report.ratio_log)
    if not ratios:
        return False, "oracle never ran"
    return True, "10 runs within bound; median log ratio %.3e" % float(np.median(ratios))


def _laminar_fixture(seed, n, d):
    points, _ = _random_cardinality(seed, n, d, d)
    ids = sorted(points.ids)
    third = max(2, n // 3)
    inner = ids[:third]
    outer = ids[: 2 * third]
    fam = [(inner, 1), (outer, 2), (ids[2 * third :], 1)]
    constraint = LaminarConstraint([f for f in fam if f[0]], points.ids)
    return points, constraint


def _suite_laminar(seed):
    for trial in range(5):
        points, constraint = _laminar_fixture(7000 + trial, 9, 2)
        k = constraint.rank
        if k > points.dim:
            cs = laminar_coreset(points, points.ids, constraint, points.dim, 1.01)
        else:
            cs = laminar_coreset(points, points.ids, constraint, k, 1.01)
        profile = WeightProfile(cs.ids, 1.01, cs.ell, REGIME_HIGHK)
        for base in enumerate_bases(constraint, points):
            outside = [e for e in base if e not in cs.ids]
            for e in outside:
                f = find_laminar_exchange(points, base, e, cs, profile)
                swapped = sorted(set(base) - {e} | {f})
                if not is_base(constraint, swapped):
                    return False, "exchange broke feasibility on trial %d" % trial
                if mu_tilde(points, swapped, profile) < mu_tilde(points, sorted(base), profile) - 1e-9:
                    return False, "exchange dropped mu_tilde on trial %d" % trial
    return True, "laminar exchanges preserved bases on 5 instances"


def _suite_lower_bounds(seed):
    # low-rank family at M=100: dropping the right vector costs M**2
    m_scale = 100.0
    v, vp, constraint = lb_low_dim_instance(2, (1, 1), 2, m_scale)
    worst_over_subsets = -math.inf
    for drop in v.ids:
        kept = [pid for pid in v.ids if pid != drop]
        best_for_adversary = math.inf
        for probe, perm in [(p, pi) for p in range(2) for pi in permutations(range(2))]:
            _, vp2, cons2 = lb_low_dim_instance(2, (1, 1), 2, m_scale, probe, perm)
            union = merge_pointsets(v.restrict(kept), vp2)
            opt_u = brute_force_opt(union, cons2).log_value
            opt_v = brute_force_opt(merge_pointsets(v, vp2), cons2).log_value
            best_for_adversary = min(best_for_adversary, opt_u - opt_v)
        worst_over_subsets = max(worst_over_subsets, best_for_adversary)
    if worst_over_subsets > -2 * math.log(m_scale) + math.log(1 + 1e-6):
        return False, "some size-3 subset survived the adversary"
    # high-rank family
    v, vp, constraint = lb_high_dim_instance(3, 2, (100.0, 10.0, 1.0), 1e5)
    whole = merge_pointsets(v, vp)
    full = brute_force_opt(whole, constraint).log_value
    trunc = [pid for pid in whole.ids if pid != 0]
    part = brute_force_opt(whole.restrict(trunc), constraint).log_value
    need = 2 * math.log(100.0 / 1.0) - math.log(math.comb(3, 2))
    if full - part < need - 1e-9:
        return False, "high-rank drop lost only %.3f (needed %.3f)" % (full - part, need)
    return True, "both adversarial families reproduce the predicted loss"


def _suite_hard_input(seed):
    inst = hard_instance(4, 0.0117, 8, seed, M=1000.0, g_cap=5)
    dots = inst.g_vectors @ inst.g_vectors.T
    off = np.abs(dots - np.diag(np.diag(dots))).max()
    if off > inst.tau + 1e-12:
        return False, "pairwise dot %.4f exceeded tau %.4f" % (off, inst.tau)
    eye_gap = np.abs(inst.rotation.T @ inst.rotation - np.eye(4)).max()
    if eye_gap > 1e-12:
        return False, "rotation not orthogonal (gap %.2e)" % eye_gap
    planted = mu(inst.combined, inst.planted_set)
    if planted < inst.planted_log_value - 1e-9:
        return False, "planted selection fell below its guaranteed value"
    excluded = [pid for pid in inst.combined.ids if pid not in inst.planted_ids]
    best = brute_force_opt(
        inst.combined.restrict(excluded), inst.constraint
    ).log_value
    if planted - best < math.log(10.0):
        return False, "planted advantage only %.2f nats" % (planted - best)
    return True, "hard input: geometry checks pass, planted advantage %.1f nats" % (planted - best)


_SUITES = {
    "cauchy-binet": _suite_cauchy_binet,
    "sandwich": _suite_sandwich,
    "exchange": _suite_exchange,
    "smart-exchange": _suite_smart_exchange,
    "sizes": _suite_sizes,
    "composability": _suite_composability,
    "laminar": _suite_laminar,
    "lower-bounds": _suite_lower_bounds,
    "hard-input": _suite_hard_input,
}


def run_suites(name="all", seed=0):
    """Run one named property suite, or all of them; returns result triples."""
    names = list(_SUITES) if name == "all" else [name]
    out = []
    for suite in names:
        if suite not in _SUITES:
            raise PreconditionError("unknown suite %r (have: %s)" % (suite, ", ".join(_SUITES)))
        ok, detail = _SUITES[suite](seed)
        out.append((suite, ok, detail))
    return out


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _dump_json(doc, path):
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _int_list(text):
    return [int(x) for x in text.split(",") if x.strip() != ""]


def _float_list(text):
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _cmd_gen(args):
    if args.generator == "random":
        if args.constraint == "cardinality":
            cdoc = {"type": "cardinality", "k": args.k}
        elif args.constraint == "partition":
            if not args.caps:
                raise PreconditionError("partition generation needs --caps")
            cdoc = {"type": "partition", "caps": _int_list(args.caps)}
        elif args.constraint == "laminar":
            if not args.laminar_sets:
                raise PreconditionError("laminar generation needs --laminar-sets JSON")
            cdoc = {"type": "laminar", "sets": json.loads(args.laminar_sets)}
        else:
            raise PreconditionError("unknown constraint kind %r" % (args.constraint,))
        k = args.k if args.constraint == "cardinality" else None
        spec = InstanceSpec(
            "random", args.n, args.d, k or sum(_int_list(args.caps or "0")) or args.k,
            cdoc, args.seed, {"coord_mode": args.coord_mode},
        )
        points, constraint = random_instance(spec)
        doc = instance_to_json(points, constraint, {"generator": "random", "spec": spec.to_json()})
    elif args.generator == "lb-low-dim":
        caps = tuple(_int_list(args.caps))
        perm = tuple(_int_list(args.perm)) if args.perm else None
        v, vp, constraint = lb_low_dim_instance(
            len(caps), caps, args.d, args.M, args.probe, perm
        )
        doc = instance_to_json(
            merge_pointsets(v, vp),
            constraint,
            {
                "generator": "lb-low-dim",
                "params": {"caps": list(caps), "d": args.d, "M": args.M,
                           "probe": args.probe, "perm": list(perm) if perm else None},
                "v_ids": sorted(v.ids),
                "adversary_ids": sorted(vp.ids),
            },
        )
    elif args.generator == "lb-high-dim":
        ms = tuple(_float_list(args.Ms))
        v, vp, constraint = lb_high_dim_instance(args.k, args.d, ms, args.M, args.probe)
        doc = instance_to_json(
            merge_pointsets(v, vp),
            constraint,
            {
                "generator": "lb-high-dim",
                "params": {"k": args.k, "d": args.d, "Ms": list(ms), "M": args.M,
                           "probe": args.probe},
                "v_ids": sorted(v.ids),
                "adversary_ids": sorted(vp.ids),
            },
        )
    elif args.generator == "hard":
        inst = hard_instance(args.d, args.beta, args.k, args.seed, args.M, args.g_cap)
        doc = instance_to_json(
            inst.combined,
            inst.constraint,
            {
                "generator": "hard",
                "params": dict(inst.params),
                "planted_ids": sorted(inst.planted_ids),
                "axis_ids": sorted(inst.axis_ids),
                "tau": inst.tau,
                "m": inst.m,
                "t": inst.t,
                "planted_log_value": inst.planted_log_value,
            },
        )
    else:
        raise PreconditionError("unknown generator %r" % (args.generator,))
    _dump_json(doc, args.out)
    return 0


def _cmd_coreset(args):
    points, constraint, _ = load_instance(_load_json(args.instance))
    cs = build_coreset(points, points.ids, constraint, args.zeta, args.regime)
    _dump_json(coreset_to_json(cs), args.out)
    for w in cs.warnings:
        print("warning: %s" % w, file=sys.stderr)
    return 0


def _cmd_solve(args):
    points, constraint, _ = load_instance(_load_json(args.instance))
    if args.coreset:
        ids = coreset_ids_from_json(_load_json(args.coreset))
    else:
        ids = sorted(points.ids)
    result = solve_on_coreset(points, constraint, ids, args.method)
    _dump_json(result.to_json(), args.out)
    return 0 if result.feasible else 3


def _cmd_compose(args):
    parts = [coreset_from_json(_load_json(p)) for p in args.coresets]
    _dump_json(coreset_to_json(compose(parts)), args.out)
    return 0


def _cmd_run(args):
    points, constraint, _ = load_instance(_load_json(args.instance))
    report = run_distributed(
        points,
        constraint,
        args.parts,
        args.seed,
        zeta=args.zeta,
        regime=args.regime,
        split=args.split,
        coreset_mode=args.coreset_mode,
        oracle=args.oracle,
    )
    _dump_json(report.to_json(), args.out)
    if args.csv:
        row = report.csv_row()
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(row))
            writer.writeheader()
            writer.writerow(row)
    return 0


def _cmd_bench(args):
    rows = bench_scaling(
        args.d, args.k, _int_list(args.n_list), args.seed, args.s,
        args.zeta, args.repeats,
    )
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["n", "seconds", "coreset_size"])
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    text = buf.getvalue()
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    return 0


def _cmd_verify(args):
    results = run_suites(args.suite, args.seed)
    failed = 0
    for suite, ok, detail in results:
        print("%s %s: %s" % ("PASS" if ok else "FAIL", suite, detail))
        failed += 0 if ok else 1
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="detmax",
        description="composable coresets for constrained determinant maximization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--generator", default="random",
                   choices=["random", "lb-low-dim", "lb-high-dim", "hard"])
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--constraint", default="cardinality",
                   choices=["cardinality", "partition", "laminar"])
    p.add_argument("--caps", default=None, help="comma-separated partition caps")
    p.add_argument("--laminar-sets", default=None,
                   help='JSON like [{"ids": [...], "cap": 2}, ...]')
    p.add_argument("--coord-mode", default="normal", choices=["normal", "grid"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--M", type=float, default=1000.0)
    p.add_argument("--Ms", default="100,10,1", help="comma-separated group scales")
    p.add_argument("--probe", type=int, default=0)
    p.add_argument("--perm", default=None, help="comma-separated slot permutation")
    p.add_argument("--beta", type=float, default=0.0117)
    p.add_argument("--g-cap", type=int, default=10000)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("coreset", help="build a coreset for one machine")
    p.add_argument("--instance", required=True)
    p.add_argument("--zeta", type=float, default=DEFAULT_ZETA)
    p.add_argument("--regime", default="auto", choices=["auto", "lowk", "highk"])
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_coreset)

    p = sub.add_parser("solve", help="solve on an instance or a coreset file")
    p.add_argument("--instance", required=True)
    p.add_argument("--coreset", default=None)
    p.add_argument("--method", default="auto", choices=["auto", "brute", "greedy"])
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("compose", help="union coreset files from disjoint machines")
    p.add_argument("coresets", nargs="+")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("run", help="full distributed pipeline with oracle cross-check")
    p.add_argument("--instance", required=True)
    p.add_argument("--parts", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zeta", type=float, default=DEFAULT_ZETA)
    p.add_argument("--regime", default="auto", choices=["auto", "lowk", "highk"])
    p.add_argument("--split", default="random", choices=["random", "by-group"])
    p.add_argument("--coreset-mode", default="peel", choices=["peel", "full"])
    p.add_argument("--oracle", default="auto", choices=["auto", "skip", "force"])
    p.add_argument("--out", default="-")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="time coreset construction across sizes")
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--n-list", default="1000,10000,100000")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--zeta", type=float, default=DEFAULT_ZETA)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="run randomized property suites")
    p.add_argument("--suite", default="all",
                   choices=["all"] + sorted(_SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        PreconditionError,
        GuardExceededError,
        InstanceFormatError,
        UnknownIdError,
        OSError,
        json.JSONDecodeError,
        UnicodeDecodeError,
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
