"""The paper's guarantees as seeded property bodies, each written once.

A body takes a seed and returns ``(ok, detail)``: whether the property held
on every instance it drew, and one line saying what was checked.  The
acceptance tests c01-c08 call them with their fixed seeds; ``detmax
verify`` calls them through :func:`run_suites` with the seed it is given.
The same seed draws the same instances, so a body's detail is byte-stable.
"""

import math
from itertools import combinations, permutations

import numpy as np

from .coreset import (
    build_coreset,
    find_laminar_exchange,
    find_value_preserving_exchange,
    peeling_coreset,
)
from .errors import PreconditionError
from .geometry import PointSet, is_count, merge_pointsets
from .harness import run_distributed
from .instances import (
    InstanceSpec,
    hard_instance,
    lb_high_dim_instance,
    lb_low_dim_instance,
    random_instance,
)
from .matroid import LaminarConstraint, PartitionConstraint, cover_number, enumerate_bases, is_base
from .objective import (
    REGIME_HIGHK,
    WeightProfile,
    logsumexp,
    mu,
    mu_cauchy_binet,
    mu_tilde,
    mu_tilde_by_enumeration,
    nu,
    objective_value,
)
from .solver import brute_force_opt

ZETA = 1.01


def _verdict(bad, detail):
    """ok when nothing failed; a failing detail names the first failure."""
    return not bad, detail if not bad else "%s; first: %r" % (detail, bad[0])


def _point_set(rng, n, d, mode="normal"):
    if mode == "grid":
        coords = rng.integers(-1, 2, size=(n, d)).astype(float)
    else:
        coords = rng.standard_normal((n, d))
    return PointSet(d, [(i, coords[i], None) for i in range(n)])


def _random_partition(n, d, caps, seed):
    """Round-robin partition instance; a group with fewer points than its cap lowers the rank."""
    rank = sum(min(cap, len(range(g, n, len(caps)))) for g, cap in enumerate(caps))
    spec = InstanceSpec("random", n, d, rank, {"type": "partition", "caps": caps}, seed)
    return random_instance(spec)


def _random_laminar(rng, n, want_r2=True):
    """Nested/disjoint family over ids 0..n-1 with cover number <= 2."""
    ids = list(range(n))
    a_len = int(rng.integers(4, max(5, n - 2)))
    root_a = ids[:a_len]
    sets = [(root_a, int(rng.integers(2, 4)))]
    if want_r2:
        c_len = int(rng.integers(2, a_len - 1))
        sets.append((root_a[:c_len], int(rng.integers(1, sets[0][1]))))
    if n - a_len >= 2 and rng.random() < 0.7:
        sets.append((ids[a_len : a_len + 2], 1))
    return LaminarConstraint(sets, ids)


def _exchange_failures(points, profile, pairs, exchange, feasible):
    """Exchange e out of S for every (S, e) in ``pairs``.

    ``exchange(S, e)`` names the replacement f.  The exchange fails when
    ``feasible(S, f, new)`` rejects it or it lowers mu_tilde under
    ``profile``.  Returns the number of exchanges and the failures.
    """
    calls, bad = 0, []
    for S, e in pairs:
        f = exchange(S, e)
        calls += 1
        sset = frozenset(S)
        new = (sset - {e}) | {f}
        before = mu_tilde(points, sorted(sset), profile)
        if not feasible(sset, f, new) or mu_tilde(points, sorted(new), profile) < before - 1e-9:
            bad.append((S, e, f))
    return calls, bad


def _exact_scatter_logdet(rows):
    """log det of the sum of x x^T over float64 ``rows``, in exact rational arithmetic.

    -inf when the determinant is exactly 0.  The scatter is PSD, so its
    elimination meets a zero pivot only when it is singular.
    """
    from fractions import Fraction  # here, not at the top: it loads decimal, which runs need not

    vecs = [[Fraction(x) for x in row] for row in rows.tolist()]
    d = rows.shape[1]
    m = [[sum((v[a] * v[b] for v in vecs), Fraction(0)) for b in range(d)] for a in range(d)]
    det = Fraction(1)
    for j in range(d):
        if m[j][j] == 0:
            return -math.inf
        det *= m[j][j]
        for i in range(j + 1, d):
            f = m[i][j] / m[j][j]
            for c in range(j + 1, d):
                m[i][c] -= f * m[j][c]
    return math.log(det.numerator) - math.log(det.denominator)


def cauchy_binet(seed):
    """mu and its Cauchy-Binet sum over d-subsets each match the exact log-det (c01).

    The exact value is taken in rational arithmetic from the same float64
    coordinates; an exactly singular scatter must be -inf on both routes.
    """
    rng = np.random.default_rng(seed)
    worst, singular, bad = {"mu": 0.0, "sum": 0.0}, 0, []
    for trial in range(500):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(d, 7))
        n = int(rng.integers(max(k, d), 11))
        points = _point_set(rng, n, d, "grid" if trial % 5 == 0 else "normal")
        S = sorted(rng.choice(n, size=k, replace=False).tolist())
        exact = _exact_scatter_logdet(points.rows(S))
        singular += exact == -math.inf
        for route, got in (("mu", mu(points, S)), ("sum", mu_cauchy_binet(points, S))):
            if exact == -math.inf or got == -math.inf:
                if got != exact:
                    bad.append(("singular on one side only", trial, route))
            else:
                worst[route] = max(worst[route], abs(got - exact))
    bad += [("worst %s gap above 1e-8" % route, gap) for route, gap in worst.items() if gap > 1e-8]
    return _verdict(bad, "500 instances, worst gap to the exact log-det = %.2e (mu), %.2e "
                    "(sum over d-subsets), %d exactly singular" % (worst["mu"], worst["sum"], singular))


def sandwich(seed):
    """mu <= mu_tilde <= mu + 2d ln(zeta d), and the scaled Gram equals its enumeration."""
    rng = np.random.default_rng(seed)
    for trial in range(40):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(d + 2, 10))
        k = int(rng.integers(d, min(6, n) + 1))
        points, _ = random_instance(
            InstanceSpec("random", n, d, k, {"type": "cardinality", "k": k}, 2000 + trial)
        )
        sel = sorted(rng.choice(points.ids, size=k, replace=False).tolist())
        u = frozenset(rng.choice(points.ids, size=max(1, n // 3), replace=False).tolist())
        profile = WeightProfile(u, ZETA, d, REGIME_HIGHK)
        plain = mu(points, sel)
        weighted = mu_tilde(points, sel, profile)
        enumerated = mu_tilde_by_enumeration(points, sel, profile)
        top = plain + 2 * d * math.log(ZETA * d)
        if weighted != -math.inf and abs(weighted - enumerated) > 1e-8:
            return False, "scaled Gram vs enumeration gap %.2e" % abs(weighted - enumerated)
        if not (plain - 1e-9 <= weighted <= top + 1e-9):
            return False, "sandwich violated on trial %d" % trial
    return True, "40 selections: scaled Gram = enumeration, sandwich holds"


def exchange_inequality(seed):
    """Every zeta-local optimum T satisfies the exchange inequality against every W (c02)."""
    rng = np.random.default_rng(seed)
    log_zeta = math.log(ZETA)
    checks, opts_seen, bad = 0, 0, []
    for trial in range(200):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(d + 2, 9))
        points = _point_set(rng, n, d, "grid" if trial % 4 == 0 else "normal")
        ground = frozenset(range(n))
        table = {frozenset(c): nu(points, c) for c in combinations(range(n), d)}
        # T is a zeta-local optimum when no single swap beats nu(T) + log(zeta)
        local_opts = [
            T for T, base in table.items()
            if base != -math.inf and all(
                table[(T - {e}) | {f}] <= base + log_zeta + 1e-9 for e in T for f in ground - T
            )
        ]
        opts_seen += len(local_opts)
        for T in local_opts:
            for W, nu_w in table.items():
                if nu_w == -math.inf or W == T:
                    continue
                for e in W - T:
                    terms = [table[(W - {e}) | {j}] + table[(T - {j}) | {e}] for j in T - W]
                    lhs, rhs = nu_w + table[T], math.log(d) + logsumexp(terms)
                    checks += 1
                    if lhs > rhs + 1e-9:
                        bad.append((trial, tuple(sorted(T)), tuple(sorted(W)), e, lhs - rhs))
    return _verdict(bad, "%d local optima, %d (T, W, e) checks, %d violations"
                    % (opts_seen, checks, len(bad)))


def value_preserving_exchange(seed):
    """Each S outside a peeling coreset exchanges into it without losing mu_tilde (c03)."""
    rng = np.random.default_rng(seed)
    d = 2
    calls, bad = 0, []
    for trial in range(50):
        k = int(rng.integers(3, 5))
        k_v = int(rng.integers(1, 4))
        n_v = 2 * k_v + 2
        n = min(10, n_v + int(rng.integers(2, 4)))
        n_v = min(n_v, n - 2)
        points = _point_set(rng, n, d, "grid" if trial % 6 == 0 else "normal")
        vset = set(range(n_v))
        peeling = peeling_coreset(points, list(range(n_v)), k_v, d, ZETA)
        pairs = (
            (S, e)
            for S in combinations(range(n), k)
            if len(vset.intersection(S)) <= k_v
            for e in sorted(vset.intersection(S) - peeling.union)
        )
        c, b = _exchange_failures(
            points, WeightProfile(peeling.union, ZETA, d, REGIME_HIGHK), pairs,
            lambda S, e: find_value_preserving_exchange(points, S, e, peeling),
            lambda sset, f, new: f in peeling.union and f not in sset and len(new & vset) <= k_v,
        )
        calls += c
        bad += b
    return _verdict(bad, "%d exhaustive (S, e) exchanges, %d failures" % (calls, len(bad)))


def composability(seed):
    """Composed coresets of random and by-group splits stay within 2 ell ln(zeta ell) (c04)."""
    rng = np.random.default_rng(seed)
    ratios, bad = [], []
    for trial in range(100):
        s = int(rng.integers(1, 4))
        caps = [1] * s
        while sum(caps) < 5 and rng.random() < 0.6:
            caps[int(rng.integers(0, s))] += 1
        d = int(rng.integers(2, 4))
        n = int(rng.integers(max(sum(caps), d) + 2, 15))
        points, constraint = _random_partition(n, d, caps, 1000 + trial)
        res = run_distributed(
            points, constraint, int(rng.integers(1, 4)), seed=trial, zeta=ZETA,
            split="by-group" if trial % 2 else "random", oracle="force",
        )
        ell = min(constraint.rank, d)
        bound = 2 * ell * math.log(ZETA * ell)
        ratio = res.full_value - res.coreset_value
        ratios.append(ratio)
        checked = res.oracle == "brute_force" and abs(res.bound_log - bound) < 1e-12
        if not checked or not -1e-9 <= ratio <= bound + 1e-9:
            bad.append((trial, res.oracle, ratio, bound))
    return _verdict(bad, "%d pipelines, median log-ratio %.3e, max %.3e, %d bound violations"
                    % (len(ratios), float(np.median(ratios)), max(ratios), len(bad)))


def size_bounds(seed):
    """Partition coresets stay within s*k or k*d, laminar ones within (k*ell)^r (c05)."""
    rng = np.random.default_rng(seed)
    bad = []
    for trial in range(200):
        kind = trial % 5
        if kind in (0, 1, 2, 3):  # partition: bound s*k (low rank) or k*d (high)
            label = "lowk" if kind in (0, 1) else "highk"
            d = int(rng.integers(2, 5 if label == "lowk" else 4))
            s = int(rng.integers(1, 4))
            if label == "lowk":
                caps = [1] * s
                while sum(caps) < d and rng.random() < 0.7:
                    caps[int(rng.integers(0, s))] += 1
            else:
                caps = [int(rng.integers(1, 4)) for _ in range(s)]
                while sum(caps) <= d:
                    caps[int(rng.integers(0, s))] += 1
            if kind in (1, 3):
                # the ground set exactly exhausts the caps: group i holds
                # precisely caps[i] points, sometimes one short
                sizes = list(caps)
                if trial % 10 == 3 and max(sizes) > 1:
                    sizes[sizes.index(max(sizes))] -= 1
                labels = [g for g, c in enumerate(sizes) for _ in range(c)]
                points = _point_set(rng, len(labels), d)
                constraint = PartitionConstraint(caps, {pid: labels[pid] for pid in points.ids})
            else:
                n = int(rng.integers(s * max(caps) + 1, s * max(caps) + 12))
                points, constraint = _random_partition(n, d, caps, 7000 + trial)
            k = constraint.rank
            bound = s * k if k <= d else k * d
        else:  # laminar, bound (k * ell)^r
            d = 2
            n = int(rng.integers(8, 15))
            points = _point_set(rng, n, d)
            constraint = _random_laminar(rng, n)
            k = constraint.rank
            bound = (k * min(k, d)) ** cover_number(constraint)
            label = "laminar"
        cs = build_coreset(points, points.ids, constraint, ZETA)
        if not (len(cs.ids) <= cs.declared_bound <= bound):
            bad.append((trial, label, len(cs.ids), cs.declared_bound, bound))
    return _verdict(bad, "200 constructions (incl. caps-exhausting), %d bound violations" % len(bad))


def laminar_exchange(seed):
    """Laminar exchanges into the coreset keep S a base and keep mu_tilde (c06)."""
    rng = np.random.default_rng(seed)
    calls, bad = 0, []
    for trial in range(30):
        n = int(rng.integers(8, 13))
        points = _point_set(rng, n, 2)
        constraint = _random_laminar(rng, n, want_r2=trial % 2 == 0)
        cs = build_coreset(points, points.ids, constraint, ZETA)
        if cs.kind != "laminar":
            bad.append((trial, cs.kind))
            continue
        in_roots = set().union(*(root.set_ids for root in cs.structure["roots"].values()))
        pairs = (
            (S, e)
            for chunk in enumerate_bases(constraint, points)
            for S in map(tuple, chunk.tolist())
            for e in sorted((set(S) - cs.ids) & in_roots)
        )
        c, b = _exchange_failures(
            points, WeightProfile(cs.ids, ZETA, cs.ell, REGIME_HIGHK), pairs,
            lambda S, e: find_laminar_exchange(points, S, e, cs),
            lambda sset, f, new: is_base(constraint, new),
        )
        calls += c
        bad += b
    return _verdict(bad, "%d base exchanges across 30 instances, %d left the matroid"
                    % (calls, len(bad)))


def lower_bounds(seed=None):
    """Both adversarial families cost small coresets what the paper predicts (c07).

    Low rank: some adversary costs every 3-point subset of V a factor M**2,
    but never the constructed coreset.  High rank: dropping the top-scale
    probe vector is ruinous.  Nothing is drawn, so ``seed`` is ignored.
    """
    ok = True
    details = []
    for M in (10.0, 100.0, 1000.0):
        v, _, base_cons = lb_low_dim_instance(2, (1, 1), 2, M)
        adversaries = [
            lb_low_dim_instance(2, (1, 1), 2, M, probe, perm)
            for probe in range(2)
            for perm in permutations(range(2))
        ]
        opt_v = [brute_force_opt(merge_pointsets(v, vp), cons).log_value for _, vp, cons in adversaries]

        def loss(ids):
            """The adversary's best: min over replies of opt(U + V') - opt(V + V')."""
            return min(
                brute_force_opt(merge_pointsets(v.restrict(ids), vp), cons).log_value - full
                for (_, vp, cons), full in zip(adversaries, opt_v)
            )

        worst_small = max(loss(U) for U in combinations(sorted(v.ids), 3))
        cs = build_coreset(v, v.ids, base_cons, ZETA)
        worst_cs = loss(sorted(cs.ids))
        ok = (
            ok
            and worst_small <= -2 * math.log(M) + math.log(1 + 1e-6)
            and len(cs.ids) <= 4
            and worst_cs >= -2 * cs.ell * math.log(2 * cs.ell) - 1e-9
        )
        details.append("M=%g small<=%.2f cs>=%.2f" % (M, worst_small, worst_cs))
    ms = (100.0, 10.0, 1.0)
    v, vp, cons = lb_high_dim_instance(3, 2, ms, 1e5)
    whole = merge_pointsets(v, vp)
    full = brute_force_opt(whole, cons).log_value
    part = brute_force_opt(whole.restrict([p for p in whole.ids if p != 0]), cons).log_value
    need = 2 * math.log(ms[0] / ms[-1]) - math.log(math.comb(3, 2))
    ok = ok and full - part >= need - 1e-9
    return ok, "; ".join(details) + "; high-dim drop penalty %.2f >= %.2f" % (full - part, need)


def hard_input(seed):
    """The planted hard input: near-orthogonal geometry and a planted advantage of ln 10 (c08)."""
    inst = hard_instance(4, 0.0117, 8, seed=seed, M=1000.0, g_cap=5)
    g = inst.g_vectors
    dots = np.abs(g @ g.T - np.eye(len(g)))
    geometry_ok = (
        float(dots.max()) <= inst.tau + 1e-12
        and float(np.abs(np.linalg.norm(g, axis=1) - 1.0).max()) <= 1e-12
    )
    q = inst.rotation
    rotation_ok = float(np.abs(q.T @ q - np.eye(q.shape[0])).max()) <= 1e-12
    planted_val = objective_value(inst.combined, inst.planted_set)
    planted_ok = is_base(inst.constraint, inst.planted_set) and planted_val >= inst.planted_log_value - 1e-9
    survivors = sorted(set(inst.combined.ids) - set(inst.planted_ids))
    margin = planted_val - brute_force_opt(inst.combined.restrict(survivors), inst.constraint).log_value
    ok = geometry_ok and rotation_ok and planted_ok and margin >= math.log(10.0)
    return ok, (
        "max off-diagonal dot %.3f <= tau %.3f, planted beats planted-free optimum by "
        "%.2f nats (need %.2f)" % (dots.max(), inst.tau, margin, math.log(10.0))
    )


SUITES = {
    "cauchy-binet": cauchy_binet,
    "sandwich": sandwich,
    "exchange": exchange_inequality,
    "smart-exchange": value_preserving_exchange,
    "sizes": size_bounds,
    "composability": composability,
    "laminar": laminar_exchange,
    "lower-bounds": lower_bounds,
    "hard-input": hard_input,
}


def run_suites(name="all", seed=0):
    """Run one named property body, or all of them; returns (name, ok, detail) triples.

    A body that raises fails its suite, with the exception's type and message as the detail.
    """
    if not is_count(seed):
        raise PreconditionError("seed must be a non-negative int, got %r" % (seed,))
    if name != "all" and name not in SUITES:
        raise PreconditionError("unknown suite %r (have: %s)" % (name, ", ".join(SUITES)))
    results = []
    for suite in SUITES if name == "all" else [name]:
        try:
            results.append((suite, *SUITES[suite](seed)))
        except Exception as exc:
            results.append((suite, False, "raised %s: %s" % (type(exc).__name__, exc)))
    return results
