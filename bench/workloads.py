"""Seeded inputs for the benchmark workloads.

Every input is an instance document in the JSON schema that ``detmax run``
reads (``dim``, ``points``, ``constraint``).  The same ``--seed`` gives the
same documents; nothing here calls into ``detmax``, so the inputs do not
move when the program under test changes.

An ``Instance`` also carries the facts the checks need, worked out here from
the construction rather than asked of the program: the rank k, the layer
size ell, the per-part size bound, and whether the instance is one of the
adversarial inputs that a known fault in the program gets wrong, with the
points that the fault hides from the program's optima.
"""

import math
from dataclasses import dataclass, field

import numpy as np

ZETA = 1.01  # the library default; the CLI runs with it too
M_PARTS = 2  # run_distributed starts one thread per part; keep it at nproc

# lb-low-dim with M >= 1e7 reports a full optimum of 0.0 instead of 2 ln M:
# the log-det pivot cut (1e-12 * trace / d) calls the M-scaled pivot's
# partner singular, so every base holding the M-scaled point scores -inf and
# both optima come back as if that point were not there.  These instances
# stay in the batch as failed operations.
KNOWN_FAULT = "log-det pivot cut relative to trace/d scores a 1e14 dynamic range as singular"


@dataclass
class Instance:
    name: str
    doc: dict
    X: np.ndarray  # the coordinates in the document, row i for id i
    kind: str
    k: int
    ell: int
    part_bound: int
    oracle: str  # run_distributed's oracle argument
    sets: list = field(default_factory=list)  # laminar (ids, cap), or partition groups as sets
    caps: list = field(default_factory=list)
    known_fault: str = ""
    fault_hides: frozenset = frozenset()  # ids the known fault keeps out of the program's optima

    @property
    def n(self):
        return len(self.doc["points"])

    @property
    def d(self):
        return self.doc["dim"]

    @property
    def regime(self):
        return "lowk" if self.k <= self.d else "highk"

    @property
    def bound_log(self):
        """The paper's composability loss 2*ell*ln(zeta*ell)."""
        return 2.0 * self.ell * math.log(ZETA * self.ell)

    def feasible_mask(self, combos):
        """Rows of ``combos`` (positions into the point list) that are independent."""
        ok = np.ones(len(combos), dtype=bool)
        for members, cap in self.sets_with_caps():
            inside = np.isin(combos, members).sum(axis=1)
            ok &= inside <= cap
        return ok

    def sets_with_caps(self):
        if self.kind == "cardinality":
            return [(np.arange(self.n), self.k)]
        return [(np.asarray(sorted(m)), c) for m, c in zip(self.sets, self.caps)]


def _points(X, groups=None):
    rows = X.tolist()
    return [
        {"id": i, "group": None if groups is None else int(groups[i]), "coords": rows[i]}
        for i in range(len(rows))
    ]


def _partition(name, X, caps, groups=None, oracle="force", known_fault="", fault_hides=()):
    """Partition instance; groups default to round-robin labels by id."""
    n, d = X.shape
    s = len(caps)
    if groups is None:
        groups = [i % s for i in range(n)]
    k = sum(caps)
    ell = k if k <= d else d
    doc = {
        "dim": d,
        "points": _points(X, groups),
        "constraint": {"type": "partition", "caps": list(caps)},
    }
    members = [{i for i in range(n) if groups[i] == g} for g in range(s)]
    return Instance(
        name, doc, X, "partition", k, ell,
        part_bound=s * k if k <= d else k * ell,
        oracle=oracle, sets=members, caps=list(caps), known_fault=known_fault,
        fault_hides=frozenset(fault_hides),
    )


def _cardinality(name, X, k):
    n, d = X.shape
    ell = k if k <= d else d
    doc = {"dim": d, "points": _points(X), "constraint": {"type": "cardinality", "k": k}}
    return Instance(name, doc, X, "cardinality", k, ell,
                    part_bound=k if k <= d else k * ell, oracle="force")


def _laminar(name, X, family):
    """Laminar instance; ``family`` is a list of (id range, cap), no redundant caps."""
    n, d = X.shape
    sets = [set(r) for r, _ in family]
    caps = [c for _, c in family]
    k = _laminar_rank(n, sets, caps)
    ell = k if k <= d else d
    depth = max(sum(1 for s in sets if i in s) for i in range(n))
    doc = {
        "dim": d,
        "points": _points(X),
        "constraint": {"type": "laminar", "sets": [{"ids": sorted(s), "cap": c} for s, c in zip(sets, caps)]},
    }
    return Instance(name, doc, X, "laminar", k, ell, part_bound=(k * ell) ** depth,
                    oracle="force", sets=sets, caps=caps)


def _laminar_rank(n, sets, caps):
    """Matroid greedy over ids: the size of a maximal independent set is the rank."""
    counts = [0] * len(sets)
    taken = 0
    for i in range(n):
        hit = [j for j, s in enumerate(sets) if i in s]
        if all(counts[j] < caps[j] for j in hit):
            for j in hit:
                counts[j] += 1
            taken += 1
    return taken


def highk_gauss_200k(seed, draw):
    """n = 200,000, d = 8, caps (4,4,4): the high-rank regime with ell = 8."""
    rng = np.random.default_rng([seed, 1, draw])
    X = rng.standard_normal((200_000, 8))
    return [_partition("highk-gauss-200k", X, (4, 4, 4), oracle="auto")]


def lowk_cluster_100k(seed, draw):
    """n = 100,000, d = 16, caps (6,5,5): the low-rank regime with ell = 16.

    Points sit around 20 Gaussian centres (centre scale 3, spread 0.3), so
    greedy seeding picks several points near the same centres and local
    search has many swaps to make.
    """
    rng = np.random.default_rng([seed, 2, draw])
    n, d = 100_000, 16
    centres = 3.0 * rng.standard_normal((20, d))
    X = centres[rng.integers(0, 20, n)] + 0.3 * rng.standard_normal((n, d))
    return [_partition("lowk-cluster-100k", X, (6, 5, 5), oracle="auto")]


def _lb_low_dim(M):
    """``detmax gen --generator lb-low-dim --caps 1,1 --d 2 --M M`` (probe 0, identity perm)."""
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [M, 0.0]])
    faulty = M >= 1e7
    return _partition(
        "lb-low-dim-M%.0e" % M, X, (1, 1), groups=[0, 0, 1, 1, 1],
        known_fault=KNOWN_FAULT if faulty else "", fault_hides=(4,) if faulty else (),
    )


def _lb_high_dim():
    """``detmax gen --generator lb-high-dim --k 3 --d 2 --Ms 100,10,1 --M 1000`` (probe 0)."""
    scales = np.repeat([100.0, 10.0, 1.0], 2)[:, None]
    X = np.vstack([scales * np.tile(np.eye(2), (3, 1)), [[0.0, 1000.0]]])
    return _partition("lb-high-dim", X, (1, 1, 1), groups=[0, 0, 1, 1, 2, 2, 1])


def oracle_small(seed, draw):
    """Small instances the brute-force oracle can solve, C(n, k) in 1e4..1e6."""
    rng = np.random.default_rng([seed, 3, draw])

    def gauss(n, d):
        return rng.standard_normal((n, d))

    batch = [
        _cardinality("card-lowk-30", gauss(30, 6), 4),
        _cardinality("card-lowk-24", gauss(24, 8), 5),
        _cardinality("card-highk-26", gauss(26, 2), 4),
        _partition("part-lowk-30", gauss(30, 5), (2, 2)),
        _partition("part-lowk-45", gauss(45, 4), (1, 1, 1)),
        _partition("part-highk-30", gauss(30, 2), (2, 1, 1)),
        _partition("part-highk-30b", gauss(30, 3), (2, 2)),
        _laminar("lam-highk-30", gauss(30, 2), [(range(15), 2), (range(7), 1), (range(15, 30), 2)]),
        _laminar("lam-lowk-40", gauss(40, 5), [(range(20), 2), (range(10), 1), (range(20, 40), 2)]),
        _lb_high_dim(),
    ]
    batch += [_lb_low_dim(M) for M in (1e3, 1e7, 1e10)]
    return batch


# workload -> (generator, draws per run).  A run measures each draw in turn,
# so that its medians average over several inputs drawn from its seed.  On
# lowk-cluster-100k the number of swaps, and with it the pipeline's time,
# moves by about 10% from one draw to the next.
WORKLOADS = {
    "highk-gauss-200k": (highk_gauss_200k, 1),
    "lowk-cluster-100k": (lowk_cluster_100k, 2),
    "oracle-small": (oracle_small, 1),
}


def draws(workload, seed, limit=None):
    """The batches one run measures: draw 0, 1, ... of ``workload`` for ``seed``, at most ``limit``."""
    generate, count = WORKLOADS[workload]
    return [generate(seed, draw) for draw in range(min(count, limit or count))]
