"""Instance generators: random, adversarial lower-bound, and hard inputs.

The lower-bound families reproduce the constructions showing that small
coresets cannot be value-preserving:

* ``lb_low_dim_instance`` (k = sum of caps <= d): the base input V holds a
  full standard basis per group.  The adversary picks a probe group and a
  coordinate relabeling, then adds M-scaled basis vectors for every other
  group, arranged so that the best completion needs one specific direction
  from the probe group.  Any coreset of V that dropped that direction loses
  a factor M**2.
* ``lb_high_dim_instance`` (k >= d, caps all 1): group i of V holds the
  basis scaled by Ms[i] with Ms non-increasing.  The adversary serves
  M-scaled axis vectors for every axis except the probe's, so the optimum
  needs the probe axis from one of the first d groups; a coreset that kept
  fewer than d axis directions of group i substitutes at scale Ms[d] and
  loses (Ms[i]/Ms[d])**2 up to a C(k, d) factor.
* ``hard_instance``: near-orthogonal unit vectors are embedded into
  coordinate slices, hidden by one common random rotation, and one planted
  vector per slice is the only way to reach the top axes; local searches
  that miss the planted vectors are capped well below the planted value.

Ids are assigned deterministically (documented per generator) so tests can
address specific vectors.  The same spec or seed always produces the same
instance, bit for bit.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InstanceFormatError, PreconditionError, RejectionSamplingError
from .geometry import UNLABELED, PointSet, load_pointset, merge_pointsets
from .matroid import (
    CardinalityConstraint,
    PartitionConstraint,
    constraint_from_json,
    constraint_to_json,
)

_REJECTION_BUDGET = 100_000


@dataclass(frozen=True)
class InstanceSpec:
    """Reproducible description of a generated instance."""

    generator: str
    n: int
    d: int
    k: int
    constraint: dict
    seed: int
    params: dict = field(default_factory=dict)

    def to_json(self):
        return asdict(self)


def random_instance(spec):
    """Draw a random instance from an InstanceSpec; same spec, same bits.

    Coordinates are standard normal by default; ``params["coord_mode"] =
    "grid"`` draws small integers in [-3, 3] so exact-arithmetic oracles
    apply.  Partition instances label groups round-robin by id.
    """
    if spec.n < spec.k:
        raise PreconditionError("spec has n=%d below k=%d" % (spec.n, spec.k))
    rng = np.random.default_rng(spec.seed)
    mode = spec.params.get("coord_mode", "normal")
    if mode == "normal":
        coords = rng.standard_normal((spec.n, spec.d))
    elif mode == "grid":
        coords = rng.integers(-3, 4, size=(spec.n, spec.d)).astype(float)
    else:
        raise PreconditionError("unknown coord_mode %r" % (mode,))
    ids = np.arange(spec.n)
    if spec.constraint.get("type") == "partition":
        caps = spec.constraint["caps"]
        if not caps:
            raise PreconditionError("partition instance needs at least one group cap, got %r" % (caps,))
        groups = ids % len(caps)
    else:
        groups = np.full(spec.n, UNLABELED)
    points = PointSet.from_arrays(spec.d, ids, coords, groups)
    constraint = constraint_from_json(spec.constraint, points)
    if constraint.rank != spec.k:
        raise PreconditionError(
            "constraint rank %d disagrees with spec k=%d" % (constraint.rank, spec.k)
        )
    return points, constraint


def lb_low_dim_instance(s, caps, d, M, probe_part=0, perm=None):
    """Adversarial pair (V, V') for the low-rank regime (k = sum caps <= d).

    V holds the full standard basis in every group: the point with id
    ``i*d + j`` is e_j in group i.  V' (ids continuing at ``s*d``) is the
    adversary's reply for a given probe group and coordinate relabeling
    ``perm``: every non-probe group j receives caps[j] vectors M * e_a with
    axes ``a`` drawn consecutively from perm[caps[probe]-1 :], so together
    with probe-group vectors on the remaining axes they tile all k axes.

    Returns (V, V', constraint) with one partition constraint spanning both.
    """
    caps = tuple(int(c) for c in caps)
    if len(caps) != s or any(c < 1 for c in caps):
        raise PreconditionError("caps must be %d positive ints, got %r" % (s, caps))
    k = sum(caps)
    if k > d:
        raise PreconditionError("low-rank construction needs sum(caps)=%d <= d=%d" % (k, d))
    if not 0 <= probe_part < s:
        raise PreconditionError("probe_part must be in 0..%d, got %r" % (s - 1, probe_part))
    if perm is None:
        perm = tuple(range(d))
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(d)):
        raise PreconditionError("perm must be a permutation of range(%d)" % d)
    if not M > 1:
        raise PreconditionError("M must exceed 1, got %r" % (M,))
    eye = np.eye(d)
    base_items = [(i * d + j, eye[j], i) for i in range(s) for j in range(d)]
    adv_items = []
    slot = caps[probe_part] - 1
    for j in range(s):
        if j == probe_part:
            continue
        for _ in range(caps[j]):
            adv_items.append((s * d + len(adv_items), M * eye[perm[slot]], j))
            slot += 1
    return _adversarial_pair(d, caps, base_items, adv_items)


def lb_high_dim_instance(k, d, Ms, M, probe=0):
    """Adversarial pair (V, V') for the high-rank regime (k >= d, caps 1).

    Group i of V holds the standard basis scaled by Ms[i]: the point with
    id ``i*d + j`` is Ms[i] * e_j in group i, with Ms non-increasing and
    M above all of them.  V' (ids from ``k*d``) places M * e_t in group t
    for every axis t except the probe's, so only groups can still supply
    axis e_probe.  ``probe`` must name one of the first d groups.
    """
    Ms = tuple(float(v) for v in Ms)
    if len(Ms) != k:
        raise PreconditionError("need one scale per group: len(Ms)=%d, k=%d" % (len(Ms), k))
    if any(Ms[i] < Ms[i + 1] for i in range(k - 1)) or Ms[-1] <= 0:
        raise PreconditionError("Ms must be positive and non-increasing")
    if not M > Ms[0]:
        raise PreconditionError("M=%r must exceed Ms[0]=%r" % (M, Ms[0]))
    if k < d:
        raise PreconditionError("high-rank construction needs k >= d")
    if not 0 <= probe < d:
        raise PreconditionError("probe must name one of the first %d groups, got %r" % (d, probe))
    eye = np.eye(d)
    base_items = [(i * d + j, Ms[i] * eye[j], i) for i in range(k) for j in range(d)]
    axes = [t for t in range(d) if t != probe]
    adv_items = [(k * d + n, M * eye[t], t) for n, t in enumerate(axes)]
    return _adversarial_pair(d, (1,) * k, base_items, adv_items)


def _adversarial_pair(d, caps, base_items, adv_items):
    """(V, V', constraint) from ``(id, coords, group)`` items, one partition spanning both."""
    groups = {pid: g for pid, _, g in base_items + adv_items}
    return PointSet(d, base_items), PointSet(d, adv_items), PartitionConstraint(caps, groups)


@dataclass(frozen=True)
class HardInstance:
    """Hard distributed input plus the bookkeeping its checks need.

    ``sets`` are the per-machine point sets (slice sets first, then axis
    sets), ``combined`` their union, ``planted_ids`` the ids whose removal
    caps every coreset well below ``planted_log_value``.
    """

    sets: tuple
    combined: object
    constraint: object
    rotation: np.ndarray
    g_vectors: np.ndarray
    pi_indices: tuple
    planted_ids: tuple
    axis_ids: tuple
    m: int
    t: int
    tau: float
    params: dict

    @property
    def planted_set(self):
        """Ids of the planted optimum: all axis vectors plus planted slice copies."""
        return tuple(sorted(self.planted_ids + self.axis_ids))

    @property
    def planted_log_value(self):
        """Value the planted selection is guaranteed to reach: t**d * M**(2m)."""
        return self.params["d"] * math.log(self.t) + 2 * self.m * math.log(self.params["M"])


def _completion_basis(p):
    """Orthonormal basis of R^len(p) whose first vector is the unit vector p."""
    mm = p.shape[0]
    a = np.zeros((mm, mm))
    a[:, 0] = p
    a[:, 1:] = np.eye(mm)[:, : mm - 1]
    return _signed_q(a)


def _random_rotation(rng, n):
    """Haar-ish random orthogonal matrix (QR of a Gaussian, signs fixed)."""
    return _signed_q(rng.standard_normal((n, n)))


def _signed_q(a):
    """The Q of a's QR factorization, columns flipped so that R's diagonal is non-negative."""
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _regular_simplex(dim):
    """dim+1 unit vectors in R^dim with every pairwise dot exactly -1/dim."""
    n = dim + 1
    centered = np.eye(n) - np.full((n, n), 1.0 / n)
    u, s, _ = np.linalg.svd(centered)
    coords = u[:, :dim] * s[:dim]
    return coords / np.linalg.norm(coords, axis=1, keepdims=True)


_STALL_LIMIT = 10_000


def _near_orthogonal_family(rng, dim, target, tau):
    """Sample ``target`` unit vectors in R^dim with pairwise |dot| <= tau.

    Greedy rejection sampling corners itself when target == dim + 1: a
    typical near-orthonormal frame of dim accepted vectors leaves no room
    for one more, even though a regular simplex (pairwise dot -1/dim) fits.
    After a stall we therefore fall back to a randomly rotated simplex,
    valid whenever tau >= 1/dim.
    """
    kept = []
    attempts = 0
    since_last = 0
    while len(kept) < target and attempts < _REJECTION_BUDGET and since_last < _STALL_LIMIT:
        attempts += 1
        since_last += 1
        v = rng.standard_normal(dim)
        norm = float(np.linalg.norm(v))
        if norm < 1e-12:
            continue
        v /= norm
        if all(abs(float(np.dot(v, p))) <= tau for p in kept):
            kept.append(v)
            since_last = 0
    if len(kept) == target:
        return np.array(kept)
    if target <= dim + 1 and tau >= 1.0 / dim:
        simplex = _regular_simplex(dim)
        return (simplex @ _random_rotation(rng, dim).T)[:target]
    raise RejectionSamplingError(
        "found %d of %d unit vectors in R^%d at tolerance %.4f (%d attempts)"
        % (len(kept), target, dim, tau, attempts)
    )


def hard_instance(d, beta, k, seed, M=1000.0, g_cap=10_000):
    """Distributed input on which any coreset missing a planted vector loses.

    Near-orthogonal unit vectors G (pairwise |dot| <= 4*sqrt(beta)*ln(d)/
    sqrt(d), |G| = min(floor(d**(beta+2)), g_cap)) live in R^(m+1) with
    m = ceil(d / ln d).  Slice i embeds G isometrically into
    span{e_0..e_{m-1}, e_{m+i}} sending one planted vector to e_{m+i}; axis
    machines hold M * e_i for i < m.  Everything is hit by one shared
    random rotation and duplicated t = k/d times with fresh ids.

    Ids run sequentially: slice sets first (copy-major within a slice),
    then axis sets.  Same seed, same instance.
    """
    if not isinstance(d, int) or d < 4:
        raise PreconditionError("hard_instance needs integer d >= 4, got %r" % (d,))
    beta_cap = d / (4.0 * math.log(d) ** 2)
    if not 0 < beta <= beta_cap:
        raise PreconditionError(
            "beta must lie in (0, %.4f] for d=%d, got %r" % (beta_cap, d, beta)
        )
    if not isinstance(k, int) or k < d or k % d != 0:
        raise PreconditionError("k must be a positive multiple of d, got %r" % (k,))
    if not M > 1:
        raise PreconditionError("M must exceed 1, got %r" % (M,))
    m = math.ceil(d / math.log(d))
    if m + 1 > d:
        raise PreconditionError("d=%d leaves no room for slice axes (m=%d)" % (d, m))
    t = k // d
    tau = 4.0 * math.sqrt(beta) * math.log(d) / math.sqrt(d)
    target = min(int(d ** (beta + 2)), int(g_cap))
    if target < 1:
        raise PreconditionError("g_cap must allow at least one vector")
    rng = np.random.default_rng(seed)
    g_vectors = _near_orthogonal_family(rng, m + 1, target, tau)
    slices = d - m
    pis = tuple(int(x) for x in rng.integers(0, target, size=slices))
    rotation = _random_rotation(rng, d)

    sets = []
    planted = []
    next_id = 0
    for i in range(slices):
        basis = _completion_basis(g_vectors[pis[i]])
        # coordinates in `basis`: first -> axis m+i, rest -> axes 0..m-1
        slots = np.zeros((d, m + 1))
        slots[m + i, 0] = 1.0
        for j in range(m):
            slots[j, j + 1] = 1.0
        embed = slots @ basis.T
        vecs = (g_vectors @ embed.T) @ rotation.T
        ids = next_id + np.arange(t * target)
        planted += ids[pis[i] :: target].tolist()
        sets.append(PointSet.from_arrays(d, ids, np.tile(vecs, (t, 1)), np.full(len(ids), UNLABELED)))
        next_id += len(ids)
    axis_ids = []
    for i in range(m):
        ids = next_id + np.arange(t)
        axis_ids += ids.tolist()
        sets.append(PointSet.from_arrays(d, ids, np.tile(M * rotation[:, i], (t, 1)), np.full(t, UNLABELED)))
        next_id += t
    combined = merge_pointsets(*sets)
    constraint = CardinalityConstraint(k, combined.ids)
    return HardInstance(
        sets=tuple(sets),
        combined=combined,
        constraint=constraint,
        rotation=rotation,
        g_vectors=g_vectors,
        pi_indices=pis,
        planted_ids=tuple(planted),
        axis_ids=tuple(axis_ids),
        m=m,
        t=t,
        tau=tau,
        params={"d": d, "beta": beta, "k": k, "seed": seed, "M": M, "g_cap": g_cap},
    )


def instance_to_json(points, constraint, meta=None):
    """Assemble the interchange document for a point set plus constraint."""
    groups = [None if g == UNLABELED else g for g in points.labels.tolist()]
    doc = {
        "dim": points.dim,
        "points": [
            {"id": pid, "group": g, "coords": c}
            for pid, g, c in zip(points.ids, groups, points.coords.tolist())
        ],
        "constraint": constraint_to_json(constraint),
    }
    if meta is not None:
        doc["meta"] = meta
    return doc


def load_instance(doc, columns=None):
    """Parse an interchange document into (points, constraint, meta).

    ``columns`` are as for :func:`detmax.geometry.load_pointset`.
    """
    points = load_pointset(doc, columns)
    if "constraint" not in doc:
        raise InstanceFormatError("instance document needs a 'constraint'")
    constraint = constraint_from_json(doc["constraint"], points)
    return points, constraint, doc.get("meta")
