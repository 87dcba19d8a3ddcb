"""Composable coreset constructions and their exchange certificates.

The building block is the peeling construction: run local search on the
working set, set the layer aside, delete it from the working set, and
repeat up to a threshold number of times.  Layers are disjoint by
construction, so any feasible selection that touches the working set in at
most ``threshold`` elements must miss at least one layer entirely; that
missed layer supplies a replacement element whose reweighted objective
``mu_tilde`` does not decrease (see :func:`find_value_preserving_exchange`).
Iterating the replacement walks any selection into the coreset while the
reweighted objective never drops, which is what makes the union of
per-machine coresets lose at most the factor (zeta*ell)**(2*ell) in the
plain objective.  A peeling is the node of one set with no children, so one
walk replays the exchange for peelings and laminar coresets alike.

The rank k and the dimension d fix the construction (see
``objective.regime_of``): local optima have size ell = min(k, d), and two
constraint shapes are covered:

* partition: one peeling run per group, with that group's cap as threshold
  (threshold 1, a single local optimum, when k <= d).  A cardinality
  constraint is the partition of one group with cap k.
* laminar: the same peeling of each maximal family set, where a layer also
  takes every child set it touches out of the working set; each touched
  child set is then peeled the same way, off a work stack in pre-order, so
  the depth of the family does not meet the recursion limit.

Coreset sizes are checked at construction and a violation raises
InvariantError: s*k in the low-rank regime, k*ell for partitions in the
high-rank regime, (k*ell)**r for laminar families with cover number r.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvariantError, PreconditionError
from .geometry import distinct_ids, int_column, is_count
from .localsearch import DEFAULT_ZETA, check_search, gather, search, tier_of
from .localsearch import local_opt  # noqa: F401  bench/layers.py wraps coreset.local_opt; drop both together
from .matroid import cover_number, ground_positions, membership
from .objective import REGIME_HIGHK, REGIME_LOWK, WeightProfile, mu_tilde, regime_of


def _peel(ids, coords, rows, threshold, ell, zeta, child=None):
    """The layers: up to ``threshold`` disjoint local optima peeled out of ``coords[rows]`` (ids ``ids``, ascending).

    The rows are gathered into one block, and each layer masks the rows it
    took.  ``child`` labels each row's child set (-1 for none); a layer then
    also masks every row that shares a label with one of its members.  Each
    layer searches the block's tier (:func:`tier_of`, built once), if any, first.
    """
    cols, norms = gather(coords, rows)
    tier = tier_of(cols, norms, ell)
    alive = np.ones(len(ids), dtype=bool)
    layers = []
    for _ in range(threshold):
        gone = np.flatnonzero(~alive)
        if len(gone) == len(ids):
            break
        layers.append(search(cols, norms, ids, ell, zeta, gone=gone, tier=tier))
        pos = np.searchsorted(ids, layers[-1].ids)
        alive[pos] = False
        if child is not None:
            alive[np.isin(child, child[pos][child[pos] >= 0])] = False
    picked = np.array([pid for layer in layers for pid in layer.ids], dtype=np.int64)
    if len(distinct_ids(picked)) != len(picked):
        raise InvariantError("peeling layers must be disjoint")
    if len(picked) > threshold * ell:
        raise InvariantError("peeling size bound violated")
    return tuple(layers)


@dataclass(frozen=True, eq=False)
class LaminarNodeCoreset:
    """Coreset of one set: its peeled layers plus the nodes of the child sets they touched.

    A peeling is the node of one set V with cap = threshold and no children.
    ``union`` is the ids of the node's own layers.  ``removed`` holds, per
    layer, the ids taken out of the working set after that layer: the
    layer's ids plus every child set it touches (the whole set, not just
    its part inside V, because the exchange argument needs selections to
    avoid those sets globally).  Nodes compare and hash by identity, and the
    repr names no child, so none of them recurses through a deep family.
    """

    set_ids: frozenset
    cap: int
    layers: tuple
    children: tuple

    def __repr__(self):
        return "LaminarNodeCoreset(%d ids, cap %d, %d layers, %d children)" % (
            len(self.set_ids), self.cap, len(self.layers), len(self.children))

    @property
    def union(self):
        return frozenset().union(*(layer.ids for layer in self.layers))

    @property
    def removed(self):
        return tuple(frozenset(layer.ids).union(
            *(child.set_ids for child in self.children if not child.set_ids.isdisjoint(layer.ids)))
            for layer in self.layers)


def peeling_coreset(points, V, threshold, ell, zeta=DEFAULT_ZETA):
    """Peel up to ``threshold`` disjoint local optima out of V: the node of the one set V.

    Stops early once V is exhausted; the theoretical size bound
    threshold*ell is checked either way.  Layers whose working set had
    deficient rank come back flagged degenerate but still count as layers.
    """
    if not is_count(threshold, 1):
        raise PreconditionError("threshold must be a positive int, got %r" % (threshold,))
    check_search(points.dim, ell, zeta)
    ids = distinct_ids(V)
    layers = _peel(ids, points.coords, points.index(ids), threshold, ell, zeta)
    return LaminarNodeCoreset(frozenset(ids.tolist()), threshold, layers, ())


@dataclass(frozen=True)
class CoresetResult:
    """A finished coreset: the ids, the layers, and for a laminar family the tree that replays exchanges.

    ``source_array`` is the working set, a read-only ascending int64 array.
    ``layers`` holds every local-search layer in construction order, each a
    sorted id tuple.  ``structure`` is empty for partition, composed and
    read-back results.
    """

    ids: frozenset
    kind: str
    regime: str
    source_array: np.ndarray
    ell: int
    zeta: float
    declared_bound: int
    layers: tuple
    structure: dict
    warnings: tuple = ()

    def __post_init__(self):
        self.source_array.setflags(write=False)

    def __eq__(self, other):
        """Field by field, the working set by ``np.array_equal`` and laminar nodes by identity."""
        pairs = [(getattr(self, f.name), getattr(other, f.name, None)) for f in fields(self)]
        return isinstance(other, CoresetResult) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    @property
    def approx_log_factor(self):
        """Log-domain loss guarantee: 2*ell*log(zeta*ell)."""
        return 2.0 * self.ell * math.log(self.zeta * self.ell)

    def layer_lists(self):
        """All local-search layers in construction order, ids sorted."""
        return [list(layer) for layer in self.layers]


def partition_coreset(points, V, constraint, zeta=DEFAULT_ZETA):
    """Coreset for a partition constraint over the working set V.

    Each group with a positive cap has its share of V peeled, with ell and
    the regime from :func:`regime_of`.  In the low-rank regime (k <= dim,
    ell = k) the threshold is 1, a single local optimum per group, and the
    size bound is s*k.  In the high-rank regime (ell = dim < k) the
    threshold is the group's own cap and the size bound is k*ell.  A
    cardinality constraint is the partition of one group with cap k.  V
    becomes one ascending id array whose rows are looked up once, and each
    group's block of rows is gathered once and peeled by masking.
    """
    if constraint.kind not in ("partition", "cardinality"):
        raise PreconditionError("partition_coreset needs a partition constraint")
    k = constraint.rank
    ids = distinct_ids(V)
    labels = constraint.ground_labels[ground_positions(constraint, ids)]
    regime, ell = regime_of(k, points.dim)
    check_search(points.dim, ell, zeta)
    lowk = regime == REGIME_LOWK
    rows = points.index(ids)
    parts = {}
    for g, cap in enumerate(constraint.caps):
        at = np.flatnonzero(labels == g) if cap else ()  # a cap-0 group holds no element of any base
        if len(at):
            parts[g] = _peel(ids[at], points.coords, rows[at], 1 if lowk else cap, ell, zeta)
    layers = [layer for part in parts.values() for layer in part]
    chosen = frozenset().union(*(layer.ids for layer in layers))
    bound = len(constraint.caps) * k if lowk else k * ell
    if len(chosen) > bound:
        raise InvariantError("%s coreset size bound violated" % constraint.kind)
    names = ["group %d" % g for g in parts] if constraint.kind == "partition" else ["selection"]
    return CoresetResult(
        ids=chosen,
        kind=constraint.kind,
        regime=regime,
        source_array=ids,
        ell=ell,
        zeta=zeta,
        declared_bound=bound,
        layers=tuple(layer.ids for layer in layers),
        structure={},
        warnings=tuple(
            "%s layer %d is degenerate (working set rank below ell)" % (name, i)
            for name, part in zip(names, parts.values()) for i, layer in enumerate(part) if layer.degenerate
        ),
    )


def laminar_coreset(points, V, constraint, zeta=DEFAULT_ZETA):
    """Coreset for a laminar constraint: peel each maximal set, then each child set a layer touches.

    Each family set is peeled by :func:`_peel`, as a partition group is, with
    its cap as threshold; a layer also takes out every child set it touches.
    A work stack peels each such child right after the layer that first
    touches it, so warnings keep construction order, and the nodes are then
    assembled bottom-up, each checked against (cap*ell)**depth.  Elements of
    V outside every family set are always selectable and kept verbatim.
    Layers have size ell from :func:`regime_of`, and the total size is
    checked against (k*ell)**r, k the rank and r the cover number.
    """
    if constraint.kind != "laminar":
        raise PreconditionError("laminar_coreset needs a laminar constraint")
    k = constraint.rank
    regime, ell = regime_of(k, points.dim)
    ids = distinct_ids(V)
    member, _ = membership(constraint, ids)
    warnings, peeled = [], {}  # peeled[i]: set i's layers and the children they touch
    todo = [(i, "set%d" % i) for i in constraint.roots[::-1] if member[:, i].any()]  # sets to peel and warnings
    while todo:
        entry = todo.pop()
        if isinstance(entry, str):
            warnings.append(entry)
            continue
        i, path = entry
        inside = member[:, i]
        sub = ids[inside]
        kids = np.array(constraint.children_of(i), dtype=np.int64)
        child = member[:, kids][inside] @ (kids + 1) - 1  # the children are disjoint
        cap = constraint.caps[i]
        if cap:  # only a search needs ell >= 1 and the rows; rank 0 gives ell 0
            check_search(points.dim, ell, zeta)
        layers = _peel(sub, points.coords, points.index(sub), cap, ell, zeta, child) if cap else ()
        met, then = [], []
        for layer_no, layer in enumerate(layers):
            if layer.degenerate:
                then.append("%s layer %d is degenerate" % (path, layer_no))
            for j in child[np.searchsorted(sub, layer.ids)].tolist():
                if j >= 0 and j not in met:
                    met.append(j)
                    then.append((j, "%s/set%d" % (path, j)))
        peeled[i] = layers, sorted(met)
        todo += reversed(then)
    nodes, kept = {}, {}  # kept[i]: the layer ids of set i's subtree, until its parent takes them
    for i, (layers, met) in reversed(peeled.items()):
        nodes[i] = LaminarNodeCoreset(constraint.set_ids(i), constraint.caps[i], layers, tuple(nodes[j] for j in met))
        kept[i] = set().union(*(layer.ids for layer in layers), *(kept.pop(j) for j in met))
        if len(kept[i]) > (constraint.caps[i] * ell) ** constraint.depth[i]:
            raise InvariantError("laminar node size bound violated")
    free = ids[~member.any(1)].tolist()
    chosen = frozenset(free).union(*kept.values())
    bound = (k * ell) ** cover_number(constraint)
    # the per-node checks carry the real bound; this one catches accounting bugs
    node_sum = len(free) + sum((constraint.caps[i] * ell) ** constraint.depth[i] for i in constraint.roots)
    if len(chosen) > max(bound, node_sum):
        raise InvariantError("laminar coreset size bound violated")
    return CoresetResult(
        ids=chosen,
        kind="laminar",
        regime=regime,
        source_array=ids,
        ell=ell,
        zeta=zeta,
        declared_bound=bound,
        layers=tuple(layer.ids for i in constraint.order if i in nodes for layer in nodes[i].layers),
        structure={"roots": {i: nodes[i] for i in constraint.roots if i in nodes}, "free": tuple(free)},
        warnings=tuple(warnings),
    )


def build_coreset(points, V, constraint, zeta=DEFAULT_ZETA):
    """Construct the coreset matching the constraint kind.

    A laminar family is peeled set by set by :func:`laminar_coreset`; partition
    and cardinality constraints are peeled per group by
    :func:`partition_coreset`.  Rank and dimension fix ell and the regime.
    """
    if constraint.kind == "laminar":
        return laminar_coreset(points, V, constraint, zeta)
    return partition_coreset(points, V, constraint, zeta)


def compose(coresets):
    """Union per-machine coresets built over pairwise disjoint working sets.

    All inputs must agree on ell, zeta, kind, and regime.  The result keeps
    the ids, the layers in machine order and the warnings, not the machines.
    """
    parts = list(coresets)
    if not parts:
        raise PreconditionError("compose needs at least one coreset")
    first = parts[0]
    for cs in parts:
        if (cs.ell, cs.zeta, cs.kind, cs.regime) != (first.ell, first.zeta, first.kind, first.regime):
            raise PreconditionError("compose: coresets disagree on (ell, zeta, kind, regime)")
    source = np.sort(np.concatenate([cs.source_array for cs in parts]))
    shared = source[1:][source[1:] == source[:-1]]
    if len(shared):
        raise PreconditionError("compose: working sets overlap (id %d appears twice)" % shared[0])
    ids = frozenset().union(*(cs.ids for cs in parts))
    return CoresetResult(
        ids=ids,
        kind="composed",
        regime=first.regime,
        source_array=source,
        ell=first.ell,
        zeta=first.zeta,
        declared_bound=sum(cs.declared_bound for cs in parts),
        layers=tuple(layer for cs in parts for layer in cs.layers),
        structure={},
        warnings=tuple(w for cs in parts for w in cs.warnings),
    )


def _exchange(points, S, e, working_set, ids, node, profile):
    """The exchange step: the best stand-in f for e from the first layer of e's node whose block S misses.

    ``ids`` is the coreset and ``node`` the top node around e.  The walk
    descends while e lies in a child's set.  That node's layers are disjoint,
    each block (see ``removed``) holds its layer and the child sets it
    touched, and e lies in none of them.  So a selection with at most cap
    elements in the node's set, one of them e, misses a block entirely once
    all cap layers ran, and f from that block's layer keeps mu_tilde from
    dropping (and S - e + f feasible, since every set around f inside this
    one lies in the untouched block).  f maximizes mu_tilde(S - e + f) over
    the layer, smallest id on ties.  The default profile boosts ``ids``.
    """
    sel = frozenset(S)
    if e not in sel:
        raise PreconditionError("element %r is not in S" % (e,))
    if e not in working_set:
        raise PreconditionError("element %r is not in the coreset working set" % (e,))
    if e in ids:
        raise PreconditionError("element %r is already in the coreset" % (e,))
    if node is None:
        raise PreconditionError("element %r is outside every family set, so it is always kept" % (e,))
    while (inner := next((c for c in node.children if e in c.set_ids), None)) is not None:
        node = inner
    if len(sel & node.set_ids) > node.cap:
        raise PreconditionError("S meets the set around element %r in %d > cap %d elements"
                                % (e, len(sel & node.set_ids), node.cap))
    if len(node.layers) < node.cap:
        raise PreconditionError("exchange hypothesis violated: working set exhausted before cap layers")
    layer = next((layer for layer, block in zip(node.layers, node.removed) if sel.isdisjoint(block)), None)
    if layer is None:
        raise PreconditionError("S meets every layer's block; exchange hypothesis violated")
    if profile is None:
        profile = WeightProfile(ids, layer.zeta, layer.ell, REGIME_HIGHK)
    base = sorted(sel - {e})
    return max(layer.ids, key=lambda f: mu_tilde(points, base + [f], profile))


def find_value_preserving_exchange(points, S, e, peeling, profile=None):
    """Replacement for e out of the first peeled layer that S misses.

    ``peeling`` is a :func:`peeling_coreset` node.  Preconditions: e is in S
    and in the peeling's working set V but not in its union U, and
    |S cap V| <= threshold.  Then some layer is disjoint from S, and it holds
    an f with mu_tilde(S - e + f) >= mu_tilde(S) (see :func:`_exchange`).
    """
    return _exchange(points, S, e, peeling.set_ids, peeling.union, peeling, profile)


def find_laminar_exchange(points, S, e, result, profile=None):
    """Replacement for e inside a laminar coreset, preserving feasibility.

    ``result`` must come from :func:`laminar_coreset`.  The walk starts at
    the maximal family set containing e (see :func:`_exchange`); a feasible
    S meets every set in at most its cap elements.
    """
    if result.kind != "laminar":
        raise PreconditionError("find_laminar_exchange needs a laminar CoresetResult")
    root = next((node for node in result.structure["roots"].values() if e in node.set_ids), None)
    return _exchange(points, S, e, result.source_array, result.ids, root, profile)


def coreset_to_json(result):
    """Serialize a CoresetResult to the interchange schema."""
    return {
        "kind": result.kind,
        "regime": result.regime,
        "ids": sorted(result.ids),
        "layers": result.layer_lists(),
        "declared_bound": result.declared_bound,
        "zeta": result.zeta,
        "ell": result.ell,
        "source": result.source_array.tolist(),
    }


def _is_id_list(value):
    return isinstance(value, list) and int_column(value)[1] == len(value)


# every field coreset_to_json writes -> (check, what the check wants)
_JSON_FIELDS = {
    "kind": (lambda v: v in ("cardinality", "partition", "laminar", "composed"), "a coreset kind"),
    "regime": (lambda v: v in (REGIME_LOWK, REGIME_HIGHK), "'lowk' or 'highk'"),
    "ids": (_is_id_list, "a list of non-negative int ids"),
    "source": (_is_id_list, "a list of non-negative int ids"),
    "layers": (lambda v: isinstance(v, list) and all(map(_is_id_list, v)), "a list of id lists"),
    "declared_bound": (is_count, "a non-negative int"),
    "ell": (lambda v: is_count(v, 1), "a positive int"),
    "zeta": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and v >= 1.0,
             "a number >= 1"),
}


def coreset_from_json(doc):
    """Read a coreset document back into a composable CoresetResult.

    Every field of :func:`coreset_to_json` is required and checked.  The
    exchange structure is not serialized, so ``structure`` comes back empty.
    """
    if not isinstance(doc, dict):
        raise PreconditionError("coreset document must be a JSON object")
    for key, (ok, want) in _JSON_FIELDS.items():
        if key not in doc:
            raise PreconditionError("coreset document missing %r field" % key)
        if not ok(doc[key]):
            raise PreconditionError("coreset %s must be %s" % (key, want))
    ids = frozenset(doc["ids"])
    layers = tuple(tuple(layer) for layer in doc["layers"])
    if not ids <= set(doc["source"]) or not all(ids.issuperset(layer) for layer in layers):
        raise PreconditionError("coreset layers must lie in its ids, and its ids in its source")
    return CoresetResult(
        ids=ids,
        kind=doc["kind"],
        regime=doc["regime"],
        source_array=np.sort(int_column(doc["source"])[0]),
        ell=doc["ell"],
        zeta=doc["zeta"],
        declared_bound=doc["declared_bound"],
        layers=layers,
        structure={},
    )


def coreset_ids_from_json(doc):
    """Read back the id list (the part solvers need) from the schema."""
    if not isinstance(doc, dict) or "ids" not in doc:
        raise PreconditionError("coreset document needs an 'ids' list")
    if not _is_id_list(doc["ids"]):
        raise PreconditionError("coreset ids must be a list of non-negative int ids")
    return sorted(doc["ids"])
