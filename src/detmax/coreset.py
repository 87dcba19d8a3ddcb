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
plain objective.

Three constraint shapes are covered:

* cardinality: one peeling run, with threshold k (threshold 1, a single
  local optimum, when k <= d),
* partition: one peeling run per group, with that group's cap as threshold
  (threshold 1 when k <= d),
* laminar: a recursion that peels each maximal family set, and for every
  selected element descends into the largest proper family set around it.

Coreset sizes are checked at construction and a violation raises
InvariantError: s*k in the low-rank regime, k*ell for partitions in the
high-rank regime, (k*ell)**r for laminar families with cover number r.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, PreconditionError
from .geometry import distinct_ids, int_column, is_count
from .localsearch import DEFAULT_ZETA, check_search, local_opt, search
from .matroid import ground_labels, in_ground
from .objective import REGIME_HIGHK, REGIME_LOWK, WeightProfile, mu_tilde


@dataclass(frozen=True)
class PeelingCoreset:
    """Disjoint local-search layers peeled from one working set."""

    source: tuple
    threshold: int
    ell: int
    zeta: float
    layers: tuple

    @property
    def union(self):
        return frozenset().union(*(layer.ids for layer in self.layers))


def _peel(ids, X, threshold, ell, zeta):
    """Peel up to ``threshold`` disjoint local optima out of the rows of X (ids ``ids``, ascending)."""
    alive = np.ones(len(ids), dtype=bool)
    layers = []
    for _ in range(threshold):
        left = np.flatnonzero(alive)
        if not len(left):
            break
        layers.append(search(X[left], ids[left], ell, zeta))
        alive[np.searchsorted(ids, layers[-1].ids)] = False
    pc = PeelingCoreset(tuple(ids.tolist()), threshold, ell, zeta, tuple(layers))
    if len(pc.union) != sum(len(layer.ids) for layer in layers):
        raise InvariantError("peeling layers must be disjoint")
    if len(pc.union) > threshold * ell:
        raise InvariantError("peeling size bound violated")
    return pc


def peeling_coreset(points, V, threshold, ell, zeta=DEFAULT_ZETA):
    """Peel up to ``threshold`` disjoint local optima out of V.

    Stops early once V is exhausted; the theoretical size bound
    threshold*ell is checked either way.  Layers whose working set had
    deficient rank come back flagged degenerate but still count as layers.
    """
    if not is_count(threshold, 1):
        raise PreconditionError("threshold must be a positive int, got %r" % (threshold,))
    check_search(points.dim, ell, zeta)
    ids = distinct_ids(V)
    return _peel(ids, points.rows(ids), threshold, ell, zeta)


@dataclass(frozen=True)
class LaminarNodeCoreset:
    """Coreset of one family set: peeled layers plus recursed child nodes.

    ``removed`` holds, per layer, the full id-set deleted from the working
    set after that layer: the layer's own loose elements plus every child
    family set a layer element belonged to (the whole set, not just its
    part inside V, because the exchange argument needs selections to avoid
    those sets globally).
    """

    set_ids: frozenset
    cap: int
    layers: tuple
    removed: tuple
    children: tuple

    def layer_ids(self):
        """Layer id tuples of this node, then of each child subtree in order."""
        out = [layer.ids for layer in self.layers]
        for child in self.children:
            out.extend(child.layer_ids())
        return out

    def collect_ids(self):
        return set().union(*self.layer_ids())


@dataclass(frozen=True)
class CoresetResult:
    """A finished coreset: the ids plus enough structure to replay exchanges.

    ``layers`` holds every local-search layer in construction order, each a
    sorted id tuple.  A result read back from JSON keeps its layers but has
    an empty ``structure``, so it can be composed but not replayed.
    """

    ids: frozenset
    kind: str
    regime: str
    source: tuple
    ell: int
    zeta: float
    declared_bound: int
    layers: tuple
    structure: dict
    warnings: tuple = ()

    @property
    def approx_log_factor(self):
        """Log-domain loss guarantee: 2*ell*log(zeta*ell)."""
        return 2.0 * self.ell * math.log(self.zeta * self.ell)

    def layer_lists(self):
        """All local-search layers in construction order, ids sorted."""
        return [list(layer) for layer in self.layers]


def partition_coreset(points, V, constraint, ell, zeta=DEFAULT_ZETA):
    """Coreset for a partition constraint over the working set V.

    Each group's share of V is peeled.  With ell equal to the constraint
    rank k (only possible when k <= dim) the threshold is 1, a single local
    optimum per group, and the size bound is s*k.  With ell < k the
    threshold is the group's own cap and the size bound is k*ell.  A
    cardinality constraint is peeled as its one group, with cap k.  V becomes
    one ascending id array whose rows are looked up once, and each group's
    block of rows is gathered once.
    """
    if constraint.kind not in ("partition", "cardinality"):
        raise PreconditionError("partition_coreset needs a partition constraint")
    k = constraint.rank
    ids = distinct_ids(V)
    labels = ground_labels(constraint, ids)
    if ell > k:
        raise PreconditionError("ell=%d exceeds constraint rank %d" % (ell, k))
    check_search(points.dim, ell, zeta)
    lowk = ell == k
    rows = points.index(ids)
    parts = {}
    for g, cap in enumerate(constraint.caps):
        share = labels == g
        if (lowk or cap) and share.any():
            parts[g] = _peel(ids[share], points.coords[rows[share]], 1 if lowk else cap, ell, zeta)
    layers = [layer for pc in parts.values() for layer in pc.layers]
    chosen = frozenset().union(*(layer.ids for layer in layers))
    bound = len(constraint.caps) * k if lowk else k * ell
    if len(chosen) > bound:
        raise InvariantError("%s coreset size bound violated" % constraint.kind)
    names = ["group %d" % g for g in parts] if constraint.kind == "partition" else ["selection"]
    return CoresetResult(
        ids=chosen,
        kind=constraint.kind,
        regime=REGIME_LOWK if lowk else REGIME_HIGHK,
        source=tuple(ids.tolist()),
        ell=ell,
        zeta=zeta,
        declared_bound=bound,
        layers=tuple(layer.ids for layer in layers),
        structure={"parts": parts},
        warnings=tuple(
            "%s layer %d is degenerate (working set rank below ell)" % (name, i)
            for name, pc in zip(names, parts.values()) for i, layer in enumerate(pc.layers) if layer.degenerate
        ),
    )


def _cover_depth(constraint, i):
    kids = constraint.children_of(i)
    return 1 + (max(_cover_depth(constraint, j) for j in kids) if kids else 0)


def _build_laminar_node(points, vset, constraint, node_idx, ell, zeta, warnings, path):
    members = constraint.set_ids(node_idx)
    cap = constraint.cap_of(node_idx)
    working = vset & members
    layers = []
    removed = []
    child_nodes = {}
    for layer_no in range(cap):
        if not working:
            break
        res = local_opt(points, working, ell, zeta)
        if res.degenerate:
            warnings.append("%s layer %d is degenerate" % (path, layer_no))
        deleted = set()
        for pid in res.ids:
            child = constraint.child_containing(node_idx, pid)
            if child is None:
                deleted.add(pid)
            else:
                deleted |= constraint.set_ids(child)
                if child not in child_nodes:
                    child_nodes[child] = _build_laminar_node(
                        points, vset, constraint, child, ell, zeta, warnings,
                        "%s/set%d" % (path, child),
                    )
        layers.append(res)
        removed.append(frozenset(deleted))
        working = working - deleted
    node = LaminarNodeCoreset(
        set_ids=members,
        cap=cap,
        layers=tuple(layers),
        removed=tuple(removed),
        children=tuple(child_nodes[c] for c in sorted(child_nodes)),
    )
    depth = _cover_depth(constraint, node_idx)
    if len(node.collect_ids()) > (cap * ell) ** depth:
        raise InvariantError("laminar node size bound violated")
    return node


def laminar_coreset(points, V, constraint, ell, zeta=DEFAULT_ZETA):
    """Coreset for a laminar constraint: peel each maximal set, recurse inward.

    Every element of V outside all family sets is always selectable and is
    included verbatim.  Total size is checked against (k*ell)**r where k is
    the constraint rank and r the cover number of the family.
    """
    if constraint.kind != "laminar":
        raise PreconditionError("laminar_coreset needs a laminar constraint")
    vset = in_ground(constraint, distinct_ids(V).tolist())
    warnings = []
    roots = {}
    for i in constraint.roots:
        if vset & constraint.set_ids(i):
            roots[i] = _build_laminar_node(
                points, vset, constraint, i, ell, zeta, warnings, "set%d" % i
            )
    free = sorted(vset & constraint.free_ids)
    ids = set(free)
    for node in roots.values():
        ids.update(node.collect_ids())
    k = constraint.rank
    depth = max((_cover_depth(constraint, i) for i in constraint.roots), default=1)
    bound = (k * ell) ** depth
    # the per-node checks carry the real bound; this one catches accounting bugs
    node_sum = len(free) + sum(
        (constraint.cap_of(i) * ell) ** _cover_depth(constraint, i) for i in constraint.roots
    )
    if len(ids) > max(bound, node_sum):
        raise InvariantError("laminar coreset size bound violated")
    return CoresetResult(
        ids=frozenset(ids),
        kind="laminar",
        regime=REGIME_LOWK if ell == k else REGIME_HIGHK,
        source=tuple(sorted(vset)),
        ell=ell,
        zeta=zeta,
        declared_bound=bound,
        layers=tuple(layer for root in sorted(roots) for layer in roots[root].layer_ids()),
        structure={"roots": roots, "free": tuple(free)},
        warnings=tuple(warnings),
    )


def build_coreset(points, V, constraint, zeta=DEFAULT_ZETA, regime="auto"):
    """Construct the coreset matching the constraint kind and rank regime.

    ``regime`` is "auto" (lowk when rank <= dim, highk otherwise), or an
    explicit "lowk" / "highk"; forcing a regime the rank does not support
    raises PreconditionError.  In the lowk regime the layer size ell is the
    rank itself; in the highk regime it is the dimension.
    """
    k = constraint.rank
    d = points.dim
    if regime == "auto":
        regime = REGIME_LOWK if k <= d else REGIME_HIGHK
    if regime == REGIME_LOWK:
        if k > d:
            raise PreconditionError("lowk regime needs rank <= dim (rank %d, dim %d)" % (k, d))
        ell = k
    elif regime == REGIME_HIGHK:
        if k <= d:
            raise PreconditionError("highk regime needs rank > dim (rank %d, dim %d)" % (k, d))
        ell = d
    else:
        raise PreconditionError("regime must be 'auto', 'lowk', or 'highk', got %r" % (regime,))

    if constraint.kind == "laminar":
        return laminar_coreset(points, V, constraint, ell, zeta)
    if constraint.kind not in ("partition", "cardinality"):
        raise PreconditionError("unsupported constraint kind %r" % (constraint.kind,))
    return partition_coreset(points, V, constraint, ell, zeta)


def compose(coresets):
    """Union per-machine coresets built over pairwise disjoint working sets.

    All inputs must agree on ell, zeta, kind, and regime.  The result keeps
    the machines in the structure so their exchanges can still be replayed.
    """
    parts = list(coresets)
    if not parts:
        raise PreconditionError("compose needs at least one coreset")
    first = parts[0]
    for cs in parts:
        if (cs.ell, cs.zeta, cs.kind, cs.regime) != (first.ell, first.zeta, first.kind, first.regime):
            raise PreconditionError("compose: coresets disagree on (ell, zeta, kind, regime)")
    source = np.concatenate([np.fromiter(cs.source, np.int64, len(cs.source)) for cs in parts])
    source.sort()
    shared = source[1:][source[1:] == source[:-1]]
    if len(shared):
        raise PreconditionError("compose: working sets overlap (id %d appears twice)" % shared[0])
    ids = frozenset().union(*(cs.ids for cs in parts))
    return CoresetResult(
        ids=ids,
        kind="composed",
        regime=first.regime,
        source=tuple(source.tolist()),
        ell=first.ell,
        zeta=first.zeta,
        declared_bound=sum(cs.declared_bound for cs in parts),
        layers=tuple(layer for cs in parts for layer in cs.layers),
        structure={"machines": tuple(parts)},
        warnings=tuple(w for cs in parts for w in cs.warnings),
    )


def _default_profile(union_ids, zeta, ell):
    return WeightProfile(frozenset(union_ids), zeta, ell, REGIME_HIGHK)


def _best_replacement(points, sel, e, layers, blocks, profile, exhausted):
    """Best f for e out of the first layer whose block (the id-set paired
    with it in ``blocks``) S misses: the f maximizing mu_tilde(S - e + f),
    smallest id on ties.  ``exhausted`` is the error when S meets every block.
    """
    for layer, block in zip(layers, blocks):
        if not (sel & block):
            break
    else:
        raise PreconditionError(exhausted)
    base = sorted(sel - {e})
    return max(sorted(layer.ids), key=lambda f: mu_tilde(points, base + [f], profile))


def find_value_preserving_exchange(points, S, e, peeling, profile=None):
    """Replacement for e out of the first peeled layer that S misses.

    Preconditions: e is in S and in the peeling's working set V but not in
    its union U, and |S cap V| <= threshold.  Then some layer is disjoint
    from S (the layers are disjoint and S spends one of its <= threshold
    intersections on e itself), and the smallest-index such layer contains
    an f with mu_tilde(S - e + f) >= mu_tilde(S); the returned f maximizes
    mu_tilde over that layer, smallest id on ties.
    """
    sel = frozenset(S)
    if e not in sel:
        raise PreconditionError("element %r is not in S" % (e,))
    vset = set(peeling.source)
    if e not in vset:
        raise PreconditionError("element %r is not in the peeling working set" % (e,))
    if e in peeling.union:
        raise PreconditionError("element %r is already in the coreset union" % (e,))
    if len(sel & vset) > peeling.threshold:
        raise PreconditionError(
            "S meets the working set in %d > threshold %d elements"
            % (len(sel & vset), peeling.threshold)
        )
    if profile is None:
        profile = _default_profile(peeling.union, peeling.zeta, peeling.ell)
    return _best_replacement(
        points, sel, e, peeling.layers, [layer.id_set for layer in peeling.layers], profile,
        "no layer is disjoint from S; exchange hypothesis violated",
    )


def _node_containing(nodes, e):
    return next((node for node in nodes if e in node.set_ids), None)


def find_laminar_exchange(points, S, e, result, profile=None):
    """Replacement for e inside a laminar coreset, preserving feasibility.

    ``result`` must come from :func:`laminar_coreset`.  Walking from the
    maximal family set containing e: if e sits inside a removed block of
    some layer, descend into the child set that swallowed it; otherwise
    every one of the cap layers ran, their removed blocks are disjoint
    subsets of the family set, and a feasible S (at most cap elements in
    the set, one of them e outside all blocks) must miss some block
    entirely.  Any f from that block's layer keeps mu_tilde from dropping,
    and S - e + f stays feasible because every family set around f inside
    this one lies inside the untouched block.
    """
    if result.kind != "laminar":
        raise PreconditionError("find_laminar_exchange needs a laminar CoresetResult")
    sel = frozenset(S)
    if e not in sel:
        raise PreconditionError("element %r is not in S" % (e,))
    if e not in set(result.source):
        raise PreconditionError("element %r is not in the coreset working set" % (e,))
    if e in result.ids:
        raise PreconditionError("element %r is already in the coreset" % (e,))
    node = _node_containing(result.structure["roots"].values(), e)
    if node is None:
        raise PreconditionError(
            "element %r is outside every family set, so it is always kept" % (e,)
        )
    if profile is None:
        profile = _default_profile(result.ids, result.zeta, result.ell)
    while any(e in block for block in node.removed):
        node = _node_containing(node.children, e)
        if node is None:
            raise PreconditionError("inconsistent coreset structure around element %r" % (e,))
    if len(node.layers) < node.cap:
        raise PreconditionError(
            "exchange hypothesis violated: working set exhausted before cap layers"
        )
    return _best_replacement(
        points, sel, e, node.layers, node.removed, profile,
        "S meets every removed block of the family set; is S feasible?",
    )


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
        "source": sorted(result.source),
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
        source=tuple(sorted(doc["source"])),
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
