import json
import math
from itertools import combinations

import numpy as np
import pytest

from exact_oracles import reference_peel

import detmax.coreset as coreset
import detmax.matroid as matroid
from detmax.geometry import distinct_ids
from detmax.localsearch import check_search
from detmax import (
    CardinalityConstraint,
    DEFAULT_ZETA,
    InstanceSpec,
    LaminarConstraint,
    PartitionConstraint,
    PointSet,
    PreconditionError,
    REGIME_HIGHK,
    REGIME_LOWK,
    UnknownIdError,
    WeightProfile,
    build_coreset,
    compose,
    cover_number,
    coreset_from_json,
    coreset_ids_from_json,
    coreset_to_json,
    enumerate_bases,
    find_laminar_exchange,
    find_value_preserving_exchange,
    is_base,
    is_independent,
    laminar_coreset,
    local_opt,
    mu_tilde,
    partition_coreset,
    random_instance,
    regime_of,
    peeling_coreset,
    verify_local_opt,
)


def _rand_ps(seed, n, d, groups=None):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, d))
    items = []
    for i in range(n):
        g = None if groups is None else groups[i]
        items.append((i, vecs[i], g))
    return PointSet(d, items)


class TestPeeling:
    def test_layers_disjoint_and_bounded(self):
        for seed in range(10):
            ps = _rand_ps(seed, 20, 3)
            peel = peeling_coreset(ps, ps.ids, 4, 3, 1.01)
            seen = set()
            for layer in peel.layers:
                ids = set(layer.ids)
                assert not ids & seen
                seen |= ids
            assert len(peel.union) <= 4 * 3
            assert len(peel.layers) <= 4

    def test_each_layer_locally_optimal_in_residue(self):
        ps = _rand_ps(3, 15, 2)
        peel = peeling_coreset(ps, ps.ids, 3, 2, 1.01)
        remaining = set(ps.ids)
        for layer in peel.layers:
            assert verify_local_opt(ps, sorted(remaining), layer.ids, 1.01) is None
            remaining -= set(layer.ids)

    def test_exhaustion_stops_early(self):
        ps = _rand_ps(4, 5, 2)
        peel = peeling_coreset(ps, ps.ids, 10, 2, 1.01)
        assert len(peel.union) == 5
        assert len(peel.layers) <= 3

    def test_deterministic(self):
        ps = _rand_ps(8, 18, 3)
        a = peeling_coreset(ps, ps.ids, 3, 3, 1.01)
        b = peeling_coreset(ps, ps.ids, 3, 3, 1.01)
        assert [x.ids for x in a.layers] == [x.ids for x in b.layers]

    @pytest.mark.parametrize("threshold", [True, False, 0, 2.0, None])
    def test_threshold_must_be_a_positive_int(self, threshold):
        ps = _rand_ps(9, 6, 2)
        with pytest.raises(PreconditionError, match="threshold must be a positive int"):
            peeling_coreset(ps, ps.ids, threshold, 2)


class TestPartitionCoreset:
    def test_lowk_per_group_bound(self):
        groups = [i % 3 for i in range(24)]
        ps = _rand_ps(11, 24, 4, groups)
        constraint = PartitionConstraint((1, 1, 1), {i: groups[i] for i in range(24)})
        k = constraint.rank  # 3 <= d = 4
        cs = partition_coreset(ps, ps.ids, constraint, 1.01)
        assert cs.regime == REGIME_LOWK
        assert len(cs.ids) <= 3 * k
        assert cs.declared_bound == 3 * k

    def test_highk_per_group_bound(self):
        groups = [i % 2 for i in range(30)]
        ps = _rand_ps(12, 30, 2, groups)
        constraint = PartitionConstraint((2, 2), {i: groups[i] for i in range(30)})
        k = constraint.rank  # 4 > d = 2
        cs = partition_coreset(ps, ps.ids, constraint, 1.01)
        assert cs.regime == REGIME_HIGHK
        assert len(cs.ids) <= k * 2
        # per-group layer structure: at most cap_g layers of <= ell each
        for layer_ids in cs.layer_lists():
            assert len(layer_ids) <= 2

    @pytest.mark.parametrize("k", [2, 6])
    def test_cap_0_groups_are_not_peeled(self, k):
        # no base holds a point of group 1; at k = 2 <= d = 4 (one local
        # optimum per group) its points 9 and 19 once made the coreset
        spec = InstanceSpec("random", 20, 4, k, {"type": "partition", "caps": [k, 0]}, 3)
        ps, constraint = random_instance(spec)[:2]
        cs = partition_coreset(ps, ps.ids, constraint)
        assert {int(constraint.ground_labels[pid]) for pid in cs.ids} == {0}
        assert cs.declared_bound == (2 * k if k <= 4 else k * 4)
        if k == 2:
            assert (sorted(cs.ids), cs.layers) == ([2, 16], ((2, 16),))

    def test_restricted_to_v(self):
        groups = [i % 2 for i in range(20)]
        ps = _rand_ps(14, 20, 2, groups)
        constraint = PartitionConstraint((1, 1), {i: groups[i] for i in range(20)})
        v = list(range(0, 20, 2))
        cs = partition_coreset(ps, v, constraint, 1.01)
        assert set(cs.ids) <= set(v)


class TestBuildCoreset:
    def test_cardinality_lowk_single_local_opt(self):
        ps = _rand_ps(21, 15, 4)
        constraint = CardinalityConstraint(3, ps.ids)
        cs = build_coreset(ps, ps.ids, constraint, 1.01)
        assert cs.regime == REGIME_LOWK
        assert len(cs.ids) <= 3
        assert cs.declared_bound == 3

    def test_cardinality_highk_peeling(self):
        ps = _rand_ps(22, 30, 2)
        constraint = CardinalityConstraint(5, ps.ids)
        cs = build_coreset(ps, ps.ids, constraint, 1.01)
        assert cs.regime == REGIME_HIGHK
        assert len(cs.ids) <= 5 * 2
        assert cs.declared_bound == 5 * 2

    def test_approx_log_factor(self):
        ps = _rand_ps(24, 20, 2)
        constraint = CardinalityConstraint(4, ps.ids)
        cs = build_coreset(ps, ps.ids, constraint, 1.5)
        assert abs(cs.approx_log_factor - 2 * 2 * math.log(1.5 * 2)) < 1e-12

    def test_zeta_validation(self):
        ps = _rand_ps(25, 10, 2)
        constraint = CardinalityConstraint(3, ps.ids)
        with pytest.raises(PreconditionError):
            build_coreset(ps, ps.ids, constraint, 0.9)


class TestCompose:
    def _two_coresets(self):
        groups = [i % 2 for i in range(20)]
        ps = _rand_ps(31, 20, 2, groups)
        constraint = PartitionConstraint((1, 1), {i: groups[i] for i in range(20)})
        a = build_coreset(ps, list(range(10)), constraint, 1.01)
        b = build_coreset(ps, list(range(10, 20)), constraint, 1.01)
        return a, b

    def test_union_and_bound(self):
        a, b = self._two_coresets()
        c = compose([a, b])
        assert set(c.ids) == set(a.ids) | set(b.ids)
        assert c.declared_bound == a.declared_bound + b.declared_bound
        assert c.ell == a.ell and c.zeta == a.zeta

    def test_equality_is_a_bool(self):
        # the working set is a numpy array, compared by value
        a, b = self._two_coresets()
        again, _ = self._two_coresets()
        assert (a == again) is True and (a != b) is True
        assert coreset_from_json(json.loads(json.dumps(coreset_to_json(a)))) == a
        assert compose([a, b]) == compose([again, b]) != compose([b])

    def test_single_passthrough(self):
        a, _ = self._two_coresets()
        c = compose([a])
        assert set(c.ids) == set(a.ids)

    def test_overlapping_sources_rejected(self):
        a, _ = self._two_coresets()
        with pytest.raises(PreconditionError):
            compose([a, a])

    def test_mismatched_zeta_rejected(self):
        groups = [i % 2 for i in range(20)]
        ps = _rand_ps(31, 20, 2, groups)
        constraint = PartitionConstraint((1, 1), {i: groups[i] for i in range(20)})
        a = build_coreset(ps, list(range(10)), constraint, 1.01)
        b = build_coreset(ps, list(range(10, 20)), constraint, 1.5)
        with pytest.raises(PreconditionError):
            compose([a, b])

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            compose([])


class TestValuePreservingExchange:
    def test_exhaustive_non_decreasing(self):
        for seed in range(6):
            ps = _rand_ps(40 + seed, 9, 2)
            v = list(range(6))
            peel = peeling_coreset(ps, v, 2, 2, 1.01)
            profile = WeightProfile(peel.union, 1.01, 2, REGIME_HIGHK)
            for sel in combinations(range(9), 4):
                sset = set(sel)
                if len(sset & set(v)) > 2:
                    continue
                for e in sorted((sset & set(v)) - peel.union):
                    f = find_value_preserving_exchange(ps, sel, e, peel, profile)
                    assert f in peel.union
                    assert f not in sset - {e}
                    before = mu_tilde(ps, sorted(sel), profile)
                    after = mu_tilde(ps, sorted(sset - {e} | {f}), profile)
                    assert after >= before - 1e-9

    def test_requires_eligible_element(self):
        ps = _rand_ps(50, 8, 2)
        v = list(range(6))
        peel = peeling_coreset(ps, v, 2, 2, 1.01)
        inside = sorted(peel.union)[0]
        with pytest.raises(PreconditionError):
            find_value_preserving_exchange(ps, (inside, 6, 7), inside, peel)

    def test_cap_violating_s_rejected(self):
        ps = _rand_ps(51, 9, 2)
        v = list(range(8))
        peel = peeling_coreset(ps, v, 1, 2, 1.01)
        outside = sorted(set(v) - peel.union)
        if len(outside) >= 2:
            sel = tuple(outside[:2])
            with pytest.raises(PreconditionError):
                find_value_preserving_exchange(ps, sel, sel[0], peel)


def test_peeling_is_the_node_of_one_set():
    # one walk serves both exchanges: the peeling of V with threshold t and
    # the laminar coreset of the family {(V, t)} are the same node
    pairs = 0
    for seed in range(6):
        ps = _rand_ps(90 + seed, 9, 2)
        peel = peeling_coreset(ps, ps.ids, 3, 2)
        cs = laminar_coreset(ps, ps.ids, LaminarConstraint([(ps.ids, 3)], ps.ids))
        root = cs.structure["roots"][0]
        assert (root.set_ids, root.cap, root.children) == (peel.set_ids, peel.cap, peel.children)
        assert [layer.ids for layer in root.layers] == [layer.ids for layer in peel.layers]
        assert root.removed == peel.removed == tuple(frozenset(layer.ids) for layer in peel.layers)
        assert cs.ids == peel.union
        for sel in combinations(ps.ids, 3):
            for e in sorted(set(sel) - peel.union):
                f = find_value_preserving_exchange(ps, sel, e, peel)
                assert f == find_laminar_exchange(ps, sel, e, cs) and f in peel.union
                pairs += 1
        sel = sorted(set(ps.ids) - peel.union) + [min(peel.union)]  # four elements of a set with cap 3
        for call in (find_value_preserving_exchange, find_laminar_exchange):
            with pytest.raises(PreconditionError, match="in 4 > cap 3 elements"):
                call(ps, sel, sel[0], peel if call is find_value_preserving_exchange else cs)
    assert pairs == 504


def _chain_points(seed=60):
    return _rand_ps(seed, 10, 2)


def _chain_constraint():
    inner = [0, 1, 2, 3]
    outer = list(range(8))
    return LaminarConstraint([(inner, 1), (outer, 2)], range(10))


class TestLaminarCoreset:
    def test_structure_and_bound(self):
        ps = _chain_points()
        c = _chain_constraint()
        cs = laminar_coreset(ps, ps.ids, c, 1.01)
        k, ell, r = c.rank, 2, 2
        assert len(cs.ids) <= (k * ell) ** r
        assert cs.declared_bound == (k * ell) ** r
        # free elements ride along untouched
        assert {8, 9} <= set(cs.ids)
        assert set(cs.ids) <= set(ps.ids)

    def test_removed_blocks_are_family_sets_or_id_lists(self):
        ps = _chain_points()
        c = _chain_constraint()
        cs = laminar_coreset(ps, ps.ids, c, 1.01)
        root = c.roots[0] if c.caps[c.roots[0]] == 2 else c.roots[1]
        node = cs.structure["roots"][root]
        assert node.cap == c.caps[root]
        assert len(node.layers) <= node.cap
        # removed blocks swallow entire child family sets, so base
        # preservation can reason about elements outside V as well
        for block in node.removed:
            for pid in block:
                child = next((j for j in c.children_of(root) if pid in c.set_ids(j)), None)
                if child is not None:
                    assert c.set_ids(child) <= block

    def test_exchange_preserves_bases(self):
        ps = _chain_points()
        c = _chain_constraint()
        cs = laminar_coreset(ps, ps.ids, c, 1.01)
        profile = WeightProfile(cs.ids, 1.01, 2, REGIME_HIGHK)
        checked = 0
        for base in (b for chunk in enumerate_bases(c, ps) for b in chunk.tolist()):
            for e in [x for x in base if x not in cs.ids]:
                f = find_laminar_exchange(ps, base, e, cs, profile)
                swapped = sorted(set(base) - {e} | {f})
                assert is_base(c, swapped)
                assert mu_tilde(ps, swapped, profile) >= mu_tilde(ps, sorted(base), profile) - 1e-9
                checked += 1
        assert checked > 0

    def test_two_disjoint_roots(self):
        ps = _rand_ps(61, 12, 2)
        c = LaminarConstraint([([0, 1, 2, 3], 2), ([4, 5, 6, 7], 1)], range(12))
        cs = laminar_coreset(ps, ps.ids, c, 1.01)
        assert {8, 9, 10, 11} <= set(cs.ids)
        assert len(cs.ids) <= (c.rank * 2) ** 1 + 4 or len(cs.ids) <= cs.declared_bound

    def test_ineligible_e_rejected(self):
        ps = _chain_points()
        c = _chain_constraint()
        cs = laminar_coreset(ps, ps.ids, c, 1.01)
        base = next(iter(enumerate_bases(c, ps)))[0].tolist()
        e_in = next((x for x in base if x in cs.ids), None)
        if e_in is not None:
            with pytest.raises(PreconditionError):
                find_laminar_exchange(ps, base, e_in, cs)


def _node_shape(node):
    """A laminar node as (set ids, (layer ids, degenerate) pairs, removed blocks, child shapes)."""
    return (
        sorted(node.set_ids),
        [(layer.ids, layer.degenerate) for layer in node.layers],
        [sorted(block) for block in node.removed],
        [_node_shape(child) for child in node.children],
    )


class TestLaminarRecursion:
    def test_recursion_and_warning_order(self):
        # ids 0..11 lie on one line, so every layer of two or more points is
        # degenerate.  The root's layer 0 touches set 2 (at id 0) before set 1
        # (at id 11); each subtree, warnings and all, is built at its first
        # encounter and before the root's layer 1, while children stay in
        # set order
        line = [(i, [i + 1.0, 0.0], None) for i in range(12)]
        ps = PointSet(2, line + [(12, [0.0, 1.0], None), (13, [1.0, 1.0], None)])
        c = LaminarConstraint([(range(12), 3), ([9, 10, 11], 1), ([0, 1, 2, 3], 2), ([0, 1], 1)], range(14))
        cs = build_coreset(ps, ps.ids, c)
        assert sorted(cs.ids) == [0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13]
        assert cs.layers == ((0, 11), (4, 8), (5, 7), (9, 11), (0, 3), (2,), (0, 1))
        assert cs.warnings == (
            "set0 layer 0 is degenerate",
            "set0/set2 layer 0 is degenerate",
            "set0/set2/set3 layer 0 is degenerate",
            "set0/set1 layer 0 is degenerate",
            "set0 layer 1 is degenerate",
            "set0 layer 2 is degenerate",
        )
        assert list(cs.structure["roots"]) == [0] and cs.structure["free"] == (12, 13)
        assert _node_shape(cs.structure["roots"][0]) == (
            list(range(12)),
            [((0, 11), True), ((4, 8), True), ((5, 7), True)],
            [[0, 1, 2, 3, 9, 10, 11], [4, 8], [5, 7]],
            [
                ([9, 10, 11], [((9, 11), True)], [[9, 11]], []),
                ([0, 1, 2, 3], [((0, 3), True), ((2,), False)], [[0, 1, 3], [2]],
                 [([0, 1], [((0, 1), True)], [[0, 1]], [])]),
            ],
        )

    # name -> (family, V, coreset ids, layers, roots V meets)
    SHAPES = {
        "empty family": ([], range(8), list(range(8)), (), []),
        "nested sets all redundant": (
            [([0, 1, 2, 3], 1), ([0, 1], 1), ([2, 3], 2)], range(8), [1, 3, 4, 5, 6, 7], ((1, 3),), [0],
        ),
        "cap 0": ([([0, 1, 2], 0), ([3, 4, 5], 1)], range(8), [3, 4, 6, 7], ((3, 4),), [0, 1]),
        "V meets some roots": ([([0, 1, 2], 1), ([3, 4, 5], 1)], [0, 2, 6, 7], [0, 2, 6, 7], ((0, 2),), [0]),
    }

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_degenerate_shapes(self, name):
        family, V, ids, layers, roots = self.SHAPES[name]
        ps = _rand_ps(81, 8, 2)
        c = LaminarConstraint(family, range(8))
        cs = build_coreset(ps, V, c)
        assert (sorted(cs.ids), cs.layers, sorted(cs.structure["roots"]), cs.warnings) == (ids, layers, roots, ())
        member, caps = matroid.membership(c, np.arange(8))
        assert member.tolist() == [[i in m for m, _ in c.sets] for i in range(8)]
        assert caps.tolist() == [cap for _, cap in c.sets]

        def fits(s):
            return all(len(set(s) & m) <= cap for m, cap in c.sets)

        for r in range(9):
            assert [s for s in combinations(range(8), r) if is_independent(c, s)] == [
                s for s in combinations(range(8), r) if fits(s)
            ]
        bases = [tuple(b) for chunk in enumerate_bases(c, ps) for b in chunk.tolist()]
        assert bases == [s for s in combinations(range(8), c.rank) if fits(s)]
        stray = PointSet(2, [(i, [1.0, float(i)], None) for i in (*range(8), 12, 10)])
        calls = (
            lambda: build_coreset(ps, [*V, 12, 10], c),
            lambda: matroid.membership(c, np.array([12, 0, 10])),
            lambda: is_independent(c, [12, 0, 10]),
            lambda: enumerate_bases(c, stray),
        )
        for call in calls:
            with pytest.raises(UnknownIdError, match="^id 10 is not in the constraint's ground set$"):
                call()

    def test_ground_ids_without_a_point(self):
        # rows are looked up only where a search runs: ids 3..5 have no
        # point, 3 and 4 lie in a cap-0 set and 5 is free and kept
        ps = _rand_ps(5, 3, 2)
        cs = laminar_coreset(ps, range(6), LaminarConstraint([([0, 1], 1), ([3, 4], 0)], range(6)))
        assert sorted(cs.ids) == [0, 1, 2, 5] and cs.structure["free"] == (2, 5)


@pytest.fixture(scope="module")
def deep_chain():
    """The build over a chain of 1,000 nested sets and its constraint."""
    ps = _rand_ps(7, 1000, 4)
    c = LaminarConstraint([(range(i + 1), i + 1) for i in range(1000)], range(1000))
    return c, build_coreset(ps, ps.ids, c)


def test_deep_chain_builds_within_bounds(deep_chain):
    # each of the 1,000 levels is peeled off a work stack, not a call frame
    c, cs = deep_chain
    assert len(cs.ids) <= cs.declared_bound == (c.rank * 4) ** 1000
    todo, nodes, layers = list(cs.structure["roots"].values()), 0, 0
    while todo:
        node = todo.pop()
        ids = [pid for layer in node.layers for pid in layer.ids]
        assert len(set(ids)) == len(ids) <= node.cap * 4 and set(ids) <= node.set_ids
        todo += node.children
        nodes, layers = nodes + 1, layers + len(node.layers)
    assert nodes == 1000 and layers == len(cs.layers)


def test_deep_chain_repr_eq_and_hash_do_not_recurse(deep_chain):
    # a node's repr counts its children, and nodes compare and hash by identity
    _, cs = deep_chain
    root = cs.structure["roots"][999]
    assert repr(root) == "LaminarNodeCoreset(1000 ids, cap 1000, %d layers, 1 children)" % len(root.layers)
    assert repr(root) in repr(cs)
    assert root == root and root != root.children[0]
    assert len({root, root, root.children[0]}) == 2
    assert (cs == cs) is True


# the recursive construction the work stack replaced, kept as a reference


def _ref_cover_depth(c, i):
    kids = c.children_of(i)
    return 1 + (max(_ref_cover_depth(c, j) for j in kids) if kids else 0)


def _ref_node(points, ids, member, c, i, ell, zeta, warnings, path):
    """Set i's node, built recursively: (its shape as ``_node_shape`` gives it, its subtree's layers)."""
    inside = member[:, i]
    ids, member = ids[inside], member[inside]
    kids = np.array(c.children_of(i), dtype=np.int64)
    child = member[:, kids] @ (kids + 1) - 1
    cap = c.caps[i]
    layers = ()
    if cap:
        check_search(points.dim, ell, zeta)
        layers = coreset._peel(ids, points.coords, points.index(ids), cap, ell, zeta, child)
    removed, children = [], {}
    for layer_no, layer in enumerate(layers):
        if layer.degenerate:
            warnings.append("%s layer %d is degenerate" % (path, layer_no))
        block = set()
        for pid, j in zip(layer.ids, child[np.searchsorted(ids, layer.ids)].tolist()):
            block |= {pid} if j < 0 else c.set_ids(j)
            if j >= 0 and j not in children:
                children[j] = _ref_node(points, ids, member, c, j, ell, zeta, warnings, "%s/set%d" % (path, j))
        removed.append(sorted(block))
    subs = [children[j] for j in sorted(children)]
    flat = [layer.ids for layer in layers] + [ids for _, sub in subs for ids in sub]
    assert len(set().union(*flat)) <= (cap * ell) ** _ref_cover_depth(c, i)
    return (sorted(c.set_ids(i)), [(layer.ids, layer.degenerate) for layer in layers], removed,
            [shape for shape, _ in subs]), flat


def _ref_laminar(points, V, c):
    ell = regime_of(c.rank, points.dim)[1]
    ids = distinct_ids(V)
    member, _ = matroid.membership(c, ids)
    warnings = []
    roots = {
        i: _ref_node(points, ids, member, c, i, ell, DEFAULT_ZETA, warnings, "set%d" % i)
        for i in c.roots if member[:, i].any()
    }
    free = ids[~member.any(1)].tolist()
    return (
        sorted(set(free).union(*(ids for _, flat in roots.values() for ids in flat))),
        tuple(ids for i in sorted(roots) for ids in roots[i][1]),
        tuple(warnings),
        (c.rank * ell) ** max((_ref_cover_depth(c, i) for i in c.roots), default=1),
        tuple(free),
        [(i, shape) for i, (shape, _) in roots.items()],
    )


def _random_laminar_case(rng):
    """A seeded laminar family up to six deep, its points and a working set: (points, V, sets, ground)."""
    n = int(rng.integers(1, 16))
    ground = rng.choice(40, size=n, replace=False) if rng.random() < 0.5 else np.arange(n)  # sparse ids or not
    sets = []

    def split(ids, level):  # a random tree of slices; caps 0..3 make some sets redundant
        if rng.random() < 0.85:
            sets.append((ids.tolist(), int(rng.integers(0, 4))))
        if level < 5 and len(ids) > 1:
            for part in np.split(ids, np.sort(rng.integers(1, len(ids), int(rng.integers(1, 3))))):
                if len(part) and rng.random() < 0.8:
                    split(part, level + 1)

    split(rng.permutation(ground), 0)
    sets = [sets[i] for i in rng.permutation(len(sets))]
    d = int(rng.integers(1, 4))
    ids = np.sort(ground).tolist()
    if rng.random() < 0.3:  # one line through the origin: every layer of two or more points is degenerate
        coords = [[float(rng.integers(1, 5)) * (j + 1) for j in range(d)] for _ in ids]
    else:
        coords = rng.integers(-1, 2, size=(n, d)).astype(float).tolist()
    V = rng.permutation(ground).tolist()
    if rng.random() < 0.5:  # a part of the ground
        V = V[: int(rng.integers(0, n + 1))]
    fault = rng.random()
    if fault < 0.05:
        V.append(99)  # an id outside the ground
    elif fault < 0.1:
        ids, coords = ids[1:], coords[1:]  # a ground id without a point
    return PointSet(d, list(zip(ids, coords, [None] * len(ids)))), V, sets, ground


def _built(points, V, c):
    cs = build_coreset(points, V, c)
    return (sorted(cs.ids), cs.layers, cs.warnings, cs.declared_bound, cs.structure["free"],
            [(i, _node_shape(node)) for i, node in cs.structure["roots"].items()])


def _laminar_result(build, points, V, c):
    """What ``build`` makes of a case: its ids, layers, warnings, bound, free ids and node shapes, or its error."""
    try:
        return build(points, V, c)
    except Exception as exc:
        return type(exc), str(exc)


def test_laminar_coreset_against_reference():
    rng = np.random.default_rng(21)
    seen = {"cover": set(), "cap 0": 0, "redundant": 0, "partial V": 0, "degenerate": 0, "error": 0}
    for trial in range(400):
        ps, V, sets, ground = _random_laminar_case(rng)
        c = LaminarConstraint(sets, ground)
        want = _laminar_result(_ref_laminar, ps, V, c)
        assert _laminar_result(_built, ps, V, c) == want, (trial, sets, V)
        seen["cover"].add(cover_number(c))
        seen["cap 0"] += 0 in c.caps
        seen["redundant"] += any("redundant" in w for w in c.warnings)
        seen["partial V"] += len(set(V)) < len(ground)
        seen["degenerate"] += len(want) > 2 and bool(want[2])
        seen["error"] += len(want) == 2
    assert seen.pop("cover") == {1, 2, 3, 4} and min(seen.values()) >= 10, seen


def _peel_rows(rng, n, d):
    """Gaussian rows, some of them zero, or rows that are +-2**j times an axis vector.

    Axis rows keep every product exact, so their rank deficits, repeated
    rows and zero rows are decided by the tie rules in both peels, not by
    rounding; Gaussian rows have no near-ties.
    """
    if rng.random() < 0.5:
        X = rng.standard_normal((n, d))
        X[rng.random(n) < 0.2] = 0.0
        return X
    X = np.zeros((n, d))
    rank = int(rng.integers(0, d + 1))
    for row in X[rng.random(n) < 0.8] if rank else ():
        row[rng.integers(rank)] = rng.choice([-1.0, 1.0]) * 2.0 ** int(rng.integers(-2, 3))
    return X


def _peel_constraint(rng, kind, ids, d):
    """A cardinality, partition or laminar constraint over ``ids`` (laminar: roots with child sets)."""
    if kind == "cardinality":
        return CardinalityConstraint(int(rng.integers(1, min(len(ids), 2 * d + 1) + 1)), ids)
    if kind == "partition":
        s = int(rng.integers(1, 4))
        return PartitionConstraint([int(c) for c in rng.integers(0, 2 * d, s)],
                                   {int(i): int(rng.integers(s)) for i in ids})
    sets = []
    for root in np.array_split(rng.permutation(ids), int(rng.integers(1, 3))):
        if len(root):
            cap = int(rng.integers(1, 2 * d + 1))
            sets.append((root.tolist(), cap))
            for kid in np.array_split(root, int(rng.integers(1, 4))):
                if len(kid) and rng.random() < 0.7:
                    sets.append((kid.tolist(), int(rng.integers(0, cap))))
    return LaminarConstraint(sets, ids)


def test_masked_peel_matches_the_copying_reference(monkeypatch):
    # every _peel call of a build is checked against the peel that copies
    # the rows left for each layer and clamps greedy residuals at 0
    real = coreset._peel
    seen = {"cardinality": 0, "partition": 0, "laminar": 0, "child sets": 0, "degenerate": 0, "|V| < ell": 0,
            "swaps": 0}

    def both(ids, coords, rows, threshold, ell, zeta, child=None):
        got = real(ids, coords, rows, threshold, ell, zeta, child)
        want = reference_peel(ids, coords[rows], threshold, ell, zeta, child)
        assert [(layer.ids, layer.value, layer.degenerate, layer.swap_count) for layer in got] == want
        seen["child sets"] += child is not None and bool((child >= 0).any())
        seen["degenerate"] += any(layer.degenerate for layer in got)
        seen["|V| < ell"] += len(ids) < ell
        seen["swaps"] += sum(layer.swap_count for layer in got)
        return got

    monkeypatch.setattr(coreset, "_peel", both)
    rng = np.random.default_rng(26)
    for trial in range(300):
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        ids = np.sort(rng.choice(3 * n, n, replace=False))
        ps = PointSet(d, list(zip(ids.tolist(), _peel_rows(rng, n, d), [None] * n)))
        kind = ("cardinality", "partition", "laminar")[trial % 3]
        c = _peel_constraint(rng, kind, ids, d)
        if c.rank:
            V = ids if rng.random() < 0.7 else rng.choice(ids, int(rng.integers(1, n + 1)), replace=False)
            build_coreset(ps, V, c)
            seen[kind] += 1
    assert min(seen.values()) >= 10, seen


def test_local_opt_and_partition_coreset_raise_no_floating_point_error():
    # picked and masked rows carry -inf through greedy and the sweeps: no
    # NaN, no inf - inf, no overflow on ordinary-scale inputs, degenerate or not
    with np.errstate(all="raise"):
        for seed in range(24):
            rng = np.random.default_rng(400 + seed)
            n, d = int(rng.integers(2, 60)), int(rng.integers(1, 7))
            X = rng.standard_normal((n, d))
            shape = seed % 4
            if shape == 1:  # rank below d
                r = int(rng.integers(0, d))
                X = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
            elif shape == 2:
                X[rng.random(n) < 0.4] = 0.0
            elif shape == 3:
                X = X[rng.integers(0, max(1, n // 3), n)]
            ps = PointSet(d, [(i, X[i], int(rng.integers(3))) for i in range(n)])
            for ell in range(1, d + 1):
                local_opt(ps, ps.ids, ell)
            c = PartitionConstraint([int(c) for c in rng.integers(0, d + 2, 3)], dict(zip(ps.ids, ps.labels.tolist())))
            if c.rank:
                partition_coreset(ps, ps.ids, c)


class TestCoresetJson:
    def test_round_trip(self):
        ps = _rand_ps(70, 16, 2)
        constraint = CardinalityConstraint(4, ps.ids)
        cs = build_coreset(ps, ps.ids, constraint, 1.01)
        doc = coreset_to_json(cs)
        assert doc["regime"] == cs.regime
        assert doc["zeta"] == cs.zeta
        assert doc["ell"] == cs.ell
        assert sorted(doc["ids"]) == sorted(cs.ids)
        assert coreset_ids_from_json(doc) == sorted(cs.ids)

    def _halves(self):
        ps = _rand_ps(72, 30, 3)
        constraint = CardinalityConstraint(5, ps.ids)
        return [build_coreset(ps, part, constraint, 1.01)
                for part in (range(15), range(15, 30))]

    def test_read_back_composes_like_the_original(self):
        halves = self._halves()
        back = [coreset_from_json(json.loads(json.dumps(coreset_to_json(cs)))) for cs in halves]
        assert back[0].layer_lists() == halves[0].layer_lists()
        assert coreset_to_json(compose(back)) == coreset_to_json(compose(halves))

    @pytest.mark.parametrize("field, value", [
        ("kind", None), ("kind", "matrix"), ("regime", "mid"), ("ids", [-1]),
        ("ids", "0,1"), ("source", [0]), ("layers", [[999]]), ("layers", [0]),
        ("declared_bound", -1), ("declared_bound", 2.5), ("ell", 0), ("ell", True),
        ("zeta", 0.5), ("zeta", "1.01"),
    ])
    def test_read_back_rejects_bad_field(self, field, value):
        doc = coreset_to_json(self._halves()[0])
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        with pytest.raises(PreconditionError):
            coreset_from_json(doc)
