import json
import math
from itertools import combinations

import numpy as np
import pytest

from detmax import (
    CardinalityConstraint,
    LaminarConstraint,
    PartitionConstraint,
    PointSet,
    PreconditionError,
    REGIME_HIGHK,
    REGIME_LOWK,
    WeightProfile,
    build_coreset,
    compose,
    coreset_from_json,
    coreset_ids_from_json,
    coreset_to_json,
    enumerate_bases,
    find_laminar_exchange,
    find_value_preserving_exchange,
    is_base,
    laminar_coreset,
    mu_tilde,
    partition_coreset,
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
        root = c.roots[0] if c.cap_of(c.roots[0]) == 2 else c.roots[1]
        node = cs.structure["roots"][root]
        assert node.cap == c.cap_of(root)
        assert len(node.layers) <= node.cap
        # removed blocks swallow entire child family sets, so base
        # preservation can reason about elements outside V as well
        for block in node.removed:
            for pid in block:
                child = c.child_containing(root, pid)
                if child is not None:
                    assert c.set_ids(child) <= block

    def test_exchange_preserves_bases(self):
        ps = _chain_points()
        c = _chain_constraint()
        cs = laminar_coreset(ps, ps.ids, c, 1.01)
        profile = WeightProfile(cs.ids, 1.01, 2, REGIME_HIGHK)
        checked = 0
        for base in enumerate_bases(c, ps):
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
        base = next(iter(enumerate_bases(c, ps)))
        e_in = next((x for x in base if x in cs.ids), None)
        if e_in is not None:
            with pytest.raises(PreconditionError):
                find_laminar_exchange(ps, base, e_in, cs)


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
