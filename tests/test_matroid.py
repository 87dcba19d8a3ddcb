from itertools import combinations

import numpy as np
import pytest

from detmax import (
    InstanceFormatError,
    CardinalityConstraint,
    GuardExceededError,
    LaminarConstraint,
    ORACLE_CAP_ENV,
    PartitionConstraint,
    PointSet,
    UnknownIdError,
    constraint_from_json,
    constraint_to_json,
    cover_number,
    enumerate_bases,
    is_base,
    is_independent,
    oracle_cap,
    rank,
)


def _points(n, groups=None):
    items = []
    for i in range(n):
        g = None if groups is None else groups[i]
        items.append((i, np.array([float(i), 1.0]), g))
    return PointSet(2, items)


def _brute_rank(constraint, ground):
    best = 0
    ids = sorted(ground)
    for r in range(len(ids), -1, -1):
        for combo in combinations(ids, r):
            if is_independent(constraint, combo):
                return r
    return best


class TestCardinality:
    def test_independence(self):
        c = CardinalityConstraint(2, range(4))
        assert is_independent(c, [0])
        assert is_independent(c, [0, 3])
        assert not is_independent(c, [0, 1, 2])
        assert is_base(c, [1, 2])
        assert not is_base(c, [1])

    def test_rank(self):
        c = CardinalityConstraint(3, range(5))
        assert rank(c) == 3 == c.rank
        assert cover_number(c) == 1

    def test_k_validation(self):
        with pytest.raises(InstanceFormatError):
            CardinalityConstraint(0, range(3))
        with pytest.raises(InstanceFormatError):
            CardinalityConstraint(4, range(3))

    def test_enumerate_bases(self):
        c = CardinalityConstraint(2, range(4))
        got = list(enumerate_bases(c, _points(4)))
        assert got == sorted(combinations(range(4), 2))

    def test_stray_id(self):
        c = CardinalityConstraint(2, range(4))
        with pytest.raises(UnknownIdError):
            is_independent(c, [0, 99])


class TestPartition:
    def test_independence_per_group(self):
        groups = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}
        c = PartitionConstraint((2, 1), groups)
        assert is_independent(c, [0, 1, 3])
        assert not is_independent(c, [0, 1, 2])
        assert not is_independent(c, [3, 4])
        assert rank(c) == 3
        assert cover_number(c) == 1

    def test_rank_caps_at_group_size(self):
        groups = {0: 0, 1: 1, 2: 1}
        c = PartitionConstraint((5, 1), groups)
        # group 0 only has one member, so the achievable rank is 2 not 6
        assert rank(c) == 2
        assert _brute_rank(c, groups) == 2

    def test_label_out_of_cap_range(self):
        with pytest.raises(InstanceFormatError):
            PartitionConstraint((1,), {0: 0, 1: 1})

    def test_extra_caps_tolerated(self):
        # a cap with no members contributes nothing to the rank
        c = PartitionConstraint((1, 1, 1), {0: 0, 1: 1})
        assert rank(c) == 2

    def test_enumerate_bases_matches_filter(self):
        groups = {i: i % 2 for i in range(6)}
        c = PartitionConstraint((2, 1), groups)
        got = set(enumerate_bases(c, _points(6, [i % 2 for i in range(6)])))
        expected = {
            combo
            for combo in combinations(range(6), 3)
            if sum(1 for x in combo if x % 2 == 0) == 2
            and sum(1 for x in combo if x % 2 == 1) == 1
        }
        assert got == expected

    def test_enumerate_bases_equals_filter_in_order(self):
        # the direct product must list exactly the filtered subsets, in lex
        # order: random labels over a cap-0 group, a group with fewer members
        # than its cap, and point sets that leave some group short of its need
        rng = np.random.default_rng(8)
        for trial in range(40):
            n = int(rng.integers(4, 11))
            labels = [int(g) for g in rng.integers(0, 3, n)]
            labels[0] = 3  # group 3: one member, cap 2
            groups = {i: labels[i] for i in range(n)}
            c = PartitionConstraint((int(rng.integers(0, 3)), 1, 0, 2), groups)
            keep = sorted(i for i in range(n) if trial < 10 or rng.random() < 0.8)
            ps = PointSet(2, [(i, np.array([float(i), 1.0]), labels[i]) for i in keep])
            expected = [s for s in combinations(keep, rank(c)) if is_base(c, s)]
            assert list(enumerate_bases(c, ps)) == expected

    def test_part_accessors(self):
        groups = {0: 0, 1: 1, 2: 0}
        c = PartitionConstraint((1, 1), groups)
        assert [(sorted(part), cap) for part, cap in c.sets] == [([0, 2], 1), ([1], 1)]


class TestLaminar:
    def test_chain_family(self):
        inner = [0, 1, 2]
        outer = [0, 1, 2, 3, 4]
        c = LaminarConstraint([(inner, 1), (outer, 3)], range(7))
        assert is_independent(c, [0, 3, 4])
        assert not is_independent(c, [0, 1])  # inner cap is 1
        assert not is_independent(c, [0, 2, 3, 4])
        assert is_independent(c, [5, 6, 0, 3, 4])
        assert cover_number(c) == 2

    def test_rank_matches_brute(self):
        cases = [
            ([([0, 1], 1), ([0, 1, 2, 3], 2), ([4, 5], 1)], range(7)),
            ([([0, 1, 2], 2), ([3, 4], 2)], range(5)),
            ([([0], 1), ([0, 1, 2, 3, 4], 3)], range(6)),
        ]
        for fam, ground in cases:
            c = LaminarConstraint(fam, ground)
            assert rank(c) == _brute_rank(c, ground)

    def test_free_elements_always_independent(self):
        c = LaminarConstraint([([0, 1], 1)], range(5))
        assert is_independent(c, [2, 3, 4, 0])
        assert rank(c) == 4

    def test_overlapping_sets_rejected(self):
        with pytest.raises(InstanceFormatError):
            LaminarConstraint([([0, 1], 1), ([1, 2], 1)], range(3))

    def test_duplicate_sets_keep_min_cap(self):
        c = LaminarConstraint([([0, 1], 3), ([0, 1], 1)], range(3))
        assert not is_independent(c, [0, 1])
        assert is_independent(c, [0, 2])

    def test_redundant_child_dropped(self):
        # child cap >= parent cap can never bind more tightly than the parent
        c = LaminarConstraint([([0, 1], 2), ([0, 1, 2], 2)], range(4))
        assert len(c.sets) == 1
        assert any("redundant" in w for w in c.warnings)

    def test_ids_outside_ground_rejected(self):
        with pytest.raises(UnknownIdError):
            LaminarConstraint([([0, 9], 1)], range(3))

    def test_forest_accessors(self):
        c = LaminarConstraint([([0, 1], 1), ([0, 1, 2, 3], 2), ([5, 6], 1)], range(7))
        roots = c.roots
        assert len(roots) == 2
        big = next(i for i in roots if 2 in c.set_ids(i))
        assert set(c.children_of(big)) != set()
        assert c.cap_of(big) == 2
        assert 4 in c.free_ids

    def test_enumerate_bases(self):
        c = LaminarConstraint([([0, 1], 1), ([2, 3], 1)], range(4))
        got = set(enumerate_bases(c, _points(4)))
        assert got == {(0, 2), (0, 3), (1, 2), (1, 3)}


class TestOracleCap:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(ORACLE_CAP_ENV, raising=False)
        assert oracle_cap() == 10**6

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ORACLE_CAP_ENV, "10")
        assert oracle_cap() == 10

    def test_guard_trips(self, monkeypatch):
        monkeypatch.setenv(ORACLE_CAP_ENV, "5")
        c = CardinalityConstraint(3, range(8))
        with pytest.raises(GuardExceededError):
            enumerate_bases(c, _points(8))

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv(ORACLE_CAP_ENV, "not-a-number")
        with pytest.raises(Exception):
            oracle_cap()


class TestJsonRoundTrip:
    def test_cardinality(self):
        pts = _points(4)
        c = CardinalityConstraint(2, range(4))
        doc = constraint_to_json(c)
        c2 = constraint_from_json(doc, pts)
        assert c2.kind == "cardinality" and c2.rank == 2

    def test_partition(self):
        groups = [0, 0, 1, 1]
        pts = _points(4, groups)
        c = PartitionConstraint((1, 2), {i: groups[i] for i in range(4)})
        doc = constraint_to_json(c)
        c2 = constraint_from_json(doc, pts)
        assert c2.kind == "partition"
        assert rank(c2) == rank(c)
        for combo in combinations(range(4), 2):
            assert is_independent(c, combo) == is_independent(c2, combo)

    def test_partition_needs_labels(self):
        pts = _points(4)  # unlabeled
        doc = {"type": "partition", "caps": [1, 1]}
        with pytest.raises(Exception):
            constraint_from_json(doc, pts)

    def test_laminar(self):
        pts = _points(5)
        c = LaminarConstraint([([0, 1], 1), ([0, 1, 2], 2)], range(5))
        doc = constraint_to_json(c)
        c2 = constraint_from_json(doc, pts)
        assert c2.kind == "laminar"
        for r in (1, 2, 3):
            for combo in combinations(range(5), r):
                assert is_independent(c, combo) == is_independent(c2, combo)

    def test_unknown_kind(self):
        with pytest.raises(Exception):
            constraint_from_json({"type": "graphic"}, _points(3))
