from itertools import combinations

import numpy as np
import pytest

import detmax.matroid as matroid
from detmax.geometry import check_ids, is_count
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
)


def _points(n, groups=None):
    items = []
    for i in range(n):
        g = None if groups is None else groups[i]
        items.append((i, np.array([float(i), 1.0]), g))
    return PointSet(2, items)


def _bases(constraint, points):
    """The bases enumerate_bases yields, as id tuples in yield order, after checking the chunk contract."""
    out = []
    for chunk in enumerate_bases(constraint, points):
        assert chunk.dtype == np.int64 and chunk.ndim == 2
        assert 1 <= len(chunk) <= matroid._BATCH and chunk.shape[1] == constraint.rank
        out += map(tuple, chunk.tolist())
    return out


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
        assert c.rank == 3
        assert cover_number(c) == 1

    def test_k_validation(self):
        with pytest.raises(InstanceFormatError):
            CardinalityConstraint(0, range(3))
        with pytest.raises(InstanceFormatError):
            CardinalityConstraint(4, range(3))

    def test_enumerate_bases(self):
        c = CardinalityConstraint(2, range(4))
        got = _bases(c, _points(4))
        assert got == sorted(combinations(range(4), 2))

    def test_stray_id(self):
        c = CardinalityConstraint(2, range(4))
        with pytest.raises(UnknownIdError):
            is_independent(c, [0, 99])

    def test_is_a_one_group_partition(self):
        c = CardinalityConstraint(3, [4, 2, 9, 7])
        assert isinstance(c, PartitionConstraint)
        assert c.kind == "cardinality"
        assert c.sets == ((frozenset({2, 4, 7, 9}), 3),)
        assert (c.k, c.caps, c.rank) == (3, (3,), 3)
        assert repr(c) == "CardinalityConstraint(k=3, n=4)"
        doc = constraint_to_json(c)
        assert doc == {"type": "cardinality", "k": 3}
        back = constraint_from_json(doc, PointSet(2, [(i, np.array([float(i), 1.0]), None) for i in (2, 4, 7, 9)]))
        assert (type(back), back.sets, repr(back)) == (CardinalityConstraint, c.sets, repr(c))
        # a bad ground id is named before a bad k, and k is checked against the distinct ids
        with pytest.raises(InstanceFormatError, match="ground id must be a non-negative int, got -1"):
            CardinalityConstraint(0, [0, -1])
        with pytest.raises(InstanceFormatError, match="cardinality k must be a positive int, got 0"):
            CardinalityConstraint(0, [0, 1])
        with pytest.raises(InstanceFormatError, match="cardinality k=3 exceeds ground size 2"):
            CardinalityConstraint(3, [0, 1, 1])


class TestIdsThroughMembership:
    def test_is_independent_and_is_base_inputs(self):
        cases = (
            CardinalityConstraint(2, range(4)),
            PartitionConstraint((1, 1), {i: i % 2 for i in range(4)}),
            LaminarConstraint([([0, 2], 1)], range(3)),
        )
        for c in cases:
            assert c.rank == 2
            assert is_independent(c, []) and not is_base(c, [])
            assert is_independent(c, [0, 0, 1]) and is_base(c, [1, 0, 1])  # a repeated id counts once
            assert is_independent(c, np.array([0, 1])) and is_base(c, [np.int64(0), np.int32(1)])
            with pytest.raises(UnknownIdError, match="^id 99 is not in the constraint's ground set$"):
                is_independent(c, [0, 99])
            for bad in (1.0, True):  # only ints are ids
                with pytest.raises(UnknownIdError):
                    is_independent(c, [0, bad])


class TestPartition:
    def test_independence_per_group(self):
        groups = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}
        c = PartitionConstraint((2, 1), groups)
        assert is_independent(c, [0, 1, 3])
        assert not is_independent(c, [0, 1, 2])
        assert not is_independent(c, [3, 4])
        assert c.rank == 3
        assert cover_number(c) == 1

    def test_rank_caps_at_group_size(self):
        groups = {0: 0, 1: 1, 2: 1}
        c = PartitionConstraint((5, 1), groups)
        # group 0 only has one member, so the achievable rank is 2 not 6
        assert c.rank == 2
        assert _brute_rank(c, groups) == 2

    def test_label_out_of_cap_range(self):
        with pytest.raises(InstanceFormatError):
            PartitionConstraint((1,), {0: 0, 1: 1})

    def test_extra_caps_tolerated(self):
        # a cap with no members contributes nothing to the rank
        c = PartitionConstraint((1, 1, 1), {0: 0, 1: 1})
        assert c.rank == 2

    def test_cap_beyond_int64(self):
        # a cap above the ground size binds nothing, however large
        c = PartitionConstraint((10**20, 1), {0: 0, 1: 0, 2: 1})
        assert c.rank == 3 and is_base(c, [0, 1, 2])
        assert matroid.membership(c, np.array([0, 2]))[1].tolist() == [3, 1]

    def test_enumerate_bases_matches_filter(self):
        groups = {i: i % 2 for i in range(6)}
        c = PartitionConstraint((2, 1), groups)
        got = set(_bases(c, _points(6, [i % 2 for i in range(6)])))
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
            expected = [s for s in combinations(keep, c.rank) if is_base(c, s)]
            assert _bases(c, ps) == expected
        # cardinality: every size-k subset, including none when the point
        # set holds fewer than k ids
        for trial in range(20):
            n = int(rng.integers(1, 9))
            c = CardinalityConstraint(int(rng.integers(1, n + 1)), range(n))
            keep = sorted(i for i in range(n) if trial < 5 or rng.random() < 0.7)
            ps = PointSet(2, [(i, np.array([float(i), 1.0]), None) for i in keep])
            expected = list(combinations(keep, c.k))
            assert expected == [s for s in combinations(keep, c.k) if is_base(c, s)]
            assert _bases(c, ps) == expected

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
            assert c.rank == _brute_rank(c, ground)

    def test_free_elements_always_independent(self):
        c = LaminarConstraint([([0, 1], 1)], range(5))
        assert is_independent(c, [2, 3, 4, 0])
        assert c.rank == 4

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
        assert c.caps[big] == 2
        assert 4 in c.free_ids

    def test_order_and_depth(self):
        # roots ascending, each set followed by its subtree; depth counts the set and the longest chain inside it
        c = LaminarConstraint([([0, 1], 1), ([0, 1, 2, 3], 2), ([5, 6], 1), ([3], 0)], range(7))
        assert (c.parents.tolist(), c.order, c.depth) == ([1, -1, -1, 1], (1, 0, 3, 2), (1, 2, 1, 1))
        assert [sorted(c.set_ids(i)) for i in range(4)] == [[0, 1], [0, 1, 2, 3], [5, 6], [3]]

    @pytest.mark.parametrize("depth", [1000, 2000])
    def test_deep_chain(self, depth):
        # no level of the family is a call frame, so the depth of a chain is not bounded by the recursion limit
        c = LaminarConstraint([(range(i + 1), i + 1) for i in range(depth)], range(depth + 3))
        assert (c.rank, cover_number(c)) == (depth + 3, depth)
        assert c.order == tuple(range(depth - 1, -1, -1)) and c.depth == tuple(range(1, depth + 1))
        assert c.set_ids(depth - 1) == frozenset(range(depth)) and c.set_ids(0) == {0}
        # each set holds two ids more than its child but one more cap, so the caps bind
        c = LaminarConstraint([(range(2 * i + 2), i + 1) for i in range(depth)], range(2 * depth))
        assert (c.rank, cover_number(c), len(c.warnings)) == (depth, depth, 0)

    def test_enumerate_bases(self):
        c = LaminarConstraint([([0, 1], 1), ([2, 3], 1)], range(4))
        got = _bases(c, _points(4))
        assert got == [(0, 2), (0, 3), (1, 2), (1, 3)]


class TestEnumerateChunks:
    def test_order_and_filter_across_small_chunks(self, monkeypatch):
        # with chunks of 3, the filter leaves short chunks and drops empty
        # ones, and the rows still run in lex order across chunk boundaries
        monkeypatch.setattr(matroid, "_BATCH", 3)
        labels = [i % 3 for i in range(9)]
        ps = _points(9, labels)
        cases = [
            CardinalityConstraint(3, range(9)),
            PartitionConstraint((2, 1, 0), dict(enumerate(labels))),
            LaminarConstraint([([0, 1, 2, 3], 1), ([0, 1, 2, 3, 4, 5], 2)], range(9)),
        ]
        for c in cases:
            expected = [s for s in combinations(range(9), c.rank) if is_base(c, s)]
            chunks = list(enumerate_bases(c, ps))
            assert _bases(c, ps) == expected
            assert sum(map(len, chunks)) == len(expected) > 3
        assert min(map(len, chunks)) < 3  # the laminar filter cut some chunk short

    def test_rank_zero_yields_one_empty_base(self):
        for c in (PartitionConstraint((0, 0), {0: 0, 1: 1}), LaminarConstraint([([0, 1], 0)], range(2))):
            assert c.rank == 0
            chunks = list(enumerate_bases(c, _points(2, [0, 1])))
            assert len(chunks) == 1
            assert chunks[0].shape == (1, 0) and chunks[0].dtype == np.int64

    def test_stray_id_raises_on_the_call(self):
        # ids 9 and 7 lie outside every ground set; the smallest is named
        # before any chunk is asked for
        ps = PointSet(2, [(i, np.array([float(i), 1.0]), i % 2) for i in (0, 1, 2, 3, 9, 7)])
        cases = [
            CardinalityConstraint(2, range(4)),
            PartitionConstraint((1, 1), {i: i % 2 for i in range(4)}),
            LaminarConstraint([([0, 1], 1)], range(4)),
        ]
        for c in cases:
            with pytest.raises(UnknownIdError, match="id 7 is not in"):
                enumerate_bases(c, ps)


class TestBaseWalk:
    def test_one_prefix_children_are_sliced(self, monkeypatch):
        # the empty prefix's ten children come three at a time, in lex order
        monkeypatch.setattr(matroid, "_BATCH", 3)
        chunks = [chunk.tolist() for chunk in enumerate_bases(CardinalityConstraint(1, range(10)), _points(10))]
        assert chunks == [[[0], [1], [2]], [[3], [4], [5]], [[6], [7], [8]], [[9]]]

    def test_deep_tree_in_small_blocks_keeps_lex_order(self, monkeypatch):
        # k = 4 puts blocks of three prefixes on four levels of the stack at once
        monkeypatch.setattr(matroid, "_BATCH", 3)
        labels = [i % 3 for i in range(10)]
        ps = _points(10, labels)
        for c in (CardinalityConstraint(4, range(10)), PartitionConstraint((2, 1, 1), dict(enumerate(labels)))):
            assert _bases(c, ps) == [s for s in combinations(range(10), 4) if is_base(c, s)]


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
        assert c2.rank == c.rank
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


class _ReferenceLaminar:
    """The laminar constructor kept as frozensets, with pairwise overlap and redundancy scans.

    ``LaminarConstraint`` must build the same family, forest, rank and
    warnings, and raise the same errors, from the label column alone.
    """

    def __init__(self, sets, ground):
        self.ground = frozenset(check_ids(ground, "ground").tolist())
        warnings = []
        raw = []
        for entry in sets:
            ids, cap = entry
            members = frozenset(check_ids(ids, "laminar set").tolist())
            if not members:
                raise InstanceFormatError("laminar set must be nonempty")
            stray = members - self.ground
            if stray:
                raise UnknownIdError("laminar set mentions unknown id %d" % min(stray))
            if not is_count(cap):
                raise InstanceFormatError("laminar cap must be a non-negative int, got %r" % (cap,))
            raw.append((members, cap))
        for (f1, _), (f2, _) in combinations(raw, 2):
            inter = f1 & f2
            if inter and not (f1 <= f2 or f2 <= f1):
                raise InstanceFormatError(
                    "family is not laminar: sets overlap without nesting (shared id %d)" % min(inter)
                )
        dedup = {}
        for members, cap in raw:
            if members in dedup and cap != dedup[members]:
                warnings.append("duplicate laminar set collapsed to cap %d" % min(cap, dedup[members]))
            dedup[members] = min(cap, dedup.get(members, cap))
        survivors = []
        for members, cap in dedup.items():
            if any(members < other and cap >= ocap for other, ocap in dedup.items() if other != members):
                warnings.append("dropped redundant nested set (cap %d not below an enclosing cap)" % cap)
            else:
                survivors.append((members, cap))
        self.sets = tuple(survivors)
        for members, cap in self.sets:
            if cap == 0:
                warnings.append("cap 0 strips %d element(s) from selection" % len(members))
        self.warnings = tuple(warnings)
        parent = [
            min((j for j, (other, _) in enumerate(self.sets) if members < other),
                key=lambda j: len(self.sets[j][0]), default=None)
            for members, _ in self.sets
        ]
        self.children = tuple(tuple(i for i, par in enumerate(parent) if par == j) for j in range(len(parent)))
        self.roots = tuple(i for i, par in enumerate(parent) if par is None)
        self.free_ids = self.ground.difference(*(m for m, _ in self.sets))
        self.rank = len(self.free_ids) + sum(self._contribution(i) for i in self.roots)

    def _contribution(self, i):
        members, cap = self.sets[i]
        kids = self.children[i]
        child_ids = frozenset().union(*(self.sets[j][0] for j in kids)) if kids else frozenset()
        return min(cap, len(members - child_ids) + sum(self._contribution(j) for j in kids))

    def __repr__(self):
        return "LaminarConstraint(sets=%d, n=%d, rank=%d)" % (len(self.sets), len(self.ground), self.rank)


def _random_family(rng):
    """A random laminar family and ground, often made faulty: (sets, ground)."""
    n = int(rng.integers(0, 14))
    universe = rng.choice(60, size=n, replace=False) if rng.random() < 0.5 else np.arange(n)
    sets = []

    def split(ids):  # nested and disjoint sets: a random tree of random slices
        if len(ids) and rng.random() < 0.8:
            sets.append((ids, int(rng.integers(0, 4))))
        cuts = np.sort(rng.integers(0, len(ids) + 1, int(rng.integers(0, 3))))
        for part in np.split(ids, cuts):
            if 0 < len(part) < len(ids) and rng.random() < 0.7:
                split(part)

    split(rng.permutation(universe))
    for _ in range(int(rng.integers(0, 3))):  # duplicates, usually with another cap
        if sets:
            ids, cap = sets[int(rng.integers(len(sets)))]
            sets.append((ids, cap if rng.random() < 0.3 else int(rng.integers(0, 4))))
    if n and rng.random() < 0.25:  # an overlapping set
        sets.append((rng.choice(universe, size=int(rng.integers(1, n + 1)), replace=False), 1))
    order = rng.permutation(len(sets))
    sets = [(list(map(int, sets[i][0])) * (1 + int(rng.random() < 0.1)), sets[i][1]) for i in order]
    ground = [int(i) for i in rng.permutation(universe)]
    if n and rng.random() < 0.3:  # repeated ground ids
        ground += ground[: int(rng.integers(1, n + 1))]
    fault = rng.random()
    if fault < 0.04 and sets:
        sets[0][0].append(99)  # a stray id
    elif fault < 0.08 and sets:
        sets[-1] = (sets[-1][0] + [[1.0, True, -2, "3"][int(rng.integers(4))]], sets[-1][1])
    elif fault < 0.1:
        ground.append([2.5, -1, None][int(rng.integers(3))])
    elif fault < 0.12:
        sets.append(([], 1))
    elif fault < 0.14 and sets:
        sets[0] = (sets[0][0], [True, -1, 1.5][int(rng.integers(3))])
    return sets, ground


def _laminar_outcome(build, sets, ground):
    """What a constructor makes of a family: its shape, or the type and message of its error."""
    try:
        c = build(sets, ground)
    except Exception as exc:
        return type(exc), str(exc)
    children = c.children if isinstance(c, _ReferenceLaminar) else tuple(map(c.children_of, range(len(c.caps))))
    return c.sets, c.roots, children, c.free_ids, c.rank, c.warnings, repr(c)


class TestAgainstReference:
    def test_random_families(self):
        rng = np.random.default_rng(20)
        kinds = {"ok": 0, "error": 0, "warned": 0, "nested": 0}
        for trial in range(2400):
            sets, ground = _random_family(rng)
            want = _laminar_outcome(_ReferenceLaminar, sets, ground)
            assert _laminar_outcome(LaminarConstraint, sets, ground) == want, (trial, sets, ground)
            if isinstance(want[0], type):
                kinds["error"] += 1
                continue
            kinds["ok"] += 1
            kinds["warned"] += bool(want[5])
            kinds["nested"] += any(want[2])
            c = LaminarConstraint(sets, ground)
            assert [cap for _, cap in c.sets] == list(c.caps)
            ids = np.unique([g for g in ground])
            member, caps = matroid.membership(c, ids)
            assert member.tolist() == [[int(i) in m for m, _ in want[0]] for i in ids]
            assert cover_number(c) == max(member.sum(1).max(initial=0), 1)
            assert constraint_to_json(c)["sets"] == [{"ids": sorted(m), "cap": cap} for m, cap in want[0]]
        assert min(kinds.values()) > 200, kinds

    def test_first_overlapping_pair_is_named(self):
        # the pairs (1, 2) and (0, 3) both overlap; pairs run in input order,
        # (0, 3) comes first and is named, though sets 1 and 2 come earlier
        # and the largest set meets set 3 only
        sets = [([0, 1], 1), ([10, 11, 12], 1), ([11, 12, 13, 14], 1), ([1, 2], 1)]
        for build in (_ReferenceLaminar, LaminarConstraint):
            with pytest.raises(InstanceFormatError, match=r"^family is not laminar: .* \(shared id 1\)$"):
                build(sets, range(15))


def _no_sets(value):
    if isinstance(value, (set, frozenset)):
        return False
    if isinstance(value, (tuple, list)):
        return all(map(_no_sets, value))
    return True


def test_constraints_store_no_sets():
    built = [
        CardinalityConstraint(2, [3, 1, 1, 2]),
        PartitionConstraint((1, 2), {0: 0, 1: 1, 5: 1}),
        PartitionConstraint.from_labels((1, 0), np.array([4, 2, 9]), np.array([1, 0, 0])),
        LaminarConstraint([([0, 1], 1), ([0, 1, 2, 3], 2), ([0, 1], 3), ([5, 6], 1)], range(8)),
    ]
    for c in built:
        c.sets, c.free_ids, c.roots, matroid.membership(c, c.ground_ids), cover_number(c)
        assert [name for name, value in vars(c).items() if not _no_sets(value)] == [], c


class TestRepeatedGroundIds:
    def test_partition_from_labels_names_the_repeat(self):
        with pytest.raises(InstanceFormatError, match="^ground id 1 appears twice$"):
            PartitionConstraint.from_labels((1, 1), [1, 1], [0, 1])
        # the first row that repeats an earlier id is named
        with pytest.raises(InstanceFormatError, match="^ground id 3 appears twice$"):
            PartitionConstraint.from_labels((1, 1), [7, 3, 3, 7], [0, 1, 0, 1])

    def test_cardinality_collapses_repeats(self):
        c = CardinalityConstraint(2, [5, 0, 5, 1])
        assert (c.ground_ids.tolist(), c.rank, repr(c)) == ([0, 1, 5], 2, "CardinalityConstraint(k=2, n=3)")
        with pytest.raises(InstanceFormatError, match="cardinality k=3 exceeds ground size 2"):
            CardinalityConstraint(3, [0, 1, 1])

    def test_laminar_collapses_repeats(self):
        c = LaminarConstraint([([0, 1], 1)], [0, 0, 1, 2])
        assert (c.ground_ids.tolist(), c.rank, repr(c)) == ([0, 1, 2], 2, "LaminarConstraint(sets=1, n=3, rank=2)")
        assert matroid.membership(c, c.ground_ids)[0].tolist() == [[True], [True], [False]]
