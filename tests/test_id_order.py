"""Selections and error messages on an instance whose ids are not in row order.

Every other fixture numbers its points 0..n-1 in row order, so a mix-up of
ids, rows and positions in the sorted id index would go unnoticed there.
Here ids are sparse and shuffled, and rows 12-14 copy rows 0, 5 and 7, so
their exchange ratios tie bit for bit.  Row 12 (id 2) copies row 0 (id 97):
the smallest-id rule must pick id 2 although its row comes last.

Ids that are exactly 0..n-1 are looked up without a search
(``geometry.sorted_positions``); the id lookup tests below hold that route
to the binary search, on answers and on error messages.
"""

import numpy as np
import pytest

from detmax import (
    CardinalityConstraint,
    LaminarConstraint,
    PartitionConstraint,
    PointSet,
    PreconditionError,
    UnknownIdError,
    build_coreset,
    geometry,
    matroid,
    compose,
    greedy_init,
    local_opt,
    peeling_coreset,
    run_distributed,
)

IDS = [97, 3, 41, 8, 60, 12, 77, 5, 33, 20, 88, 14, 2, 50, 9]
COORDS = [
    [4, 4, 4], [4, -2, 2], [3, -4, -2], [2, 4, 2], [-4, 3, -1],
    [-1, -3, -1], [-4, 0, 1], [4, 0, -1], [-2, 4, 3], [4, 2, 4],
    [-1, -4, -2], [-1, 4, 1], [4, 4, 4], [-1, -3, -1], [4, 0, -1],
]
LABELS = [r % 3 for r in range(15)]


@pytest.fixture
def ps():
    return PointSet.from_arrays(3, IDS, np.array(COORDS, dtype=float), LABELS)


def _built(ps, V, constraint):
    cs = build_coreset(ps, V, constraint)
    return cs.regime, sorted(cs.ids), cs.layers


def test_greedy_and_local_opt(ps):
    assert greedy_init(ps, IDS, 3) == (2, 41, 3)
    res = local_opt(ps, IDS, 3)
    assert (res.ids, res.swap_count, res.degenerate) == ((2, 5, 60), 2, False)
    assert res.value == pytest.approx(9.043577154098081, rel=1e-12)
    assert local_opt(ps, set(IDS), 2).ids == (2, 41)


def test_peeling(ps):
    pc = peeling_coreset(ps, IDS, 3, 2)
    assert (pc.set_ids, pc.cap, pc.children) == (frozenset(IDS), 3, ())
    assert [layer.ids for layer in pc.layers] == [(2, 41), (60, 97), (20, 33)]


def test_cardinality(ps):
    assert _built(ps, IDS, CardinalityConstraint(5, IDS)) == (
        "highk",
        sorted(IDS),
        ((2, 5, 60), (3, 9, 97), (14, 20, 77), (8, 33, 41), (12, 50, 88)),
    )
    assert _built(ps, IDS[:10], CardinalityConstraint(2, IDS)) == ("lowk", [41, 97], ((41, 97),))


def test_partition(ps):
    by_row = PartitionConstraint.from_labels((2, 1, 1), IDS, LABELS)
    assert _built(ps, IDS, by_row) == (
        "highk",
        [2, 3, 5, 8, 9, 14, 20, 33, 77, 88, 97],
        ((8, 20, 77), (2, 97), (3, 5, 88), (9, 14, 33)),
    )
    # the constraint's own groups, not the points' labels, decide the shares
    by_block = PartitionConstraint((2, 1, 1), {IDS[r]: r // 5 for r in range(15)})
    assert _built(ps, IDS, by_block) == (
        "highk",
        [2, 3, 5, 8, 9, 14, 20, 33, 41, 60, 97],
        ((3, 41, 97), (8, 60), (5, 20, 33), (2, 9, 14)),
    )


def test_laminar(ps):
    family = LaminarConstraint([(IDS[:8], 2), (IDS[:4], 1), (IDS[8:12], 1)], IDS)
    assert _built(ps, IDS, family) == (
        "highk",
        [2, 3, 5, 9, 12, 20, 33, 41, 50, 60, 77, 88, 97],
        ((5, 60, 97), (12, 77), (3, 41, 97), (20, 33, 88)),
    )


@pytest.mark.parametrize(
    "split, parts, composed, value",
    [
        ("random", [(6, 6), (9, 8)], 14, 9.043577154098081),
        ("by-group", [(10, 6), (5, 3)], 9, 8.60813018640834),
    ],
)
def test_run_distributed(ps, split, parts, composed, value):
    constraint = PartitionConstraint.from_labels((1, 1, 1), IDS, LABELS)
    rep = run_distributed(ps, constraint, 2, 7, split=split, oracle="force")
    assert [(p["size"], p["coreset_size"]) for p in rep.parts] == parts
    assert (rep.composed_size, rep.coreset_method, rep.oracle) == (composed, "brute_force", "brute_force")
    assert rep.coreset_value == pytest.approx(value, rel=1e-12)
    assert rep.full_value == pytest.approx(9.043577154098081, rel=1e-12)


def _message(call, *args):
    with pytest.raises((UnknownIdError, PreconditionError)) as info:
        call(*args)
    return type(info.value).__name__, str(info.value)


def test_boundary_error_messages(ps):
    outside = "UnknownIdError", "id 2 is not in the constraint's ground set"
    small = PartitionConstraint.from_labels((2, 1, 1), IDS[:10], LABELS[:10])
    assert _message(build_coreset, ps, IDS, small) == outside
    assert _message(build_coreset, ps, [41, 88, 3, 50, 14], CardinalityConstraint(5, IDS[:10])) == (
        "UnknownIdError", "id 14 is not in the constraint's ground set")
    unknown = "UnknownIdError", "no point with id 999"
    assert _message(local_opt, ps, [3, 41, 1000, 999, 5], 2) == unknown
    assert _message(greedy_init, ps, [3, 41, 1000, 999, 5], 2) == unknown
    assert _message(peeling_coreset, ps, [3, 41, 1000, 999, 5], 2, 2) == unknown
    wider = CardinalityConstraint(5, IDS + [1000, 999])
    assert _message(build_coreset, ps, IDS + [1000, 999], wider) == unknown
    # the sources share ids 5, 12 and 77; the message names the smallest
    a = build_coreset(ps, IDS[:8], CardinalityConstraint(2, IDS))
    b = build_coreset(ps, IDS[5:], CardinalityConstraint(2, IDS))
    overlap = "PreconditionError", "compose: working sets overlap (id 5 appears twice)"
    assert _message(compose, [a, b]) == _message(compose, [b, a]) == overlap


@pytest.mark.parametrize("make", [
    lambda: CardinalityConstraint(5, IDS),
    lambda: PartitionConstraint.from_labels((2, 1, 1), IDS, LABELS),
    lambda: LaminarConstraint([(IDS[:8], 2), (IDS[:4], 1), (IDS[8:12], 1)], IDS),
])
def test_id_arrays_in_python_ints_out(ps, make):
    constraint = make()
    from_list = build_coreset(ps, IDS, constraint)
    from_array = build_coreset(ps, np.array(IDS), constraint)
    assert (from_array.ids, from_array.layers) == (from_list.ids, from_list.layers)
    assert from_array.source_array.tolist() == from_list.source_array.tolist() == sorted(IDS)
    assert all(type(i) is int for field in [from_array.ids, *from_array.layers] for i in field)


def _searched(keys, q):
    """The binary-search lookup, the reference for sorted_positions."""
    pos = np.minimum(np.searchsorted(keys, q), max(len(keys) - 1, 0))
    return pos, (keys[pos] == q) if len(keys) else np.zeros(np.shape(q), dtype=bool)


@pytest.mark.parametrize("n", [0, 1, 2, 1000])
def test_dense_lookup_matches_the_binary_search(monkeypatch, n):
    searches = []
    searchsorted = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a, **kw: searches.append(1) or searchsorted(*a, **kw))
    rng = np.random.default_rng(n)
    gap = int(rng.integers(0, n)) if n else 0
    queries = [
        np.arange(-3, n + 3), rng.integers(-5, n + 5, 50), np.repeat([0, n - 1, n], 3),
        np.array([], dtype=np.int64), np.array(n // 2), np.array(-1), np.array(n), np.int64(n - 1),
        rng.integers(-2, n + 2, (4, 5)), np.arange(n + 3, dtype=np.int32), np.arange(n + 3, dtype=np.uint64),
    ]
    # 0..n-1 index themselves; 1..n and 0..n with one gap are searched
    for keys, searched in ((np.arange(n), False), (np.arange(1, n + 1), True), (np.delete(np.arange(n + 1), gap), True)):
        for q in queries:
            searches.clear()
            with monkeypatch.context() as m:
                m.setattr(np, "searchsorted", searchsorted)
                want = _searched(keys, q)
            got = geometry.sorted_positions(keys, q)
            for a, b in zip(got, want):
                assert type(a) is type(b) and np.shape(a) == np.shape(b) and np.asarray(a).dtype == np.asarray(b).dtype
                assert np.array_equal(a, b), (keys[:3], q)
            assert bool(searches) == (searched or not len(keys)), (keys[:3], q)


def test_uint64_ids_are_read_exactly():
    # int64 keys against uint64 queries would be compared in float64, where
    # 2**53 + 1 rounds to 2**53 and 2**63 to the largest int64
    big = 2**53
    ps = PointSet.from_arrays(2, [big + 1, big], np.eye(2), [0, 0])
    q = np.array([big + 1], dtype=np.uint64)
    assert ps.index(q).tolist() == [0] and ps.rows(q).tolist() == [[1.0, 0.0]]
    assert np.uint64(big + 1) in ps and np.uint64(big + 2) not in ps
    assert matroid.ground_positions(PartitionConstraint.from_labels((1,), [big, big + 1], [0, 0]), q).tolist() == [1]
    top = PointSet.from_arrays(1, [2**63 - 1], [[1.0]], [None])
    over = np.array([2**63], dtype=np.uint64)
    assert 2**63 not in top and np.uint64(2**64 - 1) not in top and 2**63 - 1 in top
    assert _message(top.index, over) == ("UnknownIdError", "no point with id 9223372036854775808")
    assert _message(matroid.ground_positions, CardinalityConstraint(1, [2**63 - 1]), over) == (
        "UnknownIdError", "id 9223372036854775808 is not in the constraint's ground set")


DENSE = np.argsort(np.argsort(IDS)).tolist()  # each id's rank: the same rows under ids 0..14


@pytest.fixture(params=["dense", "searched"])
def dense(request, monkeypatch):
    """The fixture's rows under ids 0..14, looked up by the dense route or by the binary search."""
    if request.param == "searched":
        monkeypatch.setattr(geometry, "sorted_positions", _searched)
        monkeypatch.setattr(matroid, "sorted_positions", _searched)
    return PointSet.from_arrays(3, DENSE, np.array(COORDS, dtype=float), LABELS)


def test_dense_boundary_error_messages(dense):
    # the twin of test_boundary_error_messages, with ground sets 0..9 for the dense route
    ground = sorted(DENSE[:10])
    small = PartitionConstraint.from_labels((2, 1, 1), DENSE[:10], LABELS[:10])
    assert sorted(DENSE[:10]) != list(range(10))
    assert _message(build_coreset, dense, DENSE, small) == ("UnknownIdError", "id 0 is not in the constraint's ground set")
    first = PartitionConstraint.from_labels((2, 1, 1), range(10), [LABELS[DENSE.index(i)] for i in range(10)])
    assert _message(build_coreset, dense, DENSE, first) == (
        "UnknownIdError", "id 10 is not in the constraint's ground set")
    assert _message(build_coreset, dense, [9, 13, 1, 10, 6], CardinalityConstraint(5, ground)) == (
        "UnknownIdError", "id 6 is not in the constraint's ground set")
    assert _message(build_coreset, dense, [9, 13, 1, 14, 6], CardinalityConstraint(5, range(10))) == (
        "UnknownIdError", "id 13 is not in the constraint's ground set")
    for V, missing in (([1, 9, 1000, 999, 5], 999), ([1, 9, 16, 15, 5], 15)):
        unknown = "UnknownIdError", "no point with id %d" % missing
        assert _message(local_opt, dense, V, 2) == unknown
        assert _message(greedy_init, dense, V, 2) == unknown
        assert _message(peeling_coreset, dense, V, 2, 2) == unknown
        wider = CardinalityConstraint(5, DENSE + [1000, 999, 16, 15])
        assert _message(build_coreset, dense, DENSE + [missing], wider) == unknown
    assert _message(dense.index, [3, -1]) == ("UnknownIdError", "no point with id -1")
    assert -1 not in dense and 15 not in dense and 14 in dense
    a = build_coreset(dense, DENSE[:8], CardinalityConstraint(2, DENSE))
    b = build_coreset(dense, DENSE[5:], CardinalityConstraint(2, DENSE))
    overlap = "PreconditionError", "compose: working sets overlap (id 2 appears twice)"
    assert _message(compose, [a, b]) == _message(compose, [b, a]) == overlap
