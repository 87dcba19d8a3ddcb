"""Selections and error messages on an instance whose ids are not in row order.

Every other fixture numbers its points 0..n-1 in row order, so a mix-up of
ids, rows and positions in the sorted id index would go unnoticed there.
Here ids are sparse and shuffled, and rows 12-14 copy rows 0, 5 and 7, so
their exchange ratios tie bit for bit.  Row 12 (id 2) copies row 0 (id 97):
the smallest-id rule must pick id 2 although its row comes last.
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
