"""The streaming instance reader gives what ``load_instance(json.loads(text))`` gives, file for file.

Each file is read through ``cli._load_instance`` at several slice sizes: a
slice per point, slices that cut points at no fixed place, and one slice for
the whole array.  The outcome must match the whole-document parse: the same
ids, labels and coordinate bytes, constraint and meta, or the same exception
type and message.
"""

import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from detmax import (
    InstanceSpec,
    LaminarConstraint,
    cli,
    ingest,
    instance_to_json,
    lb_low_dim_instance,
    load_instance,
    merge_pointsets,
    random_instance,
)
from detmax.matroid import constraint_to_json, laminar_family

SLICES = (1, 37, 300, 1 << 16)


def _outcome(read):
    try:
        points, constraint, meta = read()
    except Exception as exc:  # the outcome compared is the exception's type and message
        return type(exc), str(exc)
    x = points.coords
    return (points.dim, points.id_array.tobytes(), points.labels.tobytes(), x.dtype, x.shape, x.tobytes(),
            constraint_to_json(constraint), repr(meta))


def _same(tmp_path, monkeypatch, text):
    """The reader's outcome on ``text`` at every slice size equals the whole parse's; and a whole parse happens only on a scan error."""
    path = tmp_path / "inst.json"
    path.write_text(text)
    want = _outcome(lambda: load_instance(json.loads(text)))
    wholes = []
    whole = ingest.parse_json
    monkeypatch.setattr(ingest, "parse_json", lambda t: wholes.append(t) or whole(t))
    for size in SLICES:
        monkeypatch.setattr(ingest, "SLICE_CHARS", size)
        assert _outcome(lambda: cli._load_instance(str(path))) == want, size
    try:
        scans = isinstance(json.loads(text), dict)
    except ValueError:
        scans = False
    assert wholes == ([] if scans else [text] * len(SLICES))
    return want


def _compact(doc):
    return json.dumps(doc, separators=(",", ":"))


def _gen_style(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def _laminar_spec(n, d, sets, seed):
    cdoc = {"type": "laminar", "sets": [{"ids": ids, "cap": cap} for ids, cap in sets]}
    k = LaminarConstraint(laminar_family(cdoc), range(n)).rank
    return InstanceSpec("random", n, d, k, cdoc, seed)


SPECS = {
    "partition": InstanceSpec("random", 40, 3, 4, {"type": "partition", "caps": [2, 1, 1]}, 11),
    "partition-grid": InstanceSpec("random", 30, 4, 4, {"type": "partition", "caps": [2, 2]}, 12,
                                   {"coord_mode": "grid"}),
    "cardinality": InstanceSpec("random", 30, 4, 3, {"type": "cardinality", "k": 3}, 13),
    "laminar": _laminar_spec(30, 3, [(list(range(10)), 2), (list(range(4)), 1), (list(range(20, 25)), 1)], 14),
}


def _doc(name):
    spec = SPECS[name]
    points, constraint = random_instance(spec)
    return instance_to_json(points, constraint, {"generator": "random", "spec": spec.to_json()})


def _lb_doc():
    v, vp, constraint = lb_low_dim_instance(2, (1, 1), 3, 1000.0)
    return instance_to_json(merge_pointsets(v, vp), constraint, {"v_ids": sorted(v.ids)})


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("write", [_compact, _gen_style], ids=["compact", "gen-style"])
def test_generated_instances(tmp_path, monkeypatch, name, write):
    assert len(_same(tmp_path, monkeypatch, write(_doc(name)))) == 8


@pytest.mark.parametrize("write", [_compact, _gen_style], ids=["compact", "gen-style"])
def test_lower_bound_instance(tmp_path, monkeypatch, write):
    assert len(_same(tmp_path, monkeypatch, write(_lb_doc()))) == 8


def test_every_key_order(tmp_path, monkeypatch):
    doc = _doc("partition")
    for keys in itertools.permutations(doc):
        _same(tmp_path, monkeypatch, _compact({k: doc[k] for k in keys}))


@pytest.mark.parametrize("text", [
    '{"dim": 2, "points": [], "constraint": {"type": "cardinality", "k": 1}}',
    '{"dim": 2, "points": [ ], "constraint": {"type": "partition", "caps": [1]}}',
    '{"dim":2,"points":[{"id":0,"coords":[1,0]}],"constraint":{"type":"cardinality","k":1}}',
    ' \n\t{ "points" :\n[ {"coords" : [1.5, 2], "id" : 7 } ,\n {"id":8,"coords":[0,1],"group":null} ] ,'
    '"dim" : 2 , "constraint" : {"type":"cardinality","k":2} }\n',
], ids=["empty", "empty-spaced", "one-point", "spaced"])
def test_small_and_spaced(tmp_path, monkeypatch, text):
    _same(tmp_path, monkeypatch, text)


def test_whitespace_between_every_token(tmp_path, monkeypatch):
    doc = _doc("cardinality")
    _same(tmp_path, monkeypatch, json.dumps(doc, indent="\t", separators=(" ,\n ", " : ")))


@pytest.mark.parametrize("trap", ["}", "},{", '},{"id": 1, "coords": [0, 1]}', '"}]', '\\', "]}", "{"])
def test_braces_inside_strings(tmp_path, monkeypatch, trap):
    """A '}' inside a string is never a cut, in the meta or in a point."""
    doc = _doc("partition")
    doc["meta"] = {"note": trap, trap: [trap]}
    for i, p in enumerate(doc["points"]):
        p["tag"] = trap * (i % 3)
    _same(tmp_path, monkeypatch, _compact(doc))
    _same(tmp_path, monkeypatch, _gen_style(doc))


def test_nested_objects_inside_points(tmp_path, monkeypatch):
    """A '}' that closes a value nested in a point is never a cut."""
    doc = _doc("laminar")
    for i, p in enumerate(doc["points"]):
        p["extra"] = {"a": {"b": i, "c": [{"d": {}}, {}]}, "e": [[{}]] * (i % 4)}
    _same(tmp_path, monkeypatch, _compact(doc))
    _same(tmp_path, monkeypatch, _gen_style(doc))


@pytest.mark.parametrize("write", [_compact, _gen_style], ids=["compact", "gen-style"])
def test_truncated(tmp_path, monkeypatch, write):
    text = write(_doc("partition"))
    rng = random.Random(5)
    for cut in sorted(rng.sample(range(len(text)), 50)):
        assert len(_same(tmp_path, monkeypatch, text[:cut])) == 2


@pytest.mark.parametrize("old, new", [
    ("}]", "},]"),  # a trailing comma in points
    ("}]", "} , ]"),
    ("}}", "},}"),  # a trailing comma in the top-level object
    ('"points":[', '"points":[,'),
    ('"points":[', '"points":['),  # unchanged: a control
    ("}]", "}]]"),
    ("}]", "}}]"),
    ("},{", "}{"),
    ("},{", "},,{"),
])
def test_bad_separators(tmp_path, monkeypatch, old, new):
    doc = _doc("cardinality")
    doc["meta"] = {"x": 1}
    text = _compact(doc)
    assert old in text
    _same(tmp_path, monkeypatch, text.replace(old, new))


def test_trailing_text(tmp_path, monkeypatch):
    text = _compact(_doc("cardinality"))
    for tail in ("", " ", "\n\n", "x", "{}", " ,", "]"):
        _same(tmp_path, monkeypatch, text + tail)


def test_duplicate_points_keys(tmp_path, monkeypatch):
    """The last 'points' wins, whichever of them are arrays, bad or good."""
    good = _compact(_doc("cardinality")["points"])
    bad = _compact([{"id": 0, "coords": [1.0, 2.0, 3.0, 4.0]}, 5])
    cons = '"constraint":{"type":"cardinality","k":3}'
    for first, second in itertools.product([good, bad, "5", "null", "[]"], repeat=2):
        _same(tmp_path, monkeypatch, '{"dim":4,"points":%s,%s,"points":%s}' % (first, cons, second))


@pytest.mark.parametrize("entry", [5, "x", None, [], [1, 2], {}, {"id": 3}, {"coords": [0.0, 1.0, 2.0]},
                                   {"ID": 0, "coords": [0.0, 1.0, 2.0]}])
def test_bad_entry_at_a_random_row(tmp_path, monkeypatch, entry):
    doc = _doc("partition")
    rng = random.Random(repr(entry))
    for row in sorted(rng.sample(range(len(doc["points"])), 3)) + [0, len(doc["points"]) - 1]:
        bad = dict(doc, points=doc["points"][:row] + [entry] + doc["points"][row + 1:])
        assert len(_same(tmp_path, monkeypatch, _compact(bad))) == 2


@pytest.mark.parametrize("value", [
    "1.0", None, True, False, 1, 0, 2**70, 2**64, 2**63, -2**63 - 1, 10**120, 1e308, math.nan, math.inf, -math.inf,
    [1.0], {"a": 1}, [],
], ids=repr)
def test_coordinate_values(tmp_path, monkeypatch, value):
    """One coordinate of one point replaced, at several rows; also every coordinate of every point, at dim and one short."""
    doc = _doc("partition")
    for row in (0, 7, len(doc["points"]) - 1):
        pts = [dict(p, coords=list(p["coords"])) for p in doc["points"]]
        pts[row]["coords"][1] = value
        _same(tmp_path, monkeypatch, _compact(dict(doc, points=pts)))
    for width in (doc["dim"], doc["dim"] - 1):
        pts = [dict(p, coords=[value] * width) for p in doc["points"]]
        _same(tmp_path, monkeypatch, _compact(dict(doc, points=pts)))


def test_mixed_coordinate_types_across_slices(tmp_path, monkeypatch):
    """Ints, bools, huge ints and floats in different points, so slices convert to different dtypes first."""
    doc = _doc("cardinality")
    kinds = [lambda c: c, lambda c: [int(round(v)) for v in c], lambda c: [v > 0 for v in c],
             lambda c: [2**64] + c[1:], lambda c: [2**63] + c[1:], lambda c: [-1] + c[1:]]
    rng = random.Random(9)
    for _ in range(5):
        pts = [dict(p, coords=rng.choice(kinds)(p["coords"])) for p in doc["points"]]
        _same(tmp_path, monkeypatch, _compact(dict(doc, points=pts)))


@pytest.mark.parametrize("change", ["short", "long", "all-short", "scalar", "nested", "string"])
def test_ragged_rows(tmp_path, monkeypatch, change):
    doc = _doc("partition")
    rng = random.Random(change)
    rows = [rng.randrange(len(doc["points"])) for _ in range(2)]
    pts = [dict(p) for p in doc["points"]]
    for i, p in enumerate(pts):
        c = p["coords"]
        p["coords"] = {
            "short": c[:-1] if i in rows else c,
            "long": c + [0.5] if i in rows else c,
            "all-short": c[:-1],
            "scalar": c[0] if i in rows else c,
            "nested": [c] if i in rows else c,
            "string": "abc" if i in rows else c,
        }[change]
    _same(tmp_path, monkeypatch, _compact(dict(doc, points=pts)))


@pytest.mark.parametrize("field, value", [
    ("id", "7"), ("id", 1.0), ("id", True), ("id", -1), ("id", 2**63), ("id", 2**70), ("id", None), ("id", 3),
    ("group", -1), ("group", "a"), ("group", 1.5), ("group", True), ("group", 2**64), ("group", [0]),
])
def test_ids_and_groups(tmp_path, monkeypatch, field, value):
    doc = _doc("partition")
    for row in (0, 11, len(doc["points"]) - 1):
        pts = [dict(p) for p in doc["points"]]
        pts[row][field] = value
        _same(tmp_path, monkeypatch, _compact(dict(doc, points=pts)))


@pytest.mark.parametrize("change", [
    {"dim": 0}, {"dim": True}, {"dim": "3"}, {"dim": 65}, {"dim": 4}, {"points": {}}, {"points": "[]"},
    {"points": None}, {"constraint": None}, {"constraint": {"type": "partition", "caps": [9]}},
    {"constraint": {"type": "laminar", "sets": [{"ids": [999], "cap": 1}]}},
])
def test_document_level_faults(tmp_path, monkeypatch, change):
    doc = dict(_doc("partition"), **change)
    _same(tmp_path, monkeypatch, _compact(doc))
    for key in ("dim", "points", "constraint"):
        _same(tmp_path, monkeypatch, _compact({k: v for k, v in doc.items() if k != key}))


@pytest.mark.parametrize("text", ["[]", "5", '"x"', "null", "[{}]", "", "   ", "\ufeff{}", "{}", "{ }", "{,}",
                                  '{"a"}', '{"a":}', '{"a" 1}', '{"a":1 "b":2}', "{'a': 1}", '{"a":1}x',
                                  '{"\\ud800": 1, "points": []}', '{"points": [{"id": 0, "coords": []}]'])
def test_top_level_faults(tmp_path, monkeypatch, text):
    _same(tmp_path, monkeypatch, text)


def test_peak_memory_stays_near_the_file_size(tmp_path):
    """A 50,000-point compact instance is read with a traced peak under 2.5 times the file.

    The text read holds the bytes and the decoded text for a moment (2 times
    the file); the parsed points never exist all at once.
    """
    spec = InstanceSpec("random", 50_000, 8, 8, {"type": "partition", "caps": [2, 2, 2, 2]}, 3)
    path = tmp_path / "big.json"
    path.write_text(_compact(instance_to_json(*random_instance(spec))))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        points, _, _ = cli._load_instance(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(points) == 50_000 and np.isfinite(points.coords).all()
    assert peak < 2.5 * size, (peak, size)
