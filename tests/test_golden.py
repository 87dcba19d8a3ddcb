"""Selections and run reports pinned to recorded outputs.

Acceptance check c10 only shows that one version reruns identically; these
fixtures show that a refactor keeps the selections themselves.  The pinned
values live in ``golden_outputs.json`` next to this file.  Timings are
dropped from the run report, everything else must match exactly.
"""

import json
from pathlib import Path

import pytest

from detmax import InstanceSpec, build_coreset, random_instance, run_distributed

GOLDEN = json.loads(Path(__file__).with_name("golden_outputs.json").read_text())

FIXTURES = {
    "partition-lowk": InstanceSpec(
        "random", 30, 4, 4, {"type": "partition", "caps": [2, 1, 1]}, 11
    ),
    "partition-highk": InstanceSpec(
        "random", 30, 2, 4, {"type": "partition", "caps": [2, 1, 1]}, 12
    ),
    "cardinality-lowk": InstanceSpec(
        "random", 30, 4, 3, {"type": "cardinality", "k": 3}, 13
    ),
    "cardinality-highk": InstanceSpec(
        "random", 30, 2, 3, {"type": "cardinality", "k": 3}, 14
    ),
    "laminar": InstanceSpec(
        "random", 26, 3, 5,
        {"type": "laminar", "sets": [
            {"ids": list(range(10)), "cap": 1},
            {"ids": list(range(20)), "cap": 2},
            {"ids": list(range(20, 24)), "cap": 1},
        ]},
        15,
    ),
}


def observe(spec):
    points, constraint = random_instance(spec)
    cs = build_coreset(points, points.ids, constraint, 1.01)
    report = run_distributed(points, constraint, 2, 3).to_json()
    del report["timings"]
    return {"ids": sorted(cs.ids), "layers": cs.layer_lists(), "run": report}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_matches_pinned_output(name):
    assert observe(FIXTURES[name]) == GOLDEN[name]
