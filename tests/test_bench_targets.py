"""The benchmark's traced pass wraps detmax attributes by name (``bench/layers.py``).

A wrap target that no longer exists is skipped, and every per-layer metric
read from it drops out of the benchmark's report, so a rename inside
``src/`` must come with a matching change under ``bench/``.  This reads
``bench/`` and changes nothing there.
"""

from pathlib import Path

import numpy as np

from detmax import PartitionConstraint, PointSet, coreset, geometry, harness, localsearch

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_wrap_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    targets = layers.targets()
    assert targets
    assert [t.label for t in targets if not hasattr(t.owner, t.attr)] == []


def test_a_tiered_peel_scores_through_the_localsearch_global(monkeypatch):
    # the traced pass counts local search's log-dets at localsearch.logdet_psd_batch;
    # a block large enough for a tier must send every one through it, and the
    # same ones as the whole block, since both score the same histories
    calls = []
    real = localsearch.logdet_psd_batch

    def counting(mats, **kw):
        calls.append(len(mats))
        return real(mats, **kw)

    def elsewhere(*args, **kw):
        raise AssertionError("a log-det bypassed localsearch.logdet_psd_batch")

    monkeypatch.setattr(localsearch, "logdet_psd_batch", counting)
    monkeypatch.setattr(geometry, "logdet_psd_batch", elsewhere)
    X = np.random.default_rng(1).standard_normal((2 * localsearch.TIER_FLOOR, 8))
    ids = np.arange(len(X))
    assert localsearch.tier_of(*localsearch.gather(X, ids), 8) is not None
    tiered = coreset._peel(ids, X, ids, 4, 8, 1.01)
    counted = list(calls)
    calls.clear()
    monkeypatch.setattr(localsearch, "TIER_FLOOR", len(X))
    assert coreset._peel(ids, X, ids, 4, 8, 1.01) == tiered
    assert counted and calls == counted


def test_a_pipeline_reaches_every_benchmark_wrap(monkeypatch):
    # the traced pass reads its per-layer metrics from these attributes; a run
    # on dense ids whose part groups hold more than TIER_FLOOR points (so each
    # block builds a tier) must reach every one, build_coreset once per part
    calls = {}

    def counting(owner, attr):
        real = getattr(owner, attr)

        def wrapped(*args, **kw):
            calls[attr] = calls.get(attr, 0) + 1
            return real(*args, **kw)
        monkeypatch.setattr(owner, attr, wrapped)

    for owner, attr in ((harness, "build_coreset"), (harness, "compose"), (harness, "solve_on_coreset"),
                        (localsearch, "logdet_psd_batch")):
        counting(owner, attr)
    n = 2 * (localsearch.TIER_FLOOR + 100)
    ids = np.arange(n)
    points = PointSet.from_arrays(4, ids, np.random.default_rng(2).standard_normal((n, 4)), ids % 2)
    constraint = PartitionConstraint.from_labels((3, 3), ids, ids % 2)
    rep = harness.run_distributed(points, constraint, 3, 0, split="by-group", oracle="skip")
    assert [p["size"] for p in rep.parts] == [n // 2, n // 2, 0]
    assert calls["build_coreset"] == 2 and calls["compose"] == calls["solve_on_coreset"] == 1
    assert calls["logdet_psd_batch"] > 0, calls
