"""The benchmark's traced pass wraps detmax attributes by name (``bench/layers.py``).

A wrap target that no longer exists is skipped, and every per-layer metric
read from it drops out of the benchmark's report, so a rename inside
``src/`` must come with a matching change under ``bench/``.  This reads
``bench/`` and changes nothing there.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_wrap_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    targets = layers.targets()
    assert targets
    assert [t.label for t in targets if not hasattr(t.owner, t.attr)] == []
