"""Spans and counters recorded at the names through which detmax modules call each other.

A ``Tracer`` replaces module or class attributes with wrappers for the
duration of a ``with tracer.installed(targets):`` block and puts the
originals back on exit.  Nothing under ``src/`` changes.  A wrapper records
a span (name, start, end, parent span) and a call count; ``observe``
callbacks add counts measured at the same boundary (ids looked up, matrices
factored, swaps accepted).  Spans and counts live in per-thread buffers,
because ``run_distributed`` builds its parts on pool threads, and are
drained after each pipeline run.

A target that does not exist is not created: it is listed in ``absent`` so
that a refactor which renames a boundary shows up as a missing layer, not
as a layer that quietly reads 0.
"""

import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    ``owner`` is a module or class, ``attr`` the attribute name and ``name``
    the span name.  ``kind`` is "span" (timed, counted), "count" (counted
    only, for calls too small and too many to time) or "generator" (the
    call returns an iterator, which the wrapper drains inside the span and
    hands on as an iterator over the drained items; every caller in the
    pipeline drains it at once anyway).  ``observe(counts, args, result)``
    adds boundary counts after a call, and ``keep`` stores (args, result)
    for the correctness checks.
    """

    owner: object
    attr: str
    name: str
    kind: str = "span"
    observe: object = None
    keep: bool = False

    @property
    def label(self):
        mod = getattr(self.owner, "__module__", None) if isinstance(self.owner, type) else None
        owner = "%s.%s" % (mod, self.owner.__name__) if mod else self.owner.__name__
        return "%s.%s" % (owner, self.attr)


@dataclass
class Record:
    """What one drained pipeline or set-up run left in the buffers."""

    spans: list  # (span id, name, start, end, parent id)
    counts: Counter
    kept: dict = field(default_factory=dict)  # span name -> [(args, result)]

    def total(self, name):
        return sum(end - start for _, n, start, end, _ in self.spans if n == name)

    def durations(self, name):
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def self_time(self, name):
        """Span time of ``name`` minus the part of it that its child spans cover."""
        children = defaultdict(list)
        for _, _, start, end, parent in self.spans:
            children[parent].append((start, end))
        out = 0.0
        for sid, n, start, end, _ in self.spans:
            if n == name:
                out += (end - start) - _covered(children.get(sid, ()))
        return out


def _covered(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    def __init__(self):
        self.absent = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._buffers = []
        self._ticks = {}
        self._root = None

    def _buf(self):
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = {"spans": [], "counts": Counter(), "kept": defaultdict(list), "stack": []}
            self._tls.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _open(self):
        buf = self._buf()
        stack = buf["stack"]
        sid = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(sid)
        return buf, sid, parent

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself; pool-thread spans hang under it."""
        buf, sid, parent = self._open()
        outer_root = self._root
        if parent is None:
            self._root = sid
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            buf["stack"].pop()
            buf["spans"].append((sid, name, start, end, parent))
            self._root = outer_root

    def drain(self):
        """Hand over and clear everything recorded since the last drain."""
        spans, counts, kept = [], Counter(), defaultdict(list)
        with self._lock:
            for buf in self._buffers:
                spans += buf["spans"]
                counts.update(buf["counts"])
                for key, items in buf["kept"].items():
                    kept[key] += items
                buf["spans"].clear()
                buf["counts"].clear()
                buf["kept"].clear()
            for name, tick in self._ticks.items():
                counts[name] += tick.take()
        spans.sort(key=lambda s: s[2])
        return Record(spans, counts, dict(kept))

    @contextmanager
    def installed(self, targets):
        undo = []
        try:
            for target in targets:
                if not hasattr(target.owner, target.attr):
                    if target not in self.absent:
                        self.absent.append(target)
                    continue
                orig = getattr(target.owner, target.attr)
                setattr(target.owner, target.attr, self._wrapper(target, orig))
                undo.append((target.owner, target.attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def _wrapper(self, target, orig):
        name = target.name
        if target.kind == "count":
            bump = self._tick(name).bump

            def counted(*args, **kwargs):
                bump()
                return orig(*args, **kwargs)
            return counted

        def timed(*args, **kwargs):
            buf, sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                if target.kind == "generator":
                    result = list(result)
            finally:
                end = time.perf_counter()
                buf["stack"].pop()
                buf["spans"].append((sid, name, start, end, parent))
            counts = buf["counts"]
            counts[name] += 1
            if target.kind == "generator":
                counts[name + ".yielded"] += len(result)
                result = iter(result)
            if target.observe is not None:
                target.observe(counts, args, result)
            if target.keep:
                buf["kept"][name].append((args, result))
            return result
        return timed

    def _tick(self, name):
        with self._lock:
            return self._ticks.setdefault(name, _Tick())


class _Tick:
    """A call counter that pool threads bump without a lock.

    ``itertools.count`` advances atomically, which a ``+= 1`` on shared
    state does not.  ``take`` runs at drain time, when no wrapped call is
    running; its own read advances the count once, which it skips.
    """

    def __init__(self):
        self._count = itertools.count()
        self.bump = self._count.__next__
        self._taken = 0

    def take(self):
        """Calls counted since the last take."""
        now = next(self._count)
        calls = now - self._taken
        self._taken = now + 1
        return calls
