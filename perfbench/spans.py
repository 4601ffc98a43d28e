"""Spans and counters recorded from outside the package.

A ``Tracer`` wraps public functions of ``replisize`` modules.  Each call
records a span (name, layer, start, end, parent span, run id) and may add
to named counters.  Spans stay in memory; ``layer_report`` turns them into
per-layer numbers once the measured loop has ended.

The package imports names directly (``from .bayes_factor import log_bf01``
in ``ssd``, ``predictive`` and ``cli``), so a function is patched in its
defining module *and* in every module that imported it; patching only the
definition would miss those calls.  Methods are patched on their class,
which every importer shares.

This module needs only the standard library, so the self-time arithmetic
can be tested without numpy.
"""

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run_id: str
    counted: set = field(default_factory=set)

    @property
    def duration(self):
        return self.end - self.start


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Map span id -> duration minus the part its child spans cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {s.span_id: s.duration - covered(children.get(s.span_id, ()), s.start, s.end)
            for s in spans}


class Tracer:
    """Records spans and counters for one traced run.

    Not thread-safe: the benchmark runs the package with one worker thread,
    so spans nest strictly and one stack describes the open calls.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self.enabled = False
        self._stack = []
        self._undo = []
        self.missing = []

    def _open(self, name, layer):
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter(), 0.0,
                    parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def add(self, key, value):
        """Add to counter ``key`` unless an open ancestor span already
        counted it, so a nested call into the same layer counts once."""
        if any(key in s.counted for s in self._stack[:-1]):
            return
        if self._stack:
            self._stack[-1].counted.add(key)
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, fn, name, layer, before=None, after=None):
        """Wrapper recording a span; ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` return counter increments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name, layer)
            try:
                if before is not None:
                    for key, value in before(args, kwargs).items():
                        self.add(key, value)
                result = fn(*args, **kwargs)
                if after is not None:
                    for key, value in after(args, kwargs, result).items():
                        self.add(key, value)
                return result
            finally:
                self._close(span)

        return traced

    def patch_function(self, module, attr, layer, before=None, after=None):
        """Replace ``module.attr`` and every direct import of it in the
        loaded modules of the same package."""
        mod = importlib.import_module(module)
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = self.wrap(original, f"{layer}.{attr}", layer, before, after)
        package = module.split(".")[0]
        for name, other in list(sys.modules.items()):
            if other is None or not (name == package or name.startswith(package + ".")):
                continue
            if getattr(other, attr, None) is original:
                self._undo.append((other, attr, original))
                setattr(other, attr, wrapper)

    def patch_method(self, module, cls, attr, layer, before=None, after=None):
        """Replace a method (plain or classmethod) on ``module.cls``."""
        mod = importlib.import_module(module)
        klass = getattr(mod, cls, None)
        raw = klass.__dict__.get(attr) if klass is not None else None
        if raw is None:
            self.missing.append(f"{module}.{cls}.{attr}")
            return
        name = f"{layer}.{cls}.{attr}"
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, name, layer, before, after))
        else:
            replacement = self.wrap(raw, name, layer, before, after)
        self._undo.append((klass, attr, raw))
        setattr(klass, attr, replacement)

    def unpatch(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def layer_report(spans):
    """Per-layer busy time (sum of self times) and per-name totals.

    Returns ``(busy, by_name)``: ``busy[layer]`` is the time spent in the
    layer's own code, excluding time in any child span; ``by_name[name]``
    holds ``duration`` (outermost calls of that name only, so recursion is
    not counted twice) and ``self`` (sum of self times).
    """
    own = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    busy, by_name = {}, {}
    for span in spans:
        busy[span.layer] = busy.get(span.layer, 0.0) + own[span.span_id]
        entry = by_name.setdefault(span.name, {"duration": 0.0, "self": 0.0, "calls": 0})
        entry["self"] += own[span.span_id]
        entry["calls"] += 1
        if not _has_ancestor(span, by_id, lambda a: a.name == span.name):
            entry["duration"] += span.duration
    return busy, by_name


def _has_ancestor(span, by_id, test):
    parent = span.parent
    while parent is not None:
        ancestor = by_id[parent]
        if test(ancestor):
            return True
        parent = ancestor.parent
    return False


def outermost(spans, names):
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    by_id = {s.span_id: s for s in spans}
    return [s for s in spans if s.name in names
            and not _has_ancestor(s, by_id, lambda a: a.name in names)]


def count_under(spans, names, ancestor_name):
    """Number of outermost spans named in ``names`` below a span named
    ``ancestor_name``."""
    by_id = {s.span_id: s for s in spans}
    return sum(1 for s in outermost(spans, names)
               if _has_ancestor(s, by_id, lambda a: a.name == ancestor_name))
