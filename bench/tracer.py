"""In-memory span tracer that wraps pmod's public functions from outside.

Each public function of a traced module is replaced, at every module
attribute that holds it, by a wrapper that records one span per call:
name, query id, parent span, start and end. Callers inside pmod look
their collaborators up as module globals (pmod.distance.is_interleaved,
pmod.interleave.nullspace, ...), so patching every attribute that holds
the function catches calls from inside pmod as well as from the
benchmark. A layer's self time is its span's duration minus the
durations of its direct child spans; on one thread child spans are
disjoint and lie inside the parent, so that is the part of the interval
no child covers.

Work done under paused() (the budget-0 probes that read search-space
sizes) is taken off the tracer's clock, so it lies outside every span
and outside the traced wall time.
"""

import time
from contextlib import contextmanager
from functools import wraps


class Span:
    __slots__ = ("name", "qid", "parent", "start", "end", "child", "note")

    def __init__(self, name, qid, parent, start):
        self.name = name
        self.qid = qid
        self.parent = parent
        self.start = start
        self.end = None
        self.child = 0.0
        self.note = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child


class Tracer:
    """Records spans in memory. clock is replaceable for tests."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._paused_total = 0.0
        self._paused = 0
        self.spans = []
        self._stack = []
        self._patches = []
        self.qid = None

    def now(self):
        return self._clock() - self._paused_total

    @contextmanager
    def paused(self):
        t0 = self._clock()
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1
            if not self._paused:
                self._paused_total += self._clock() - t0

    def wrap(self, name, fn, observe=None):
        """fn recording a span per call; observe(args, kwargs, result)
        runs after the span closes, paused, and its return value is
        stored as the span's note. Calls made while paused record
        nothing."""
        @wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.qid, parent, self.now())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = self.now()
                if parent is not None:
                    parent.child += span.duration
            if observe is not None:
                with self.paused():
                    span.note = observe(args, kwargs, result)
            return result
        return traced

    def install(self, namespaces, targets, observers=None):
        """Replace every attribute of every namespace that holds one of
        targets (a dict span name -> function) by its wrapper."""
        observers = observers or {}
        wrapper_of = {id(fn): (fn, self.wrap(name, fn, observers.get(name)))
                      for name, fn in targets.items()}
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                fn, w = wrapper_of.get(id(value), (None, None))
                if value is fn:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, w)

    def uninstall(self):
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    def totals(self):
        """name -> (calls, summed self time)."""
        out = {}
        for s in self.spans:
            calls, self_t = out.get(s.name, (0, 0.0))
            out[s.name] = (calls + 1, self_t + s.self_time)
        return out
