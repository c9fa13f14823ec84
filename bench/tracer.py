"""Span tracer that wraps siou's public functions from outside the package.

Tracing replaces each public function (the names in a module's
``__all__``) in every ``siou`` module namespace that holds it, so calls
made through ``from .x import f`` bindings are seen too. Each wrapped
call records a span: name, start, end, parent span and thread. Scalar
functions called in tight loops only count calls, because timing them
would swamp the trace. Spans and counters stay in per-thread memory and
are merged when the run ends.

A span opened on a thread with no open span of its own (a worker of
``verify.run_suite``'s pool) takes as parent the innermost open span of the
thread that installed the tracer; that thread is the one that started the
pool.

Nothing here runs unless :func:`installed` is entered: with tracing off every
``siou`` attribute stays the original object.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass

# Modules whose public functions are traced, in the order layers are reported.
LAYERS = ("cli", "simulator", "geometry", "kernel", "measures", "gaussian", "sheet", "verify")

# Scalar functions: counted, never timed.
COUNT_ONLY = frozenset({
    "kernel.cov_stationary", "kernel.cov_dirac", "kernel.mean_dirac", "kernel.transition_density",
    "measures.measure_rect", "measures.measure_union", "measures.measure_symdiff", "measures.measure_diff",
    "verify.stationary_covariance", "verify.sign_flipped_covariance",
})


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ThreadState:
    """One thread's open-span stack, finished spans and call counts."""

    def __init__(self, stack: list[int]):
        self.stack = stack
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}


class Tracer:
    """In-memory span and counter store shared by every wrapped function."""

    def __init__(self, observers: dict | None = None):
        # observers: qualified name -> fn(args, kwargs, result) -> dict of span attributes
        self.observers = observers or {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self.home_thread = threading.get_ident()
        self._home_stack: list[int] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(self._home_stack if threading.get_ident() == self.home_thread else [])
            with self._lock:
                self._states.append(st)
            self._local.state = st
        return st

    def count(self, name: str) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + 1

    def span_wrapper(self, name: str, fn):
        observe = self.observers.get(name)
        clock = time.perf_counter
        home = self._home_stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            stack = st.stack
            if stack:
                parent = stack[-1]
            else:
                parent = home[-1] if home else None
            sid = next(self._ids)
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = observe(args, kwargs, result) if observe is not None and result is not None else None
                st.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), attrs))

        return wrapper

    def count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def spans(self) -> list[Span]:
        with self._lock:
            return sorted((s for st in self._states for s in st.spans), key=lambda s: s.sid)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        with self._lock:
            for st in self._states:
                for k, v in st.counts.items():
                    out[k] = out.get(k, 0) + v
        return out


def siou_modules() -> list[types.ModuleType]:
    """The imported ``siou`` package and its submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "siou" or name.startswith("siou."))]


def public_functions() -> dict[str, object]:
    """Qualified name -> original function, for each traced layer's ``__all__``."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"siou.{layer}")
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                out[f"{layer}.{attr}"] = obj
    return out


def bindings() -> list[tuple[types.ModuleType, str, object]]:
    """Every (module, attribute, original) where a traced function is bound."""
    originals = {id(fn) for fn in public_functions().values()}
    return [(mod, attr, value) for mod in siou_modules()
            for attr, value in list(vars(mod).items()) if id(value) in originals]


@contextmanager
def installed(tracer: Tracer):
    """Replace every binding of a traced function with its wrapper, and restore on exit."""
    wrappers = {}
    for name, fn in public_functions().items():
        make = tracer.count_wrapper if name in COUNT_ONLY else tracer.span_wrapper
        wrappers[id(fn)] = make(name, fn)
    patched = bindings()
    for mod, attr, original in patched:
        setattr(mod, attr, wrappers[id(original)])
    try:
        yield
    finally:
        for mod, attr, original in patched:
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# Span arithmetic


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanIndex:
    """Parent/child lookups and self/total time over a finished span list."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.sid: s for s in self.spans}
        self.children: dict[int, list[Span]] = {}
        self.by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            self.by_name.setdefault(s.name, []).append(s)
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def self_time(self, span: Span) -> float:
        kids = self.children.get(span.sid, [])
        return span.duration - covered(((k.start, k.end) for k in kids), span.start, span.end)

    def self_s(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.named(name))

    def total_s(self, name: str) -> float:
        """Summed duration of the calls to ``name`` not nested inside another call to it."""
        out = 0.0
        for s in self.named(name):
            p = self.by_id.get(s.parent)
            while p is not None and p.name != name:
                p = self.by_id.get(p.parent)
            if p is None:
                out += s.duration
        return out

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def attr_sum(self, name: str, key: str) -> float:
        return sum((s.attrs or {}).get(key, 0) for s in self.named(name))


def to_records(spans) -> list[list]:
    return [[s.sid, s.name, s.start, s.end, s.parent, s.thread, s.attrs] for s in spans]


def from_records(records) -> list[Span]:
    return [Span(*r) for r in records]
