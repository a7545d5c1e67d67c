"""In-memory span recorder that times a program's layers from outside.

A :class:`Tracer` swaps named functions and methods for wrappers that
record one span per call: its name, start, end, the span that was open
in the same thread when it began (its parent), and the thread.  A
wrapper may also add counts taken from the call's arguments and result,
so work is counted at the boundary where it happens.  Spans stay in
memory until :meth:`Tracer.write` dumps them as JSON lines, and
:meth:`Tracer.restore` puts every original back, so one process can run
an untraced pass and a traced pass of the same work back to back.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import threading
import time
from collections import Counter
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int  # 0 = no span was open in this thread
    name: str
    thread: int
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _assign(owner, attr: str, value) -> None:
    try:
        setattr(owner, attr, value)
    except dataclasses.FrozenInstanceError:
        # Frozen records (such as an algorithm registry entry) hold
        # functions captured at import time; swap them in place.
        object.__setattr__(owner, attr, value)


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span named ``name``."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        span_id = next(self._ids)
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, parent, name, threading.get_ident(), start, end)
            )

    def open_span_name(self) -> str | None:
        """Name of the innermost span open in this thread, if any."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def add(self, name: str, value=1) -> None:
        with self._lock:
            self.counts[name] += value

    def clear(self) -> None:
        """Forget recorded spans and counts; patches stay in place."""
        self.spans = []
        with self._lock:
            self.counts = Counter()

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``owner`` is the module, class or record that defines ``attr``.
        ``count(tracer, args, kwargs, result)`` runs after the span
        closes, so the layer's time excludes the counting.
        """
        original = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        self._patch(owner, attr, original, wrapper)

    def wrap_enter(self, owner, attr: str, name: str) -> None:
        """Record a ``name`` span around entering the context manager
        that ``owner.attr`` returns (the wait before its block runs)."""
        original = vars(owner)[attr]

        @functools.wraps(original)
        @contextlib.contextmanager
        def wrapper(*args, **kwargs):
            with contextlib.ExitStack() as stack:
                with self.span(name):
                    value = stack.enter_context(original(*args, **kwargs))
                yield value

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        _assign(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back (latest patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            _assign(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(s.seconds for s in self.named(name))

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus that of direct children.

        Children run in their parent's thread, nested inside it, so
        their durations never overlap and subtracting them leaves the
        time the parent's own code ran.
        """
        child_time: Counter = Counter()
        for s in self.spans:
            if s.parent:
                child_time[s.parent] += s.seconds
        out: Counter = Counter()
        for s in self.spans:
            out[s.name] += s.seconds - child_time[s.id]
        return dict(out)

    def covered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end)`` inside at least one span."""
        covered = 0.0
        reach = start
        for s in sorted(self.spans, key=lambda s: s.start):
            lo, hi = max(s.start, reach), min(s.end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return covered

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(s._asdict()) + "\n")
