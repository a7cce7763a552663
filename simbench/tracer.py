"""Spans recorded from outside the program, around calls into its layers.

The benchmark never edits ``repro``: a traced run replaces a layer's entry
point (a module function, wherever it was imported, or a class method) by a
wrapper that records ``(name, start, end, parent, request, thread)`` and
calls the original.  Spans stay in memory and are written out when the run
ends.  Untraced runs install no wrapper at all.

Clock: ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, one clock for
every process on the machine, so server and worker spans line up with the
client's timestamps.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

from benchstats import union_length

#: Span record fields, in order.
NAME, START, END, PARENT, REQUEST, THREAD = range(6)

Label = Union[str, Callable[[tuple, dict], Optional[str]]]


class Tracer:
    """In-memory span and counter recorder with switchable wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: Wrappers record only while this is true (lets one run alternate
        #: traced and untraced requests to measure the tracing overhead).
        self.enabled = False
        #: Label stamped on every span opened from now on (a request id).
        self.request: Any = None
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           stack[-1] if stack else -1, self.request,
                           threading.get_ident()])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def add_span(self, name: str, start: float, end: float,
                 request: Any = None) -> None:
        """Record a span measured elsewhere (e.g. a future's lifetime)."""
        self.spans.append([name, start, end, -1, request, 0])

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # instrumentation
    # ------------------------------------------------------------------ #
    def wrap(self, function: Callable, label: Label, *,
             on_result: Optional[Callable[[tuple, Any], None]] = None
             ) -> Callable:
        """``function`` behind a span; ``label`` may pick the name per call
        (returning ``None`` skips the span for that call)."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            name = label(args, kwargs) if callable(label) else label
            if name is None:
                return function(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def instrument_function(self, module, attr: str, label: Label,
                            **options) -> None:
        """Wrap ``module.attr`` in every loaded ``repro`` module that holds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, label, **options)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)

    def instrument_method(self, cls, attr: str, label: Label,
                          **options) -> None:
        """Wrap the method ``attr`` that ``cls`` itself defines."""
        setattr(cls, attr, self.wrap(cls.__dict__[attr], label, **options))

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)},
                      handle)

    @classmethod
    def load(cls, path) -> "Tracer":
        tracer = cls()
        with open(path) as handle:
            payload = json.load(handle)
        tracer.spans = payload["spans"]
        tracer.counts = Counter(payload["counts"])
        return tracer


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "_Span":
        if self.tracer.enabled:
            self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *_exc) -> None:
        if self.index >= 0:
            self.tracer.close(self.index)


# --------------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------------- #
class SpanIndex:
    """The spans of one process with parent/child links."""

    def __init__(self, spans: Sequence[list]):
        self.spans = list(spans)
        self.parent: List[int] = [span[PARENT] for span in self.spans]
        self.children: List[List[int]] = [[] for _ in self.spans]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                self.children[parent].append(index)

    def named(self, name: str, *, outermost: bool = True) -> List[int]:
        """Spans called ``name``; by default only those not nested in another
        span of the same name (a recursive call is counted once)."""
        found = []
        for index, span in enumerate(self.spans):
            if span[NAME] != name or span[END] is None:
                continue
            if outermost and self._has_ancestor(index, name):
                continue
            found.append(index)
        return found

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.parent[index]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.parent[parent]
        return False

    def interval(self, index: int):
        span = self.spans[index]
        return span[START], span[END]

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span[END] - span[START]

    def descendants(self, index: int, name: str) -> List[int]:
        found, todo = [], list(self.children[index])
        while todo:
            child = todo.pop()
            if self.spans[child][NAME] == name:
                found.append(child)
            else:
                todo.extend(self.children[child])
        return found

    def covered(self, index: int, names: Iterable[str]) -> float:
        """Time inside span ``index`` covered by descendants named ``names``."""
        wanted = set(names)
        intervals = [self.interval(child)
                     for name in wanted
                     for child in self.descendants(index, name)]
        return union_length(intervals, clip=self.interval(index))

    def children_covered(self, index: int) -> float:
        return union_length((self.interval(child)
                             for child in self.children[index]),
                            clip=self.interval(index))


def ms(seconds: float) -> float:
    return seconds * 1e3


__all__ = ["SpanIndex", "Tracer", "ms"]
