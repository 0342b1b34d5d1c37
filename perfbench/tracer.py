"""Span tracer that times calls into the eadforecast package from outside it.

A Tracer replaces module attributes with wrappers. Each call through a
wrapper records one span: its name, start and end (perf_counter seconds),
the index of the enclosing span, and optional metadata computed from the
call's arguments and result. Spans stay in memory until the run ends.

A target that does not exist (a module or attribute removed by a later
refactor) is recorded in ``absent`` and skipped; the layers it fed are then
reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1  # index into Tracer.spans; -1 at top level
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True  # False: wrappers call straight through
        self.absent: list[str] = []
        self._open: list[int] = []
        self._children_named: dict[tuple[int, str], int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        # A call that raised may leave inner spans open; close them too.
        while self._open and self._open[-1] != idx:
            self.spans[self._open.pop()].end = self.spans[idx].end
        if self._open:
            self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around code in the benchmark itself."""
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, target: str, names, meta=None) -> bool:
        """Replace ``module.attr`` with a timing wrapper.

        ``names`` is a span name, or a sequence of names given to the first,
        second, ... call under the same parent span (the last name repeats):
        the two LSTM layers run through one function in a fixed order.
        ``meta(args, kwargs, result)`` returns a dict stored on the span; an
        exception inside it is recorded, never raised into the program.
        Returns False, and records the target as absent, when it is missing.
        """
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.absent.append(target)
            return False
        original = getattr(module, attr, None)
        if not callable(original):
            self.absent.append(target)
            return False
        seq = (names,) if isinstance(names, str) else tuple(names)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            parent = tracer._open[-1] if tracer._open else -1
            key = (parent, seq[0])
            nth = tracer._children_named.get(key, 0)
            tracer._children_named[key] = nth + 1
            idx = tracer.open(seq[min(nth, len(seq) - 1)])
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if meta is not None:
                try:
                    tracer.spans[idx].meta.update(meta(args, kwargs, result))
                except Exception as exc:  # metadata is best effort; never break the program
                    tracer.spans[idx].meta["meta_error"] = repr(exc)
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))
        return True

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- queries -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def within(self, ancestor_name: str) -> list[bool]:
        """For each span, whether some enclosing span has the given name."""
        inside = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            # Parents always precede children, so one forward pass suffices.
            p = s.parent
            inside[i] = p >= 0 and (self.spans[p].name == ancestor_name or inside[p])
        return inside
