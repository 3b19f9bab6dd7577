"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` swaps public functions and methods of the program for
wrappers that record one :class:`Span` per call -- name, start, end and
the span that was open when the call began -- and puts the originals
back on :meth:`Tracer.restore`.  Spans stay in memory until the traced
pass ends; ``run.layer_metrics`` reduces them to per-layer metrics.

Only functions of the program are wrapped.  Wrapping a stdlib function
such as ``copy.deepcopy`` would also intercept its recursive calls and
inflate exactly the time it is meant to attribute.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Innermost open span -> the caller context a mapped implementation step
#: is charged to (``impl.step_s.<context>``).
STEP_CONTEXTS = {
    "remix.trace_validation.explore": "probe",
    "remix.coordinator.replay": "replay",
    "remix.trace_validation.validate": "validate",
}


@dataclasses.dataclass
class Span:
    name: str
    #: Index of the enclosing span in :attr:`Tracer.spans`; -1 at the top.
    parent: int
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus named counters and time sums."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._open: List[int] = []
        self._patches: List[tuple] = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        self._open.pop()
        self.spans[index].end = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def current(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self.spans[self._open[-1]].name if self._open else None

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr`` (a module function or a class's method) until
        :meth:`restore`; ``on_result`` sees each call's return value."""
        original = getattr(owner, attr)
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            index = enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                leave(index)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def time_mapped_steps(self, mapping_cls: Any) -> None:
        """Time the implementation steps that ``mapping_cls.lookup``
        hands out, charged to the caller context in
        :data:`STEP_CONTEXTS` (``impl.step_s.*`` and ``impl.steps.*``).

        A step is cheap, so no span is recorded per call."""
        original = mapping_cls.lookup
        timed: Dict[int, tuple] = {}  # id(mapped) -> (mapped, timed copy)
        counters, current = self.counters, self.current

        def step_timer(step: Callable) -> Callable:
            def run(ensemble, label):
                context = STEP_CONTEXTS.get(current(), "other")
                start = time.perf_counter()
                try:
                    return step(ensemble, label)
                finally:
                    counters["impl.step_s." + context] += time.perf_counter() - start
                    counters["impl.steps." + context] += 1

            return run

        def lookup(mapping, label):
            mapped = original(mapping, label)
            if mapped is None:
                return None
            entry = timed.get(id(mapped))
            if entry is None:
                entry = (mapped, dataclasses.replace(mapped, step=step_timer(mapped.step)))
                timed[id(mapped)] = entry
            return entry[1]

        mapping_cls.lookup = lookup
        self._patches.append((mapping_cls, "lookup", original))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ reductions

    def total(self, name: str) -> float:
        return sum(span.seconds for span in self.spans if span.name == name)

    def durations(self, name: str) -> List[float]:
        return [span.seconds for span in self.spans if span.name == name]

    def outermost_total(self, name: str) -> float:
        """Time in ``name`` spans not nested inside another ``name`` span."""
        total = 0.0
        for span in self.spans:
            if span.name == name and not self._inside(span, name):
                total += span.seconds
        return total

    def _inside(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def coverage(self, roots: Callable[[str], bool]) -> tuple:
        """``(wall, covered)``: summed time of the root spans selected by
        ``roots`` and of their direct child spans, the top-level layer
        calls."""
        root_ids = {
            i for i, span in enumerate(self.spans) if span.parent < 0 and roots(span.name)
        }
        wall = sum(self.spans[i].seconds for i in root_ids)
        covered = sum(span.seconds for span in self.spans if span.parent in root_ids)
        return wall, covered
