"""Breadth-first explicit-state model checking (the TLC substitute).

:class:`BFSChecker` keeps the original seed API -- breadth-first
exploration with minimal-depth counterexamples (§4.4), invariants checked
on every distinct reachable state, state constraints, stop-at-first vs
run-to-completion modes, budgets and state masking (§3.5.2) -- but since
the engine refactor it is a thin compatibility wrapper over
:class:`repro.checker.engine.ExplorationEngine` with ``strategy="bfs"``.

The engine deduplicates by 64-bit fingerprint instead of storing full
:class:`~repro.tla.state.State` objects, evaluates invariants once per
distinct state and short-circuits guards via declared read sets.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.checker.engine import ExplorationEngine
from repro.checker.result import CheckResult
from repro.tla.spec import Specification
from repro.tla.state import State


class BFSChecker:
    """Breadth-first search over the state graph of a specification.

    Parameters
    ----------
    spec:
        The specification to check.
    max_states:
        Stop after this many distinct states (None = unbounded).
    max_time:
        Wall-clock budget in seconds (None = unbounded).
    max_depth:
        Do not explore beyond this BFS depth (None = unbounded).
    violation_limit:
        In run-to-completion mode, stop after this many violations.
    stop_at_first:
        Stop as soon as any invariant violation is found (Table 5a mode).
    mask:
        Optional predicate; states where it returns True are treated as
        already-known bad states: they are neither reported nor expanded.
    """

    def __init__(
        self,
        spec: Specification,
        max_states: Optional[int] = None,
        max_time: Optional[float] = None,
        max_depth: Optional[int] = None,
        violation_limit: int = 10_000,
        stop_at_first: bool = True,
        mask: Optional[Callable[[State], bool]] = None,
    ):
        self.spec = spec
        self.max_states = max_states
        self.max_time = max_time
        self.max_depth = max_depth
        self.violation_limit = violation_limit
        self.stop_at_first = stop_at_first
        self.mask = mask

    def run(self) -> CheckResult:
        return ExplorationEngine(
            self.spec,
            strategy="bfs",
            max_states=self.max_states,
            max_time=self.max_time,
            max_depth=self.max_depth,
            violation_limit=self.violation_limit,
            stop_at_first=self.stop_at_first,
            mask=self.mask,
        ).run()


def check(
    spec: Specification,
    stop_at_first: bool = True,
    **kwargs,
) -> CheckResult:
    """Convenience wrapper: run a BFS check with keyword budgets."""
    return BFSChecker(spec, stop_at_first=stop_at_first, **kwargs).run()
