"""Explicit-state model checkers built on the unified exploration engine:
BFS (the TLC substitute), DFS and iterative deepening, random walk,
coverage, shrinking and rendering.  Every exploration runs in one
process."""

from repro.checker.bfs import BFSChecker, check
from repro.checker.coverage import CoverageReport, measure_coverage
from repro.checker.dfs import DFSChecker, IterativeDeepeningChecker
from repro.checker.engine import (
    STRATEGIES,
    CompiledSpec,
    ExplorationEngine,
    compiled_for,
    explore,
)
from repro.checker.fingerprint import (
    Fingerprinter,
    IncrementalFingerprinter,
    fingerprint_state,
)
from repro.checker.pretty import format_state, format_trace
from repro.checker.random_walk import RandomWalker
from repro.checker.result import CheckResult, Violation
from repro.checker.shrink import (
    TraceOracle,
    shrink_trace,
    shrink_trace_oracle,
    violation_predicate,
)
from repro.checker.trace import Trace, traces_project_equal

__all__ = [
    "BFSChecker",
    "CheckResult",
    "CompiledSpec",
    "CoverageReport",
    "DFSChecker",
    "ExplorationEngine",
    "Fingerprinter",
    "IncrementalFingerprinter",
    "IterativeDeepeningChecker",
    "RandomWalker",
    "STRATEGIES",
    "compiled_for",
    "Trace",
    "TraceOracle",
    "Violation",
    "check",
    "explore",
    "fingerprint_state",
    "format_state",
    "format_trace",
    "measure_coverage",
    "shrink_trace",
    "shrink_trace_oracle",
    "traces_project_equal",
    "violation_predicate",
]
