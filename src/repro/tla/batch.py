"""Array-backed frontier batches for the compiled successor kernels.

The kernels sweep a whole BFS round (or a DFS / walk step of size one) in
struct-of-arrays form: parallel columns of fingerprints, value tuples and
inherited known-disabled bitmasks.  ``State`` objects are *not* part of a
batch — kernels materialize them lazily, only when an action guard or an
invariant actually needs attribute access (memo misses), or when a
trace/violation has to be reported.  Successor fingerprints come from
fingerprint deltas the kernel folds at memo-miss time, so a batch carries
no per-slot digests.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.tla.state import Schema, State


class FrontierBatch:
    """A struct-of-arrays view over frontier entries.

    Columns (all parallel, one row per pending state):

    - ``fps``: 64-bit state fingerprints,
    - ``values``: raw ``State.values`` tuples,
    - ``knowns``: inherited known-disabled bitmasks (PR-5 ``affects``
      propagation).
    """

    __slots__ = ("fps", "values", "knowns")

    def __init__(
        self,
        fps: List[int],
        values: List[Tuple[Any, ...]],
        knowns: List[int],
    ):
        self.fps = fps
        self.values = values
        self.knowns = knowns

    @classmethod
    def from_entries(cls, entries) -> "FrontierBatch":
        """Build a batch from ``(fp, payload, known)`` frontier entries,
        where ``payload`` is either a ``State`` or its raw values tuple."""
        fps: List[int] = []
        values: List[Tuple[Any, ...]] = []
        knowns: List[int] = []
        for fp, payload, known in entries:
            fps.append(fp)
            values.append(payload.values if isinstance(payload, State) else payload)
            knowns.append(known)
        return cls(fps, values, knowns)

    @classmethod
    def single(cls, fp: int, values: Tuple[Any, ...], known: int) -> "FrontierBatch":
        """A batch of one — DFS pops and random-walk steps reuse the batch
        kernels without building intermediate lists at every step."""
        return cls([fp], [values], [known])

    def state(self, i: int, schema: Schema) -> State:
        """Materialize row ``i`` as a full ``State`` (trace reporting)."""
        return State(schema, self.values[i])

    def __len__(self) -> int:
        return len(self.fps)

    def __repr__(self) -> str:
        return f"FrontierBatch(n={len(self.fps)})"
