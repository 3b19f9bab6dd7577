"""The unified state-space exploration engine.

:class:`ExplorationEngine` is the scheduler every checking strategy plugs
into; the legacy :class:`~repro.checker.bfs.BFSChecker` and
:class:`~repro.checker.dfs.DFSChecker` are thin wrappers over it.

Strategies
----------

``bfs``
    Layered breadth-first search.  The visited set stores 64-bit
    fingerprints (:mod:`repro.checker.fingerprint`) instead of full
    states; parent links are kept per fingerprint as compact
    ``fp -> (parent_fp, instance_index)`` integers and counterexamples are
    rebuilt by replaying the label chain from the initial state.
``dfs``
    Bounded depth-first search for a quick first violation.
``random``
    Seeded random walks that check invariants along the way.

Every strategy runs in the calling process: state-space explosion is
controlled by the grain of the specification, not by worker processes.

Successors come from one place: a batch kernel that
:mod:`repro.tla.codegen` generates per specification at compose time.
Hot-path engineering (where the >=2x over the seed checker comes from;
``incremental=False`` emits the kernel without any of the analysis-based
parts, as the memo-free reference arm for A/B soundness checks):

- invariants are evaluated once per distinct state (the seed evaluated
  them at discovery *and* again at expansion), and their verdicts are
  memoized per projection of the state onto their declared read sets
  (``Invariant.reads``);
- guard memoization: each action declares the variables its enabling
  condition reads (the paper's dependency variables, Appendix B).
  Instances sharing a read set form a group whose projection is hashed
  once per state; the memo stores the disabled-instance bitmask per
  projection value.  On top of that, an instance disabled in the parent
  whose reads miss the taken action's write set is known-disabled in
  the child without any lookup (the ``affects`` interference matrix);
- outcome memoization: per projection of the state onto an action
  group's dependency closure, the kernel stores every enabled member's
  changed slots and the fingerprint delta they cause, so a hit replays
  a successor with one XOR and never calls the action;
- memoizing on declarations is sound only when they are truthful, so a
  spec the static analyzer cannot prove (:func:`kernel_trusted`) gets
  the memo-free kernel instead;
- ``State`` objects are only materialized for memo misses, traces and
  violations;
- the cyclic garbage collector is suspended during exploration (states
  are immutable; exploration allocates millions of short-lived tuples
  that the generational GC would repeatedly scan).
"""

from __future__ import annotations

import gc
import random
import time
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.checker.fingerprint import Fingerprinter
from repro.checker.result import CheckResult, Violation
from repro.checker.trace import Trace
from repro.tla.batch import FrontierBatch
from repro.tla.codegen import CODEGEN_VERSION, emit_kernel
from repro.tla.spec import Specification
from repro.tla.state import State

#: Strategy names accepted by the engine (and the CLI ``--strategy`` flag).
STRATEGIES = ("bfs", "dfs", "random")

#: BFS rounds are swept through the kernel in chunks of this many frontier
#: entries.  Large enough to amortize batch setup, small enough that budget
#: checks between chunks keep truncated runs from over-expanding past
#: ``max_states``.
_KERNEL_CHUNK = 512

#: Lint rules that make a spec's declarations unusable as memo keys.  The
#: kernel replays memoized update bindings keyed on the dependency
#: closure, which is sound exactly when the closure declarations are
#: honest: D01 (reads outside the closure), D03 (undeclared writes),
#: D05/D07 (unresolvable / malformed declarations) and the purity rules
#: P01-P04 each break that contract.  D02/D04 (over-declaration) and D06
#: (no closure at all) are harmless: over-declared closures only widen
#: memo keys, and closure-less actions land in the never-memoized eager
#: sweep.
_TRUST_BLOCKING = frozenset({"D01", "D03", "D05", "D07", "P01", "P02", "P03", "P04"})

#: Per-action lint verdict cache, keyed on the action's code object and
#: declarations (identity-free, so recomposing a spec from the same module
#: actions -- the common case for the ZooKeeper/Raft plugins -- does not
#: re-run the analyzer).
_TRUST_CACHE: Dict[tuple, bool] = {}
_TRUST_CACHE_LIMIT = 4096


def kernel_trusted(spec: Specification) -> bool:
    """Whether the kernel may memoize on this spec's declarations.

    Runs the static analyzer (``repro lint``) over every action and
    requires zero findings for the trust-critical rules
    (:data:`_TRUST_BLOCKING`).  The verdict is cached on the spec object,
    and per-action verdicts are cached globally by code object +
    declarations, so repeated spec composition stays cheap.  Any analyzer
    failure counts as untrusted: the engine then emits the memo-free
    kernel.
    """
    verdict = getattr(spec, "_kernel_trusted", None)
    if verdict is not None:
        return verdict
    verdict = True
    schema_names = frozenset(spec.schema.names)
    analyzer = None
    try:
        from repro.analysis.declarations import check_action
        from repro.analysis.deps import SpecAnalyzer

        for action in spec.actions:
            sources = tuple(
                sorted((k, tuple(sorted(v))) for k, v in action.update_sources.items())
            )
            key = (action.fn.__code__, action.reads, action.writes, sources, schema_names)
            cached = _TRUST_CACHE.get(key)
            if cached is None:
                if analyzer is None:
                    analyzer = SpecAnalyzer()
                findings = check_action(spec.name, action, set(schema_names), analyzer)
                cached = not any(f.rule in _TRUST_BLOCKING for f in findings)
                if len(_TRUST_CACHE) >= _TRUST_CACHE_LIMIT:
                    _TRUST_CACHE.clear()
                _TRUST_CACHE[key] = cached
            if not cached:
                verdict = False
                break
    except Exception:
        verdict = False
    spec._kernel_trusted = verdict
    return verdict

#: Placeholder ``seen`` set for expansions with dedupe off (never read or
#: written then).
_UNUSED_SEEN: set = set()

#: Candidate successor record produced by :meth:`CompiledSpec.expand_batch`:
#: (instance_index, successor_values, fingerprint, child_known_disabled,
#:  violated_invariant_indices, masked, within_constraint)
Candidate = Tuple[int, Tuple[Any, ...], int, int, Tuple[int, ...], bool, bool]


class CompiledSpec:
    """A specification pre-resolved for the exploration hot path.

    Everything the per-state inner loop needs is flattened into parallel
    lists indexed by action-instance position: the pre-bound applier
    callables, trace labels, and the read/write interference matrix
    ``affects`` (bit *i* of ``affects[j]`` is set when instance *i* reads
    a variable instance *j* writes).  The generated batch kernel
    (:attr:`kernel`) binds these tables and the memo dicts.
    """

    __slots__ = (
        "spec",
        "config",
        "schema",
        "fingerprinter",
        "labels",
        "appliers",
        "actions",
        "affects",
        "guard_groups",
        "guard_group_slots",
        "guard_memos",
        "guard_stats",
        "outcome_groups",
        "outcome_group_slots",
        "outcome_memos",
        "outcome_stats",
        "direct",
        "eager",
        "ungrouped",
        "invariant_fns",
        "invariants",
        "inv_groups",
        "inv_group_slots",
        "inv_memos",
        "inv_ungrouped",
        "mask_key",
        "mask_slots",
        "mask_memo",
        "constraint_key",
        "constraint_slots",
        "constraint_memo",
        "constraint",
        "mask",
        "n_instances",
        "debug",
        "memoized",
        "kernel",
        "kernel_source",
        "expand_calls",
        "_last_adapt",
        "_shadowed_guards",
        "demoted_groups",
    )

    #: Disabled-guard memo entries kept per instance before reset.
    GUARD_MEMO_LIMIT = 1 << 18

    #: Outcome memo entries kept per dependency-closure group before
    #: reset (entries hold update tuples, so the cap is tighter than the
    #: bitmask-valued guard memo).
    OUTCOME_MEMO_LIMIT = 1 << 17

    #: Expansions between adaptive hit-rate sweeps; also the minimum
    #: per-group lookup window before a demotion verdict (small enough to
    #: shed a cold wide group early in a run, large enough that the early
    #: all-miss warmup phase cannot demote a group that is about to get
    #: hot).
    ADAPT_INTERVAL = 1024

    #: Window hit-rate floors.  A *wide* group (closure spanning more than
    #: half the schema -- the PR-5 static heuristic dropped these outright)
    #: must earn its near-unique projection keys with a decent hit rate; a
    #: narrow group's key is cheap, so it is only dropped when essentially
    #: nothing hits.
    ADAPT_WIDE_RATE = 0.10
    ADAPT_NARROW_RATE = 0.02

    def __init__(
        self,
        spec: Specification,
        fingerprinter: Optional[Fingerprinter] = None,
        mask: Optional[Callable[[State], bool]] = None,
        incremental: bool = True,
        debug: bool = False,
    ):
        self.spec = spec
        self.config = spec.config
        self.schema = spec.schema
        self.fingerprinter = fingerprinter or Fingerprinter()
        self.mask = mask
        self.debug = debug
        instances = spec.action_instances()
        self.n_instances = len(instances)
        self.labels = [inst.label for inst in instances]
        self.actions = [inst.action for inst in instances]
        appliers = []
        for inst in instances:
            kwargs = dict(inst.binding)
            appliers.append(partial(inst.action.fn, **kwargs) if kwargs else inst.action.fn)
        self.appliers = appliers
        # Every memo below is keyed on declared dependencies, so a spec
        # whose declarations the analyzer cannot prove gets the memo-free
        # layout: memoizing on a lie explores the wrong state space.
        incremental = incremental and kernel_trusted(spec)
        self.memoized = incremental
        if incremental:
            reads = [inst.action.reads for inst in instances]
            writes = [inst.action.writes for inst in instances]
            # An action with no declared reads has an *unknown* guard
            # dependency set (the Action API default), not an empty one:
            # it must be re-evaluated in every state, so every writer
            # "affects" it.  The guard memo below applies the same rule
            # (undeclared -> ungrouped).
            undeclared = 0
            for i in range(self.n_instances):
                if not reads[i]:
                    undeclared |= 1 << i
            affects = []
            for j in range(self.n_instances):
                bits = undeclared
                write_set = writes[j]
                for i in range(self.n_instances):
                    if reads[i] & write_set:
                        bits |= 1 << i
                affects.append(bits)
            # Guard memoization: an action's enabling condition depends
            # only on its declared read variables (the paper's dependency
            # variables), so a *disabled* verdict can be memoized per
            # projection of the state onto those variables.  Only the
            # disabled case is cached -- an enabled action's update may
            # read beyond the guard set, so it is always re-applied.
            # Instances sharing a read set are grouped so the projection
            # is built and hashed once per state, and the memo stores a
            # disabled-instance bitmask per projection value.
            # Outcome memoization, by dependency *closure* (Action.
            # dependency_closure: reads | writes | update_sources).  The
            # closure determines the function's entire outcome -- the
            # enabled/disabled verdict and every update value -- so the
            # memo stores, per projection of the state onto the closure,
            # the full per-instance outcome vector: the group's disabled
            # bitmask plus the raw (slot, new-value) update pairs of the
            # enabled members.  A state whose closure projection was
            # seen before (in particular: a child whose projection the
            # parent's action left untouched) inherits the verdict and
            # the memoized update bindings without re-evaluating
            # anything, turning the per-state guard sweep from
            # O(actions) into O(affected actions).
            by_closure: Dict[Tuple[int, ...], List[int]] = {}
            closure_of: Dict[int, Tuple[int, ...]] = {}
            ungrouped: List[int] = []
            # Every declared-closure instance starts memoized, however wide
            # the closure: the adaptive hit-rate monitor (_adapt) demotes
            # groups whose projections turn out near-unique at runtime,
            # replacing the old static closure > schema/2 cutoff with
            # measured evidence.
            for i, inst in enumerate(instances):
                closure = inst.action.dependency_closure()
                if closure is None:
                    ungrouped.append(i)  # unread guard: never memoized
                    continue
                idxs = spec.schema.positions(closure)
                closure_of[i] = idxs
                by_closure.setdefault(idxs, []).append(i)
            outcome_groups: List[Tuple[Callable[[tuple], Any], Tuple[int, ...]]] = []
            outcome_group_slots: List[Tuple[int, ...]] = []
            for idxs, members in by_closure.items():
                key_fn = itemgetter(*idxs) if len(idxs) > 1 else itemgetter(idxs[0])
                outcome_groups.append((key_fn, tuple(members)))
                outcome_group_slots.append(idxs)
            self.outcome_groups = outcome_groups
            self.outcome_group_slots = outcome_group_slots
            self.direct = ()
            self.ungrouped = tuple(ungrouped)
            # Narrow disabled-verdict memos, by guard read set.  A group
            # whose members all have closure == reads is fully shadowed
            # by the outcome group keyed on the identical projection, so
            # it is skipped (same key, strictly less information) -- but
            # remembered, so demoting that outcome group can re-enable it.
            by_read_set: Dict[Tuple[int, ...], List[int]] = {}
            for i, inst in enumerate(instances):
                idxs = spec.schema.positions(inst.action.reads)
                if idxs:
                    by_read_set.setdefault(idxs, []).append(i)
            groups: List[Tuple[Callable[[tuple], Any], int]] = []
            guard_group_slots: List[Tuple[int, ...]] = []
            shadowed: Dict[Tuple[int, ...], int] = {}
            for idxs, members in by_read_set.items():
                bits = 0
                for i in members:
                    bits |= 1 << i
                if all(closure_of.get(i) == idxs for i in members):
                    shadowed[idxs] = bits
                    continue
                key_fn = itemgetter(*idxs) if len(idxs) > 1 else itemgetter(idxs[0])
                groups.append((key_fn, bits))
                guard_group_slots.append(idxs)
            self.guard_groups = groups
            self.guard_group_slots = guard_group_slots
            self.guard_memos: List[dict] = [{} for _ in groups]
            self._shadowed_guards = shadowed
        else:
            everything = (1 << self.n_instances) - 1
            affects = [everything] * self.n_instances
            self.guard_groups = []
            self.guard_group_slots = []
            self.guard_memos = []
            self.outcome_groups = []
            self.outcome_group_slots = []
            self.direct = ()
            self.ungrouped = tuple(range(self.n_instances))
            self._shadowed_guards = {}
        self.affects = affects
        # Memo telemetry (--stats): per-group [misses, base_calls] cells
        # (outcome cells carry two extra window-snapshot fields for the
        # adaptive monitor).  Lookups are derived -- every expansion looks
        # every live group up exactly once, so lookups(group) ==
        # expand_calls - base_calls and only the miss branches pay an
        # increment.
        self.expand_calls = 0
        self._last_adapt = 0
        self.guard_stats: List[List[int]] = [[0, 0] for _ in self.guard_groups]
        self.outcome_stats: List[List[int]] = [
            [0, 0, 0, 0] for _ in self.outcome_groups
        ]
        self.outcome_memos: List[dict] = [{} for _ in self.outcome_groups]
        self.demoted_groups: List[dict] = []
        # Instances evaluated on every state they are not proven
        # disabled in: wide-closure instances (skippable via inherited
        # disabled bits) plus undeclared-reads instances (never
        # skippable).
        self.eager = self.direct + self.ungrouped
        self.invariants = list(spec.invariants)
        self.invariant_fns = [inv.predicate for inv in self.invariants]
        self.constraint = spec.constraint
        # Invariant verdict memoization, by declared read set (see
        # Invariant.reads).  Verdicts are pure state predicates, so both
        # the holding and the violating outcome are cacheable per
        # projection.  Invariants without (resolvable) read declarations
        # are evaluated on every state.
        inv_groups: List[Tuple[Callable[[tuple], Any], Tuple[int, ...]]] = []
        inv_group_slots: List[Tuple[int, ...]] = []
        inv_ungrouped: List[int] = []
        if incremental:
            schema_index = spec.schema._index
            by_inv_reads: Dict[Tuple[int, ...], List[int]] = {}
            for i, inv in enumerate(self.invariants):
                if inv.reads and all(name in schema_index for name in inv.reads):
                    idxs = tuple(sorted(schema_index[name] for name in inv.reads))
                    by_inv_reads.setdefault(idxs, []).append(i)
                else:
                    inv_ungrouped.append(i)
            for idxs, group_members in by_inv_reads.items():
                key_fn = itemgetter(*idxs) if len(idxs) > 1 else itemgetter(idxs[0])
                inv_groups.append((key_fn, tuple(group_members)))
                inv_group_slots.append(idxs)
        else:
            inv_ungrouped = list(range(len(self.invariants)))
        self.inv_groups = inv_groups
        self.inv_group_slots = inv_group_slots
        self.inv_memos: List[dict] = [{} for _ in inv_groups]
        self.inv_ungrouped = tuple(inv_ungrouped)
        # Mask / constraint verdict memoization, by declared read set
        # (``fn.reads``, mirroring Invariant.reads).  Both are pure state
        # predicates; the ZK-4394 mask reads only ``errors`` and the epoch
        # constraint only ``accepted_epoch``, so their verdicts replay
        # from a one-slot projection -- without this, classification
        # builds a State and calls both predicates for *every* candidate.
        self.mask_key: Optional[Callable[[tuple], Any]] = None
        self.mask_slots: Tuple[int, ...] = ()
        self.mask_memo: dict = {}
        self.constraint_key: Optional[Callable[[tuple], Any]] = None
        self.constraint_slots: Tuple[int, ...] = ()
        self.constraint_memo: dict = {}
        if incremental:
            schema_index = spec.schema._index
            for fn, attr in ((mask, "mask"), (self.constraint, "constraint")):
                declared = getattr(fn, "reads", None)
                if declared and all(name in schema_index for name in declared):
                    idxs = tuple(sorted(schema_index[name] for name in declared))
                    setattr(self, f"{attr}_slots", idxs)
                    setattr(
                        self,
                        f"{attr}_key",
                        itemgetter(*idxs) if len(idxs) > 1 else itemgetter(idxs[0]),
                    )
        self.kernel: Callable
        self.kernel_source: str
        self._emit_kernel()

    def _emit_kernel(self) -> None:
        """(Re-)emit the batch kernel for the current group layout.

        Called at compose time and again after adaptive demotion; the
        emitted code binds the *current* memo dicts and stats cells, so
        surviving groups keep their warm memos across re-emission.
        """
        self.kernel_source, self.kernel = emit_kernel(self)

    def classify_values(self, values: Tuple[Any, ...]) -> Tuple[Tuple[int, ...], bool, bool]:
        """``(violated invariant indices, masked, within constraint)`` of a
        raw values tuple, materializing the ``State`` lazily -- only when
        a mask, a memo miss, an ungrouped invariant or a constraint
        actually needs attribute access.  The kernels classify through
        this (or an inlined copy of it), so a fully memo-hit candidate
        never allocates a ``State`` at all."""
        state: Optional[State] = None
        if self.mask is not None:
            mask_key = self.mask_key
            if mask_key is not None:
                memo = self.mask_memo
                key = mask_key(values)
                hit = memo.get(key)
                if hit is None:
                    state = State(self.schema, values)
                    hit = bool(self.mask(state))
                    if len(memo) >= self.GUARD_MEMO_LIMIT:
                        memo.clear()
                    memo[key] = hit
                if hit:
                    return (), True, True
            else:
                state = State(self.schema, values)
                if self.mask(state):
                    return (), True, True
        config = self.config
        invariant_fns = self.invariant_fns
        memo_limit = self.GUARD_MEMO_LIMIT
        viol_bits = 0
        for group_index, (key_fn, group_members) in enumerate(self.inv_groups):
            memo = self.inv_memos[group_index]
            key = key_fn(values)
            hit = memo.get(key)
            if hit is None:
                if state is None:
                    state = State(self.schema, values)
                hit = 0
                for i in group_members:
                    if not invariant_fns[i](config, state):
                        hit |= 1 << i
                if len(memo) >= memo_limit:
                    memo.clear()
                memo[key] = hit
            viol_bits |= hit
        if self.inv_ungrouped and state is None:
            state = State(self.schema, values)
        for i in self.inv_ungrouped:
            if not invariant_fns[i](config, state):
                viol_bits |= 1 << i
        if viol_bits:
            viols = tuple(
                i for i in range(len(invariant_fns)) if (viol_bits >> i) & 1
            )
        else:
            viols = ()
        if self.constraint is None:
            ok = True
        else:
            ckey = self.constraint_key
            if ckey is not None:
                memo = self.constraint_memo
                key = ckey(values)
                ok = memo.get(key)
                if ok is None:
                    if state is None:
                        state = State(self.schema, values)
                    ok = bool(self.constraint(config, state))
                    if len(memo) >= self.GUARD_MEMO_LIMIT:
                        memo.clear()
                    memo[key] = ok
            else:
                if state is None:
                    state = State(self.schema, values)
                ok = bool(self.constraint(config, state))
        return viols, False, ok

    def step(
        self,
        state: State,
        state_fp: int,
        known_disabled: int,
        rng: random.Random,
    ):
        """One random-walk step through the kernel.

        Expands with dedupe off -- every state-changing successor, in
        instance order, exactly the distribution
        ``Specification.successors`` enumerates (and one ``rng.choice``
        consuming the same entropy) -- and returns
        ``(instance_index, state, fp, known_disabled)`` for the chosen
        successor, or ``None`` in a dead end.  Only the chosen successor is
        materialized as a ``State``.  Shared by
        :class:`~repro.checker.random_walk.RandomWalker` and the engine's
        ``random`` strategy.
        """
        ((_, _, candidates),) = self.expand_batch(
            FrontierBatch.single(state_fp, state.values, known_disabled),
            _UNUSED_SEEN, False, False,  # no classify, no dedupe
        )
        if not candidates:
            return None
        idx, svt, fp, known, _, _, _ = rng.choice(candidates)
        return idx, State(self.schema, svt), fp, known

    def expand_batch(
        self,
        batch: FrontierBatch,
        seen: set,
        classify_candidates: bool = True,
        dedupe: bool = True,
    ) -> List[Tuple[int, int, List[Candidate]]]:
        """Expand a whole frontier batch through the kernel.

        Returns ``[(entry_fp, transitions, candidates), ...]`` in entry
        order.  ``seen`` is the caller's fingerprint set; candidate
        fingerprints are added to it so the same successor is emitted at
        most once.  With ``dedupe`` off that filter is skipped and every
        state-changing successor is emitted in instance order -- the
        random walkers use it to draw from the full successor
        distribution.  ``transitions`` counts every state-changing
        successor (including already-seen ones, matching the seed
        checker's transition count).
        """
        self.expand_calls += len(batch)
        if self.expand_calls - self._last_adapt >= self.ADAPT_INTERVAL:
            self._adapt()  # demotion re-emits self.kernel
        if self.debug:
            self._debug_check_batch(batch)
        return self.kernel(
            batch.fps, batch.values, batch.knowns,
            seen, dedupe, classify_candidates,
        )

    def _debug_check_batch(self, batch: FrontierBatch) -> None:
        """Debug mode: cross-check kernel outcomes against a *fresh* call
        of every instance's action (no memos, no inherited disabled bits),
        so a lying declaration that poisons a kernel memo entry -- or
        wrongly inherits a known-disabled bit -- is caught at the first
        state it mis-expands."""
        out = self.kernel(
            batch.fps, batch.values, batch.knowns,
            _UNUSED_SEEN, False, False,
        )
        schema = self.schema
        schema_index = schema._index
        slot_digest = self.fingerprinter.slot_digest
        config = self.config
        for i in range(len(batch)):
            values = batch.values[i]
            state = State(schema, values)
            entry_fp = batch.fps[i]
            fresh: List[Tuple[int, Tuple[Any, ...], int]] = []
            for idx, applier in enumerate(self.appliers):
                updates = applier(config, state)
                if updates is None:
                    continue
                self.actions[idx].validate_updates(updates)
                changes = [
                    (schema_index[name], value)
                    for name, value in updates.items()
                ]
                changes = [
                    (slot, value)
                    for slot, value in changes
                    if values[slot] is not value and values[slot] != value
                ]
                if not changes:
                    continue
                fp = entry_fp
                successor = list(values)
                for slot, value in changes:
                    fp ^= slot_digest(slot, values[slot]) ^ slot_digest(slot, value)
                    successor[slot] = value
                fresh.append((idx, tuple(successor), fp))
            fresh.sort(key=itemgetter(0))
            got = [(c[0], c[1], c[2]) for c in out[i][2]]
            if got != fresh:
                raise AssertionError(
                    f"compiled kernel diverged from fresh evaluation on "
                    f"state {state!r}: kernel produced "
                    f"{[(self.labels[idx], fp) for idx, _, fp in got]!r}, "
                    f"fresh evaluation produced "
                    f"{[(self.labels[idx], fp) for idx, _, fp in fresh]!r} "
                    f"(an action's reads/writes/update_sources declaration "
                    f"is untruthful)"
                )

    # ------------------------------------------------ adaptive memoing

    def _adapt(self) -> None:
        """Demote outcome groups whose memo went cold over the last
        window.  Purely a performance decision: demoted members move to
        the eager sweep, whose per-state evaluation produces identical
        results -- so adaptation can never change what is explored."""
        self._last_adapt = self.expand_calls
        if not self.outcome_groups:
            return
        calls = self.expand_calls
        wide = len(self.schema) // 2
        demote: List[int] = []
        for gi, cell in enumerate(self.outcome_stats):
            misses, base, last_lookups, last_misses = cell
            lookups = calls - base
            window = lookups - last_lookups
            if window < self.ADAPT_INTERVAL:
                continue
            window_hits = window - (misses - last_misses)
            rate = window_hits / window
            slots = self.outcome_group_slots[gi]
            floor = self.ADAPT_WIDE_RATE if len(slots) > wide else self.ADAPT_NARROW_RATE
            if rate < floor:
                demote.append(gi)
            else:
                cell[2] = lookups
                cell[3] = misses
        if demote:
            self._demote(demote)

    def _demote(self, group_indices: List[int]) -> None:
        """Move cold outcome groups to the eager sweep, re-enabling any
        guard group their closure projection was shadowing."""
        drop = set(group_indices)
        calls = self.expand_calls
        names = self.schema.names
        keep_groups, keep_slots = [], []
        keep_memos, keep_stats = [], []
        demoted_members: List[int] = []
        for gi in range(len(self.outcome_groups)):
            if gi not in drop:
                keep_groups.append(self.outcome_groups[gi])
                keep_slots.append(self.outcome_group_slots[gi])
                keep_memos.append(self.outcome_memos[gi])
                keep_stats.append(self.outcome_stats[gi])
                continue
            slots = self.outcome_group_slots[gi]
            members = self.outcome_groups[gi][1]
            misses, base = self.outcome_stats[gi][0], self.outcome_stats[gi][1]
            lookups = calls - base
            self.demoted_groups.append(
                {
                    "vars": [names[s] for s in slots],
                    "members": len(members),
                    "lookups": lookups,
                    "hits": lookups - misses,
                }
            )
            demoted_members.extend(members)
            shadow_bits = self._shadowed_guards.pop(slots, None)
            if shadow_bits is not None:
                key_fn = itemgetter(*slots) if len(slots) > 1 else itemgetter(slots[0])
                self.guard_groups.append((key_fn, shadow_bits))
                self.guard_group_slots.append(slots)
                self.guard_memos.append({})
                self.guard_stats.append([0, calls])
        self.outcome_groups = keep_groups
        self.outcome_group_slots = keep_slots
        self.outcome_memos = keep_memos
        self.outcome_stats = keep_stats
        self.direct = self.direct + tuple(sorted(demoted_members))
        self.eager = self.direct + self.ungrouped
        self._emit_kernel()

    def memo_stats(self) -> dict:
        """Per-action-group memo telemetry for ``--stats``."""
        calls = self.expand_calls
        names = self.schema.names

        def row(slots, members, cell, entries):
            lookups = max(0, calls - cell[1])
            hits = lookups - cell[0]
            return {
                "vars": [names[s] for s in slots],
                "members": members,
                "lookups": lookups,
                "hits": hits,
                "hit_rate": round(hits / lookups, 4) if lookups else None,
                "entries": entries,
            }

        outcome_rows = [
            row(
                self.outcome_group_slots[gi],
                len(group[1]),
                self.outcome_stats[gi],
                len(self.outcome_memos[gi]),
            )
            for gi, group in enumerate(self.outcome_groups)
        ]
        guard_rows = [
            row(
                self.guard_group_slots[gi],
                bin(group[1]).count("1"),
                self.guard_stats[gi],
                len(self.guard_memos[gi]),
            )
            for gi, group in enumerate(self.guard_groups)
        ]
        return {
            "memoized": self.memoized,
            "codegen_version": CODEGEN_VERSION,
            "expand_calls": calls,
            "eager_instances": len(self.eager),
            "outcome_groups": outcome_rows,
            "guard_groups": guard_rows,
            "demoted_groups": list(self.demoted_groups),
            "mask_memo_entries": (
                len(self.mask_memo) if self.mask_key is not None else None
            ),
            "constraint_memo_entries": (
                len(self.constraint_memo)
                if self.constraint_key is not None
                else None
            ),
        }


def compiled_for(
    spec: Specification,
    fingerprinter: Optional[Fingerprinter] = None,
    mask: Optional[Callable[[State], bool]] = None,
    incremental: bool = True,
    debug: bool = False,
) -> CompiledSpec:
    """The compiled form of a specification, cached on the spec.

    The default configuration (64-bit fingerprints, no mask, incremental
    analysis, no debug) is compiled once per :class:`Specification`
    instance and shared by every consumer -- engine runs, random walkers,
    the conformance campaign's suffix replays -- so the interference
    matrix and the generated kernel are built once and the guard/outcome
    memos stay warm across calls.  Campaign workers fork after the parent
    pre-warms the cache and inherit the compiled core (kernel included)
    by memory image.  Any other configuration gets a private core.
    """
    if fingerprinter is None and mask is None and incremental and not debug:
        core = getattr(spec, "_compiled_core", None)
        if core is None:
            core = CompiledSpec(spec)
            spec._compiled_core = core
        return core
    return CompiledSpec(
        spec,
        fingerprinter=fingerprinter,
        mask=mask,
        incremental=incremental,
        debug=debug,
    )


class ExplorationEngine:
    """Scheduler for explicit-state exploration strategies.

    Parameters
    ----------
    spec:
        The specification to check.
    strategy:
        One of ``"bfs"``, ``"dfs"``, ``"random"``.
    workers:
        Must be ``1``: every strategy runs in the calling process.  The
        keyword remains for callers that pass it explicitly.
    max_states / max_time / max_depth / violation_limit / stop_at_first /
    mask:
        The familiar budgets, with the seed checker's semantics.
    seed:
        Seed for the random strategy.
    fingerprinter:
        Override the 64-bit default (tests use narrow widths to force
        collisions).
    incremental:
        Memoize on the declared dependencies (on by default, and only for
        specs :func:`kernel_trusted` accepts); switch off for the
        memo-free reference kernel, which re-evaluates every guard on
        every state.  Enumeration order is bitwise identical either way.
    debug:
        Cross-check every kernel batch against a fresh evaluation of all
        instances (no memos, no inherited disabled bits) and validate
        update dicts against the declared write sets (slow; catches
        untruthful dependency declarations).
    """

    def __init__(
        self,
        spec: Specification,
        strategy: str = "bfs",
        workers: int = 1,
        max_states: Optional[int] = None,
        max_time: Optional[float] = None,
        max_depth: Optional[int] = None,
        violation_limit: int = 10_000,
        stop_at_first: bool = True,
        mask: Optional[Callable[[State], bool]] = None,
        seed: int = 0,
        fingerprinter: Optional[Fingerprinter] = None,
        incremental: bool = True,
        debug: bool = False,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; options: {list(STRATEGIES)}"
            )
        if workers != 1:
            raise ValueError(
                f"workers={workers!r}: exploration runs in one process"
            )
        self.spec = spec
        self.strategy = strategy
        self.max_states = max_states
        self.max_time = max_time
        self.max_depth = max_depth
        self.violation_limit = violation_limit
        self.stop_at_first = stop_at_first
        self.mask = mask
        self.seed = seed
        self.fingerprinter = fingerprinter
        self.incremental = incremental
        self.debug = debug
        #: The compiled core of the last run (memo/kernel telemetry for
        #: ``--stats``); ``None`` until a strategy has run.
        self.core: Optional[CompiledSpec] = None

    def run(self) -> CheckResult:
        was_collecting = gc.isenabled()
        gc.disable()
        try:
            if self.strategy == "bfs":
                return self._run_bfs()
            if self.strategy == "dfs":
                return self._run_dfs()
            return self._run_random()
        finally:
            if was_collecting:
                gc.enable()

    def _compile(self) -> CompiledSpec:
        core = compiled_for(
            self.spec,
            fingerprinter=self.fingerprinter,
            mask=self.mask,
            incremental=self.incremental,
            debug=self.debug,
        )
        self.core = core
        return core

    # ------------------------------------------------------------- BFS

    def _run_bfs(self) -> CheckResult:
        core = self._compile()
        spec = self.spec
        result = CheckResult(spec_name=spec.name)
        start = time.monotonic()

        parent_link: Dict[int, Optional[Tuple[int, int]]] = {}
        init_by_fp: Dict[int, State] = {}
        seen: set = set()  # expansion-side fingerprint set
        stop = False

        def trace_to(fp: int) -> Trace:
            chain: List[int] = []
            cursor = fp
            while True:
                link = parent_link[cursor]
                if link is None:
                    break
                cursor, idx = link
                chain.append(idx)
            chain.reverse()
            labels = [core.labels[i] for i in chain]
            states = spec.replay(labels, init_by_fp[cursor])
            return Trace(states=states, labels=labels)

        def record(fp: int, viols: Sequence[int]) -> bool:
            for i in viols:
                result.violations.append(
                    Violation(invariant=core.invariants[i], trace=trace_to(fp))
                )
                if self.stop_at_first:
                    return True
                if len(result.violations) >= self.violation_limit:
                    result.budget_exhausted = "violation_limit"
                    return True
            return False

        # Round 0: the initial states.
        # Frontier entries: (fp, values, known_disabled).
        frontier: List[Tuple[int, Tuple[Any, ...], int]] = []
        for init in spec.initial_states():
            fp = core.fingerprinter.of_values(init.values)
            if fp in parent_link:
                continue
            parent_link[fp] = None
            init_by_fp[fp] = init
            seen.add(fp)
            viols, masked, ok = core.classify_values(init.values)
            if masked:
                continue
            if viols and record(fp, viols):
                stop = True
                break
            if viols or not ok:
                continue
            frontier.append((fp, init.values, 0))
        if (
            not stop
            and self.max_states is not None
            and len(parent_link) >= self.max_states
        ):
            result.budget_exhausted = "max_states"
            stop = True

        depth = 0
        while frontier and not stop and result.budget_exhausted is None:
            if (
                self.max_time is not None
                and time.monotonic() - start >= self.max_time
            ):
                result.budget_exhausted = "max_time"
                break

            # Sweep the round in fixed-size batches.  Candidate payloads
            # come back as raw value tuples and traces replay from labels,
            # so States are never built for states that only transit the
            # frontier.  Chunking keeps budgets lazy: when the merge loop
            # stops mid-round (max_states, max_time, violation),
            # unexpanded chunks are never swept.
            def _batched(round_frontier=frontier):
                for lo in range(0, len(round_frontier), _KERNEL_CHUNK):
                    yield from core.expand_batch(
                        FrontierBatch.from_entries(
                            round_frontier[lo : lo + _KERNEL_CHUNK]
                        ),
                        seen,
                    )

            next_frontier: List[Tuple[int, Tuple[Any, ...], int]] = []
            child_depth = depth + 1
            expandable_depth = (
                self.max_depth is None or child_depth < self.max_depth
            )
            for entry_fp, transitions, candidates in _batched():
                if stop or result.budget_exhausted is not None:
                    break
                if (
                    self.max_time is not None
                    and time.monotonic() - start >= self.max_time
                ):
                    result.budget_exhausted = "max_time"
                    break
                result.transitions += transitions
                for idx, values, fp, known, viols, masked, ok in candidates:
                    if fp in parent_link:
                        continue
                    parent_link[fp] = (entry_fp, idx)
                    if child_depth > result.max_depth:
                        result.max_depth = child_depth
                    if not masked:
                        if viols:
                            if record(fp, viols):
                                stop = True
                                break
                        elif ok and expandable_depth:
                            next_frontier.append((fp, values, known))
                    if (
                        self.max_states is not None
                        and len(parent_link) >= self.max_states
                    ):
                        result.budget_exhausted = "max_states"
                        break
            frontier = next_frontier
            depth += 1

        result.states_explored = len(parent_link)
        result.elapsed_seconds = time.monotonic() - start
        result.completed = (
            not frontier and not stop and result.budget_exhausted is None
        )
        return result

    # ------------------------------------------------------------- DFS

    def _run_dfs(self) -> CheckResult:
        core = self._compile()
        spec = self.spec
        result = CheckResult(spec_name=spec.name)
        start = time.monotonic()
        max_depth = self.max_depth if self.max_depth is not None else 40
        visited: set = set()
        throwaway: set = set()

        # Stack entries: (values, fp, labels-so-far, initial state,
        # known_disabled) -- raw value tuples, so pushed-but-pruned
        # candidates never materialize a State (classification on pop is
        # lazy too).
        stack: List[Tuple[Tuple[Any, ...], int, Tuple[int, ...], State, int]] = []
        for init in spec.initial_states():
            fp = core.fingerprinter.of_values(init.values)
            stack.append((init.values, fp, (), init, 0))

        while stack:
            if self.max_states is not None and len(visited) >= self.max_states:
                result.budget_exhausted = "max_states"
                break
            if (
                self.max_time is not None
                and time.monotonic() - start > self.max_time
            ):
                result.budget_exhausted = "max_time"
                break
            values, fp, chain, init, known = stack.pop()
            if fp in visited:
                continue
            visited.add(fp)
            depth = len(chain)
            if depth > result.max_depth:
                result.max_depth = depth
            viols, masked, ok = core.classify_values(values)
            if masked:
                continue
            if viols:
                labels = [core.labels[i] for i in chain]
                states = spec.replay(labels, init)
                result.violations.append(
                    Violation(
                        invariant=core.invariants[viols[0]],
                        trace=Trace(states=states, labels=labels),
                    )
                )
                break
            if depth >= max_depth or not ok:
                continue
            throwaway.clear()
            ((_, transitions, candidates),) = core.expand_batch(
                FrontierBatch.single(fp, values, known),
                throwaway,
                classify_candidates=False,
            )
            result.transitions += transitions
            for idx, svt, nfp, nknown, _, _, _ in candidates:
                if nfp not in visited:
                    stack.append((svt, nfp, chain + (idx,), init, nknown))

        result.states_explored = len(visited)
        result.elapsed_seconds = time.monotonic() - start
        result.completed = (
            not stack
            and not result.violations
            and result.budget_exhausted is None
        )
        return result

    # ---------------------------------------------------------- random

    #: Walk cap of the ``random`` strategy when no budget bounds it: the
    #: total number of walks without any budget, and the number of walks
    #: in a row that find no new state when only ``max_states`` is set
    #: (a reachable space smaller than the budget never exhausts it).
    WALK_CAP = 1_000

    def _run_random(self) -> CheckResult:
        core = self._compile()
        spec = self.spec
        result = CheckResult(spec_name=spec.name)
        start = time.monotonic()
        rng = random.Random(self.seed)
        max_steps = self.max_depth if self.max_depth is not None else 60
        # Without a time budget a random search need not terminate; cap
        # the walks as a final backstop.
        max_walks = max_idle_walks = None
        if self.max_time is None:
            if self.max_states is None:
                max_walks = self.WALK_CAP
            else:
                max_idle_walks = self.WALK_CAP
        seen: set = set()
        seed_fp = core.fingerprinter.of_values
        initials = spec.initial_states()
        walks = idle_walks = 0
        stop = False

        while not stop:
            if (max_walks is not None and walks >= max_walks) or (
                max_idle_walks is not None and idle_walks >= max_idle_walks
            ):
                result.budget_exhausted = "max_walks"
                break
            if self.max_states is not None and len(seen) >= self.max_states:
                result.budget_exhausted = "max_states"
                break
            if (
                self.max_time is not None
                and time.monotonic() - start >= self.max_time
            ):
                result.budget_exhausted = "max_time"
                break
            walks += 1
            known_states = len(seen)
            state = rng.choice(initials)
            fp = seed_fp(state.values)
            known = 0
            states = [state]
            labels: List[Any] = []
            seen.add(fp)
            for _ in range(max_steps):
                viols, masked, ok = core.classify_values(state.values)
                if masked:
                    break
                if viols:
                    for i in viols:
                        result.violations.append(
                            Violation(
                                invariant=core.invariants[i],
                                trace=Trace(states=list(states), labels=list(labels)),
                            )
                        )
                        if self.stop_at_first:
                            stop = True
                            break
                        if len(result.violations) >= self.violation_limit:
                            result.budget_exhausted = "violation_limit"
                            stop = True
                            break
                    break
                if not ok:
                    break
                chosen = core.step(state, fp, known, rng)
                if chosen is None:
                    break
                idx, nxt, fp, known = chosen
                result.transitions += 1
                labels.append(core.labels[idx])
                states.append(nxt)
                state = nxt
                seen.add(fp)
                if len(states) - 1 > result.max_depth:
                    result.max_depth = len(states) - 1
            idle_walks = idle_walks + 1 if len(seen) == known_states else 0

        result.states_explored = len(seen)
        result.elapsed_seconds = time.monotonic() - start
        return result


def explore(spec: Specification, **kwargs: Any) -> CheckResult:
    """Convenience wrapper: ``explore(spec, strategy=..., max_states=...)``."""
    return ExplorationEngine(spec, **kwargs).run()
