"""Tests for the unified exploration engine: fingerprinting, guard and
invariant memoization soundness, the single-process strategies, and
shrink round-trips on engine-produced traces."""

import pickle
import random

import pytest

from repro.checker import (
    BFSChecker,
    ExplorationEngine,
    Fingerprinter,
    IncrementalFingerprinter,
    RandomWalker,
    explore,
    shrink_trace,
    violation_predicate,
)
from repro.checker.engine import (
    STRATEGIES,
    CompiledSpec,
    compiled_for,
    kernel_trusted,
)
from repro.checker.fingerprint import FingerprintError, canonical_bytes
from repro.checker.legacy import LegacyBFSChecker
from repro.tla.action import Action
from repro.tla.batch import FrontierBatch
from repro.tla.module import Module
from repro.tla.spec import Invariant, Specification
from repro.tla.state import Schema, State
from repro.tla.values import Rec, Txn, Zxid
from repro.zookeeper import ZkConfig, check_spec, zk4394_mask

SCHEMA = Schema(("x", "y"))

SMALL = ZkConfig(max_txns=1, max_crashes=1, max_partitions=0, max_epoch=3)


def counter_spec(max_x=4, y_bound=2, constraint=None):
    def inc_x(config, state):
        if state.x >= max_x:
            return None
        return {"x": state.x + 1}

    def inc_y(config, state):
        if state.y >= state.x:
            return None
        return {"y": state.y + 1}

    module = Module(
        "counter",
        [
            Action("IncX", inc_x, reads=["x"], writes=["x"]),
            Action("IncY", inc_y, reads=["x", "y"], writes=["y"]),
        ],
    )
    return Specification(
        "counter",
        SCHEMA,
        lambda cfg: [State.make(SCHEMA, x=0, y=0)],
        [module],
        [Invariant("I-1", "y bounded", lambda cfg, s: s.y <= y_bound)],
        None,
        constraint=constraint,
    )


class TestFingerprinter:
    def test_deterministic_across_instances(self):
        state = State.make(SCHEMA, x=3, y=1)
        assert Fingerprinter().of_state(state) == Fingerprinter().of_state(state)

    def test_distinct_states_differ(self):
        a = Fingerprinter()
        fps = {
            a.of_state(State.make(SCHEMA, x=x, y=y))
            for x in range(10)
            for y in range(10)
        }
        assert len(fps) == 100

    def test_bool_int_equivalence_matches_state_equality(self):
        # State(True) == State(1) under tuple equality, so the
        # fingerprints must agree too.
        a = State(SCHEMA, (True, 0))
        b = State(SCHEMA, (1, 0))
        assert a == b
        fp = Fingerprinter()
        assert fp.of_state(a) == fp.of_state(b)

    def test_namedtuple_encodes_as_tuple(self):
        # Txn == plain tuple of its fields, mirrored by the encoding.
        txn = Txn(Zxid(1, 2), 3)
        assert canonical_bytes((txn,)) == canonical_bytes((((1, 2), 3),))

    def test_rec_distinct_from_items_tuple(self):
        rec = Rec(a=1)
        assert canonical_bytes((rec,)) != canonical_bytes(((("a", 1),),))

    def test_incremental_update_matches_full(self):
        fp = Fingerprinter()
        base = (1, (2, 3), "s")
        schema = Schema(("a", "b", "c"))
        full, digests = fp.of_values_with_digests(base)
        successor = (1, (2, 4), "s")
        incremental = fp.update(full, base, [(1, (2, 4))])
        assert incremental == fp.of_values(successor)
        assert len(digests) == len(schema)

    def test_unknown_type_raises(self):
        class Odd:
            pass

        with pytest.raises(FingerprintError):
            Fingerprinter().of_values((Odd(),))

    def test_narrow_width_forces_collisions(self):
        fp = Fingerprinter(bits=2)
        values = {fp.of_values((i,)) for i in range(64)}
        assert values <= {0, 1, 2, 3}

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            Fingerprinter(bits=0)
        with pytest.raises(ValueError):
            Fingerprinter(bits=65)


class TestEngineBFS:
    def test_matches_bfs_checker_wrapper(self):
        direct = explore(counter_spec(), strategy="bfs")
        wrapped = BFSChecker(counter_spec()).run()
        assert direct.found_violation and wrapped.found_violation
        assert direct.first_violation.depth == wrapped.first_violation.depth == 6
        assert direct.states_explored == wrapped.states_explored

    def test_complete_space_counts_exactly(self):
        result = explore(counter_spec(max_x=2, y_bound=5), strategy="bfs")
        assert result.completed
        assert result.states_explored == 6

    def test_incremental_guard_analysis_is_sound(self):
        fast = ExplorationEngine(counter_spec(max_x=6, y_bound=3)).run()
        slow = ExplorationEngine(
            counter_spec(max_x=6, y_bound=3), incremental=False
        ).run()
        assert fast.states_explored == slow.states_explored
        assert fast.transitions == slow.transitions
        assert [v.invariant.ident for v in fast.violations] == [
            v.invariant.ident for v in slow.violations
        ]

    def test_undeclared_reads_are_never_pruned(self):
        # Regression: an action that omits its reads declaration (the
        # Action API default) has an *unknown* guard dependency set and
        # must be re-evaluated in every state -- it must not inherit a
        # known-disabled verdict from its parent.
        def inc_x(config, state):
            return {"x": state.x + 1} if state.x < 3 else None

        def inc_y(config, state):  # reads x and y, but declares nothing
            return {"y": state.y + 1} if state.y < state.x else None

        module = Module(
            "undeclared",
            [
                Action("IncX", inc_x, reads=["x"], writes=["x"]),
                Action("IncY", inc_y, writes=["y"]),
            ],
        )
        spec = Specification(
            "undeclared",
            SCHEMA,
            lambda cfg: [State.make(SCHEMA, x=0, y=0)],
            [module],
            [Invariant("I-1", "y bounded", lambda cfg, s: s.y <= 99)],
            None,
        )
        fast = ExplorationEngine(spec).run()
        slow = ExplorationEngine(spec, incremental=False).run()
        assert fast.states_explored == slow.states_explored == 10
        assert fast.transitions == slow.transitions
        assert fast.completed and slow.completed

    def test_collision_handling_terminates_and_undercounts(self):
        # A 3-bit fingerprint space cannot hold the 28 distinct states:
        # colliding states are silently merged, never duplicated, and
        # the run still terminates.
        result = ExplorationEngine(
            counter_spec(max_x=6, y_bound=99),
            fingerprinter=Fingerprinter(bits=3),
        ).run()
        assert result.completed
        assert result.states_explored <= 8

    def test_full_width_matches_exact_dedup(self):
        exact = ExplorationEngine(counter_spec(max_x=6, y_bound=99)).run()
        assert exact.completed
        assert exact.states_explored == 28  # x in 0..6, y in 0..x

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            ExplorationEngine(counter_spec(), strategy="bogus")
        assert set(STRATEGIES) == {"bfs", "dfs", "random"}


class TestEngineStrategies:
    def test_dfs_finds_violation(self):
        result = explore(counter_spec(), strategy="dfs", max_depth=20)
        assert result.found_violation
        assert result.first_violation.trace.final.y == 3

    def test_random_is_seed_deterministic(self):
        spec = counter_spec(y_bound=1)
        a = explore(spec, strategy="random", seed=5, max_states=500)
        b = explore(counter_spec(y_bound=1), strategy="random", seed=5, max_states=500)
        assert a.states_explored == b.states_explored
        assert [v.invariant.ident for v in a.violations] == [
            v.invariant.ident for v in b.violations
        ]

    @pytest.mark.parametrize("max_states", [500, None])
    def test_random_walk_cap_without_time_budget(self, max_states):
        # 6 reachable states never exhaust max_states=500: without the
        # idle-walk cap that run never returned.  With no budget at all
        # the total walk cap applies.
        result = explore(
            counter_spec(max_x=2, y_bound=99),
            strategy="random",
            seed=1,
            max_states=max_states,
        )
        assert result.budget_exhausted == "max_walks"
        assert result.states_explored == 6
        assert not result.found_violation


class TestSingleProcess:
    def test_multiple_workers_rejected(self):
        with pytest.raises(ValueError, match="one process"):
            ExplorationEngine(counter_spec(), workers=2)
        assert ExplorationEngine(counter_spec(), workers=1).run().found_violation

    def test_dedupe_keyword_removed(self):
        with pytest.raises(TypeError):
            ExplorationEngine(counter_spec(), dedupe="shared")


class TestEngineOnZooKeeper:
    def test_engine_matches_legacy_checker(self):
        from repro.checker.legacy import LegacyBFSChecker
        from repro.zookeeper.specs import SELECTIONS, build_spec

        budget = dict(max_states=4_000, max_time=120)
        engine = check_spec("mSpec-2", SMALL, **budget)
        legacy = LegacyBFSChecker(
            build_spec("mSpec-2", SELECTIONS["mSpec-2"], SMALL),
            mask=zk4394_mask,
            **budget,
        ).run()
        # max_states semantics differ by at most the legacy overshoot
        # (it checks the budget at dequeue time, the engine at accept
        # time); everything else must agree exactly.
        assert abs(engine.states_explored - legacy.states_explored) <= 32
        assert engine.max_depth == legacy.max_depth
        assert [v.invariant.full_name for v in engine.violations] == [
            v.invariant.full_name for v in legacy.violations
        ]

    def test_invariant_memoization_is_sound_on_zk(self):
        fast = check_spec("mSpec-3", SMALL, max_states=4_000, max_time=120)
        slow = check_spec(
            "mSpec-3", SMALL, max_states=4_000, max_time=120, incremental=False
        )
        assert fast.states_explored == slow.states_explored
        assert fast.transitions == slow.transitions
        assert [v.invariant.full_name for v in fast.violations] == [
            v.invariant.full_name for v in slow.violations
        ]


class TestCompiledSpec:
    def test_evaluation_tiers_cover_all_instances(self):
        # Every instance must be resolved by exactly one evaluation
        # tier: a memoized outcome group, the direct (wide-closure)
        # sweep, or the ungrouped (undeclared-reads) sweep.
        spec = counter_spec()
        core = CompiledSpec(spec)
        covered = 0
        for _, members in core.outcome_groups:
            for idx in members:
                assert not (covered >> idx) & 1
                covered |= 1 << idx
        for idx in core.eager:
            assert not (covered >> idx) & 1
            covered |= 1 << idx
        assert covered == (1 << core.n_instances) - 1
        # Guard groups only reference declared-reads instances.
        for _, bits in core.guard_groups:
            assert bits & covered == bits

    def test_classify_reports_violations(self):
        spec = counter_spec(y_bound=0)
        core = CompiledSpec(spec)
        bad = State.make(SCHEMA, x=1, y=1)
        viols, masked, ok = core.classify_values(bad.values)
        assert viols and not masked and ok


class TestShrinkRoundTrip:
    def test_dfs_trace_shrinks_to_bfs_minimum(self):
        spec = counter_spec()
        dfs = explore(spec, strategy="dfs", max_depth=25)
        assert dfs.found_violation
        shrunk = shrink_trace(
            spec, dfs.first_violation.trace, violation_predicate(spec, "I-1")
        )
        assert len(shrunk) == 6  # the BFS minimum
        replayed = spec.replay(shrunk.labels, shrunk.initial)
        assert replayed == shrunk.states
        assert shrunk.final.y == 3

    def test_random_trace_shrinks_and_replays(self):
        spec = counter_spec()
        result = explore(spec, strategy="random", seed=11, max_states=5_000)
        assert result.found_violation
        shrunk = shrink_trace(
            spec,
            result.first_violation.trace,
            violation_predicate(spec, "I-1"),
        )
        assert len(shrunk) <= len(result.first_violation.trace)
        assert spec.replay(shrunk.labels, shrunk.initial)[-1] == shrunk.final


def random_spec(seed):
    """A random finite guarded-counter spec with *honest* dependency
    declarations: every action's guard reads only its declared reads,
    and every update value is computed from the written variable itself,
    the declared reads, and the declared update_sources -- exactly the
    contract :meth:`Action.dependency_closure` documents.  Roughly one
    action in five omits its reads declaration to exercise the
    never-memoized path."""
    rng = random.Random(seed)
    n_vars = rng.randint(3, 6)
    names = tuple(f"v{i}" for i in range(n_vars))
    schema = Schema(names)
    actions = []
    for a in range(rng.randint(3, 7)):
        guard_vars = tuple(rng.sample(names, rng.randint(1, min(3, n_vars))))
        write_vars = tuple(rng.sample(names, rng.randint(1, 2)))
        sources = {
            w: tuple(rng.sample(names, rng.randint(0, 2))) for w in write_vars
        }
        threshold = rng.randint(0, 3)
        modulus = rng.randint(2, 4)

        def fn(
            config,
            state,
            _g=guard_vars,
            _w=write_vars,
            _s=sources,
            _t=threshold,
            _m=modulus,
        ):
            if sum(state[v] for v in _g) % _m == _t % _m:
                return None
            return {
                w: (state[w] + 1 + sum(state[s] for s in _s[w])) % 5
                for w in _w
            }

        declare = rng.random() < 0.8
        actions.append(
            Action(
                f"A{a}",
                fn,
                reads=guard_vars if declare else (),
                writes=write_vars,
                update_sources=sources if declare else None,
            )
        )
    init = State.make(schema, **{v: 0 for v in names})
    bound = rng.randint(4, 8)
    invariant = Invariant(
        "I-R",
        "sum bounded",
        lambda cfg, s, _n=names, _b=bound: sum(s[v] for v in _n) <= _b,
        reads=frozenset(names) if rng.random() < 0.5 else frozenset(),
    )
    spec = Specification(
        f"rand-{seed}",
        schema,
        lambda cfg: [init],
        [Module("rand", actions)],
        [invariant],
        None,
    )
    # Honest by construction, but the dynamic state subscripts defeat the
    # static analyzer (D05).  Pre-seed its verdict so the engine memoizes
    # and the fuzz exercises the memoized kernel, not the memo-free one.
    spec._kernel_trusted = True
    return spec


class TestIncrementalProperties:
    """Property tests over seeded random specs: the incremental paths
    must be bit-identical to full recomputation."""

    def test_incremental_fingerprints_match_full_on_random_walks(self):
        for seed in range(8):
            spec = random_spec(seed)
            inc = IncrementalFingerprinter(spec.schema)
            full = Fingerprinter()
            rng = random.Random(seed * 7 + 1)
            state = spec.initial_states()[0]
            fp = inc.of_state(state)
            assert fp == full.of_state(state)
            for _ in range(40):
                options = list(spec.successors(state))
                if not options:
                    break
                _, nxt = rng.choice(options)
                updates = {
                    name: new for name, (_, new) in state.diff(nxt).items()
                }
                stepped, delta = state.set_many(updates, fingerprinter=inc)
                assert stepped == nxt
                fp ^= delta
                assert fp == full.of_state(nxt), f"seed {seed}"
                state = nxt

    def test_expand_candidates_match_brute_force_on_random_walks(self):
        # Walk each random spec through the memoized kernel chain
        # (inherited disabled bits, outcome memo warm across steps) and
        # compare every candidate list against the memo-free kernel:
        # same instances, same successor values, same fingerprints.
        for seed in range(8):
            spec = random_spec(seed)
            core = CompiledSpec(spec)
            brute = CompiledSpec(spec, incremental=False)
            assert core.memoized and not brute.memoized
            rng = random.Random(seed * 13 + 5)
            values = spec.initial_states()[0].values
            fp = core.fingerprinter.of_values(values)
            known = 0
            for _ in range(30):
                ((_, _, fast),) = core.expand_batch(
                    FrontierBatch.single(fp, values, known), set(),
                    classify_candidates=False, dedupe=False,
                )
                ((_, _, slow),) = brute.expand_batch(
                    FrontierBatch.single(fp, values, 0), set(),
                    classify_candidates=False, dedupe=False,
                )
                assert [c[:3] for c in fast] == [c[:3] for c in slow], (
                    f"seed {seed}"
                )
                if not fast:
                    break
                _, values, fp, known = rng.choice(fast)[:4]

    def test_random_specs_explore_identically_with_and_without_memo(self):
        for seed in range(10):
            spec = random_spec(seed)
            fast = ExplorationEngine(spec, max_states=3_000).run()
            slow = ExplorationEngine(
                random_spec(seed), max_states=3_000, incremental=False
            ).run()
            assert fast.states_explored == slow.states_explored, f"seed {seed}"
            assert fast.transitions == slow.transitions, f"seed {seed}"
            assert fast.max_depth == slow.max_depth
            assert [v.invariant.ident for v in fast.violations] == [
                v.invariant.ident for v in slow.violations
            ]

    def test_random_specs_pass_debug_cross_checks(self):
        # debug=True re-evaluates every kernel batch from scratch; an
        # unsound memo hit raises AssertionError.
        for seed in range(6):
            ExplorationEngine(random_spec(seed), max_states=1_500, debug=True).run()

    def test_zookeeper_specs_pass_debug_cross_checks(self):
        # The walkers and the campaign ride the memoized kernel, so the
        # real specs' reads/writes/update_sources
        # declarations are load-bearing: sweep them under the debug
        # cross-check (this is what caught the NodeCrash and
        # FollowerSyncProcessorLogRequest undeclared update sources).
        for name in ("SysSpec", "mSpec-3"):
            check_spec(name, SMALL, max_states=2_500, max_time=60, debug=True)

    def test_debug_mode_catches_untruthful_declaration(self):
        # The update reads y but declares neither reads nor sources for
        # it: two states sharing the closure projection {x} but
        # differing in y make the memoized outcome wrong, and debug mode
        # must flag it.  The analyzer sees the lie too (D01), so the
        # verdict is pre-seeded to force memoization.
        def lying(config, state):
            if state.x >= 3:
                return None
            return {"x": (state.x + 1 + state.y) % 5}

        def inc_y(config, state):
            return {"y": state.y + 1} if state.y < 3 else None

        module = Module(
            "lying",
            [
                Action("Lying", lying, reads=["x"], writes=["x"]),
                Action("IncY", inc_y, reads=["y"], writes=["y"]),
            ],
        )
        spec = Specification(
            "lying",
            SCHEMA,
            lambda cfg: [State.make(SCHEMA, x=0, y=0)],
            [module],
            [Invariant("I-1", "true", lambda cfg, s: True)],
            None,
        )
        spec._kernel_trusted = True
        with pytest.raises(AssertionError, match="Lying"):
            ExplorationEngine(spec, max_states=2_000, debug=True).run()

    def test_walker_matches_successors_enumeration(self):
        # RandomWalker steps through CompiledSpec.step; a matching
        # seed must choose exactly the label sequence the
        # Specification.successors enumeration implies (the conformance
        # campaign's finding fingerprints depend on this).
        for seed in range(6):
            spec = random_spec(seed)
            walked = RandomWalker(spec, seed=seed).walk(25)
            rng = random.Random(seed)
            state = rng.choice(spec.initial_states())
            labels = []
            for _ in range(25):
                if not spec.within_constraint(state):
                    break
                options = list(spec.successors(state))
                if not options:
                    break
                label, state = rng.choice(options)
                labels.append(label)
            assert walked.labels == labels
            assert walked.final == state

    def test_compiled_for_caches_on_spec(self):
        spec = counter_spec()
        assert compiled_for(spec) is compiled_for(spec)
        assert RandomWalker(spec)._core is compiled_for(spec)
        # Non-default configurations never share the cached core.
        assert compiled_for(spec, incremental=False) is not compiled_for(spec)


class TestCompiledKernelLane:
    """Differential fuzz: the memoized kernel must enumerate bitwise-
    identically to the memo-free kernel -- same states, same transitions,
    same violations -- on random honest specs and on the real ZooKeeper
    specs, and match the seed checker's state space at exhaustion."""

    @staticmethod
    def _sig(result):
        return (
            result.states_explored,
            result.transitions,
            result.max_depth,
            sorted(
                (v.invariant.full_name, len(v.trace)) for v in result.violations
            ),
        )

    def test_fuzzed_random_specs_identical(self):
        exhausted = 0
        for seed in range(10):
            sigs = {}
            for incremental in (True, False):
                result = ExplorationEngine(
                    random_spec(seed), max_states=2_000, incremental=incremental
                ).run()
                sigs[incremental] = self._sig(result)
            assert sigs[True] == sigs[False], f"seed {seed}"
            # The seed checker agrees on the whole space (every violation
            # recorded, so neither side stops early).
            full = ExplorationEngine(
                random_spec(seed), max_states=2_000, stop_at_first=False
            ).run()
            seed_full = LegacyBFSChecker(
                random_spec(seed), max_states=2_000, stop_at_first=False
            ).run()
            if full.completed:
                exhausted += 1
                assert seed_full.completed, f"seed {seed}"
                assert self._sig(full) == self._sig(seed_full), f"seed {seed}"
        assert exhausted >= 8

    @pytest.mark.parametrize("strategy", ["bfs", "dfs"])
    def test_zookeeper_compiled_identical(self, strategy):
        sigs = {}
        for incremental in (True, False):
            result = check_spec(
                "mSpec-3",
                SMALL,
                strategy=strategy,
                max_states=2_000,
                max_time=60,
                incremental=incremental,
            )
            sigs[incremental] = self._sig(result)
        assert sigs[True] == sigs[False]

    def test_zookeeper_kernel_passes_debug_cross_check(self):
        # --debug-deps re-evaluates every kernel batch against fresh
        # calls of every action.
        check_spec(
            "mSpec-3",
            SMALL,
            max_states=1_500,
            max_time=60,
            debug=True,
        )

    def test_every_shipped_grain_is_kernel_trusted(self):
        # Every ZooKeeper grain and both Raft grains declare their
        # dependencies truthfully, so the default engine memoizes on all.
        from repro.raft.config import RaftConfig
        from repro.raft.spec import make_spec as raft_make_spec
        from repro.zookeeper.specs import SELECTIONS, build_spec

        for name in SELECTIONS:
            spec = build_spec(name, SELECTIONS[name], SMALL)
            assert kernel_trusted(spec), name
            assert compiled_for(spec).memoized, name
        for name in ("raft-coarse", "raft-fine"):
            assert kernel_trusted(raft_make_spec(name, RaftConfig())), name


class TestValuePickling:
    def test_rec_round_trips(self):
        rec = Rec(mtype="ACK", zxid=(1, 2))
        clone = pickle.loads(pickle.dumps(rec))
        assert clone == rec and hash(clone) == hash(rec)

    def test_state_round_trips_and_compares_equal(self):
        state = State.make(SCHEMA, x=2, y=1)
        clone = pickle.loads(pickle.dumps(state))
        assert clone == state
        assert clone.schema is state.schema  # schemas are interned
