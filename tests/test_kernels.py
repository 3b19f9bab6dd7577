"""Compiled successor kernels: emission, differential identity of the
memoized kernel against the memo-free kernel and the seed checker, the
lint-gated memo-free layout for untrusted specs, adaptive demotion under a
live kernel, and the codegen-versioned cache digest."""

import random

import pytest

from repro.checker import ExplorationEngine
from repro.checker.engine import compiled_for, kernel_trusted
from repro.checker.legacy import LegacyBFSChecker
from repro.tla.action import Action
from repro.tla.batch import FrontierBatch
from repro.tla.codegen import CODEGEN_VERSION, emit_kernel
from repro.tla.module import Module
from repro.tla.spec import Invariant, Specification
from repro.tla.state import Schema, State

SCHEMA = Schema(("x", "y"))


def counter_spec(max_x=4, y_bound=2, constraint=None, name="counter"):
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
        name,
        SCHEMA,
        lambda cfg: [State.make(SCHEMA, x=0, y=0)],
        [module],
        [Invariant("I-1", "y bounded", lambda cfg, s: s.y <= y_bound)],
        None,
        constraint=constraint,
    )


def lying_spec():
    """IncY's guard reads ``x`` but declares only ``y`` -- an untruthful
    dependency declaration that poisons memo/kernel entries."""

    def inc_x(config, state):
        if state.x >= 3:
            return None
        return {"x": state.x + 1}

    def inc_y(config, state):
        if state.y >= state.x:  # reads x, undeclared
            return None
        return {"y": state.y + 1}

    module = Module(
        "liar",
        [
            Action("IncX", inc_x, reads=["x"], writes=["x"]),
            Action("IncY", inc_y, reads=["y"], writes=["y"]),
        ],
    )
    return Specification(
        "liar",
        SCHEMA,
        lambda cfg: [State.make(SCHEMA, x=0, y=0)],
        [module],
        [Invariant("I-1", "y bounded", lambda cfg, s: s.y <= 99)],
        None,
    )


def run_sig(result):
    return (
        result.states_explored,
        result.transitions,
        result.max_depth,
        sorted(
            (v.invariant.full_name, len(v.trace)) for v in result.violations
        ),
    )


def legacy_sig(spec):
    return run_sig(LegacyBFSChecker(spec, max_states=10_000).run())


class TestEmission:
    def test_kernel_emitted_for_trusted_spec(self):
        core = compiled_for(counter_spec())
        assert core.memoized
        assert core.outcome_groups
        assert f"repro kernel v{CODEGEN_VERSION}" in core.kernel_source

    def test_non_incremental_emits_memo_free_kernel(self):
        core = compiled_for(counter_spec(), incremental=False)
        assert not core.memoized
        assert not core.outcome_groups and not core.guard_groups
        assert not core.inv_groups
        assert sorted(core.eager) == list(range(core.n_instances))
        assert "outcome group" not in core.kernel_source

    def test_emit_kernel_is_pure_python_source(self):
        core = compiled_for(counter_spec())
        source, fn = emit_kernel(core)
        assert callable(fn)
        compile(source, "<test>", "exec")  # round-trips as real source

    def test_memo_stats_reports_codegen_version(self):
        spec = counter_spec()
        engine = ExplorationEngine(spec, "bfs", max_states=100)
        engine.run()
        stats = engine.core.memo_stats()
        assert stats["memoized"] is True
        assert stats["codegen_version"] == CODEGEN_VERSION


class TestFrontierBatch:
    def test_from_entries_accepts_states_and_values(self):
        st = State.make(SCHEMA, x=1, y=0)
        batch = FrontierBatch.from_entries([(7, st, 0), (8, (2, 0), 1)])
        assert len(batch) == 2
        assert batch.fps == [7, 8]
        assert batch.values == [st.values, (2, 0)]
        assert batch.knowns == [0, 1]

    def test_single_and_state_materialization(self):
        batch = FrontierBatch.single(5, (1, 1), 0)
        assert len(batch) == 1
        assert batch.state(0, SCHEMA).x == 1


class TestDifferentialIdentity:
    """The memoized kernel against the memo-free kernel (order level) and
    the seed checker (set level, at exhaustion)."""

    @pytest.mark.parametrize("strategy", ["bfs", "dfs"])
    def test_counter_identical(self, strategy):
        sigs = {}
        for incremental in (True, False):
            engine = ExplorationEngine(
                counter_spec(max_x=6, y_bound=3),
                strategy,
                max_states=10_000,
                incremental=incremental,
            )
            sigs[incremental] = run_sig(engine.run())
        assert sigs[True] == sigs[False]
        if strategy == "bfs":
            assert sigs[True] == legacy_sig(counter_spec(max_x=6, y_bound=3))

    def test_random_walk_identical_entropy(self):
        # Same seed, same candidate distributions => same walk, memoized
        # or not.  The space (~465 states at max_x=30) is larger than the
        # budget so both arms stop on the same deterministic state-count
        # cutoff, never on wall-clock.
        sigs = {}
        for incremental in (True, False):
            engine = ExplorationEngine(
                counter_spec(max_x=30, y_bound=10 ** 9),
                "random",
                max_states=300,
                seed=11,
                incremental=incremental,
            )
            sigs[incremental] = run_sig(engine.run())
        assert sigs[True] == sigs[False]

    def test_fuzzed_counter_family_identical(self):
        rng = random.Random(2024)
        for trial in range(6):
            max_x = rng.randint(2, 9)
            bound = rng.randint(1, 5)
            sigs = {}
            for incremental in (True, False):
                engine = ExplorationEngine(
                    counter_spec(max_x=max_x, y_bound=bound),
                    "bfs",
                    max_states=5_000,
                    incremental=incremental,
                )
                sigs[incremental] = run_sig(engine.run())
            assert sigs[True] == sigs[False], (trial, max_x, bound)
            assert sigs[True] == legacy_sig(
                counter_spec(max_x=max_x, y_bound=bound)
            ), (trial, max_x, bound)

    def test_expand_batch_matches_interpreted_expand(self):
        # Both kernel layouts against the interpreted successor relation
        # (Specification.successors), along a chain of expansions that
        # keeps the memoized kernel's memos and inherited bits warm.
        spec = counter_spec()
        memo = compiled_for(spec)
        plain = compiled_for(spec, incremental=False)
        state = spec.initial_states()[0]
        fp = memo.fingerprinter.of_values(state.values)
        known = 0
        while True:
            batch = FrontierBatch.single(fp, state.values, known)
            ((_, mtrans, mcands),) = memo.expand_batch(batch, set(), dedupe=False)
            ((_, ptrans, pcands),) = plain.expand_batch(
                FrontierBatch.single(fp, state.values, 0), set(), dedupe=False
            )
            expected = [
                (memo.labels.index(label), nxt.values,
                 memo.fingerprinter.of_values(nxt.values))
                for label, nxt in spec.successors(state)
            ]
            assert [c[:3] for c in mcands] == expected
            assert [c[:3] for c in pcands] == expected
            assert mtrans == ptrans == len(expected)
            if not mcands:
                break
            _, values, fp, known = mcands[-1][:4]
            state = State(spec.schema, values)


class TestLintGatedCompile:
    def test_lying_spec_is_untrusted(self):
        assert kernel_trusted(lying_spec()) is False
        assert kernel_trusted(counter_spec()) is True

    def test_untrusted_spec_explores_true_state_space(self):
        # Memoizing on IncY's untruthful reads would prune most of the
        # space; an untrusted spec gets the memo-free kernel instead.
        core = compiled_for(lying_spec())
        assert not core.memoized
        result = ExplorationEngine(lying_spec(), "bfs", max_states=10_000).run()
        assert result.completed
        assert run_sig(result) == legacy_sig(lying_spec())
        assert run_sig(result)[:3] == (10, 12, 6)

    def test_forced_compile_with_debug_catches_the_lie(self):
        spec = lying_spec()
        spec._kernel_trusted = True  # pre-seed the verdict cache: memoize anyway
        engine = ExplorationEngine(spec, "bfs", max_states=10_000, debug=True)
        with pytest.raises(AssertionError):
            engine.run()

    def test_bad_compile_mode_rejected(self):
        # The kernel is the only successor path; there is no mode to pick.
        with pytest.raises(TypeError):
            compiled_for(counter_spec(), compile_mode="on")
        with pytest.raises(TypeError):
            ExplorationEngine(counter_spec(), compile_mode="off")


class TestAdaptiveDemotionUnderKernel:
    def test_demotion_reemits_kernel_and_preserves_enumeration(self):
        baseline = ExplorationEngine(
            counter_spec(max_x=8, y_bound=4),
            "bfs",
            max_states=10_000,
        )
        base_sig = run_sig(baseline.run())

        spec = counter_spec(max_x=8, y_bound=4)
        core = compiled_for(spec)
        assert core.outcome_groups
        old_kernel = core.kernel
        core._demote([0])
        assert core.kernel is not old_kernel  # re-emitted for the new layout
        assert core.demoted_groups
        engine = ExplorationEngine(spec, "bfs", max_states=10_000)
        assert run_sig(engine.run()) == base_sig


class TestMaskConstraintMemo:
    def test_declared_constraint_memoized_and_identical_to_undeclared(self):
        def declared(config, state):
            return state.x <= 3

        declared.reads = frozenset({"x"})

        def plain(config, state):
            return state.x <= 3

        sigs = {}
        for label, cap in (("declared", declared), ("plain", plain)):
            spec = counter_spec(max_x=9, constraint=cap)
            engine = ExplorationEngine(spec, "bfs", max_states=10_000)
            sigs[label] = run_sig(engine.run())
            if label == "declared":
                assert engine.core.constraint_key is not None
                assert len(engine.core.constraint_memo) > 0
            else:
                assert engine.core.constraint_key is None
        assert sigs["declared"] == sigs["plain"]

    def test_declared_mask_is_memoized_and_identical(self):
        def mask(state):
            return state.y == 2

        mask.reads = frozenset({"y"})

        def plain_mask(state):
            return state.y == 2

        sigs = {}
        for label, m in (("declared", mask), ("plain", plain_mask)):
            engine = ExplorationEngine(
                counter_spec(max_x=6, y_bound=1),
                "bfs",
                max_states=10_000,
                mask=m,
            )
            sigs[label] = run_sig(engine.run())
            if label == "declared":
                assert engine.core.mask_key is not None
                assert len(engine.core.mask_memo) > 0
            else:
                assert engine.core.mask_key is None
        assert sigs["declared"] == sigs["plain"]


class TestCodegenVersionedDigest:
    def test_spec_cache_digest_tracks_codegen_version(self, monkeypatch):
        from repro.remix import spec_cache
        from repro.tla import codegen

        def fresh_digest():
            monkeypatch.setattr(spec_cache, "_SOURCE_DIGEST", None)
            spec_cache._SOURCE_DIGESTS.clear()
            return spec_cache.source_digest("zookeeper")

        before = fresh_digest()
        monkeypatch.setattr(codegen, "CODEGEN_VERSION", codegen.CODEGEN_VERSION + 1)
        after = fresh_digest()
        assert before != after
