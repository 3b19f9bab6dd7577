"""Table 5: verification efficiency of the five specifications.

Mode (a): stop at the first violation.  Mode (b): run to completion
within the budgets.  The paper's shape to reproduce:

- Baseline and mSpec-4 drown in the fine-grained Election state space
  (paper: >24h; here: budget exhausted without reaching a violation,
  except mSpec-4 which eventually finds one -- paper 8h32m);
- mSpec-1 finishes without violations (ZK-4394 masked);
- mSpec-2 finds I-8, mSpec-3 finds a violation fastest.

Besides the pytest-benchmark entry points, this file doubles as a CLI
smoke benchmark for CI::

    python benchmarks/bench_table5_efficiency.py \
        --max-states 2000 --max-time 10 --json bench-smoke.json

which runs all five specs through the exploration engine under a tiny
budget and writes a JSON artifact (states, transitions, states/sec,
violated invariant).  ``--compare-legacy`` additionally runs the seed
checker (:mod:`repro.checker.legacy`) on the same workload and reports
the engine-vs-legacy throughput ratio.
"""

import argparse
import json
import math
import sys
import time

import pytest

from bench_common import bench_config, hunt, once, print_table

#: spec -> paper row for mode (a): (time, depth, states, invariant)
PAPER_A = {
    "SysSpec": (">24h", 26, 2_271_335_268, "None"),
    "mSpec-1": ("12m20s", 56, 17_586_953, "None"),
    "mSpec-2": ("1m15s", 21, 2_237_960, "I-8"),
    "mSpec-3": ("11s", 13, 77_179, "I-10"),
    "mSpec-4": ("8h32m6s", 24, 967_810_552, "I-10"),
}

#: budgets proportional to the spec's expected cost
BUDGETS = {
    "SysSpec": dict(max_states=120_000, max_time=60),
    "mSpec-1": dict(max_states=400_000, max_time=90),
    "mSpec-2": dict(max_states=400_000, max_time=120),
    "mSpec-3": dict(max_states=400_000, max_time=120),
    "mSpec-4": dict(max_states=200_000, max_time=90),
}

_FIRST = {}
_COMPLETE = {}


@pytest.mark.parametrize("name", list(PAPER_A))
def test_stop_at_first_violation(benchmark, name):
    config = bench_config()

    def run():
        return hunt(name, config, masked=True, **BUDGETS[name])

    result = once(benchmark, run)
    _FIRST[name] = result
    if name in ("mSpec-2", "mSpec-3"):
        assert result.found_violation, f"{name} should find a violation"
    if name in ("SysSpec", "mSpec-1"):
        assert not result.found_violation


@pytest.mark.parametrize("name", ["mSpec-2", "mSpec-3"])
def test_run_to_completion(benchmark, name):
    config = bench_config()

    def run():
        return hunt(
            name,
            config,
            masked=True,
            stop_at_first=False,
            violation_limit=500,
            max_states=450_000,
            max_time=150,
        )

    result = once(benchmark, run)
    _COMPLETE[name] = result
    assert len(result.violations) >= 1


def test_zz_report(benchmark):
    benchmark(lambda: None)  # keep the report under --benchmark-only
    rows = []
    for name, paper in PAPER_A.items():
        result = _FIRST.get(name)
        if result is None:
            continue
        found = result.first_violation
        rows.append(
            (
                name,
                f"{result.elapsed_seconds:.1f}s ({paper[0]})",
                f"{found.depth if found else result.max_depth} ({paper[1]})",
                f"{result.states_explored} ({paper[2]:,})",
                f"{found.invariant.ident if found else 'None'} ({paper[3]})",
            )
        )
    print_table(
        "Table 5a: first violation, measured (paper)",
        ("Spec", "Time", "Depth", "#States", "Violated"),
        rows,
    )
    rows_b = []
    for name, result in _COMPLETE.items():
        rows_b.append(
            (
                name,
                f"{result.elapsed_seconds:.1f}s",
                result.states_explored,
                len(result.violations),
                ", ".join(result.violated_invariant_ids()),
            )
        )
    print_table(
        "Table 5b: run to completion (bounded)",
        ("Spec", "Time", "#States", "#Violations", "Invariants"),
        rows_b,
    )
    # The paper's ordering: fine-grained mixed specs detect violations,
    # the baseline and mSpec-1 (masked) find none, and mSpec-3 is the
    # fastest to a violation.
    assert _FIRST["mSpec-3"].elapsed_seconds <= _FIRST["mSpec-2"].elapsed_seconds
    if _COMPLETE:
        assert len(_COMPLETE["mSpec-3"].violated_invariant_ids()) >= 1


# --------------------------------------------------------------- CLI smoke


def _smoke_row(result):
    found = result.first_violation
    rate = (
        result.states_explored / result.elapsed_seconds
        if result.elapsed_seconds > 0
        else 0.0
    )
    return {
        "states_explored": result.states_explored,
        "transitions": result.transitions,
        "max_depth": result.max_depth,
        "elapsed_seconds": round(result.elapsed_seconds, 3),
        "states_per_second": round(rate, 1),
        "violated": found.invariant.ident if found else None,
        "budget_exhausted": result.budget_exhausted,
        "completed": result.completed,
    }


def run_smoke(max_states, max_time, compare_legacy):
    """Run the five Table 5 specs under a small budget; return a report."""
    from repro.checker.legacy import LegacyBFSChecker
    from repro.zookeeper import zk4394_mask
    from repro.zookeeper.specs import SELECTIONS, build_spec

    config = bench_config()
    report = {
        "workload": {
            "max_states": max_states,
            "max_time": max_time,
        },
        "specs": {},
    }
    for name in PAPER_A:
        result = hunt(
            name,
            config,
            masked=True,
            max_states=max_states,
            max_time=max_time,
        )
        row = _smoke_row(result)
        if compare_legacy:
            spec = build_spec(name, SELECTIONS[name], config)
            checker = LegacyBFSChecker(
                spec, max_states=max_states, max_time=max_time, mask=zk4394_mask
            )
            t0 = time.monotonic()
            legacy = checker.run()
            elapsed = time.monotonic() - t0
            legacy_rate = legacy.states_explored / elapsed if elapsed > 0 else 0.0
            row["legacy_states_per_second"] = round(legacy_rate, 1)
            row["engine_speedup"] = (
                round(row["states_per_second"] / legacy_rate, 2)
                if legacy_rate
                else None
            )
        report["specs"][name] = row
    return report


def run_engine_trajectory(max_states, max_time):
    """The ``BENCH_engine.json`` perf-trajectory artifact.

    A/Bs the incremental successor path (delta fingerprints, outcome
    memoization, inherited disabled bits) against full recomputation
    (``incremental=False``) on every Table 5 spec.  The aggregate
    throughput ratio is the number CI's perf-smoke gate regresses
    against.
    """
    config = bench_config()
    report = {
        "schema": "repro.bench-engine/1",
        "workload": {
            "max_states": max_states,
            "max_time": max_time,
        },
        "specs": {},
    }
    inc_states = inc_time = full_states = full_time = 0.0
    for name in PAPER_A:
        budget = dict(masked=True, max_states=max_states, max_time=max_time)
        # The full-recompute arm runs first so that warm OS/allocator
        # caches never bias the gated (incremental) arm downward on a
        # noisy shared runner.
        full = hunt(name, config, incremental=False, **budget)
        incremental = hunt(name, config, **budget)
        row = {
            "incremental": _smoke_row(incremental),
            "full_recompute": _smoke_row(full),
        }
        # Equal exploration is a soundness check, but only when both
        # arms were cut by the same deterministic budget -- a max_time
        # truncation on a congested runner legitimately desynchronizes
        # the counts.
        comparable = all(
            r.completed or r.budget_exhausted == "max_states"
            for r in (incremental, full)
        )
        if comparable and (
            incremental.states_explored != full.states_explored
            or incremental.transitions != full.transitions
        ):
            raise SystemExit(
                f"A/B mismatch on {name}: incremental explored "
                f"{incremental.states_explored}/{incremental.transitions} "
                f"vs full {full.states_explored}/{full.transitions}"
            )
        if not comparable:
            row["time_truncated"] = True
        inc_states += incremental.states_explored
        inc_time += incremental.elapsed_seconds
        full_states += full.states_explored
        full_time += full.elapsed_seconds
        row["incremental_speedup"] = (
            round(
                (incremental.states_explored / incremental.elapsed_seconds)
                / (full.states_explored / full.elapsed_seconds),
                3,
            )
            if incremental.elapsed_seconds > 0
            and full.elapsed_seconds > 0
            and full.states_explored
            else None
        )
        report["specs"][name] = row
    inc_rate = inc_states / inc_time if inc_time > 0 else 0.0
    full_rate = full_states / full_time if full_time > 0 else 0.0
    report["aggregate"] = {
        "incremental_states_per_second": round(inc_rate, 1),
        "full_recompute_states_per_second": round(full_rate, 1),
        "incremental_speedup": round(inc_rate / full_rate, 3) if full_rate else None,
    }
    return report


#: The compiled-kernel lane: one row per (protocol, spec, budget), the
#: engine (memoized kernel) against the seed checker.  The rows
#: deliberately span both memoization regimes.  The ZooKeeper specs have
#: wide dependency closures (the hot ``state`` variable sits in nearly
#: every closure), so they are Amdahl-bound by shared applier cost.  The
#: Raft plugin specs have narrow closures, so memo replay is the dominant
#: cost -- ``raft-fine@150k`` is the gate row.  Raft appears at two
#: budgets because memo hit rates (and so the kernel advantage) grow with
#: frontier depth; the pair records that trend.
AB_COMPILED_ROWS = (
    ("zookeeper", "SysSpec", 30_000),
    ("zookeeper", "mSpec-2", 30_000),
    ("zookeeper", "mSpec-3", 30_000),
    ("raft", "raft-coarse", 100_000),
    ("raft", "raft-fine", 100_000),
    ("raft", "raft-coarse", 150_000),
    ("raft", "raft-fine", 150_000),
)

#: The row the --min-compiled-ratio gate applies to.
AB_COMPILED_GATE_ROW = "raft-fine@150k"

#: Per-row regression floors on ``compiled_vs_seed_speedup``: 0.9x the
#: row's committed interpreted-path/seed ratio, rounded up, from the last
#: BENCH_engine.json that measured the interpreted successor path.  The
#: kernel was never slower than that path, so falling below a floor is a
#: regression, modulo runner noise.
AB_COMPILED_FLOORS = {
    "SysSpec@30k": 1.36,
    "mSpec-2@30k": 1.69,
    "mSpec-3@30k": 1.82,
    "raft-coarse@100k": 1.92,
    "raft-fine@100k": 2.48,
    "raft-coarse@150k": 2.16,
    "raft-fine@150k": 2.45,
}


def _ab_compiled_spec(protocol, name):
    if protocol == "zookeeper":
        from repro.zookeeper import zk4394_mask
        from repro.zookeeper.specs import SELECTIONS, build_spec

        return build_spec(name, SELECTIONS[name], bench_config()), zk4394_mask
    from repro.raft.config import RaftConfig
    from repro.raft.spec import make_spec as raft_make_spec

    return raft_make_spec(name, RaftConfig()), None


def run_ab_compiled(max_time, reps=2):
    """The compiled-kernel lane of ``BENCH_engine.json``.

    Per row, runs the engine and the seed checker under the same
    sequential state budget, interleaved for ``reps`` repetitions with the
    minimum CPU time kept per arm (min-of-N cancels runner drift far
    better than wall-clock means).  The engine's enumeration must be
    identical in every repetition -- states, transitions and violations
    are compared and a mismatch is a hard failure, not a statistic.
    """
    from repro.checker.engine import ExplorationEngine
    from repro.checker.legacy import LegacyBFSChecker

    rows = {}
    for protocol, name, max_states in AB_COMPILED_ROWS:
        times = {"compiled": [], "seed": []}
        explored = {"compiled": [], "seed": []}

        def arm(mode):
            spec, mask = _ab_compiled_spec(protocol, name)
            runner_cls = LegacyBFSChecker if mode == "seed" else ExplorationEngine
            runner = runner_cls(
                spec, max_states=max_states, max_time=max_time, mask=mask
            )
            t0 = time.process_time()
            result = runner.run()
            times[mode].append(time.process_time() - t0)
            explored[mode].append(
                (
                    result.states_explored,
                    result.transitions,
                    sorted(v.invariant.full_name for v in result.violations),
                )
            )

        for _ in range(reps):
            for mode in ("compiled", "seed"):
                arm(mode)
        if len(set(map(repr, explored["compiled"]))) != 1:
            raise SystemExit(
                f"engine enumeration differs between repetitions on {name}: "
                f"{explored['compiled']}"
            )
        states = explored["compiled"][0][0]
        seed_states = explored["seed"][0][0]
        best = {mode: min(ts) for mode, ts in times.items()}
        rows[f"{name}@{max_states // 1000}k"] = {
            "spec": name,
            "protocol": protocol,
            "max_states": max_states,
            "states_explored": states,
            "compiled_seconds": round(best["compiled"], 3),
            "seed_seconds": round(best["seed"], 3),
            "compiled_vs_seed_speedup": round(
                (best["seed"] / seed_states) / (best["compiled"] / states),
                3,
            )
            if seed_states
            else None,
        }

    def geomean(values):
        values = [v for v in values if v]
        if not values:
            return None
        return round(math.exp(sum(math.log(v) for v in values) / len(values)), 3)

    gate = rows.get(AB_COMPILED_GATE_ROW, {})
    return {
        "rows": rows,
        "aggregate": {
            "geomean_compiled_vs_seed_speedup": geomean(
                r["compiled_vs_seed_speedup"] for r in rows.values()
            ),
            "gate_row": AB_COMPILED_GATE_ROW,
            "gate_compiled_vs_seed_speedup": gate.get(
                "compiled_vs_seed_speedup"
            ),
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Table 5 efficiency smoke benchmark (engine-based)"
    )
    parser.add_argument("--max-states", type=int, default=2_000)
    parser.add_argument("--max-time", type=float, default=15.0)
    parser.add_argument("--json", dest="json_path", default=None)
    parser.add_argument(
        "--compare-legacy",
        action="store_true",
        help="also run the seed checker and report the speedup ratio",
    )
    parser.add_argument(
        "--ab-incremental",
        action="store_true",
        help="emit the BENCH_engine.json perf trajectory instead: "
        "incremental vs full-recompute A/B per spec",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=None,
        help="with --ab-incremental: exit 1 unless the aggregate "
        "incremental/full-recompute throughput ratio is at least this "
        "(CI perf-smoke gate; 1.0 = never slower than full recompute)",
    )
    parser.add_argument(
        "--ab-compiled",
        action="store_true",
        help="add the compiled-kernel lane to the report: engine vs "
        "seed checker per AB_COMPILED_ROWS row, sequential, min-of-2 "
        "CPU time, with a hard repeat-enumeration check",
    )
    parser.add_argument(
        "--min-compiled-ratio",
        type=float,
        default=None,
        help="with --ab-compiled: exit 1 unless the gate row "
        f"({AB_COMPILED_GATE_ROW}) reaches this compiled/seed speedup "
        "and every row stays above its AB_COMPILED_FLOORS regression "
        "floor",
    )
    args = parser.parse_args(argv)
    if args.ab_incremental:
        report = run_engine_trajectory(args.max_states, args.max_time)
    else:
        report = run_smoke(args.max_states, args.max_time, args.compare_legacy)
    if args.ab_compiled:
        report["ab_compiled"] = run_ab_compiled(args.max_time)
    text = json.dumps(report, indent=2)
    print(text)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(text + "\n")
    if args.ab_incremental and args.min_ratio is not None:
        ratio = report["aggregate"]["incremental_speedup"]
        if ratio is None or ratio < args.min_ratio:
            print(
                f"perf-smoke gate FAILED: incremental/full ratio {ratio} "
                f"< required {args.min_ratio}",
                file=sys.stderr,
            )
            return 1
        print(
            f"perf-smoke gate ok: incremental/full ratio {ratio} >= "
            f"{args.min_ratio}",
            file=sys.stderr,
        )
    if args.ab_compiled and args.min_compiled_ratio is not None:
        ab = report["ab_compiled"]
        gate = ab["aggregate"]["gate_compiled_vs_seed_speedup"]
        if gate is None or gate < args.min_compiled_ratio:
            print(
                f"compiled gate FAILED: {AB_COMPILED_GATE_ROW} "
                f"compiled/seed ratio {gate} < required "
                f"{args.min_compiled_ratio}",
                file=sys.stderr,
            )
            return 1
        for row_name, floor in AB_COMPILED_FLOORS.items():
            ratio = ab["rows"][row_name]["compiled_vs_seed_speedup"]
            if ratio is None or ratio < floor:
                print(
                    f"compiled gate FAILED: {row_name} compiled/seed ratio "
                    f"{ratio} < regression floor {floor}",
                    file=sys.stderr,
                )
                return 1
        print(
            f"compiled gate ok: {AB_COMPILED_GATE_ROW} compiled/seed ratio "
            f"{gate} >= {args.min_compiled_ratio}, every row above its floor",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
