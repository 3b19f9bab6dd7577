"""Run one workload of the repository's benchmark and print its metrics.

    python3 perfbench/run.py --workload table4-bughunt --seed 0 --seconds 8 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
The workload runs measured passes until ``--seconds`` have gone by (at
least one pass, two for ``campaign-both``), then:

- ``--trace 0`` prints the end-to-end metrics (``work_s`` is the median
  pass; ``setup_s`` the median of several fresh set-up processes);
- ``--trace 1`` runs one more pass with spans recorded around calls
  into the program's layers and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable
summary goes to standard error.  The exit code is 1 when any output
differs from its known answer or between passes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh set-up processes per run; ``setup_s`` is their median.
SETUP_PROBES = 7

END_TO_END = {"work_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units(check_ids) -> dict:
    """Every per-layer metric and its unit, in print order."""
    units = {
        "trace.wall_s": "s",
        "trace.untraced_s": "s",
        "trace.coverage": "ratio",
        "host.calib_s": "s",
        "tla.compose_s": "s",
        "checker.engine.compile_s": "s",
    }
    for kind, unit in (
        ("run_s", "s"),
        ("states", "count"),
        ("states_per_s", "1/s"),
        ("outcome_hit_rate", "ratio"),
        ("guard_hit_rate", "ratio"),
    ):
        for check in check_ids:
            units[f"checker.engine.{kind}.{check}"] = unit
    units.update(
        {
            "checker.random_walk.walk_s": "s",
            "remix.spec_cache.prewarm_s": "s",
            "remix.spec_cache.misses": "count",
            "remix.spec_cache.prefix_misses": "count",
            "remix.campaign.cell_s.topdown.p50": "s",
            "remix.campaign.cell_s.topdown.p90": "s",
            "remix.campaign.cell_s.bottomup.p50": "s",
            "remix.campaign.cell_s.bottomup.p90": "s",
            "remix.campaign.system_s.zookeeper": "s",
            "remix.campaign.system_s.raft": "s",
            "remix.coordinator.replay_s": "s",
            "remix.coordinator.steps": "count",
            "remix.trace_validation.explore_s": "s",
            "remix.trace_validation.probes": "count",
            "remix.trace_validation.committed": "count",
            "remix.trace_validation.probe_yield": "ratio",
            "remix.trace_validation.probe_overhead_s": "s",
            "remix.trace_validation.validate_s": "s",
            "impl.step_s.probe": "s",
            "impl.step_s.replay": "s",
            "impl.step_s.validate": "s",
            "remix.minimize.shrink_s": "s",
            "remix.minimize.findings": "count",
            "remix.minimize.oracle_calls": "count",
            "checker.backends.parallel_efficiency": "ratio",
        }
    )
    return units


def host_calib() -> float:
    """Median time of a fixed pure-Python loop: a probe of host speed,
    recorded beside the results and never used to scale them."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        table: dict = {}
        for i in range(100_000):
            key = (i & 1023, i % 7)
            table[key] = table.get(key, 0) + i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def clean_env() -> dict:
    """The environment without the program's ``REPRO_*`` knobs."""
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def setup_seconds(args, work_root: str) -> float:
    """Median wall time, over fresh processes, from spawn to the end of
    the workload's set-up (imports, composition, campaign pre-warm
    against an empty on-disk spec cache)."""
    samples = []
    for _ in range(SETUP_PROBES):
        cache_dir = tempfile.mkdtemp(dir=work_root)
        command = [
            sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--size", args.size, "--cache-dir", cache_dir,
        ]
        start = time.monotonic()
        done = subprocess.run(
            command, env=clean_env(), cwd=ROOT, capture_output=True, text=True, check=True
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["ready"] - start)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def quantile(values, q: int) -> float:
    """The ``q``-th percentile (10, 50 or 90) of ``values``; 0 if empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def instrument(tracer) -> None:
    """Wrap the public entry points of every layer a workload reaches."""
    from repro.checker.random_walk import RandomWalker
    from repro.raft import spec as raft_spec
    from repro.remix import campaign, minimize, spec_cache
    from repro.remix.coordinator import Coordinator
    from repro.remix.mapping import ActionMapping
    from repro.remix.trace_validation import ImplExplorer, TraceValidator
    from repro.zookeeper import specs

    counters = tracer.counters

    def committed(result):
        counters["remix.trace_validation.committed"] += len(result[0])

    def replayed(result):
        counters["remix.coordinator.steps"] += result.steps_executed

    tracer.wrap(specs, "build_spec", "tla.compose")
    tracer.wrap(raft_spec, "make_spec", "tla.compose")
    # The spec cache as the benchmark's pre-warm and the campaign reach it.
    for module in (spec_cache, campaign):
        for name in ("cached_spec", "cached_mapping", "cached_prefix"):
            tracer.wrap(module, name, "remix.spec_cache." + name)
    tracer.wrap(campaign, "run_cell", "remix.campaign.cell.topdown")
    tracer.wrap(campaign, "run_validation_cell", "remix.campaign.cell.bottomup")
    tracer.wrap(minimize, "shrink_finding", "remix.minimize.shrink")
    tracer.wrap(minimize.ConformanceOracle, "__call__", "remix.minimize.oracle")
    tracer.wrap(minimize.ValidationOracle, "__call__", "remix.minimize.oracle")
    tracer.wrap(Coordinator, "replay", "remix.coordinator.replay", replayed)
    tracer.wrap(ImplExplorer, "explore", "remix.trace_validation.explore", committed)
    tracer.wrap(TraceValidator, "validate_labels", "remix.trace_validation.validate")
    tracer.wrap(RandomWalker, "walk", "checker.random_walk.walk")
    tracer.time_mapped_steps(ActionMapping)


def layer_metrics(units, tracer, traced, untraced_s, campaign_s, calib) -> dict:
    """Reduce the traced pass's spans and counters to per-layer values;
    a layer the workload does not reach reads 0.  ``campaign_s`` is the
    untraced 2-worker campaign time, ``None`` for engine workloads."""
    from repro.remix import spec_cache

    from workloads import CHECK_IDS, WORKERS

    total, counters = tracer.total, tracer.counters
    values = dict.fromkeys(units, 0.0)
    values.update(traced.layer)
    for check in CHECK_IDS:
        run = total("checker.engine.run." + check)
        states = values[f"checker.engine.states.{check}"]
        values[f"checker.engine.run_s.{check}"] = run
        values[f"checker.engine.states_per_s.{check}"] = states / run if run else 0.0
    wall, covered = tracer.coverage(
        lambda name: name.startswith(("bench.check.", "bench.prewarm", "bench.campaign."))
    )
    cells = {d: tracer.durations("remix.campaign.cell." + d) for d in ("topdown", "bottomup")}
    shrink = tracer.durations("remix.minimize.shrink")
    explore = total("remix.trace_validation.explore")
    probes = counters["impl.steps.probe"]
    values.update(
        {
            "trace.wall_s": wall,
            "trace.untraced_s": untraced_s,
            "trace.coverage": covered / wall if wall else 0.0,
            "host.calib_s": calib,
            "tla.compose_s": tracer.outermost_total("tla.compose"),
            "checker.engine.compile_s": total("bench.compile"),
            "checker.random_walk.walk_s": total("checker.random_walk.walk"),
            "remix.spec_cache.prewarm_s": total("bench.prewarm"),
            "remix.coordinator.replay_s": total("remix.coordinator.replay"),
            "remix.coordinator.steps": counters["remix.coordinator.steps"],
            "remix.trace_validation.explore_s": explore,
            "remix.trace_validation.probes": probes,
            "remix.trace_validation.committed": counters["remix.trace_validation.committed"],
            "remix.trace_validation.probe_yield": (
                counters["remix.trace_validation.committed"] / probes if probes else 0.0
            ),
            "remix.trace_validation.probe_overhead_s": explore - counters["impl.step_s.probe"],
            "remix.trace_validation.validate_s": total("remix.trace_validation.validate"),
            "impl.step_s.probe": counters["impl.step_s.probe"],
            "impl.step_s.replay": counters["impl.step_s.replay"],
            "impl.step_s.validate": counters["impl.step_s.validate"],
            "remix.minimize.shrink_s": sum(shrink),
            "remix.minimize.findings": len(shrink),
            "remix.minimize.oracle_calls": len(tracer.durations("remix.minimize.oracle")),
        }
    )
    for direction, durations in cells.items():
        values[f"remix.campaign.cell_s.{direction}.p50"] = quantile(durations, 50)
        values[f"remix.campaign.cell_s.{direction}.p90"] = quantile(durations, 90)
    if campaign_s is not None:
        stats = spec_cache.stats()
        values["remix.spec_cache.misses"] = stats["misses"]
        values["remix.spec_cache.prefix_misses"] = stats["prefix_misses"]
        busy = sum(sum(d) for d in cells.values()) + sum(shrink)
        values["checker.backends.parallel_efficiency"] = busy / (WORKERS * campaign_s)
    return values


def span_table(tracer) -> str:
    """Calls, total and self time per span name, slowest self time first."""
    rows: dict = {}
    child_time = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span.parent >= 0:
            child_time[span.parent] += span.seconds
    for span, children in zip(tracer.spans, child_time):
        row = rows.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.seconds
        row[2] += span.seconds - children
    lines = [f"{'span':48} {'calls':>7} {'total_s':>9} {'self_s':>9}"]
    for name, (calls, seconds, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:48} {calls:7d} {seconds:9.3f} {own:9.3f}")
    return "\n".join(lines)


def run(args, work_root: str) -> dict:
    import workloads

    log = lambda text: print(text, file=sys.stderr, flush=True)  # noqa: E731
    calib_before = host_calib()
    workload = workloads.make(args.workload, args.seed, args.size == "tiny")
    campaign = isinstance(workload, workloads.CampaignWorkload)
    setup_s = None if args.trace else setup_seconds(args, work_root)
    workload.setup(tempfile.mkdtemp(dir=work_root))

    passes = []
    # A traced engine run makes no untraced passes: its traced pass adds
    # three spans per check, and a second pass would double the run.
    if not args.trace or campaign:
        started = time.perf_counter()
        while len(passes) < workload.min_passes or time.perf_counter() - started < args.seconds:
            passes.append(workload.run_pass())
            log(f"pass {len(passes)}: work {passes[-1].work_s:.3f} s, pass {passes[-1].pass_s:.3f} s")
    work_s = statistics.median(p.work_s for p in passes) if passes else 0.0
    checked = list(passes)

    if args.trace:
        from tracing import Tracer

        untraced_s, options = 0.0, {}
        if campaign:
            # Spans are recorded in this process, so the traced pass runs
            # inline; an untraced inline pass before it shows the overhead.
            untraced = workload.run_pass(workers=1, cache_dir=tempfile.mkdtemp(dir=work_root))
            checked.append(untraced)
            untraced_s = untraced.pass_s
            options = {"workers": 1, "cache_dir": tempfile.mkdtemp(dir=work_root)}
        tracer = Tracer()
        instrument(tracer)
        try:
            traced = workload.run_pass(tracer, **options)
        finally:
            tracer.restore()
        checked.append(traced)
        log(span_table(tracer))
        units = per_layer_units(workloads.CHECK_IDS)
        calib = statistics.median([calib_before, host_calib()])
        metrics = layer_metrics(
            units, tracer, traced, untraced_s, work_s if campaign else None, calib
        )
        log(f"traced pass {metrics['trace.wall_s']:.3f} s, untraced {untraced_s:.3f} s; "
            f"top-level layer spans cover {metrics['trace.coverage']:.1%}")
    else:
        units = END_TO_END
        metrics = {"work_s": work_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}

    mismatches = [m for p in checked for m in p.mismatches]
    mismatches += [
        f"run {i + 1}: outputs differ from run 1"
        for i, p in enumerate(checked)
        if p.outputs != checked[0].outputs
    ]
    log(f"{args.workload}: {len(passes)} measured pass(es), work_s median {work_s:.3f} s, "
        f"host.calib_s {calib_before:.4f} s before, {host_calib():.4f} s after")
    for mismatch in mismatches:
        log("MISMATCH " + mismatch)
    return {
        "correct": not mismatches,
        "attempted": sum(p.attempted for p in checked),
        "failed": sum(p.failed for p in checked),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("table4-bughunt", "campaign-both"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-sized inputs for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cache-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: src/repro not found; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe:
        import workloads

        workloads.make(args.workload, args.seed, args.size == "tiny").setup(args.cache_dir)
        print(json.dumps({"ready": time.monotonic()}))
        return 0

    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    work_root = tempfile.mkdtemp(dir=scratch)
    try:
        result = run(args, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
