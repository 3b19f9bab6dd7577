"""The benchmark's two workloads, their inputs and their known answers.

A workload prepares what its set-up time covers (:meth:`setup`), runs
measured passes (:meth:`run_pass`) and, in the traced run, one more pass
with a :class:`~tracing.Tracer` recording spans.  A pass returns a
:class:`PassResult`; every output it carries is compared with a known
answer or with the other passes of the same run.

The engine workload calls :class:`~repro.checker.engine.ExplorationEngine`
directly, never ``benchmarks/bench_common.hunt``, which reads
``REPRO_BENCH_*`` environment knobs.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional

from repro.checker.engine import CompiledSpec, ExplorationEngine
from repro.remix import spec_cache
from repro.remix.campaign import CampaignRequest, ConformanceCampaign, run_campaign
from repro.system.plugin import ScenarioError
from repro.zookeeper import PR_1930, ZkConfig, specs, zk4394_mask

#: Budgets for one engine check.  A hunt that hits one counts as a
#: failed operation.
MAX_STATES = 2_000_000
MAX_SECONDS = 150.0

#: Engine checks a measured pass runs at once: at most two, one per CPU
#: of the 2-CPU host the benchmark was tuned on, and never more CPUs
#: than this process may use.
LANES = min(2, len(os.sched_getaffinity(0)))


@dataclass
class PassResult:
    #: The workload's end-to-end time: time to violation or campaign
    #: time.
    work_s: float
    #: The whole pass: ``work_s`` plus per-pass composition or pre-warm.
    pass_s: float
    attempted: int
    failed: int
    mismatches: List[str]
    #: Outputs that must be identical in every pass of one run.
    outputs: Any
    #: Per-layer values read from the program after the pass.
    layer: Dict[str, float] = field(default_factory=dict)


# ------------------------------------------------------------ engine checks


@dataclass(frozen=True)
class Check:
    """One exploration run and its known answer: the ``states`` explored
    and the first violation's ``invariant`` and ``depth``."""

    ident: str
    compose: Callable[[], Any]
    mask: Optional[Callable] = None
    expect: Dict[str, Any] = field(default_factory=dict)


def _zk_config(**overrides) -> ZkConfig:
    """``benchmarks/bench_common.bench_config``: 3 servers, 2 txns,
    2 crashes, no partitions, epoch bound 3."""
    values = dict(n_servers=3, max_txns=2, max_crashes=2, max_partitions=0, max_epoch=3)
    values.update(overrides)
    return ZkConfig(**values)


def _hunt(ident, spec, config, family, instance=None, variant=None, masked=True, **expect):
    """A Table-4 hunt: ``spec`` restricted to one invariant family (and
    instance), as in ``benchmarks/bench_table4_bugs.py::BUGS``."""

    def compose():
        cfg = _zk_config(**config)
        if variant is not None:
            cfg = cfg.with_variant(variant)
        # Through the module attribute, so a traced run sees the call.
        composed = specs.build_spec(spec, specs.SELECTIONS[spec], cfg)
        composed.invariants = [
            inv
            for inv in composed.invariants
            if inv.ident == family and (instance is None or inv.instance == instance)
        ]
        return composed

    return Check(
        ident,
        compose,
        zk4394_mask if masked else None,
        dict(expect, invariant=family),
    )


TABLE4 = [
    _hunt("ZK-3023", "mSpec-3", dict(max_txns=1, max_crashes=1), "I-11",
          instance="ACK_UPTODATE_OUT_OF_SYNC", states=17_940, depth=23),
    _hunt("ZK-4394", "mSpec-1", dict(max_txns=1, max_crashes=1), "I-14",
          instance="COMMIT_UNMATCHED_IN_SYNC", masked=False, states=2_681, depth=13),
    _hunt("ZK-4643", "mSpec-2", dict(max_txns=1, max_crashes=2), "I-8",
          states=105_544, depth=25),
    _hunt("ZK-4646", "mSpec-3", dict(max_txns=1, max_crashes=2), "I-8",
          variant=PR_1930, states=107_414, depth=24),
    _hunt("ZK-4685", "mSpec-3", dict(max_txns=2, max_crashes=1), "I-12",
          instance="ACK_BEFORE_NEWLEADER_ACK", states=4_881, depth=14),
    _hunt("ZK-4712", "mSpec-3", dict(max_txns=2, max_crashes=1), "I-10",
          states=52_454, depth=22),
]


#: A seconds-sized stand-in for the self-test: the two smallest hunts.
TINY_CHECKS = [TABLE4[1], TABLE4[4]]

#: Every check a per-layer ``checker.engine.*.<check>`` metric names.
CHECK_IDS = [check.ident for check in TABLE4]


def _memo_hit_rate(rows) -> float:
    lookups = sum(row["lookups"] for row in rows)
    return sum(row["hits"] for row in rows) / lookups if lookups else 0.0


def _judge(check: Check, result) -> tuple:
    """``(failed, mismatches, got)`` for one finished engine run."""
    expect = check.expect
    got = {"states": result.states_explored}
    failed = not result.found_violation
    if result.found_violation:
        violation = result.first_violation
        got.update(invariant=violation.invariant.ident, depth=violation.depth)
    mismatches = [
        f"{check.ident}: {key} {got.get(key)!r}, expected {value!r}"
        for key, value in expect.items()
        if got.get(key) != value
    ]
    return failed, mismatches, got


def _spans(tracer):
    """``tracer.span``, or a no-op span factory when not tracing."""
    return tracer.span if tracer is not None else lambda name: nullcontext()


def in_children(fns: List[Callable[[], Any]], lanes: int) -> List[Any]:
    """``[fn() for fn in fns]``, each call in its own forked child
    process, at most ``lanes`` children at a time.

    A child ends without freeing what its ``fn`` built, so no sweep of
    millions of explored states is paid between checks, and its peak
    memory is its own rather than left over from an earlier check.  Fork
    (not spawn) lets ``fn`` be a closure; this process runs no threads.
    If a child fails, the others are stopped before the error is raised."""
    context = multiprocessing.get_context("fork")
    results: List[Any] = [None] * len(fns)
    pending = list(enumerate(fns))
    running: Dict[Any, tuple] = {}  # receiving end -> (index, child)
    try:
        while pending or running:
            while pending and len(running) < lanes:
                index, fn = pending.pop(0)
                receiver, sender = context.Pipe(duplex=False)
                child = context.Process(target=_child_main, args=(fn, sender))
                child.start()
                sender.close()
                running[receiver] = (index, child)
            for receiver in connection.wait(list(running)):
                index, child = running.pop(receiver)
                try:
                    status, value = receiver.recv()
                finally:
                    receiver.close()
                    child.join()
                if status != "ok":
                    raise RuntimeError("benchmark child process failed:\n" + value)
                results[index] = value
    finally:
        for receiver, (_, child) in running.items():
            child.terminate()
            child.join()
            receiver.close()
    return results


def _child_main(fn, sender) -> None:
    gc.disable()  # the process exits right after; never sweep
    try:
        sender.send(("ok", fn()))
    except Exception:
        sender.send(("error", traceback.format_exc()))
    finally:
        sender.close()


def _run_check(check: Check, tracer) -> Dict[str, Any]:
    """One engine check, its verdict and its memo statistics."""
    span = _spans(tracer)
    first_span = len(tracer.spans) if tracer is not None else 0
    with span("bench.check." + check.ident):
        start = time.perf_counter()
        spec = check.compose()
        engine = ExplorationEngine(
            spec,
            strategy="bfs",
            workers=1,
            max_states=MAX_STATES,
            max_time=MAX_SECONDS,
            mask=check.mask,
            stop_at_first=True,
        )
        run_start = time.perf_counter()
        with span("checker.engine.run." + check.ident):
            result = engine.run()
        end = time.perf_counter()
    failed, mismatches, got = _judge(check, result)
    stats = engine.core.memo_stats()
    layer = {
        "checker.engine.states." + check.ident: result.states_explored,
        "checker.engine.outcome_hit_rate." + check.ident: _memo_hit_rate(stats["outcome_groups"]),
        "checker.engine.guard_hit_rate." + check.ident: _memo_hit_rate(stats["guard_groups"]),
    }
    if tracer is not None:
        # A discarded compile of the same spec, outside the check's span:
        # what ``run`` spent before exploring.
        with span("bench.compile"):
            CompiledSpec(spec, mask=check.mask)
    return dict(
        work_s=end - run_start,
        pass_s=end - start,
        failed=failed,
        mismatches=mismatches,
        got=got,
        layer=layer,
        spans=tracer.spans[first_span:] if tracer is not None else [],
    )


class EngineWorkload:
    """Checks run with one worker each, each in its own forked process on
    a freshly composed spec, so that no check inherits another's memos,
    lint verdicts or heap.  A measured pass runs :data:`LANES` checks at
    once, largest first; a traced pass runs them one after another, so
    that its spans nest in one timeline."""

    min_passes = 1

    def __init__(self, name: str, checks: List[Check]):
        self.name = name
        # Largest known state count first, so the lanes finish together.
        # There is no seed: the checks' outputs do not depend on the order.
        self.checks = sorted(checks, key=lambda check: -check.expect["states"])

    def setup(self, cache_dir: str) -> None:
        for check in self.checks:
            check.compose()

    def run_pass(self, tracer=None) -> PassResult:
        work = whole = 0.0
        failed, mismatches, outputs, layer = 0, [], {}, {}
        runs = [lambda check=check: _run_check(check, tracer) for check in self.checks]
        base = len(tracer.spans) if tracer is not None else 0
        for check, ran in zip(self.checks, in_children(runs, 1 if tracer else LANES)):
            work += ran["work_s"]
            whole += ran["pass_s"]
            failed += ran["failed"]
            mismatches += ran["mismatches"]
            outputs[check.ident] = ran["got"]
            layer.update(ran["layer"])
            if tracer is not None:
                # Every child inherited a list of ``base`` spans; its own
                # spans' parents move with them to the end of this list.
                shift = len(tracer.spans) - base
                tracer.spans.extend(
                    replace(span, parent=span.parent + shift if span.parent >= base else span.parent)
                    for span in ran["spans"]
                )
        return PassResult(work, whole, len(self.checks), failed, mismatches, outputs, layer)


# --------------------------------------------------------------- campaigns

SYSTEMS = ("zookeeper", "raft")

#: Known answers of the seed-0, full-size campaign.
CAMPAIGN_ANSWERS = {
    "zookeeper": dict(cells=192, ok=162, inapplicable=30, findings=36),
    "raft": dict(cells=48, ok=48, inapplicable=0, findings=40),
}

#: The bottom-up implementation bug the seed-0 ZooKeeper campaign finds.
ZK4685 = dict(direction="bottomup", kind="impl_bug", bug_id="ZK-4685", error="UnrecognizedAckError")

#: Worker processes of the measured campaigns (``fork`` backend).
WORKERS = 2


def campaign_request(system: str, seed: int, workers: int, tiny: bool) -> CampaignRequest:
    """Both directions over the default axes, 1 seed, 2 traces, 12 steps,
    shrink on, no budget."""
    request = CampaignRequest(
        system=system,
        directions=("topdown", "bottomup"),
        seeds=1,
        traces=2,
        max_steps=12,
        seed=seed,
        workers=workers,
        backend="fork",
        shrink=True,
    )
    if tiny:
        request = replace(
            request,
            grains=request.grains[:1],
            scenarios=request.scenarios[:2],
            faults=request.faults[:2],
        )
    return request


def prewarm(requests: List[CampaignRequest]) -> None:
    """Compose, map and script every prefix the campaigns use, through
    the spec cache's public functions -- what ``ConformanceCampaign.run``
    does first."""
    for request in requests:
        campaign = ConformanceCampaign(request)
        config, system = campaign.config, campaign.system
        leader = config.n_servers - 1
        for grain in campaign.grains:
            spec_cache.cached_spec(grain, config, system=system)
            spec_cache.cached_mapping(grain, system=system)
            for scenario in campaign.scenarios:
                for fault in campaign.faults:
                    try:
                        spec_cache.cached_prefix(
                            grain, config, scenario, fault, leader, 0, system=system
                        )
                    except ScenarioError:
                        pass  # the cell reports itself inapplicable


def fresh_cache(cache_dir: str) -> None:
    """Empty the in-memory spec cache and point the on-disk layer at an
    empty directory (``REPRO_SPEC_CACHE_DIR`` is ignored)."""
    spec_cache.clear()
    spec_cache.set_disk_cache_dir(cache_dir)


def normalized(data: Dict[str, Any]) -> str:
    """A report's JSON as canonical text, without the fields that depend
    on how it was run."""
    meta = {k: v for k, v in data["campaign"].items() if k not in ("elapsed_seconds", "workers")}
    return json.dumps(dict(data, campaign=meta), sort_keys=True)


def _campaign_mismatches(system: str, data: Dict[str, Any]) -> List[str]:
    statuses = [cell["status"] for cell in data["cells"]]
    got = dict(
        cells=len(statuses),
        ok=statuses.count("ok"),
        inapplicable=statuses.count("inapplicable"),
        findings=len(data["findings"]),
    )
    wrong = [
        f"{system}: {key} {got[key]}, expected {value}"
        for key, value in CAMPAIGN_ANSWERS[system].items()
        if got[key] != value
    ]
    if system == "zookeeper" and not any(
        all(finding.get(k) == v for k, v in ZK4685.items()) for finding in data["findings"]
    ):
        wrong.append("zookeeper: bottom-up ZK-4685 UnrecognizedAckError not found")
    return wrong


class CampaignWorkload:
    """``run_campaign`` for ZooKeeper, then Raft, on warm spec caches."""

    name = "campaign-both"
    #: Two passes at least, so a seed without known answers is still
    #: checked by report identity between passes.
    min_passes = 2

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.known = seed == 0 and not tiny

    def requests(self, workers: int) -> List[CampaignRequest]:
        return [campaign_request(s, self.seed, workers, self.tiny) for s in SYSTEMS]

    def setup(self, cache_dir: str) -> None:
        fresh_cache(cache_dir)
        prewarm(self.requests(WORKERS))

    def run_pass(self, tracer=None, workers: int = WORKERS, cache_dir: Optional[str] = None) -> PassResult:
        """With ``cache_dir`` the pass starts from an empty spec cache and
        its pre-warm counts in ``pass_s``; ``workers=1`` runs inline."""
        span = _spans(tracer)
        start = time.perf_counter()
        if cache_dir is not None:
            fresh_cache(cache_dir)
            with span("bench.prewarm"):
                prewarm(self.requests(workers))
        work, failed, attempted, mismatches, outputs, layer = 0.0, 0, 0, [], {}, {}
        for request in self.requests(workers):
            with span("bench.campaign." + request.system):
                begin = time.perf_counter()
                report = run_campaign(request)
                seconds = time.perf_counter() - begin
            work += seconds
            layer["remix.campaign.system_s." + request.system] = seconds
            data = report.to_json()
            attempted += len(data["cells"])
            failed += sum(cell["status"] in ("skipped", "degraded") for cell in data["cells"])
            if self.known:
                mismatches += _campaign_mismatches(request.system, data)
            outputs[request.system] = normalized(data)
        return PassResult(
            work, time.perf_counter() - start, attempted, failed, mismatches, outputs, layer
        )


def make(name: str, seed: int, tiny: bool):
    if name == CampaignWorkload.name:
        return CampaignWorkload(seed, tiny)
    return EngineWorkload(name, TINY_CHECKS if tiny else TABLE4)

