"""Self-test of the benchmark: every workload at tiny size, both modes.

    python3 -m pytest perfbench -q

Each run must print every metric ``BENCHMARK.json`` names, with its
unit, and pass its own output checks.
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT):
    command = [sys.executable] + SPEC["command"][1:] + list(args)
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    done = bench(
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path)
    done = bench("--workload", "table4-bughunt", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_wrong_answer_is_a_mismatch():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import workloads
    finally:
        del sys.path[:2]
    hunt = workloads.TABLE4[0]
    violation = SimpleNamespace(invariant=SimpleNamespace(ident="I-11"), depth=23)
    result = SimpleNamespace(
        states_explored=17_941, found_violation=True, first_violation=violation
    )
    failed, mismatches, _ = workloads._judge(hunt, result)
    assert not failed
    assert mismatches == ["ZK-3023: states 17941, expected 17940"]


def test_traced_spans_nest_in_time():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import workloads
        from tracing import Tracer
    finally:
        del sys.path[:2]
    tracer = Tracer()
    workloads.make("table4-bughunt", 0, tiny=True).run_pass(tracer)
    checks = [s for s in tracer.spans if s.name.startswith("bench.check.")]
    assert len(checks) == 2 and all(s.parent < 0 for s in checks)
    for span in tracer.spans:
        if span.parent >= 0:
            parent = tracer.spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end, (parent, span)
