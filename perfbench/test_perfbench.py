"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# checks whose outcome does not depend on input size
STRUCTURAL = ("solve ", "row ", "exit ", "csv round trip", "byte-identical outputs")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_wrapped_name_is_restored():
    before = tracing.original_objects()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = tracing.original_objects()
        assert all(during[key] is not obj for key, obj in before.items())
    finally:
        tracer.restore()
    after = tracing.original_objects()
    assert all(after[key] is obj for key, obj in before.items())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_pass_untraced_then_traced(name, tmp_path):
    before = tracing.original_objects()
    workload = WORKLOADS[name](seed=3, smoke=True, workdir=str(tmp_path / "work"))
    workload.setup()
    plain = workload.run_pass(0)
    tracer = tracing.Tracer()
    tracer.pass_id = 1
    tracer.install()
    try:
        traced = workload.run_pass(1, tracer)
    finally:
        tracer.restore()
    after = tracing.original_objects()
    assert all(after[key] is obj for key, obj in before.items())

    for result in (plain, traced):
        assert result.ops and result.solves > 0 and result.wall_s > 0
        structural = [(n, ok) for n, ok in result.ops if n.startswith(STRUCTURAL)]
        assert structural and all(ok for _, ok in structural), result.ops
    assert plain.l1 == traced.l1           # tracing leaves results unchanged

    m = tracing.layer_metrics(tracer, [1])
    step_calls = sum(m[f"risk.step.{f}.calls"] for f in tracing.STEP_FAMILIES)
    if name == "sgd-sweep":
        assert m["solver.sgd.solves"] == 15 and step_calls > 0
        assert m["models.em.iters"] == 0 and m["cli.fit.s"] == 0
    elif name == "desk-study":
        assert m["bench.study.rep_s"] > 0 and m["models.sample.calls"] > 0
        assert m["solver.osbgd.evals_per_iter"] > 0 and m["models.em.iters"] == 0
    else:
        assert step_calls == 0 and m["models.em.iters"] > 0
        assert m["models.csv_read.bytes"] > 0 and m["models.csv_write.bytes"] > 0
        assert m["risk.es_tmix.calls"] > 0 and m["cli.reference.s"] > 0


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric(trace, section):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fit-exact", "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sgd-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
