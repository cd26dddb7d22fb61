"""Benchmark entry point for riskbudget.

    python3 perfbench/run.py --workload sgd-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The workload's inputs come from --seed. After
set-up, whole passes repeat while the next one fits in --seconds, and at
least twice.
With --trace 0 the last line of stdout is one JSON object holding the
end-to-end metrics of BENCHMARK.json; with --trace 1 every other pass runs
under the tracer and the object holds the per-layer metrics. Details (each
pass, every check, provenance, spans) go to perfbench/out/. --workload all
runs the three workloads one after another in child processes and prints one
table.

BLAS is pinned to one thread before numpy loads, so the process computes on
one thread and, with the short-lived import probe, never uses more than two.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("sgd-sweep", "desk-study", "fit-exact")
SETUP_REPEATS = 3
MIN_PASSES = 2      # a median, fit-exact's byte-identity check, a traced pass
CHILD_IMPORT = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import riskbudget; print(time.perf_counter() - t)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one set-up, for the benchmark's own tests")
    return p.parse_args(argv)


def median(values):
    return float(statistics.median(values)) if values else 0.0


def import_seconds() -> float:
    """Import time of riskbudget in a fresh interpreter (cold package set-up)."""
    done = subprocess.run([sys.executable, "-c", CHILD_IMPORT, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def spec_metrics(section: str, values: dict) -> dict:
    """Metrics of one BENCHMARK.json section, with their units."""
    out = {}
    for metric in load_spec()[section]:
        value = float(values[metric["name"]])
        if not math.isfinite(value):
            raise ValueError(f"metric {metric['name']} is not finite: {value}")
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def run_workload(args) -> dict:
    t_import = time.perf_counter()
    import riskbudget  # noqa: F401 - timed import of the package under test
    import_in_process = time.perf_counter() - t_import

    import provenance
    import tracing
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.smoke, str(workdir))

    try:
        setups = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            parts = {"import_s": import_seconds(), **workload.setup()}
            parts["total_s"] = sum(parts.values())
            setups.append(parts)

        tracer = tracing.Tracer()
        passes, traced_ids = [], []
        t0 = time.perf_counter()
        while True:
            index = len(passes)
            traced = bool(args.trace) and index % 2 == 1
            start = time.perf_counter()
            if traced:
                tracer.pass_id = index
                traced_ids.append(index)
                tracer.install()
                try:
                    result = workload.run_pass(index, tracer)
                finally:
                    tracer.restore()
            else:
                result = workload.run_pass(index)
            passes.append((traced, result, time.perf_counter() - start))
            elapsed = time.perf_counter() - t0
            mean_pass = elapsed / len(passes)
            if len(passes) >= MIN_PASSES and elapsed + mean_pass > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for traced, r, _ in passes if not traced]
    ops = [op for _, r, _ in passes for op in r.ops]
    failed = sum(1 for _, ok in ops if not ok)
    first = passes[0][1]
    values = {
        "setup_s": median([s["total_s"] for s in setups]),
        "wall_s": median([r.wall_s for r in plain]),
        "solves_per_s": median([r.solves / r.wall_s for r in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "l1_ref.p50": median(first.l1),
        "budget_err.max": max((e for _, r, _ in passes for e in r.budget_err), default=0.0),
        "fail_frac": failed / max(len(ops), 1),
    }
    prov = provenance.provenance(ROOT, {"workload_seed": args.seed, **workload.seeds()})
    details = {
        "workload": args.workload, "provenance": prov,
        "import_in_process_s": import_in_process, "setups": setups,
        "passes": [{"traced": traced, "wall_s": r.wall_s, "pass_s": dur,
                    "solves": r.solves, "l1": r.l1, "budget_err": r.budget_err,
                    "failed_checks": [name for name, ok in r.ops if not ok],
                    "checks": len(r.ops), "extra": r.extra}
                   for traced, r, dur in passes],
        "end_to_end": values,
    }

    if args.trace:
        traced_walls = [r.wall_s for traced, r, _ in passes if traced]
        layer = tracing.layer_metrics(tracer, traced_ids)
        layer.update({k: v for k, v in values.items()
                      if k in ("l1_ref.p50", "budget_err.max", "fail_frac")})
        layer.update({f"setup.{k}": median([s[k] for s in setups])
                      for k in ("import_s", "inputs_s", "warmup_s")})
        trace_pass = median(traced_walls)
        layer["trace.pass_s"] = trace_pass
        layer["trace.overhead_s"] = trace_pass - values["wall_s"]
        for key, name in (("risk.step", "risk.step.s"), ("models.sample", "models.sample.s"),
                          ("risk.es_tmix", "risk.es_tmix.s"), ("models.em", "models.em.s")):
            layer[f"share.{key}"] = layer[name] / trace_pass
        layer["cli.exit_nonzero"] = sum(r.extra.get("exit_nonzero", 0)
                                        for traced, r, _ in passes if traced)
        acc = next((r.extra["acc"] for traced, r, _ in passes if traced and "acc" in r.extra),
                   {})
        for cell in ("model_free.sgd", "model_free.osbgd", "true_params.sgd",
                     "true_params.osbgd", "true_params.msbgd"):
            # a failed cell is already counted in `failed`; report it as 0
            value = acc.get(cell, 0.0)
            layer[f"bench.study.acc.{cell}"] = value if math.isfinite(value) else 0.0
        layer.update({k: v for k, v in prov.items() if k.startswith("src_lines.")})
        metrics = spec_metrics("per_layer", layer)
        details["per_layer"] = layer
        spans_path = OUT / f"{tag}.spans.jsonl"
        tracer.dump(str(spans_path))
        details["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = spec_metrics("end_to_end", values)

    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(details, fh, indent=1, default=float)
    print(f"# provenance {json.dumps(prov)}")
    print(f"# workload {args.workload}: {len(passes)} passes, {len(ops)} checks, "
          f"{failed} failed")
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in values.items():
        print(f"#   {name:16s} {value:12.6g} {units[name]}")
    for record in details["passes"]:
        for name in record["failed_checks"]:
            print(f"#   failed: {name}")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own child process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
            rows.append((name, metric, entry["value"], entry["unit"]))
    print(f"{'workload':12s} {'metric':40s} {'value':>14s} unit")
    for name, metric, value, unit in rows:
        print(f"{name:12s} {metric:40s} {value:14.6g} {unit}")
    return merged


def main(argv=None) -> int:
    args = parse_args(argv)
    # before numpy loads: child processes inherit the same setting
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "riskbudget" / "__init__.py").is_file():
        print(f"error: no riskbudget sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("error: BENCHMARK.json missing at the checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
