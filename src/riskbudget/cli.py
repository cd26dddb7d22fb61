"""Command-line interface.

Subcommands: reference, solve, study, compare, fit, sample. Global
flags: --config <json>, --seed <int>, --out <dir>, --no-timing.
Exit code 0 on success, 1 on input errors, 2 on numeric failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .bench import (ExperimentSpec, format_bench_table, format_comparison_table,
                    format_reference_table, run_accuracy_study,
                    run_measure_comparison, write_bench_csv,
                    write_comparison_csv, write_trace_csv)
from .core import Budgets, InputError, NumericError
from .models import (EMConfig, _load_json, em_fit_gmix, em_fit_tmix, load_model,
                     load_sample, sample_model, save_model, save_sample)
from .risk import ExpectedShortfall, measure_from_dict
from .solver import SolverConfig, config_from_dict, solve


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_config(args) -> dict:
    """The --config document, {} without one; it must be a JSON object."""
    doc = _load_json(args.config) if args.config else {}
    if not isinstance(doc, dict):
        raise InputError("--config must be a JSON object")
    return doc


def _parse_floats(text: str, what: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise InputError(f"malformed {what} list {text!r}") from exc


def _parse_budgets(text: str | None, d: int) -> Budgets:
    return Budgets.equal(d) if text is None else Budgets(_parse_floats(text, "budget"))


def _solver_config(args, doc: dict | None = None) -> SolverConfig:
    """Solver settings from the "solver" entry of the --config document (read
    from args.config unless given), seeded by --seed unless the entry sets one.
    Every command sets the method itself, so the entry may not name one."""
    solver = (_load_config(args) if doc is None else doc).get("solver") or {}
    if not isinstance(solver, dict):
        raise InputError('the "solver" entry of --config must be an object')
    if "method" in solver:
        raise InputError(f'the "solver" entry may not set "method": {args.command} sets it')
    return config_from_dict({"seed": args.seed, **solver})


def experiment_from_dict(doc: dict, args) -> ExperimentSpec:
    doc = dict(doc)
    for key in ("dims", "settings"):
        if key in doc and isinstance(doc[key], list):
            doc[key] = tuple(doc[key])
    doc.setdefault("master_seed", args.seed)
    try:
        return ExperimentSpec(**doc)
    except TypeError as exc:
        raise InputError(f"bad experiment spec: {exc}") from exc


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_report(args, report, name: str) -> None:
    with open(_out_path(args, name), "w") as fh:
        json.dump(report.to_dict(include_timing=not args.no_timing,
                                 trace_limit=1000), fh, indent=2)
        fh.write("\n")


def _cmd_reference(args) -> int:
    model = load_model(args.model)
    budgets = _parse_budgets(args.budgets, model.dim)
    config = replace(_solver_config(args), method="reference")
    report = solve(ExpectedShortfall(args.alpha), budgets, model, config)
    print(format_reference_table(report))
    _write_report(args, report, "reference_report.json")
    return 0


def _cmd_solve(args) -> int:
    doc = _load_config(args)
    if "measure" not in doc:
        raise InputError("solve needs a --config JSON with a 'measure' entry")
    spec = measure_from_dict(doc["measure"])
    config = replace(_solver_config(args, doc), method=args.method)
    if args.sample and args.model:
        raise InputError("give --sample or --model, not both")
    if args.header and not args.sample:
        raise InputError("--header describes only a --sample file")
    if args.sample_size is not None and (args.sample or args.method not in ("sgd", "osbgd")):
        raise InputError("--sample-size sizes only the --model draw of sgd and osbgd")
    if args.method in ("sgd", "osbgd"):
        if args.sample:
            data = load_sample(args.sample, header=args.header)
        elif args.model:
            n = 1_000_000 if args.sample_size is None else args.sample_size
            data = sample_model(load_model(args.model), n, args.seed)
        else:
            raise InputError("provide --sample or --model")
    else:
        if not args.model:
            raise InputError(f"method {args.method} needs --model")
        data = load_model(args.model)
    budgets = _parse_budgets(args.budgets, data.dim)
    report = solve(spec, budgets, data, config)
    for i, w in enumerate(report.weights.values, start=1):
        print(f"asset {i}: {w:.5f}")
    _write_report(args, report, "solve_report.json")
    if report.iterate_trace is not None:
        write_trace_csv(report, _out_path(args, "trace.csv"))
    return 0


def _cmd_study(args) -> int:
    spec = experiment_from_dict(_load_config(args), args)
    path = _out_path(args, "study.csv")
    rows = run_accuracy_study(spec)
    write_bench_csv(rows, path, include_timing=not args.no_timing)
    print(format_bench_table(rows, include_timing=not args.no_timing))
    return 0


def _cmd_compare(args) -> int:
    model = load_model(args.model)
    budgets = _parse_budgets(args.budgets, model.dim)
    docs = _load_json(args.measures)
    if not isinstance(docs, list):
        raise InputError("--measures must be a JSON list of measure documents")
    measures = [measure_from_dict(d) for d in docs]
    rows, notes = run_measure_comparison(model, measures, budgets, _solver_config(args),
                                         sample_size=args.sample_size, seed=args.seed)
    print(format_comparison_table(rows))
    for label, note in notes.items():
        print(f"warning [{label}]: {note}", file=sys.stderr)
    write_comparison_csv(rows, _out_path(args, "compare.csv"))
    return 0


def _cmd_fit(args) -> int:
    tmix = args.family == "tmix"
    if tmix != (args.nu is not None):
        raise InputError("tmix fits need --nu, e.g. --nu 4.0,2.5" if tmix
                         else "--nu fixes the dof of a tmix fit; gmix has none")
    if tmix:
        nu = _parse_floats(args.nu, "dof")
        if nu.size != args.components:
            raise InputError(f"--nu gives {nu.size} dof for --components {args.components}")
    sample = load_sample(args.sample, header=args.header)
    config = EMConfig(seed=args.seed)
    model = (em_fit_tmix(sample, args.components, nu, config) if tmix
             else em_fit_gmix(sample, args.components, config))
    path = _out_path(args, "model_fit.json")
    save_model(model, path)
    print(f"wrote {path}")
    return 0


def _cmd_sample(args) -> int:
    model = load_model(args.model)
    sample = sample_model(model, args.n, args.seed)
    path = _out_path(args, "sample.csv")
    save_sample(sample, path, header=args.header)
    print(f"wrote {path} ({sample.n} x {sample.dim})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--no-timing", action="store_true",
                        help="omit wall-time fields from outputs")

    parser = _Parser(prog="riskbudget",
                     description="Risk budgeting portfolios for a wide family "
                                 "of risk measures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reference", parents=[common],
                       help="exact reference portfolio for expected shortfall")
    p.add_argument("--model", required=True)
    p.add_argument("--budgets")
    p.add_argument("--alpha", type=float, default=0.95)
    p.set_defaults(fn=_cmd_reference)

    p = sub.add_parser("solve", parents=[common], help="solve one configuration")
    p.add_argument("--method", choices=("sgd", "osbgd", "msbgd", "reference"),
                   default="sgd")
    p.add_argument("--model")
    p.add_argument("--sample")
    p.add_argument("--header", action="store_true")
    p.add_argument("--budgets")
    p.add_argument("--sample-size", type=int,
                   help="rows drawn from --model for sgd and osbgd (default 1000000)")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("study", parents=[common], help="accuracy/time study")
    p.set_defaults(fn=_cmd_study)

    p = sub.add_parser("compare", parents=[common],
                       help="risk-measure comparison table")
    p.add_argument("--model", required=True)
    p.add_argument("--measures", required=True,
                   help="JSON list of measure documents")
    p.add_argument("--budgets")
    p.add_argument("--sample-size", type=int, default=1_000_000)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("fit", parents=[common], help="EM-fit a mixture model")
    p.add_argument("--sample", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--family", choices=("tmix", "gmix"), required=True)
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--nu", help="comma-separated fixed dof for tmix")
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("sample", parents=[common], help="draw returns from a model")
    p.add_argument("--model", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--header", action="store_true")
    p.set_defaults(fn=_cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
