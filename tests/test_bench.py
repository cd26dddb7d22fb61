import csv
import json
import threading

import numpy as np
import pytest

import riskbudget as rb
from riskbudget import Budgets, SolverConfig, Volatility
from riskbudget.bench import (BenchRow, ExperimentSpec, format_reference_table,
                              read_bench_csv, run_accuracy_study,
                              run_measure_comparison, run_reference,
                              run_sgd_trace, write_bench_csv, write_trace_csv)
from riskbudget.cli import main


@pytest.fixture()
def demo_model_path():
    return str(rb.bundled_model_path("tmix4_demo"))


class TestBenchCsv:
    def test_round_trip_exact(self, tmp_path):
        rows = [BenchRow(10, "sgd", "model_free", 5.462398471,
                         1.6312, 1.0843, 0.0119),
                BenchRow(20, "osbgd", "true_params", 0.3481, 0.1045,
                         12.82, 2.43, errors="1/10 failed: FitError: x")]
        path = tmp_path / "bench.csv"
        write_bench_csv(rows, path)
        assert read_bench_csv(path) == rows

    def test_timing_columns_removable(self, tmp_path):
        rows = [BenchRow(10, "sgd", "model_free", 5.5, 1.6, 1.1, 0.01)]
        path = tmp_path / "bench.csv"
        write_bench_csv(rows, path, include_timing=False)
        header = path.read_text().splitlines()[0]
        assert "time_mean" not in header and "acc_mean" in header


class TestReferenceCommand:
    def test_table_has_five_decimals(self, tmix_demo):
        report = run_reference(tmix_demo, Budgets.equal(4), 0.95)
        table = format_reference_table(report)
        assert "0.17959" in table or "0.17958" in table
        assert "0.00805" in table or "0.00806" in table

    def test_cli_reference(self, tmp_path, demo_model_path, capsys):
        code = main(["reference", "--model", demo_model_path,
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "weight" in out
        doc = json.loads((tmp_path / "reference_report.json").read_text())
        assert abs(sum(doc["weights"]) - 1.0) < 1e-9

    def test_cli_malformed_model(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["reference", "--model", str(bad), "--out", str(tmp_path)])
        assert code == 1

    def test_cli_missing_file(self, tmp_path):
        code = main(["reference", "--model", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)])
        assert code == 1


class TestAccuracyStudy:
    def test_single_repetition_std_zero(self):
        spec = ExperimentSpec(
            dims=(4,), repetitions=1, n_hist=600, sim_size=40_000,
            settings=("model_free", "true_params"),
            solver_overrides={
                "model_free_sgd": {"method": "sgd", "epochs": 5},
                "sgd": {"method": "sgd", "epochs": 2},
                "osbgd": {"method": "osbgd", "max_iters": 60},
                "msbgd": {"method": "msbgd", "max_iters": 12, "last_k": 3,
                          "resample_size": 10_000},
            },
            master_seed=7)
        rows = run_accuracy_study(spec)
        assert {r.setting for r in rows} == {"model_free", "true_params"}
        for row in rows:
            assert row.errors == ""
            assert row.acc_std == 0.0
            assert row.time_std == 0.0
            assert np.isfinite(row.acc_mean)

    def test_rows_ordered_and_jobs_agree(self):
        spec = ExperimentSpec(
            dims=(3, 4), repetitions=2, n_hist=500, sim_size=20_000,
            settings=("model_free",),
            solver_overrides={
                "model_free_sgd": {"method": "sgd", "epochs": 3},
                "osbgd": {"method": "osbgd", "max_iters": 40},
            },
            master_seed=11)
        serial = run_accuracy_study(spec)
        parallel = run_accuracy_study(
            ExperimentSpec(**{**spec.__dict__, "jobs": 4}))
        assert [(r.d, r.setting, r.method) for r in serial] == \
               [(3, "model_free", "sgd"), (3, "model_free", "osbgd"),
                (4, "model_free", "sgd"), (4, "model_free", "osbgd")]
        for a, b in zip(serial, parallel):
            assert a.acc_mean == b.acc_mean and a.acc_std == b.acc_std

    def test_jobs_agree_with_msbgd_pools(self):
        # two study threads, each running msbgd with its own draw pool
        spec = ExperimentSpec(
            dims=(4,), repetitions=2, n_hist=500, sim_size=10_000,
            settings=("true_params",),
            solver_overrides={
                "sgd": {"method": "sgd", "epochs": 1},
                "osbgd": {"method": "osbgd", "max_iters": 30},
                "msbgd": {"method": "msbgd", "max_iters": 8, "last_k": 3,
                          "resample_size": 5_000},
            },
            master_seed=13)
        threads = threading.active_count()
        serial = run_accuracy_study(spec)
        parallel = run_accuracy_study(ExperimentSpec(**{**spec.__dict__, "jobs": 2}))
        assert threading.active_count() == threads
        untimed = [(r.d, r.method, r.setting, r.acc_mean, r.acc_std, r.errors)
                   for r in serial]
        assert untimed == [(r.d, r.method, r.setting, r.acc_mean, r.acc_std, r.errors)
                           for r in parallel]
        assert [r[1] for r in untimed] == ["sgd", "osbgd", "msbgd"]
        assert all(r[5] == "" for r in untimed)

    def test_estimated_model_settings(self):
        spec = ExperimentSpec(
            dims=(4,), repetitions=1, n_hist=1500, sim_size=30_000,
            settings=("tmix_em", "gmix_em"),
            solver_overrides={
                "sgd": {"method": "sgd", "epochs": 2},
                "osbgd": {"method": "osbgd", "max_iters": 50},
                "msbgd": {"method": "msbgd", "max_iters": 10, "last_k": 3,
                          "resample_size": 10_000},
            },
            master_seed=13)
        rows = run_accuracy_study(spec)
        assert {r.setting for r in rows} == {"tmix_em", "gmix_em"}
        for row in rows:
            assert row.errors == ""
            assert np.isfinite(row.acc_mean)

    def test_failed_repetitions_recorded(self):
        # batch larger than the sample makes the model-free SGD fail; the
        # run continues and the failure lands in the errors column
        spec = ExperimentSpec(
            dims=(3,), repetitions=1, n_hist=100, sim_size=10_000,
            settings=("model_free",),
            solver_overrides={
                "model_free_sgd": {"method": "sgd", "epochs": 2,
                                   "batch_size": 128},
                "osbgd": {"method": "osbgd", "max_iters": 30},
            },
            master_seed=17)
        rows = {r.method: r for r in run_accuracy_study(spec)}
        assert "failed" in rows["sgd"].errors
        assert rows["osbgd"].errors == ""
        assert np.isfinite(rows["osbgd"].acc_mean)

    def test_rerun_csv_byte_identical(self, tmp_path):
        spec = ExperimentSpec(
            dims=(3,), repetitions=2, n_hist=400, sim_size=10_000,
            settings=("model_free",),
            solver_overrides={
                "model_free_sgd": {"method": "sgd", "epochs": 2},
                "osbgd": {"method": "osbgd", "max_iters": 30},
            },
            master_seed=21)
        blobs = []
        for run in ("a", "b"):
            path = tmp_path / f"study_{run}.csv"
            write_bench_csv(run_accuracy_study(spec), path, include_timing=False)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestMeasureComparison:
    def test_identical_specs_identical_rows(self, gmix_calm):
        rows, _ = run_measure_comparison(
            gmix_calm, [Volatility(), Volatility()], Budgets.equal(3),
            SolverConfig(method="sgd", epochs=2), sample_size=30_000, seed=5)
        (label_a, w_a, r_a), (label_b, w_b, r_b) = rows
        assert label_a == label_b
        assert np.array_equal(w_a, w_b) and r_a == r_b

    def test_cli_compare_round_trip(self, tmp_path, capsys):
        measures = [{"measure": "volatility"}, {"measure": "es", "alpha": 0.95}]
        mpath = tmp_path / "measures.json"
        mpath.write_text(json.dumps(measures))
        code = main(["compare", "--model", str(rb.bundled_model_path("gmix3_calm")),
                     "--measures", str(mpath), "--sample-size", "30000",
                     "--config", str(_write_cfg(tmp_path)),
                     "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "compare.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "measure"
        parsed = [float(v) for v in rows[1][1:]]
        assert abs(sum(parsed[:-1]) - 1.0) < 1e-9


def _write_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"solver": {"epochs": 2}}))
    return path


class TestTraceCommand:
    def test_row_count_and_round_trip(self, tmix_demo, tmp_path):
        cfg = SolverConfig(method="sgd", epochs=2, batch_size=128, seed=3)
        report = run_sgd_trace(tmix_demo, Budgets.equal(4), 0.95, cfg,
                               sample_size=10_000, seed=3)
        path = tmp_path / "trace.csv"
        write_trace_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        want = 2 * int(np.ceil(10_000 / 128)) + 1
        assert len(rows) == want + 1  # header
        assert rows[0][:2] == ["iteration", "y_1"]
        parsed = np.array([[float(v) for v in row] for row in rows[1:]])
        assert np.array_equal(parsed, report.iterate_trace)

    def test_cli_trace_divergence_exit_code(self, tmp_path, demo_model_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": {
            "step_base": 1e9, "grad_clip": 0.0, "epochs": 2}}))
        code = main(["trace", "--model", demo_model_path, "--config", str(cfg),
                     "--sample-size", "5000", "--out", str(tmp_path)])
        assert code == 2


class TestFitAndSampleCommands:
    def test_sample_then_fit_round_trip(self, tmp_path, demo_model_path, capsys):
        code = main(["sample", "--model", demo_model_path, "-n", "20000",
                     "--seed", "4", "--out", str(tmp_path)])
        assert code == 0
        code = main(["fit", "--sample", str(tmp_path / "sample.csv"),
                     "--family", "tmix", "--components", "2",
                     "--nu", "4.0,2.5", "--out", str(tmp_path)])
        assert code == 0
        fitted = rb.load_model(tmp_path / "model_fit.json")
        assert fitted.n_components == 2 and fitted.dim == 4

    def test_solve_reference_method(self, tmp_path, demo_model_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"measure": "es", "alpha": 0.95}}))
        code = main(["solve", "--method", "reference", "--model", demo_model_path,
                     "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        assert "asset 1: 0.1795" in capsys.readouterr().out

    @pytest.mark.parametrize("doc", [[1], {"solver": [1]}, {"solver": "fast"}])
    def test_malformed_solver_entry_exits_1(self, tmp_path, demo_model_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        for command in ("reference", "trace"):
            code = main([command, "--model", demo_model_path, "--config", str(cfg),
                         "--out", str(tmp_path)])
            assert code == 1

    @pytest.mark.parametrize("key, value", [
        ("step_schedule", {"kind": "constant", "base": 1e9}), ("kind", "constant"),
        ("exponent", 0.75)])
    def test_solve_rejects_removed_schedule_keys(self, tmp_path, demo_model_path,
                                                 key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"measure": "es", "alpha": 0.95},
                                   "solver": {key: value, "epochs": 1}}))
        code = main(["solve", "--method", "sgd", "--model", demo_model_path,
                     "--sample-size", "2000", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == 1

    def test_fit_gmix(self, tmp_path, capsys):
        model = rb.load_model(rb.bundled_model_path("gmix3_stressed"))
        sample = rb.sample_gmix(model, 5000, seed=8)
        rb.save_sample(sample, tmp_path / "s.csv", header=True)
        code = main(["fit", "--sample", str(tmp_path / "s.csv"), "--header",
                     "--family", "gmix", "--components", "2", "--out", str(tmp_path)])
        assert code == 0
        fitted = rb.load_model(tmp_path / "model_fit.json")
        assert isinstance(fitted, rb.GaussianMixture)


class TestDeterminism:
    def test_cli_rerun_byte_identical(self, tmp_path, demo_model_path):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            cfg = tmp_path / f"cfg_{run}.json"
            cfg.write_text(json.dumps({"measure": {"measure": "es", "alpha": 0.95},
                                       "solver": {"epochs": 2}}))
            code = main(["solve", "--method", "sgd", "--model", demo_model_path,
                         "--sample-size", "20000", "--seed", "9",
                         "--config", str(cfg), "--no-timing", "--out", str(out)])
            assert code == 0
            outs.append((out / "solve_report.json").read_bytes())
        assert outs[0] == outs[1]
