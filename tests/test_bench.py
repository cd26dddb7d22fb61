import csv
import json
import threading
import weakref

import numpy as np
import pytest

import riskbudget as rb
from riskbudget import Budgets, ExpectedShortfall, SolverConfig, Volatility, reference_solve
from riskbudget.bench import (BenchRow, ExperimentSpec, format_reference_table,
                              run_accuracy_study, run_measure_comparison,
                              write_bench_csv, write_trace_csv)
from riskbudget.cli import main
from riskbudget.models import model_to_dict

# a valid study that runs in well under a second
TINY_STUDY = {"dims": [2], "repetitions": 1, "n_hist": 200, "settings": ["model_free"],
              "solver_overrides": {"model_free_sgd": {"epochs": 1},
                                   "osbgd": {"max_iters": 5}}}


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
        with open(path, newline="") as fh:
            read = [BenchRow(int(rec["d"]), rec["method"], rec["setting"],
                             float(rec["acc_mean"]), float(rec["acc_std"]),
                             float(rec["time_mean"]), float(rec["time_std"]),
                             errors=rec["errors"])
                    for rec in csv.DictReader(fh)]
        assert read == rows

    def test_timing_columns_removable(self, tmp_path):
        rows = [BenchRow(10, "sgd", "model_free", 5.5, 1.6, 1.1, 0.01)]
        path = tmp_path / "bench.csv"
        write_bench_csv(rows, path, include_timing=False)
        header = path.read_text().splitlines()[0]
        assert "time_mean" not in header and "acc_mean" in header


class TestReferenceCommand:
    def test_table_has_five_decimals(self, tmix_demo):
        report = reference_solve(ExpectedShortfall(0.95), Budgets.equal(4), tmix_demo)
        table = format_reference_table(report)
        assert "0.17959" in table or "0.17958" in table
        assert "0.00805" in table or "0.00806" in table

    @pytest.mark.parametrize("which, budgets", [
        ("tmix4_demo", None),
        ("synth10", "0.05,0.05,0.1,0.1,0.1,0.1,0.1,0.1,0.15,0.15")],
        ids=["tmix4_demo", "synth10"])
    def test_reference_command_is_solve_reference(self, tmp_path, which, budgets):
        # `reference --alpha a` is `solve --method reference` on ES(a)
        if which == "synth10":
            model_path = str(tmp_path / "synth10.json")
            rb.save_model(rb.synth_dgp(10, 7), model_path)
        else:
            model_path = str(rb.bundled_model_path(which))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"measure": "es", "alpha": 0.9}}))
        common = ["--model", model_path, "--seed", "3", "--no-timing",
                  *(["--budgets", budgets] if budgets else [])]
        assert main(["reference", "--alpha", "0.9", *common,
                     "--out", str(tmp_path / "ref")]) == 0
        assert main(["solve", "--method", "reference", "--config", str(cfg), *common,
                     "--out", str(tmp_path / "solve")]) == 0
        assert ((tmp_path / "ref" / "reference_report.json").read_bytes()
                == (tmp_path / "solve" / "solve_report.json").read_bytes())

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

    def test_cli_non_finite_model(self, tmp_path, capsys):
        doc = model_to_dict(rb.load_model(rb.bundled_model_path("tmix4_demo")))
        doc["nu"][0] = float("inf")
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(doc))
        assert "Infinity" in bad.read_text()
        code = main(["reference", "--model", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "error: degrees of freedom" in capsys.readouterr().err

    def test_cli_model_with_unknown_field(self, tmp_path, capsys):
        doc = model_to_dict(rb.load_model(rb.bundled_model_path("gmix3_stressed")))
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps({**doc, "nu": [4.0], "sacle": 1}))
        code = main(["reference", "--model", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "unknown field 'nu'" in capsys.readouterr().err

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
                "model_free_sgd": {"epochs": 5},
                "sgd": {"epochs": 2},
                "osbgd": {"max_iters": 60},
                "msbgd": {"max_iters": 12, "last_k": 3,
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
                "model_free_sgd": {"epochs": 3},
                "osbgd": {"max_iters": 40},
            },
            master_seed=11)
        first = run_accuracy_study(spec)
        second = run_accuracy_study(spec)
        assert [(r.d, r.setting, r.method) for r in first] == \
               [(3, "model_free", "sgd"), (3, "model_free", "osbgd"),
                (4, "model_free", "sgd"), (4, "model_free", "osbgd")]
        for a, b in zip(first, second):
            assert a.acc_mean == b.acc_mean and a.acc_std == b.acc_std

    def test_jobs_agree_with_msbgd_pools(self):
        # two studies in turn, each msbgd solve with its own draw pool
        spec = ExperimentSpec(
            dims=(4,), repetitions=2, n_hist=500, sim_size=10_000,
            settings=("true_params",),
            solver_overrides={
                "sgd": {"epochs": 1},
                "osbgd": {"max_iters": 30},
                "msbgd": {"max_iters": 8, "last_k": 3,
                          "resample_size": 5_000},
            },
            master_seed=13)
        threads = threading.active_count()
        first = run_accuracy_study(spec)
        second = run_accuracy_study(spec)
        assert threading.active_count() == threads
        untimed = [(r.d, r.method, r.setting, r.acc_mean, r.acc_std, r.errors)
                   for r in first]
        assert untimed == [(r.d, r.method, r.setting, r.acc_mean, r.acc_std, r.errors)
                           for r in second]
        assert [r[1] for r in untimed] == ["sgd", "osbgd", "msbgd"]
        assert all(r[5] == "" for r in untimed)

    def test_one_worker_runs_on_calling_thread(self, monkeypatch):
        ran_on = []
        one_repetition = rb.bench._one_repetition

        def recording_repetition(*args):
            ran_on.append(threading.current_thread())
            return one_repetition(*args)

        monkeypatch.setattr(rb.bench, "_one_repetition", recording_repetition)
        spec = ExperimentSpec(**{**TINY_STUDY, "dims": (2, 3), "repetitions": 2})
        run_accuracy_study(spec)
        assert ran_on == [threading.current_thread()] * 4

    def test_estimated_model_settings(self):
        # over master seeds 0-11 the osbgd 100*L1 was 0.53-1.31 on the true
        # parameters, 1.29-5.84 on the tmix EM fit and 4.05-15.50 on the gmix
        # EM fit, in that order at every seed
        spec = ExperimentSpec(
            dims=(4,), repetitions=3, n_hist=3500, sim_size=100_000,
            settings=("true_params", "tmix_em", "gmix_em"),
            solver_overrides={
                "sgd": {"epochs": 2},
                "osbgd": {"max_iters": 200},
                "msbgd": {"max_iters": 10, "last_k": 3,
                          "resample_size": 20_000},
            },
            master_seed=5)
        rows = run_accuracy_study(spec)
        assert {r.setting for r in rows} == {"true_params", "tmix_em", "gmix_em"}
        for row in rows:
            assert row.errors == ""
            assert np.isfinite(row.acc_mean)
        osbgd = {r.setting: r.acc_mean for r in rows if r.method == "osbgd"}
        assert osbgd["true_params"] < osbgd["tmix_em"] < osbgd["gmix_em"]
        assert osbgd["tmix_em"] < 7.0

    def test_failed_repetitions_recorded(self):
        # batch larger than the sample makes the model-free SGD fail; the
        # run continues and the failure lands in the errors column
        spec = ExperimentSpec(
            dims=(3,), repetitions=1, n_hist=100, sim_size=10_000,
            settings=("model_free",),
            solver_overrides={
                "model_free_sgd": {"epochs": 2,
                                   "batch_size": 128},
                "osbgd": {"max_iters": 30},
            },
            master_seed=17)
        rows = {r.method: r for r in run_accuracy_study(spec)}
        assert "failed" in rows["sgd"].errors
        assert rows["osbgd"].errors == ""
        assert np.isfinite(rows["osbgd"].acc_mean)

    def test_route_defaults(self):
        configs = rb.bench._study_configs(ExperimentSpec())
        assert set(configs) == {"model_free_sgd", "sgd", "osbgd", "msbgd", "reference"}
        model_free = configs["model_free_sgd"]
        assert (model_free.batch_size, model_free.epochs) == (128, 100)
        assert (configs["sgd"].batch_size, configs["sgd"].epochs) == (1024, 4)
        assert (configs["osbgd"].stop_tol, configs["osbgd"].max_iters) == (1e-6, 1000)
        assert (configs["msbgd"].max_iters, configs["msbgd"].resample_size) == (60, 100_000)
        assert configs["reference"].stop_tol == 1e-6
        spec = ExperimentSpec(solver_overrides={"sgd": {"batch_size": 128}})
        assert rb.bench._study_configs(spec)["sgd"].batch_size == 128

    @pytest.mark.parametrize("overrides, sgd_error", [
        ({}, "1/1 failed: InputError: sample of 1000 rows is smaller than one batch (1024)"),
        ({"sgd": {"batch_size": 128}}, "")], ids=["default", "batch_128"])
    def test_simulated_sample_smaller_than_study_batch(self, overrides, sgd_error):
        spec = ExperimentSpec(
            dims=(3,), repetitions=1, n_hist=400, sim_size=1000,
            settings=("true_params",),
            solver_overrides={**overrides, "osbgd": {"max_iters": 20},
                              "msbgd": {"max_iters": 4, "resample_size": 2_000}},
            master_seed=29)
        rows = {r.method: r for r in run_accuracy_study(spec)}
        assert rows["sgd"].errors == sgd_error
        for method in ("osbgd", "msbgd"):
            assert rows[method].errors == "" and np.isfinite(rows[method].acc_mean)

    def test_rerun_csv_byte_identical(self, tmp_path):
        spec = ExperimentSpec(
            dims=(3,), repetitions=2, n_hist=400, sim_size=10_000,
            settings=("model_free",),
            solver_overrides={
                "model_free_sgd": {"epochs": 2},
                "osbgd": {"max_iters": 30},
            },
            master_seed=21)
        blobs = []
        for run in ("a", "b"):
            path = tmp_path / f"study_{run}.csv"
            write_bench_csv(run_accuracy_study(spec), path, include_timing=False)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_estimate_failures_fill_their_setting_in_table_order(self):
        # 7 rows are fewer than one SGD batch and too few for a stable EM fit
        spec = ExperimentSpec(
            dims=(3,), repetitions=2, n_hist=7, sim_size=8_000,
            settings=("model_free", "tmix_em", "gmix_em"),
            solver_overrides={
                "model_free_sgd": {"epochs": 2}, "sgd": {"epochs": 1},
                "osbgd": {"max_iters": 30},
                "msbgd": {"max_iters": 5, "resample_size": 4_000},
            },
            master_seed=5)
        rows = run_accuracy_study(spec)
        assert [(r.setting, r.method) for r in rows] == [
            ("model_free", "sgd"), ("model_free", "osbgd"),
            *[(s, m) for s in ("tmix_em", "gmix_em") for m in ("sgd", "osbgd", "msbgd")]]
        assert rows[0].errors.startswith("2/2 failed: InputError")
        assert rows[1].errors == "" and np.isfinite(rows[1].acc_mean)
        tmix, gmix = rows[2:5], rows[5:]
        assert tmix[0].errors.startswith("2/2 failed: FitError")
        assert gmix[0].errors.startswith("1/2 failed: FitError")
        for cells in (tmix, gmix):
            assert {r.errors for r in cells} == {cells[0].errors}
        assert all(np.isnan(r.acc_mean) for r in tmix)
        assert all(np.isfinite(r.acc_mean) and r.acc_std == 0.0 for r in gmix)

    def test_simulated_sample_dropped_before_msbgd(self, monkeypatch):
        drawn, alive = [], []

        def sample_model(*args):
            sample = rb.models.sample_model(*args)
            drawn.append(weakref.ref(sample))
            return sample

        def msbgd_solve(*args):
            alive.append(drawn[-1]() is not None)
            return rb.solver.msbgd_solve(*args)

        monkeypatch.setattr(rb.bench, "sample_model", sample_model)
        monkeypatch.setattr(rb.bench, "msbgd_solve", msbgd_solve)
        spec = ExperimentSpec(
            dims=(3,), repetitions=1, n_hist=400, sim_size=10_000,
            settings=("true_params",),
            solver_overrides={"sgd": {"epochs": 1}, "osbgd": {"max_iters": 20},
                              "msbgd": {"max_iters": 4, "resample_size": 2_000}},
            master_seed=23)
        rows = run_accuracy_study(spec)
        assert [r.errors for r in rows] == ["", "", ""]
        assert alive == [False]

    def test_cli_no_timing_stdout_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "study.json"
        cfg.write_text(json.dumps({
            "dims": [3], "repetitions": 1, "n_hist": 400, "sim_size": 10_000,
            "settings": ["model_free"],
            "solver_overrides": {"model_free_sgd": {"epochs": 2},
                                 "osbgd": {"max_iters": 30}}}))
        outs = []
        for flags in (["--no-timing"], ["--no-timing"], []):
            assert main(["study", "--config", str(cfg), *flags,
                         "--out", str(tmp_path / "out")]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "time (s)" not in outs[0] and "accuracy" in outs[0]
        assert "time (s)" in outs[2]

    def test_cli_checks_output_dir_before_running(self, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        calls = []
        monkeypatch.setattr("riskbudget.cli.run_accuracy_study",
                            lambda spec: calls.append(spec) or [])
        assert main(["study", "--out", str(blocker / "out")]) == 1
        assert calls == []
        assert capsys.readouterr().err.startswith("error:")


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

    def test_cli_empty_measure_list_exits_1_before_sampling(self, tmp_path, capsys,
                                                              monkeypatch):
        def sample_model(*args):
            raise AssertionError("compare drew a sample for no measures")

        monkeypatch.setattr(rb.bench, "sample_model", sample_model)
        mpath = tmp_path / "measures.json"
        mpath.write_text("[]")
        code = main(["compare", "--model", str(rb.bundled_model_path("gmix3_calm")),
                     "--measures", str(mpath), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().out == ""


def _write_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"solver": {"epochs": 2}}))
    return path


class TestTraceCommand:
    def test_row_count_and_round_trip(self, tmix_demo, tmp_path):
        sample = rb.sample_model(tmix_demo, 10_000, seed=3)
        cfg = SolverConfig(method="sgd", epochs=2, batch_size=128, seed=3,
                           record_iterates=True)
        report = rb.sgd_solve(rb.ExpectedShortfall(0.95), Budgets.equal(4), sample, cfg)
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
        cfg.write_text(json.dumps({"measure": {"measure": "es", "alpha": 0.95},
                                   "solver": {"step_base": 1e9, "grad_clip": 0.0,
                                              "epochs": 2, "record_iterates": True}}))
        code = main(["solve", "--method", "sgd", "--model", demo_model_path,
                     "--config", str(cfg), "--sample-size", "5000", "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("source", ["--model", "--sample"])
    @pytest.mark.parametrize("measure", [
        {"measure": "es", "alpha": 0.95}, {"measure": "es_mean", "alpha": 0.9},
        {"measure": "spectral", "c": 0.05, "nodes": 8},
        {"measure": "deviation", "a": 1, "b": 1, "p": 2}, {"measure": "volatility"}])
    def test_cli_solve_writes_trace_csv(self, tmix_demo, demo_model_path, tmp_path,
                                        measure, source):
        # --model draws the same 2000 rows at --seed 5 that --sample reads
        sample = rb.sample_model(tmix_demo, 2000, seed=5)
        rb.save_sample(sample, tmp_path / "s.csv")
        data = {"--model": [demo_model_path, "--sample-size", "2000"],
                "--sample": [str(tmp_path / "s.csv")]}[source]
        solver = {"epochs": 1, "max_iters": 20}
        out = {}
        for method in ("sgd", "osbgd"):
            for traced in (False, True):
                cfg = tmp_path / "cfg.json"
                cfg.write_text(json.dumps({"measure": measure, "solver": {
                    **solver, **({"record_iterates": True} if traced else {})}}))
                out[method, traced] = tmp_path / method / str(traced)
                assert main(["solve", "--method", method, source, *data,
                             "--seed", "5", "--config", str(cfg),
                             "--no-timing", "--out", str(out[method, traced])]) == 0
        want = rb.sgd_solve(rb.measure_from_dict(measure), Budgets.equal(4), sample,
                            SolverConfig(**solver, seed=5, record_iterates=True))
        with open(out["sgd", True] / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "iteration" and len(rows[0]) == want.iterate_trace.shape[1]
        assert np.array_equal(np.array(rows[1:], dtype=float), want.iterate_trace)
        for method in ("sgd", "osbgd"):
            assert not (out[method, False] / "trace.csv").exists()
            assert ((out[method, False] / "solve_report.json").read_bytes()
                    == (out[method, True] / "solve_report.json").read_bytes())
        assert not (out["osbgd", True] / "trace.csv").exists()


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

    @pytest.mark.parametrize("method", ["sgd", "osbgd", "msbgd", "reference"])
    def test_solve_rejects_sample_with_model(self, tmp_path, demo_model_path, tmix_demo,
                                             capsys, method):
        # two data sources conflict; solve used to read one and drop the other
        rb.save_sample(rb.sample_model(tmix_demo, 500, seed=3), tmp_path / "s.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"measure": "es", "alpha": 0.95},
                                   "solver": {"max_iters": 3, "resample_size": 2000}}))
        code = main(["solve", "--method", method, "--sample", str(tmp_path / "s.csv"),
                     "--model", demo_model_path, "--sample-size", "777",
                     "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "--sample" in err and "--model" in err
        assert not (tmp_path / "out" / "solve_report.json").exists()

    @pytest.mark.parametrize("method, source", [("sgd", "--sample"), ("osbgd", "--sample"),
                                                ("msbgd", "--model"), ("reference", "--model")])
    def test_solve_rejects_sample_size_that_sizes_no_draw(self, tmp_path, demo_model_path,
                                                          tmix_demo, capsys, method, source):
        # only a --model draw for sgd or osbgd reads --sample-size
        rb.save_sample(rb.sample_model(tmix_demo, 500, seed=3), tmp_path / "s.csv")
        data = {"--sample": str(tmp_path / "s.csv"), "--model": demo_model_path}[source]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"measure": "es", "alpha": 0.95},
                                   "solver": {"max_iters": 3, "resample_size": 2000}}))
        code = main(["solve", "--method", method, source, data, "--sample-size", "777",
                     "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "--sample-size" in capsys.readouterr().err
        assert not (tmp_path / "out" / "solve_report.json").exists()

    def test_solve_draws_a_million_rows_by_default(self, tmp_path, demo_model_path,
                                                   monkeypatch):
        sizes = []

        def small_draw(model, n, seed):
            sizes.append(n)
            return rb.sample_model(model, 500, seed)

        monkeypatch.setattr(rb.cli, "sample_model", small_draw)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"measure": "es", "alpha": 0.95},
                                   "solver": {"max_iters": 3}}))
        for size in ([], ["--sample-size", "2000"]):
            assert main(["solve", "--method", "osbgd", "--model", demo_model_path, *size,
                         "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert sizes == [1_000_000, 2000]

    @pytest.mark.parametrize("method", ["sgd", "osbgd", "msbgd", "reference"])
    def test_solve_rejects_header_without_sample(self, tmp_path, demo_model_path, capsys,
                                                 method):
        # --header describes a --sample file; with --model it would go unread
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"measure": "es", "alpha": 0.95},
                                   "solver": {"max_iters": 3, "resample_size": 2000}}))
        size = ["--sample-size", "2000"] if method in ("sgd", "osbgd") else []
        code = main(["solve", "--method", method, "--model", demo_model_path, "--header",
                     *size, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "--header" in capsys.readouterr().err
        assert not (tmp_path / "out" / "solve_report.json").exists()

    @pytest.mark.parametrize("family, nu, flags", [
        ("gmix", "4.0,2.5", ["--nu"]), ("tmix", "4.0,x", ["malformed dof list", "'4.0,x'"]),
        ("tmix", "4.0", ["--nu", "--components"]),
        ("tmix", "4.0,2.5,3.0", ["--nu", "--components"])],
        ids=["gmix-with-nu", "malformed", "too-few", "too-many"])
    def test_fit_rejects_nu_misuse(self, tmp_path, tmix_demo, capsys, family, nu, flags):
        rb.save_sample(rb.sample_model(tmix_demo, 500, seed=3), tmp_path / "s.csv")
        code = main(["fit", "--sample", str(tmp_path / "s.csv"), "--family", family,
                     "--components", "2", "--nu", nu, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags), err
        assert not (tmp_path / "out" / "model_fit.json").exists()

    @pytest.mark.parametrize("doc", [[1], {"solver": [1]}, {"solver": "fast"}, 5,
                                     ["measure"]])
    def test_malformed_solver_entry_exits_1(self, tmp_path, demo_model_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        for command in ("reference", "solve"):
            code = main([command, "--model", demo_model_path, "--config", str(cfg),
                         "--out", str(tmp_path)])
            assert code == 1

    def test_solver_entry_naming_method_exits_1(self, tmp_path, demo_model_path, capsys):
        # every command sets the method itself: solve from --method, reference
        # forces "reference" and compare always runs SGD
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"measure": "es", "alpha": 0.95},
                                   "solver": {"method": "osbgd"}}))
        measures = tmp_path / "measures.json"
        measures.write_text(json.dumps([{"measure": "es", "alpha": 0.95}]))
        common = ["--model", demo_model_path, "--config", str(cfg), "--out", str(tmp_path)]
        for argv in (["solve", "--method", "osbgd", "--sample-size", "2000"], ["reference"],
                     ["compare", "--measures", str(measures), "--sample-size", "2000"]):
            capsys.readouterr()
            assert main(argv + common) == 1
            assert '"method"' in capsys.readouterr().err

    @pytest.mark.parametrize("solver", [
        {"batch_size": 2.5}, {"epochs": 1.5}, {"max_iters": -3}, {"max_iters": 0},
        {"seed": -1}, {"step_base": float("nan")}, {"method": "nope"},
        {"record_iterates": "no"}])
    def test_invalid_solver_values_exit_1(self, tmp_path, demo_model_path, solver):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"measure": {"measure": "es", "alpha": 0.95},
                                   "solver": solver}))
        for command in (["solve", "--method", "osbgd", "--sample-size", "2000"],
                        ["solve", "--method", "msbgd"],
                        ["solve", "--method", "sgd", "--sample-size", "2000"]):
            code = main(command + ["--model", demo_model_path, "--config", str(cfg),
                                   "--out", str(tmp_path)])
            assert code == 1

    @pytest.mark.parametrize("command, doc", [
        ("study", {"dgp": {"bogus": 1}}), ("study", {"dgp": [1, 2]}),
        ("study", {"dims": "ab"}), ("study", [1, 2]), ("study", {"dims": [10, 1]}),
        ("study", {"repetitions": 0}), ("study", {"n_hist": 2.5}),
        ("study", {"sim_size": True}), ("study", {"jobs": 2}), ("study", {"alpha": "x"}),
        ("study", {"alpha": 1.0}), ("study", {"solver_overrides": [1]}), ("fit", None),
        ("study", {"dgp": {"avg_corr": "x"}}), ("study", {"dgp": {"avg_corr": 1.5}}),
        ("study", {"dgp": {"var_scale": -1e-4}}), ("study", {"dgp": {"weight_range": [0.6]}}),
        ("study", {"settings": "model_free"}), ("study", {"settings": []}),
        ("study", {"solver_overrides": {"osbgd": 5}}), ("study", {"output_dir": 5}),
        ("study", {"master_seed": 1.0}), ("study", {"settings": ["model_free", "model_free"]}),
        ("study", {"dims": [3, 3]}),
        # an unknown key on an otherwise valid study
        ("study", {**TINY_STUDY, "dgp": {}}),
        ("study", {**TINY_STUDY, "output_dir": "elsewhere"}),
        # the study sets each route's seed and method itself
        ("study", {**TINY_STUDY, "solver_overrides": {"osbgd": {"seed": 7}}}),
        ("study", {**TINY_STUDY, "solver_overrides": {"osbgd": {"method": "sgd"}}})])
    def test_malformed_study_or_fit_input_exits_1(self, tmp_path, demo_model_path,
                                                  capsys, monkeypatch, command, doc):
        monkeypatch.chdir(tmp_path)
        if command == "fit":
            sample = rb.sample_model(rb.load_model(demo_model_path), 500, seed=3)
            rb.save_sample(sample, tmp_path / "s.csv")
            argv = ["fit", "--sample", str(tmp_path / "s.csv"), "--family", "gmix",
                    "--components", "0"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            argv = ["study", "--config", str(cfg)]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_study_runs_no_jobs(self, tmp_path, capsys):
        # the study has no --jobs option, and a config may set jobs only to 1
        for jobs in ("1", "2"):
            assert main(["study", "--jobs", jobs, "--out", str(tmp_path)]) == 1
            assert "unrecognized arguments: --jobs" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TINY_STUDY, "jobs": 2}))
        assert main(["study", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "jobs" in capsys.readouterr().err
        assert ExperimentSpec(**{**TINY_STUDY, "jobs": 1}) == ExperimentSpec(**TINY_STUDY)

    @pytest.mark.parametrize("key, override", [("osbgd", {"max_iters": 0}),
                                               ("msbgd", {"bogus": 1})])
    def test_bad_solver_override_names_its_key(self, tmp_path, capsys, key, override):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver_overrides": {key: override}}))
        capsys.readouterr()
        assert main(["study", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert f"solver override {key!r}" in capsys.readouterr().err

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
        sample = rb.sample_model(model, 5000, seed=8)
        rb.save_sample(sample, tmp_path / "s.csv", header=True)
        code = main(["fit", "--sample", str(tmp_path / "s.csv"), "--header",
                     "--family", "gmix", "--components", "2", "--out", str(tmp_path)])
        assert code == 0
        fitted = rb.load_model(tmp_path / "model_fit.json")
        assert isinstance(fitted, rb.GaussianMixture)


class TestDeterminism:
    def test_cli_rerun_byte_identical(self, tmp_path, demo_model_path):
        size = ["--sample-size", "20000"]
        for method, solver, draw in [("sgd", {"epochs": 2}, size),
                                     ("osbgd", {"max_iters": 5, "resample_size": 4000}, size),
                                     ("msbgd", {"max_iters": 5, "resample_size": 4000}, [])]:
            outs = []
            for run in ("a", "b"):
                out = tmp_path / method / run
                cfg = tmp_path / f"cfg_{method}_{run}.json"
                cfg.write_text(json.dumps({"measure": {"measure": "es", "alpha": 0.95},
                                           "solver": solver}))
                code = main(["solve", "--method", method, "--model", demo_model_path,
                             *draw, "--seed", "9",
                             "--config", str(cfg), "--no-timing", "--out", str(out)])
                assert code == 0
                outs.append((out / "solve_report.json").read_bytes())
            assert outs[0] == outs[1], method
