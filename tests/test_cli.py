import csv
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from zeroone import (NumericalError, TraceRecord, admm, parse_csv, parse_libsvm,
                     save_model)
from zeroone.cli import (RunConfig, _hyperparams, bench_rows, build_parser,
                         config_from_args, main, make_kernel, prepare_splits,
                         rows_to_csv, run_single)
from zeroone.kernels import gram_matrix


def run_cli(*argv):
    return main(list(argv))


def trace_rows(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


class TestSurface:
    @pytest.mark.parametrize("argv, expected", [
        (["gen"], {}),
        (["train"], {}),
        (["eval", "--model", "m.json"], {"model_path": "m.json"}),
        (["certify", "--model", "m.json"], {"model_path": "m.json"}),
        (["bench"], {}),
        (["boundary", "--model", "m.json"], {"model_path": "m.json"}),
    ])
    def test_minimal_invocation_gives_runconfig_defaults(self, argv, expected):
        cfg = config_from_args(build_parser().parse_args(argv))
        assert cfg == RunConfig(command=argv[0], **expected)

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "m.json", "--seed", "1"],
        ["certify", "--model", "m.json", "--seed", "1"],
        ["boundary", "--model", "m.json", "--seed", "1"],
        ["train", "--dataset", "circles", "--format", "csv"],
        ["bench", "--dataset", "circles", "--C", "4"],
        ["gen", "--dataset", "circles", "--format", "json"],
        ["bench", "--dataset", "circles", "--format", "libsvm"],
    ])
    def test_flag_the_command_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(*argv)
        assert info.value.code == 2

    def test_gen_options(self, capsys):
        # gen generates; it takes no --data to convert
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        gen = sub.choices["gen"]
        options = {o for a in gen._actions if a.dest != "help"
                   for o in a.option_strings}
        assert options == {"--dataset", "--m", "--factor", "--noise-std",
                           "--seed", "--out", "--format"}
        with pytest.raises(SystemExit) as info:
            run_cli("gen", "--data", "c.csv", "--dataset", "moons")
        assert info.value.code == 2


class TestGen:
    def test_csv_output_parses_back(self, tmp_path):
        out = tmp_path / "circles.csv"
        assert run_cli("gen", "--dataset", "circles", "--m", "40",
                       "--seed", "3", "--out", str(out)) == 0
        ds = parse_csv(out.read_text())
        assert ds.n == 40 and ds.d == 2

    def test_libsvm_output(self, tmp_path):
        out = tmp_path / "moons.txt"
        assert run_cli("gen", "--dataset", "moons", "--m", "10", "--seed", "1",
                       "--format", "libsvm", "--out", str(out)) == 0
        assert parse_libsvm(out.read_text()).n == 10

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("gen", "--dataset", "circles", "--m", "25", "--seed", "7",
                "--out", str(a))
        run_cli("gen", "--dataset", "circles", "--m", "25", "--seed", "7",
                "--out", str(b))
        assert a.read_text() == b.read_text()


class TestTrain:
    def test_writes_model_trace_summary(self, tmp_path, capsys):
        code = run_cli("train", "--dataset", "circles", "--m", "120",
                       "--seed", "5", "--C", "16", "--sigma", "1",
                       "--out", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "train_acc=" in out and "nsv=" in out and "iters=" in out
        assert (tmp_path / "model.json").exists()
        header, rows = trace_rows(tmp_path / "trace.csv")
        assert header == [f.name for f in fields(TraceRecord)]
        assert len(rows) >= 1 and rows[0]["iter"] == "1"

    def test_summary_reports_solver_setup(self, tmp_path, capsys):
        # linear on 2-D data has rank 2; gaussian at m_train=72 stays dense
        for kernel, rank in (("linear", "factor_rank=2 "), ("gaussian", "factor_rank=dense ")):
            assert run_cli("train", "--dataset", "circles", "--m", "120", "--seed", "5",
                           "--kernel", kernel, "--max-iter", "20",
                           "--out", str(tmp_path)) == 0
            line = capsys.readouterr().out.splitlines()[0]
            assert rank in line
            setup = float(line.split("setup_seconds=")[1].split()[0])
            assert 0.0 <= setup <= float(line.split("wall_seconds=")[1].split()[0])

    def test_more_than_one_loss_rejected(self, tmp_path, capsys):
        assert run_cli("train", "--dataset", "circles", "--m", "60",
                       "--seed", "1", "--loss", "hinge_l1,l01",
                       "--max-iter", "50", "--out", str(tmp_path)) == 4
        assert "one --loss" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()
        assert run_cli("train", "--dataset", "circles", "--m", "60",
                       "--seed", "1", "--loss", "hinge_l1",
                       "--max-iter", "50", "--out", str(tmp_path)) == 0

    def test_max_iter_one_row(self, tmp_path):
        run_cli("train", "--dataset", "moons", "--m", "40", "--seed", "2",
                "--max-iter", "1", "--out", str(tmp_path))
        assert len(trace_rows(tmp_path / "trace.csv")[1]) == 1

    def test_missing_file_exit_code(self, capsys):
        path = "/nonexistent/dataset.txt"
        assert run_cli("train", "--data", path) == 2
        assert path in capsys.readouterr().err


class TestNonFiniteKernelParameter:
    @pytest.mark.parametrize("flags", [
        ["--rho", "inf"],
        ["--kernel", "polynomial", "--offset", "nan"],
        ["--kernel", "inverse_multiquadric", "--imq-c", "inf"],
        ["--kernel", "inverse_multiquadric", "--imq-beta", "inf"],
    ], ids=lambda f: " ".join(f))
    def test_train_flag_exits_4(self, tmp_path, capsys, flags):
        assert run_cli("train", "--dataset", "circles", "--m", "60", "--seed", "1",
                       "--max-iter", "20", *flags, "--out", str(tmp_path)) == 4
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("degree", [math.nan, math.inf])
    def test_model_degree_exits_4(self, tmp_path, circles_run, capsys, degree):
        path = tmp_path / "model.json"
        save_model(circles_run.model, str(path))
        doc = json.loads(path.read_text())
        doc["kernel"] = {"family": "polynomial",
                         "params": {"degree": degree, "offset": 1.0}}
        path.write_text(json.dumps(doc))
        assert run_cli("certify", "--model", str(path)) == 4
        assert "degree must be finite" in capsys.readouterr().err


class TestNonFiniteSolverSetting:
    @pytest.mark.parametrize("flag, name", [
        ("--C", "C"), ("--sigma", "sigma"), ("--iota", "iota"), ("--eps", "eps"),
    ])
    def test_train_flag_exits_4(self, tmp_path, capsys, flag, name):
        assert run_cli("train", "--dataset", "circles", "--m", "60", "--seed", "1",
                       "--max-iter", "20", flag, "inf", "--out", str(tmp_path)) == 4
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("flag, name", [("--grid-c", "C"),
                                            ("--grid-sigma", "sigma")])
    def test_bench_grid_exits_4(self, tmp_path, capsys, flag, name):
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--dataset", "circles", "--m", "60", "--seed", "1",
                       "--max-iter", "20", "--selection", "paper", flag, "1,inf",
                       "--format", "csv", "--out", str(out)) == 4
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestEvalCertify:
    @pytest.fixture()
    def trained(self, tmp_path, circles_run):
        path = tmp_path / "model.json"
        save_model(circles_run.model, str(path))
        return path

    def test_eval_on_exported_data(self, tmp_path, trained, capsys):
        # evaluation applies the stored scaling, so export raw-space points
        data_path = tmp_path / "test.csv"
        code = run_cli("gen", "--dataset", "circles", "--m", "60",
                       "--seed", "11", "--out", str(data_path))
        assert code == 0
        assert run_cli("eval", "--model", str(trained),
                       "--data", str(data_path)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n"] == 60 and 0.9 <= report["accuracy"] <= 1.0

    def test_certify_fresh_model(self, trained, capsys):
        assert run_cli("certify", "--model", str(trained)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kkt"]["is_kkt"] is True
        assert report["prox_stationary"]["is_prox_stationary"] is True
        assert report["equivalence_roundtrip"] is True

    def test_certify_perturbed_bias_fails(self, tmp_path, trained, capsys):
        doc = json.loads(trained.read_text())
        doc["b"] = doc["b"] + 1.0
        bad = tmp_path / "perturbed.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("certify", "--model", str(bad)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["prox_stationary"]["is_prox_stationary"] is False
        assert report["prox_stationary"]["res_feasibility"] >= 0.9

    def test_certify_unsolved_state_fails(self, tmp_path, trained, capsys):
        doc = json.loads(trained.read_text())
        m = len(doc["c"])
        doc["c"] = [0.0] * m
        doc["lam"] = [0.0] * m
        doc["u"] = [2.0] * m  # infeasible slack
        bad = tmp_path / "zeroed.json"
        bad.write_text(json.dumps(doc))
        run_cli("certify", "--model", str(bad))
        report = json.loads(capsys.readouterr().out)
        assert report["kkt"]["is_kkt"] is False
        assert report["prox_stationary"]["is_prox_stationary"] is False

    def test_certify_fingerprint_mismatch(self, tmp_path, trained, capsys):
        other = tmp_path / "other.csv"
        run_cli("gen", "--dataset", "circles", "--m", "30", "--seed", "99",
                "--out", str(other))
        assert run_cli("certify", "--model", str(trained),
                       "--data", str(other)) == 4


class TestBoundary:
    def test_grid_rows_and_sign_change(self, tmp_path, circles_run):
        model_path = tmp_path / "model.json"
        save_model(circles_run.model, str(model_path))
        out = tmp_path / "grid.csv"
        assert run_cli("boundary", "--model", str(model_path),
                       "--grid-size", "3", "--out", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        labels = {r["label"] for r in rows}
        assert labels == {"1", "-1"}  # inner/outer regions differ in sign
        pts = tmp_path / "grid_points.csv"
        with open(pts) as fh:
            prows = list(csv.DictReader(fh))
        assert len(prows) == circles_run.train.n
        assert sum(int(r["support"]) for r in prows) == circles_run.model.nsv

    def test_constant_model(self, tmp_path):
        import zeroone
        mdl = zeroone.TrainedModel(
            c=np.zeros(2), b=0.4, lam=np.zeros(2), u=np.zeros(2),
            support=np.empty(0, dtype=int),
            kernel=zeroone.KernelSpec("linear", {}),
            X=np.array([[0.0, 0.0], [1.0, 1.0]]),
            y=np.array([1.0, -1.0]), gamma=1.0, C=1.0)
        path = tmp_path / "const.json"
        save_model(mdl, str(path))
        out = tmp_path / "g.csv"
        run_cli("boundary", "--model", str(path), "--grid-size", "4",
                "--out", str(out))
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["decision"] for r in rows} == {"0.40000000000000002"}

    def test_requires_2d(self, tmp_path):
        import zeroone
        mdl = zeroone.TrainedModel(
            c=np.zeros(2), b=0.0, lam=np.zeros(2), u=np.zeros(2),
            support=np.empty(0, dtype=int),
            kernel=zeroone.KernelSpec("linear", {}),
            X=np.zeros((2, 3)), y=np.array([1.0, -1.0]), gamma=1.0, C=1.0)
        path = tmp_path / "m3d.json"
        save_model(mdl, str(path))
        assert run_cli("boundary", "--model", str(path)) == 4


class TestBench:
    def _cfg(self, **kw):
        base = dict(command="bench", generator="circles", m=80, seed=3,
                    grid_c=(4.0,), grid_sigma=(1.0,), max_iter=300,
                    loss=("l01",), selection="paper")
        base.update(kw)
        return RunConfig(**base)

    def test_single_point_grid(self):
        rows = bench_rows(self._cfg())
        assert len(rows) == 1
        row = rows[0]
        assert row["selection"] == "paper" and row["error"] == ""
        assert set(row) >= {"train_acc", "test_acc", "nsv", "wall_s", "iters"}

    def test_rows_in_config_order(self):
        cfg = self._cfg(grid_c=(1.0, 8.0), grid_sigma=(1.0, 2.0),
                        loss=("l01", "hinge_l1"))
        rows = bench_rows(cfg)
        combos = [(r["loss"], r["C"], r["sigma"]) for r in rows]
        assert combos == [(k, C, s) for k in ("l01", "hinge_l1")
                          for C in (1.0, 8.0) for s in (1.0, 2.0)]

    def test_cv_marks(self):
        rows = bench_rows(self._cfg(grid_c=(1.0, 16.0), selection="cv",
                                    cv_folds=3))
        marks = [r["selection"] for r in rows]
        assert any("paper" in mk for mk in marks)
        assert any("cv" in mk for mk in marks)
        assert all("cv_acc" in r for r in rows)

    @pytest.mark.parametrize("folds, code", [
        ("8", 4),  # more folds than the 6 training samples: empty holdouts
        ("1", 4),
        ("0", 4),
        ("6", 0),  # one holdout sample per fold
    ])
    def test_cv_folds_range(self, folds, code, capsys):
        assert run_cli("bench", "--dataset", "circles", "--m", "10",
                       "--seed", "1", "--grid-c", "1", "--grid-sigma", "1",
                       "--max-iter", "50", "--cv-folds", folds) == code

    def test_cli_csv_format(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run_cli("bench", "--dataset", "circles", "--m", "80",
                       "--seed", "3", "--grid-c", "4", "--grid-sigma", "1",
                       "--max-iter", "200", "--selection", "paper",
                       "--format", "csv", "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["loss"] == "l01"

    def test_cv_wall_s_column(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--dataset", "circles", "--m", "80",
                       "--seed", "3", "--grid-c", "1,16", "--grid-sigma", "1",
                       "--max-iter", "100", "--cv-folds", "3",
                       "--format", "csv", "--out", str(out)) == 0
        with open(out) as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        cols = reader.fieldnames
        assert cols.index("cv_wall_s") == cols.index("wall_s") + 1
        assert all(float(r["cv_wall_s"]) > 0.0 for r in rows)
        assert "cv_wall_s" not in bench_rows(RunConfig(
            command="bench", generator="circles", m=80, seed=3,
            grid_c=(1.0,), grid_sigma=(1.0,), max_iter=20, cv_folds=3))[0]

    def test_empty_grid_rejected(self, capsys):
        assert run_cli("bench", "--dataset", "circles", "--grid-c", "",
                       "--max-iter", "10") == 4

    def test_empty_loss_rejected(self, tmp_path, capsys):
        assert run_cli("train", "--dataset", "circles", "--m", "40",
                       "--loss", "", "--max-iter", "10",
                       "--out", str(tmp_path)) == 4
        assert run_cli("bench", "--dataset", "circles", "--m", "40",
                       "--loss", ",", "--max-iter", "10") == 4


# Moons m=100, noise 0.05: every loss mixes tolerance_met and max_iter
# cells, and l01 at (C=0.5, sigma=2) stops at iteration 1 (2C < sigma).
LOCKSTEP = dict(command="bench", generator="moons", m=100, seed=7,
                noise_rate=0.05, grid_c=(0.5, 4.0, 64.0), grid_sigma=(1.0, 2.0),
                max_iter=300, loss=("l01", "hinge_l1", "squared_hinge_l2"),
                selection="paper")


def _without_wall(rows):
    return [{k: v for k, v in r.items() if k != "wall_s"} for r in rows]


class TestLockstepGrid:
    """``bench_rows`` solves each loss's cells in one lockstep batch; every
    row must be the row of that cell solved alone."""

    def test_rows_equal_cells_solved_alone(self):
        cfg = RunConfig(**LOCKSTEP)
        rows = bench_rows(cfg)
        train, test, stats = prepare_splits(cfg)
        kernel = make_kernel(cfg, train.d)
        gram = gram_matrix(kernel, train.X)
        alone = []
        for row in rows:
            hp = _hyperparams(cfg, kernel, row["C"], row["sigma"])
            metrics, _, _ = run_single(train, test, hp, row["loss"],
                                       gram=gram, scaling=stats)
            alone.append({**row, **metrics})
        assert _without_wall(rows) == _without_wall(alone)
        terms = {(r["loss"], r["termination"]) for r in rows}
        assert terms == {(k, t) for k in cfg.loss
                         for t in ("tolerance_met", "max_iter")}
        trivial = next(r for r in rows if (r["loss"], r["C"], r["sigma"])
                       == ("l01", 0.5, 2.0))
        assert trivial["iters"] == 1

    def test_failed_cell_keeps_its_error_only(self, monkeypatch):
        clean = bench_rows(RunConfig(**LOCKSTEP))
        real = admm._CoefficientSolver.solve_rows
        calls = []

        def third_sigma1_call_fails_row_1(self, xi, y, c, Kc):
            # the first batch is l01; its sigma=1 rows are, in grid order,
            # the cells C = 0.5, 4, 64: row 1 is (C=4, sigma=1)
            errors = real(self, xi, y, c, Kc)
            calls.append(self.sigma)
            if self.sigma == 1.0 and calls.count(1.0) == 3:
                errors = errors + [(1, NumericalError("injected"))]
            return errors

        monkeypatch.setattr(admm._CoefficientSolver, "solve_rows",
                            third_sigma1_call_fails_row_1)
        rows = bench_rows(RunConfig(**LOCKSTEP))
        failed = [r for r in rows if r["error"]]
        assert [(r["loss"], r["C"], r["sigma"], r["error"]) for r in failed] \
            == [("l01", 4.0, 1.0, "injected")]
        assert "iters" not in failed[0]
        others = [r for r in rows if not r["error"]]
        want = [r for r in clean if (r["loss"], r["C"], r["sigma"])
                != ("l01", 4.0, 1.0)]
        assert _without_wall(others) == _without_wall(want)

    @pytest.mark.parametrize("selection, folds, grams", [
        ("paper", 5, 1), ("cv", 3, 4)])
    def test_one_solver_per_sigma_per_gram(self, monkeypatch, selection,
                                           folds, grams):
        built, factored = [], []
        real_cholesky = admm._pivoted_cholesky

        class Counted(admm._CoefficientSolver):
            def __init__(self, *args, **kw):
                built.append(1)
                super().__init__(*args, **kw)

        def counted_cholesky(K, max_rank):
            factored.append(1)
            return real_cholesky(K, max_rank)

        monkeypatch.setattr(admm, "_CoefficientSolver", Counted)
        monkeypatch.setattr(admm, "_pivoted_cholesky", counted_cholesky)
        bench_rows(RunConfig(**{**LOCKSTEP, "max_iter": 20,
                                "selection": selection, "cv_folds": folds}))
        assert len(built) == 2 * grams  # two sigmas, shared by the 3 losses
        assert len(factored) == grams


class TestPrepareSplits:
    def _labels(self, **kw):
        cfg = RunConfig(command="train", generator="circles", m=100, seed=5,
                        **kw)
        train, test, _ = prepare_splits(cfg)
        return train.y, test.y

    def test_noise_on_train_leaves_test_clean(self):
        clean_tr, clean_te = self._labels()
        tr, te = self._labels(noise_rate=0.1, noise_on="train")
        assert np.array_equal(te, clean_te)
        # Default multiplier 2: the effective rate is 0.2.
        assert np.sum(tr != clean_tr) == math.floor(0.2 * len(clean_tr))

    def test_noise_multiplier_scales_flip_count(self):
        clean = np.concatenate(self._labels())
        noisy = np.concatenate(self._labels(noise_rate=0.1,
                                            noise_multiplier=1.0))
        assert np.sum(noisy != clean) == math.floor(0.1 * len(clean))


def test_rows_to_csv_round_trip():
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    text = rows_to_csv(rows, ("a", "b"))
    back = list(csv.DictReader(text.splitlines()))
    assert [(r["a"], r["b"]) for r in back] == [("1", "x"), ("2", "y")]
