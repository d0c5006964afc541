import csv
import json

import numpy as np
import pytest

from zeroone import parse_csv, parse_libsvm, save_model
from zeroone.cli import (RunConfig, bench_rows, main, read_trace_csv,
                         rows_to_csv)


def run_cli(*argv):
    return main(list(argv))


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
        trace = read_trace_csv(str(tmp_path / "trace.csv"))
        assert trace.iterations >= 1

    def test_max_iter_one_row(self, tmp_path):
        run_cli("train", "--dataset", "moons", "--m", "40", "--seed", "2",
                "--max-iter", "1", "--out", str(tmp_path))
        assert read_trace_csv(str(tmp_path / "trace.csv")).iterations == 1

    def test_missing_file_exit_code(self, capsys):
        path = "/nonexistent/dataset.txt"
        assert run_cli("train", "--data", path) == 2
        assert path in capsys.readouterr().err


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

    def test_thread_cap_env(self, monkeypatch):
        monkeypatch.setenv("ZEROONE_THREADS", "1")
        rows = bench_rows(self._cfg(grid_c=(1.0, 4.0)))
        assert len(rows) == 2

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

    def test_empty_grid_rejected(self, capsys):
        assert run_cli("bench", "--dataset", "circles", "--grid-c", "",
                       "--max-iter", "10") == 4


def test_rows_to_csv_round_trip():
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    text = rows_to_csv(rows, ("a", "b"))
    back = list(csv.DictReader(text.splitlines()))
    assert [(r["a"], r["b"]) for r in back] == [("1", "x"), ("2", "y")]
