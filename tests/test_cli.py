import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from zeroone import (FAMILIES, NumericalError, TraceRecord, admm, baselines, cli,
                     decision_function, load_model, parse_csv, parse_libsvm,
                     save_model)
from zeroone.cli import (RunConfig, _hyperparams, bench_rows, build_parser,
                         config_from_args, main, make_kernel, prepare_splits,
                         rows_to_csv)
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

    def test_usage_error_exits_2_and_bad_value_4(self, tmp_path, capsys):
        # argparse reads "-inf" as a flag, so only "--C=-inf" reaches the
        # solver's own check
        with pytest.raises(SystemExit) as info:
            run_cli("train", "--bogus")
        assert info.value.code == 2
        assert run_cli("train", "--dataset", "circles", "--m", "40",
                       "--max-iter", "5", "--C=-inf", "--out", str(tmp_path)) == 4
        assert "C must be finite" in capsys.readouterr().err

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

    def test_other_os_error_exits_1(self, tmp_path, capsys):
        # --out names a directory: IsADirectoryError, not a missing file
        assert run_cli("gen", "--dataset", "circles", "--m", "10",
                       "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and "Is a directory" in err

    @pytest.mark.parametrize("command", ["train", "bench"])
    @pytest.mark.parametrize("name, text", [
        ("labels.txt", "+1\n-1\n+1\n-1\n+1\n-1\n"),
        ("labels.csv", "label\n1\n-1\n1\n-1\n1\n-1\n"),
    ], ids=["libsvm", "csv"])
    @pytest.mark.parametrize("kernel", ["gaussian", "linear"])
    def test_file_without_features_exits_4(self, tmp_path, capsys, command,
                                           name, text, kernel):
        path = tmp_path / name
        path.write_text(text)
        out = tmp_path / "out"
        assert run_cli(command, "--data", str(path), "--kernel", kernel,
                       "--max-iter", "5", "--out", str(out)) == 4
        assert "error: dataset has no feature column" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["train"], "either --data or --dataset is required"),
        (["gen"], "gen requires --dataset"),
        (["eval", "--model", "model.json"], "eval requires --data"),
    ], ids=["train", "gen", "eval"])
    def test_missing_data_source_exits_4(self, capsys, argv, message):
        assert run_cli(*argv) == 4
        assert f"error: {message}" in capsys.readouterr().err

    def test_cholesky_breakdown_exits_3(self, tmp_path, capsys):
        # I/sigma = 1e-300 leaves K + I/sigma numerically singular
        assert run_cli("train", "--dataset", "circles", "--m", "500", "--seed", "1",
                       "--sigma", "1e300", "--out", str(tmp_path)) == 3
        assert "numerical error: Cholesky" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()


class TestMakeKernel:
    @pytest.mark.parametrize("family, params", [
        ("gaussian", {"rho": 0.25}), ("laplacian", {"rho": 0.25}),
        ("exponential", {"rho": 0.25}), ("linear", {}),
        ("polynomial", {"degree": 2, "offset": 0.5}),
        ("inverse_multiquadric", {"c": 2.0, "beta": 0.25}),
    ])
    def test_family_reads_its_own_flags(self, family, params):
        cfg = RunConfig(command="train", kernel_family=family, degree=2,
                        offset=0.5, imq_c=2.0, imq_beta=0.25)
        assert make_kernel(cfg, 4).to_dict() == {"family": family, "params": params}
        if "rho" in params:
            cfg.rho = 3.0
            assert make_kernel(cfg, 4).params == {"rho": 3.0}

    def test_unknown_family_exits_4(self, monkeypatch, tmp_path, capsys):
        # the parser takes only known families; widen its choices
        monkeypatch.setattr(cli, "FAMILIES", FAMILIES + ("sigmoid",))
        assert run_cli("train", "--dataset", "circles", "--m", "40", "--kernel",
                       "sigmoid", "--out", str(tmp_path)) == 4
        assert "error: unknown kernel family 'sigmoid'" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()


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


class TestNoiseStd:
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_unusable_noise_std_exits_4(self, tmp_path, capsys, value):
        data = ["--dataset", "circles", "--m", "50", "--noise-std", value]
        out = tmp_path / "gen.csv"
        assert run_cli("gen", *data, "--out", str(out)) == 4
        assert "noise_std must be finite" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli("train", *data, "--max-iter", "5", "--out", str(tmp_path)) == 4
        assert "noise_std must be finite" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()
        out = tmp_path / "bench.csv"
        assert run_cli("bench", *data, "--max-iter", "5", "--selection", "paper",
                       "--format", "csv", "--out", str(out)) == 4
        assert "noise_std must be finite" in capsys.readouterr().err
        assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"
README_TRAIN = ("zeroone train --dataset circles --m 500 --seed 7 --C 16 "
                "--sigma 1 --out run/")


def _summary(line):
    """The ``key=value`` fields of a ``train`` summary line."""
    return dict(field.split("=", 1) for field in line.split())


class TestReadmeExample:
    def test_train_line_reproduces_and_certifies(self, tmp_path, capsys):
        text = README.read_text(encoding="utf-8")
        documented = _summary(text.split(README_TRAIN + "\n# -> ", 1)[1]
                              .splitlines()[0])
        argv = README_TRAIN.split()[1:-1]
        assert run_cli(*argv, str(tmp_path)) == 0
        got = _summary(capsys.readouterr().out.splitlines()[0])
        assert set(got) == set(documented)
        for key in ("train_acc", "test_acc", "nsv", "factor_rank", "iters",
                    "termination"):
            assert got[key] == documented[key], key
        assert run_cli("certify", "--model", str(tmp_path / "model.json")) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kkt"]["is_kkt"] is True
        assert report["prox_stationary"]["is_prox_stationary"] is True
        assert report["equivalence_roundtrip"] is True

    def test_cli_block_runs_in_order(self, tmp_path, monkeypatch, capsys):
        text = README.read_text(encoding="utf-8")
        block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [ln for ln in block.replace("\\\n", " ").splitlines()
                 if ln.startswith("zeroone ")]
        assert [ln.split()[1] for ln in lines] == \
            ["gen", "train", "certify", "eval", "bench", "boundary"]
        monkeypatch.chdir(tmp_path)
        for line in lines:
            argv = shlex.split(line)[1:]
            assert run_cli(*argv) == 0, line
            # the --out target, and each "name: path" line's path
            written = [argv[argv.index("--out") + 1]] if "--out" in argv else []
            written += re.findall(r"^\w+: (\S+)$", capsys.readouterr().out, re.M)
            for path in written:
                assert os.path.exists(path), (line, path)
        assert sorted(os.listdir("run")) == ["model.json", "trace.csv"]
        assert os.path.exists("grid_points.csv")

    def test_library_quick_start_prints_documented_lines(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        section = text.split("## Library quick start\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        documented = section.split("```text\n", 1)[1].split("```", 1)[0]
        env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
        run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == documented


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


class TestModelFile:
    """A malformed model file exits 4 with a message, not a traceback."""

    @pytest.fixture()
    def paths(self, tmp_path, circles_run):
        model_path, data_path = tmp_path / "model.json", tmp_path / "test.csv"
        save_model(circles_run.model, str(model_path))
        assert run_cli("gen", "--dataset", "circles", "--m", "20",
                       "--seed", "11", "--out", str(data_path)) == 0
        return model_path, data_path

    def _eval(self, paths, edit):
        model_path, data_path = paths
        doc = json.loads(model_path.read_text())
        edit(doc)
        model_path.write_text(json.dumps(doc))
        return run_cli("eval", "--model", str(model_path), "--data", str(data_path))

    @pytest.mark.parametrize("name", ["kernel", "c", "b", "lam", "u", "support",
                                      "gamma", "C", "train", "train.X",
                                      "train.y", "kernel.family",
                                      "scaling.mean"])
    def test_missing_field_exits_4(self, paths, capsys, name):
        *outer, key = name.split(".")

        def delete(doc):
            del (doc[outer[0]] if outer else doc)[key]
        assert self._eval(paths, delete) == 4
        assert f"no {key!r} field" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["c", "lam", "u"])
    def test_truncated_array_exits_4(self, paths, capsys, name):
        assert self._eval(paths, lambda doc: doc[name].pop()) == 4
        assert f"{name!r} has shape" in capsys.readouterr().err

    def test_support_out_of_range_exits_4(self, paths, capsys):
        def past_the_end(doc):
            doc["support"].append(len(doc["c"]))
        assert self._eval(paths, past_the_end) == 4
        assert "'support' has an index outside" in capsys.readouterr().err

    def test_json_not_an_object_exits_4(self, paths, capsys):
        model_path, data_path = paths
        model_path.write_text("[]")
        assert run_cli("eval", "--model", str(model_path), "--data", str(data_path)) == 4
        assert "holds a JSON list, not an object" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value, message", [
        ("kernel.params.rho", "x", "'kernel': kernel parameter rho must be finite"),
        ("kernel.params", [1], "'kernel'"), ("b", "x", "'b'"), ("c", "abc", "'c'"),
        ("train", [], "'train.X': expected an object"), ("scaling", "x", "'scaling'"),
        ("train.X", [1.0, 2.0], "'train.X' has shape (2,), not (rows, features)"),
        ("kernel.params.rho", True, "'kernel': kernel parameter rho must be finite, got True"),
        ("kernel.params", [["rho", 0.5]], "'kernel': 'list' object is not a mapping"),
        ("b", True, "'b': a value is bool, not a number"),
        ("b", "0.5", "'b': a value is str, not a number"),
        pytest.param("b", 10 ** 400, "'b': int too large to convert to float",
                     id="b-huge-int"),
        ("gamma", True, "'gamma': a value is bool, not a number"),
        ("C", True, "'C': a value is bool, not a number"),
        ("support", [0.7, 1.9], "'support': a value is float, not an integer"),
        ("scaling.constant", ["no", "no"], "'scaling.constant': a value is str, not a boolean"),
        ("scaling.constant", [0, 0], "'scaling.constant': a value is int, not a boolean"),
        ("scaling", [], "'scaling': expected an object, got list"),
        ("meta", [], "'meta': expected an object, got list"),
    ])
    def test_field_of_wrong_type_exits_4(self, paths, capsys, name, value, message):
        *outer, key = name.split(".")

        def replace(doc):
            for k in outer:
                doc = doc[k]
            doc[key] = value
        assert self._eval(paths, replace) == 4
        assert f"model field {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_format_version_of_wrong_kind_exits_4(self, paths, capsys, version):
        def replace(doc):
            doc["format_version"] = version
        assert self._eval(paths, replace) == 4
        assert f"unsupported model format version {version!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["mean", "std", "constant"])
    def test_scaling_of_wrong_length_exits_4(self, paths, capsys, name):
        assert self._eval(paths, lambda doc: doc["scaling"][name].pop()) == 4
        assert f"'scaling.{name}' has shape (1,)" in capsys.readouterr().err

    def test_intact_file_evaluates(self, paths, capsys):
        assert self._eval(paths, lambda doc: None) == 0

    @pytest.mark.parametrize("command, path, value, message", [
        ("eval", "train.X.0.0", math.nan, "'train.X': a value is not finite"),
        ("eval", "b", math.nan, "'b': a value is not finite"),
        ("eval", "c.0", math.inf, "'c': a value is not finite"),
        ("eval", "lam.0", math.nan, "'lam': a value is not finite"),
        ("eval", "u.0", math.nan, "'u': a value is not finite"),
        ("eval", "gamma", math.nan, "'gamma': a value is not finite and > 0"),
        ("eval", "C", math.nan, "'C': a value is not finite and > 0"),
        ("eval", "C", 0.0, "'C': a value is not finite and > 0"),
        ("eval", "gamma", -1.0, "'gamma': a value is not finite and > 0"),
        ("certify", "train.y.0", 0.5, "'train.y': a value is not -1 or +1"),
        ("eval", "support", [0, 0], "'support': a value is not above the one before it"),
        ("eval", "scaling.mean.0", math.nan, "'scaling.mean': a value is not finite"),
        ("eval", "scaling.std.1", math.inf, "'scaling.std': a value is not finite"),
        ("eval", "scaling.std.0", 0.0, "'scaling.std': a value is not > 0 on a "
                                       "feature that is not constant"),
        ("eval", "support.0", True, "'support': a value is bool, not an integer"),
        ("eval", "c.0", True, "'c': a value is bool, not a number"),
        ("eval", "c.0", "1.5", "'c': a value is str, not a number"),
        ("eval", "lam.0", "0", "'lam': a value is str, not a number"),
        ("eval", "u.0", True, "'u': a value is bool, not a number"),
        ("eval", "train.X.0.0", True, "'train.X': a value is bool, not a number"),
        ("certify", "train.y.0", True, "'train.y': a value is bool, not a number"),
        ("eval", "scaling.mean.0", True, "'scaling.mean': a value is bool, not a number"),
        ("eval", "scaling.std.0", "1", "'scaling.std': a value is str, not a number"),
    ])
    def test_invalid_value_exits_4(self, paths, capsys, command, path, value,
                                   message):
        model_path, data_path = paths
        doc = json.loads(model_path.read_text())
        *outer, key = [int(k) if k.isdigit() else k for k in path.split(".")]
        entry = doc
        for k in outer:
            entry = entry[k]
        entry[key] = value
        model_path.write_text(json.dumps(doc))
        data = ["--data", str(data_path)] if command == "eval" else []
        assert run_cli(command, "--model", str(model_path), *data) == 4
        assert f"model field {message}" in capsys.readouterr().err


class TestCommandSettings:
    @pytest.mark.parametrize("eps", ["nan", "-1", "0", "inf"])
    def test_certify_eps_exits_4(self, tmp_path, circles_run, capsys, eps):
        path = tmp_path / "model.json"
        save_model(circles_run.model, str(path))
        out = tmp_path / "cert.json"
        assert run_cli("certify", "--model", str(path), "--eps", eps,
                       "--out", str(out)) == 4
        assert "eps must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_boundary_grid_size_0_exits_4(self, tmp_path, circles_run, capsys):
        path = tmp_path / "model.json"
        save_model(circles_run.model, str(path))
        out = tmp_path / "grid.csv"
        assert run_cli("boundary", "--model", str(path), "--grid-size", "0",
                       "--out", str(out)) == 4
        assert "--grid-size must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--noise-rate", "-0.2"], ["--noise-rate", "nan"],
        ["--noise-multiplier", "-1"],
        ["--noise-rate", "0.1", "--noise-multiplier", "-1"],
        ["--noise-rate", "inf", "--noise-multiplier", "0"],
        ["--noise-rate", "0.3"],
    ], ids=lambda f: " ".join(f))
    def test_unusable_noise_rate_exits_4(self, tmp_path, capsys, flags):
        assert run_cli("train", "--dataset", "circles", "--m", "40",
                       "--max-iter", "5", *flags, "--out", str(tmp_path)) == 4
        err = capsys.readouterr().err
        assert "--noise-rate" in err and "--noise-multiplier" in err
        assert not (tmp_path / "model.json").exists()
        out = tmp_path / "bench.csv"
        assert run_cli("bench", "--dataset", "circles", "--m", "40",
                       "--max-iter", "5", "--selection", "paper", *flags,
                       "--format", "csv", "--out", str(out)) == 4
        assert "--noise-multiplier" in capsys.readouterr().err
        assert not out.exists()


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

    def test_csv_values_read_back_exactly(self, tmp_path, circles_run):
        trace_path = tmp_path / "trace.csv"
        cli.write_trace_csv(circles_run.trace, str(trace_path))
        names, rows = trace_rows(trace_path)
        assert len(rows) == circles_run.trace.iterations > 1
        for row, rec in zip(rows, circles_run.trace.records):
            assert all(float(row[n]) == getattr(rec, n) for n in names)
        model_path = tmp_path / "model.json"
        save_model(circles_run.model, str(model_path))
        mdl = load_model(str(model_path))
        out = tmp_path / "grid.csv"
        assert run_cli("boundary", "--model", str(model_path),
                       "--grid-size", "7", "--out", str(out)) == 0
        grid = np.loadtxt(out, delimiter=",", skiprows=1)
        assert grid.shape == (49, 4)
        dec = decision_function(mdl, grid[:, :2])
        np.testing.assert_array_equal(grid[:, 2], dec)
        np.testing.assert_array_equal(grid[:, 3], np.where(dec >= 0.0, 1, -1))
        points = np.loadtxt(tmp_path / "grid_points.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(points[:, :2], mdl.X)
        np.testing.assert_array_equal(points[:, 2], mdl.y)
        np.testing.assert_array_equal(np.flatnonzero(points[:, 3]), mdl.support)

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

    def test_cli_json_format(self, tmp_path):
        out = tmp_path / "bench.json"
        assert run_cli("bench", "--dataset", "circles", "--m", "80",
                       "--seed", "3", "--grid-c", "4", "--grid-sigma", "1,2",
                       "--max-iter", "200", "--selection", "paper",
                       "--format", "json", "--out", str(out)) == 0
        rows = json.loads(out.read_text())
        assert [(r["loss"], r["C"], r["sigma"]) for r in rows] == \
            [("l01", 4.0, 1.0), ("l01", 4.0, 2.0)]
        assert all(set(r) == set(cli.BENCH_COLUMNS) for r in rows)

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
            _, trace, mdl = baselines.solve_baseline(train, hp, row["loss"],
                                                     gram=gram, scaling=stats)
            alone.append({**row, **cli._metrics(train, test, mdl, trace, 0.0)})
        assert _without_wall(rows) == _without_wall(alone)
        terms = {(r["loss"], r["termination"]) for r in rows}
        assert terms == {(k, t) for k in cfg.loss
                         for t in ("tolerance_met", "max_iter")}
        trivial = next(r for r in rows if (r["loss"], r["C"], r["sigma"])
                       == ("l01", 0.5, 2.0))
        assert trivial["iters"] == 1

    def test_failed_cell_keeps_its_error_only(self, monkeypatch):
        clean = bench_rows(RunConfig(**LOCKSTEP))
        real = admm._solve_rows
        calls = []

        def third_call_fails_row_1(solvers, xi, y, sigma, c, Kc):
            # the first batch is l01, its rows in cell order: (C, sigma) =
            # (0.5, 1), (0.5, 2), (4, 1), (4, 2), (64, 1), (64, 2).  After
            # (0.5, 2) leaves at iteration 1, row 1 is (C=4, sigma=1)
            failed = real(solvers, xi, y, sigma, c, Kc)
            calls.append(len(solvers))
            if len(calls) == 3:
                assert calls == [6, 5, 5] and sigma[1, 0] == 1.0
                failed[1] = NumericalError("injected")
            return failed

        monkeypatch.setattr(admm, "_solve_rows", third_call_fails_row_1)
        rows = bench_rows(RunConfig(**LOCKSTEP))
        failed = [r for r in rows if r["error"]]
        assert [(r["loss"], r["C"], r["sigma"], r["error"]) for r in failed] \
            == [("l01", 4.0, 1.0, "injected")]
        assert "iters" not in failed[0]
        others = [r for r in rows if not r["error"]]
        want = [r for r in clean if (r["loss"], r["C"], r["sigma"])
                != ("l01", 4.0, 1.0)]
        assert _without_wall(others) == _without_wall(want)

    @pytest.mark.parametrize("fail_calls, error", [
        ({2, 3}, "injected 2"),  # two folds: the first fold's error is kept
        ({0, 1}, "injected 0"),  # the training grid and a fold: the training one
    ], ids=["folds", "training-and-fold"])
    def test_cv_fold_error_reaches_its_row(self, monkeypatch, fail_calls, error):
        cfg = RunConfig(**{**LOCKSTEP, "max_iter": 20, "selection": "cv",
                           "cv_folds": 3})
        clean = bench_rows(cfg)
        real = baselines.solve_grid
        calls = []

        def failing(*args, **kw):
            # call 0 solves the training grid, calls 1-3 the folds; the
            # cell (hinge_l1, C=4, sigma=1) is entry 8 of each
            out = real(*args, **kw)
            if len(calls) in fail_calls:
                out[8] = NumericalError(f"injected {len(calls)}")
            calls.append(1)
            return out

        monkeypatch.setattr(baselines, "solve_grid", failing)
        rows = bench_rows(cfg)
        assert len(calls) == 4
        failed = [r for r in rows if r["error"]]
        assert [(r["loss"], r["C"], r["sigma"], r["error"]) for r in failed] \
            == [("hinge_l1", 4.0, 1.0, error)]
        assert "cv_acc" not in failed[0] and failed[0]["selection"] == ""

        def strip(r):  # a mark can move to another row of the loss
            return {k: v for k, v in r.items() if k not in ("wall_s", "selection")}

        assert [strip(r) for r in rows if not r["error"]] == \
            [strip(r) for r in clean if (r["loss"], r["C"], r["sigma"])
             != ("hinge_l1", 4.0, 1.0)]

    def test_loss_whose_every_cell_fails_gets_no_mark(self, tmp_path, monkeypatch):
        def failing_set_up(f, sigma):
            raise NumericalError(f"injected set-up failure at sigma={sigma}")

        monkeypatch.setattr(admm, "_CoefficientSolver", failing_set_up)
        out = tmp_path / "bench.json"
        assert run_cli("bench", "--dataset", "circles", "--m", "40", "--seed", "1",
                       "--loss", "l01,hinge_l1", "--grid-c", "1,4",
                       "--grid-sigma", "1,2", "--cv-folds", "3",
                       "--format", "json", "--out", str(out)) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 8
        assert all(r["error"] == f"injected set-up failure at sigma={r['sigma']}"
                   and r["selection"] == "" and "cv_acc" not in r for r in rows)

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
