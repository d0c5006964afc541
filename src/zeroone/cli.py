"""Command-line surface: generate data, train, evaluate, certify, benchmark
grids, and export decision-boundary rasters.

Seed policy: one user seed drives four derived streams (generator, label
flips, split shuffle, CV folds), so every command is reproducible from its
flags alone.  The label-noise rate follows the benchmark protocol: by
default ``floor(2 * r * n)`` labels are flipped over the whole dataset
before splitting (``--noise-on train`` restricts flipping to the training
half, ``--noise-multiplier`` rescales the count).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import baselines, data, model as model_mod
from .admm import Hyperparams, SolveTrace, TraceRecord
from .errors import (ConfigError, InputError, NumericalError, ParseError,
                     ZeroOneError)
from .kernels import (_REQUIRED_PARAMS, FAMILIES, KernelSpec, data_fingerprint,
                      gram_matrix)
from .prox import LossKind
from .stationarity import check_kkt, check_prox_stationary, equivalence_roundtrip

DEFAULT_GRID_C = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
DEFAULT_GRID_SIGMA = (1.0, 2.0)
_BOUNDARY_CHUNK = 4096  # grid rows per block of the boundary CSV

BENCH_COLUMNS = ("dataset", "r", "loss", "C", "sigma", "train_acc",
                 "test_acc", "nsv", "wall_s", "iters", "termination",
                 "selection", "error")


@dataclass
class RunConfig:
    """Normalized settings of one CLI invocation, and the one home of the
    CLI's defaults: the parser declares none."""

    command: str
    data_path: str | None = None
    generator: str | None = None
    m: int = 500
    factor: float = 0.5
    noise_std: float | None = None  # None -> the generator's own default
    kernel_family: str = "gaussian"
    rho: float | None = None  # None -> 1/d
    degree: int = 3
    offset: float = 1.0
    imq_c: float = 1.0
    imq_beta: float = 0.5
    C: float = 1.0
    sigma: float = 1.0
    iota: float = 1.0
    eps: float = 1e-3
    max_iter: int = 2000
    loss: tuple = (LossKind.L01,)
    grid_c: tuple = DEFAULT_GRID_C
    grid_sigma: tuple = DEFAULT_GRID_SIGMA
    seed: int = 0
    noise_rate: float = 0.0
    noise_on: str = "all"  # "all" | "train"
    noise_multiplier: float = 2.0
    train_frac: float = 0.6
    selection: str = "cv"  # "cv" | "paper"
    fmt: str = "table"  # "table" | "csv" | "json"
    out: str | None = None
    model_path: str | None = None
    grid_size: int = 100
    cv_folds: int = 5


def make_kernel(cfg: RunConfig, d: int) -> KernelSpec:
    """The ``--kernel`` family with the parameters it requires, read from
    their flags; ``rho`` defaults to ``1/d``."""
    flags = {"rho": cfg.rho, "degree": cfg.degree, "offset": cfg.offset,
             "c": cfg.imq_c, "beta": cfg.imq_beta}
    params = {n: flags[n] for n in _REQUIRED_PARAMS.get(cfg.kernel_family, ())}
    if "rho" in params and cfg.rho is None:
        params["rho"] = 1.0 / d
    return KernelSpec(cfg.kernel_family, params)


def load_or_generate(cfg: RunConfig) -> data.Dataset:
    if cfg.data_path is not None:
        return data.load_dataset(cfg.data_path)
    if cfg.generator is None:
        raise InputError("either --data or --dataset is required")
    noise = {} if cfg.noise_std is None else {"noise_std": cfg.noise_std}
    if cfg.generator == "circles":
        return data.gen_double_circles(cfg.m, factor=cfg.factor,
                                       seed=cfg.seed, **noise)
    if cfg.generator == "moons":
        return data.gen_double_moons(cfg.m, seed=cfg.seed, **noise)
    raise InputError(f"unknown generator {cfg.generator!r}")


def prepare_splits(cfg: RunConfig) -> tuple[data.Dataset, data.Dataset, data.StandardizeStats]:
    """Load/generate, inject label noise, split and standardize."""
    ds = load_or_generate(cfg)
    flip_seed, split_seed = cfg.seed + 1, cfg.seed + 2
    rate = cfg.noise_rate * cfg.noise_multiplier
    if not (cfg.noise_rate >= 0 and cfg.noise_multiplier >= 0 and rate < 0.5):
        raise InputError(f"--noise-rate ({cfg.noise_rate}) and --noise-multiplier "
                         f"({cfg.noise_multiplier}) must be >= 0, with a product "
                         "below 0.5")
    if cfg.noise_on == "all":
        ds = data.flip_labels(ds, rate, seed=flip_seed)
    train, test = data.split(ds, train_fraction=cfg.train_frac, seed=split_seed)
    if cfg.noise_on == "train":
        train = data.flip_labels(train, rate, seed=flip_seed)
    return data.standardize(train, test)


def _hyperparams(cfg: RunConfig, kernel: KernelSpec, C: float,
                 sigma: float) -> Hyperparams:
    return Hyperparams(C=C, sigma=sigma, iota=cfg.iota, eps=cfg.eps,
                       max_iter=cfg.max_iter, kernel=kernel)


def _metrics(train, test, mdl, trace: SolveTrace, wall_s: float) -> dict:
    """The result columns of one solved cell."""
    return {
        "train_acc": model_mod.accuracy(model_mod.predict(mdl, train.X), train.y),
        "test_acc": model_mod.accuracy(model_mod.predict(mdl, test.X), test.y),
        "nsv": mdl.nsv, "wall_s": wall_s, "iters": trace.iterations,
        "termination": trace.termination,
    }


# ---------------------------------------------------------------------------
# trace / table serialization

def _write_table(path: str, header: list, tables) -> None:
    """The rows of ``tables``, one table after another, as CSV under ``header``:
    every value in ``%.17g`` (an integral value as an integer), CRLF line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for i, table in enumerate(tables):  # savetxt writes no line for header=""
            np.savetxt(fh, table, fmt="%.17g", delimiter=",", newline="\r\n",
                       header="" if i else ",".join(header), comments="")


def write_trace_csv(trace: SolveTrace, path: str):
    """One row per :class:`TraceRecord`, headed by its field names; floats
    keep all 17 significant digits."""
    names = [f.name for f in fields(TraceRecord)]
    flat = np.reshape(trace.flat, (-1, len(names) - 1))
    _write_table(path, names, [np.column_stack((np.arange(1, len(flat) + 1), flat))])


def rows_to_csv(rows, columns) -> str:
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(columns)
    for row in rows:
        w.writerow([row.get(c, "") for c in columns])
    return out.getvalue()


def rows_to_table(rows, columns) -> str:
    cells = [[str(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
              for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format_rows(rows, columns, fmt: str) -> str:
    if fmt == "csv":
        return rows_to_csv(rows, columns)
    if fmt == "json":
        return json.dumps(list(rows), indent=2) + "\n"
    return rows_to_table(rows, columns)


# ---------------------------------------------------------------------------
# commands

def cmd_gen(cfg: RunConfig) -> int:
    if cfg.generator is None:
        raise InputError("gen requires --dataset circles|moons")
    ds = load_or_generate(cfg)
    text = data.format_libsvm(ds) if cfg.fmt == "libsvm" else data.format_csv(ds)
    _emit(text, cfg.out)
    return 0


def cmd_train(cfg: RunConfig) -> int:
    if len(cfg.loss) != 1:
        raise InputError("train takes one --loss kind, got "
                         + ",".join(LossKind(k).value for k in cfg.loss))
    train, test, stats = prepare_splits(cfg)
    hp = _hyperparams(cfg, make_kernel(cfg, train.d), cfg.C, cfg.sigma)
    t0 = time.perf_counter()
    _, trace, mdl = baselines.solve_baseline(train, hp, cfg.loss[0], scaling=stats)
    row = _metrics(train, test, mdl, trace, time.perf_counter() - t0)
    outdir = cfg.out or "."
    os.makedirs(outdir, exist_ok=True)
    model_path = os.path.join(outdir, "model.json")
    trace_path = os.path.join(outdir, "trace.csv")
    model_mod.save_model(mdl, model_path)
    write_trace_csv(trace, trace_path)
    rank = "dense" if trace.factor_rank is None else trace.factor_rank
    print(f"train_acc={row['train_acc']:.6f} test_acc={row['test_acc']:.6f} "
          f"nsv={row['nsv']} wall_seconds={row['wall_s']:.3f} "
          f"setup_seconds={trace.setup_s:.3f} factor_rank={rank} iters={row['iters']} "
          f"termination={trace.termination}")
    print(f"model: {model_path}")
    print(f"trace: {trace_path}")
    return 0


def _load_model(cfg: RunConfig) -> tuple["model_mod.TrainedModel",
                                         data.Dataset | None]:
    """The model at ``--model`` and the optional ``--data`` rows, mapped
    into the model's input space by its stored scaling."""
    if cfg.model_path is None:
        raise InputError(f"{cfg.command} requires --model")
    mdl = model_mod.load_model(cfg.model_path)
    if cfg.data_path is None:
        return mdl, None
    ds = data.load_dataset(cfg.data_path)
    if mdl.scaling is not None:
        ds = data.Dataset(X=mdl.scaling.apply(ds.X), y=ds.y, name=ds.name)
    return mdl, ds


def cmd_eval(cfg: RunConfig) -> int:
    if cfg.data_path is None:
        raise InputError("eval requires --data")
    mdl, ds = _load_model(cfg)
    acc = model_mod.accuracy(model_mod.predict(mdl, ds.X), ds.y)
    _emit(json.dumps({"accuracy": acc, "n": ds.n}) + "\n", cfg.out)
    return 0


def cmd_certify(cfg: RunConfig) -> int:
    if not (math.isfinite(cfg.eps) and cfg.eps > 0):
        raise InputError(f"eps must be finite and > 0, got {cfg.eps}")
    mdl, ds = _load_model(cfg)
    if ds is not None and ds.fingerprint() != data_fingerprint(mdl.X):
        raise InputError(
            "dataset fingerprint does not match the model's training data"
        )
    K = gram_matrix(mdl.kernel, mdl.X).entries
    tol = 10.0 * cfg.eps
    kkt = check_kkt(mdl.c, mdl.b, mdl.u, mdl.lam, K, mdl.y, mdl.C, tol=tol)
    prox = check_prox_stationary(mdl.c, mdl.b, mdl.u, mdl.lam, K, mdl.y,
                                 mdl.C, mdl.gamma, tol=tol)
    equiv = equivalence_roundtrip(mdl.c, mdl.b, mdl.u, mdl.lam, K, mdl.y,
                                  mdl.C, tol=tol)
    report = {
        "kkt": kkt.to_dict(),
        "prox_stationary": prox.to_dict(),
        "equivalence_roundtrip": equiv,
        "tol": tol,
    }
    _emit(json.dumps(report, indent=2) + "\n", cfg.out)
    return 0


def _cv_folds(train: data.Dataset, folds: int, seed: int):
    """Deterministic fold partition; yields (train, holdout) dataset pairs."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(train.n)
    chunks = np.array_split(order, folds)
    pairs = []
    for i in range(folds):
        hold = chunks[i]
        rest = np.concatenate([chunks[j] for j in range(folds) if j != i])
        pairs.append((
            data.Dataset(X=train.X[rest], y=train.y[rest], name=train.name),
            data.Dataset(X=train.X[hold], y=train.y[hold], name=train.name),
        ))
    return pairs


def bench_rows(cfg: RunConfig) -> list[dict]:
    """Run the (loss, C, sigma) grid and return result rows in grid order.

    Each row carries the five evaluation metrics plus a ``selection`` mark:
    per loss kind, ``paper`` flags the row with the best test accuracy
    (ties broken toward fewer support vectors) and ``cv`` flags the row
    chosen by k-fold cross-validation on the training half.  CV is skipped
    in ``--selection paper`` mode.  Failed runs keep their row with the
    error recorded; the grid continues.

    Rows of two runs differ only in ``wall_s``: the cell's share of its
    loss's training batch (see :func:`baselines.solve_grid`).  The fold
    batches' shares, ``cv_wall_s``, are a column of ``zeroone bench`` only.
    """
    return _bench(cfg)[0]


def _bench(cfg: RunConfig) -> tuple[list[dict], list[float]]:
    """:func:`bench_rows` and each row's summed share of its fold batches.

    Per Gram (the training half's, then each fold's), one lockstep batch
    per loss kind solves every (C, sigma) cell."""
    train, test, stats = prepare_splits(cfg)
    if cfg.selection == "cv" and not 2 <= cfg.cv_folds <= train.n:
        raise InputError(f"--cv-folds must be in [2, {train.n}] "
                         f"(the training size), got {cfg.cv_folds}")
    name = train.name or (cfg.data_path or "data")
    kinds = [LossKind(k) for k in cfg.loss]
    kernel = make_kernel(cfg, train.d)
    gram = gram_matrix(kernel, train.X)

    cv_pairs = _cv_folds(train, cfg.cv_folds, cfg.seed + 3) \
        if cfg.selection == "cv" else []

    cells = list(itertools.product(cfg.grid_c, cfg.grid_sigma))
    hps = [_hyperparams(cfg, kernel, C, sigma) for C, sigma in cells]
    rows = [{"dataset": name, "r": cfg.noise_rate, "loss": kind.value,
             "C": C, "sigma": sigma, "selection": "", "error": ""}
            for kind in kinds for C, sigma in cells]
    for row, out in zip(rows, baselines.solve_grid(train, hps, kinds, gram=gram,
                                                   scaling=stats)):
        if isinstance(out, ZeroOneError):
            row["error"] = str(out)
        else:
            _, trace, mdl, wall_s = out
            row.update(_metrics(train, test, mdl, trace, wall_s))

    scores = [[] for _ in rows]
    cv_walls = [0.0] * len(rows)
    for ftr, fte in cv_pairs:  # one fold's Gram at a time
        fgram = gram_matrix(kernel, ftr.X)
        for i, out in enumerate(baselines.solve_grid(ftr, hps, kinds, gram=fgram)):
            if isinstance(out, ZeroOneError):
                rows[i]["error"] = rows[i]["error"] or str(out)
            else:
                _, _, fmdl, wall_s = out
                scores[i].append(model_mod.accuracy(
                    model_mod.predict(fmdl, fte.X), fte.y))
                cv_walls[i] += wall_s
    for row, fold_scores in zip(rows, scores):
        if cv_pairs and not row["error"]:
            row["cv_acc"] = float(np.mean(fold_scores))

    marks = {"paper": "test_acc", "cv": "cv_acc"} if cv_pairs else {"paper": "test_acc"}
    for kind, (mark, score) in itertools.product(kinds, marks.items()):
        ok = [(i, r) for i, r in enumerate(rows)
              if r["loss"] == kind.value and not r["error"]]
        if ok:
            i = max(ok, key=lambda ir: (ir[1][score], -ir[1]["nsv"], -ir[0]))[0]
            rows[i]["selection"] = "+".join(filter(None, (rows[i]["selection"], mark)))
    return rows, cv_walls


def cmd_bench(cfg: RunConfig) -> int:
    rows, cv_walls = _bench(cfg)
    columns = list(BENCH_COLUMNS)
    if cfg.selection == "cv":
        columns.insert(columns.index("wall_s") + 1, "cv_wall_s")
        columns.insert(columns.index("selection"), "cv_acc")
        for row, cv_wall_s in zip(rows, cv_walls):
            if "cv_acc" in row:
                row["cv_wall_s"] = cv_wall_s
    for row in rows:
        for key in ("train_acc", "test_acc", "cv_acc", "wall_s", "cv_wall_s"):
            if isinstance(row.get(key), float):
                row[key] = round(row[key], 6)
    _emit(_format_rows(rows, columns, cfg.fmt), cfg.out)
    return 0


def cmd_boundary(cfg: RunConfig) -> int:
    if cfg.grid_size < 1:
        raise InputError(f"--grid-size must be >= 1, got {cfg.grid_size}")
    mdl, ds = _load_model(cfg)
    if mdl.X.shape[1] != 2:
        raise InputError("boundary export needs a 2-D dataset")
    box = mdl.X if ds is None else ds.X
    lo, hi = box.min(axis=0), box.max(axis=0)
    pad = 0.1 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    g = cfg.grid_size
    xs = np.linspace(lo[0], hi[0], g)
    ys = np.linspace(lo[1], hi[1], g)
    pts = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    dec = np.atleast_1d(model_mod.decision_function(mdl, pts))

    out = cfg.out or "boundary.csv"
    at = range(_BOUNDARY_CHUNK, len(dec), _BOUNDARY_CHUNK)
    _write_table(out, ["x1", "x2", "decision", "label"],
                 (np.column_stack((p, d, np.where(d >= 0.0, 1, -1)))
                  for p, d in zip(np.split(pts, at), np.split(dec, at))))
    stem, ext = os.path.splitext(out)
    points_path = f"{stem}_points{ext or '.csv'}"
    support = np.isin(np.arange(len(mdl.y)), mdl.support)
    _write_table(points_path, ["x1", "x2", "label", "support"],
                 [np.column_stack((mdl.X, mdl.y, support))])
    print(f"grid: {out}")
    print(f"points: {points_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_source(p, data=True):
    if data:
        p.add_argument("--data", dest="data_path",
                       help="dataset file (libsvm or csv)")
    p.add_argument("--dataset", dest="generator", choices=["circles", "moons"],
                   help="synthetic generator")
    p.add_argument("--m", type=int, help="generated sample count")
    p.add_argument("--factor", type=float,
                   help="inner circle radius (circles generator)")
    p.add_argument("--noise-std", type=float,
                   help="generator noise std (default: the generator's own)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")


def _add_model(p):
    p.add_argument("--model", dest="model_path", required=True)
    p.add_argument("--data", dest="data_path",
                   help="dataset file, read under the model's stored scaling")
    p.add_argument("--out")


def _add_solver(p):
    """The flags of a solve, apart from its (C, sigma)."""
    p.add_argument("--kernel", dest="kernel_family", choices=FAMILIES)
    p.add_argument("--rho", type=float, help="kernel scale (default 1/d)")
    p.add_argument("--degree", type=int)
    p.add_argument("--offset", type=float)
    p.add_argument("--imq-c", type=float)
    p.add_argument("--imq-beta", type=float)
    p.add_argument("--iota", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--loss", help="comma list of l01,hinge_l1,squared_hinge_l2")
    p.add_argument("--noise-rate", type=float)
    p.add_argument("--noise-on", choices=["all", "train"])
    p.add_argument("--noise-multiplier", type=float)
    p.add_argument("--train-frac", type=float)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zeroone",
        description="Kernel SVM with the zero-one hinge loss, trained by ADMM.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    _add_source(p, data=False)
    p.add_argument("--format", dest="fmt", choices=["csv", "libsvm"],
                   help="output format (default csv)")

    p = sub.add_parser("train", help="train one model and write model/trace files")
    _add_source(p)
    _add_solver(p)
    p.add_argument("--C", type=float)
    p.add_argument("--sigma", type=float)

    p = sub.add_parser("eval", help="evaluate a model on a dataset")
    _add_model(p)

    p = sub.add_parser("certify", help="first-order optimality certificates")
    _add_model(p)
    p.add_argument("--eps", type=float,
                   help="solver tolerance; certificates use 10x this")

    p = sub.add_parser("bench", help="run a (loss, C, sigma) benchmark grid")
    _add_source(p)
    _add_solver(p)
    p.add_argument("--format", dest="fmt", choices=["table", "csv", "json"])
    grid_c = ",".join(f"{v:g}" for v in DEFAULT_GRID_C)
    grid_sigma = ",".join(f"{v:g}" for v in DEFAULT_GRID_SIGMA)
    p.add_argument("--grid-c", help=f"comma list of C values (default {grid_c})")
    p.add_argument("--grid-sigma",
                   help=f"comma list of sigma values (default {grid_sigma})")
    p.add_argument("--selection", choices=["cv", "paper"])
    p.add_argument("--cv-folds", type=int)

    p = sub.add_parser("boundary", help="export a decision grid for plotting")
    _add_model(p)
    p.add_argument("--grid-size", type=int)
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """``RunConfig``'s defaults, overridden by the flags that were given."""
    cfg = RunConfig(command=args.command)
    for name in vars(cfg):
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "loss", None) is not None:
        cfg.loss = tuple(LossKind(tok.strip())
                         for tok in args.loss.split(",") if tok.strip())
    for name in ("grid_c", "grid_sigma"):
        text = getattr(args, name, None)
        if text is not None:
            setattr(cfg, name, tuple(float(v) for v in text.split(",")) if text else ())
    if not cfg.grid_c or not cfg.grid_sigma:
        raise InputError("bench grids must be nonempty")
    if not cfg.loss:
        raise InputError("--loss needs at least one loss kind")
    return cfg


_DISPATCH = {
    "gen": cmd_gen,
    "train": cmd_train,
    "eval": cmd_eval,
    "certify": cmd_certify,
    "bench": cmd_bench,
    "boundary": cmd_boundary,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return _DISPATCH[cfg.command](cfg)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (InputError, ConfigError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
