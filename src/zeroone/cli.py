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
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import baselines, data, model as model_mod
from .admm import Hyperparams, SolveTrace, TraceRecord
from .errors import (ConfigError, InputError, NumericalError, ParseError,
                     ZeroOneError)
from .kernels import KernelSpec, data_fingerprint, gram_matrix
from .prox import LossKind
from .stationarity import (check_kkt, check_prox_stationary, construct_gamma,
                           equivalence_roundtrip)

DEFAULT_GRID_C = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
DEFAULT_GRID_SIGMA = (1.0, 2.0)

BENCH_COLUMNS = ("dataset", "r", "loss", "C", "sigma", "train_acc",
                 "test_acc", "nsv", "wall_s", "iters", "termination",
                 "selection", "error")


@dataclass
class RunConfig:
    """Normalized settings of one CLI invocation."""

    command: str
    data_path: str | None = None
    generator: str | None = None
    m: int = 500
    factor: float = 0.5
    noise_std: float | None = None
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


# Default generator noise levels; the benchmark protocol leaves them open.
_GEN_NOISE = {"circles": 0.05, "moons": 0.15}


def _worker_count(n_tasks: int) -> int:
    cap = os.environ.get("ZEROONE_THREADS")
    limit = int(cap) if cap else (os.cpu_count() or 1)
    return max(1, min(n_tasks, limit))


def make_kernel(cfg: RunConfig, d: int) -> KernelSpec:
    fam = cfg.kernel_family
    if fam in ("gaussian", "laplacian", "exponential"):
        rho = cfg.rho if cfg.rho is not None else 1.0 / d
        return KernelSpec(fam, {"rho": rho})
    if fam == "linear":
        return KernelSpec(fam, {})
    if fam == "polynomial":
        return KernelSpec(fam, {"degree": cfg.degree, "offset": cfg.offset})
    return KernelSpec(fam, {"c": cfg.imq_c, "beta": cfg.imq_beta})


def load_or_generate(cfg: RunConfig) -> data.Dataset:
    if cfg.data_path is not None:
        return data.load_dataset(cfg.data_path)
    if cfg.generator is None:
        raise InputError("either --data or --dataset is required")
    noise = cfg.noise_std if cfg.noise_std is not None else _GEN_NOISE[cfg.generator]
    if cfg.generator == "circles":
        return data.gen_double_circles(cfg.m, factor=cfg.factor,
                                       noise_std=noise, seed=cfg.seed)
    if cfg.generator == "moons":
        return data.gen_double_moons(cfg.m, noise_std=noise, seed=cfg.seed)
    raise InputError(f"unknown generator {cfg.generator!r}")


def prepare_splits(cfg: RunConfig) -> tuple[data.Dataset, data.Dataset, data.StandardizeStats]:
    """Load/generate, inject label noise, split and standardize."""
    ds = load_or_generate(cfg)
    flip_seed, split_seed = cfg.seed + 1, cfg.seed + 2
    rate = cfg.noise_rate * cfg.noise_multiplier
    if rate > 0 and cfg.noise_on == "all":
        ds = data.flip_labels(ds, rate, seed=flip_seed)
    train, test = data.split(ds, train_fraction=cfg.train_frac, seed=split_seed)
    if rate > 0 and cfg.noise_on == "train":
        train = data.flip_labels(train, rate, seed=flip_seed)
    return data.standardize(train, test)


def _hyperparams(cfg: RunConfig, d: int, C: float | None = None,
                 sigma: float | None = None) -> Hyperparams:
    return Hyperparams(
        C=C if C is not None else cfg.C,
        sigma=sigma if sigma is not None else cfg.sigma,
        iota=cfg.iota, eps=cfg.eps, max_iter=cfg.max_iter,
        kernel=make_kernel(cfg, d),
    )


def run_single(train, test, hp, kind, gram=None, scaling=None) -> tuple[dict, "model_mod.TrainedModel", SolveTrace]:
    """Train one configuration and evaluate it; returns a result row."""
    t0 = time.perf_counter()
    state, trace, mdl = baselines.solve_baseline(train, hp, kind, gram=gram,
                                                 scaling=scaling)
    wall_s = time.perf_counter() - t0
    train_acc = model_mod.accuracy(model_mod.predict(mdl, train.X), train.y)
    test_acc = model_mod.accuracy(model_mod.predict(mdl, test.X), test.y)
    row = {
        "train_acc": train_acc, "test_acc": test_acc, "nsv": mdl.nsv,
        "wall_s": wall_s, "iters": trace.iterations,
        "termination": trace.termination,
    }
    return row, mdl, trace


# ---------------------------------------------------------------------------
# trace / table serialization

def write_trace_csv(trace: SolveTrace, path: str):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "beta1", "beta2", "beta3", "beta4",
                    "objective", "gamma_size"])
        for rec in trace.records:
            w.writerow([rec.iter, f"{rec.beta1:.17g}", f"{rec.beta2:.17g}",
                        f"{rec.beta3:.17g}", f"{rec.beta4:.17g}",
                        f"{rec.objective:.17g}", rec.gamma_size])


def read_trace_csv(path: str) -> SolveTrace:
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            records.append(TraceRecord(
                iter=int(row["iter"]), beta1=float(row["beta1"]),
                beta2=float(row["beta2"]), beta3=float(row["beta3"]),
                beta4=float(row["beta4"]), objective=float(row["objective"]),
                gamma_size=int(row["gamma_size"]),
            ))
    return SolveTrace(records=records)


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
    train, test, stats = prepare_splits(cfg)
    hp = _hyperparams(cfg, train.d)
    kind = cfg.loss[0]
    row, mdl, trace = run_single(train, test, hp, kind, scaling=stats)
    outdir = cfg.out or "."
    os.makedirs(outdir, exist_ok=True)
    model_path = os.path.join(outdir, "model.json")
    trace_path = os.path.join(outdir, "trace.csv")
    model_mod.save_model(mdl, model_path)
    write_trace_csv(trace, trace_path)
    print(f"train_acc={row['train_acc']:.6f} test_acc={row['test_acc']:.6f} "
          f"nsv={row['nsv']} wall_seconds={row['wall_s']:.3f} iters={row['iters']}")
    print(f"model: {model_path}")
    print(f"trace: {trace_path}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    if cfg.model_path is None or cfg.data_path is None:
        raise InputError("eval requires --model and --data")
    mdl = model_mod.load_model(cfg.model_path)
    ds = data.load_dataset(cfg.data_path)
    X = mdl.scaling.apply(ds.X) if mdl.scaling is not None else ds.X
    acc = model_mod.accuracy(model_mod.predict(mdl, X), ds.y)
    _emit(json.dumps({"accuracy": acc, "n": ds.n}) + "\n", cfg.out)
    return 0


def cmd_certify(cfg: RunConfig) -> int:
    if cfg.model_path is None:
        raise InputError("certify requires --model")
    mdl = model_mod.load_model(cfg.model_path)
    if cfg.data_path is not None:
        ds = data.load_dataset(cfg.data_path)
        X = mdl.scaling.apply(ds.X) if mdl.scaling is not None else ds.X
        if data_fingerprint(X) != data_fingerprint(mdl.X):
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
    """Run the (loss, C, sigma) grid and return result rows in config order.

    Each row carries the five evaluation metrics plus a ``selection`` mark:
    per loss kind, ``paper`` flags the row with the best test accuracy
    (ties broken toward fewer support vectors) and ``cv`` flags the row
    chosen by k-fold cross-validation on the training half.  CV is skipped
    in ``--selection paper`` mode.  Failed runs keep their row with the
    error recorded; the grid continues.
    """
    train, test, stats = prepare_splits(cfg)
    name = train.name or (cfg.data_path or "data")
    kinds = [LossKind(k) for k in cfg.loss]
    combos = [(kind, C, sigma) for kind in kinds
              for C in cfg.grid_c for sigma in cfg.grid_sigma]
    kernel = make_kernel(cfg, train.d)
    gram = gram_matrix(kernel, train.X)

    cv_pairs = _cv_folds(train, cfg.cv_folds, cfg.seed + 3) \
        if cfg.selection == "cv" else []
    cv_grams = [gram_matrix(kernel, tr.X) for tr, _ in cv_pairs]

    def one(combo):
        kind, C, sigma = combo
        hp = Hyperparams(C=C, sigma=sigma, iota=cfg.iota, eps=cfg.eps,
                         max_iter=cfg.max_iter, kernel=kernel)
        row = {"dataset": name, "r": cfg.noise_rate, "loss": kind.value,
               "C": C, "sigma": sigma, "selection": "", "error": ""}
        try:
            metrics, mdl, trace = run_single(train, test, hp, kind,
                                             gram=gram, scaling=stats)
            row.update(metrics)
            if cv_pairs:
                scores = []
                for (ftr, fte), fgram in zip(cv_pairs, cv_grams):
                    _, _, fmdl = baselines.solve_baseline(ftr, hp, kind,
                                                          gram=fgram)
                    scores.append(model_mod.accuracy(
                        model_mod.predict(fmdl, fte.X), fte.y))
                row["cv_acc"] = float(np.mean(scores))
        except ZeroOneError as exc:
            row["error"] = str(exc)
        return row

    with ThreadPoolExecutor(max_workers=_worker_count(len(combos))) as pool:
        rows = list(pool.map(one, combos))

    for kind in kinds:
        ok = [(i, r) for i, r in enumerate(rows)
              if r["loss"] == kind.value and not r["error"]]
        if not ok:
            continue
        best_i = max(ok, key=lambda ir: (ir[1]["test_acc"], -ir[1]["nsv"],
                                         -ir[0]))[0]
        rows[best_i]["selection"] = "paper"
        if cfg.selection == "cv":
            cv_i = max(ok, key=lambda ir: (ir[1]["cv_acc"], -ir[1]["nsv"],
                                           -ir[0]))[0]
            mark = rows[cv_i]["selection"]
            rows[cv_i]["selection"] = (mark + "+cv") if mark else "cv"
    return rows


def cmd_bench(cfg: RunConfig) -> int:
    rows = bench_rows(cfg)
    columns = list(BENCH_COLUMNS)
    if cfg.selection == "cv":
        columns.insert(columns.index("selection"), "cv_acc")
    for row in rows:
        for key in ("train_acc", "test_acc", "cv_acc", "wall_s"):
            if isinstance(row.get(key), float):
                row[key] = round(row[key], 6)
    _emit(_format_rows(rows, columns, cfg.fmt), cfg.out)
    return 0


def cmd_boundary(cfg: RunConfig) -> int:
    if cfg.model_path is None:
        raise InputError("boundary requires --model")
    mdl = model_mod.load_model(cfg.model_path)
    if mdl.X.shape[1] != 2:
        raise InputError("boundary export needs a 2-D dataset")
    if cfg.data_path is not None:
        ds = data.load_dataset(cfg.data_path)
        box = mdl.scaling.apply(ds.X) if mdl.scaling is not None else ds.X
    else:
        box = mdl.X
    lo, hi = box.min(axis=0), box.max(axis=0)
    pad = 0.1 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    g = cfg.grid_size
    xs = np.linspace(lo[0], hi[0], g)
    ys = np.linspace(lo[1], hi[1], g)
    XX, YY = np.meshgrid(xs, ys)
    pts = np.column_stack([XX.ravel(), YY.ravel()])
    dec = np.atleast_1d(model_mod.decision_function(mdl, pts))
    lab = np.where(dec >= 0.0, 1, -1)

    out = cfg.out or "boundary.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "decision", "label"])
        for p, d_, l in zip(pts, dec, lab):
            w.writerow([f"{p[0]:.17g}", f"{p[1]:.17g}", f"{d_:.17g}", l])
    stem, ext = os.path.splitext(out)
    points_path = f"{stem}_points{ext or '.csv'}"
    support = np.zeros(mdl.X.shape[0], dtype=int)
    support[mdl.support] = 1
    with open(points_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "label", "support"])
        for i in range(mdl.X.shape[0]):
            w.writerow([f"{mdl.X[i, 0]:.17g}", f"{mdl.X[i, 1]:.17g}",
                        int(mdl.y[i]), support[i]])
    print(f"grid: {out}")
    print(f"points: {points_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p):
    p.add_argument("--data", dest="data_path", help="dataset file (libsvm or csv)")
    p.add_argument("--dataset", dest="generator", choices=["circles", "moons"],
                   help="synthetic generator")
    p.add_argument("--m", type=int, default=500, help="generated sample count")
    p.add_argument("--factor", type=float, default=0.5,
                   help="inner circle radius (circles generator)")
    p.add_argument("--noise-std", type=float, default=None,
                   help="generator noise std (default 0.05 circles / 0.15 moons)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", dest="fmt", default="table",
                   choices=["table", "csv", "json", "libsvm"])
    p.add_argument("--out", default=None)


def _add_solver(p):
    p.add_argument("--kernel", dest="kernel_family", default="gaussian",
                   choices=["gaussian", "linear", "laplacian", "exponential",
                            "polynomial", "inverse_multiquadric"])
    p.add_argument("--rho", type=float, default=None,
                   help="kernel scale (default 1/d)")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--offset", type=float, default=1.0)
    p.add_argument("--imq-c", type=float, default=1.0)
    p.add_argument("--imq-beta", type=float, default=0.5)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--iota", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--loss", default="l01",
                   help="comma list of l01,hinge_l1,squared_hinge_l2")
    p.add_argument("--noise-rate", type=float, default=0.0)
    p.add_argument("--noise-on", default="all", choices=["all", "train"])
    p.add_argument("--noise-multiplier", type=float, default=2.0)
    p.add_argument("--train-frac", type=float, default=0.6)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="zeroone",
        description="Kernel SVM with the zero-one hinge loss, trained by ADMM.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    _add_common(p)

    p = sub.add_parser("train", help="train one model and write model/trace files")
    _add_common(p)
    _add_solver(p)

    p = sub.add_parser("eval", help="evaluate a model on a dataset")
    _add_common(p)
    p.add_argument("--model", dest="model_path", required=True)

    p = sub.add_parser("certify", help="first-order optimality certificates")
    _add_common(p)
    p.add_argument("--model", dest="model_path", required=True)
    p.add_argument("--eps", type=float, default=1e-3,
                   help="solver tolerance; certificates use 10x this")

    p = sub.add_parser("bench", help="run a (loss, C, sigma) benchmark grid")
    _add_common(p)
    _add_solver(p)
    p.add_argument("--grid-c", default=None,
                   help="comma list of C values (default 0.5,...,64)")
    p.add_argument("--grid-sigma", default=None,
                   help="comma list of sigma values (default 1,2)")
    p.add_argument("--selection", default="cv", choices=["cv", "paper"])
    p.add_argument("--cv-folds", type=int, default=5)

    p = sub.add_parser("boundary", help="export a decision grid for plotting")
    _add_common(p)
    p.add_argument("--model", dest="model_path", required=True)
    p.add_argument("--grid-size", type=int, default=100)
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in vars(cfg):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if hasattr(args, "loss"):
        cfg.loss = tuple(LossKind(tok.strip())
                         for tok in str(args.loss).split(",") if tok.strip())
    if getattr(args, "grid_c", None):
        cfg.grid_c = tuple(float(v) for v in args.grid_c.split(","))
    if getattr(args, "grid_sigma", None):
        cfg.grid_sigma = tuple(float(v) for v in args.grid_sigma.split(","))
    if not cfg.grid_c or not cfg.grid_sigma:
        raise InputError("bench grids must be nonempty")
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
