"""The three benchmark workloads and the measurement loop they share.

Each workload builds its inputs from the run's seed, sets up (timed, several
times, median reported), then runs its operation in one closed loop on the
calling thread for the requested number of seconds, at least once:

* ``train-large`` -- one operation is ``gram_matrix`` -> ``admm.solve`` ->
  ``from_solution`` -> certify -> test accuracy on circles, m=2000.
* ``grid-small`` -- one operation is ``cli.bench_rows`` over the default
  8x2 (C, sigma) grid and three losses on moons, m=500, label noise 0.05,
  ``--selection paper``; the grid uses the CLI's own worker rule.
* ``serve`` -- set-up trains the ``train-large`` model and round-trips it
  through JSON; one operation is ``predict`` on a 256-row batch of fresh
  circles points.

Every operation's outputs are checked (labels in {-1, +1}, a fingerprint
equal to the run's first operation, the workload's own invariants); a
mismatch counts as a failed operation.  In a traced run the operations
alternate between untraced and traced, so the tracing overhead is measured
within the run.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from tracing import Tracer, entry_points, self_times

# Seed offset of the serve workload's query points (the model's training
# data uses seed, seed+1 and seed+2, as the CLI does).
QUERY_SEED_OFFSET = 1000

# Idle time before each timed set-up (see Run.setup).
SETUP_PAUSE_S = 0.02


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    train_m: int = 2000
    grid_m: int = 500
    grid_c: tuple | None = None  # None: the CLI's default grid
    grid_sigma: tuple | None = None
    max_iter: int = 2000
    batch_rows: int = 256
    query_batches: int = 64
    setup_reps: int = 100
    serve_setup_reps: int = 3


FULL = Scale()
TINY = Scale(train_m=80, grid_m=60, grid_c=(1.0, 16.0), grid_sigma=(1.0,),
             max_iter=60, batch_rows=16, query_batches=4, setup_reps=3,
             serve_setup_reps=2)


def digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def plus_minus_one(pred) -> bool:
    return bool(np.all((pred == 1.0) | (pred == -1.0)))


def batched(predict, mdl, X, rows: int, form: str = "primal"):
    """Predictions over ``X`` in batches of ``rows``, as a server makes them;
    one call over all of ``X`` would hold an |X|-by-m kernel block."""
    return np.concatenate([predict(mdl, X[i:i + rows], form=form)
                           for i in range(0, len(X), rows)])


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that
    percentile; the maximum (percentile 100) with fewer than 11 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class Run:
    """One benchmark run: the package, the seed, the clock budget, the
    optional tracer, and the tally of attempted and failed operations."""

    def __init__(self, Z, seed: int, seconds: float, trace: bool, scale: Scale):
        self.Z = Z
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.tracer = Tracer() if trace else None
        self._entry_points = entry_points(Z)
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_walls: list[float] = []
        self.untraced: list[tuple[float, float]] = []  # (wall, cpu) per op
        self.traced: list[tuple[float, float]] = []
        self.reported: dict[str, tuple[float, str]] = {}
        self.info: dict = {}
        self.metrics: dict[str, float] = {}

    # -- checks and tracing -------------------------------------------------

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @contextmanager
    def phase(self, phase: str, op: str, traced: bool = True):
        """Run a block under ``phase``/``op``; traced when the run traces."""
        if self.tracer is None or not traced:
            yield
            return
        self.tracer.phase, self.tracer.op = phase, op
        self.tracer.install(self._entry_points)
        try:
            yield
        finally:
            self.tracer.uninstall()

    def span(self, name: str):
        """A harness-level span, recorded only while entry points are wrapped."""
        if self.tracer is None or not self.tracer.active:
            return nullcontext({})
        return self.tracer.span(name)

    # -- set-up and the closed loop -----------------------------------------

    def setup(self, build, reps: int, fingerprint):
        """Build ``reps`` times; every build must fingerprint alike.

        Each build starts after a pause, cold as a one-off set-up is.
        Back to back, a millisecond-long data preparation ran two to three
        times faster, and its medians over ten runs on a shared host spread
        by 0.35-0.46 of their median; after a pause, by 0.07-0.17."""
        first = None
        for i in range(reps):
            time.sleep(SETUP_PAUSE_S)
            with self.phase("setup", f"setup-{i + 1}"):
                t0 = time.perf_counter()
                out = build()
                self.setup_walls.append(time.perf_counter() - t0)
            fp = fingerprint(out)
            first = fp if first is None else first
            self.check(fp == first, f"setup {i + 1} differs from setup 1")
        return out

    def measure(self, op, verify):
        """Call ``op(i)`` until the time budget is spent.

        ``verify(i, result)`` runs untimed and returns ``(ok, fingerprint)``;
        the fingerprint must equal the first operation's.
        """
        first = None
        deadline = time.perf_counter() + self.seconds
        i = 0
        while True:
            traced = self.tracer is not None and i % 2 == 1
            with self.phase("op", f"op-{i + 1}", traced):
                c0, t0 = time.process_time(), time.perf_counter()
                result = op(i)
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
            (self.traced if traced else self.untraced).append((wall, cpu))
            ok, fp = verify(i, result)
            first = fp if i == 0 else first
            self.check(ok and fp == first, f"operation {i + 1} failed its checks")
            i += 1
            if time.perf_counter() >= deadline and (self.tracer is None or i >= 2):
                return

    # -- shared steps -------------------------------------------------------

    def certify(self, mdl, K, termination: str, eps: float) -> dict:
        """The CLI's certificate at 10*eps; certified means the solve ended
        ``tolerance_met`` and the point is prox-stationary."""
        st = self.Z.stationarity
        tol = 10.0 * eps
        with self.span("stationarity.certify"):
            kkt = st.check_kkt(mdl.c, mdl.b, mdl.u, mdl.lam, K, mdl.y, mdl.C,
                               tol=tol)
            prox = st.check_prox_stationary(mdl.c, mdl.b, mdl.u, mdl.lam, K,
                                            mdl.y, mdl.C, mdl.gamma, tol=tol)
            equiv = st.equivalence_roundtrip(mdl.c, mdl.b, mdl.u, mdl.lam, K,
                                             mdl.y, mdl.C, tol=tol)
        return {"kkt": bool(kkt.is_kkt), "equivalence": bool(equiv),
                "certified": termination == "tolerance_met"
                and bool(prox.is_prox_stationary)}

    def check_model(self, mdl, X):
        """Output checks on a trained model: predictions are in {-1, +1} and
        the JSON round trip predicts identically.  Returns the share of rows
        on which the support-only (dual) form agrees with the primal one."""
        M = self.Z.model
        rows = self.scale.batch_rows
        with self.phase("check", "check"):
            pred = batched(M.predict, mdl, X, rows)
            loaded = M.from_json(M.to_json(mdl))
            again = batched(M.predict, loaded, X, rows)
            dual = batched(M.predict, mdl, X, rows, form="dual")
        self.check(plus_minus_one(pred) and plus_minus_one(dual),
                   "predictions outside {-1, +1}")
        self.check(np.array_equal(pred, again),
                   "from_json(to_json(model)) predicts differently")
        return float(np.mean(pred == dual))

    def probe(self, train, hp, state, baselines: bool):
        """Traced runs only: one public factor-and-solve at the workload's m
        and, where the workload has no baseline solves of its own, one solve
        of each baseline on the same training set."""
        if self.tracer is None:
            return
        Z = self.Z
        with self.phase("probe", "probe"):
            Z.admm.update_c(Z.kernels.gram_matrix(hp.kernel, train.X).entries,
                            train.y, state.u, state.b, state.lam, hp.sigma,
                            hp.strictly_pd_shortcut)
            if baselines:
                for kind in ("hinge_l1", "squared_hinge_l2"):
                    Z.baselines.solve_baseline(train, hp, kind)

    def hyperparams(self, d: int, C: float = 16.0, sigma: float = 1.0):
        Z = self.Z
        return Z.admm.Hyperparams(C=C, sigma=sigma, eps=1e-3,
                                  max_iter=self.scale.max_iter,
                                  kernel=Z.kernels.gaussian_spec(1.0 / d))

    def train_config(self):
        return self.Z.cli.RunConfig(command="train", generator="circles",
                                    m=self.scale.train_m, C=16.0, sigma=1.0,
                                    max_iter=self.scale.max_iter, seed=self.seed)

    # -- results ------------------------------------------------------------

    def report(self, name: str, value: float, unit: str):
        self.reported[name] = (float(value), unit)

    def end_to_end(self, test_acc: float) -> dict[str, float]:
        walls = [w for w, _ in self.untraced]
        op_tail, pct = tail(walls)
        self.info["op_tail_percentile"] = pct
        self.info["op_samples"] = len(walls)
        self.report("op_tail_s", op_tail, "s")
        return {
            "setup_s": statistics.median(self.setup_walls),
            "op_s": statistics.median(walls),
            "test_acc": test_acc,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, extra: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics from the spans of a traced run."""
        spans = self.tracer.spans

        def named(name, phases=None):
            return [s for s in spans if s["name"] == name
                    and (phases is None or s["phase"] in phases)]

        def dur(s):
            return s["end"] - s["start"]

        def rate(ss):
            busy = sum(dur(s) for s in ss)
            return sum(s["rows"] for s in ss) / busy if busy > 0 else 0.0

        # Re-solves made while checking outputs would skew the solver figures.
        solves = named("admm.solve", ("setup", "op"))
        iters = sum(s["iters"] for s in solves)
        predicts = named("model.predict")
        cpu = [c for _, c in self.untraced]
        wall = [w for w, _ in self.untraced]
        # Threads that ran solves or predictions within one operation.
        workers: dict[str, set] = {}
        for s in spans:
            if s["phase"] == "op" and s["name"] in (
                    "baselines.solve_baseline", "admm.solve", "model.predict"):
                workers.setdefault(s["op"], set()).add(s["thread"])
        m = {
            "data.prepare_s": statistics.median(
                dur(s) for s in named("cli.prepare_splits")),
            "kernels.gram_s": _mean(dur(s) for s in named("kernels.gram_matrix")),
            "kernels.cross_rows_per_s": rate(named("kernels.cross_matrix")),
            "admm.solve_s": _mean(dur(s) for s in solves),
            "admm.iters": iters / len(solves) if solves else 0.0,
            "admm.ms_per_iter": 1e3 * sum(dur(s) for s in solves) / iters
            if iters else 0.0,
            "admm.max_iter_share": _mean(s["termination"] == "max_iter"
                                         for s in solves),
            "admm.update_c_s": _mean(dur(s) for s in named("admm.update_c")),
            "stationarity.certify_s": _mean(
                dur(s) for s in named("stationarity.certify")),
            "model.from_solution_s": _mean(
                dur(s) for s in named("model.from_solution")),
            "model.to_json_s": _mean(dur(s) for s in named("model.to_json")),
            "model.from_json_s": _mean(dur(s) for s in named("model.from_json")),
            "model.json_bytes": max((s["bytes"] for s in named("model.to_json")),
                                    default=0),
            "model.primal_rows_per_s": rate(
                [s for s in predicts if s["form"] == "primal"]),
            "model.dual_rows_per_s": rate(
                [s for s in predicts if s["form"] == "dual"]),
            "cli.workers": max(map(len, workers.values()), default=0),
            "cli.cpu_s": _mean(cpu),
            "cli.cpu_per_wall": sum(cpu) / sum(wall),
            "trace.overhead_s": statistics.median(w for w, _ in self.traced)
            - statistics.median(wall),
            "trace.spans": len(spans),
        }
        for kind in ("hinge_l1", "squared_hinge_l2"):
            runs = [s for s in named("baselines.solve_baseline")
                    if s["kind"] == kind]
            m[f"baselines.{kind}.solve_s"] = _mean(dur(s) for s in runs)
            m[f"baselines.{kind}.iters"] = _mean(s["iters"] for s in runs)
        own = self_times(spans)
        for layer in ("data", "kernels", "admm", "baselines", "stationarity",
                      "model", "cli"):
            m[f"{layer}.self_s"] = own.get(layer, 0.0)
        m.update(extra)
        return m


# ---------------------------------------------------------------------------
# workloads

def train_large(run: Run):
    Z = run.Z
    cfg = run.train_config()
    train, test, stats = run.setup(
        lambda: Z.cli.prepare_splits(cfg), run.scale.setup_reps,
        lambda out: (out[0].fingerprint(), out[1].fingerprint()))
    hp = run.hyperparams(train.d)
    last = {}

    def op(i):
        gram = Z.kernels.gram_matrix(hp.kernel, train.X)
        state, trace = Z.admm.solve(train, hp, gram=gram)
        mdl = Z.model.from_solution(state, train, hp, scaling=stats)
        cert = run.certify(mdl, gram.entries, trace.termination, hp.eps)
        pred = Z.model.predict(mdl, test.X)
        acc = Z.model.accuracy(pred, test.y)
        last.update(state=state, model=mdl, cert=cert, acc=acc)
        return trace, mdl, cert, pred, acc

    def verify(i, result):
        trace, mdl, cert, pred, acc = result
        fp = (trace.iterations, trace.termination, acc, mdl.nsv, cert["kkt"],
              cert["certified"], digest(pred), digest(mdl.c))
        return plus_minus_one(pred) and cert["equivalence"], fp

    run.measure(op, verify)
    mdl = last["model"]
    agree = run.check_model(mdl, test.X)
    run.probe(train, hp, last["state"], baselines=True)

    certified = float(last["cert"]["certified"])
    run.report("train_s", statistics.median(w for w, _ in run.untraced), "s")
    run.report("certified_share", certified, "fraction")
    run.report("nsv", mdl.nsv, "count")
    run.info["m_train"] = train.n
    return last["acc"], {"stationarity.certified": certified,
                         "model.primal_dual_agree": agree,
                         "model.nsv": mdl.nsv,
                         "kernels.gram_mb_computed": 8e-6 * train.n ** 2}


def grid_small(run: Run):
    Z = run.Z
    kinds = tuple(Z.baselines.LossKind(k)
                  for k in ("l01", "hinge_l1", "squared_hinge_l2"))
    cfg = Z.cli.RunConfig(command="bench", generator="moons", m=run.scale.grid_m,
                          seed=run.seed, noise_rate=0.05, loss=kinds,
                          selection="paper", max_iter=run.scale.max_iter)
    if run.scale.grid_c:
        cfg.grid_c, cfg.grid_sigma = run.scale.grid_c, run.scale.grid_sigma
    cells = len(kinds) * len(cfg.grid_c) * len(cfg.grid_sigma)
    train, test, stats = run.setup(
        lambda: Z.cli.prepare_splits(cfg), run.scale.setup_reps,
        lambda out: (out[0].fingerprint(), out[1].fingerprint()))

    def verify(i, rows):
        paper = [r["loss"] for r in rows if r["selection"] == "paper"]
        ok = (len(rows) == cells and all(r["error"] == "" for r in rows)
              and sorted(paper) == sorted(k.value for k in kinds))
        fp = tuple((r["loss"], r["C"], r["sigma"], r.get("iters"),
                    r.get("termination"), r.get("train_acc"),
                    r.get("test_acc"), r.get("nsv"), r["selection"])
                   for r in rows)
        return ok, fp

    last = {}

    def op(i):
        last["rows"] = Z.cli.bench_rows(cfg)
        return last["rows"]

    run.measure(op, verify)
    rows = last["rows"]

    # Re-solve the l01 cells that may certify (those that met the tolerance)
    # and the selected l01 cell; each must reproduce its grid row.
    l01 = [r for r in rows if r["loss"] == "l01"]
    paper = next(r for r in l01 if r["selection"] == "paper")
    with run.phase("check", "check"):
        gram = Z.kernels.gram_matrix(Z.kernels.gaussian_spec(1.0 / train.d),
                                     train.X)
    certified = 0
    for r in l01:
        if r["termination"] != "tolerance_met" and r is not paper:
            continue
        hp = run.hyperparams(train.d, C=r["C"], sigma=r["sigma"])
        with run.phase("check", "check"):
            state, trace, mdl = Z.baselines.solve_baseline(
                train, hp, "l01", gram=gram, scaling=stats)
            cert = run.certify(mdl, gram.entries, trace.termination, hp.eps)
            acc = Z.model.accuracy(Z.model.predict(mdl, test.X), test.y)
        run.check(trace.iterations == r["iters"] and acc == r["test_acc"]
                  and mdl.nsv == r["nsv"] and cert["equivalence"],
                  f"re-solve of l01 C={r['C']} sigma={r['sigma']} differs")
        certified += cert["certified"]
        if r is paper:
            paper_state, paper_hp, paper_model = state, hp, mdl
    agree = run.check_model(paper_model, test.X)
    run.probe(train, paper_hp, paper_state, baselines=False)

    share = certified / len(l01)
    run.report("grid_s", statistics.median(w for w, _ in run.untraced), "s")
    run.report("certified_share", share, "fraction")
    run.report("nsv", paper["nsv"], "count")
    run.info["m_train"] = train.n
    run.info["cells"] = cells
    run.info["iters_total"] = sum(r["iters"] for r in rows)
    run.info["l01_max_iter_cells"] = sum(r["termination"] == "max_iter"
                                         for r in l01)
    return paper["test_acc"], {"stationarity.certified": share,
                               "model.primal_dual_agree": agree,
                               "model.nsv": paper["nsv"],
                               "kernels.gram_mb_computed": 8e-6 * train.n ** 2}


def serve(run: Run):
    Z = run.Z
    cfg = run.train_config()
    sc = run.scale

    def build():
        train, test, stats = Z.cli.prepare_splits(cfg)
        hp = run.hyperparams(train.d)
        gram = Z.kernels.gram_matrix(hp.kernel, train.X)
        state, trace = Z.admm.solve(train, hp, gram=gram)
        trained = Z.model.from_solution(state, train, hp, scaling=stats)
        text = Z.model.to_json(trained)
        served = Z.model.from_json(text)
        cert = run.certify(served, gram.entries, trace.termination, hp.eps)
        return train, hp, state, trained, served, text, cert

    train, hp, state, trained, served, text, cert = run.setup(
        build, sc.serve_setup_reps, lambda out: digest(np.frombuffer(
            out[5].encode(), dtype=np.uint8)))
    queries = Z.data.gen_double_circles(sc.batch_rows * sc.query_batches,
                                        seed=run.seed + QUERY_SEED_OFFSET)
    X = served.scaling.apply(queries.X)
    rows = sc.batch_rows
    with run.phase("check", "check"):
        reference = batched(Z.model.predict, served, X, rows)
        direct = batched(Z.model.predict, trained, X, rows)
    run.check(plus_minus_one(reference), "predictions outside {-1, +1}")
    run.check(np.array_equal(reference, direct),
              "from_json(to_json(model)) predicts differently")

    def op(i):
        b = i % sc.query_batches
        return Z.model.predict(served, X[b * rows:(b + 1) * rows])

    def verify(i, pred):
        b = i % sc.query_batches
        return np.array_equal(pred, reference[b * rows:(b + 1) * rows]), None

    run.measure(op, verify)
    agree = run.check_model(served, X)
    run.probe(train, hp, state, baselines=True)

    walls = [w for w, _ in run.untraced]
    p_tail, pct = tail(walls)
    run.report("predict_rows_per_s", rows * len(walls) / sum(walls), "rows/s")
    run.report("predict_batch_p50_ms", 1e3 * statistics.median(walls), "ms")
    run.report("predict_batch_tail_ms", 1e3 * p_tail, "ms")
    run.report("nsv", served.nsv, "count")
    run.info["predict_batch_tail_percentile"] = pct
    run.info["batch_rows"] = rows
    run.info["m_train"] = train.n
    acc = Z.model.accuracy(reference, queries.y)
    return acc, {"stationarity.certified": float(cert["certified"]),
                 "model.primal_dual_agree": agree,
                 "model.nsv": served.nsv,
                 "kernels.gram_mb_computed": 8e-6 * train.n ** 2}


WORKLOADS = {"train-large": train_large, "grid-small": grid_small,
             "serve": serve}


def execute(Z, workload: str, seed: int, seconds: float, trace: bool,
            scale: Scale) -> Run:
    """Run one workload; fills ``run.metrics`` with the end-to-end metrics
    (untraced) or the per-layer metrics (traced)."""
    run = Run(Z, seed, seconds, trace, scale)
    acc, layer_extra = WORKLOADS[workload](run)
    e2e = run.end_to_end(acc)
    run.report("setup_s", e2e["setup_s"], "s")
    run.report("test_acc", acc, "fraction")
    run.report("failed_share", len(run.failures) / run.attempted, "fraction")
    run.report("peak_rss_mb", e2e["peak_rss_mb"], "MB")
    run.metrics = run.per_layer(layer_extra) if trace else e2e
    return run
