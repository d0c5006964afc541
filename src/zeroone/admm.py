"""Four-step ADMM for the zero-one hinge-loss kernel SVM.

The solver alternates, per iteration, (1) a thresholding update of the
slack vector ``u`` via the zero-one hinge prox, (2) a linear solve for the
coefficients ``c``, (3) a closed-form bias update and (4) a dual ascent on
``lambda`` that is masked to the index set picked out by the threshold
rule.  Stopping monitors the four scaled residuals ``beta1..beta4`` of
:func:`zeroone.stationarity.scaled_residuals` (stationarity, dual balance,
feasibility and the prox fixed-point gap at step ``1/sigma``).  The run
stops once ``max(beta1, |beta2|, beta3, beta4) < eps``.

One loop, :func:`_run_admm`, advances a batch of cells (one loss kind, any
``(C, sigma)`` per cell, one Gram) in lockstep: the state is ``(cells, m)``
C-ordered, the elementwise steps run on the whole batch, and the
matrix-vector products, the guarded coefficient solves and the dot
products run per row with the calls a single vector makes, so each cell's
trace is bitwise the same whether it is solved alone or in a batch.  A
single solve is a batch of one.
"""

from __future__ import annotations

import itertools
import math
import time
from array import array
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np
from scipy.linalg.blas import dgemv, dsymv, dsyrk
from scipy.linalg.lapack import dpotrf, dpotri

from .data import Dataset
from .errors import InputError, NumericalError, ZeroOneError
from .kernels import (GramMatrix, KernelSpec, _aligned_empty, gaussian_spec,
                      gram_matrix)
from .prox import LOSS, PROX, LossKind, ProxParams, prox_l01_zeroed
from .stationarity import row_norms, scaled_residuals

# Acceptable relative residual of the coefficient linear solve.
_SOLVE_RTOL = 1e-8


@dataclass
class Hyperparams:
    """Solver settings: loss weight C, penalty sigma, dual step iota,
    stopping tolerance eps (each finite and > 0), iteration cap and the
    kernel.

    Every kernel uses one coefficient system,
    ``[(1/sigma) I + K] c = diag(y) xi``, with no setting to pick how it
    is solved: ``_CoefficientSolver`` chooses the representation from
    the numerical rank of ``K`` and guards every solve.

    The kernel defaults to the gaussian with ``rho = 1``; the CLI's
    ``make_kernel`` picks ``rho = 1/d`` instead.
    """

    C: float
    sigma: float
    iota: float = 1.0
    eps: float = 1e-3
    max_iter: int = 2000
    kernel: KernelSpec = field(default_factory=lambda: gaussian_spec(1.0))

    def __post_init__(self):
        for name in ("C", "sigma", "iota", "eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise InputError(f"{name} must be finite and > 0, got {value}")
        if self.max_iter < 1:
            raise InputError("max_iter must be >= 1")

    @property
    def strictly_pd_shortcut(self) -> bool:
        """Always ``True``: every kernel uses the one coefficient system.
        Read-only, and kept only because ``perfbench/workloads.py`` passes
        it to :func:`update_c`, which ignores it."""
        return True


@dataclass
class AdmmState:
    """One full iterate plus the derived vectors of the iteration that
    produced it.

    After a full iteration of the zero-one solver, ``u[gamma_k] == 0``
    exactly and ``lam`` is exactly zero off ``gamma_k``; ``gamma_k`` is the
    set ``{i : 0 < eta[i] <= sqrt(2C/sigma)}`` for the ``eta`` recorded
    here.  (The baseline solvers reuse this container but skip the dual
    masking, so only the first invariant applies there.)
    """

    c: np.ndarray
    b: float
    u: np.ndarray
    lam: np.ndarray
    gamma_k: np.ndarray  # sorted 0-based indices
    eta: np.ndarray
    xi: np.ndarray
    r: np.ndarray
    omega: np.ndarray
    iter: int = 0


@dataclass(frozen=True)
class TraceRecord:
    iter: int
    beta1: float
    beta2: float  # signed; the stopping rule takes its absolute value
    beta3: float
    beta4: float
    objective: float
    gamma_size: int


# Values a trace stores per iteration: a TraceRecord without its ``iter``.
_RECORD_WIDTH = len(fields(TraceRecord)) - 1


@dataclass
class SolveTrace:
    """Per-iteration residual/objective records, the termination reason,
    and how the coefficient solver was built: ``factor_rank`` is the rank
    of its low-rank kernel factor (``None`` for the dense inverse) and
    ``setup_s`` the wall time, in seconds, to build it.

    ``flat`` holds each iteration's record values as doubles, one after
    another; a lockstep grid keeps every cell's trace until the batch
    ends, and 48 bytes an iteration is a sixth of what record objects
    cost.  :attr:`records` rebuilds the records from it."""

    termination: str = "max_iter"  # "tolerance_met" | "max_iter"
    factor_rank: Optional[int] = None
    setup_s: float = 0.0
    flat: array = field(default_factory=lambda: array("d"), repr=False)

    @property
    def iterations(self) -> int:
        return len(self.flat) // _RECORD_WIDTH

    @property
    def records(self) -> list[TraceRecord]:
        w, v = _RECORD_WIDTH, self.flat
        return [TraceRecord(k + 1, *v[k * w:(k + 1) * w - 1], int(v[(k + 1) * w - 1]))
                for k in range(self.iterations)]


def zeros_state(m: int) -> AdmmState:
    """All-zeros initial iterate (the default warm start)."""
    z = np.zeros(m)
    return AdmmState(
        c=z.copy(), b=0.0, u=z.copy(), lam=z.copy(),
        gamma_k=np.empty(0, dtype=int),
        eta=z.copy(), xi=z.copy(), r=z.copy(), omega=z.copy(), iter=0,
    )


def update_u(eta, C, sigma, kind=LossKind.L01) -> tuple[np.ndarray, np.ndarray]:
    """Slack step: the ``kind`` prox of ``eta`` at step ``1/sigma``.

    Returns the new slack vector and the (sorted, 0-based) index set that
    was zeroed.  For the zero-one loss that set is the coordinates of
    ``eta`` in ``(0, sqrt(2C/sigma)]``; for the baselines it is the zeros
    of the new slack vector.
    """
    u, zeroed = _slack_step(eta, ProxParams(gamma=1.0 / sigma, C=C), kind)
    return u, np.flatnonzero(zeroed)


def _slack_step(eta, p: ProxParams, kind: LossKind) -> tuple[np.ndarray, np.ndarray]:
    """:func:`update_u` on a vector or a batch, with the zeroed set as a
    boolean mask."""
    if kind == LossKind.L01:
        return prox_l01_zeroed(eta, p)
    u = PROX[kind](eta, p)
    return u, u == 0.0


def _pivoted_cholesky(K: np.ndarray, max_rank: int) -> Optional[np.ndarray]:
    """Greedy pivoted Cholesky factor ``L`` (m x r, F-ordered) with
    ``K ~= L L^T``, or ``None`` when ``K`` has more than ``max_rank`` pivots.

    Each step takes the largest remaining diagonal entry as pivot and reads
    that column of ``K`` in place, so ``K`` is never copied, and the work
    buffer holds at most ``max_rank`` rows of length m; it and ``L`` are
    cache-line aligned (see :func:`_aligned_empty`).  It stops
    once every remaining diagonal entry is at most ``m * eps * max(diag K)``,
    LAPACK's default tolerance; for a positive semidefinite ``K`` the
    remainder ``K - L L^T`` is then positive semidefinite with trace at most
    ``m`` times that.  A NaN pivot never meets the tolerance.
    """
    m = len(K)
    d = K.diagonal().copy()
    tol = m * np.finfo(float).eps * d.max()
    Lt = _aligned_empty((max_rank, m), order="C")
    for j in range(max_rank + 1):
        i = int(np.argmax(d))
        if d[i] <= tol:
            L = _aligned_empty((m, j))
            L[...] = Lt[:j].T
            return L
        if j == max_rank:
            return None
        # column i of the Schur complement, K[:, i] - L[:, :j] L[i, :j]^T,
        # in scipy's BLAS like the solves; at j = 0 there is no L yet
        col = dgemv(-1.0, Lt[:j].T, Lt[:j, i], beta=1.0, y=K[:, i]) if j else K[:, i]
        Lt[j] = col / np.sqrt(d[i])
        d -= Lt[j] * Lt[j]


class _GramFactor:
    """What the coefficient solvers of one Gram share, whatever their
    ``sigma``: ``K`` as a free F-ordered view, its pivoted-Cholesky factor
    ``L`` (``None`` above rank ``m // 4``; a zero column at rank 0, since
    BLAS takes no empty operand) and the factor's error on a fixed probe
    ``p``, ``||K p - L L^T p||``, which each solver compares with its own
    tolerance.  ``setup_s`` is the wall time to build it."""

    def __init__(self, K: np.ndarray):
        t0 = time.perf_counter()
        self.K = K = np.asfortranarray(K.T)
        m = len(K)
        self.L = _pivoted_cholesky(K, m // 4)
        self.rank = None if self.L is None else self.L.shape[1]
        if self.rank == 0:
            self.L = np.zeros((m, 1), order="F")
        if self.L is not None:
            p = np.random.default_rng(0).standard_normal(m)
            LLp = dgemv(1.0, self.L, dgemv(1.0, self.L, p, trans=1))
            self.probe_err = float(np.linalg.norm(dsymv(1.0, K, p, lower=1) - LLp))
            self.probe_norm = float(np.linalg.norm(p))
        self.setup_s = time.perf_counter() - t0


class _CoefficientSolver:
    """Pre-factored solver for the coefficient update, reused across
    iterations.  :meth:`solve` returns ``c`` together with ``K c``, which
    the caller carries into the next iteration's ``eta``.

    Every kernel gets the same system ``A c = diag(y) xi`` with
    ``A = (1/sigma) I + K``.  Multiplying it by ``sigma K`` gives the
    normal equations ``[K + sigma K K] c = sigma K diag(y) xi`` of the
    coefficient step, so its solution solves the step even when ``K`` is
    singular; and ``A`` is positive definite for any positive
    semidefinite ``K``.

    The representation of ``A^-1`` follows the numerical rank ``r`` of
    ``K``, found by :func:`_pivoted_cholesky` in a :class:`_GramFactor`,
    which the solvers of every ``sigma`` on one Gram can share:

    * ``r <= m // 4`` (gaussian kernels on low-dimensional data, linear,
      low-degree polynomial): ``K = L L^T`` with ``L`` m x r, and Woodbury
      gives ``A^-1 = sigma [I - L M^-1 L^T]`` with ``M = I/sigma + L^T L``
      (r x r).  A solve and ``K c = L (L^T c)`` are four ``dgemv`` over
      ``L``.  That reads ``4 m r`` entries, against ``m^2`` for the two
      half-matrix ``dsymv`` below, hence the cutoff.  ``factor_rank`` is
      ``r``.  Before use, the factor is checked once against ``K`` itself:
      on a fixed probe vector ``p``, ``||K p - L L^T p|| <= 1e-8 ||p|| /
      sigma``, the residual guard's tolerance for ``c = p``.  A symmetric
      indefinite ``K``, whose pivots can look low-rank, fails this check.
    * otherwise, or when the check fails: ``A^-1`` is held explicitly, so
      a solve is one ``dsymv``, and ``K c`` a second one on ``K``.  Forming
      the inverse is safe, because ``cond(A) <= 1 + sigma *
      lambda_max(K)``.  It comes from LAPACK's Cholesky routines and stays
      in the lower triangle of the F-ordered buffer they wrote; the stale
      upper triangle is never read.  ``factor_rank`` is ``None``.

    Every matrix product, at set-up and in each iteration, is a scipy BLAS
    call, and every m-row operand is F-ordered, so nothing is copied.  numpy's and scipy's BLAS may be
    separate libraries whose thread pools make switching between them
    cost more than the products.  ``K`` is symmetric to the bit, so its
    free F-ordered transpose view stands in.

    Every solve is checked: ``||K c + c/sigma - diag(y) xi|| <=
    1e-8 (1 + ||xi||)`` with ``K c`` computed from the representation in
    use (``L (L^T c)`` or ``K c``), not derived.  A failed or NaN check
    raises ``NumericalError``, and so does a Cholesky breakdown at set-up,
    which rounding can cause when ``sigma * |lambda_min(K)|`` reaches 1.

    ``setup_s`` is the wall time, in seconds, to build the solver,
    including its Gram factor's.
    """

    def __init__(self, f: _GramFactor, sigma: float):
        t0 = time.perf_counter()
        self.K, self.sigma = f.K, sigma
        self.L = self.factor_rank = None
        if f.L is not None and f.probe_err <= _SOLVE_RTOL * f.probe_norm / sigma:
            self.L, self.factor_rank = f.L, f.rank
            self.M_inv = self._inverse(dsyrk(1.0, self.L, trans=1, lower=1))
        else:
            self.A_inv = self._inverse(self.K)
        self.setup_s = f.setup_s + time.perf_counter() - t0

    def _inverse(self, A: np.ndarray) -> np.ndarray:
        """Lower triangle of ``(A + I/sigma)^-1``, written over a cache-line
        aligned F-ordered copy of ``A`` (see :func:`_aligned_empty`)."""
        A_copy = _aligned_empty(A.shape)
        A_copy[...] = A
        A_copy.flat[::len(A) + 1] += 1.0 / self.sigma
        L, info = dpotrf(A_copy, lower=True, clean=False, overwrite_a=True)
        if info == 0:
            A_inv, info = dpotri(L, lower=True, overwrite_c=True)
        if info != 0:
            raise NumericalError(
                f"Cholesky factorization of K + I/sigma failed (info={info})",
                cond=self._cond(),
            )
        return A_inv

    def _cond(self) -> float:
        A = self.K + np.eye(len(self.K)) / self.sigma
        try:
            return float(np.linalg.cond(A))
        except np.linalg.LinAlgError:  # the SVD fails on non-finite entries
            return float("inf")

    def K_times(self, c: np.ndarray) -> np.ndarray:
        """``K c`` through the representation the solves use."""
        if self.L is None:
            return dsymv(1.0, self.K, c, lower=1)
        return dgemv(1.0, self.L, dgemv(1.0, self.L, c, trans=1))

    def solve(self, xi: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``c`` and ``K c`` for one right-hand side; raises the
        ``NumericalError`` of a failed check."""
        c, Kc = np.empty((2, 1, len(xi)))
        errors = self.solve_rows(xi[None], y, c, Kc)
        if errors:
            raise errors[0][1]
        return c[0], Kc[0]

    def solve_rows(self, xi: np.ndarray, y: np.ndarray, c: np.ndarray,
                   Kc: np.ndarray) -> list:
        """Write ``c`` and ``K c`` for each row of ``xi`` into the rows of
        ``c`` and ``Kc``, each solved and checked as if alone; returns a
        ``(row, NumericalError)`` pair for each row whose check failed."""
        dyxi = y * xi
        for j, d in enumerate(dyxi):
            if self.L is None:
                c[j] = dsymv(1.0, self.A_inv, d, lower=1)
            else:
                z = dsymv(1.0, self.M_inv, dgemv(1.0, self.L, d, trans=1), lower=1)
                c[j] = dgemv(-self.sigma, self.L, z, beta=self.sigma, y=d)
            Kc[j] = self.K_times(c[j])
        resid = c / self.sigma
        resid += Kc  # Kc + c/sigma - y*xi, in place
        resid -= dyxi
        resid = row_norms(resid)
        bound = _SOLVE_RTOL * (1.0 + row_norms(xi))
        ok = resid <= bound
        if ok.all():
            return []
        return [(j, NumericalError(
            f"coefficient solve residual {resid[j]:.3e} exceeds {bound[j]:.3e}",
            cond=self._cond())) for j in np.flatnonzero(~ok)]


def update_c(K, y, u_next, b, lam, sigma, strictly_pd_shortcut=None) -> np.ndarray:
    """Coefficient update: solve the coefficient step for the fresh slack
    vector.

    One-shot form of the solver used inside :func:`solve`; see
    ``_CoefficientSolver`` for the system and its guard.  The last
    parameter is ignored: every kernel uses the same system, and
    ``perfbench/workloads.py`` still passes ``hp.strictly_pd_shortcut``.
    """
    K = np.asarray(K, dtype=float)
    xi = 1.0 - u_next - b * y - lam / sigma
    return _CoefficientSolver(_GramFactor(K), sigma).solve(xi, y)[0]


def _coefficient_solvers(K: np.ndarray, sigmas) -> dict:
    """One coefficient solver per distinct ``sigma`` on ``K``, all sharing
    one :class:`_GramFactor`; a ``sigma`` whose set-up fails maps to its
    ``ZeroOneError`` instead."""
    factor = _GramFactor(K)
    solvers = {}
    for sigma in sigmas:
        if sigma not in solvers:
            try:
                solvers[sigma] = _CoefficientSolver(factor, sigma)
            except ZeroOneError as exc:
                solvers[sigma] = exc
    return solvers


def _run_admm(
    solvers: dict,
    y: np.ndarray,
    hps: list[Hyperparams],
    kind: LossKind,
    init: Optional[AdmmState] = None,
    on_iteration: Optional[Callable[[AdmmState], None]] = None,
) -> list:
    """Shared iteration of the zero-one solver and the baselines, run on a
    batch of cells in lockstep.

    Cell ``i`` solves the ``kind`` problem with ``hps[i]`` from the warm
    start ``init`` (all zeros by default), using ``solvers[hps[i].sigma]``
    from :func:`_coefficient_solvers` on the cells' common Gram.  ``kind``
    picks the prox of the slack step and of beta4 and the loss of the
    objective; the dual ascent is masked to the zeroed set for the
    zero-one loss only, and plain for the baselines.

    A cell leaves the batch when it meets its tolerance, reaches its
    ``max_iter``, or its solver's set-up or a solve raises a
    ``ZeroOneError``.  ``on_iteration(state)`` receives a snapshot of
    every cell still in the batch after each iteration.  Returns, per
    cell, ``(AdmmState, SolveTrace)`` or the error that removed it.
    """
    m = len(y)
    results = [solvers[hp.sigma] for hp in hps]  # set-up errors stay
    # ordered by sigma, so that the rows each solver serves are one slice
    rows = sorted((i for i, s in enumerate(results)
                   if not isinstance(s, ZeroOneError)), key=lambda i: hps[i].sigma)
    if not rows:
        return results
    traces = {i: SolveTrace(factor_rank=results[i].factor_rank,
                            setup_s=results[i].setup_s) for i in rows}
    start = init if init is not None else zeros_state(m)

    def per_row(name):
        return np.array([getattr(hps[i], name) for i in rows], dtype=float)

    def full(values):
        # per-row constants are stored as whole rows: numpy broadcasts a
        # (rows, 1) column over a batch several times slower
        return np.repeat(values[:, None], m, axis=1)

    sigma, C = full(per_row("sigma")), full(per_row("C"))
    step_size = full(per_row("iota")) * sigma  # iota * sigma
    p = ProxParams(gamma=1.0 / sigma, C=C)
    prox, loss = PROX[kind], LOSS[kind]
    Y = np.tile(y, (len(rows), 1))
    b = np.full((len(rows), 1), float(start.b))
    lam = np.tile(start.lam, (len(rows), 1))
    Kc = np.array([results[i].K_times(start.c) for i in rows])  # carried
    c = np.empty_like(Kc)

    def state(j, k):
        return AdmmState(c=c[j].copy(), b=float(b[j, 0]), u=u[j].copy(),
                         lam=lam[j].copy(), gamma_k=np.flatnonzero(zeroed[j]),
                         eta=eta[j].copy(), xi=xi[j].copy(), r=r[j].copy(),
                         omega=omega[j].copy(), iter=k)

    def grouped():
        """Each solver in use with the slice of rows it serves."""
        groups, j = [], 0
        for s, run in itertools.groupby(hps[i].sigma for i in rows):
            n = len(list(run))
            groups.append((solvers[s], slice(j, j + n)))
            j += n
        return groups

    groups = grouped()
    # y*Kc, b*y and lam/sigma of one iteration are the first operands of
    # the next one's eta and xi, so each is computed once
    yKc, by, scaled_lam = Y * Kc, b * Y, lam / sigma
    for k in range(1, max(hps[i].max_iter for i in rows) + 1):
        # the in-place steps keep the operation order of the plain
        # expressions (eta = 1 - y*Kc - b*y - lam/sigma, ...), and so their
        # bits, with one temporary each instead of three or four
        eta = np.subtract(1.0, yKc)
        eta -= by
        eta -= scaled_lam
        u, zeroed = _slack_step(eta, p, kind)
        xi = np.subtract(1.0, u)
        xi -= by
        xi -= scaled_lam
        failed = {}
        for s, rs in groups:
            for j, exc in s.solve_rows(xi[rs], Y[rs], c[rs], Kc[rs]):
                failed[rs.start + j] = exc
        yKc = Y * Kc
        r = np.subtract(1.0, u)
        r -= yKc
        r -= scaled_lam
        b = np.vecdot(r, Y)[:, None] / m
        by = b * Y
        omega = u + yKc  # feasibility(u, Kc, b, Y), from the products above
        omega += by
        omega -= 1.0
        step = step_size * omega
        step += lam
        lam = np.where(zeroed, step, 0.0) if kind == LossKind.L01 else step
        scaled_lam = lam / sigma

        beta1, beta2, beta3, beta4 = scaled_residuals(
            c, u, lam, omega, Y, prox(u - scaled_lam, p))
        objective = 0.5 * np.vecdot(c, Kc) + C[:, 0] * loss(u)
        records = zip(beta1.tolist(), beta2.tolist(), beta3.tolist(),
                      beta4.tolist(), objective.tolist(),
                      zeroed.sum(axis=1).tolist())
        leave = dict(failed)
        for j, (i, rec) in enumerate(zip(rows, records)):
            if j in failed:
                continue
            traces[i].flat.extend(rec)
            if on_iteration is not None:
                on_iteration(state(j, k))
            met = max(rec[0], abs(rec[1]), rec[2], rec[3]) < hps[i].eps
            if met or k == hps[i].max_iter:
                traces[i].termination = "tolerance_met" if met else "max_iter"
                leave[j] = (state(j, k), traces[i])
        if leave:
            for j, out in leave.items():
                results[rows[j]] = out
            keep = np.ones(len(rows), dtype=bool)
            keep[list(leave)] = False
            if not keep.any():
                break
            rows = [i for i, kept in zip(rows, keep) if kept]
            c, Kc, yKc, b, by, lam, scaled_lam, Y, sigma, C, step_size = (
                a[keep] for a in (c, Kc, yKc, b, by, lam, scaled_lam, Y,
                                  sigma, C, step_size))
            p = ProxParams(gamma=1.0 / sigma, C=C)
            groups = grouped()
    return results


def _training_gram(dataset: Dataset, hp: Hyperparams,
                   gram: Optional[GramMatrix]) -> np.ndarray:
    """Gram entries for a trainable ``dataset``: at least two samples of
    both classes, and a precomputed ``gram`` only with its fingerprint and
    with ``hp``'s kernel."""
    y = dataset.y
    if len(y) < 2:
        raise InputError("need at least 2 samples")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise InputError("training labels must contain both classes")
    if gram is None:
        gram = gram_matrix(hp.kernel, dataset.X)
    elif gram.fingerprint != dataset.fingerprint():
        raise InputError("Gram matrix fingerprint does not match the dataset")
    elif gram.spec != hp.kernel:
        raise InputError("Gram matrix was built with another kernel")
    return gram.entries


def solve(
    dataset: Dataset,
    hp: Hyperparams,
    init: Optional[AdmmState] = None,
    gram: Optional[GramMatrix] = None,
    on_iteration: Optional[Callable[[AdmmState], None]] = None,
) -> tuple[AdmmState, SolveTrace]:
    """Run the zero-one hinge-loss ADMM on a dataset.

    Parameters
    ----------
    dataset : Dataset
        Training samples with labels in {-1, +1}; both classes required.
    hp : Hyperparams
        Solver settings, including the kernel.
    init : AdmmState, optional
        Warm start; defaults to the all-zeros iterate (whose first
        threshold argument is the all-ones vector).
    gram : GramMatrix, optional
        Precomputed kernel matrix for ``dataset``; recomputed when absent.
        Must carry the dataset's fingerprint.
    on_iteration : callable, optional
        Invoked with a snapshot ``AdmmState`` after every iteration.

    Returns
    -------
    (AdmmState, SolveTrace)
        The final iterate and the per-iteration residual trace.  The
        trace terminates either with ``"tolerance_met"`` (all four scaled
        residuals below ``hp.eps``) or ``"max_iter"``.

    Identical dataset, hyperparameters and warm start produce bitwise
    identical traces.
    """
    K = _training_gram(dataset, hp, gram)
    (out,) = _run_admm(_coefficient_solvers(K, [hp.sigma]), dataset.y, [hp],
                       LossKind.L01, init, on_iteration)
    if isinstance(out, ZeroOneError):
        raise out
    return out
