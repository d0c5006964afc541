"""Four-step ADMM for the zero-one hinge-loss kernel SVM.

The solver alternates, per iteration, (1) a thresholding update of the
slack vector ``u`` via the zero-one hinge prox, (2) a linear solve for the
coefficients ``c``, (3) a closed-form bias update and (4) a dual ascent on
``lambda`` that is masked to the index set picked out by the threshold
rule.  Stopping monitors the four scaled residuals ``beta1..beta4`` of
:func:`zeroone.stationarity.scaled_residuals` (stationarity, dual balance,
feasibility and the prox fixed-point gap at step ``1/sigma``).  The run
stops once ``max(beta1, |beta2|, beta3, beta4) < eps``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg.blas import dgemv, dsymv, dsyrk
from scipy.linalg.lapack import dpotrf, dpotri

from .data import Dataset
from .errors import InputError, NumericalError
from .kernels import GramMatrix, KernelSpec, gaussian_spec, gram_matrix
from .prox import LOSS, PROX, LossKind, ProxParams
from .stationarity import feasibility, scaled_residuals

# Acceptable relative residual of the coefficient linear solve.
_SOLVE_RTOL = 1e-8


@dataclass
class Hyperparams:
    """Solver settings: loss weight C, penalty sigma, dual step iota,
    stopping tolerance eps, iteration cap and the kernel.

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
        if not (self.C > 0 and self.sigma > 0 and self.iota > 0 and self.eps > 0):
            raise InputError("C, sigma, iota and eps must be > 0")
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


@dataclass
class SolveTrace:
    """Per-iteration residual/objective records, the termination reason,
    and how the coefficient solver was built: ``factor_rank`` is the rank
    of its low-rank kernel factor (``None`` for the dense inverse) and
    ``setup_s`` the wall time, in seconds, to build it."""

    records: list[TraceRecord] = field(default_factory=list)
    termination: str = "max_iter"  # "tolerance_met" | "max_iter"
    factor_rank: Optional[int] = None
    setup_s: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.records)


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
    p = ProxParams(gamma=1.0 / sigma, C=C)
    u = PROX[kind](eta, p)
    if kind == LossKind.L01:
        return u, np.flatnonzero((eta > 0.0) & (eta <= p.tau))
    return u, np.flatnonzero(u == 0.0)


def _pivoted_cholesky(K: np.ndarray, max_rank: int) -> Optional[np.ndarray]:
    """Greedy pivoted Cholesky factor ``L`` (m x r, F-ordered) with
    ``K ~= L L^T``, or ``None`` when ``K`` has more than ``max_rank`` pivots.

    Each step takes the largest remaining diagonal entry as pivot and reads
    that column of ``K`` in place, so ``K`` is never copied, and the work
    buffer holds at most ``max_rank`` rows of length m.  It stops
    once every remaining diagonal entry is at most ``m * eps * max(diag K)``,
    LAPACK's default tolerance; for a positive semidefinite ``K`` the
    remainder ``K - L L^T`` is then positive semidefinite with trace at most
    ``m`` times that.  A NaN pivot never meets the tolerance.
    """
    m = len(K)
    d = K.diagonal().copy()
    tol = m * np.finfo(float).eps * d.max()
    Lt = np.empty((max_rank, m))
    for j in range(max_rank + 1):
        i = int(np.argmax(d))
        if d[i] <= tol:
            return Lt[:j].copy().T
        if j == max_rank:
            return None
        # column i of the Schur complement, K[:, i] - L[:, :j] L[i, :j]^T,
        # in scipy's BLAS like the solves; at j = 0 there is no L yet
        col = dgemv(-1.0, Lt[:j].T, Lt[:j, i], beta=1.0, y=K[:, i]) if j else K[:, i]
        Lt[j] = col / np.sqrt(d[i])
        d -= Lt[j] * Lt[j]


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
    ``K``, found by :func:`_pivoted_cholesky`:

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
    """

    def __init__(self, K: np.ndarray, sigma: float):
        self.K = K = np.asfortranarray(K.T)
        self.sigma = sigma
        m = len(K)
        self.L = _pivoted_cholesky(K, m // 4)
        self.factor_rank = None if self.L is None else self.L.shape[1]
        if self.factor_rank == 0:
            # BLAS takes no empty operand; a zero column adds nothing to L L^T
            self.L = np.zeros((m, 1), order="F")
        if self.L is not None:
            p = np.random.default_rng(0).standard_normal(m)
            err = float(np.linalg.norm(dsymv(1.0, K, p, lower=1) - self.K_times(p)))
            if err <= _SOLVE_RTOL * float(np.linalg.norm(p)) / sigma:
                self.M_inv = self._inverse(dsyrk(1.0, self.L, trans=1, lower=1))
                return
            self.factor_rank = self.L = None
        self.A_inv = self._inverse(np.array(K, dtype=float, order="F"))

    def _inverse(self, A: np.ndarray) -> np.ndarray:
        """Lower triangle of ``(A + I/sigma)^-1``, written over ``A``."""
        A.flat[::A.shape[0] + 1] += 1.0 / self.sigma
        L, info = dpotrf(A, lower=True, clean=False, overwrite_a=True)
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
        dyxi = y * xi
        if self.L is None:
            c = dsymv(1.0, self.A_inv, dyxi, lower=1)
        else:
            z = dsymv(1.0, self.M_inv, dgemv(1.0, self.L, dyxi, trans=1), lower=1)
            c = dgemv(-self.sigma, self.L, z, beta=self.sigma, y=dyxi)
        Kc = self.K_times(c)
        resid = float(np.linalg.norm(Kc + c / self.sigma - dyxi))
        bound = _SOLVE_RTOL * (1.0 + float(np.linalg.norm(xi)))
        if not resid <= bound:
            raise NumericalError(
                f"coefficient solve residual {resid:.3e} exceeds {bound:.3e}",
                cond=self._cond(),
            )
        return c, Kc


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
    return _CoefficientSolver(K, sigma).solve(xi, y)[0]


def _run_admm(
    K: np.ndarray,
    y: np.ndarray,
    hp: Hyperparams,
    kind: LossKind,
    init: Optional[AdmmState],
    on_iteration: Optional[Callable[[AdmmState], None]],
) -> tuple[AdmmState, SolveTrace]:
    """Shared iteration of the zero-one solver and the baselines.

    ``kind`` picks the prox of the slack step and of beta4 and the loss of
    the objective; the dual ascent is masked to the zeroed set for the
    zero-one loss only, and plain for the baselines.
    """
    m = len(y)
    state = init if init is not None else zeros_state(m)
    c, b, u, lam = state.c.copy(), float(state.b), state.u.copy(), state.lam.copy()
    sigma, iota, C = hp.sigma, hp.iota, hp.C
    p = ProxParams(gamma=1.0 / sigma, C=C)
    prox, loss = PROX[kind], LOSS[kind]
    t0 = time.perf_counter()
    solver = _CoefficientSolver(K, sigma)
    trace = SolveTrace(records=[], termination="max_iter",
                       factor_rank=solver.factor_rank,
                       setup_s=time.perf_counter() - t0)
    Kc = solver.K_times(c)  # carried: feeds each next eta
    gamma_k = state.gamma_k
    eta = state.eta
    xi = state.xi
    r = state.r
    omega = state.omega

    for k in range(hp.max_iter):
        eta = 1.0 - y * Kc - b * y - lam / sigma
        u, gamma_k = update_u(eta, C, sigma, kind)
        xi = 1.0 - u - b * y - lam / sigma
        c, Kc = solver.solve(xi, y)
        r = 1.0 - u - y * Kc - lam / sigma
        b = float(y @ r) / m
        omega = feasibility(u, Kc, b, y)
        if kind == LossKind.L01:
            new_lam = np.zeros(m)
            new_lam[gamma_k] = lam[gamma_k] + iota * sigma * omega[gamma_k]
            lam = new_lam
        else:
            lam = lam + iota * sigma * omega

        beta1, beta2, beta3, beta4 = scaled_residuals(
            c, u, lam, omega, y, prox(u - lam / sigma, p))
        objective = 0.5 * float(c @ Kc) + C * loss(u)
        trace.records.append(
            TraceRecord(k + 1, beta1, beta2, beta3, beta4, objective, len(gamma_k))
        )
        if on_iteration is not None:
            on_iteration(
                AdmmState(c=c.copy(), b=b, u=u.copy(), lam=lam.copy(),
                          gamma_k=gamma_k.copy(), eta=eta.copy(), xi=xi.copy(),
                          r=r.copy(), omega=omega.copy(), iter=k + 1)
            )
        if max(beta1, abs(beta2), beta3, beta4) < hp.eps:
            trace.termination = "tolerance_met"
            break

    final = AdmmState(c=c, b=b, u=u, lam=lam, gamma_k=gamma_k, eta=eta,
                      xi=xi, r=r, omega=omega, iter=len(trace.records))
    return final, trace


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
    return _run_admm(K, dataset.y, hp, LossKind.L01, init, on_iteration)
