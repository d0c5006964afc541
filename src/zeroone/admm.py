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

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg.blas import dsymv
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
    ``[(1/sigma) I + K] c = diag(y) xi``.  The solver holds its inverse,
    which is well conditioned (``cond <= 1 + sigma * lambda_max(K)``), so
    each iteration costs two symmetric matrix-vector products that read
    one triangle each, both in scipy's BLAS; see ``_CoefficientSolver``.
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
    """Per-iteration residual/objective records and the termination reason."""

    records: list[TraceRecord] = field(default_factory=list)
    termination: str = "max_iter"  # "tolerance_met" | "max_iter"

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


class _CoefficientSolver:
    """Pre-factored solver for the coefficient update, reused across
    iterations.  :meth:`solve` returns ``c`` together with ``K c``, which
    the caller carries into the next iteration's ``eta``.

    Every kernel gets the same system ``A c = diag(y) xi`` with
    ``A = (1/sigma) I + K``.  Multiplying it by ``sigma K`` gives the
    normal equations ``[K + sigma K K] c = sigma K diag(y) xi`` of the
    coefficient step, so its solution solves the step even when ``K`` is
    singular; and ``A`` is positive definite for any positive
    semidefinite ``K``.  The solver holds ``A^-1`` explicitly, so a solve
    is one matrix-vector product.  Forming the inverse is safe, because
    ``cond(A) <= 1 + sigma * lambda_max(K)``.  The inverse comes from
    LAPACK's Cholesky routines once per solver and stays in the lower
    triangle of the F-ordered buffer they wrote; the stale upper triangle
    is never read.

    Every O(m^2) product is a scipy ``dsymv`` on the lower triangle of an
    F-ordered operand: it reads half the matrix, and nothing is copied.
    numpy's and scipy's BLAS may be separate libraries whose thread pools
    make switching between them cost more than the products.  ``K`` is
    symmetric to the bit, so its free F-ordered transpose view stands in.

    Every solve is checked: ``||K c + c/sigma - diag(y) xi|| <=
    1e-8 (1 + ||xi||)`` with ``K c`` computed, not derived.  A failed or
    NaN check raises ``NumericalError``, and so does a Cholesky breakdown
    at set-up, which rounding can cause when ``sigma * |lambda_min(K)|``
    reaches 1.
    """

    def __init__(self, K: np.ndarray, sigma: float):
        self.K = K = np.asfortranarray(K.T)
        self.sigma = sigma
        A = np.array(K, dtype=float, order="F")
        A.flat[::K.shape[0] + 1] += 1.0 / sigma
        L, info = dpotrf(A, lower=True, clean=False, overwrite_a=True)
        if info == 0:
            self.A_inv, info = dpotri(L, lower=True, overwrite_c=True)
        if info != 0:
            raise NumericalError(
                f"Cholesky factorization of K + I/sigma failed (info={info})",
                cond=self._cond(),
            )

    def _cond(self) -> float:
        A = self.K + np.eye(len(self.K)) / self.sigma
        try:
            return float(np.linalg.cond(A))
        except np.linalg.LinAlgError:  # the SVD fails on non-finite entries
            return float("inf")

    def solve(self, xi: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dyxi = y * xi
        c = dsymv(1.0, self.A_inv, dyxi, lower=1)
        Kc = dsymv(1.0, self.K, c, lower=1)
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
    solver = _CoefficientSolver(K, sigma)
    Kc = dsymv(1.0, solver.K, c, lower=1)  # carried: feeds each next eta
    trace = SolveTrace(records=[], termination="max_iter")
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
    both classes, and a precomputed ``gram`` only with its fingerprint."""
    y = dataset.y
    if len(y) < 2:
        raise InputError("need at least 2 samples")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise InputError("training labels must contain both classes")
    if gram is None:
        gram = gram_matrix(hp.kernel, dataset.X)
    elif gram.fingerprint != dataset.fingerprint():
        raise InputError("Gram matrix fingerprint does not match the dataset")
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
