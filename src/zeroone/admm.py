"""Four-step ADMM for the zero-one hinge-loss kernel SVM.

The solver alternates, per iteration, (1) a thresholding update of the
slack vector ``u`` via the zero-one hinge prox, (2) a linear solve for the
coefficients ``c``, (3) a closed-form bias update and (4) a dual ascent on
``lambda`` that is masked to the index set picked out by the threshold
rule.  Stopping monitors the four scaled residuals ``beta1..beta4``:
stationarity ``||c + diag(y) lam|| / (1 + ||c|| + ||lam||)``, dual balance
``<y, lam> / m``, feasibility ``||u + diag(y) K c + b y - 1|| / sqrt(m)``,
and the prox fixed-point gap ``||u - prox(u - lam/sigma)|| / (1 + ||u||)``.
The run stops once ``max(beta1, |beta2|, beta3, beta4) < eps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dpotrf, dpotri

from .data import Dataset
from .errors import InputError, NumericalError
from .kernels import GramMatrix, KernelSpec, gaussian_spec, gram_matrix
from .prox import ProxParams, prox_l01

# Acceptable relative residual of the coefficient linear solve.
_SOLVE_RTOL = 1e-8
# Ridge scale used when the coefficient system is rank deficient.
_RIDGE_SCALE = 1e-10


@dataclass
class Hyperparams:
    """Solver settings: loss weight C, penalty sigma, dual step iota,
    stopping tolerance eps, iteration cap and the kernel.

    ``strictly_pd_shortcut`` selects the reduced coefficient system
    ``[(1/sigma) I + K] c = diag(y) xi`` that is valid when the kernel
    matrix is nonsingular; ``None`` resolves it from the kernel family.
    The shortcut solver holds ``[(1/sigma) I + K]^-1``, which is well
    conditioned (``cond <= 1 + sigma * lambda_max(K)``), so each iteration
    costs two symmetric matrix-vector products that read one triangle
    each, both in scipy's BLAS; see ``_CoefficientSolver``.
    """

    C: float
    sigma: float
    iota: float = 1.0
    eps: float = 1e-3
    max_iter: int = 2000
    kernel: KernelSpec = field(default_factory=lambda: gaussian_spec(1.0))
    strictly_pd_shortcut: Optional[bool] = None

    def __post_init__(self):
        if not (self.C > 0 and self.sigma > 0 and self.iota > 0 and self.eps > 0):
            raise InputError("C, sigma, iota and eps must be > 0")
        if self.max_iter < 1:
            raise InputError("max_iter must be >= 1")
        if self.strictly_pd_shortcut is None:
            self.strictly_pd_shortcut = self.kernel.strictly_pd()


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


def compute_eta(c, b, lam, K, y, sigma) -> np.ndarray:
    """eta = 1 - diag(y) K c - b y - lam / sigma."""
    return 1.0 - y * (K @ c) - b * y - lam / sigma


def update_u(eta, C, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Threshold step: zero the coordinates of ``eta`` in ``(0, sqrt(2C/sigma)]``.

    Returns the new slack vector and the (sorted, 0-based) index set that
    was zeroed.
    """
    p = ProxParams(gamma=1.0 / sigma, C=C)
    u = prox_l01(eta, p)
    gamma_k = np.flatnonzero((eta > 0.0) & (eta <= p.tau))
    return u, gamma_k


def _shortcut_inverse(K: np.ndarray, diag: float) -> Optional[np.ndarray]:
    """``(K + diag I)^-1`` in the lower triangle of an F-ordered array, or
    ``None`` when its Cholesky factorization breaks down.

    ``A = K + diag I`` is built in one F-ordered copy of ``K``; the
    factorization and the inversion both overwrite that buffer and leave
    its upper triangle stale, which ``dsymv(..., lower=1)`` never reads.
    """
    m = K.shape[0]
    A = np.array(K, dtype=float, order="F")
    A.flat[::m + 1] += diag
    L, info = dpotrf(A, lower=True, clean=False, overwrite_a=True)
    if info != 0:
        return None
    A_inv, info = dpotri(L, lower=True, overwrite_c=True)
    return A_inv if info == 0 else None


class _CoefficientSolver:
    """Pre-factored solver for the coefficient update, reused across
    iterations.  :meth:`solve` returns ``c`` together with ``K c``, which
    the caller carries into the next iteration's ``eta``.

    Shortcut mode solves ``A c = diag(y) xi`` with ``A = (1/sigma) I + K``
    by holding ``A^-1`` explicitly, so a solve is one matrix-vector
    product.  Forming the inverse is safe: ``K`` is positive semidefinite,
    so ``cond(A) <= 1 + sigma * lambda_max(K)``.  The inverse comes from
    LAPACK's Cholesky routines once per solver.

    Full mode solves ``[K + sigma K K] c = sigma K diag(y) xi`` from a
    Cholesky factorization.  ``K K`` is not symmetric to the bit, so the
    factorization and the residual read the same (lower) triangle.

    Every O(m^2) product is a scipy ``dsymv`` on the lower triangle of an
    F-ordered operand: it reads half the matrix, and nothing is copied.
    numpy's and scipy's BLAS may be separate libraries whose thread pools
    make switching between them cost more than the products.  ``K`` is
    symmetric to the bit, so its free F-ordered transpose view stands in.

    Every solve is checked against the unridged system: in shortcut mode
    ``||K c + c/sigma - diag(y) xi|| <= 1e-8 (1 + ||xi||)`` with ``K c``
    computed, not derived.  A failed check, or a Cholesky breakdown at
    set-up, is treated as rank deficiency: ``A`` is rebuilt with a ridge
    of ``1e-10 * trace(K)/m`` (pivoted LU when Cholesky still fails) and
    the solve retried once; a second failure raises ``NumericalError``.
    """

    def __init__(self, K: np.ndarray, sigma: float, shortcut: bool):
        self.K = K = np.asfortranarray(K.T)
        self.sigma = sigma
        self.shortcut = shortcut
        m = K.shape[0]
        self.ridge = _RIDGE_SCALE * float(np.trace(K)) / m
        self._ridged = False
        if shortcut:
            self.A_inv = _shortcut_inverse(K, 1.0 / sigma)
            ok = self.A_inv is not None
        else:
            self.A = K + sigma * (K @ K).T  # F-ordered; (K K)^T = K K for symmetric K
            self._factor = self._try_factor(self.A)
            ok = self._factor is not None
        if not ok:
            self._apply_ridge()

    def _try_factor(self, A):
        try:
            return ("cho", cho_factor(A, lower=True, check_finite=False))
        except np.linalg.LinAlgError:
            return None

    def _cond(self) -> float:
        """Condition number of the unridged system; shortcut mode rebuilds it."""
        if self.shortcut:
            A = self.K + np.eye(len(self.K)) / self.sigma
            return float(np.linalg.cond(A))
        return float(np.linalg.cond(self.A))

    def _apply_ridge(self):
        if self._ridged:
            raise NumericalError(
                "coefficient system factorization failed after ridge fallback",
                cond=self._cond(),
            )
        self._ridged = True
        m = self.K.shape[0]
        if self.shortcut:
            self.A_inv = _shortcut_inverse(self.K, 1.0 / self.sigma + self.ridge)
            if self.A_inv is not None:
                return
            A = self.K + (1.0 / self.sigma + self.ridge) * np.eye(m, order="F")
        else:
            A = self.A + self.ridge * np.eye(m, order="F")
            self._factor = self._try_factor(A)
            if self._factor is not None:
                return
        # Last resort for indefinite perturbations: pivoted LU.
        try:
            lu = lu_factor(A, check_finite=False)
        except np.linalg.LinAlgError:
            raise NumericalError(
                "coefficient system factorization failed after ridge fallback",
                cond=float(np.linalg.cond(A)),
            ) from None
        if self.shortcut:
            self.A_inv = np.asfortranarray(lu_solve(lu, np.eye(m), check_finite=False))
        else:
            self._factor = ("lu", lu)

    def _attempt(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """One solve with the current operator: ``(c, K c, residual)``."""
        if self.shortcut:
            c = dsymv(1.0, self.A_inv, rhs, lower=1)
        elif self._factor[0] == "cho":
            c = cho_solve(self._factor[1], rhs, check_finite=False)
        else:
            c = lu_solve(self._factor[1], rhs, check_finite=False)
        Kc = dsymv(1.0, self.K, c, lower=1)
        Ac = Kc + c / self.sigma if self.shortcut else dsymv(1.0, self.A, c, lower=1)
        return c, Kc, float(np.linalg.norm(Ac - rhs))

    def solve(self, xi: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dyxi = y * xi
        rhs = dyxi if self.shortcut else dsymv(self.sigma, self.K, dyxi, lower=1)
        bound = _SOLVE_RTOL * (1.0 + float(np.linalg.norm(xi)))
        c, Kc, resid = self._attempt(rhs)
        if not resid <= bound:
            # Treat a failed residual check as a rank-deficiency report.
            self._apply_ridge()
            c, Kc, resid = self._attempt(rhs)
            if not resid <= bound:
                raise NumericalError(
                    f"coefficient solve residual {resid:.3e} exceeds {bound:.3e}",
                    cond=self._cond(),
                )
        return c, Kc


def update_c(K, y, u_next, b, lam, sigma, strictly_pd_shortcut) -> np.ndarray:
    """Coefficient update: solve the normal equations for the augmented
    quadratic in ``c`` given the fresh slack vector.

    One-shot form of the solver used inside :func:`solve`; see
    ``_CoefficientSolver`` for the two system variants and the ridge
    fallback.
    """
    K = np.asarray(K, dtype=float)
    xi = 1.0 - u_next - b * y - lam / sigma
    return _CoefficientSolver(K, sigma, strictly_pd_shortcut).solve(xi, y)[0]


def update_b(y, u_next, K, c_next, lam, sigma) -> float:
    """Bias update ``b = <y, r> / m`` with
    ``r = 1 - u_next - diag(y) K c_next - lam / sigma``."""
    r = 1.0 - u_next - y * (K @ c_next) - lam / sigma
    return float(y @ r) / len(y)


def update_lambda(lam, omega_next, gamma_k, iota, sigma) -> np.ndarray:
    """Masked dual ascent: ``lam + iota*sigma*omega`` on ``gamma_k``,
    hard zero elsewhere."""
    new = np.zeros_like(lam)
    new[gamma_k] = lam[gamma_k] + iota * sigma * omega_next[gamma_k]
    return new


def betas(c, b, u, lam, K, y, C, sigma) -> tuple[float, float, float, float]:
    """The four scaled stopping residuals at an iterate.

    ``beta2`` is returned signed; callers that feed the stopping rule
    should take its absolute value (a negative dual imbalance is still an
    imbalance).
    """
    m = len(y)
    beta1 = float(np.linalg.norm(c + y * lam)) / (
        1.0 + float(np.linalg.norm(c)) + float(np.linalg.norm(lam))
    )
    beta2 = float(y @ lam) / m
    feas = u + y * (K @ c) + b * y - 1.0
    beta3 = float(np.linalg.norm(feas)) / math.sqrt(m)
    p = ProxParams(gamma=1.0 / sigma, C=C)
    beta4 = float(np.linalg.norm(u - prox_l01(u - lam / sigma, p))) / (
        1.0 + float(np.linalg.norm(u))
    )
    return beta1, beta2, beta3, beta4


def _count_positive(u: np.ndarray) -> float:
    return float(np.count_nonzero(u > 0.0))


def _run_admm(
    K: np.ndarray,
    y: np.ndarray,
    hp: Hyperparams,
    *,
    update_slack: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    fixed_point_prox: Callable[[np.ndarray], np.ndarray],
    mask_dual: bool,
    loss_term: Callable[[np.ndarray], float],
    init: Optional[AdmmState],
    on_iteration: Optional[Callable[[AdmmState], None]],
) -> tuple[AdmmState, SolveTrace]:
    """Shared iteration skeleton for the zero-one solver and the baselines.

    ``update_slack`` maps eta to (u, zeroed index set); ``fixed_point_prox``
    is the matching prox used inside beta4; ``mask_dual`` selects between
    the masked and the plain dual ascent.
    """
    m = len(y)
    state = init if init is not None else zeros_state(m)
    c, b, u, lam = state.c.copy(), float(state.b), state.u.copy(), state.lam.copy()
    sigma, iota, C = hp.sigma, hp.iota, hp.C
    solver = _CoefficientSolver(K, sigma, hp.strictly_pd_shortcut)
    Kc = dsymv(1.0, solver.K, c, lower=1)  # carried: feeds each next eta
    trace = SolveTrace(records=[], termination="max_iter")
    sqrt_m = math.sqrt(m)
    gamma_k = state.gamma_k
    eta = state.eta
    xi = state.xi
    r = state.r
    omega = state.omega

    for k in range(hp.max_iter):
        eta = 1.0 - y * Kc - b * y - lam / sigma
        u, gamma_k = update_slack(eta)
        xi = 1.0 - u - b * y - lam / sigma
        c, Kc = solver.solve(xi, y)
        r = 1.0 - u - y * Kc - lam / sigma
        b = float(y @ r) / m
        omega = u + y * Kc + b * y - 1.0
        if mask_dual:
            new_lam = np.zeros(m)
            new_lam[gamma_k] = lam[gamma_k] + iota * sigma * omega[gamma_k]
            lam = new_lam
        else:
            lam = lam + iota * sigma * omega

        beta1 = float(np.linalg.norm(c + y * lam)) / (
            1.0 + float(np.linalg.norm(c)) + float(np.linalg.norm(lam))
        )
        beta2 = float(y @ lam) / m
        beta3 = float(np.linalg.norm(omega)) / sqrt_m
        beta4 = float(np.linalg.norm(u - fixed_point_prox(u - lam / sigma))) / (
            1.0 + float(np.linalg.norm(u))
        )
        objective = 0.5 * float(c @ Kc) + C * loss_term(u)
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


def _check_trainable(y: np.ndarray):
    if len(y) < 2:
        raise InputError("need at least 2 samples")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise InputError("training labels must contain both classes")


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
    y = dataset.y
    _check_trainable(y)
    if gram is None:
        gram = gram_matrix(hp.kernel, dataset.X)
    elif gram.fingerprint != dataset.fingerprint():
        raise InputError("Gram matrix fingerprint does not match the dataset")
    K = gram.entries

    def update_slack(eta):
        return update_u(eta, hp.C, hp.sigma)

    p = ProxParams(gamma=1.0 / hp.sigma, C=hp.C)
    return _run_admm(
        K, y, hp,
        update_slack=update_slack,
        fixed_point_prox=lambda v: prox_l01(v, p),
        mask_dual=True,
        loss_term=_count_positive,
        init=init,
        on_iteration=on_iteration,
    )
