"""Four-step ADMM for the zero-one hinge-loss kernel SVM.

The solver alternates, per iteration, (1) a thresholding update of the
slack vector ``u`` via the zero-one hinge prox, (2) a linear solve for the
coefficients ``c``, (3) a closed-form bias update and (4) a dual ascent on
``lambda`` that is masked to the index set picked out by the threshold
rule.  Stopping monitors the four scaled residuals ``beta1..beta4`` of
:func:`zeroone.stationarity.scaled_residuals` (stationarity, dual balance,
feasibility and the prox fixed-point gap at step ``1/sigma``).  The run
stops once ``max(beta1, |beta2|, beta3, beta4) < eps``, or when
:func:`finish` polishes a stalled iterate to an exact KKT point; a grid
row whose stalled iterate the polish cannot improve on stops there too.

One loop, :func:`_run_admm`, advances a batch of cells (one loss kind, any
``(C, sigma)`` per cell, one Gram) in lockstep: the state is ``(cells, m)``
C-ordered, the elementwise steps run on the whole batch, and the
matrix-vector products, the guarded coefficient solves and the dot
products run per row with the calls a single vector makes, so each cell's
trace is bitwise the same whether it is solved alone or in a batch.  A
single solve is a batch of one.

A coefficient solver on a low-rank kernel factor computes every product
with numpy; only a dense solver loads scipy, for its symmetric BLAS and
LAPACK routines (see ``_CoefficientSolver``).
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from .data import Dataset
from .errors import InputError, NumericalError, ZeroOneError
from .kernels import (GramMatrix, KernelSpec, _aligned_empty, gaussian_spec,
                      gram_matrix)
from .prox import PROX, LossKind, ProxParams, objective, prox_l01_zeroed
from .stationarity import (check_prox_stationary, construct_gamma, feasibility,
                           row_norms, scaled_residuals)

# Acceptable relative residual of the coefficient linear solve.
_SOLVE_RTOL = 1e-8

# The polish (see :func:`finish`): _run_admm tries a zero-one row at the
# _POLISH_EVERY-th iterations where :func:`_due` holds on its trace, once,
# or twice when the first point is worse than the iterate (a search that
# gives up earns no second); _due reads the _STALL_ constants.  A polished
# point must be prox-stationary within _EXACT_TOL at the step
# construct_gamma builds for it.
_POLISH_EVERY = 10
_STALL_WINDOW = 50
_STALL_RATIO = 0.5
_EXACT_TOL = 1e-8


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
    set ``{i : 0 < eta[i] <= tau}`` for the ``eta`` recorded here, with
    ``tau = ProxParams(1/sigma, C).tau``.  (The baseline solvers reuse
    this container but skip the dual masking, so only the first invariant
    applies there.)

    A point from :func:`finish` has ``gamma_k`` its active set, ``c`` zero
    off it and ``lam == -y * c``; its ``eta``, ``xi``, ``r``, ``omega`` and
    ``iter`` are those of the iterate it was polished from, and
    ``prox_step`` is the step at which it is prox-stationary, from
    :func:`~zeroone.stationarity.construct_gamma`.  An ADMM iterate has no
    ``prox_step``: its step is ``1/sigma``.
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
    prox_step: Optional[float] = None


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
    how the coefficient solver was built and what the polish did:
    ``factor_rank`` is the rank of its low-rank kernel factor (``None`` for
    the dense inverse), ``setup_s`` the wall time, in seconds, to build it,
    ``polish_attempts`` the number of calls to :func:`finish` and
    ``polish_s`` their wall time, in seconds.

    The termination is ``"tolerance_met"`` (all four scaled residuals
    below ``eps``), ``"polished"`` (a zero-one row whose :func:`finish`
    point was accepted; the iterations are those run before it),
    ``"stalled"`` (a zero-one row of a grid whose last polish attempt
    was rejected; the state is its last iterate) or ``"max_iter"``.

    ``flat`` holds each iteration's record values as doubles, one after
    another; a lockstep grid keeps every cell's trace until the batch
    ends, and 48 bytes an iteration is a sixth of what record objects
    cost.  :attr:`records` rebuilds the records from it."""

    termination: str = "max_iter"  # or "tolerance_met", "polished", "stalled"
    factor_rank: Optional[int] = None
    setup_s: float = 0.0
    polish_attempts: int = 0
    polish_s: float = 0.0
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


def _slack_step(eta, p: ProxParams, kind: LossKind) -> tuple[np.ndarray, np.ndarray]:
    """Slack step: the ``kind`` prox of ``eta`` (a vector or a batch) at
    step ``p.gamma = 1/sigma``, and the zeroed set as a boolean mask.  For
    the zero-one loss that set is the coordinates of ``eta`` in
    ``(0, p.tau]``; for the baselines it is the zeros of the new slack
    vector."""
    if kind == LossKind.L01:
        return prox_l01_zeroed(eta, p)
    u = PROX[kind](eta, p)
    return u, u == 0.0


def _pivoted_cholesky(K: np.ndarray, max_rank: int) -> Optional[np.ndarray]:
    """Greedy pivoted Cholesky factor ``L`` (m x r, F-ordered) with
    ``K ~= L L^T``, or ``None`` when ``K`` has more than ``max_rank`` pivots.

    Each step takes the largest remaining diagonal entry as pivot and reads
    that column of ``K`` in place, so ``K`` is never copied, and writes its
    column of ``L`` straight into one cache-line aligned m x ``max_rank``
    buffer (see :func:`_aligned_empty`); ``L`` is a view of its first r
    columns, and the columns never written are never touched.  It stops
    once every remaining diagonal entry is at most ``m * eps * max(diag K)``,
    LAPACK's default tolerance; for a positive semidefinite ``K`` the
    remainder ``K - L L^T`` is then positive semidefinite with trace at most
    ``m`` times that.  A NaN pivot never meets the tolerance.
    """
    m = len(K)
    d = K.diagonal().copy()
    tol = m * np.finfo(float).eps * d.max()
    L = _aligned_empty((m, max_rank))
    for j in range(max_rank + 1):
        i = int(np.argmax(d))
        if d[i] <= tol:
            return L[:, :j]
        if j == max_rank:
            return None
        # column i of the Schur complement, K[:, i] - L[:, :j] L[i, :j]^T
        L[:, j] = (K[:, i] - L[:, :j].dot(L[i, :j])) / np.sqrt(d[i])
        d -= L[:, j] * L[:, j]


class _GramFactor:
    """What the coefficient solvers of one Gram share, whatever their
    ``sigma``: ``K`` as a free F-ordered view, its pivoted-Cholesky factor
    ``L`` (``None`` above rank ``m // 4``), ``G = L^T L`` and the factor's
    error on a fixed probe ``p``, ``||K p - L L^T p||``, which each solver
    compares with its own tolerance.  Non-finite entries of ``K`` make that
    error non-finite, which fails every tolerance, so numpy's
    floating-point warnings are off while it is built.  ``setup_s`` is the
    wall time to build it."""

    def __init__(self, K: np.ndarray):
        t0 = time.perf_counter()
        self.K = K = np.asfortranarray(K.T)
        m = len(K)
        with np.errstate(over="ignore", invalid="ignore"):
            self.L = L = _pivoted_cholesky(K, m // 4)
            self.rank = None if L is None else L.shape[1]
            if L is not None:
                self.G = L.T.dot(L)
                p = np.random.default_rng(0).standard_normal(m)
                self.probe_err = float(np.linalg.norm(K.dot(p) - L.dot(L.T.dot(p))))
                self.probe_norm = float(np.linalg.norm(p))
        self.setup_s = time.perf_counter() - t0


class _CoefficientSolver:
    """Pre-factored solver for the coefficient update, reused across
    iterations.  :meth:`apply` returns ``c`` and ``K c``, which the caller
    carries into the next iteration's ``eta``, unchecked; :func:`_solve_rows`
    checks them, and :meth:`solve` is that for one right-hand side.

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
      (r x r).  A solve and ``K c = L (L^T c)`` are four matrix-vector
      products over ``L``.  That reads ``4 m r`` entries, against ``m^2``
      for the two half-matrix ``dsymv`` below, hence the cutoff.  ``M^-1``
      is held in full.  ``factor_rank`` is ``r``.  Before use, the factor
      is checked once against ``K`` itself: on a fixed probe vector ``p``,
      ``||K p - L L^T p|| <= 1e-8 ||p|| / sigma``, the residual guard's
      tolerance for ``c = p``.  A symmetric indefinite ``K``, whose pivots
      can look low-rank, fails this check.
    * otherwise, or when the check fails: ``A^-1`` is held explicitly, so
      a solve is one ``dsymv``, and ``K c`` a second one on ``K``.  Forming
      the inverse is safe, because ``cond(A) <= 1 + sigma *
      lambda_max(K)``.  It comes from LAPACK's Cholesky routines and stays
      in the lower triangle of the F-ordered buffer they wrote; the stale
      upper triangle is never read.  ``factor_rank`` is ``None``.

    The low-rank representation computes every product with numpy
    (``ndarray.dot``).  The dense one takes ``dsymv``, ``dpotrf`` and
    ``dpotri`` from scipy, imported when such a solver is built, because
    numpy has no product that reads half of a symmetric matrix; so a
    low-rank solve never loads ``scipy.linalg``, and each iteration wakes
    one BLAS library's thread pool, not numpy's and scipy's in turn.
    Every matrix an iteration reads is F-ordered, so nothing is copied;
    ``K`` is symmetric to the bit, so its free F-ordered transpose view
    stands in.

    Every solve is checked: ``||K c + c/sigma - diag(y) xi|| <=
    1e-8 (1 + ||xi||)`` with ``K c`` computed from the representation in
    use (``L (L^T c)`` or ``K c``), not derived.  A failed or NaN check
    raises ``NumericalError``, and so does a Cholesky breakdown at set-up,
    which rounding can cause when ``sigma * |lambda_min(K)|`` reaches 1.

    ``setup_s`` is the wall time, in seconds, to build the solver,
    including its Gram factor's, and not the load of ``scipy.linalg``.
    """

    def __init__(self, f: _GramFactor, sigma: float):
        self.K, self.sigma = f.K, sigma
        self.L = self.factor_rank = None
        t0 = time.perf_counter()
        if f.L is not None and f.probe_err <= _SOLVE_RTOL * f.probe_norm / sigma:
            self.L, self.factor_rank = f.L, f.rank
            # numpy's Cholesky factorization is the positive-definiteness
            # check; its LU inverse took less time than inverting the factor
            M = self._plus_identity(f.G)
            try:
                np.linalg.cholesky(M)
                M[...] = np.linalg.inv(M)
            except np.linalg.LinAlgError as exc:
                raise self._breakdown(str(exc)) from None
            self.M_inv = M
        else:
            # the first dense solver of a process loads scipy.linalg;
            # setup_s leaves that one-time cost out
            from scipy.linalg.blas import dsymv
            from scipy.linalg.lapack import dpotrf, dpotri
            self._dsymv = dsymv
            t0 = time.perf_counter()
            A = self._plus_identity(self.K)
            A_inv, info = dpotrf(A, lower=True, clean=False, overwrite_a=True)
            if info == 0:
                A_inv, info = dpotri(A_inv, lower=True, overwrite_c=True)
            if info != 0:
                raise self._breakdown(f"info={info}")
            self.A_inv = A_inv
        self.setup_s = f.setup_s + time.perf_counter() - t0

    def _plus_identity(self, A: np.ndarray) -> np.ndarray:
        """``A + I/sigma`` in a cache-line aligned F-ordered buffer (see
        :func:`_aligned_empty`)."""
        out = _aligned_empty(A.shape)
        out[...] = A
        out.flat[::len(A) + 1] += 1.0 / self.sigma
        return out

    def _breakdown(self, why: str) -> NumericalError:
        return NumericalError(
            f"Cholesky factorization of K + I/sigma failed ({why})",
            cond=self._cond())

    def _cond(self) -> float:
        try:
            return float(np.linalg.cond(self._plus_identity(self.K)))
        except np.linalg.LinAlgError:  # the SVD fails on non-finite entries
            return float("inf")

    def K_times(self, c: np.ndarray) -> np.ndarray:
        """``K c`` through the representation the solves use."""
        if self.L is None:
            return self._dsymv(1.0, self.K, c, lower=1)
        return self.L.dot(self.L.T.dot(c))

    def apply(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unchecked ``c = A^-1 d`` and ``K c`` for one right-hand side
        ``d = diag(y) xi``; :func:`_solve_rows` checks them."""
        if self.L is None:
            c = self._dsymv(1.0, self.A_inv, d, lower=1)
        else:
            z = self.M_inv.dot(self.L.T.dot(d))
            c = self.sigma * (d - self.L.dot(z))
        return c, self.K_times(c)

    def solve(self, xi: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``c`` and ``K c`` for one right-hand side; raises the
        ``NumericalError`` of a failed check."""
        c, Kc = np.empty((2, 1, len(xi)))
        for exc in _solve_rows([self], xi[None], y, self.sigma, c, Kc).values():
            raise exc
        return c[0], Kc[0]


def _solve_rows(solvers: list, xi: np.ndarray, y: np.ndarray, sigma,
                c: np.ndarray, Kc: np.ndarray) -> dict:
    """Solve row ``j`` of ``xi`` with ``solvers[j]`` and the labels ``y``
    into row ``j`` of ``c`` and ``Kc``, then check all rows at once, each
    at its own ``sigma`` (a scalar, or shaped like ``xi``).  Returns
    ``{row: NumericalError}`` for the rows whose check failed, each with
    its own solver's ``cond``."""
    dyxi = y * xi
    for j, (s, d) in enumerate(zip(solvers, dyxi)):
        c[j], Kc[j] = s.apply(d)
    resid = row_norms(Kc + c / sigma - dyxi)
    bound = _SOLVE_RTOL * (1.0 + row_norms(xi))
    return {j: NumericalError(
        f"coefficient solve residual {resid[j]:.3e} exceeds {bound[j]:.3e}",
        cond=solvers[j]._cond()) for j in np.flatnonzero(~(resid <= bound)).tolist()}


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


def finish(K: np.ndarray, y: np.ndarray, row_state: AdmmState, C: float,
           sigma: float, rank: Optional[int] = None) -> Optional[AdmmState]:
    """Polish a zero-one iterate to an exact KKT point by an active-set
    search; ``None`` when the search reaches no such point.

    The active set ``T`` starts as ``row_state.gamma_k``.  Each step solves
    the bordered system for the coefficients on ``T`` and the bias,
    ``K_TT c_T + b 1 = y_T`` and ``sum(c_T) = 0``: with ``c`` zero off
    ``T`` and ``lam = -y * c``, that is ``y_i (K_i c + b) = 1`` on ``T`` and
    ``<y, lam> = 0``.  It sets ``u = 1 - y * (K c + b)`` with ``u_T = 0``,
    then drops from ``T`` the largest positive ``lam_i``, or, when no
    ``lam_i`` is positive, adds the largest ``u_i`` that the slack step at
    ``1/sigma`` would zero; when there is neither, the point is final.
    Every step solves its system afresh with ``np.linalg.solve`` (an
    inverse of ``K_TT`` kept up to date by bordering drifted until no
    point passed the checks below) and forms ``K c`` from the columns of
    ``T`` alone.  Each step depends on ``T`` alone, so a ``T`` met before
    means the search cycles, and it gives up there.  It also gives up on
    an empty ``T``, on an exactly singular system and after
    ``2 |gamma_k| + 10`` steps.

    It gives up, too, at the first solve that misses its system: the
    residual ``||(K_TT c_T + b 1 - y_T, sum(c_T))||``, read off the
    ``K c`` the step forms anyway, must be at most ``_SOLVE_RTOL (1 +
    ||y_T||)``, the coefficient solve's guard.  A numerically singular
    system as a rule misses it by far: its multipliers are rounding
    noise, of order 1e14, so the index the step would drop is arbitrary
    and ``T`` can flip between two sets for good.  The one exception is
    ``|T|`` above ``rank``, the rank of the Gram's low-rank factor
    (``None`` when there is none): there every ``K_TT`` is singular,
    whatever ``T`` is, so the step is taken unchecked, and dropping
    indices is how the search gets down to a ``T`` whose system it can
    solve.

    The final point has ``lam <= 0`` on ``T`` and ``lam = 0`` off it, the
    KKT sign pattern, so :func:`~zeroone.stationarity.construct_gamma`
    builds its step.  The point is returned only if it is prox-stationary
    at that step, ``check_prox_stationary`` passing at ``_EXACT_TOL``
    (which, by the paper's equivalence, makes it KKT); it carries the step
    as ``prox_step`` (see :class:`AdmmState`).  Whether it improves on the
    iterate is :func:`_improves`' decision.
    """
    m = len(y)
    p = ProxParams(1.0 / sigma, C)
    active = np.zeros(m, dtype=bool)
    active[row_state.gamma_k] = True
    seen = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2 * len(row_state.gamma_k) + 10):
            T = np.flatnonzero(active)
            n = len(T)
            if n == 0 or T.tobytes() in seen:
                return None
            seen.add(T.tobytes())
            A = np.ones((n + 1, n + 1))
            A[:n, :n] = K[np.ix_(T, T)]
            A[n, n] = 0.0
            try:
                sol = np.linalg.solve(A, np.append(y[T], 0.0))
            except np.linalg.LinAlgError:
                return None
            c = np.zeros(m)
            c[T] = sol[:n]
            b = float(sol[n])
            Kc = K[:, T].dot(sol[:n])
            resid = np.linalg.norm(np.append(Kc[T] + b - y[T], sol[:n].sum()))
            if (rank is None or n <= rank) and not (
                    resid <= _SOLVE_RTOL * (1.0 + np.linalg.norm(y[T]))):
                return None
            u = 1.0 - y * (Kc + b)
            u[T] = 0.0
            lam = -y * c
            if lam.max() > 0.0:
                active[np.argmax(lam)] = False
                continue
            near = prox_l01_zeroed(u, p)[1]
            if not near.any():
                break
            active[np.argmax(np.where(near, u, 0.0))] = True
        else:
            return None
        gamma = construct_gamma(u, lam, C, tol=_EXACT_TOL)
        if not check_prox_stationary(c, b, u, lam, K, y, C, gamma,
                                     tol=_EXACT_TOL).is_prox_stationary:
            return None
    return replace(row_state, c=c, b=b, u=u, lam=lam, gamma_k=T, prox_step=gamma)


def _improves(K: np.ndarray, y: np.ndarray, point: AdmmState,
              iterate: AdmmState, C: float) -> bool:
    """Whether the :func:`finish` ``point`` reached from ``iterate`` has a
    zero-one :func:`~zeroone.prox.objective` not above the iterate's.

    The iterate's is taken at its own ``(c, b)`` with the slack they give,
    ``u = 1 - y * (K c + b)``, not with its ``u``, which is zero on
    ``gamma_k`` where they do not put it.  On noisy data the working set's
    KKT point can hold mislabelled points on the margin at a far higher
    objective; this test keeps it out.
    """
    T = point.gamma_k
    Kc = K.dot(iterate.c)
    return bool(objective(LossKind.L01, K[:, T].dot(point.c[T]), point.c, point.u, C)
                <= objective(LossKind.L01, Kc, iterate.c, 1.0 - y * (Kc + iterate.b), C))


def _due(flat: array) -> bool:
    """Whether a zero-one row whose trace holds the ``flat`` values has
    stalled: the least ``max(beta1, |beta2|, beta3, beta4)`` of the last
    ``_STALL_WINDOW`` records is above ``_STALL_RATIO`` times the least of
    the ``_STALL_WINDOW`` before them; ``False`` with fewer records."""
    w, n = _RECORD_WIDTH, 2 * _STALL_WINDOW
    if len(flat) < n * w:
        return False
    res = np.abs(np.reshape(flat[-n * w:], (n, w))[:, :4]).max(axis=1)
    return bool(res[_STALL_WINDOW:].min() > _STALL_RATIO * res[:_STALL_WINDOW].min())


def _run_admm(
    solvers: dict,
    y: np.ndarray,
    hps: list[Hyperparams],
    kind: LossKind,
    init: Optional[AdmmState] = None,
    on_iteration: Optional[Callable[[AdmmState], None]] = None,
    run_on: bool = False,
) -> list:
    """Shared iteration of the zero-one solver and the baselines, run on a
    batch of cells in lockstep.

    Cell ``i`` solves the ``kind`` problem with ``hps[i]`` from the warm
    start ``init`` (all zeros by default), using ``solvers[hps[i].sigma]``
    from :func:`_coefficient_solvers` on the cells' common Gram; the rows
    stay in cell order, each with its solver in ``row_solvers``.  ``kind``
    picks the prox of the slack step and of beta4 and the loss of the
    objective; the dual ascent is masked to the zeroed set for the
    zero-one loss only, and plain for the baselines.

    A cell leaves the batch when it meets its tolerance, when it reaches
    its ``max_iter``, when its solver's set-up or a solve raises a
    ``ZeroOneError``, or after its last polish attempt.  A zero-one row
    that has not met its tolerance is tried at the first
    ``_POLISH_EVERY``-th iteration where :func:`_due` holds on its trace;
    the decision reads nothing but the trace, so the row's records replay
    it.  A :func:`finish` point that :func:`_improves` on the iterate ends
    the row ``"polished"``.  A worse one says the iterate has not yet
    settled near the KKT point its working set leads to, so the row is
    tried once more, at the next such iteration.  No point (a search
    that gave up, at a numerically singular system for one, earns no
    second attempt), or a second rejection, ends the row ``"stalled"``
    with its last iterate, or, with ``run_on``, lets it run on to its
    tolerance or ``max_iter``.
    ``on_iteration(state)`` receives a snapshot of every cell still in
    the batch after each iteration.  Returns, per cell,
    ``(AdmmState, SolveTrace)`` or the error that removed it.
    """
    m = len(y)
    results = [solvers[hp.sigma] for hp in hps]  # set-up errors stay
    rows = [i for i, s in enumerate(results) if not isinstance(s, ZeroOneError)]
    if not rows:
        return results
    row_solvers = [results[i] for i in rows]
    traces = {i: SolveTrace(factor_rank=results[i].factor_rank,
                            setup_s=results[i].setup_s) for i in rows}
    start = init if init is not None else zeros_state(m)

    def full(name):
        # per-row constants are stored as whole rows: numpy broadcasts a
        # (rows, 1) column over a batch several times slower
        return np.repeat([[float(getattr(hps[i], name))] for i in rows], m, axis=1)

    sigma, C = full("sigma"), full("C")
    step_size = full("iota") * sigma  # iota * sigma
    p = ProxParams(gamma=1.0 / sigma, C=C)
    b = np.full((len(rows), 1), float(start.b))
    lam = np.tile(start.lam, (len(rows), 1))
    Kc = np.array([s.K_times(start.c) for s in row_solvers])
    c = np.empty_like(Kc)
    polish = kind == LossKind.L01
    retry = set()  # cells whose first polish point was worse than the iterate

    def state(j, k):
        return AdmmState(c=c[j].copy(), b=float(b[j, 0]), u=u[j].copy(),
                         lam=lam[j].copy(), gamma_k=np.flatnonzero(zeroed[j]),
                         eta=eta[j].copy(), xi=xi[j].copy(), r=r[j].copy(),
                         omega=omega[j].copy(), iter=k)

    for k in range(1, max(hps[i].max_iter for i in rows) + 1):
        lam_s, by = lam / sigma, b * y
        eta = 1.0 - y * Kc - by - lam_s
        u, zeroed = _slack_step(eta, p, kind)
        xi = 1.0 - u - by - lam_s
        failed = _solve_rows(row_solvers, xi, y, sigma, c, Kc)
        yKc = y * Kc
        r = 1.0 - u - yKc - lam_s
        b = np.vecdot(r, y)[:, None] / m
        omega = feasibility(u, yKc, b, y)
        step = step_size * omega + lam
        lam = np.where(zeroed, step, 0.0) if kind == LossKind.L01 else step

        beta1, beta2, beta3, beta4 = scaled_residuals(
            c, u, lam, omega, y, PROX[kind](u - lam / sigma, p))
        objectives = objective(kind, Kc, c, u, C[:, 0])
        records = zip(beta1.tolist(), beta2.tolist(), beta3.tolist(),
                      beta4.tolist(), objectives.tolist(),
                      zeroed.sum(axis=1).tolist())
        leave = dict(failed)
        for j, (i, rec) in enumerate(zip(rows, records)):
            if j in failed:
                continue
            traces[i].flat.extend(rec)
            if on_iteration is not None:
                on_iteration(state(j, k))
            met = max(rec[0], abs(rec[1]), rec[2], rec[3]) < hps[i].eps
            if (polish and not met and k % _POLISH_EVERY == 0
                    and (not traces[i].polish_attempts or i in retry)
                    and _due(traces[i].flat)):
                snap = state(j, k)
                t0 = time.perf_counter()
                point = finish(row_solvers[j].K, y, snap, hps[i].C, hps[i].sigma,
                               row_solvers[j].factor_rank)
                polished = point is not None and _improves(
                    row_solvers[j].K, y, point, snap, hps[i].C)
                traces[i].polish_attempts += 1
                traces[i].polish_s += time.perf_counter() - t0
                if polished:
                    traces[i].termination = "polished"
                    leave[j] = (point, traces[i])
                    continue
                if point is not None and i not in retry:
                    retry.add(i)
                else:
                    retry.discard(i)
                    if not run_on:
                        traces[i].termination = "stalled"
                        leave[j] = (snap, traces[i])
                        continue
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
            row_solvers = [results[i] for i in rows]
            c, Kc, b, lam, sigma, C, step_size = (
                a[keep] for a in (c, Kc, b, lam, sigma, C, step_size))
            p = ProxParams(gamma=1.0 / sigma, C=C)
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
        The final point and the per-iteration residual trace.  The trace
        terminates with ``"tolerance_met"`` (all four scaled residuals
        below ``hp.eps``), ``"polished"`` (the state is the exact KKT
        point :func:`finish` reached from a stalled iterate, with its
        ``prox_step``) or ``"max_iter"``.  The last rejected polish attempt
        does not end the run, as it ends a row of
        :func:`~zeroone.baselines.solve_grid`; the run goes on without
        another.

    Identical dataset, hyperparameters and warm start produce bitwise
    identical traces.
    """
    K = _training_gram(dataset, hp, gram)
    (out,) = _run_admm(_coefficient_solvers(K, [hp.sigma]), dataset.y, [hp],
                       LossKind.L01, init, on_iteration, run_on=True)
    if isinstance(out, ZeroOneError):
        raise out
    return out
