"""Four-step ADMM for the zero-one hinge-loss kernel SVM.

The solver alternates, per iteration, (1) a thresholding update of the
slack vector ``u`` via the zero-one hinge prox, (2) a linear solve for the
coefficients ``c``, (3) a closed-form bias update and (4) a dual ascent on
``lambda`` that is masked to the index set picked out by the threshold
rule.  Stopping monitors the four scaled residuals ``beta1..beta4`` of
:func:`zeroone.stationarity.scaled_residuals` (stationarity, dual balance,
feasibility and the prox fixed-point gap at step ``1/sigma``).  The run
stops once ``max(beta1, |beta2|, beta3, beta4) < eps``, or when
:func:`finish` takes an iterate to an exact KKT point: a stalled
zero-one iterate, or any baseline iterate from iteration 50 on; a
zero-one run whose stalled iterate the polish cannot improve on stops
there too.

One loop, :func:`_run_admm`, advances a batch of cells (one loss kind, any
``(C, sigma)`` per cell, one Gram) in lockstep: the state is ``(cells, m)``
C-ordered, the elementwise steps run on the whole batch, and the
matrix-vector products, the guarded coefficient solves and the dot
products run per row with the calls a single vector makes, so each cell's
trace is bitwise the same whether it is solved alone or in a batch.  A
single solve is a batch of one.
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
# gives up earns no second); _due reads the _STALL_ constants.  It tries a
# baseline row at every _POLISH_EVERY-th iteration from _STALL_WINDOW on,
# and at the one where it meets its tolerance.  A finished point must be
# prox-stationary within _EXACT_TOL: at the step construct_gamma builds
# for a zero-one point, at 1/sigma for a baseline's.
_POLISH_EVERY = 10
_STALL_WINDOW = 50
_STALL_RATIO = 0.5
_EXACT_TOL = 1e-8


@dataclass
class Hyperparams:
    """Solver settings: loss weight C, penalty sigma, dual step iota,
    stopping tolerance eps (each finite and > 0), iteration cap (an
    integer >= 1, not a boolean) and the kernel.

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
        n = self.max_iter
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise InputError(f"max_iter must be >= 1 and an integer, got {n!r}")

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

    A point from :func:`finish` has ``lam == -y * c`` and ``u == 1 - y *
    (K c + b)``, exactly zero on ``gamma_k``; its ``eta``, ``xi``, ``r``,
    ``omega`` and ``iter`` are those of the iterate it was finished from.
    A zero-one point has ``gamma_k`` its active set and ``c`` zero off it,
    and ``prox_step`` is the step at which it is prox-stationary, from
    :func:`~zeroone.stationarity.construct_gamma`.  An ADMM iterate and a
    finished baseline point have no ``prox_step``: their step is
    ``1/sigma``.
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
    below ``eps``), ``"polished"`` (a row whose :func:`finish` point was
    accepted; the iterations are those run before it),
    ``"stalled"`` (a zero-one row whose last polish attempt was rejected;
    the state is its last iterate) or ``"max_iter"``.

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
      products over ``L``.  That reads ``4 m r`` entries, against ``2 m^2``
      for the two products below, hence the cutoff.  ``M^-1`` is held in
      full.  ``factor_rank`` is ``r``.  Before use, the factor is checked
      once against ``K`` itself: on a fixed probe vector ``p``,
      ``||K p - L L^T p|| <= 1e-8 ||p|| / sigma``, the residual guard's
      tolerance for ``c = p``.  A symmetric indefinite ``K``, whose pivots
      can look low-rank, fails this check.
    * otherwise, or when the check fails: ``A^-1`` is held explicitly, so
      a solve is one matrix-vector product, and ``K c`` a second one on
      ``K``.  Forming the inverse is safe, because ``cond(A) <= 1 + sigma *
      lambda_max(K)``.  ``factor_rank`` is ``None``.

    Both representations invert their small or full matrix the same way
    (:meth:`_inverse`) and compute every product with numpy
    (``ndarray.dot``).  Every matrix an iteration reads is F-ordered, so
    nothing is copied; ``K`` is symmetric to the bit, so its free
    F-ordered transpose view stands in.

    Every solve is checked: ``||K c + c/sigma - diag(y) xi|| <=
    1e-8 (1 + ||xi||)`` with ``K c`` computed from the representation in
    use (``L (L^T c)`` or ``K c``), not derived.  A failed or NaN check
    raises ``NumericalError``, and so does a non-finite or indefinite
    matrix at set-up, which rounding can cause when ``sigma *
    |lambda_min(K)|`` reaches 1.

    ``setup_s`` is the wall time, in seconds, to build the solver,
    including its Gram factor's.
    """

    def __init__(self, f: _GramFactor, sigma: float):
        self.K, self.sigma = f.K, sigma
        self.L = self.factor_rank = None
        t0 = time.perf_counter()
        if f.L is not None and f.probe_err <= _SOLVE_RTOL * f.probe_norm / sigma:
            self.L, self.factor_rank = f.L, f.rank
            self.M_inv = self._inverse(f.G)
        else:
            self.A_inv = self._inverse(self.K)
        self.setup_s = f.setup_s + time.perf_counter() - t0

    def _inverse(self, A: np.ndarray) -> np.ndarray:
        """``(A + I/sigma)^-1`` in the buffer of :meth:`_plus_identity`.
        numpy's Cholesky factorization is the positive-definiteness check
        (it returns a NaN factor for a NaN entry, hence the finiteness
        check); its LU inverse took less time than inverting the factor."""
        A = self._plus_identity(A)
        if not np.isfinite(A).all():
            raise self._breakdown("non-finite entries")
        try:
            np.linalg.cholesky(A)
            A[...] = np.linalg.inv(A)
        except np.linalg.LinAlgError as exc:
            raise self._breakdown(str(exc)) from None
        return A

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
            return self.K.dot(c)
        return self.L.dot(self.L.T.dot(c))

    def apply(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unchecked ``c = A^-1 d`` and ``K c`` for one right-hand side
        ``d = diag(y) xi``; :func:`_solve_rows` checks them."""
        if self.L is None:
            c = self.A_inv.dot(d)
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


def _bordered_solve(K: np.ndarray, T: np.ndarray, rhs: np.ndarray, total: float,
                    ridge: float, rank: Optional[int]):
    """``c_T``, ``b`` and ``K[:, T] c_T`` for the bordered system
    ``(K_TT + ridge I) c_T + b 1 = rhs`` with ``sum(c_T) = total``; ``None``
    when ``T`` is empty, when the system is exactly singular, or when its
    solution misses it.

    Each call solves its system afresh with ``np.linalg.solve`` (an inverse
    of ``K_TT`` kept up to date by bordering drifted until no point passed
    the certificate).  It gathers the columns ``K[:, T]`` once and takes
    both ``K_TT`` (their rows ``T``) and ``K[:, T] c_T`` from them (a
    second gather, ``K[np.ix_(T, T)]``, cost more than both).  The miss is
    the residual ``||((K_TT + ridge I) c_T + b 1 - rhs, sum(c_T) -
    total)||``, read off the ``K[:, T] c_T`` the caller needs anyway; it
    must be at most ``_SOLVE_RTOL (1 + ||rhs||)``, the coefficient solve's
    guard.  A numerically singular system as a rule misses it by far: its
    solution is rounding noise, of order 1e14, so the index a search would
    move next is arbitrary and the search can flip between two sets for
    good.  The one exception is an unridged system on more indices than
    ``rank``, the rank of the Gram's low-rank factor (``None`` when there
    is none): there every ``K_TT`` is singular, whatever ``T`` is, so the
    solution is returned unchecked, and dropping indices is how a search
    gets down to a set it can solve.
    """
    n = len(T)
    if n == 0:
        return None
    KT = K[:, T]
    A = np.empty((n + 1, n + 1))
    A[:n, :n] = KT[T]
    A[:n, :n].flat[::n + 1] += ridge
    A[n, :n] = A[:n, n] = 1.0
    A[n, n] = 0.0
    x = np.empty(n + 1)
    x[:n], x[n] = rhs, total
    try:
        sol = np.linalg.solve(A, x)
    except np.linalg.LinAlgError:
        return None
    c_T, b = sol[:n], float(sol[n])
    KcT = KT.dot(c_T)
    x[:n], x[n] = KcT[T] + ridge * c_T + b - rhs, c_T.sum() - total
    if (ridge or rank is None or n <= rank) and not (
            math.sqrt(x.dot(x)) <= _SOLVE_RTOL * (1.0 + math.sqrt(rhs.dot(rhs)))):
        return None
    return c_T, b, KcT


def _finish_step(K, y, side, KcB, yB, C, ridge, rank):
    """``M``, ``c``, ``b`` and ``u = 1 - y (K c + b)`` at the walk ``side``
    of a :func:`finish` search, or ``None`` when :func:`_bordered_solve`
    gives up: with ``c_B = C y_B`` and ``c`` zero on the free points, it
    solves ``(K_MM + ridge I) c_M + b 1 = y_M - (K c_B)_M`` with
    ``sum(c_M) = -C yB``, from ``KcB = K c_B`` and ``yB = sum(y_B)``
    carried by the walk (no step gathers the columns of ``B``, and a sum
    of labels carries no rounding).  Unridged, ``u`` is 0 on ``M``."""
    M = np.flatnonzero(side == 0)
    solved = _bordered_solve(K, M, y[M] - KcB[M], -C * yB, ridge, rank)
    if solved is None:
        return None
    c = np.where(side > 0, C * y, 0.0)
    c[M], b, KcM = solved
    u = 1.0 - y * (KcM + KcB + b)
    if not ridge:
        u[M] = 0.0
    return M, c, b, u


def _move_l01(K, y, side, KcB, yB, c, u, C, sigma):
    """Zero-one move over the active set ``M``: drop the largest positive
    multiplier ``lam_i = -y_i c_i``, or, when no ``lam_i`` is positive,
    add the largest slack that the slack step at ``1/sigma`` would zero;
    with neither, the point is final (returns ``True``)."""
    lam = -y * c
    if lam.max() > 0.0:
        side[np.argmax(lam)] = -1
        return False
    near = prox_l01_zeroed(u, ProxParams(1.0 / sigma, C))[1]
    if near.any():
        side[np.argmax(np.where(near, u, 0.0))] = 0
    return not near.any()


def _move_hinge(K, y, side, KcB, yB, c, u, C, sigma):
    """Hinge move over the margin ``M`` (``alpha = y c`` free), bound ``B``
    (``alpha = C``) and free (``alpha = 0``) sets: move the worst
    violator, ``alpha < 0`` (to free) or ``alpha > C`` (to ``B``) on
    ``M``, or ``y f < 1`` when free or ``y f > 1`` on ``B`` (to ``M``),
    each in its own unit, ``C`` for ``alpha`` and the margin for ``y f``
    (a sixth fewer solves on ``grid-small``'s grid than ``alpha``
    unscaled), and update ``KcB`` and ``yB`` when ``i`` enters or leaves
    ``B``.  With none above ``_EXACT_TOL``, the point is final.  Moving
    every violator at once can cycle."""
    alpha = y * c
    violation = np.where(side == 0, np.maximum(-alpha, alpha - C) / C, -side * u)
    i = np.argmax(violation)
    if not violation[i] > _EXACT_TOL:
        return True
    new = np.sign(alpha[i]) if side[i] == 0 else 0
    into_B = int(new > 0) - int(side[i] > 0)  # 1 enters B, -1 leaves it
    if into_B:
        KcB += into_B * C * y[i] * K[:, i]
        yB += into_B * y[i]
    side[i] = new
    return False


def _move_sqhinge(K, y, side, KcB, yB, c, u, C, sigma):
    """Squared-hinge move: ``M`` becomes ``{u > 0}``; the point is final
    when it was that set already."""
    done = np.array_equal(u > 0.0, side == 0)
    side[...] = (u > 0.0) - 1
    return done


def finish(K: np.ndarray, y: np.ndarray, row_state: AdmmState, C: float,
           sigma: float, rank: Optional[int] = None,
           kind: LossKind = LossKind.L01) -> Optional[AdmmState]:
    """Finish an iterate of the ``kind`` loss at an exact KKT point by an
    active-set search; ``None`` when the search reaches no such point.

    Each step solves at the walk ``side`` (:func:`_finish_step`), one int8
    per sample, then the ``kind``'s move rule changes it.  The walk starts
    from the iterate:

    * zero-one (:func:`_move_l01`): ``M`` is ``row_state.gamma_k``;
    * hinge (:func:`_move_hinge`): ``side`` is the sign of ``row_state.u``;
    * squared hinge (:func:`_move_sqhinge`): ``M = {u > 0}``, with the
      ridge ``1/(2C)``; this took 1-3 solves.

    Each step depends on its walk alone (the hinge step up to the rounding
    of its carried ``K c_B``), so a walk met before means the search
    cycles, and it gives up there, as it does at a system
    :func:`_bordered_solve` cannot solve and after ``2 m + 10`` steps.

    The final point counts as exact when its four scaled residuals are at
    most ``_EXACT_TOL`` with the ``kind`` prox
    (``check_prox_stationary``).  For the zero-one kind the step is the
    one :func:`~zeroone.stationarity.construct_gamma` builds for it (its
    ``lam <= 0`` on ``M`` and ``lam = 0`` off it is the KKT sign pattern),
    which, by the paper's equivalence, makes the point KKT, and the point
    carries that step as ``prox_step`` (see :class:`AdmmState`); whether
    it improves on the iterate is :func:`_run_admm`'s decision.  For a
    convex kind the step is ``1/sigma``, and an exact point is the
    optimum.
    """
    kind = LossKind(kind)
    if kind is LossKind.L01:
        move, ridge, side = _move_l01, 0.0, np.full(len(y), -1, np.int8)
        side[row_state.gamma_k] = 0
    elif kind is LossKind.HINGE:
        move, ridge, side = _move_hinge, 0.0, np.sign(row_state.u).astype(np.int8)
    else:
        move, ridge = _move_sqhinge, 0.5 / C
        side = (row_state.u > 0.0).astype(np.int8) - 1
    B = np.flatnonzero(side > 0)
    KcB, yB = K[:, B].dot(C * y[B]), np.array(y[B].sum())
    seen = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2 * len(y) + 10):
            if side.tobytes() in seen:
                return None
            seen.add(side.tobytes())
            out = _finish_step(K, y, side, KcB, yB, C, ridge, rank)
            if out is None:
                return None
            M, c, b, u = out
            if move(K, y, side, KcB, yB, c, u, C, sigma):
                break
        else:
            return None
        lam = -y * c
        gamma = construct_gamma(u, lam, C, tol=_EXACT_TOL) \
            if kind is LossKind.L01 else 1.0 / sigma
        if not check_prox_stationary(c, b, u, lam, K, y, C, gamma, tol=_EXACT_TOL,
                                     kind=kind).is_prox_stationary:
            return None
    return replace(row_state, c=c, b=b, u=u, lam=lam,
                   gamma_k=np.flatnonzero(u == 0.0) if ridge else M,
                   prox_step=gamma if kind is LossKind.L01 else None)


def slack_objective(kind: LossKind, K: np.ndarray, y: np.ndarray,
                    state: AdmmState, C: float) -> float:
    """The ``kind`` :func:`~zeroone.prox.objective` of the classifier
    ``(c, b)`` of ``state`` at its consistent slack ``u = 1 - y * (K c +
    b)``.  An ADMM iterate's own ``u`` is its slack step's output, which
    reads low: the zero-one one is zero on ``gamma_k``, where ``(c, b)``
    do not put it.  A polished zero-one point (one with a ``prox_step``)
    keeps its own ``u``: that is the same slack with its active set at
    exactly 0, where rounding would otherwise decide the count; its ``c``
    is zero off that set, so ``K c`` reads only the set's columns."""
    polished = state.prox_step is not None
    T = state.gamma_k if polished else slice(None)
    Kc = K[:, T].dot(state.c[T])
    u = state.u if polished else 1.0 - y * (Kc + state.b)
    return float(objective(kind, Kc, state.c, u, C))


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
    ``ZeroOneError``, when a :func:`finish` point is accepted, or after
    its last zero-one polish attempt.  A baseline row is tried at every
    ``_POLISH_EVERY``-th iteration from ``_STALL_WINDOW`` on, and at the
    iteration where it meets its tolerance; an exact point of a convex
    loss is its optimum, so the first one ends the row ``"polished"``,
    and a search that gives up leaves the row iterating.  (Trying from
    iteration 10 took more time on ``grid-small``'s grid than the
    iterations it saved.)  A zero-one row that has not met its tolerance
    is tried at the first
    ``_POLISH_EVERY``-th iteration where :func:`_due` holds on its trace;
    the decision reads nothing but the trace, so the row's records replay
    it.  A :func:`finish` point whose :func:`slack_objective` is not above
    the iterate's ends the row ``"polished"`` (on noisy data the working
    set's KKT point can hold mislabelled points on the margin at a far
    higher objective).  A worse one says the iterate has not yet
    settled near the KKT point its working set leads to, so the row is
    tried once more, at the next such iteration.  No point (a search
    that gave up, at a numerically singular system for one, earns no
    second attempt), or a second rejection, ends the row ``"stalled"``
    with its last iterate.
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
    l01 = kind == LossKind.L01

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
        lam = np.where(zeroed, step, 0.0) if l01 else step

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
            if l01:
                due = not met and k % _POLISH_EVERY == 0 and _due(traces[i].flat)
            else:
                due = met or (k >= _STALL_WINDOW and k % _POLISH_EVERY == 0)
            if due:
                snap = state(j, k)
                t0 = time.perf_counter()
                point = finish(row_solvers[j].K, y, snap, hps[i].C, hps[i].sigma,
                               row_solvers[j].factor_rank, kind)
                polished = point is not None and (not l01 or slack_objective(
                    kind, row_solvers[j].K, y, point, hps[i].C) <= slack_objective(
                    kind, row_solvers[j].K, y, snap, hps[i].C))
                traces[i].polish_attempts += 1
                traces[i].polish_s += time.perf_counter() - t0
                if polished:
                    traces[i].termination = "polished"
                    leave[j] = (point, traces[i])
                    continue
                # a row still here made no attempt before this one, or
                # one whose point was worse than its iterate
                if l01 and (point is None or traces[i].polish_attempts == 2):
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
        ``prox_step``), ``"stalled"`` (the last polish attempt was
        rejected; the state is that stalled iterate) or ``"max_iter"``,
        as for a row of :func:`~zeroone.baselines.solve_grid`.

    Identical dataset, hyperparameters and warm start produce bitwise
    identical traces.
    """
    K = _training_gram(dataset, hp, gram)
    (out,) = _run_admm(_coefficient_solvers(K, [hp.sigma]), dataset.y, [hp],
                       LossKind.L01, init, on_iteration)
    if isinstance(out, ZeroOneError):
        raise out
    return out
