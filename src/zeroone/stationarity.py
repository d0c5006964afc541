"""Certification of first-order optimality for the zero-one hinge-loss SVM.

Two certificates are offered for a quadruple ``(c, b, u, lam)``:

* a KKT check: stationarity, dual balance, feasibility, and membership of
  ``-lam/C`` in the subdifferential of the zero-one hinge loss at ``u``;
* a prox-stationarity check: the same three residuals plus the fixed-point
  identity ``prox(u - gamma*lam) == u`` for a given step ``gamma``, with
  the zero-one prox or, for a finished baseline point, its loss's prox.

A KKT point admits a step size making it prox-stationary and vice versa;
:func:`construct_gamma` builds that step constructively and
:func:`equivalence_roundtrip` exercises the equivalence in both directions.

Residual scaling: :func:`scaled_residuals` is the one home of the four
scaled residuals, used both by the certificates and by the solver's
stopping rule: ``||c + diag(y) lam|| / (1 + ||c|| + ||lam||)`` for
stationarity, ``<y, lam> / m``, ``||omega|| / sqrt(m)`` and
``||u - prox(u - gamma*lam)|| / (1 + ||u||)``.  :func:`feasibility` is the
one home of ``omega = u + diag(y) K c + b y - 1``, used by the solver's
dual step and stopping rule and by the certificates.  The stationarity
residual uses the kernel-free strong form; it vanishing implies the
kernel-weighted form does too, so certification is conservative.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import InputError
from .prox import PROX, LossKind, ProxParams

# Shrink factors keeping the constructed step strictly inside the region
# where the single-valued prox reproduces the point.  The positive-slack
# branch needs a real margin (the exact value puts a kept coordinate on the
# zeroing threshold); the multiplier branch only needs to absorb float
# rounding of the threshold comparison.
_POS_BRANCH_SHRINK = 1.0 - 1e-6
_MULT_BRANCH_SHRINK = 1.0 - 1e-9


@dataclass(frozen=True)
class StationarityReport:
    """Per-condition residuals and the verdicts of one certification call.

    ``is_kkt`` / ``is_prox_stationary`` is ``None`` when the corresponding
    check was not evaluated; the one that was is true iff every evaluated
    block is within ``tol``.
    """

    is_kkt: Optional[bool]
    is_prox_stationary: Optional[bool]
    gamma_used: Optional[float]
    res_stationary: float
    res_dual_balance: float
    res_feasibility: float
    res_prox: Optional[float]
    subdiff_ok: Optional[bool]
    tol: float

    def to_dict(self) -> dict:
        return asdict(self)


def subdiff_l01_contains(u, v, tol: float = 1e-9) -> bool:
    """Membership of ``v`` in the limiting subdifferential of
    ``count(u_i > 0)`` at ``u``.

    True iff every coordinate satisfies ``u_i == 0 and v_i >= 0`` or
    ``u_i != 0 and v_i == 0``, with equalities tested within ``tol``.
    The set is a cone on the zero coordinates, so membership of ``-lam/C``
    does not depend on the loss weight ``C``.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise InputError(f"shape mismatch: {u.shape} vs {v.shape}")
    zero = np.abs(u) <= tol
    if not np.all(v[zero] >= -tol):
        return False
    return bool(np.all(np.abs(v[~zero]) <= tol))


def feasibility(u, yKc, b, y) -> np.ndarray:
    """Feasibility vector ``omega = u + diag(y) K c + b y - 1``, from a
    precomputed ``yKc = y * (K c)``; for a batch, ``b`` is a ``(rows, 1)``
    column.  The one home of ``omega``, for the solver's dual step and the
    certificates."""
    return u + yKc + b * y - 1.0


def row_norms(X) -> np.ndarray:
    """Euclidean norm of a vector, or of each row of a batch, as
    ``sqrt(x @ x)``: ``np.linalg.norm``'s own formula for a real vector.
    ``np.vecdot`` makes one BLAS dot per row, so a row's norm is bitwise
    the norm of that row alone."""
    return np.sqrt(np.vecdot(X, X))


def scaled_residuals(c, u, lam, omega, y, u_prox=None):
    """The four scaled residuals ``(beta1, beta2, beta3, beta4)``.

    ``omega`` is the :func:`feasibility` vector and ``u_prox`` the prox
    image ``prox(u - gamma*lam)``; ``beta4`` is ``None`` without it.
    ``beta2`` is returned signed; the stopping rule and the certificates
    take its absolute value.  Each residual is a float for vector inputs,
    and an array with one entry per row for ``(rows, m)`` batches, whose
    rows share the label vector ``y``.
    """
    m = len(y)
    beta1 = row_norms(c + y * lam) / (1.0 + row_norms(c) + row_norms(lam))
    beta2 = np.vecdot(lam, y) / m
    beta3 = row_norms(omega) / math.sqrt(m)
    beta4 = None if u_prox is None else row_norms(u - u_prox) / (
        1.0 + row_norms(u))
    if np.ndim(c) == 1:
        return (float(beta1), float(beta2), float(beta3),
                None if beta4 is None else float(beta4))
    return beta1, beta2, beta3, beta4


def check_kkt(c, b, u, lam, K, y, C, tol: float = 1e-8) -> StationarityReport:
    """KKT certificate at tolerance ``tol``.

    The subdifferential condition is the inclusion of ``-lam`` in
    :func:`subdiff_l01_contains`, which stands for ``-lam/C`` because the
    set is a cone: ``lam_i <= tol`` wherever ``|u_i| <= tol`` and
    ``|lam_i| <= tol`` elsewhere.
    """
    c = np.asarray(c, dtype=float)
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    r_stat, r_dual, r_feas, _ = scaled_residuals(
        c, u, lam, feasibility(u, y * (K @ c), b, y), y)
    r_dual = abs(r_dual)
    subdiff_ok = subdiff_l01_contains(u, -lam, tol)
    ok = r_stat <= tol and r_dual <= tol and r_feas <= tol and subdiff_ok
    return StationarityReport(
        is_kkt=ok, is_prox_stationary=None, gamma_used=None,
        res_stationary=r_stat, res_dual_balance=r_dual, res_feasibility=r_feas,
        res_prox=None, subdiff_ok=subdiff_ok, tol=tol,
    )


def construct_gamma(u, lam, C, tol: float = 1e-9) -> float:
    """Build a prox step size certifying a multiplier with a valid KKT sign
    pattern.

    With ``P = {i : u_i > 0}`` and ``Z = {i : u_i == 0}`` (classified
    within ``tol``), the step is the minimum of ``2C / max_Z(lam_i^2)``
    (present when some multiplier on ``Z`` is negative) and
    ``min_P(u_i^2) / (2C)``, each shrunk slightly so the single-valued
    prox keeps every positive slack and zeroes every multiplier image
    strictly inside its threshold; 1.0 when neither set constrains.

    Raises
    ------
    InputError
        If ``(u, lam)`` violates the KKT sign pattern (nonzero multiplier
        on a nonzero slack, or a positive multiplier beyond ``tol``).
    """
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if C <= 0:
        raise InputError("C must be > 0")
    if not subdiff_l01_contains(u, -lam, tol):
        raise InputError("(u, lam) violates the KKT multiplier sign pattern")
    zero = np.abs(u) <= tol
    positive = u > tol
    neg_mult = zero & (lam < -tol)
    candidates = []
    if np.any(neg_mult):
        candidates.append(
            _MULT_BRANCH_SHRINK * 2.0 * C / float(np.max(lam[zero] ** 2))
        )
    if np.any(positive):
        candidates.append(
            _POS_BRANCH_SHRINK * float(np.min(u[positive] ** 2)) / (2.0 * C)
        )
    return min(candidates) if candidates else 1.0


def check_prox_stationary(c, b, u, lam, K, y, C, gamma, tol: float = 1e-8,
                          kind: LossKind = LossKind.L01) -> StationarityReport:
    """Prox-stationarity certificate at step ``gamma`` and tolerance ``tol``.

    Evaluates the stationarity, dual-balance and feasibility residuals plus
    the fixed-point gap ``||u - prox(u - gamma*lam)|| / (1 + ||u||)`` with
    the prox of the ``kind`` loss (the zero-one one by default); all four
    within ``tol`` certifies the point.
    """
    if not gamma > 0:
        raise InputError("gamma must be > 0")
    c = np.asarray(c, dtype=float)
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    p = ProxParams(gamma=float(gamma), C=float(C))
    r_stat, r_dual, r_feas, r_prox = scaled_residuals(
        c, u, lam, feasibility(u, y * (K @ c), b, y), y,
        PROX[LossKind(kind)](u - gamma * lam, p))
    r_dual = abs(r_dual)
    ok = r_stat <= tol and r_dual <= tol and r_feas <= tol and r_prox <= tol
    return StationarityReport(
        is_kkt=None, is_prox_stationary=ok, gamma_used=float(gamma),
        res_stationary=r_stat, res_dual_balance=r_dual, res_feasibility=r_feas,
        res_prox=r_prox, subdiff_ok=None, tol=tol,
    )


def equivalence_roundtrip(c, b, u, lam, K, y, C, tol: float = 1e-8) -> bool:
    """True when the KKT verdict agrees with prox-stationarity under the
    constructed step size.

    A sign-pattern violation inside :func:`construct_gamma` counts as a
    failed prox witness rather than an error, so a quadruple failing both
    checks agrees vacuously.
    """
    kkt = check_kkt(c, b, u, lam, K, y, C, tol=tol).is_kkt
    try:
        gamma = construct_gamma(u, lam, C, tol=tol)
    except InputError:
        prox_ok = False
    else:
        prox_ok = check_prox_stationary(
            c, b, u, lam, K, y, C, gamma, tol=tol
        ).is_prox_stationary
    return bool(kkt) == bool(prox_ok)
