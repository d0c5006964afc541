"""Closed-form proximal operators for the three loss kinds, each next to
its unweighted loss, the tables mapping a :class:`LossKind` to both, and
the regularized :func:`objective` of a kind.

Each operator maps ``eta`` to the coordinatewise minimizer of
``C * loss(v) + (v - eta)^2 / (2 * gamma)``.  ``eta`` may be one vector or
a ``(rows, m)`` batch whose rows carry their own ``gamma`` and ``C`` (see
:class:`ProxParams`); each loss is summed per row.  Comparisons against the
thresholds use exact floating-point ``>`` / ``<=`` with no epsilon; the
stationarity certificates compensate on their side when they pick a step
size sitting on a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from enum import Enum

import numpy as np

from .errors import ConfigError


class LossKind(str, Enum):
    """The loss a solve minimizes: the zero-one hinge loss or a baseline."""

    L01 = "l01"
    HINGE = "hinge_l1"
    SQHINGE = "squared_hinge_l2"


@dataclass(frozen=True)
class ProxParams:
    """Step size ``gamma`` and loss weight ``C``, both strictly positive:
    floats, or arrays that broadcast against ``eta`` (the batch solver
    passes whole ``(rows, m)`` rows) giving each row of a batch its own."""

    gamma: float | np.ndarray
    C: float | np.ndarray

    def __post_init__(self):
        if not (np.all(self.gamma > 0) and np.all(self.C > 0)):
            raise ConfigError("gamma and C must be > 0")

    @cached_property
    def tau(self) -> float | np.ndarray:
        """Zeroing threshold sqrt(2*gamma*C) of the zero-one hinge prox."""
        return np.sqrt(2.0 * self.gamma * self.C)


def loss_l01(u: np.ndarray) -> float | np.ndarray:
    """Zero-one hinge loss ``count(u_i > 0)``."""
    return (u > 0.0).sum(axis=-1, dtype=float)


def prox_l01(eta, p: ProxParams) -> np.ndarray:
    """Prox of the zero-one hinge loss ``C * count(v_i > 0)``.

    Coordinates in ``(0, tau]`` are set to zero, everything else passes
    through.  The boundary ``eta_i == tau`` maps to zero, which keeps the
    operator single-valued.
    """
    return prox_l01_zeroed(eta, p)[0]


def prox_l01_zeroed(eta, p: ProxParams) -> tuple[np.ndarray, np.ndarray]:
    """:func:`prox_l01` together with the mask of the coordinates it set
    to zero, those of ``eta`` in ``(0, tau]``."""
    eta = np.asarray(eta, dtype=float)
    zeroed = (eta > 0.0) & (eta <= p.tau)
    return np.where(zeroed, 0.0, eta), zeroed


def loss_hinge(u: np.ndarray) -> float | np.ndarray:
    """Hinge loss ``sum(max(u_i, 0))``."""
    return np.sum(np.maximum(u, 0.0), axis=-1)


def prox_hinge(eta, p: ProxParams) -> np.ndarray:
    """Prox of the hinge loss ``C * sum(max(v_i, 0))``: one-sided soft shrink.

    ``eta_i - gamma*C`` above the shrink width, zero on ``[0, gamma*C]``,
    identity below zero.
    """
    eta = np.asarray(eta, dtype=float)
    gc = p.gamma * p.C
    return np.where(eta > gc, eta - gc, np.where(eta < 0.0, eta, 0.0))


def loss_sqhinge(u: np.ndarray) -> float | np.ndarray:
    """Squared hinge loss ``sum(max(u_i, 0)^2)``."""
    pos = np.maximum(u, 0.0)
    return np.sum(pos * pos, axis=-1)


def prox_sqhinge(eta, p: ProxParams) -> np.ndarray:
    """Prox of the squared hinge loss ``C * sum(max(v_i, 0)^2)``.

    Positive coordinates shrink by ``1 / (1 + 2*gamma*C)``, the rest pass
    through.
    """
    eta = np.asarray(eta, dtype=float)
    return np.where(eta > 0.0, eta / (1.0 + 2.0 * p.gamma * p.C), eta)


PROX = {
    LossKind.L01: prox_l01,
    LossKind.HINGE: prox_hinge,
    LossKind.SQHINGE: prox_sqhinge,
}
LOSS = {
    LossKind.L01: loss_l01,
    LossKind.HINGE: loss_hinge,
    LossKind.SQHINGE: loss_sqhinge,
}


def objective(kind: LossKind, Kc, c, u, C) -> float | np.ndarray:
    """Regularized objective ``c' K c / 2 + C * loss(u)`` from the product
    ``Kc = K c``, where the loss is the positive count, the positive-part
    sum, or the squared positive-part sum by kind.  ``c``, ``Kc`` and ``u``
    may be ``(rows, m)`` batches with ``C`` one value per row; the result
    is then one objective per row."""
    return 0.5 * np.vecdot(c, Kc) + C * LOSS[LossKind(kind)](u)
