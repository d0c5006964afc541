"""Closed-form proximal operators for the three loss kinds, each next to
its unweighted loss, and the tables mapping a :class:`LossKind` to both.

Each operator maps ``eta`` to the coordinatewise minimizer of
``C * loss(v) + (v - eta)^2 / (2 * gamma)``.  Comparisons against the
thresholds use exact floating-point ``>`` / ``<=`` with no epsilon; the
stationarity certificates compensate on their side when they pick a step
size sitting on a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Step size ``gamma`` and loss weight ``C``, both strictly positive."""

    gamma: float
    C: float

    def __post_init__(self):
        if not (self.gamma > 0 and self.C > 0):
            raise ConfigError("gamma and C must be > 0")

    @property
    def tau(self) -> float:
        """Zeroing threshold sqrt(2*gamma*C) of the zero-one hinge prox."""
        return math.sqrt(2.0 * self.gamma * self.C)


def loss_l01(u: np.ndarray) -> float:
    """Zero-one hinge loss ``count(u_i > 0)``."""
    return float(np.count_nonzero(u > 0.0))


def prox_l01(eta, p: ProxParams) -> np.ndarray:
    """Prox of the zero-one hinge loss ``C * count(v_i > 0)``.

    Coordinates in ``(0, tau]`` are set to zero, everything else passes
    through.  The boundary ``eta_i == tau`` maps to zero, which keeps the
    operator single-valued.
    """
    eta = np.asarray(eta, dtype=float)
    return np.where((eta > 0.0) & (eta <= p.tau), 0.0, eta)


def loss_hinge(u: np.ndarray) -> float:
    """Hinge loss ``sum(max(u_i, 0))``."""
    return float(np.sum(np.maximum(u, 0.0)))


def prox_hinge(eta, p: ProxParams) -> np.ndarray:
    """Prox of the hinge loss ``C * sum(max(v_i, 0))``: one-sided soft shrink.

    ``eta_i - gamma*C`` above the shrink width, zero on ``[0, gamma*C]``,
    identity below zero.
    """
    eta = np.asarray(eta, dtype=float)
    gc = p.gamma * p.C
    return np.where(eta > gc, eta - gc, np.where(eta < 0.0, eta, 0.0))


def loss_sqhinge(u: np.ndarray) -> float:
    """Squared hinge loss ``sum(max(u_i, 0)^2)``."""
    pos = np.maximum(u, 0.0)
    return float(np.sum(pos * pos))


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
