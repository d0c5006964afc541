"""Hinge and squared-hinge solvers sharing the ADMM skeleton.

Both baselines reuse the exact iteration of the zero-one solver with two
swaps: the slack update uses the matching prox, and the dual ascent runs
unmasked (every multiplier accumulates the full feasibility violation).
This isolates the effect of the loss in any comparison, the solver being
identical.  Baseline support vectors are the samples with a numerically
nonzero multiplier.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

import numpy as np

from . import admm
from .admm import AdmmState, Hyperparams, SolveTrace, _run_admm
from .data import Dataset, StandardizeStats
from .kernels import GramMatrix
from .model import TrainedModel, from_solution
from .prox import (ProxParams, loss_hinge, loss_l01, loss_sqhinge, prox_hinge,
                   prox_l01, prox_sqhinge)

# Multipliers below this magnitude count as zero for baseline support sets.
BASELINE_SV_TOL = 1e-6


class LossKind(str, Enum):
    L01 = "l01"
    HINGE = "hinge_l1"
    SQHINGE = "squared_hinge_l2"


_PROX = {
    LossKind.L01: prox_l01,
    LossKind.HINGE: prox_hinge,
    LossKind.SQHINGE: prox_sqhinge,
}
_LOSS = {
    LossKind.L01: loss_l01,
    LossKind.HINGE: loss_hinge,
    LossKind.SQHINGE: loss_sqhinge,
}


def objective(kind: LossKind, K, c, u, C) -> float:
    """Regularized objective ``c' K c / 2 + C * loss(u)`` where the loss is
    the positive count, the positive-part sum, or the squared positive-part
    sum by kind."""
    kind = LossKind(kind)
    c = np.asarray(c, dtype=float)
    u = np.asarray(u, dtype=float)
    return 0.5 * float(c @ (K @ c)) + C * _LOSS[kind](u)


def solve_baseline(
    dataset: Dataset,
    hp: Hyperparams,
    kind: LossKind,
    init: Optional[AdmmState] = None,
    gram: Optional[GramMatrix] = None,
    scaling: Optional[StandardizeStats] = None,
    on_iteration=None,
) -> tuple[AdmmState, SolveTrace, TrainedModel]:
    """Train a classifier with the selected loss via the shared ADMM.

    ``l01`` routes to :func:`zeroone.admm.solve` unchanged (identical
    trace); the baselines replace the slack prox and drop the dual
    masking.  Stopping reuses the scaled residuals with the fixed-point
    gap evaluated under the matching prox.
    """
    kind = LossKind(kind)
    if kind is LossKind.L01:
        state, trace = admm.solve(dataset, hp, init=init, gram=gram,
                                  on_iteration=on_iteration)
        return state, trace, from_solution(state, dataset, hp, scaling=scaling)

    K = admm._training_gram(dataset, hp, gram)
    p = ProxParams(gamma=1.0 / hp.sigma, C=hp.C)
    prox = _PROX[kind]

    def update_slack(eta):
        u = prox(eta, p)
        return u, np.flatnonzero(u == 0.0)

    state, trace = _run_admm(
        K, dataset.y, hp,
        update_slack=update_slack,
        fixed_point_prox=lambda v: prox(v, p),
        mask_dual=False,
        loss_term=_LOSS[kind],
        init=init,
        on_iteration=on_iteration,
    )
    support = np.flatnonzero(np.abs(state.lam) > BASELINE_SV_TOL)
    model = from_solution(state, dataset, hp, scaling=scaling, support=support)
    return state, trace, model
