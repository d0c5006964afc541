"""Hinge and squared-hinge solvers sharing the ADMM skeleton.

Both baselines run the zero-one solver's own iteration, ``_run_admm``,
with another :class:`~zeroone.prox.LossKind`: the slack step and the
fixed-point gap use the matching prox, and the dual ascent runs unmasked
(every multiplier accumulates the full feasibility violation).  This
isolates the effect of the loss in any comparison, the solver being
identical.  Baseline support vectors are the samples with a numerically
nonzero multiplier.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import admm
from .admm import AdmmState, Hyperparams, SolveTrace, _run_admm
from .data import Dataset, StandardizeStats
from .kernels import GramMatrix
from .model import TrainedModel, from_solution
from .prox import LOSS, LossKind

# Multipliers below this magnitude count as zero for baseline support sets.
BASELINE_SV_TOL = 1e-6


def objective(kind: LossKind, K, c, u, C) -> float:
    """Regularized objective ``c' K c / 2 + C * loss(u)`` where the loss is
    the positive count, the positive-part sum, or the squared positive-part
    sum by kind."""
    kind = LossKind(kind)
    c = np.asarray(c, dtype=float)
    u = np.asarray(u, dtype=float)
    return 0.5 * float(c @ (K @ c)) + C * LOSS[kind](u)


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
    trace); the baselines run the same iteration with their own ``kind``,
    which swaps the prox of the slack step and of the fixed-point gap and
    drops the dual masking.
    """
    kind = LossKind(kind)
    if kind is LossKind.L01:
        state, trace = admm.solve(dataset, hp, init=init, gram=gram,
                                  on_iteration=on_iteration)
        return state, trace, from_solution(state, dataset, hp, scaling=scaling)

    K = admm._training_gram(dataset, hp, gram)
    state, trace = _run_admm(K, dataset.y, hp, kind, init, on_iteration)
    support = np.flatnonzero(np.abs(state.lam) > BASELINE_SV_TOL)
    model = from_solution(state, dataset, hp, scaling=scaling, support=support)
    return state, trace, model
