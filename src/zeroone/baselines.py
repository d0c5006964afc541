"""Solves of any loss through the zero-one solver's ADMM loop.

:func:`solve_grid` solves a whole (loss, C, sigma) grid on one Gram, one
lockstep batch of the zero-one solver's own iteration, ``_run_admm``, per
:class:`~zeroone.prox.LossKind`; :func:`solve_baseline` is a one-cell
grid.  For the hinge and squared-hinge baselines the slack step and the
fixed-point gap use the matching prox, and the dual ascent runs unmasked
(every multiplier accumulates the full feasibility violation).  This
isolates the effect of the loss in any comparison, the solver being
identical.  Each row then ends where :func:`zeroone.admm.finish` takes
it, with the search of its own loss: a baseline row at its exact
optimum, a zero-one row at an exact KKT point when one improves on its
iterate.
"""

from __future__ import annotations

import time
from typing import Optional

from . import admm
from .admm import AdmmState, Hyperparams, SolveTrace, _run_admm
from .data import Dataset, StandardizeStats
from .errors import InputError, ZeroOneError
from .kernels import GramMatrix
from .model import TrainedModel, from_solution
from .prox import LossKind


def solve_baseline(
    dataset: Dataset,
    hp: Hyperparams,
    kind: LossKind,
    gram: Optional[GramMatrix] = None,
    scaling: Optional[StandardizeStats] = None,
) -> tuple[AdmmState, SolveTrace, TrainedModel]:
    """Train a classifier with the selected loss via the shared ADMM: a
    one-cell :func:`solve_grid`, whose error, if the cell fails, is
    raised."""
    (out,) = solve_grid(dataset, [hp], [kind], gram=gram, scaling=scaling)
    if isinstance(out, ZeroOneError):
        raise out
    return out[:3]


def solve_grid(
    dataset: Dataset,
    hps: list[Hyperparams],
    kinds,
    gram: Optional[GramMatrix] = None,
    scaling: Optional[StandardizeStats] = None,
) -> list:
    """Solve every ``(kind, hp)`` cell on ``dataset``: one lockstep batch
    per kind over all of ``hps``, whose kernel they must share, with one
    coefficient solver per ``sigma`` shared by every kind.

    Returns one entry per cell in kind-major order, each either
    ``(state, trace, model, wall_s)`` or the ``ZeroOneError`` that removed
    the cell from its batch; every other cell is unaffected by it, and
    each is bitwise the cell solved alone.  ``wall_s`` is the
    cell's share of its batch's wall time (the iterations and the models),
    in proportion to its iterations, so the shares of a kind sum to its
    batch's time.  The Gram and the solvers' set-up are timed in no cell.
    """
    if any(hp.kernel != hps[0].kernel for hp in hps):
        raise InputError("the cells of a grid must share one kernel")
    K = admm._training_gram(dataset, hps[0], gram)
    solvers = admm._coefficient_solvers(K, [hp.sigma for hp in hps])
    cells = []
    for kind in map(LossKind, kinds):
        t0 = time.perf_counter()
        batch = [out if isinstance(out, ZeroOneError)
                 else (*out, from_solution(out[0], dataset, hp, scaling, kind))
                 for out, hp in zip(_run_admm(solvers, dataset.y, hps, kind), hps)]
        wall = time.perf_counter() - t0
        done = [out for out in batch if not isinstance(out, ZeroOneError)]
        iters = sum(out[1].iterations for out in done)
        cells += [out if isinstance(out, ZeroOneError)
                  else (*out, wall * out[1].iterations / iters) for out in batch]
    return cells
