"""Deployable classifier built from a solved state: decision function,
prediction, support-vector extraction, accuracy, JSON persistence."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .admm import AdmmState, Hyperparams
from .data import Dataset, StandardizeStats
from .errors import InputError
from .kernels import KernelSpec, cross_matrix, data_fingerprint

MODEL_FORMAT_VERSION = 1

# Slack on the inclusive right endpoint of the support interval, absorbing
# float rounding of the threshold itself.
_SUPPORT_TOL = 1e-9


def support_vectors(u, lam, C, gamma, tol: float = _SUPPORT_TOL) -> np.ndarray:
    """Support set of a solution: indices with
    ``u_i - gamma*lam_i`` in ``(0, sqrt(2*gamma*C)]``.

    The right endpoint is inclusive with ``tol`` slack.  At a certified
    stationary point this agrees with the multiplier characterization of
    :func:`support_vectors_dual`.
    """
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    v = u - gamma * lam
    tau = math.sqrt(2.0 * gamma * C)
    return np.flatnonzero((v > 0.0) & (v <= tau + tol))


def support_vectors_dual(lam, C, gamma, tol: float = _SUPPORT_TOL) -> np.ndarray:
    """Multiplier form of the support set:
    ``lam_i`` in ``[-sqrt(2C/gamma) - tol, -tol)``."""
    lam = np.asarray(lam, dtype=float)
    bound = math.sqrt(2.0 * C / gamma)
    return np.flatnonzero((lam >= -bound - tol) & (lam < -tol))


@dataclass(frozen=True)
class TrainedModel:
    """A trained classifier: coefficients, bias, dual multipliers, slack,
    support set, the kernel, and the training sample it expands over.

    ``gamma`` is the prox step the solver certifies with (1/sigma);
    ``scaling`` carries the standardization applied to the training inputs
    so new raw inputs can be transformed identically.
    """

    c: np.ndarray
    b: float
    lam: np.ndarray
    u: np.ndarray
    support: np.ndarray
    kernel: KernelSpec
    X: np.ndarray
    y: np.ndarray
    gamma: float
    C: float
    scaling: Optional[StandardizeStats] = None
    meta: dict = field(default_factory=dict)

    @property
    def nsv(self) -> int:
        return len(self.support)


def from_solution(state: AdmmState, dataset: Dataset, hp: Hyperparams,
                  scaling: Optional[StandardizeStats] = None,
                  support: Optional[np.ndarray] = None) -> TrainedModel:
    """Package a solver state as a deployable model.

    The support set defaults to the threshold-interval rule on
    ``(u, lam)``; baseline solvers pass their own set instead.
    """
    gamma = 1.0 / hp.sigma
    if support is None:
        support = support_vectors(state.u, state.lam, hp.C, gamma)
    return TrainedModel(
        c=state.c.copy(), b=float(state.b), lam=state.lam.copy(),
        u=state.u.copy(), support=np.asarray(support, dtype=int),
        kernel=hp.kernel, X=dataset.X.copy(), y=dataset.y.copy(),
        gamma=gamma, C=hp.C, scaling=scaling,
        meta={"dataset": dataset.name,
              "train_fingerprint": data_fingerprint(dataset.X)},
    )


def decision_function(model: TrainedModel, x, form: str = "primal"):
    """Decision value(s) at one point or at each row of a matrix.

    ``primal`` expands ``sum_i c_i K(x_i, .) + b`` (valid for any iterate
    and kernel); ``dual`` uses only the support set,
    ``-sum_{i in support} y_i lam_i K(x_i, .) + b``, which matches the
    primal form at a certified stationary point of a nonsingular kernel.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    Z = np.atleast_2d(x)
    if Z.shape[1] != model.X.shape[1]:
        raise InputError(
            f"expected {model.X.shape[1]} features, got {Z.shape[1]}"
        )
    if form == "primal":
        h = cross_matrix(model.kernel, Z, model.X) @ model.c + model.b
    elif form == "dual":
        sv = model.support
        if len(sv) == 0:
            h = np.full(Z.shape[0], model.b)
        else:
            Ksv = cross_matrix(model.kernel, Z, model.X[sv])
            h = -Ksv @ (model.y[sv] * model.lam[sv]) + model.b
    else:
        raise InputError(f"unknown decision form {form!r}")
    return float(h[0]) if single else h


def predict(model: TrainedModel, X, form: str = "primal") -> np.ndarray:
    """Sign rule on the decision values; a decision of exactly 0 maps to +1."""
    h = np.atleast_1d(decision_function(model, X, form=form))
    return np.where(h >= 0.0, 1.0, -1.0)


def accuracy(predictions, labels) -> float:
    """Fraction of agreeing labels, ``1 - sum|pred_j - y_j| / (2n)`` over
    {-1, +1} entries.

    Each mismatch contributes exactly 2 to the sum, so the result is
    evaluated as ``(n - mismatches) / n`` and matches the plain agreement
    fraction to the bit.
    """
    p = np.asarray(predictions, dtype=float).ravel()
    t = np.asarray(labels, dtype=float).ravel()
    if p.shape != t.shape:
        raise InputError(f"length mismatch: {p.shape} vs {t.shape}")
    if not (np.all(np.isin(p, (-1.0, 1.0))) and np.all(np.isin(t, (-1.0, 1.0)))):
        raise InputError("entries must be -1 or +1")
    n = len(t)
    if n == 0:
        raise InputError("accuracy needs at least one sample")
    mismatches = float(np.sum(np.abs(p - t))) / 2.0
    return (n - mismatches) / n


def to_json(model: TrainedModel) -> str:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kernel": model.kernel.to_dict(),
        "c": model.c.tolist(),
        "b": model.b,
        "lam": model.lam.tolist(),
        "u": model.u.tolist(),
        "support": model.support.tolist(),
        "gamma": model.gamma,
        "C": model.C,
        "train": {"X": model.X.tolist(), "y": model.y.tolist()},
        "scaling": model.scaling.to_dict() if model.scaling else None,
        "meta": model.meta,
    }
    return json.dumps(doc)


def from_json(text: str) -> TrainedModel:
    """The model :func:`to_json` wrote.  A missing field (only ``scaling``
    and ``meta`` may be absent), a ``c``, ``lam``, ``u`` or ``train.y`` that
    does not match the rows of ``train.X``, or a support index out of range
    raises ``InputError``."""
    doc = json.loads(text)
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise InputError(f"unsupported model format version {version!r}")
    scaling = doc.get("scaling")
    try:
        mdl = TrainedModel(
            c=np.asarray(doc["c"], dtype=float),
            b=float(doc["b"]),
            lam=np.asarray(doc["lam"], dtype=float),
            u=np.asarray(doc["u"], dtype=float),
            support=np.asarray(doc["support"], dtype=int),
            kernel=KernelSpec.from_dict(doc["kernel"]),
            X=np.asarray(doc["train"]["X"], dtype=float),
            y=np.asarray(doc["train"]["y"], dtype=float),
            gamma=float(doc["gamma"]),
            C=float(doc["C"]),
            scaling=StandardizeStats.from_dict(scaling) if scaling else None,
            meta=dict(doc.get("meta", {})),
        )
    except KeyError as exc:  # a field of the file, at any depth
        raise InputError(f"model file has no {exc.args[0]!r} field") from None
    m = len(mdl.X)
    for name, v in (("c", mdl.c), ("lam", mdl.lam), ("u", mdl.u), ("train.y", mdl.y)):
        if v.shape != (m,):
            raise InputError(f"model field {name!r} has shape {v.shape}, "
                             f"but 'train.X' has {m} rows")
    if np.any((mdl.support < 0) | (mdl.support >= m)):
        raise InputError(f"model field 'support' has an index outside [0, {m})")
    return mdl


def save_model(model: TrainedModel, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(model))


def load_model(path: str) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())
