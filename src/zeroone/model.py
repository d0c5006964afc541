"""Deployable classifier built from a solved state: decision function,
prediction, support-vector extraction, accuracy, JSON persistence."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .admm import AdmmState, Hyperparams
from .data import Dataset, StandardizeStats
from .errors import ConfigError, InputError
from .kernels import KernelSpec, cross_matrix, data_fingerprint
from .prox import LossKind, ProxParams

MODEL_FORMAT_VERSION = 1

# Slack on the inclusive right endpoint of the support interval, absorbing
# float rounding of the threshold itself.
_SUPPORT_TOL = 1e-9

# Multipliers below this magnitude count as zero in a baseline's support set.
BASELINE_SV_TOL = 1e-6


def support_vectors(u, lam, C, gamma) -> np.ndarray:
    """Support set of a solution: indices with ``u_i - gamma*lam_i`` in
    ``(0, tau]``, where ``tau`` is the zeroing threshold of the zero-one
    prox at step ``gamma`` (:attr:`~zeroone.prox.ProxParams.tau`); the
    right endpoint is inclusive with ``_SUPPORT_TOL`` slack."""
    v = np.asarray(u, dtype=float) - gamma * np.asarray(lam, dtype=float)
    return np.flatnonzero((v > 0.0) & (v <= ProxParams(gamma, C).tau + _SUPPORT_TOL))


@dataclass(frozen=True)
class TrainedModel:
    """A trained classifier: coefficients, bias, dual multipliers, slack,
    support set, the kernel, and the training sample it expands over.

    ``gamma`` is the prox step at which the solution is certified: the
    stored ``construct_gamma`` step of a polished solve (see
    :func:`zeroone.admm.finish`), otherwise ``1/sigma``;
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
                  kind: LossKind = LossKind.L01) -> TrainedModel:
    """Package a solver state of the ``kind`` loss as a deployable model.

    ``gamma`` is the state's ``prox_step`` when it has one (a polished
    point), and ``1/sigma`` otherwise.  This is the one home of every
    loss's support rule: the zero-one threshold-interval rule on
    ``(u, lam)`` at that step (:func:`support_vectors`), and for a
    baseline the samples with a numerically nonzero multiplier,
    ``|lam_i| > BASELINE_SV_TOL``.
    """
    gamma = 1.0 / hp.sigma if state.prox_step is None else state.prox_step
    support = support_vectors(state.u, state.lam, hp.C, gamma) \
        if LossKind(kind) is LossKind.L01 \
        else np.flatnonzero(np.abs(state.lam) > BASELINE_SV_TOL)
    return TrainedModel(
        c=state.c.copy(), b=float(state.b), lam=state.lam.copy(),
        u=state.u.copy(), support=support,
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

    Either sum is one ``cross_matrix`` call with the coefficients, which
    holds one block of about ``kernels._BLOCK`` = 2^15 kernel values (27
    queries against 1200 expansion points) whatever the number of
    queries.  A value can change at the 1e-14 level with its row's
    position among the queries, as BLAS rounds a block's edge rows
    differently.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    Z = np.atleast_2d(x)
    if Z.shape[1] != model.X.shape[1]:
        raise InputError(
            f"expected {model.X.shape[1]} features, got {Z.shape[1]}"
        )
    if form == "primal":
        P, w = model.X, model.c
    elif form == "dual":
        sv = model.support
        P, w = model.X[sv], -(model.y[sv] * model.lam[sv])
    else:
        raise InputError(f"unknown decision form {form!r}")
    h = cross_matrix(model.kernel, Z, P, w) + model.b
    return float(h[0]) if single else h


def predict(model: TrainedModel, X, form: str = "primal") -> np.ndarray:
    """Sign rule on the decision values; a decision of exactly 0 maps to +1."""
    h = np.atleast_1d(decision_function(model, X, form=form))
    return np.where(h >= 0.0, 1.0, -1.0)


def accuracy(predictions, labels) -> float:
    """Fraction of agreeing labels over {-1, +1} entries, the paper's
    ``1 - sum|pred_j - y_j| / (2n)``."""
    p = np.asarray(predictions, dtype=float).ravel()
    t = np.asarray(labels, dtype=float).ravel()
    if p.shape != t.shape:
        raise InputError(f"length mismatch: {p.shape} vs {t.shape}")
    if not (np.all(np.isin(p, (-1.0, 1.0))) and np.all(np.isin(t, (-1.0, 1.0)))):
        raise InputError("entries must be -1 or +1")
    n = len(t)
    if n == 0:
        raise InputError("accuracy needs at least one sample")
    return np.count_nonzero(p == t) / n


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


def _object(value) -> dict:
    """``value`` if it is a JSON object, else ``TypeError``."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _kind(value, noun: str, types: tuple):
    """``value`` if it and each entry of its nested lists has a type in
    ``types`` (as ``json.loads`` gives them), else ``TypeError``."""
    for x in np.array(value, dtype=object).flat:
        if type(x) not in types:
            raise TypeError(f"a value is {type(x).__name__}, not {noun}")
    return value


def _field(doc, path: str, convert, valid=None, rule: str = ""):
    """``convert`` of the field at the dotted ``path`` of a model file.  A
    missing field, at any depth, a value ``convert`` rejects, or one with
    an entry that is not ``valid`` (the ``rule`` it breaks) raises
    ``InputError`` naming it."""
    value = doc
    try:
        for key in path.split("."):
            value = _object(value)[key]
        value = convert(value)
        if valid is not None and not np.all(valid(value)):
            raise ValueError(f"a value is not {rule}")
        return value
    except KeyError as exc:
        raise InputError(f"model file has no {exc.args[0]!r} field") from None
    except (ConfigError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"model field {path!r}: {exc}") from None


def from_json(text: str) -> TrainedModel:
    """The model :func:`to_json` wrote.  A missing field (only ``scaling``
    and ``meta`` may be absent) or one of the wrong JSON kind, a
    ``train.X`` that is not a matrix, a ``c``, ``lam``, ``u`` or
    ``train.y`` that does not match its rows, a ``scaling`` that does not
    match its columns, a support index out of range, or an invalid value
    raises ``InputError``.  Kinds: numbers, never booleans or strings;
    integers in ``support``; booleans in ``scaling.constant``; objects
    elsewhere.  Valid values: ``gamma`` and ``C`` > 0, ``train.y`` in
    {-1, +1}, a strictly increasing ``support``, ``scaling.std`` > 0 off
    the ``constant`` features, and every float finite."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise InputError(f"model file holds a JSON {type(doc).__name__}, "
                         "not an object")
    version = doc.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise InputError(f"unsupported model format version {version!r}")

    def vector(v, noun="a number", dtype=float, types=(int, float)):
        return np.asarray(_kind(v, noun, types), dtype=dtype)

    def scalar(v):
        return float(_kind(v, "a number", (int, float)))
    finite = (np.isfinite, "finite")
    positive = (lambda v: 0.0 < v < np.inf, "finite and > 0")
    scaling = None
    if doc.get("scaling") is not None:
        _field(doc, "scaling", _object)
        scaling = StandardizeStats(
            _field(doc, "scaling.mean", vector), _field(doc, "scaling.std", vector),
            _field(doc, "scaling.constant",
                   lambda v: vector(v, "a boolean", bool, (bool,))))
    mdl = TrainedModel(
        c=_field(doc, "c", vector, *finite),
        b=_field(doc, "b", scalar, *finite),
        lam=_field(doc, "lam", vector, *finite),
        u=_field(doc, "u", vector, *finite),
        support=_field(doc, "support", lambda v: vector(v, "an integer", int, (int,)),
                       lambda v: np.diff(v) > 0, "above the one before it"),
        kernel=_field(doc, "kernel", KernelSpec.from_dict),
        X=_field(doc, "train.X", vector, *finite),
        y=_field(doc, "train.y", vector, lambda v: np.isin(v, (-1.0, 1.0)),
                 "-1 or +1"),
        gamma=_field(doc, "gamma", scalar, *positive),
        C=_field(doc, "C", scalar, *positive),
        scaling=scaling,
        meta=_field(doc, "meta", _object) if "meta" in doc else {},
    )
    if mdl.X.ndim != 2:
        raise InputError(f"model field 'train.X' has shape {mdl.X.shape}, "
                         "not (rows, features)")
    m, d = mdl.X.shape
    for name, v in (("c", mdl.c), ("lam", mdl.lam), ("u", mdl.u), ("train.y", mdl.y)):
        if v.shape != (m,):
            raise InputError(f"model field {name!r} has shape {v.shape}, "
                             f"but 'train.X' has {m} rows")
    for name in ("mean", "std", "constant") if mdl.scaling else ():
        v = getattr(mdl.scaling, name)
        if v.shape != (d,):
            raise InputError(f"model field 'scaling.{name}' has shape {v.shape}, "
                             f"but 'train.X' has {d} columns")
        if not np.all(np.isfinite(v)):
            raise InputError(f"model field 'scaling.{name}': a value is not finite")
    if mdl.scaling and np.any((mdl.scaling.std <= 0) & ~mdl.scaling.constant):
        raise InputError("model field 'scaling.std': a value is not > 0 on a "
                         "feature that is not constant")
    if np.any((mdl.support < 0) | (mdl.support >= m)):
        raise InputError(f"model field 'support' has an index outside [0, {m})")
    return mdl


def save_model(model: TrainedModel, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(model))


def load_model(path: str) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())
