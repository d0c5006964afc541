"""Deployable classifier built from a solved state: decision function,
prediction, support-vector extraction, accuracy, JSON persistence."""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .admm import AdmmState, Hyperparams
from .data import Dataset, StandardizeStats
from .errors import ConfigError, InputError
from .kernels import KernelSpec, cross_matrix
from .prox import LossKind, ProxParams, prox_l01_zeroed

MODEL_FORMAT_VERSION = 1


def support_vectors(u, lam, C, gamma) -> np.ndarray:
    """Support set of a solution: the indices the zero-one prox at step
    ``gamma`` zeroes in ``u - gamma*lam``, those in ``(0, tau]``
    (:func:`~zeroone.prox.prox_l01_zeroed`)."""
    v = np.asarray(u, dtype=float) - gamma * np.asarray(lam, dtype=float)
    return np.flatnonzero(prox_l01_zeroed(v, ProxParams(gamma, C))[1])


@dataclass(frozen=True)
class TrainedModel:
    """A trained classifier: coefficients, bias, dual multipliers, slack,
    the kernel, and the training sample it expands over.

    ``gamma`` is the prox step at which the solution is certified: the
    stored ``construct_gamma`` step of a polished zero-one solve (see
    :func:`zeroone.admm.finish`), otherwise ``1/sigma``; ``loss`` is the
    loss it was trained with, whose prox the certificate uses;
    ``scaling`` carries the standardization applied to the training inputs
    so new raw inputs can be transformed identically.
    """

    c: np.ndarray
    b: float
    lam: np.ndarray
    u: np.ndarray
    kernel: KernelSpec
    X: np.ndarray
    y: np.ndarray
    gamma: float
    C: float
    scaling: Optional[StandardizeStats] = None
    meta: dict = field(default_factory=dict)
    loss: LossKind = LossKind.L01

    @functools.cached_property
    def support(self) -> np.ndarray:
        """The support set, by the one rule of each loss: the samples the
        zero-one prox zeroes at the model's step (:func:`support_vectors`),
        and for a baseline the samples with ``lam_i != 0``: at a finished
        baseline point (see :func:`zeroone.admm.finish`) ``c = -y * lam``
        exactly, so the support-only form is the primal one."""
        if self.loss is LossKind.L01:
            return support_vectors(self.u, self.lam, self.C, self.gamma)
        return np.flatnonzero(self.lam)

    @property
    def nsv(self) -> int:
        return len(self.support)


def from_solution(state: AdmmState, dataset: Dataset, hp: Hyperparams,
                  scaling: Optional[StandardizeStats] = None,
                  kind: LossKind = LossKind.L01) -> TrainedModel:
    """Package a solver state of the ``kind`` loss as a deployable model.

    ``gamma`` is the state's ``prox_step`` when it has one (a polished
    zero-one point), and ``1/sigma`` otherwise.
    """
    gamma = 1.0 / hp.sigma if state.prox_step is None else state.prox_step
    return TrainedModel(
        c=state.c.copy(), b=float(state.b), lam=state.lam.copy(),
        u=state.u.copy(), kernel=hp.kernel, X=dataset.X.copy(),
        y=dataset.y.copy(), gamma=gamma, C=hp.C, scaling=scaling,
        meta={"dataset": dataset.name}, loss=LossKind(kind),
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
    if not np.all(np.isfinite(Z)):
        raise InputError("queries contain NaN or Inf")
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
        "gamma": model.gamma,
        "C": model.C,
        "train": {"X": model.X.tolist(), "y": model.y.tolist()},
        "scaling": model.scaling.to_dict() if model.scaling else None,
        "meta": model.meta,
        "loss": model.loss.value,
    }
    # numpy scalars, such as an np.int64 C, are written as JSON numbers
    return json.dumps(doc, default=np.generic.item)


def _object(value) -> dict:
    """``value`` if it is a JSON object, else ``TypeError``."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def _numbers(value):
    """``value`` if it and each entry of its nested lists is a JSON number,
    an ``int`` or ``float`` from ``json.loads``, else ``TypeError``."""
    for x in np.array(value, dtype=object).flat:
        if type(x) not in (int, float):
            raise TypeError(f"a value is {type(x).__name__}, not a number")
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
    """The model :func:`to_json` wrote.  A missing field (only ``scaling``,
    ``meta`` and ``loss`` may be absent; a file without ``loss``, as
    written before it was stored, reads as ``l01``) or one of the wrong
    JSON kind, a ``train.X`` that is not a matrix, a ``c``, ``lam``, ``u``
    or ``train.y`` that does not match its rows, a ``scaling`` that does
    not match its columns, or an invalid value raises ``InputError``.
    Kinds: numbers, never booleans or strings; a
    :class:`~zeroone.prox.LossKind` value in ``loss``; objects elsewhere.
    Valid values: ``gamma`` and ``C`` > 0, ``train.y`` in {-1, +1},
    ``scaling.std`` >= 0, and every float finite.  The ``support`` and
    ``scaling.constant`` fields of older files are derived data, and are
    ignored."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise InputError(f"model file holds a JSON {type(doc).__name__}, "
                         "not an object")
    version = doc.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise InputError(f"unsupported model format version {version!r}")

    def vector(v):
        return np.asarray(_numbers(v), dtype=float)

    def scalar(v):
        return float(_numbers(v))
    finite = (np.isfinite, "finite")
    positive = (lambda v: 0.0 < v < np.inf, "finite and > 0")
    nonnegative = (lambda v: (0.0 <= v) & (v < np.inf), "finite and >= 0")
    scaling = None
    if doc.get("scaling") is not None:
        _field(doc, "scaling", _object)
        scaling = StandardizeStats(
            _field(doc, "scaling.mean", vector, *finite),
            _field(doc, "scaling.std", vector, *nonnegative))
    mdl = TrainedModel(
        c=_field(doc, "c", vector, *finite),
        b=_field(doc, "b", scalar, *finite),
        lam=_field(doc, "lam", vector, *finite),
        u=_field(doc, "u", vector, *finite),
        kernel=_field(doc, "kernel", KernelSpec.from_dict),
        X=_field(doc, "train.X", vector, *finite),
        y=_field(doc, "train.y", vector, lambda v: np.isin(v, (-1.0, 1.0)),
                 "-1 or +1"),
        gamma=_field(doc, "gamma", scalar, *positive),
        C=_field(doc, "C", scalar, *positive),
        scaling=scaling,
        meta=_field(doc, "meta", _object) if "meta" in doc else {},
        loss=_field(doc, "loss", LossKind) if "loss" in doc else LossKind.L01,
    )
    if mdl.X.ndim != 2:
        raise InputError(f"model field 'train.X' has shape {mdl.X.shape}, "
                         "not (rows, features)")
    m, d = mdl.X.shape
    for name, v in (("c", mdl.c), ("lam", mdl.lam), ("u", mdl.u), ("train.y", mdl.y)):
        if v.shape != (m,):
            raise InputError(f"model field {name!r} has shape {v.shape}, "
                             f"but 'train.X' has {m} rows")
    for name in ("mean", "std") if mdl.scaling else ():
        v = getattr(mdl.scaling, name)
        if v.shape != (d,):
            raise InputError(f"model field 'scaling.{name}' has shape {v.shape}, "
                             f"but 'train.X' has {d} columns")
    return mdl


def save_model(model: TrainedModel, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(model))


def load_model(path: str) -> TrainedModel:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())
