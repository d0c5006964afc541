"""Positive-definite kernels and Gram matrix assembly.

Supported families: gaussian ``exp(-rho*||z-z'||^2)``, exponential
``exp(-rho*||z-z'||)``, laplacian ``exp(-rho*||z-z'||_1)``, linear
``<z, z'>``, polynomial ``(<z, z'> + offset)^degree`` and inverse
multiquadric ``(c^2 + ||z-z'||^2)^(-beta)``.  The gaussian kernel with
``rho = 1/d`` is the default throughout the package.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError

FAMILIES = (
    "gaussian",
    "linear",
    "laplacian",
    "exponential",
    "polynomial",
    "inverse_multiquadric",
)

_REQUIRED_PARAMS = {
    "gaussian": ("rho",),
    "laplacian": ("rho",),
    "exponential": ("rho",),
    "linear": (),
    "polynomial": ("degree", "offset"),
    "inverse_multiquadric": ("c", "beta"),
}


def data_fingerprint(X) -> str:
    """SHA-256 hex digest of an array's shape and raw float64 contents."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    h = hashlib.sha256()
    h.update(repr(X.shape).encode())
    h.update(X.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its named parameters.

    Parameters by family: ``rho > 0`` for gaussian/laplacian/exponential;
    ``degree >= 1`` (integer) and ``offset >= 0`` for polynomial;
    ``c > 0`` and ``beta > 0`` for inverse_multiquadric; the linear
    kernel takes none.
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown kernel family {self.family!r}")
        required = _REQUIRED_PARAMS[self.family]
        for name in required:
            if name not in self.params:
                raise ConfigError(
                    f"kernel {self.family!r} requires parameter {name!r}"
                )
        extra = set(self.params) - set(required)
        if extra:
            raise ConfigError(
                f"kernel {self.family!r} got unexpected parameters {sorted(extra)}"
            )
        p = self.params
        if self.family in ("gaussian", "laplacian", "exponential"):
            if not p["rho"] > 0:
                raise ConfigError("rho must be > 0")
        elif self.family == "polynomial":
            if p["degree"] < 1 or int(p["degree"]) != p["degree"]:
                raise ConfigError("degree must be an integer >= 1")
            if p["offset"] < 0:
                raise ConfigError("offset must be >= 0")
        elif self.family == "inverse_multiquadric":
            if not (p["c"] > 0 and p["beta"] > 0):
                raise ConfigError("c and beta must be > 0")

    def to_dict(self) -> dict:
        return {"family": self.family, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        return cls(d["family"], dict(d["params"]))


def gaussian_spec(rho: float) -> KernelSpec:
    """Shorthand for the default gaussian kernel."""
    return KernelSpec("gaussian", {"rho": rho})


@dataclass(frozen=True)
class GramMatrix:
    """Immutable m-by-m kernel matrix over a fixed set of points.

    ``fingerprint`` identifies the source data so downstream consumers can
    refuse a Gram matrix computed from a different sample.
    """

    entries: np.ndarray
    spec: KernelSpec
    fingerprint: str

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def m(self) -> int:
        return self.entries.shape[0]


def eval_kernel(spec: KernelSpec, z, z2) -> float:
    """Evaluate the kernel on a single pair of points.

    Raises
    ------
    InputError
        If the two points have different dimensions.
    """
    z = np.asarray(z, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if z.shape != z2.shape:
        raise InputError(f"dimension mismatch: {z.shape} vs {z2.shape}")
    p = spec.params
    if spec.family == "gaussian":
        return float(np.exp(-p["rho"] * np.sum((z - z2) ** 2)))
    if spec.family == "exponential":
        return float(np.exp(-p["rho"] * np.linalg.norm(z - z2)))
    if spec.family == "laplacian":
        return float(np.exp(-p["rho"] * np.sum(np.abs(z - z2))))
    if spec.family == "linear":
        return float(z @ z2)
    if spec.family == "polynomial":
        return float((z @ z2 + p["offset"]) ** p["degree"])
    # inverse_multiquadric
    return float((p["c"] ** 2 + np.sum((z - z2) ** 2)) ** (-p["beta"]))


def _sq_dists(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    sx = np.sum(X * X, axis=1)
    sz = np.sum(Z * Z, axis=1)
    d2 = sx[:, None] + sz[None, :] - 2.0 * (X @ Z.T)
    np.maximum(d2, 0.0, out=d2)  # clip rounding noise below zero
    return d2


def _l1_dists(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    # One feature at a time keeps memory at O(m^2) instead of O(m^2 d).
    d1 = np.zeros((X.shape[0], Z.shape[0]))
    diff = np.empty_like(d1)
    for k in range(X.shape[1]):
        np.subtract.outer(X[:, k], Z[:, k], out=diff)
        d1 += np.abs(diff, out=diff)
    return d1


def cross_matrix(spec: KernelSpec, X, Z) -> np.ndarray:
    """Kernel evaluations between the rows of ``X`` and the rows of ``Z``.

    Returns the |X|-by-|Z| matrix with entry (i, j) equal to
    ``eval_kernel(spec, X[i], Z[j])``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if X.shape[1] != Z.shape[1]:
        raise InputError(f"dimension mismatch: {X.shape[1]} vs {Z.shape[1]}")
    p = spec.params
    if spec.family == "gaussian":
        return np.exp(-p["rho"] * _sq_dists(X, Z))
    if spec.family == "exponential":
        return np.exp(-p["rho"] * np.sqrt(_sq_dists(X, Z)))
    if spec.family == "laplacian":
        return np.exp(-p["rho"] * _l1_dists(X, Z))
    if spec.family == "linear":
        return X @ Z.T
    if spec.family == "polynomial":
        return (X @ Z.T + p["offset"]) ** p["degree"]
    return (p["c"] ** 2 + _sq_dists(X, Z)) ** (-p["beta"])


def gram_matrix(spec: KernelSpec, X) -> GramMatrix:
    """Assemble the kernel matrix over the rows of ``X``.

    Only the upper triangle is taken from the pairwise evaluation and
    mirrored onto the lower one, so the result is symmetric to the bit;
    the solver's factorizations and ``dsymv`` rely on that.  For the
    gaussian, laplacian and exponential families the diagonal is exactly 1.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m = X.shape[0]
    if m < 1:
        raise InputError("need at least one sample")
    K = cross_matrix(spec, X, X)
    if spec.family in ("gaussian", "laplacian", "exponential"):
        np.fill_diagonal(K, 1.0)
    for i in range(1, m):  # mirror row by row: no m-by-m temporary
        K[i, :i] = K[:i, i]
    return GramMatrix(entries=K, spec=spec, fingerprint=data_fingerprint(X))
