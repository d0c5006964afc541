"""Positive-definite kernels and Gram matrix assembly.

Supported families: gaussian ``exp(-rho*||z-z'||^2)``, exponential
``exp(-rho*||z-z'||)``, laplacian ``exp(-rho*||z-z'||_1)``, linear
``<z, z'>``, polynomial ``(<z, z'> + offset)^degree`` and inverse
multiquadric ``(c^2 + ||z-z'||^2)^(-beta)``.  ``Hyperparams()`` defaults
to the gaussian kernel with ``rho = 1``; only the CLI (``make_kernel``)
defaults to the gaussian with ``rho = 1/d``.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError

# Alignment, in bytes, of the matrices BLAS reads: one cache line.
_ALIGN = 64

# Entries per row block of the in-place kernel evaluation and of the
# weighted product K(X, Z) w: a block, and for the laplacian its scratch,
# 256 KiB each, stay in L2.
_BLOCK = 1 << 15

_REQUIRED_PARAMS = {
    "gaussian": ("rho",),
    "linear": (),
    "laplacian": ("rho",),
    "exponential": ("rho",),
    "polynomial": ("degree", "offset"),
    "inverse_multiquadric": ("c", "beta"),
}
FAMILIES = tuple(_REQUIRED_PARAMS)


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

    Every parameter is a finite real number, not a boolean.  By family:
    ``rho > 0`` for gaussian/laplacian/exponential; ``degree >= 1``
    (integer) and ``offset >= 0`` for polynomial; ``c > 0`` and
    ``beta > 0`` for inverse_multiquadric; the linear kernel takes none.
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
        for name, value in p.items():
            if isinstance(value, bool) or not (
                    isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ConfigError(f"kernel parameter {name} must be finite, got {value!r}")
        if "rho" in p and not p["rho"] > 0:
            raise ConfigError("rho must be > 0")
        if self.family == "polynomial":
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
        return cls(d["family"], {**d["params"]})  # a mapping, not pairs


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


def _aligned_empty(shape: tuple, order: str = "F") -> np.ndarray:
    """Uninitialised float array whose data starts on an ``_ALIGN``-byte
    (cache-line) boundary.

    numpy promises 16 bytes, and where the allocator puts a matrix changes
    from one process to the next.  On a 2-vCPU Xeon with OpenBLAS, ``K c``
    through a 1200 x 162 factor took 55-70 us from a cache-line boundary
    and 75-105 us from the other offsets, so a solve's speed hung on that
    placement.  The bits of a product do not depend on it.
    """
    n = int(np.prod(shape))
    buf = np.empty(n + _ALIGN // 8)
    start = (-buf.ctypes.data % _ALIGN) // 8
    return buf[start:start + n].reshape(shape, order=order)


def _l1_dists(B: np.ndarray, S: np.ndarray, X: np.ndarray, Z: np.ndarray):
    """Overwrite the block ``B`` with the L1 distances between the rows of
    ``X`` and ``Z``, summed one feature at a time through the scratch ``S``."""
    B.fill(0.0)
    for k in range(X.shape[1]):
        np.subtract.outer(X[:, k], Z[:, k], out=S)
        B += np.abs(S, out=S)


# Families whose entries are functions of the squared distance, taken from
# one product of augmented rows (see ``_evaluate``).
_SQ_DIST = ("gaussian", "exponential", "inverse_multiquadric")


def _query_rows(fam: str, X: np.ndarray) -> np.ndarray:
    """The query side of the family's product: ``[X, ||x||^2, 1]`` for the
    squared-distance families, ``X`` itself for the others."""
    if fam not in _SQ_DIST:
        return X
    n, d = X.shape
    Xa = np.ones((n, d + 2))
    Xa[:, :d], Xa[:, d] = X, np.sum(X * X, axis=1)
    return Xa


def _expansion_rows(fam: str, Z: np.ndarray) -> np.ndarray:
    """The expansion side of the family's product: ``[-2Z, 1, ||z||^2]``
    for the squared-distance families, ``Z`` itself for the others."""
    if fam not in _SQ_DIST:
        return Z
    m, d = Z.shape
    Za = np.ones((m, d + 2))
    Za[:, :d], Za[:, d + 1] = -2.0 * Z, np.sum(Z * Z, axis=1)
    return Za


def _finish_block(spec: KernelSpec, B: np.ndarray, X: np.ndarray,
                  Z: np.ndarray, scratch):
    """Turn the block ``B`` of products between the rows of ``X`` and ``Z``
    into kernel values, in place; the laplacian fills ``B`` itself, through
    ``scratch``."""
    fam, p = spec.family, spec.params
    if fam == "linear":
        return
    if fam == "polynomial":
        B += p["offset"]
        B **= p["degree"]
        return
    if fam == "laplacian":
        _l1_dists(B, scratch[:B.size].reshape(B.shape), X, Z)
    else:
        np.maximum(B, 0.0, out=B)  # clip rounding noise below zero
    if fam == "inverse_multiquadric":
        B += p["c"] ** 2
        B **= -p["beta"]
        return
    if fam == "exponential":
        np.sqrt(B, out=B)
    B *= -p["rho"]
    np.exp(B, out=B)


def _evaluate(spec: KernelSpec, X: np.ndarray, Z: np.ndarray,
              upper: bool = False, w=None) -> np.ndarray:
    """The ``|X|``-by-``|Z|`` kernel matrix, built in one cache-line aligned
    C-ordered buffer, or, given ``w``, its product with ``w``.

    The matrix is one whole-matrix product, ``X @ Z^T`` for the linear and
    polynomial families and for the gaussian, exponential and inverse
    multiquadric the squared distances
    ``[X, ||x||^2, 1] @ [-2Z, 1, ||z||^2]^T``, which round like
    ``||x||^2 + ||z||^2 - 2<x, z>`` to about ``eps (||x||^2 + ||z||^2)``.
    The family's elementwise steps then run in place over row blocks of
    about ``_BLOCK`` entries; only the laplacian, which sums its L1
    distances feature by feature, needs a scratch block.  With ``upper``
    (``Z`` is ``X``) a block skips the columns left of its first row: those
    entries lie below the diagonal, where the caller mirrors the upper
    triangle.

    With ``w`` no matrix is built: each row block takes its own product
    against the C-ordered transposed expansion rows, built once, runs the
    family's steps and writes ``B @ w`` into the output, so one block of
    about ``_BLOCK`` entries is all the call holds.
    """
    n, m = len(X), len(Z)
    fam = spec.family
    rows = max(1, _BLOCK // max(m, 1))
    scratch = np.empty(min(n, rows) * m) if fam == "laplacian" else None
    if w is None:
        K = _aligned_empty((n, m), order="C")
        if fam != "laplacian":
            np.matmul(_query_rows(fam, X), _expansion_rows(fam, Z).T, out=K)
    else:
        h, Zt = np.empty(n), np.ascontiguousarray(_expansion_rows(fam, Z).T)
        block = _aligned_empty((min(n, rows), m), order="C")
    for r0 in range(0, n, rows):
        r1, c0 = min(r0 + rows, n), r0 if upper else 0
        if w is None:
            B = K[r0:r1, c0:]
        else:
            B = block[:r1 - r0]
            if fam != "laplacian":
                np.matmul(_query_rows(fam, X[r0:r1]), Zt, out=B)
        _finish_block(spec, B, X[r0:r1], Z[c0:], scratch)
        if w is not None:
            np.matmul(B, w, out=h[r0:r1])
    return K if w is None else h


def cross_matrix(spec: KernelSpec, X, Z, w=None) -> np.ndarray:
    """Kernel evaluations between the rows of ``X`` and the rows of ``Z``,
    or, given a coefficient vector ``w`` over the rows of ``Z``, the
    expansions ``sum_j w_j K(X[i], Z[j])``.

    Without ``w`` it returns the |X|-by-|Z| matrix with entry (i, j) equal
    to ``eval_kernel(spec, X[i], Z[j])``, C-ordered and starting on a
    64-byte boundary; apart from the output it holds the inputs' augmented
    rows or, for the laplacian, one block of about ``_BLOCK`` entries.

    With ``w`` it returns ``cross_matrix(spec, X, Z) @ w`` without building
    the matrix: the rows of ``X`` go through in blocks of ``_BLOCK // |Z|``
    rows (at least one), each block's kernel values are formed and reduced
    against ``w`` while they sit in L2, and the call holds one such block.
    A value agrees with the matrix product to rounding, but its bits can
    change at the 1e-14 level with the row's position in its block.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if X.shape[1] != Z.shape[1]:
        raise InputError(f"dimension mismatch: {X.shape[1]} vs {Z.shape[1]}")
    if w is not None:
        w = np.asarray(w, dtype=float)
        if w.shape != (len(Z),):
            raise InputError(f"expected {len(Z)} coefficients, got shape {w.shape}")
    return _evaluate(spec, X, Z, w=w)


def gram_matrix(spec: KernelSpec, X) -> GramMatrix:
    """Assemble the kernel matrix over the rows of ``X``.

    Only the upper triangle is taken from the pairwise evaluation and
    mirrored onto the lower one, so the result is symmetric to the bit;
    the solver's factorizations and its transposed view of ``K`` rely on
    that.  For the
    gaussian, laplacian and exponential families the diagonal is exactly 1.
    The entries are one C-ordered m-by-m array on a 64-byte boundary, the
    only m-by-m array the assembly holds.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m = X.shape[0]
    if m < 1:
        raise InputError("need at least one sample")
    K = _evaluate(spec, X, X, upper=True)
    if "rho" in spec.params:  # exp(-rho * 0)
        np.fill_diagonal(K, 1.0)
    for i in range(1, m):  # mirror row by row: no m-by-m temporary
        K[i, :i] = K[:i, i]
    return GramMatrix(entries=K, spec=spec, fingerprint=data_fingerprint(X))
