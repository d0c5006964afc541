"""Dataset ingestion, standardization, splitting, synthetic generators and
label-noise injection.

File formats: LIBSVM sparse text (``<label> idx:val ...``, 1-based strictly
increasing indices) and a dense CSV with header ``x1,...,xd,label``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParseError
from .kernels import data_fingerprint


@dataclass(frozen=True)
class Dataset:
    """A labeled sample matrix of at least one feature, labels in {-1, +1}."""

    X: np.ndarray
    y: np.ndarray
    name: str = ""

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise InputError(
                f"{X.shape[0]} rows but {y.shape[0]} labels"
            )
        if X.shape[1] == 0:
            raise InputError("dataset has no feature column")
        if not np.all(np.isfinite(X)):
            raise InputError("samples contain NaN or Inf")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise InputError("labels must be -1 or +1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def fingerprint(self) -> str:
        return data_fingerprint(self.X)


def _map_labels(raw: np.ndarray) -> np.ndarray:
    """Map two distinct raw label values onto {-1, +1}, larger -> +1."""
    values = np.unique(raw)
    if len(values) > 2:
        raise InputError(f"more than two label values: {values.tolist()}")
    if len(values) == 2:
        return np.where(raw == values.max(), 1.0, -1.0)
    # Single class: only pass through if already in the target alphabet.
    if values[0] in (-1.0, 1.0):
        return raw.astype(float)
    raise InputError(f"single non-binary label value {values[0].item()!r}")


def parse_libsvm(text: str, name: str = "") -> Dataset:
    """Parse LIBSVM text into a dense dataset.

    Absent indices are zero.  Raw labels are mapped to {-1, +1}: with
    exactly two distinct values the larger becomes +1.
    """
    labels = []
    rows = []  # list of (index, value) pairs per line
    width = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            labels.append(float(parts[0]))
        except ValueError:
            raise ParseError(f"bad label {parts[0]!r}", line=lineno) from None
        entries = []
        prev = 0
        for tok in parts[1:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"bad feature token {tok!r}", line=lineno) from None
            if idx <= prev:
                raise ParseError(
                    f"feature index {idx} not strictly increasing", line=lineno
                )
            prev = idx
            entries.append((idx, val))
        width = max(width, prev)
        rows.append(entries)
    if not rows:
        raise InputError("empty dataset")
    X = np.zeros((len(rows), width))
    for i, entries in enumerate(rows):
        for idx, val in entries:
            X[i, idx - 1] = val
    y = _map_labels(np.asarray(labels))
    return Dataset(X=X, y=y, name=name)


def format_libsvm(dataset: Dataset) -> str:
    """Render a dataset as LIBSVM text.  Values use 17 significant digits,
    so parse -> format -> parse round-trips bit-identically."""
    out = io.StringIO()
    for i in range(dataset.n):
        label = int(dataset.y[i])
        toks = [f"{label:+d}"]
        for j in range(dataset.d):
            v = dataset.X[i, j]
            if v != 0.0:
                toks.append(f"{j + 1}:{v:.17g}")
        out.write(" ".join(toks) + "\n")
    return out.getvalue()


def format_csv(dataset: Dataset) -> str:
    """Dense CSV with header ``x1,...,xd,label`` and 17-digit values."""
    out = io.StringIO()
    out.write(",".join([f"x{j + 1}" for j in range(dataset.d)] + ["label"]) + "\n")
    for i in range(dataset.n):
        vals = [f"{v:.17g}" for v in dataset.X[i]]
        vals.append(f"{int(dataset.y[i]):+d}")
        out.write(",".join(vals) + "\n")
    return out.getvalue()


def parse_csv(text: str, name: str = "") -> Dataset:
    """Parse the CSV layout written by :func:`format_csv`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise InputError("empty dataset")
    header = lines[0].split(",")
    if header[-1] != "label":
        raise ParseError("last CSV column must be 'label'", line=1)
    d = len(header) - 1
    X = np.zeros((len(lines) - 1, d))
    raw = np.zeros(len(lines) - 1)
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != d + 1:
            raise ParseError(f"expected {d + 1} columns, got {len(parts)}", line=i)
        try:
            X[i - 2] = [float(v) for v in parts[:-1]]
            raw[i - 2] = float(parts[-1])
        except ValueError:
            raise ParseError("non-numeric value", line=i) from None
    return Dataset(X=X, y=_map_labels(raw), name=name)


def load_dataset(path: str, name: str | None = None) -> Dataset:
    """Load a dataset file, picking the parser from the extension
    (``.csv`` for the dense layout, anything else is LIBSVM text)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if name is None:
        name = path
    if path.endswith(".csv"):
        return parse_csv(text, name=name)
    return parse_libsvm(text, name=name)


@dataclass(frozen=True)
class StandardizeStats:
    """Per-feature training mean/std; ``constant`` flags zero-variance
    features that were passed through untouched."""

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray  # boolean mask

    def apply(self, X: np.ndarray) -> np.ndarray:
        scale = np.where(self.constant, 1.0, self.std)
        shift = np.where(self.constant, 0.0, self.mean)
        return (X - shift) / scale

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "std": self.std.tolist(),
            "constant": self.constant.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StandardizeStats":
        return cls(
            mean=np.asarray(d["mean"], dtype=float),
            std=np.asarray(d["std"], dtype=float),
            constant=np.asarray(d["constant"], dtype=bool),
        )


def standardize(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset, StandardizeStats]:
    """Scale both splits to zero mean / unit variance using training
    statistics only.  Zero-variance features pass through unchanged and
    are flagged in the returned stats."""
    if train.n < 1:
        raise InputError("empty training set")
    mean = train.X.mean(axis=0)
    std = train.X.std(axis=0)
    constant = std == 0.0
    stats = StandardizeStats(mean=mean, std=std, constant=constant)
    tr = Dataset(X=stats.apply(train.X), y=train.y, name=train.name)
    te = Dataset(X=stats.apply(test.X), y=test.y, name=test.name)
    return tr, te, stats


def split(dataset: Dataset, train_fraction: float = 0.6, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Seeded uniform shuffle followed by a prefix split.

    Raises ``InputError`` if either half loses a class.
    """
    if not 0.0 < train_fraction < 1.0:
        raise InputError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.n)
    n_train = int(train_fraction * dataset.n)
    tr_idx, te_idx = order[:n_train], order[n_train:]
    tr = Dataset(X=dataset.X[tr_idx], y=dataset.y[tr_idx], name=dataset.name)
    te = Dataset(X=dataset.X[te_idx], y=dataset.y[te_idx], name=dataset.name)
    for part, label in ((tr, "train"), (te, "test")):
        if len(np.unique(part.y)) < 2:
            raise InputError(f"split collapsed the {label} half to one class")
    return tr, te


def _check_generator(m: int, noise_std: float):
    """Reject a sample count below 2 and a noise level that is not a
    finite number >= 0 (NaN would skip the noise silently)."""
    if m < 2:
        raise InputError(f"need m >= 2, got {m}")
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise InputError(f"noise_std must be finite and >= 0, got {noise_std}")


def _two_class(pos: np.ndarray, neg: np.ndarray, noise_std: float, seed: int,
               name: str) -> Dataset:
    """The points ``pos`` labeled +1 stacked over ``neg`` labeled -1, plus
    gaussian noise of std ``noise_std`` drawn with ``seed``."""
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(len(pos)), -np.ones(len(neg))])
    if noise_std > 0:
        X = X + np.random.default_rng(seed).normal(0.0, noise_std, X.shape)
    return Dataset(X=X, y=y, name=name)


def gen_double_moons(m: int, noise_std: float = 0.15, seed: int = 0) -> Dataset:
    """Two interleaving half-circle arcs with additive gaussian noise.

    The +1 arc is the upper half of the unit circle; the -1 arc is its
    mirror shifted to interleave.  Points sit on uniform parameter grids,
    ceil(m/2) on the +1 arc.
    """
    _check_generator(m, noise_std)
    t_out = np.linspace(0.0, np.pi, (m + 1) // 2)
    t_in = np.linspace(0.0, np.pi, m // 2)
    return _two_class(np.column_stack([np.cos(t_out), np.sin(t_out)]),
                      np.column_stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)]),
                      noise_std, seed, "moons")


def gen_double_circles(m: int, factor: float = 0.5, noise_std: float = 0.05,
                       seed: int = 0) -> Dataset:
    """Concentric circles: unit radius labeled +1, inner radius ``factor``
    labeled -1, uniform angles, additive gaussian noise."""
    _check_generator(m, noise_std)
    if not 0.0 < factor < 1.0:
        raise InputError("factor must be in (0, 1)")
    t_out = np.linspace(0.0, 2.0 * np.pi, (m + 1) // 2, endpoint=False)
    t_in = np.linspace(0.0, 2.0 * np.pi, m // 2, endpoint=False)
    return _two_class(np.column_stack([np.cos(t_out), np.sin(t_out)]),
                      factor * np.column_stack([np.cos(t_in), np.sin(t_in)]),
                      noise_std, seed, "circles")


def flip_labels(dataset: Dataset, rate: float, seed: int = 0) -> Dataset:
    """Negate the labels of ``floor(rate * n)`` distinct, uniformly chosen
    samples.  Flipping twice with the same seed restores the original."""
    if not 0.0 <= rate < 0.5:
        raise InputError("rate must be in [0, 0.5)")
    n_flips = int(rate * dataset.n)
    y = dataset.y.copy()
    if n_flips > 0:
        rng = np.random.default_rng(seed)
        idx = rng.choice(dataset.n, size=n_flips, replace=False)
        y[idx] = -y[idx]
    return Dataset(X=dataset.X, y=y, name=dataset.name)
