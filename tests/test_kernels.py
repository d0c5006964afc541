import math
import tracemalloc
import warnings

import numpy as np
import pytest

from zeroone import (ConfigError, InputError, KernelSpec, cross_matrix,
                     eval_kernel, gaussian_spec, gram_matrix, kernels)

ALL_SPECS = [
    gaussian_spec(0.8),
    KernelSpec("linear", {}),
    KernelSpec("laplacian", {"rho": 0.6}),
    KernelSpec("exponential", {"rho": 0.6}),
    KernelSpec("polynomial", {"degree": 3, "offset": 1.0}),
    KernelSpec("inverse_multiquadric", {"c": 1.0, "beta": 0.5}),
]
# Families whose Gram matrix is nonsingular on any set of distinct points.
STRICT_SPECS = [s for s in ALL_SPECS if s.family in
                ("gaussian", "laplacian", "exponential", "inverse_multiquadric")]


def _reference_cross(spec, X, Z):
    """Out-of-place assembly: each formula over whole-matrix temporaries,
    the squared distances from one product of augmented operands."""
    p = spec.params
    ones_x, ones_z = np.ones((len(X), 1)), np.ones((len(Z), 1))
    Xa = np.hstack([X, np.sum(X * X, axis=1)[:, None], ones_x])
    Za = np.hstack([-2.0 * Z, ones_z, np.sum(Z * Z, axis=1)[:, None]])
    sq = np.maximum(Xa @ Za.T, 0.0)
    l1 = sum(np.abs(X[:, k][:, None] - Z[:, k][None, :]) for k in range(X.shape[1]))
    return {
        "gaussian": lambda: np.exp(-p["rho"] * sq),
        "exponential": lambda: np.exp(-p["rho"] * np.sqrt(sq)),
        "laplacian": lambda: np.exp(-p["rho"] * l1),
        "linear": lambda: X @ Z.T,
        "polynomial": lambda: (X @ Z.T + p["offset"]) ** p["degree"],
        "inverse_multiquadric": lambda: (p["c"] ** 2 + sq) ** (-p["beta"]),
    }[spec.family]()


def test_spec_validation():
    with pytest.raises(ConfigError):
        KernelSpec("sigmoid", {})
    with pytest.raises(ConfigError):
        gaussian_spec(-1.0)
    with pytest.raises(ConfigError):
        KernelSpec("gaussian", {})
    with pytest.raises(ConfigError):
        KernelSpec("polynomial", {"degree": 0, "offset": 0.0})
    with pytest.raises(ConfigError):
        KernelSpec("gaussian", {"rho": 1.0, "typo": 2.0})


NON_FINITE_PARAMS = [
    ("gaussian", {"rho": math.inf}),
    ("laplacian", {"rho": math.nan}),
    ("exponential", {"rho": math.inf}),
    ("polynomial", {"degree": 3, "offset": math.nan}),
    ("polynomial", {"degree": math.nan, "offset": 1.0}),
    ("polynomial", {"degree": math.inf, "offset": 1.0}),
    ("inverse_multiquadric", {"c": math.inf, "beta": 0.5}),
    ("inverse_multiquadric", {"c": 1.0, "beta": math.inf}),
]


@pytest.mark.parametrize("family, params", NON_FINITE_PARAMS,
                         ids=lambda v: v if isinstance(v, str) else repr(v))
def test_non_finite_parameter_rejected(family, params):
    with pytest.raises(ConfigError, match="finite"):
        KernelSpec(family, params)


@pytest.mark.parametrize("family, params, message", [
    ("polynomial", {"degree": 3, "offset": -1.0}, "offset must be >= 0"),
    ("inverse_multiquadric", {"c": 0.0, "beta": 0.5}, "c and beta must be > 0"),
    ("inverse_multiquadric", {"c": 1.0, "beta": -0.5}, "c and beta must be > 0"),
], ids=["offset<0", "c=0", "beta<0"])
def test_out_of_range_parameter_rejected(family, params, message):
    with pytest.raises(ConfigError, match=message):
        KernelSpec(family, params)


class TestEvalKernel:
    def test_zero_distance(self):
        z = np.array([0.3, -0.7])
        assert eval_kernel(gaussian_spec(1.0), z, z) == 1.0

    def test_linear_dot(self):
        assert eval_kernel(KernelSpec("linear", {}), [1, 2], [3, 4]) == 11.0

    def test_gaussian_value(self):
        # rho=0.5, squared distance 4 -> exp(-2)
        got = eval_kernel(gaussian_spec(0.5), [0.0, 0.0], [2.0, 0.0])
        assert got == pytest.approx(math.exp(-0.5 * 4.0), rel=1e-15)

    def test_l1_vs_l2_norms(self):
        z, z2 = np.zeros(2), np.ones(2)
        lap = eval_kernel(KernelSpec("laplacian", {"rho": 0.6}), z, z2)
        expo = eval_kernel(KernelSpec("exponential", {"rho": 0.6}), z, z2)
        assert lap == pytest.approx(math.exp(-0.6 * 2.0), rel=1e-15)
        assert expo == pytest.approx(math.exp(-0.6 * math.sqrt(2.0)), rel=1e-15)

    def test_inverse_multiquadric(self):
        got = eval_kernel(KernelSpec("inverse_multiquadric", {"c": 2.0, "beta": 1.5}),
                          [0.0], [1.0])
        assert got == pytest.approx((4.0 + 1.0) ** -1.5, rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            eval_kernel(gaussian_spec(1.0), [1.0], [1.0, 2.0])


class TestGramMatrix:
    def test_duplicate_rows_gaussian(self):
        X = np.array([[0.4, 0.2], [0.4, 0.2]])
        gm = gram_matrix(gaussian_spec(1.0), X)
        np.testing.assert_array_equal(gm.entries, np.ones((2, 2)))

    def test_linear_identity_rows(self):
        gm = gram_matrix(KernelSpec("linear", {}), np.eye(2))
        np.testing.assert_array_equal(gm.entries, np.eye(2))

    def test_entries_match_eval(self):
        gm = gram_matrix(gaussian_spec(0.5), np.array([[0.0, 0.0], [2.0, 0.0]]))
        e = math.exp(-2.0)
        np.testing.assert_allclose(gm.entries, [[1.0, e], [e, 1.0]], rtol=1e-15)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_matches_eval_cross_table(self, spec):
        # vectorized assembly agrees with the pairwise formula up to the
        # summation-order noise of the distance expansion
        rng = np.random.default_rng(5)
        X = rng.normal(size=(14, 3))
        gm = gram_matrix(spec, X)
        table = np.array([[eval_kernel(spec, X[i], X[j]) for j in range(14)]
                          for i in range(14)])
        np.testing.assert_allclose(gm.entries, table, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_exact_symmetry(self, spec):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, 4))
        K = gram_matrix(spec, X).entries
        np.testing.assert_array_equal(K, K.T)

    def test_unit_diagonal_families(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 3)) * 5
        for fam in ("gaussian", "laplacian", "exponential"):
            K = gram_matrix(KernelSpec(fam, {"rho": 0.9}), X).entries
            np.testing.assert_array_equal(np.diag(K), np.ones(10))

    @pytest.mark.parametrize("spec", STRICT_SPECS, ids=lambda s: s.family)
    def test_strictly_pd_positive_spectrum(self, spec):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        w = np.linalg.eigvalsh(gram_matrix(spec, X).entries)
        assert w[0] > -1e-10 * w[-1]

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_psd_on_subsets(self, spec):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 3))
        w = np.linalg.eigvalsh(gram_matrix(spec, X).entries)
        assert w[0] >= -1e-8 * max(w[-1], 1.0)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_in_place_assembly_matches_reference_bitwise(self, spec):
        rng = np.random.default_rng(8)
        X, Z = rng.normal(size=(40, 3)), rng.normal(size=(9, 3))
        K = _reference_cross(spec, X, X)
        if spec.family in ("gaussian", "laplacian", "exponential"):
            np.fill_diagonal(K, 1.0)
        K = np.triu(K) + np.triu(K, 1).T
        assert gram_matrix(spec, X).entries.tobytes() == K.tobytes()
        assert cross_matrix(spec, Z, X).tobytes() == _reference_cross(spec, Z, X).tobytes()

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_blocked_assembly_matches_reference_bitwise(self, spec):
        # shapes spanning several row blocks with a ragged last one; every
        # Gram block starts on the diagonal
        rng = np.random.default_rng(10)
        X, Z = rng.normal(size=(700, 3)), rng.normal(size=(130, 3))
        rows = kernels._BLOCK // len(X)
        assert len(X) // rows >= 4 and len(X) % rows and len(Z) % rows
        K = _reference_cross(spec, X, X)
        if spec.family in ("gaussian", "laplacian", "exponential"):
            np.fill_diagonal(K, 1.0)
        K = np.triu(K) + np.triu(K, 1).T
        assert gram_matrix(spec, X).entries.tobytes() == K.tobytes()
        for A, B in ((Z, X), (X, Z), (X[:1], X), (X[:0], X), (Z, X[:0])):
            got, want = cross_matrix(spec, A, B), _reference_cross(spec, A, B)
            assert got.shape == want.shape == (len(A), len(B))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_outputs_cache_line_aligned(self, spec):
        rng = np.random.default_rng(11)
        X, Z = rng.normal(size=(37, 3)), rng.normal(size=(5, 3))
        for K in (gram_matrix(spec, X).entries, cross_matrix(spec, Z, X),
                  cross_matrix(spec, X, Z), cross_matrix(spec, X[0], Z)):
            assert K.flags["C_CONTIGUOUS"] and K.ctypes.data % 64 == 0

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_peak_memory_is_one_output(self, spec):
        # the only full-size array either assembly holds is its output
        rng = np.random.default_rng(12)
        X, Z = rng.normal(size=(600, 3)), rng.normal(size=(600, 3))
        for assemble in (lambda: gram_matrix(spec, X), lambda: cross_matrix(spec, Z, X)):
            tracemalloc.start()
            try:
                assemble()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 600 * 600 * 8 + 2**20

    def test_entries_immutable(self):
        gm = gram_matrix(gaussian_spec(1.0), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            gm.entries[0, 0] = 2.0

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            gram_matrix(gaussian_spec(1.0), np.zeros((0, 2)))


def test_cross_matrix_consistency():
    rng = np.random.default_rng(6)
    X, Z = rng.normal(size=(7, 3)), rng.normal(size=(4, 3))
    for spec in ALL_SPECS:
        Kxz = cross_matrix(spec, X, Z)
        table = np.array([[eval_kernel(spec, X[i], Z[j]) for j in range(4)]
                          for i in range(7)])
        np.testing.assert_allclose(Kxz, table, rtol=1e-12, atol=1e-15)
    with pytest.raises(InputError):
        cross_matrix(gaussian_spec(1.0), X, rng.normal(size=(4, 2)))


def _block_rows(m):
    """Rows per block of the weighted product against ``m`` points."""
    return max(1, kernels._BLOCK // max(m, 1))


def _weighted_cases():
    """(m, n): m from empty to above one block, each with n from empty
    over a block boundary to many blocks; above ``_BLOCK`` points each
    block is one row, so only a few are taken."""
    for m in (0, 1, 17, 300, 1200):
        rows = _block_rows(m)
        for n in sorted({0, 1, 2, rows - 1, rows + 1, 1369}):
            yield m, n
    for n in (0, 1, 2, 3):
        yield kernels._BLOCK + 5, n


class TestWeightedCross:
    """``cross_matrix(spec, X, Z, w)``: ``K(X, Z) w`` one row block at a
    time, without the matrix."""

    @pytest.mark.parametrize("m,n", list(_weighted_cases()))
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_matches_matrix_product(self, spec, m, n):
        rng = np.random.default_rng(100 * m + n)
        X, Z, w = rng.normal(size=(n, 3)), rng.normal(size=(m, 3)), rng.normal(size=m)
        K = cross_matrix(spec, X, Z)
        got = cross_matrix(spec, X, Z, w)
        assert got.shape == (n,)
        # 1e-12 relative to the size of the terms summed, |K| |w|
        np.testing.assert_array_less(np.abs(got - K @ w),
                                     1e-12 * (1.0 + np.abs(K) @ np.abs(w)))

    @pytest.mark.parametrize("m", [17, 1200, kernels._BLOCK + 5])
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_blocks_cover_the_rows(self, spec, m, monkeypatch):
        blocks = []
        finish = kernels._finish_block

        def counted(spec, B, X, Z, scratch):
            blocks.append((B.shape, X[:, 0].copy()))
            finish(spec, B, X, Z, scratch)
        monkeypatch.setattr(kernels, "_finish_block", counted)
        n = 2 * _block_rows(m) + 1
        X = np.zeros((n, 3))
        X[:, 0] = np.arange(n)  # row i shows itself in its block
        cross_matrix(spec, X, np.ones((m, 3)), np.ones(m))
        covered = [r for _, rows in blocks for r in rows]
        np.testing.assert_array_equal(covered, np.arange(n))
        for (r, cols), rows in blocks:
            assert r == len(rows) and cols == m
            assert r * cols <= kernels._BLOCK or r == 1

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
    def test_peak_memory_is_one_block(self, spec):
        # 10 000 rows against 1200: the matrix would be 92 MiB
        rng = np.random.default_rng(14)
        X, Z, w = rng.normal(size=(10_000, 3)), rng.normal(size=(1200, 3)), rng.normal(size=1200)
        tracemalloc.start()
        try:
            cross_matrix(spec, X, Z, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10_000 * 8 + 2**20

    def test_coefficients_must_match_the_points(self):
        X = np.zeros((4, 2))
        for w in (np.ones(3), np.ones(5), np.ones((4, 1))):
            with pytest.raises(InputError):
                cross_matrix(gaussian_spec(1.0), X, X, w)


SQ_DIST_SPECS = [s for s in ALL_SPECS
                 if s.family in ("gaussian", "exponential", "inverse_multiquadric")]


def _cancellation_rows(offset=1e3):
    """Rows whose squared distances cancel: a cloud offset from the origin,
    and the same cloud with exact and near duplicates of its rows."""
    rng = np.random.default_rng(13)
    far = rng.normal(size=(24, 3)) + offset
    dup = np.vstack([far[:8], far[:8], far[:8] + 1e-9, far[:8] * (1 + 1e-13)])
    return {"offset": far, "duplicates": dup}


def _kernel_error_bound(spec, X, Z, table):
    """Entrywise bound on |K - eval_kernel| when each squared distance is
    off by at most 2 (d + 2) eps (||x||^2 + ||z||^2), the rounding of a
    length-(d + 2) product whose terms sum in magnitude to at most twice
    that norm sum."""
    eps = np.finfo(float).eps
    norms = np.sum(X * X, axis=1)[:, None] + np.sum(Z * Z, axis=1)[None, :]
    delta = 2 * (X.shape[1] + 2) * eps * norms
    p = spec.params
    if spec.family == "gaussian":  # exp(-rho s) is rho-Lipschitz in s >= 0
        slack = p["rho"] * delta
    elif spec.family == "exponential":  # |sqrt(a) - sqrt(b)| <= sqrt(|a - b|)
        slack = p["rho"] * np.sqrt(delta)
    else:  # (c^2 + s)^-beta is beta c^(-2 beta - 2)-Lipschitz in s >= 0
        slack = p["beta"] * p["c"] ** (-2 * p["beta"] - 2) * delta
    return slack + 8 * eps * np.abs(table)


@pytest.mark.parametrize("case", ["offset", "duplicates"])
@pytest.mark.parametrize("spec", SQ_DIST_SPECS, ids=lambda s: s.family)
def test_cancellation_within_norm_scaled_bound(spec, case):
    X = _cancellation_rows()[case]
    Z = X[::-1][:10]
    p = spec.params
    top = p["c"] ** (-2 * p["beta"]) if spec.family == "inverse_multiquadric" else 1.0
    for got, A, B in ((cross_matrix(spec, X, Z), X, Z),
                      (gram_matrix(spec, X).entries, X, X)):
        table = np.array([[eval_kernel(spec, a, b) for b in B] for a in A])
        assert np.all(np.abs(got - table) <= _kernel_error_bound(spec, A, B, table))
        assert np.all((got >= 0.0) & (got <= top))


def test_huge_rho_gives_finite_entries_without_warning():
    # rho ||x||^2 overflows at offset 1e4, rho ||x - z||^2 does not
    spec = gaussian_spec(1e300)
    rows = _cancellation_rows(offset=1e4)
    X = np.vstack([rows["offset"], rows["duplicates"]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K, G = cross_matrix(spec, X, X[:7]), gram_matrix(spec, X).entries
    for got in (K, G):
        assert np.all(np.isfinite(got)) and np.all((got >= 0.0) & (got <= 1.0))
    np.testing.assert_array_equal(np.diag(G), np.ones(len(X)))
