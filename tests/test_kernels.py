import math

import numpy as np
import pytest

from zeroone import (ConfigError, InputError, KernelSpec, cross_matrix,
                     eval_kernel, gaussian_spec, gram_matrix)

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
    """Out-of-place assembly: each formula over whole-matrix temporaries."""
    p = spec.params
    sq = np.sum(X * X, axis=1)[:, None] + np.sum(Z * Z, axis=1)[None, :] - 2.0 * (X @ Z.T)
    sq = np.maximum(sq, 0.0)
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
