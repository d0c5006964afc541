import numpy as np
import pytest

from conftest import FIXTURE_KINDS, make_kkt_fixture
from zeroone import (InputError, check_kkt, check_prox_stationary,
                     construct_gamma, equivalence_roundtrip, gaussian_spec,
                     gram_matrix, subdiff_l01_contains)


def _subdiff_1d_oracle(u, v):
    """Discretized lower-limit test of the subgradient inequality for the
    positive-count loss f(t) = 1[t > 0] at a scalar point."""
    f = lambda t: 1.0 if t > 0 else 0.0
    if u == 0.0:
        deltas = [1e-4, 1e-3]
    else:
        deltas = [abs(u) * 0.5, abs(u) * 0.1]  # stay inside the constant piece
    worst = np.inf
    for d in deltas:
        for z in (u - d, u + d):
            worst = min(worst, (f(z) - f(u) - v * (z - u)) / abs(z - u))
    return worst >= -1e-9


class TestSubdiffMembership:
    def test_basic_membership(self):
        assert subdiff_l01_contains([0.0, 3.0], [2.0, 0.0])
        assert not subdiff_l01_contains([0.0], [-1.0])
        assert not subdiff_l01_contains([5.0], [0.1])

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            subdiff_l01_contains([0.0, 1.0], [0.0])

    def test_matches_definitional_oracle_on_grid(self):
        grid = np.round(np.arange(-2.0, 2.0 + 1e-12, 0.01), 10)
        mismatches = 0
        for u in grid:
            for v in (-1.5, -0.01, 0.0, 0.01, 1.5):
                got = subdiff_l01_contains(np.array([u]), np.array([v]))
                want = _subdiff_1d_oracle(float(u), float(v))
                mismatches += got != want
        assert mismatches == 0


class TestCheckKkt:
    def test_trivial_feasible_point(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 2))
        K = gram_matrix(gaussian_spec(1.0), X).entries
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        rep = check_kkt(np.zeros(5), 0.0, np.ones(5), np.zeros(5), K, y, 1.0)
        assert rep.is_kkt
        assert rep.res_stationary == rep.res_dual_balance == rep.res_feasibility == 0.0

    def test_dual_imbalance_fails(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 2))
        K = gram_matrix(gaussian_spec(1.0), X).entries
        y = np.array([1.0, 1.0, -1.0, -1.0])
        rep = check_kkt(np.zeros(4), 0.0, np.ones(4), y.copy(), K, y, 1.0, tol=1e-6)
        assert not rep.is_kkt
        assert rep.res_dual_balance == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", FIXTURE_KINDS)
    def test_constructed_fixtures_pass(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(10):
            c, b, u, lam, K, y = make_kkt_fixture(rng, m=9, kind=kind)
            assert check_kkt(c, b, u, lam, K, y, 2.0, tol=1e-8).is_kkt


class TestConstructGamma:
    def test_two_branch_minimum(self):
        # multiplier branch 2C/max(lam^2)=4 vs slack branch min(u^2)/2C=2.25
        gamma = construct_gamma(np.array([3.0, 0.0, -1.0]),
                                np.array([0.0, -1.0, 0.0]), C=2.0)
        assert gamma == pytest.approx(2.25 * (1 - 1e-6), rel=1e-12)

    def test_unconstrained_branch(self):
        gamma = construct_gamma(np.array([-1.0, -2.0]), np.zeros(2), C=2.0)
        assert gamma == 1.0

    def test_multiplier_only_branch(self):
        gamma = construct_gamma(np.array([0.0]), np.array([-2.0]), C=2.0)
        assert gamma == pytest.approx(1.0, rel=1e-8)

    def test_sign_pattern_violation(self):
        with pytest.raises(InputError):
            construct_gamma(np.array([0.0, 2.0]), np.array([-1.0, 0.5]), C=1.0)
        with pytest.raises(InputError):
            construct_gamma(np.array([0.0]), np.array([1.0]), C=1.0)

    @pytest.mark.parametrize("C", [0.0, -1.0])
    def test_nonpositive_C_rejected(self, C):
        with pytest.raises(InputError, match="C must be > 0"):
            construct_gamma(np.array([0.0]), np.array([-1.0]), C=C)


class TestCheckProxStationary:
    def _trivial_point(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(4, 2))
        K = gram_matrix(gaussian_spec(1.0), X).entries
        y = np.array([1.0, -1.0, -1.0, 1.0])
        return np.zeros(4), 0.0, np.ones(4), np.zeros(4), K, y

    def test_small_step_certifies(self):
        c, b, u, lam, K, y = self._trivial_point()
        # tau = sqrt(0.2) < 1, so the prox keeps the all-ones slack
        rep = check_prox_stationary(c, b, u, lam, K, y, C=1.0, gamma=0.1)
        assert rep.is_prox_stationary and rep.res_prox == 0.0

    def test_large_step_breaks_fixed_point(self):
        c, b, u, lam, K, y = self._trivial_point()
        # tau = sqrt(2) > 1 zeroes the slack, breaking the identity
        rep = check_prox_stationary(c, b, u, lam, K, y, C=1.0, gamma=1.0)
        assert not rep.is_prox_stationary
        assert rep.res_prox == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_infeasible_point_fails(self):
        c, b, u, lam, K, y = self._trivial_point()
        rep = check_prox_stationary(c, b + 1.0, u, lam, K, y, C=1.0, gamma=0.1)
        assert not rep.is_prox_stationary
        assert rep.res_feasibility >= 0.9

    def test_invalid_gamma(self):
        c, b, u, lam, K, y = self._trivial_point()
        with pytest.raises(InputError):
            check_prox_stationary(c, b, u, lam, K, y, 1.0, gamma=0.0)


class TestEquivalence:
    @pytest.mark.parametrize("kind", FIXTURE_KINDS)
    def test_forward_direction(self, kind):
        # a passing KKT check implies the constructed step certifies
        rng = np.random.default_rng(11)
        for _ in range(15):
            c, b, u, lam, K, y = make_kkt_fixture(rng, m=8, kind=kind)
            assert check_kkt(c, b, u, lam, K, y, 2.0, tol=1e-8).is_kkt
            gamma = construct_gamma(u, lam, 2.0, tol=1e-8)
            rep = check_prox_stationary(c, b, u, lam, K, y, 2.0, gamma, tol=1e-8)
            assert rep.is_prox_stationary
            assert equivalence_roundtrip(c, b, u, lam, K, y, 2.0, tol=1e-8)

    def test_reverse_direction(self):
        # a certified fixed point at any step passes the KKT check
        rng = np.random.default_rng(12)
        for _ in range(15):
            c, b, u, lam, K, y = make_kkt_fixture(rng, m=8, kind="pair")
            gamma = construct_gamma(u, lam, 2.0)
            rep = check_prox_stationary(c, b, u, lam, K, y, 2.0, gamma, tol=1e-10)
            assert rep.is_prox_stationary
            assert check_kkt(c, b, u, lam, K, y, 2.0, tol=1e-10).is_kkt

    def test_random_violations_agree_vacuously(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(8, 2))
        K = gram_matrix(gaussian_spec(0.7), X).entries
        y = np.where(rng.random(8) < 0.5, 1.0, -1.0)
        for _ in range(25):
            c, u, lam = rng.normal(size=(3, 8))
            b = float(rng.normal())
            assert not check_kkt(c, b, u, lam, K, y, 1.0, tol=1e-8).is_kkt
            assert equivalence_roundtrip(c, b, u, lam, K, y, 1.0, tol=1e-8)

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(14)
        c, b, u, lam, K, y = make_kkt_fixture(rng, m=7, kind="pair")
        lam = lam + 1e-6 * np.sign(lam)  # nudge so tiny tolerances fail
        passed = [check_kkt(c, b, u, lam, K, y, 2.0, tol=t).is_kkt
                  for t in (1e-12, 1e-8, 1e-4, 1e-2)]
        assert passed == sorted(passed)  # once true, stays true

    def test_solver_output_certifies(self, circles_run):
        run = circles_run
        st = run.state
        K = run.gram.entries
        y = run.train.y
        tol = 10 * run.hp.eps
        assert check_kkt(st.c, st.b, st.u, st.lam, K, y, run.hp.C, tol=tol).is_kkt
        rep = check_prox_stationary(st.c, st.b, st.u, st.lam, K, y, run.hp.C,
                                    gamma=1.0 / run.hp.sigma, tol=tol)
        assert rep.is_prox_stationary
        assert equivalence_roundtrip(st.c, st.b, st.u, st.lam, K, y,
                                     run.hp.C, tol=tol)
