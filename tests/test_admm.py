import math

import numpy as np
import pytest
from scipy.linalg.blas import dsymv

from conftest import make_kkt_fixture, toy_dataset
from zeroone import (Dataset, Hyperparams, InputError, KernelSpec,
                     NumericalError, accuracy, betas, compute_eta,
                     from_solution, gaussian_spec, gen_double_circles,
                     gram_matrix, predict, solve, split, standardize,
                     update_b, update_c, update_lambda, update_u)
from zeroone import admm
from zeroone.admm import _CoefficientSolver


class TestComputeEta:
    def test_cold_start_is_ones(self):
        K = np.eye(3)
        y = np.array([1.0, -1.0, 1.0])
        eta = compute_eta(np.zeros(3), 0.0, np.zeros(3), K, y, 1.0)
        np.testing.assert_array_equal(eta, np.ones(3))

    def test_hand_worked(self):
        K = np.eye(2)
        y = np.array([1.0, -1.0])
        eta = compute_eta(np.array([1.0, 1.0]), 0.0, np.zeros(2), K, y, 1.0)
        np.testing.assert_array_equal(eta, [0.0, 2.0])

    def test_bias_only(self):
        K = np.eye(4)
        y = np.ones(4)
        eta = compute_eta(np.zeros(4), 1.0, np.zeros(4), K, y, 2.0)
        np.testing.assert_array_equal(eta, np.zeros(4))


class TestUpdateU:
    def test_threshold_and_index_set(self):
        # C=2, sigma=1 -> tau=2
        u, gk = update_u(np.array([0.1, -0.2, 5.0]), 2.0, 1.0)
        np.testing.assert_array_equal(u, [0.0, -0.2, 5.0])
        np.testing.assert_array_equal(gk, [0])

    def test_all_negative(self):
        eta = np.array([-0.5, -3.0])
        u, gk = update_u(eta, 1.0, 1.0)
        np.testing.assert_array_equal(u, eta)
        assert len(gk) == 0

    def test_right_endpoint_included(self):
        C, sigma = 3.0, 2.0
        tau = math.sqrt(2.0 * C / sigma)
        u, gk = update_u(np.array([tau]), C, sigma)
        assert u[0] == 0.0 and list(gk) == [0]


class TestUpdateC:
    def test_identity_gram_full_system(self):
        # K=I, sigma=1: [I + I]c = diag(y) xi -> c = diag(y) xi / 2
        K = np.eye(2)
        y = np.array([1.0, -1.0])
        u_next = np.array([0.2, -0.4])
        c = update_c(K, y, u_next, 0.1, np.zeros(2), 1.0, False)
        xi = 1.0 - u_next - 0.1 * y
        np.testing.assert_allclose(c, y * xi / 2.0, rtol=1e-12)

    def test_shortcut_agrees_on_invertible_gram(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 2))
        K = gram_matrix(gaussian_spec(0.8), X).entries
        y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        u_next = rng.normal(size=6)
        lam = rng.normal(size=6)
        a = update_c(K, y, u_next, 0.3, lam, 2.0, False)
        b = update_c(K, y, u_next, 0.3, lam, 2.0, True)
        np.testing.assert_allclose(a, b, rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("shortcut", [False, True])
    def test_residual_bound(self, shortcut):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 3))
        K = gram_matrix(gaussian_spec(0.5), X).entries
        y = np.where(rng.random(10) < 0.5, 1.0, -1.0)
        u_next = rng.normal(size=10)
        lam = rng.normal(size=10)
        sigma = 1.5
        c = update_c(K, y, u_next, -0.2, lam, sigma, shortcut)
        xi = 1.0 - u_next + 0.2 * y - lam / sigma
        A = K + sigma * (K @ K)
        rhs = sigma * (K @ (y * xi))
        if shortcut:
            A2 = K + np.eye(10) / sigma
            assert np.linalg.norm(A2 @ c - y * xi) <= 1e-8 * (1 + np.linalg.norm(xi))
        else:
            assert np.linalg.norm(A @ c - rhs) <= 1e-8 * (1 + np.linalg.norm(xi))

    def test_rank_deficient_ridge_fallback(self):
        # duplicated points under the linear kernel make the system singular
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        K = gram_matrix(KernelSpec("linear", {}), X).entries
        y = np.array([1.0, 1.0, -1.0])
        u_next = np.array([0.0, 0.0, 0.5])
        c = update_c(K, y, u_next, 0.0, np.zeros(3), 1.0, False)
        xi = 1.0 - u_next
        A = K + K @ K
        rhs = K @ (y * xi)
        assert np.linalg.norm(A @ c - rhs) <= 1e-8 * (1 + np.linalg.norm(xi))


def _shortcut_residual(K, sigma, c, y, xi):
    return np.linalg.norm(K @ c + c / sigma - y * xi)


class TestCoefficientSolver:
    def _system(self, m=40, seed=4):
        ds = gen_double_circles(m, noise_std=0.1, seed=seed)
        K = gram_matrix(gaussian_spec(0.5), ds.X).entries
        xi = np.random.default_rng(seed).normal(size=m)
        return K, ds.y, xi

    def test_solver_iterates_solve_shortcut_system(self):
        ds = gen_double_circles(120, noise_std=0.15, seed=6)
        hp = Hyperparams(C=8.0, sigma=2.0, max_iter=200, kernel=gaussian_spec(0.5))
        assert hp.strictly_pd_shortcut
        K = gram_matrix(hp.kernel, ds.X).entries
        worst = []

        def check(st):
            bound = 1e-8 * (1.0 + np.linalg.norm(st.xi))
            worst.append(_shortcut_residual(K, hp.sigma, st.c, ds.y, st.xi) / bound)

        _, trace = solve(ds, hp, on_iteration=check)
        assert len(worst) == trace.iterations > 1
        assert max(worst) <= 1.0

    @pytest.mark.parametrize("corrupt", [
        lambda a: a * 1.5,
        lambda a: np.full_like(a, np.nan),
    ], ids=["scaled", "nan"])
    def test_corrupted_inverse_never_returns_unchecked_c(self, corrupt):
        K, y, xi = self._system()
        sigma = 1.0
        solver = _CoefficientSolver(K, sigma, True)
        solver.A_inv = corrupt(solver.A_inv)
        try:
            c, Kc = solver.solve(xi, y)
        except NumericalError:
            return
        assert _shortcut_residual(K, sigma, c, y, xi) <= 1e-8 * (1 + np.linalg.norm(xi))
        np.testing.assert_array_equal(Kc, dsymv(1.0, K, c, lower=1))

    def test_second_guard_failure_raises(self):
        K, y, xi = self._system()
        solver = _CoefficientSolver(K, 1.0, True)
        solver.A_inv = solver.A_inv * 1.5
        solver.solve(xi, y)  # recovered through the ridge
        solver.A_inv = solver.A_inv * 1.5
        with pytest.raises(NumericalError):
            solver.solve(xi, y)

    def test_stored_lower_triangle_inverts_system(self):
        K, _, _ = self._system()
        solver = _CoefficientSolver(K, 2.0, True)
        L = np.tril(solver.A_inv)
        A_inv = L + np.tril(L, -1).T
        np.testing.assert_allclose(A_inv @ (K + np.eye(len(K)) / 2.0),
                                   np.eye(len(K)), atol=1e-9)

    def test_every_dsymv_operand_is_f_contiguous(self, monkeypatch):
        # f2py copies a C-ordered matrix on every call; F-ordered goes through
        seen = []

        def recording_dsymv(alpha, a, x, **kw):
            seen.append(a.flags["F_CONTIGUOUS"])
            return dsymv(alpha, a, x, **kw)

        monkeypatch.setattr(admm, "dsymv", recording_dsymv)
        ds = gen_double_circles(60, noise_std=0.1, seed=3)
        for kernel in (gaussian_spec(0.5), KernelSpec("polynomial", {"degree": 2, "offset": 1.0})):
            solve(ds, Hyperparams(C=4.0, sigma=1.0, max_iter=5, kernel=kernel))
        K, y, xi = self._system()
        solver = _CoefficientSolver(K, 1.0, True)
        solver.A_inv = solver.A_inv * 1.5
        solver.solve(xi, y)  # recovered through the ridge
        assert len(seen) > 20 and all(seen)

    def test_full_mode_iterates_solve_full_system(self):
        ds = gen_double_circles(120, noise_std=0.15, seed=6)
        kernel = KernelSpec("polynomial", {"degree": 2, "offset": 1.0})
        hp = Hyperparams(C=8.0, sigma=2.0, max_iter=200, kernel=kernel)
        assert not hp.strictly_pd_shortcut
        K = gram_matrix(kernel, ds.X).entries
        A = K + hp.sigma * (K @ K)
        worst = []

        def check(st):
            bound = 1e-8 * (1.0 + np.linalg.norm(st.xi))
            rhs = hp.sigma * (K @ (ds.y * st.xi))
            worst.append(np.linalg.norm(A @ st.c - rhs) / bound)

        _, trace = solve(ds, hp, on_iteration=check)
        assert len(worst) == trace.iterations > 1
        assert max(worst) <= 1.0


class TestUpdateB:
    def test_hand_worked(self):
        # K=0, c arbitrary, lam=0, u chosen so r = (0.5, 0.3)
        K = np.zeros((2, 2))
        y = np.array([1.0, -1.0])
        b = update_b(y, np.array([0.5, 0.7]), K, np.zeros(2), np.zeros(2), 1.0)
        assert b == pytest.approx(0.1, abs=1e-15)

    def test_zero_residual(self):
        K = np.zeros((2, 2))
        y = np.array([1.0, -1.0])
        b = update_b(y, np.ones(2), K, np.zeros(2), np.zeros(2), 1.0)
        assert b == 0.0

    def test_projection_optimality(self):
        rng = np.random.default_rng(3)
        m = 12
        X = rng.normal(size=(m, 2))
        K = gram_matrix(gaussian_spec(1.0), X).entries
        y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        u_next, c_next, lam = rng.normal(size=m), rng.normal(size=m), rng.normal(size=m)
        sigma = 2.0
        b = update_b(y, u_next, K, c_next, lam, sigma)
        r = 1.0 - u_next - y * (K @ c_next) - lam / sigma
        assert abs(y @ (r - b * y)) <= 1e-12 * m


class TestUpdateLambda:
    def test_empty_mask_zeroes_everything(self):
        lam = np.array([1.0, -2.0, 3.0])
        out = update_lambda(lam, np.ones(3), np.empty(0, dtype=int), 1.0, 1.0)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_masked_ascent(self):
        out = update_lambda(np.array([1.0, -1.0]), np.array([0.5, 0.5]),
                            np.array([0, 1]), 1.0, 2.0)
        np.testing.assert_array_equal(out, [2.0, 0.0])

    def test_zero_step_keeps_masked_entries(self):
        lam = np.array([0.5, 0.25, -1.0])
        out = update_lambda(lam, np.zeros(3), np.array([0, 2]), 1.0, 4.0)
        np.testing.assert_array_equal(out, [0.5, 0.0, -1.0])


class TestBetas:
    def test_cold_feasible_point(self):
        m = 4
        K = np.eye(m)
        y = np.array([1.0, 1.0, -1.0, -1.0])
        u = np.ones(m)  # = 1 - b*y with b=0
        b1, b2, b3, b4 = betas(np.zeros(m), 0.0, u, np.zeros(m), K, y, 1.0, 1.0)
        assert b1 == 0.0 and b2 == 0.0 and b3 == 0.0
        # prox zeroes the all-ones vector at tau=sqrt(2) -> gap ||1||/(1+||1||)
        assert b4 == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_dual_imbalance_unit(self):
        m = 6
        rng = np.random.default_rng(0)
        X = rng.normal(size=(m, 2))
        K = gram_matrix(gaussian_spec(1.0), X).entries
        y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        _, b2, _, _ = betas(np.zeros(m), 0.0, np.zeros(m), y.copy(), K, y, 1.0, 1.0)
        assert b2 == pytest.approx(1.0, rel=1e-12)

    def test_stationary_fixture_vanishes(self):
        from zeroone import construct_gamma
        rng = np.random.default_rng(21)
        c, b, u, lam, K, y = make_kkt_fixture(rng, m=10, kind="pair")
        gamma = construct_gamma(u, lam, 2.0)
        res = betas(c, b, u, lam, K, y, C=2.0, sigma=1.0 / gamma)
        assert max(res[0], abs(res[1]), res[2], res[3]) <= 1e-12


class TestSolve:
    def test_toy_separable(self):
        ds = toy_dataset()
        hp = Hyperparams(C=1.0, sigma=1.0, kernel=gaussian_spec(0.5))
        state, trace = solve(ds, hp)
        assert trace.termination == "tolerance_met"
        model = from_solution(state, ds, hp)
        assert accuracy(predict(model, ds.X), ds.y) == 1.0

    def test_stationary_init_stops_immediately(self):
        ds = toy_dataset()
        hp = Hyperparams(C=1.0, sigma=1.0, kernel=gaussian_spec(0.5))
        state, trace = solve(ds, hp)
        state2, trace2 = solve(ds, hp, init=state)
        assert trace2.termination == "tolerance_met"
        assert trace2.iterations == 1

    def test_single_class_rejected(self):
        ds = Dataset(X=np.zeros((3, 2)), y=np.ones(3))
        with pytest.raises(InputError):
            solve(ds, Hyperparams(C=1.0, sigma=1.0, kernel=gaussian_spec(1.0)))

    def test_foreign_gram_rejected(self):
        ds = toy_dataset()
        hp = Hyperparams(C=1.0, sigma=1.0, kernel=gaussian_spec(0.5))
        other = gram_matrix(hp.kernel, np.eye(4))
        with pytest.raises(InputError):
            solve(ds, hp, gram=other)

    def test_max_iter_respected(self):
        ds = toy_dataset()
        hp = Hyperparams(C=1.0, sigma=1.0, max_iter=3, kernel=gaussian_spec(0.5),
                         eps=1e-12)
        state, trace = solve(ds, hp)
        assert trace.termination == "max_iter"
        assert trace.iterations == 3 == state.iter

    def test_masking_invariants_every_iteration(self):
        ds = gen_double_circles(80, noise_std=0.15, seed=5)
        hp = Hyperparams(C=4.0, sigma=1.0, max_iter=150,
                         kernel=gaussian_spec(0.5))
        seen = []

        def check(st):
            comp = np.setdiff1d(np.arange(80), st.gamma_k)
            assert np.all(st.u[st.gamma_k] == 0.0)
            assert np.all(st.lam[comp] == 0.0)
            tau = math.sqrt(2.0 * hp.C / hp.sigma)
            np.testing.assert_array_equal(
                st.gamma_k, np.flatnonzero((st.eta > 0) & (st.eta <= tau)))
            assert abs(ds.y @ (st.r - st.b * ds.y)) <= 1e-12 * 80
            seen.append(st.iter)

        solve(ds, hp, on_iteration=check)
        assert seen == list(range(1, len(seen) + 1))

    def test_deterministic_traces(self):
        ds = gen_double_circles(60, seed=9)
        hp = Hyperparams(C=8.0, sigma=2.0, max_iter=200, kernel=gaussian_spec(0.5))
        _, t1 = solve(ds, hp)
        _, t2 = solve(ds, hp)
        assert t1.termination == t2.termination
        assert t1.records == t2.records  # bitwise equality of every field

    def test_trace_objective_and_gamma_size(self):
        ds = toy_dataset()
        hp = Hyperparams(C=2.0, sigma=1.0, kernel=gaussian_spec(0.5))
        K = gram_matrix(hp.kernel, ds.X).entries
        state, trace = solve(ds, hp)
        rec = trace.records[-1]
        expected = 0.5 * state.c @ (K @ state.c) + 2.0 * np.sum(state.u > 0)
        assert rec.objective == pytest.approx(expected, rel=1e-12)
        assert rec.gamma_size == len(state.gamma_k)

    def test_certificate_on_convergence(self):
        from zeroone import check_prox_stationary
        ds = gen_double_circles(120, seed=14)
        train, test = split(ds, seed=15)
        train, test, _ = standardize(train, test)
        hp = Hyperparams(C=32.0, sigma=2.0, kernel=gaussian_spec(0.5))
        gram = gram_matrix(hp.kernel, train.X)
        state, trace = solve(train, hp, gram=gram)
        assert trace.termination == "tolerance_met"
        rep = check_prox_stationary(state.c, state.b, state.u, state.lam,
                                    gram.entries, train.y, hp.C,
                                    gamma=1.0 / hp.sigma, tol=10 * hp.eps)
        assert rep.is_prox_stationary
