import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from array import array
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg.blas

from conftest import make_kkt_fixture, toy_dataset
from zeroone import (Dataset, GramMatrix, Hyperparams, InputError, KernelSpec,
                     LossKind, NumericalError, accuracy, check_kkt,
                     check_prox_stationary, construct_gamma,
                     decision_function, equivalence_roundtrip, flip_labels,
                     from_solution, gaussian_spec, gen_double_circles,
                     gram_matrix, predict, prox_l01, ProxParams, solve,
                     solve_baseline, split, standardize, support_vectors,
                     update_c, zeros_state)
from zeroone import admm
from zeroone.admm import _CoefficientSolver, _GramFactor
from zeroone.baselines import solve_grid
from zeroone.cli import (DEFAULT_GRID_C, DEFAULT_GRID_SIGMA, RunConfig,
                         bench_rows, prepare_splits, write_trace_csv)
from zeroone.prox import objective
from zeroone.stationarity import feasibility, scaled_residuals

LINEAR = KernelSpec("linear", {})


def _snapshots(ds, hp, **kw):
    """Every ``on_iteration`` snapshot of one solve, and its trace."""
    snaps = []
    _, trace = solve(ds, hp, on_iteration=snaps.append, **kw)
    return snaps, trace


def _warm(m, b=0.0, **vectors):
    """The all-zeros iterate with ``b`` and the named vectors replaced."""
    state = zeros_state(m)
    state.b = b
    for name, value in vectors.items():
        setattr(state, name, np.array(value, dtype=float))
    return state


def _gaussian_run(iota=1.0, max_iter=60):
    ds = gen_double_circles(80, noise_std=0.15, seed=5)
    hp = Hyperparams(C=4.0, sigma=1.5, iota=iota, max_iter=max_iter,
                     kernel=gaussian_spec(0.5))
    K = gram_matrix(hp.kernel, ds.X).entries
    snaps, trace = _snapshots(ds, hp)
    return ds, hp, K, snaps, trace


class TestComputeEta:
    """eta = 1 - diag(y) K c - b y - lam / sigma, from the previous iterate."""

    def test_cold_start_is_ones(self):
        ds, hp, K, snaps, _ = _gaussian_run()
        np.testing.assert_array_equal(snaps[0].eta, np.ones(80))
        for prev, st in zip(snaps, snaps[1:]):
            want = 1.0 - ds.y * (K @ prev.c) - prev.b * ds.y - prev.lam / hp.sigma
            np.testing.assert_allclose(st.eta, want, rtol=0, atol=1e-12)

    def test_hand_worked(self):
        # linear kernel on identity rows: K = I
        ds = Dataset(X=np.eye(2), y=np.array([1.0, -1.0]))
        hp = Hyperparams(C=1.0, sigma=1.0, max_iter=1, kernel=LINEAR)
        snaps, _ = _snapshots(ds, hp, init=_warm(2, c=[1.0, 1.0]))
        np.testing.assert_array_equal(snaps[0].eta, [0.0, 2.0])

    def test_bias_only(self):
        ds = Dataset(X=np.eye(4), y=np.array([1.0, 1.0, -1.0, -1.0]))
        hp = Hyperparams(C=1.0, sigma=2.0, max_iter=1, kernel=LINEAR)
        snaps, _ = _snapshots(ds, hp, init=_warm(4, b=1.0))
        np.testing.assert_array_equal(snaps[0].eta, [0.0, 0.0, 2.0, 2.0])


class TestComputeXi:
    """xi = 1 - u - b y - lam / sigma, from the fresh slack and the previous
    iterate's b and lam, in this operation order and so to the bit."""

    def test_from_cold_and_warm_start(self):
        ds, hp, _, snaps, _ = _gaussian_run()
        rng = np.random.default_rng(3)
        warm = _warm(80, b=0.3, c=0.1 * rng.standard_normal(80),
                     lam=-np.abs(rng.standard_normal(80)))
        warm_snaps, _ = _snapshots(ds, hp, init=warm)
        for start, run in ((zeros_state(80), snaps), (warm, warm_snaps)):
            for prev, st in zip([start] + run, run):
                np.testing.assert_array_equal(
                    st.xi, 1.0 - st.u - prev.b * ds.y - prev.lam / hp.sigma)


class TestUpdateU:
    """The slack step ``admm._slack_step`` at ``ProxParams(1/sigma, C)``."""

    def test_threshold_and_index_set(self):
        # C=2, sigma=1 -> tau=2
        u, zeroed = admm._slack_step(np.array([0.1, -0.2, 5.0]),
                                     ProxParams(1.0, 2.0), LossKind.L01)
        np.testing.assert_array_equal(u, [0.0, -0.2, 5.0])
        np.testing.assert_array_equal(zeroed, [True, False, False])

    def test_all_negative(self):
        eta = np.array([-0.5, -3.0])
        u, zeroed = admm._slack_step(eta, ProxParams(1.0, 1.0), LossKind.L01)
        np.testing.assert_array_equal(u, eta)
        assert not zeroed.any()

    def test_right_endpoint_included(self):
        C, sigma = 3.0, 2.0
        tau = math.sqrt(2.0 * C / sigma)
        u, zeroed = admm._slack_step(np.array([tau]), ProxParams(1.0 / sigma, C),
                                     LossKind.L01)
        assert u[0] == 0.0 and zeroed.tolist() == [True]

    def test_zero_one_excludes_exact_zero(self):
        # prox_l01 leaves eta == 0 at zero, but it is not in (0, tau].
        u, zeroed = admm._slack_step(np.array([0.0, 0.5, -0.0]),
                                     ProxParams(1.0, 1.0), LossKind.L01)
        np.testing.assert_array_equal(u, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(zeroed, [False, True, False])

    @pytest.mark.parametrize("kind, u_expected", [
        # C=1, sigma=2 -> gamma*C = 0.5; squared hinge shrinks by 1/(1+1)
        (LossKind.HINGE, [0.0, 0.0, 1.0, -0.2, 0.0]),
        (LossKind.SQHINGE, [0.0, 0.15, 0.75, -0.2, 0.25]),
    ])
    def test_baseline_zeroed_set_is_zeros_of_u(self, kind, u_expected):
        eta = np.array([0.0, 0.3, 1.5, -0.2, 0.5])
        u, zeroed = admm._slack_step(eta, ProxParams(0.5, 1.0), kind)
        np.testing.assert_allclose(u, u_expected, rtol=1e-15)
        np.testing.assert_array_equal(zeroed, u == 0.0)
        assert zeroed[0]

    def test_hinge_zeroes_half_open_interval(self):
        C, sigma = 3.0, 2.0
        gc = C / sigma
        eta = np.array([np.nextafter(0.0, 1.0), gc, np.nextafter(gc, np.inf),
                        np.nextafter(0.0, -1.0)])
        u, zeroed = admm._slack_step(eta, ProxParams(1.0 / sigma, C), LossKind.HINGE)
        np.testing.assert_array_equal(zeroed, [True, True, False, False])
        assert u[2] > 0.0 and u[3] == eta[3]


def _shortcut_residual(K, sigma, c, y, xi):
    return np.linalg.norm(K @ c + c / sigma - y * xi)


def _full_residual(K, sigma, c, y, xi):
    """Residual of the coefficient step's normal equations
    ``[K + sigma K K] c = sigma K diag(y) xi``."""
    return np.linalg.norm((K + sigma * (K @ K)) @ c - sigma * (K @ (y * xi)))


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
        # on a nonsingular K the normal equations have one solution
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 2))
        K = gram_matrix(gaussian_spec(0.8), X).entries
        y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        u_next = rng.normal(size=6)
        lam = rng.normal(size=6)
        sigma = 2.0
        xi = 1.0 - u_next - 0.3 * y - lam / sigma
        want = np.linalg.solve(K + sigma * (K @ K), sigma * (K @ (y * xi)))
        c = update_c(K, y, u_next, 0.3, lam, sigma)
        np.testing.assert_allclose(c, want, rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("shortcut", [False, True])
    def test_residual_bound(self, shortcut):
        # the last argument is ignored: one system solves both forms
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 3))
        K = gram_matrix(gaussian_spec(0.5), X).entries
        y = np.where(rng.random(10) < 0.5, 1.0, -1.0)
        u_next = rng.normal(size=10)
        lam = rng.normal(size=10)
        sigma = 1.5
        c = update_c(K, y, u_next, -0.2, lam, sigma, shortcut)
        np.testing.assert_array_equal(c, update_c(K, y, u_next, -0.2, lam, sigma,
                                                  not shortcut))
        xi = 1.0 - u_next + 0.2 * y - lam / sigma
        bound = 1e-8 * (1 + np.linalg.norm(xi))
        assert _shortcut_residual(K, sigma, c, y, xi) <= bound
        assert _full_residual(K, sigma, c, y, xi) <= bound

    def test_singular_gram_solves_without_error(self):
        # duplicated points under the linear kernel make K singular
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        K = gram_matrix(LINEAR, X).entries
        y = np.array([1.0, 1.0, -1.0])
        u_next = np.array([0.0, 0.0, 0.5])
        c = update_c(K, y, u_next, 0.0, np.zeros(3), 1.0)
        xi = 1.0 - u_next
        bound = 1e-8 * (1 + np.linalg.norm(xi))
        assert _shortcut_residual(K, 1.0, c, y, xi) <= bound
        assert _full_residual(K, 1.0, c, y, xi) <= bound
        # a whole solve on duplicated rows: no NumericalError, and the same
        # max_iter, uncertified outcome the two-mode solver gave
        base = gen_double_circles(40, noise_std=0.1, seed=3)
        ds = Dataset(X=np.vstack([base.X, base.X]), y=np.concatenate([base.y, base.y]))
        hp = Hyperparams(C=4.0, sigma=1.0, max_iter=300, kernel=LINEAR)
        gram = gram_matrix(LINEAR, ds.X)
        assert np.linalg.matrix_rank(gram.entries) == 2
        state, trace = solve(ds, hp, gram=gram)
        assert trace.termination == "max_iter"
        args = (state.c, state.b, state.u, state.lam, gram.entries, ds.y, hp.C)
        assert not check_prox_stationary(*args, gamma=1.0 / hp.sigma,
                                         tol=10 * hp.eps).is_prox_stationary
        assert not check_kkt(*args, tol=10 * hp.eps).is_kkt


class TestCoefficientSolver:
    def _system(self, m=40, seed=4):
        ds = gen_double_circles(m, noise_std=0.1, seed=seed)
        K = gram_matrix(gaussian_spec(0.5), ds.X).entries
        xi = np.random.default_rng(seed).normal(size=m)
        return K, ds.y, xi

    def test_solver_iterates_solve_shortcut_system(self):
        ds = gen_double_circles(120, noise_std=0.15, seed=6)
        hp = Hyperparams(C=8.0, sigma=2.0, max_iter=200, kernel=gaussian_spec(0.5))
        K = gram_matrix(hp.kernel, ds.X).entries
        worst = []

        def check(st):
            bound = 1e-8 * (1.0 + np.linalg.norm(st.xi))
            worst.append(_shortcut_residual(K, hp.sigma, st.c, ds.y, st.xi) / bound)

        _, trace = solve(ds, hp, on_iteration=check)
        assert len(worst) == trace.iterations > 1
        assert max(worst) <= 1.0

    def test_non_gaussian_iterates_solve_both_systems(self):
        ds = gen_double_circles(120, noise_std=0.15, seed=6)
        for kernel in (LINEAR, KernelSpec("polynomial", {"degree": 2, "offset": 1.0})):
            hp = Hyperparams(C=8.0, sigma=2.0, max_iter=200, kernel=kernel)
            K = gram_matrix(kernel, ds.X).entries
            worst = []

            def check(st):
                bound = 1e-8 * (1.0 + np.linalg.norm(st.xi))
                worst.append(max(_shortcut_residual(K, hp.sigma, st.c, ds.y, st.xi),
                                 _full_residual(K, hp.sigma, st.c, ds.y, st.xi)) / bound)

            _, trace = solve(ds, hp, on_iteration=check)
            assert len(worst) == trace.iterations > 1
            assert max(worst) <= 1.0, kernel.family

    @pytest.mark.parametrize("corrupt", [
        lambda a: a * 1.5,
        lambda a: np.full_like(a, np.nan),
    ], ids=["scaled", "nan"])
    def test_corrupted_inverse_never_returns_unchecked_c(self, corrupt):
        K, y, xi = self._system()
        solver = _CoefficientSolver(_GramFactor(K), 1.0)
        solver.A_inv = corrupt(solver.A_inv)
        with pytest.raises(NumericalError):
            solver.solve(xi, y)

    def test_second_guard_failure_raises(self):
        # nothing is rebuilt behind the caller's back: every failing solve
        # raises, with the condition number of K + I/sigma attached
        K, y, xi = self._system()
        solver = _CoefficientSolver(_GramFactor(K), 1.0)
        solver.A_inv = solver.A_inv * 1.5
        for _ in range(2):
            with pytest.raises(NumericalError) as info:
                solver.solve(xi, y)
            assert info.value.cond == pytest.approx(np.linalg.cond(K + np.eye(len(K))))

    def test_cholesky_failure_raises(self):
        # an indefinite symmetric K with lambda_min < -1/sigma: K + I/sigma
        # has no Cholesky factor
        rng = np.random.default_rng(8)
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        K = (Q * np.array([-3.0, 0.5, 1.0, 1.5, 2.0, 2.5])) @ Q.T
        K = 0.5 * (K + K.T)
        sigma = 1.0
        with pytest.raises(NumericalError) as info:
            _CoefficientSolver(_GramFactor(K), sigma)
        assert info.value.cond > 1.0
        ds = Dataset(X=rng.normal(size=(6, 2)), y=np.array([1.0, -1.0] * 3))
        gram = GramMatrix(entries=K, spec=LINEAR, fingerprint=ds.fingerprint())
        with pytest.raises(NumericalError):
            solve(ds, Hyperparams(C=1.0, sigma=sigma, kernel=LINEAR), gram=gram)

    def test_non_finite_gram_raises_numerical_error(self):
        # finite samples whose cubic kernel overflows to inf, and a NaN entry
        ds = Dataset(X=np.array([[1e110, 0.0], [0.0, 1e110], [1.0, 1.0]]),
                     y=np.array([1.0, -1.0, 1.0]))
        kernel = KernelSpec("polynomial", {"degree": 3, "offset": 1.0})
        with np.errstate(over="ignore"):
            overflowed = gram_matrix(kernel, ds.X)
        assert np.isinf(overflowed.entries).any()
        K = np.eye(3)
        K[0, 1] = K[1, 0] = np.nan
        with_nan = GramMatrix(entries=K, spec=kernel, fingerprint=ds.fingerprint())
        for gram in (overflowed, with_nan):
            with pytest.raises(NumericalError):
                solve(ds, Hyperparams(C=1.0, sigma=1.0, kernel=kernel), gram=gram)

    def test_stored_lower_triangle_inverts_system(self):
        K, _, _ = self._system()
        solver = _CoefficientSolver(_GramFactor(K), 2.0)
        L = np.tril(solver.A_inv)
        A_inv = L + np.tril(L, -1).T
        np.testing.assert_allclose(A_inv @ (K + np.eye(len(K)) / 2.0),
                                   np.eye(len(K)), atol=1e-9)

    def test_every_dsymv_operand_is_f_contiguous(self, monkeypatch):
        # f2py copies a C-ordered matrix on every call; F-ordered goes
        # through.  Dense-path solves only: their products are all dsymv,
        # which the solver takes from scipy when it is built.
        seen = []
        real = scipy.linalg.blas.dsymv

        def recording_dsymv(alpha, a, x, **kw):
            seen.append(a.flags["F_CONTIGUOUS"])
            return real(alpha, a, x, **kw)

        monkeypatch.setattr(scipy.linalg.blas, "dsymv", recording_dsymv)
        ds = gen_double_circles(60, noise_std=0.1, seed=3)
        for kernel in (gaussian_spec(0.5), KernelSpec("laplacian", {"rho": 0.5}),
                       KernelSpec("exponential", {"rho": 0.5})):
            _, trace = solve(ds, Hyperparams(C=4.0, sigma=1.0, max_iter=5, kernel=kernel))
            assert trace.factor_rank is None, kernel.family
        K, y, xi = self._system()
        update_c(K, y, xi, 0.0, np.zeros(len(y)), 1.0)
        assert len(seen) > 20 and all(seen)


def _circles_gram(m, kernel=None):
    """Standardized circles training split (seed 7, split seed 9) and its
    Gram matrix; the kernel defaults to gaussian with rho = 1/d."""
    train, _ = split(gen_double_circles(m, seed=7), seed=9)
    train, _, _ = standardize(train, train)
    kernel = kernel or gaussian_spec(1.0 / train.d)
    return train, kernel, gram_matrix(kernel, train.X)


POLY3 = KernelSpec("polynomial", {"degree": 3, "offset": 1.0})


class TestLowRankFactor:
    """The rank rule of ``_CoefficientSolver``: a pivoted-Cholesky factor
    of rank at most m // 4 replaces the dense inverse."""

    @pytest.mark.parametrize("m, kernel, rank", [
        (1200, None, (100, 180)),
        (500, POLY3, (10, 10)),
        (500, LINEAR, (2, 2)),
        (1200, KernelSpec("laplacian", {"rho": 0.5}), None),
    ], ids=["gaussian-720", "polynomial-300", "linear-300", "laplacian-720"])
    def test_rank_selects_representation(self, m, kernel, rank):
        train, kernel, gram = _circles_gram(m, kernel)
        solver = _CoefficientSolver(_GramFactor(gram.entries), 1.0)
        if rank is None:
            assert solver.factor_rank is None and solver.L is None
            assert solver.A_inv.shape == gram.entries.shape
            read = [solver.A_inv]
        else:
            assert rank[0] <= solver.factor_rank <= rank[1] <= len(train.y) // 4
            assert solver.L.shape == (len(train.y), solver.factor_rank)
            assert not hasattr(solver, "A_inv")
            read = [solver.L, solver.M_inv]
        # the matrices each iteration reads start on a cache line
        for a in read:
            assert a.flags["F_CONTIGUOUS"] and a.ctypes.data % 64 == 0

    def test_factor_iterates_solve_true_system(self):
        train, kernel, gram = _circles_gram(1200)
        K = gram.entries
        hp = Hyperparams(C=16.0, sigma=2.0, max_iter=150, kernel=kernel)
        worst = []

        def check(st):
            bound = 1e-8 * (1.0 + np.linalg.norm(st.xi))
            worst.append(_shortcut_residual(K, hp.sigma, st.c, train.y, st.xi) / bound)

        _, trace = solve(train, hp, gram=gram, on_iteration=check)
        assert trace.factor_rank is not None
        assert len(worst) == trace.iterations > 1
        assert max(worst) <= 1.0

    @pytest.mark.parametrize("name", ["L", "M_inv"])
    @pytest.mark.parametrize("corrupt", [
        lambda a: a * 1.5,
        lambda a: np.full_like(a, np.nan),
    ], ids=["scaled", "nan"])
    def test_corrupted_factor_never_returns_unchecked_c(self, corrupt, name):
        # the guard's K c comes from the factor, not from y*xi - c/sigma
        train, _, gram = _circles_gram(160, POLY3)
        solver = _CoefficientSolver(_GramFactor(gram.entries), 1.0)
        assert solver.factor_rank == 10
        xi = np.random.default_rng(4).normal(size=len(train.y))
        solver.solve(xi, train.y)
        setattr(solver, name, np.asfortranarray(corrupt(getattr(solver, name))))
        with pytest.raises(NumericalError) as info:
            solver.solve(xi, train.y)
        K = gram.entries
        assert info.value.cond == pytest.approx(np.linalg.cond(K + np.eye(len(K))))

    def test_breakdown_of_small_system_raises(self):
        # M = G + I/sigma with G = L^T L is positive definite unless G is
        # corrupt; a corrupt G raises at set-up like a dense breakdown
        _, _, gram = _circles_gram(160, POLY3)
        factor = _GramFactor(gram.entries)
        factor.G = -4.0 * np.eye(factor.rank)
        with pytest.raises(NumericalError, match="Cholesky"):
            _CoefficientSolver(factor, 1.0)

    def test_zero_gram_solves_with_rank_zero(self):
        K = np.zeros((8, 8))
        y = np.array([1.0, -1.0] * 4)
        xi = np.linspace(-1.0, 2.0, 8)
        solver = _CoefficientSolver(_GramFactor(K), 2.5)
        assert solver.factor_rank == 0
        c, Kc = solver.solve(xi, y)
        np.testing.assert_array_equal(c, 2.5 * y * xi)
        np.testing.assert_array_equal(Kc, np.zeros(8))
        ds = Dataset(X=np.zeros((8, 2)), y=y)
        state, trace = solve(ds, Hyperparams(C=1.0, sigma=2.5, max_iter=20, kernel=LINEAR))
        assert trace.factor_rank == 0 and trace.iterations >= 1
        np.testing.assert_array_equal(state.c, 2.5 * y * state.xi)

    def test_indefinite_gram_with_low_rank_pivots_falls_back_and_raises(self):
        # K = x x^T + 3 (e1 e2^T + e2 e1^T): the first pivot (row 0) leaves a
        # zero diagonal, so the pivots see rank 1, but lambda_min(K) < -1
        x = np.array([3.0, 0.1, 0.1, 0.2, 0.3, 0.1, 0.2, 0.1])
        K = np.outer(x, x)
        K[1, 2] += 3.0
        K[2, 1] += 3.0
        assert np.linalg.eigvalsh(K)[0] < -1.0
        assert admm._pivoted_cholesky(np.asfortranarray(K.T), 2).shape == (8, 1)
        with pytest.raises(NumericalError, match="Cholesky"):
            _CoefficientSolver(_GramFactor(K), 1.0)
        ds = Dataset(X=np.zeros((8, 2)), y=np.array([1.0, -1.0] * 4))
        gram = GramMatrix(entries=K, spec=LINEAR, fingerprint=ds.fingerprint())
        with pytest.raises(NumericalError):
            solve(ds, Hyperparams(C=1.0, sigma=1.0, kernel=LINEAR), gram=gram)

    def test_pivoted_cholesky_stops_at_tolerance_or_cap(self):
        rng = np.random.default_rng(2)
        G = rng.normal(size=(40, 3))
        K = np.asfortranarray(G @ G.T)
        L = admm._pivoted_cholesky(K, 10)
        assert L.shape == (40, 3)
        np.testing.assert_allclose(L @ L.T, K, rtol=0, atol=1e-12)
        assert admm._pivoted_cholesky(K, 2) is None
        assert admm._pivoted_cholesky(np.asfortranarray(np.eye(40)), 10) is None

    def test_iteration_products_copy_no_factor(self):
        # numpy copies an operand whose layout its BLAS call cannot take;
        # one solve and K c must allocate nothing near the size of L
        train, _, gram = _circles_gram(1200)
        solver = _CoefficientSolver(_GramFactor(gram.entries), 1.0)
        m, r = solver.L.shape
        assert r >= 100
        d = np.random.default_rng(4).normal(size=m)
        solver.apply(d)
        tracemalloc.start()
        try:
            c, _ = solver.apply(d)
            solver.K_times(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * r * 8 / 2

    def test_low_rank_solve_never_loads_scipy_linalg(self):
        # a fresh interpreter: the low-rank solve, prediction and the three
        # certificates run on numpy alone; a dense solver loads scipy
        script = textwrap.dedent("""
            import sys
            import zeroone as z
            train, _ = z.split(z.gen_double_circles(1200, seed=7), seed=9)
            train, _, _ = z.standardize(train, train)
            hp = z.Hyperparams(C=16.0, sigma=1.0, max_iter=50,
                               kernel=z.gaussian_spec(1.0 / train.d))
            gram = z.gram_matrix(hp.kernel, train.X)
            state, trace = z.solve(train, hp, gram=gram)
            assert trace.factor_rank is not None
            mdl = z.from_solution(state, train, hp)
            z.predict(mdl, train.X)
            K = gram.entries
            z.check_kkt(mdl.c, mdl.b, mdl.u, mdl.lam, K, mdl.y, mdl.C)
            z.check_prox_stationary(mdl.c, mdl.b, mdl.u, mdl.lam, K, mdl.y,
                                    mdl.C, mdl.gamma)
            z.equivalence_roundtrip(mdl.c, mdl.b, mdl.u, mdl.lam, K, mdl.y, mdl.C)
            print("scipy.linalg" in sys.modules)
            hp = z.Hyperparams(C=16.0, sigma=1.0, max_iter=5,
                               kernel=z.KernelSpec("laplacian", {"rho": 0.5}))
            _, trace = z.solve(train, hp)
            assert trace.factor_rank is None
            print("scipy.linalg" in sys.modules)
        """)
        src = str(Path(admm.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", script], cwd=src,
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "True"]


class TestUpdateB:
    """b = <y, r> / m with r = 1 - u - diag(y) K c - lam_prev / sigma."""

    def test_hand_worked(self):
        # K = I, C large enough to zero the cold eta = 1: u = 0, xi = 1,
        # c = diag(y) / 2, r = 1/2, b = (1/2 + 1/2 - 1/2) / 3
        ds = Dataset(X=np.eye(3), y=np.array([1.0, 1.0, -1.0]))
        hp = Hyperparams(C=4.0, sigma=1.0, max_iter=1, kernel=LINEAR)
        snaps, _ = _snapshots(ds, hp)
        np.testing.assert_array_equal(snaps[0].u, np.zeros(3))
        np.testing.assert_allclose(snaps[0].r, np.full(3, 0.5), rtol=0, atol=1e-15)
        assert snaps[0].b == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_zero_residual(self):
        # tau = sqrt(2C/sigma) < 1 keeps the cold eta = 1: u = 1, xi = 0, c = 0
        ds = Dataset(X=np.eye(2), y=np.array([1.0, -1.0]))
        hp = Hyperparams(C=0.25, sigma=1.0, max_iter=1, kernel=LINEAR)
        snaps, _ = _snapshots(ds, hp)
        np.testing.assert_array_equal(snaps[0].r, np.zeros(2))
        assert snaps[0].b == 0.0

    def test_projection_optimality(self):
        ds, hp, K, snaps, _ = _gaussian_run()
        m = len(ds.y)
        prev_lam = np.zeros(m)
        for st in snaps:
            want = 1.0 - st.u - ds.y * (K @ st.c) - prev_lam / hp.sigma
            np.testing.assert_allclose(st.r, want, rtol=0, atol=1e-12)
            assert st.b == float(ds.y @ st.r) / m
            assert abs(ds.y @ (st.r - st.b * ds.y)) <= 1e-12 * m
            prev_lam = st.lam


class TestUpdateLambda:
    """Masked dual ascent: lam_prev + iota*sigma*omega on gamma_k, zero elsewhere."""

    def test_empty_mask_zeroes_everything(self):
        # K = 0: eta = 1 - lam/sigma = (0, 3, -2) misses (0, tau] for tau < 3
        ds = Dataset(X=np.zeros((3, 1)), y=np.array([1.0, -1.0, 1.0]))
        hp = Hyperparams(C=1.0, sigma=1.0, max_iter=1, kernel=LINEAR)
        snaps, _ = _snapshots(ds, hp, init=_warm(3, lam=[1.0, -2.0, 3.0]))
        assert len(snaps[0].gamma_k) == 0
        np.testing.assert_array_equal(snaps[0].lam, np.zeros(3))

    def test_masked_ascent(self):
        ds, hp, _, snaps, _ = _gaussian_run(iota=0.5)
        prev_lam = np.zeros(len(ds.y))
        for st in snaps:
            want = np.zeros_like(prev_lam)
            gk = st.gamma_k
            want[gk] = prev_lam[gk] + hp.iota * hp.sigma * st.omega[gk]
            np.testing.assert_array_equal(st.lam, want)
            prev_lam = st.lam
        assert any(len(st.gamma_k) for st in snaps)

    def test_zero_step_keeps_masked_entries(self):
        # a step far below the rounding of lam keeps it on gamma_k
        ds, hp, _, snaps, _ = _gaussian_run()
        start = snaps[-1]
        hp0 = Hyperparams(C=hp.C, sigma=hp.sigma, iota=1e-300, max_iter=3,
                          kernel=hp.kernel)
        again, _ = _snapshots(ds, hp0, init=start)
        prev_lam = start.lam
        for st in again:
            off = np.setdiff1d(np.arange(len(ds.y)), st.gamma_k)
            np.testing.assert_allclose(st.lam[st.gamma_k], prev_lam[st.gamma_k],
                                       rtol=0, atol=1e-290)
            np.testing.assert_array_equal(st.lam[off], 0.0)
            prev_lam = st.lam
        assert np.any(again[-1].lam != 0.0)


class TestBetas:
    """The trace records carry ``stationarity.scaled_residuals`` at each
    snapshot."""

    def test_cold_feasible_point(self):
        # K = I and tau < 1: the first iterate is c = 0, b = 0, u = 1,
        # lam = 0, which is feasible and a prox fixed point
        ds = Dataset(X=np.eye(4), y=np.array([1.0, 1.0, -1.0, -1.0]))
        hp = Hyperparams(C=0.25, sigma=1.0, kernel=LINEAR)
        snaps, trace = _snapshots(ds, hp)
        rec = trace.records[0]
        assert (rec.beta1, rec.beta2, rec.beta3, rec.beta4) == (0.0, 0.0, 0.0, 0.0)
        assert trace.termination == "tolerance_met" and trace.iterations == 1
        np.testing.assert_array_equal(snaps[0].u, np.ones(4))

    def test_dual_imbalance_unit(self):
        ds, hp, K, snaps, trace = _gaussian_run()
        p = ProxParams(gamma=1.0 / hp.sigma, C=hp.C)
        m = len(ds.y)
        for st, rec in zip(snaps, trace.records):
            assert rec.beta2 == float(ds.y @ st.lam) / m  # signed
            omega = feasibility(st.u, ds.y * (K @ st.c), st.b, ds.y)
            want = scaled_residuals(st.c, st.u, st.lam, omega, ds.y,
                                    prox_l01(st.u - st.lam / hp.sigma, p))
            got = (rec.beta1, rec.beta2, rec.beta3, rec.beta4)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-13)
        assert any(rec.beta2 < 0.0 for rec in trace.records)

    def test_stationary_fixture_vanishes(self):
        rng = np.random.default_rng(21)
        c, b, u, lam, K, y = make_kkt_fixture(rng, m=10, kind="pair")
        gamma = construct_gamma(u, lam, 2.0)
        res = scaled_residuals(c, u, lam, feasibility(u, y * (K @ c), b, y), y,
                               prox_l01(u - gamma * lam, ProxParams(gamma, 2.0)))
        assert max(res[0], abs(res[1]), res[2], res[3]) <= 1e-12


class TestHyperparams:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["C", "sigma", "iota", "eps"])
    def test_non_finite_setting_rejected(self, name, value):
        with pytest.raises(InputError, match=f"^{name} must be finite and > 0"):
            Hyperparams(**{"C": 1.0, "sigma": 1.0, name: value})

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(InputError, match="^max_iter must be >= 1"):
            Hyperparams(C=1.0, sigma=1.0, max_iter=max_iter)


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

    def test_one_sample_rejected(self):
        ds = Dataset(X=np.zeros((1, 2)), y=np.ones(1))
        with pytest.raises(InputError, match="at least 2 samples"):
            solve(ds, Hyperparams(C=1.0, sigma=1.0, kernel=gaussian_spec(1.0)))

    def test_foreign_gram_rejected(self):
        ds = toy_dataset()
        hp = Hyperparams(C=1.0, sigma=1.0, kernel=gaussian_spec(0.5))
        other = gram_matrix(hp.kernel, np.eye(4))
        with pytest.raises(InputError):
            solve(ds, hp, gram=other)

    def test_gram_of_another_kernel_rejected(self):
        # same samples, so the fingerprint matches; only the kernel differs
        ds = toy_dataset()
        hp = Hyperparams(C=16.0, sigma=1.0, max_iter=300, kernel=LINEAR)
        other = gram_matrix(gaussian_spec(0.5), ds.X)
        with pytest.raises(InputError, match="another kernel"):
            solve(ds, hp, gram=other)
        with pytest.raises(InputError, match="another kernel"):
            solve_baseline(ds, hp, LossKind.HINGE, gram=other)

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

    @pytest.mark.parametrize("kind", [LossKind.L01, LossKind.HINGE])
    def test_trace_objective_is_prox_objective(self, kind):
        # the trace line is prox.objective on the K c of the solver's own
        # representation, so the two agree to the bit
        ds = gen_double_circles(60, noise_std=0.15, seed=5)
        hp = Hyperparams(C=4.0, sigma=3.0, max_iter=40, kernel=gaussian_spec(0.5))
        state, trace, _ = solve_baseline(ds, hp, kind)
        assert trace.termination == "max_iter"
        K = gram_matrix(hp.kernel, ds.X).entries
        solver = admm._coefficient_solvers(K, [hp.sigma])[hp.sigma]
        assert trace.records[-1].objective == objective(
            kind, solver.K_times(state.c), state.c, state.u, hp.C)

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

    def test_polynomial_solve_certifies(self, monkeypatch):
        # the normal-equations solve of K + sigma K K picked up a component
        # in the null space of K here that kept beta1 from vanishing.  The
        # polish ends this solve at iteration 100, so the ADMM's own
        # convergence is checked with every polish rejected
        ds = gen_double_circles(300, noise_std=0.1, seed=7)
        train, test = split(ds, seed=9)
        train, test, _ = standardize(train, test)
        hp = Hyperparams(C=16.0, sigma=1.0,
                         kernel=KernelSpec("polynomial", {"degree": 3, "offset": 1.0}))
        gram = gram_matrix(hp.kernel, train.X)
        state, trace = solve(train, hp, gram=gram)
        assert trace.termination == "polished"
        assert check_prox_stationary(state.c, state.b, state.u, state.lam,
                                     gram.entries, train.y, hp.C,
                                     gamma=state.prox_step).is_prox_stationary
        monkeypatch.setattr(admm, "finish", lambda *args: None)
        state, trace = solve(train, hp, gram=gram)
        assert trace.termination == "tolerance_met"
        rep = check_prox_stationary(state.c, state.b, state.u, state.lam,
                                    gram.entries, train.y, hp.C,
                                    gamma=1.0 / hp.sigma, tol=10 * hp.eps)
        assert rep.is_prox_stationary

    def test_strictly_pd_shortcut_is_read_only(self):
        hp = Hyperparams(C=1.0, sigma=1.0, kernel=LINEAR)
        assert hp.strictly_pd_shortcut is True
        with pytest.raises(AttributeError):
            hp.strictly_pd_shortcut = False
        with pytest.raises(TypeError):
            Hyperparams(C=1.0, sigma=1.0, strictly_pd_shortcut=False)


def _circles_train_example():
    """The README's ``train`` example: circles m=500, seed 7, C=16,
    sigma=1, gaussian rho = 1/d."""
    train, test, _ = prepare_splits(RunConfig(command="train", generator="circles",
                                              m=500, seed=7))
    hp = Hyperparams(C=16.0, sigma=1.0, kernel=gaussian_spec(1.0 / train.d))
    return train, test, hp, gram_matrix(hp.kernel, train.X)


def _dues(flat):
    """The multiples of ``_POLISH_EVERY`` at which :func:`admm._due` holds
    on the prefix of a trace's ``flat`` values."""
    w, every = admm._RECORD_WIDTH, admm._POLISH_EVERY
    return [k for k in range(every, len(flat) // w + 1, every)
            if admm._due(flat[:k * w])]


class TestFinish:
    """The active-set polish of stalled zero-one rows, ``admm.finish``."""

    @pytest.fixture(scope="class")
    def polished(self):
        train, test, hp, gram = _circles_train_example()
        state, trace = solve(train, hp, gram=gram)
        return train, test, hp, gram, state, trace

    def test_polished_row_is_exact_kkt_at_stored_gamma(self, polished):
        train, _, hp, gram, state, trace = polished
        assert (trace.termination, trace.iterations, trace.polish_attempts) == \
            ("polished", 110, 1)
        assert 0.0 < trace.polish_s
        model = from_solution(state, train, hp)
        assert model.gamma == state.prox_step < 1.0 / hp.sigma
        args = (state.c, state.b, state.u, state.lam, gram.entries, train.y, hp.C)
        assert check_kkt(*args, tol=1e-8).is_kkt
        assert equivalence_roundtrip(*args, tol=1e-8)
        assert check_prox_stationary(*args, model.gamma, tol=1e-8).is_prox_stationary
        # the support is the active set, every row with a multiplier; the
        # 1/sigma rule would drop one of them
        np.testing.assert_array_equal(model.support, state.gamma_k)
        np.testing.assert_array_equal(model.support, np.flatnonzero(state.lam))
        assert len(support_vectors(state.u, state.lam, hp.C, 1.0 / hp.sigma)) \
            < model.nsv

    def test_dual_agrees_with_primal(self, polished):
        train, test, hp, _, state, _ = polished
        model = from_solution(state, train, hp)
        queries = np.vstack([test.X, np.random.default_rng(0).uniform(
            -3.0, 3.0, size=(2000, train.d))])
        np.testing.assert_allclose(decision_function(model, queries, form="dual"),
                                   decision_function(model, queries), atol=1e-12)
        np.testing.assert_array_equal(predict(model, queries, form="dual"),
                                      predict(model, queries))
        assert accuracy(predict(model, test.X), test.y) == 1.0

    def test_lockstep_polished_cell_is_the_cell_alone(self):
        train, _, _, gram = _circles_train_example()
        hps = [Hyperparams(C=C, sigma=s, kernel=gram.spec)
               for C in (4.0, 16.0) for s in (1.0, 2.0)]
        for hp, (state, trace, model, _) in zip(
                hps, solve_grid(train, hps, [LossKind.L01], gram=gram)):
            alone, alone_trace = solve(train, hp, gram=gram)
            assert trace.termination == alone_trace.termination == "polished"
            assert trace.flat == alone_trace.flat
            assert trace.polish_attempts == alone_trace.polish_attempts
            assert (state.b, state.iter, state.prox_step) == \
                (alone.b, alone.iter, alone.prox_step)
            for name in ("c", "u", "lam", "gamma_k"):
                assert getattr(state, name).tobytes() == getattr(alone, name).tobytes()
            assert model.gamma == alone.prox_step

    def test_worse_kkt_point_is_rejected_and_row_continues(self, monkeypatch):
        # both of admm.solve's attempts reach an exact KKT point about 20
        # times worse than the iterate: the first earns the second, and the
        # run goes on after it.  The same cell as a grid row stops at the
        # second, ``stalled``, with the iterate it was at
        ds = flip_labels(gen_double_circles(150, seed=3), 0.05, seed=4)
        train, test = split(ds, seed=5)
        train, test, _ = standardize(train, test)
        hp = Hyperparams(C=4.0, sigma=2.0, kernel=gaussian_spec(1.0 / train.d))
        K = gram_matrix(hp.kernel, train.X).entries
        tried = []
        real = admm.finish

        def spy(K, y, row_state, C, sigma, rank):
            out = real(K, y, row_state, C, sigma, rank)
            tried.append((row_state, out))
            return out

        monkeypatch.setattr(admm, "finish", spy)
        _, trace = solve(train, hp)
        assert (trace.termination, trace.iterations) == ("max_iter", 2000)
        assert trace.polish_attempts == len(tried) == 2
        assert [iterate.iter for iterate, _ in tried] == _dues(trace.flat)[:2]
        for iterate, point in tried:
            assert check_kkt(point.c, point.b, point.u, point.lam, K, train.y,
                             hp.C, tol=1e-8).is_kkt
            assert not admm._improves(K, train.y, point, iterate, hp.C)
            u_iterate = 1.0 - train.y * (K @ iterate.c + iterate.b)
            assert objective(LossKind.L01, K @ point.c, point.c, point.u, hp.C) > \
                10.0 * objective(LossKind.L01, K @ iterate.c, iterate.c,
                                 u_iterate, hp.C)
        iterate = tried[-1][0]
        ((state, row_trace, _, _),) = solve_grid(train, [hp], [LossKind.L01])
        assert (row_trace.termination, row_trace.iterations) == \
            ("stalled", iterate.iter)
        assert row_trace.polish_attempts == 2 and len(tried) == 4
        assert row_trace.flat == trace.flat[:len(row_trace.flat)]
        for name in ("c", "u", "lam", "gamma_k"):
            assert getattr(state, name).tobytes() == getattr(iterate, name).tobytes()

    def test_worse_first_point_earns_a_second_attempt(self):
        # circles r=0.1, --m 500, seed 20231, C=2, sigma=2: the attempt at
        # iteration 100 reaches an exact KKT point about 15 times above
        # the iterate's objective; the one at 110 polishes the row
        train, _, _ = prepare_splits(RunConfig(command="bench", generator="circles",
                                               m=500, seed=20231, noise_rate=0.1))
        hp = Hyperparams(C=2.0, sigma=2.0, kernel=gaussian_spec(1.0 / train.d))
        gram = gram_matrix(hp.kernel, train.X)
        ((state, trace, model, _),) = solve_grid(train, [hp], [LossKind.L01],
                                                 gram=gram)
        assert (trace.termination, trace.iterations, trace.polish_attempts) == \
            ("polished", 110, 2)
        assert _dues(trace.flat) == [100, 110]
        assert model.nsv == 10
        args = (state.c, state.b, state.u, state.lam, gram.entries, train.y, hp.C)
        assert check_kkt(*args, tol=1e-8).is_kkt
        assert check_prox_stationary(*args, state.prox_step,
                                     tol=1e-8).is_prox_stationary

    def test_point_failing_its_certificate_is_rejected_and_row_continues(
            self, monkeypatch):
        # the README example is polished at iteration 110; with the
        # certificate failing, that attempt returns None, is counted, and
        # admm.solve runs on without another: only a worse point earns one
        train, _, hp, gram = _circles_train_example()
        checked, tried = [], []
        real = admm.finish

        def failing_check(*args, **kw):
            checked.append(1)
            return SimpleNamespace(is_prox_stationary=False)

        def spy(K, y, row_state, C, sigma, rank):
            out = real(K, y, row_state, C, sigma, rank)
            tried.append((row_state.iter, out))
            return out

        monkeypatch.setattr(admm, "check_prox_stationary", failing_check)
        monkeypatch.setattr(admm, "finish", spy)
        _, trace = solve(train, hp, gram=gram)
        assert (trace.termination, trace.iterations) == ("max_iter", 2000)
        assert trace.polish_attempts == len(tried) == len(checked) == 1
        assert tried == [(110, None)]

    @pytest.mark.parametrize("m, finished", [(15, True), (16, False)])
    def test_gives_up_after_its_step_budget(self, monkeypatch, m, finished):
        # K = I, alternating labels, T = {0, 1}: every step's slack off T
        # lies in [2/3, 4/3], inside (0, sqrt(2)], and every multiplier is
        # negative, so each step adds one index: T holds all m indices, and
        # is final, at step m - 1.  The budget is 2 |gamma_k| + 10 = 14 steps
        built = []
        real = admm.construct_gamma
        monkeypatch.setattr(admm, "construct_gamma",
                            lambda *args, **kw: built.append(1) or real(*args, **kw))
        state = zeros_state(m)
        state.gamma_k = np.array([0, 1])
        point = admm.finish(np.eye(m), np.resize([1.0, -1.0], m), state, 1.0, 1.0)
        assert (point is not None) == finished == bool(built)
        if finished:
            assert len(point.gamma_k) == m

    @pytest.mark.parametrize("K, gamma_k", [
        (np.eye(3), []),
        # rows 0 and 1 of K are equal, so the bordered system on T is singular
        (np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), [0, 1]),
    ], ids=["empty", "singular"])
    def test_unsolvable_working_set_gives_none(self, K, gamma_k):
        state = zeros_state(3)
        state.gamma_k = np.array(gamma_k, dtype=int)
        assert admm.finish(K, np.array([1.0, 1.0, -1.0]), state, 1.0, 1.0) is None

    def test_search_stops_when_a_singular_system_sends_it_back(self, monkeypatch):
        # linear kernel on four points of the plane: the bordered system on
        # all four is singular but for rounding (condition 2.4e16), its
        # multipliers are of order 1e14 and drop index 1 again, so T would
        # flip between {0, 2, 3} and {0, 1, 2, 3} for the whole 14-step
        # budget
        X = np.array([[-1.0, -3.0], [3.0, -2.0], [-2.0, 2.0], [3.0, 0.0]])
        solved = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda A, b: solved.append(len(A) - 1) or real(A, b))
        state = zeros_state(4)
        state.gamma_k = np.array([2, 3])
        assert admm.finish(X @ X.T, np.array([-1.0, -1.0, 1.0, 1.0]), state,
                           8.0, 1.0) is None
        # T = {2, 3}, {0, 2, 3}, then the singular {0, 1, 2, 3} once
        assert solved == [2, 3, 4]

    @pytest.mark.parametrize("rank, solved", [(None, [4]), (4, [4]), (2, [4, 3])])
    def test_search_gives_up_at_a_numerically_singular_system(
            self, monkeypatch, rank, solved):
        # the four points above from T = {0, 1, 2, 3}: the bordered system
        # is singular but for rounding, and its solution misses it by a
        # residual of about 0.8, far above 1e-8 (1 + ||y_T||).  The search
        # gives up at that first solve, with no rank or one of at least
        # |T|.  Above the rank of the kernel's factor, 2 here, it drops an
        # index and goes on (to the set it came from, and gives up there)
        X = np.array([[-1.0, -3.0], [3.0, -2.0], [-2.0, 2.0], [3.0, 0.0]])
        sizes = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda A, b: sizes.append(len(A) - 1) or real(A, b))
        state = zeros_state(4)
        state.gamma_k = np.arange(4)
        assert admm.finish(X @ X.T, np.array([-1.0, -1.0, 1.0, 1.0]), state,
                           8.0, 1.0, rank) is None
        assert sizes == solved

    def test_low_rank_search_walks_on_above_the_factor_rank(self, monkeypatch):
        # the polynomial solve of TestSolve: the factor has rank 10 and the
        # attempt at iteration 100 starts from |gamma_k| = 13, so the
        # systems on 13, 12 and 11 indices are singular whatever T is, and
        # their noisy multipliers drop an index each; from 10 indices on
        # every system passes its residual check, and the point is
        # polished.  Checked at every size, the search gives up at once
        ds = gen_double_circles(300, noise_std=0.1, seed=7)
        train, test = split(ds, seed=9)
        train, test, _ = standardize(train, test)
        hp = Hyperparams(C=16.0, sigma=1.0,
                         kernel=KernelSpec("polynomial", {"degree": 3, "offset": 1.0}))
        gram = gram_matrix(hp.kernel, train.X)
        calls, sizes = [], []
        real, real_solve = admm.finish, np.linalg.solve

        def spy(K, y, row_state, C, sigma, rank):
            calls.append((K, row_state, rank))
            return real(K, y, row_state, C, sigma, rank)

        monkeypatch.setattr(admm, "finish", spy)
        monkeypatch.setattr(np.linalg, "solve",
                            lambda A, b: sizes.append(len(A) - 1) or real_solve(A, b))
        _, trace = solve(train, hp, gram=gram)
        assert (trace.termination, trace.iterations, trace.polish_attempts,
                trace.factor_rank) == ("polished", 100, 1, 10)
        ((K, iterate, rank),) = calls
        assert (len(iterate.gamma_k), rank) == (13, 10)
        assert sizes[:3] == [13, 12, 11] and max(sizes[3:]) <= 10
        sizes.clear()
        assert real(K, train.y, iterate, hp.C, hp.sigma) is None
        assert sizes == [13]

    def test_noisy_configurations_are_rejected_and_run_on(self):
        # the C8 run (circles, labels flipped at 0.2) and the grid-small
        # benchmark's selected zero-one cell (moons r=0.05, C=4, sigma=2)
        # stall; admm.solve tries C8's run twice, each time reaching a point
        # above the iterate, and the cell once, where the search gives up
        # at a numerically singular system; both are rejected and run on
        ds = flip_labels(gen_double_circles(150, seed=41), 0.2, seed=42)
        train, test = split(ds, seed=43)
        train, _, _ = standardize(train, test)
        hp = Hyperparams(C=8.0, sigma=1.0, eps=1e-15,
                         kernel=gaussian_spec(1.0 / train.d))
        _, trace = solve(train, hp)
        assert (trace.termination, trace.iterations, trace.polish_attempts) == \
            ("max_iter", 2000, 2)
        train, _, _ = prepare_splits(RunConfig(command="bench", generator="moons",
                                               m=500, seed=7, noise_rate=0.05))
        hp = Hyperparams(C=4.0, sigma=2.0, kernel=gaussian_spec(1.0 / train.d))
        _, trace = solve(train, hp)
        assert (trace.termination, trace.polish_attempts) == ("max_iter", 1)

    def test_trace_alone_replays_the_trigger(self):
        # _due on each prefix of a row's stored trace that ends at a
        # multiple of _POLISH_EVERY says where the row was tried: a
        # polished row first at its last iteration, a row that met its
        # tolerance nowhere
        train, _, hp, gram = _circles_train_example()
        hps = [hp] + [Hyperparams(C=C, sigma=s, kernel=gram.spec)
                      for C in (0.5, 1.0, 4.0, 16.0) for s in (1.0, 2.0)]
        traces = [solve(train, hp, gram=gram)[1]] + [
            trace for _, trace, _, _ in solve_grid(train, hps[1:], [LossKind.L01],
                                                   gram=gram)]
        terminations = [trace.termination for trace in traces]
        assert terminations.count("polished") == 8
        assert terminations.count("tolerance_met") == 1
        for trace in traces:
            first = _dues(trace.flat)[:1]
            if trace.termination == "polished":
                assert (first, trace.polish_attempts) == ([trace.iterations], 1)
            else:
                assert (first, trace.polish_attempts) == ([], 0)

    @pytest.mark.parametrize("seed", [7, 20231])
    def test_stalled_grid_rows_stop_at_their_last_attempt(self, tmp_path,
                                                          monkeypatch, seed):
        # grid-small's zero-one grid (moons, --m 500, --noise-rate 0.05,
        # default 8x2 grid): every non-trivial row stalls, is tried once or
        # twice, is rejected and leaves with its last iterate, the cell
        # solved alone for as many iterations; trace.csv alone replays the
        # attempts.  A row whose first search gave up is tried once.  Rows
        # that ran all 2000 iterations would sum to 30 001
        train, _, _ = prepare_splits(RunConfig(command="bench", generator="moons",
                                               m=500, seed=seed, noise_rate=0.05))
        kernel = gaussian_spec(1.0 / train.d)
        gram = gram_matrix(kernel, train.X)
        hps = [Hyperparams(C=C, sigma=s, kernel=kernel)
               for C in DEFAULT_GRID_C for s in DEFAULT_GRID_SIGMA]
        points = {}
        real = admm.finish

        def spy(K, y, row_state, C, sigma, rank):
            out = real(K, y, row_state, C, sigma, rank)
            points.setdefault((C, sigma), []).append(out)
            return out

        monkeypatch.setattr(admm, "finish", spy)
        cells = solve_grid(train, hps, [LossKind.L01], gram=gram)
        monkeypatch.setattr(admm, "finish", real)
        terminations = [trace.termination for _, trace, _, _ in cells]
        assert terminations.count("stalled") == 15
        assert terminations.count("tolerance_met") == 1
        assert sum(trace.iterations for _, trace, _, _ in cells) <= 1550
        assert [tried[0] for tried in points.values()].count(None) == \
            {7: 15, 20231: 14}[seed]
        for hp, (state, trace, _, _) in zip(hps, cells):
            if trace.termination != "stalled":
                continue
            assert trace.polish_attempts in (1, 2) and state.prox_step is None
            tried = points[hp.C, hp.sigma]
            assert len(tried) == trace.polish_attempts
            assert tried[0] is not None or trace.polish_attempts == 1
            path = tmp_path / "trace.csv"
            write_trace_csv(trace, str(path))
            stored = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:]
            dues = _dues(array("d", stored.ravel()))
            assert dues[trace.polish_attempts - 1] == trace.iterations
            alone, alone_trace = solve(
                train, replace(hp, max_iter=trace.iterations), gram=gram)
            assert (alone_trace.termination, alone_trace.flat) == \
                ("max_iter", trace.flat)
            for name in ("c", "u", "lam", "gamma_k", "eta", "xi", "r", "omega"):
                assert getattr(state, name).tobytes() == \
                    getattr(alone, name).tobytes(), (hp.C, hp.sigma, name)

    @pytest.mark.parametrize("seed", [7, 20231])
    def test_every_separable_circles_cell_is_polished(self, seed):
        # circles r=0, --m 500, default 8x2 grid: each non-trivial cell,
        # C = 32 and C = 64 at sigma = 1 on seed 20231 among them, ends
        # at an exact KKT point with 15 support vectors
        cfg = RunConfig(command="bench", generator="circles", m=500, seed=seed,
                        loss=(LossKind.L01,), selection="paper")
        rows = bench_rows(cfg)
        assert [(r["termination"], r["nsv"]) for r in rows
                if (r["C"], r["sigma"]) != (0.5, 2.0)] == [("polished", 15)] * 15
        assert sum(r["iters"] for r in rows) <= 1600

    def test_noisy_cell_ends_at_exact_kkt_point(self):
        # the zero-one row that bench selects on circles r=0.05, seed 7
        cfg = RunConfig(command="bench", generator="circles", m=500, seed=7,
                        noise_rate=0.05, selection="paper")
        (row,) = [r for r in bench_rows(cfg) if "paper" in r["selection"]]
        assert (row["termination"], row["nsv"], row["test_acc"]) == \
            ("polished", 14, 0.92)
        train, _, _ = prepare_splits(cfg)
        hp = Hyperparams(C=row["C"], sigma=row["sigma"],
                         kernel=gaussian_spec(1.0 / train.d))
        K = gram_matrix(hp.kernel, train.X).entries
        state, trace = solve(train, hp)
        assert (trace.termination, trace.iterations) == ("polished", row["iters"])
        args = (state.c, state.b, state.u, state.lam, K, train.y, hp.C)
        assert check_kkt(*args, tol=1e-8).is_kkt
        assert check_prox_stationary(*args, state.prox_step,
                                     tol=1e-8).is_prox_stationary
