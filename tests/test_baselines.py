import itertools

import numpy as np
import pytest

from conftest import toy_dataset
from zeroone import (Dataset, GramMatrix, Hyperparams, InputError, KernelSpec,
                     LossKind, NumericalError, ProxParams, accuracy, admm,
                     flip_labels, from_solution, gaussian_spec,
                     gen_double_circles, gen_double_moons, gram_matrix,
                     predict, prox_hinge, solve, solve_baseline,
                     split, standardize)
from zeroone.baselines import solve_grid
from zeroone.prox import objective


class TestObjective:
    def test_zero_point(self):
        for kind in LossKind:
            assert objective(kind, np.zeros(3), np.zeros(3), np.array([-1.0, 0.0, -2.0]), 4.0) == 0.0

    def test_loss_terms_by_kind(self):
        u = np.array([1.0, -1.0, 2.0])
        assert objective(LossKind.L01, np.zeros(3), np.zeros(3), u, 1.0) == 2.0
        assert objective(LossKind.HINGE, np.zeros(3), np.zeros(3), u, 1.0) == 3.0
        assert objective(LossKind.SQHINGE, np.zeros(3), np.zeros(3), u, 1.0) == 5.0

    def test_linear_in_weight(self):
        rng = np.random.default_rng(0)
        K = np.eye(4)
        c = rng.normal(size=4)
        u = rng.normal(size=4)
        quad = 0.5 * c @ (K @ c)
        for kind in LossKind:
            lo = objective(kind, K @ c, c, u, 1.0) - quad
            hi = objective(kind, K @ c, c, u, 2.0) - quad
            assert hi == pytest.approx(2.0 * lo, rel=1e-12)

    def test_accepts_string_kind(self):
        assert objective("hinge_l1", np.zeros(1), np.zeros(1), np.array([2.0]), 1.0) == 2.0


class TestSolveBaseline:
    def _hp(self, **kw):
        kw.setdefault("C", 1.0)
        kw.setdefault("sigma", 1.0)
        kw.setdefault("kernel", gaussian_spec(0.5))
        return Hyperparams(**kw)

    def test_l01_routes_to_main_solver(self):
        ds = toy_dataset()
        hp = self._hp()
        state, trace, model = solve_baseline(ds, hp, LossKind.L01)
        state2, trace2 = solve(ds, hp)
        assert trace.records == trace2.records
        assert trace.termination == trace2.termination
        assert (state.b, state.iter) == (state2.b, state2.iter)
        for name in ("c", "u", "lam", "gamma_k", "eta", "xi", "r", "omega"):
            assert getattr(state, name).tobytes() == \
                getattr(state2, name).tobytes(), name
        model2 = from_solution(state2, ds, hp)
        np.testing.assert_array_equal(model.support, model2.support)

    @pytest.mark.parametrize("kind", [LossKind.HINGE, LossKind.SQHINGE])
    def test_toy_separable(self, kind):
        ds = toy_dataset()
        state, trace, model = solve_baseline(ds, self._hp(), kind)
        assert accuracy(predict(model, ds.X), ds.y) == 1.0

    def test_all_kinds_separate_clean_circles(self):
        ds = gen_double_circles(120, noise_std=0.02, seed=21)
        train, test = split(ds, seed=22)
        train, test, _ = standardize(train, test)
        hp = self._hp(C=8.0, kernel=gaussian_spec(0.5))
        for kind in LossKind:
            _, _, model = solve_baseline(train, hp, kind)
            assert accuracy(predict(model, train.X), train.y) == 1.0

    def test_hinge_fixed_point_residual_at_convergence(self):
        ds = gen_double_circles(100, seed=23)
        train, test = split(ds, seed=24)
        train, test, _ = standardize(train, test)
        hp = self._hp(C=4.0)
        state, trace, _ = solve_baseline(train, hp, LossKind.HINGE)
        assert trace.termination == "tolerance_met"
        p = ProxParams(gamma=1.0 / hp.sigma, C=hp.C)
        gap = np.linalg.norm(
            state.u - prox_hinge(state.u - state.lam / hp.sigma, p))
        assert gap / (1.0 + np.linalg.norm(state.u)) <= hp.eps

    def test_unmasked_dual_ascent(self):
        # baseline multipliers are not zeroed off any index set
        ds = gen_double_circles(60, noise_std=0.2, seed=25)
        hp = self._hp(C=2.0, max_iter=50)
        state, _, _ = solve_baseline(ds, hp, LossKind.SQHINGE)
        assert np.count_nonzero(state.lam) > len(state.gamma_k)

    def test_objective_trace_matches_kind(self):
        ds = toy_dataset()
        hp = self._hp(max_iter=5, eps=1e-14)
        for kind in (LossKind.HINGE, LossKind.SQHINGE):
            state, trace, _ = solve_baseline(ds, hp, kind)
            K = gram_matrix(hp.kernel, ds.X).entries
            solver = admm._coefficient_solvers(K, [hp.sigma])[hp.sigma]
            want = objective(kind, solver.K_times(state.c), state.c, state.u, hp.C)
            assert trace.records[-1].objective == want

    def test_loss_sparsity_ordering(self):
        # the zero-one loss keeps far fewer support vectors than the hinge
        ds = gen_double_circles(200, seed=26)
        from zeroone import flip_labels
        ds = flip_labels(ds, 0.15, seed=27)
        train, test = split(ds, seed=28)
        train, test, _ = standardize(train, test)
        hp = self._hp(C=4.0, kernel=gaussian_spec(0.5))
        _, _, m_l0 = solve_baseline(train, hp, LossKind.L01)
        _, _, m_hinge = solve_baseline(train, hp, LossKind.HINGE)
        assert m_l0.nsv < m_hinge.nsv


def _moons_grid(max_iter=300):
    """Noisy moons (m_train 60) and a (C, sigma) grid whose cells mix
    terminations for every loss; l01 stops at iteration 1 at (0.5, 2)."""
    ds = flip_labels(gen_double_moons(100, seed=7), 0.1, seed=8)
    train, test = split(ds, seed=9)
    train, _, _ = standardize(train, test)
    kernel = gaussian_spec(1.0 / train.d)
    hps = [Hyperparams(C=C, sigma=sigma, max_iter=max_iter, kernel=kernel)
           for C, sigma in itertools.product((0.5, 4.0, 64.0), (1.0, 2.0))]
    return train, hps, gram_matrix(kernel, train.X)


def _indefinite_grid():
    """Six samples with an indefinite linear Gram, lambda_min(K) = -3, and
    two cells: K + I/sigma has a Cholesky factor for sigma = 0.1 and none
    for sigma = 1."""
    rng = np.random.default_rng(8)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    K = (Q * np.array([-3.0, 0.5, 1.0, 1.5, 2.0, 2.5])) @ Q.T
    K = 0.5 * (K + K.T)
    linear = KernelSpec("linear", {})
    ds = Dataset(X=rng.normal(size=(6, 2)), y=np.array([1.0, -1.0] * 3))
    gram = GramMatrix(entries=K, spec=linear, fingerprint=ds.fingerprint())
    hps = [Hyperparams(C=1.0, sigma=s, max_iter=30, kernel=linear)
           for s in (0.1, 1.0)]
    return ds, gram, hps


class TestSolveGrid:
    def test_cells_bitwise_equal_solves_alone(self):
        train, hps, gram = _moons_grid()
        cells = solve_grid(train, hps, list(LossKind), gram=gram)
        terminations = set()
        for (kind, hp), (state, trace, model, _) in zip(
                itertools.product(LossKind, hps), cells):
            alone, alone_trace, alone_model = solve_baseline(train, hp, kind,
                                                             gram=gram)
            assert trace.records == alone_trace.records
            assert trace.termination == alone_trace.termination
            assert (state.b, state.iter) == (alone.b, alone.iter)
            for name in ("c", "u", "lam", "gamma_k", "eta", "xi", "r", "omega"):
                assert getattr(state, name).tobytes() == \
                    getattr(alone, name).tobytes(), (kind, hp.C, hp.sigma, name)
            np.testing.assert_array_equal(model.support, alone_model.support)
            terminations.add((kind, trace.termination))
        assert len(terminations) == 6
        assert cells[1][1].iterations == 1  # l01, C=0.5, sigma=2

    def test_each_row_keeps_its_own_solver(self, monkeypatch):
        """Only sigma=2's stored inverse is corrupted.  Its cells, which
        alternate with the sigma=1 cells in every batch, each fail with the
        condition number of K + I/2; the sigma=1 cells are bitwise the
        clean run."""
        train, hps, gram = _moons_grid(max_iter=50)
        # 2C >= sigma in every cell, so no sigma=2 cell starts at a fixed point
        hps = [Hyperparams(C=C, sigma=sigma, max_iter=50, kernel=hps[0].kernel)
               for C, sigma in itertools.product((1.0, 16.0), (1.0, 2.0))]
        clean = solve_grid(train, hps, list(LossKind), gram=gram)
        real = admm._coefficient_solvers

        def corrupt_sigma_2(K, sigmas):
            solvers = real(K, sigmas)
            solvers[2.0].A_inv *= 2.0
            return solvers

        monkeypatch.setattr(admm, "_coefficient_solvers", corrupt_sigma_2)
        cells = solve_grid(train, hps, list(LossKind), gram=gram)
        K = gram.entries
        cond_2 = np.linalg.cond(K + np.eye(len(K)) / 2.0)
        assert cond_2 != pytest.approx(np.linalg.cond(K + np.eye(len(K))))
        for (kind, hp), out, ref in zip(itertools.product(LossKind, hps),
                                        cells, clean):
            if hp.sigma == 2.0:
                assert isinstance(out, NumericalError), (kind, hp.C)
                assert out.cond == pytest.approx(cond_2, rel=1e-9)
                continue
            (state, trace, model, _), (want, want_trace, want_model, _) = out, ref
            assert trace.records == want_trace.records
            assert trace.termination == want_trace.termination
            assert (state.b, state.iter) == (want.b, want.iter)
            for name in ("c", "u", "lam", "gamma_k", "eta", "xi", "r", "omega"):
                assert getattr(state, name).tobytes() == \
                    getattr(want, name).tobytes(), (kind, hp.C, name)
            np.testing.assert_array_equal(model.support, want_model.support)

    def test_wall_shares_follow_iterations(self):
        train, hps, gram = _moons_grid(max_iter=50)
        cells = solve_grid(train, hps, [LossKind.L01, LossKind.HINGE], gram=gram)
        for batch in (cells[:len(hps)], cells[len(hps):]):
            per_iter = [wall / trace.iterations for _, trace, _, wall in batch]
            assert min(per_iter) > 0.0
            assert max(per_iter) == pytest.approx(min(per_iter), rel=1e-9)

    def test_failed_set_up_removes_only_its_sigma(self):
        ds, gram, hps = _indefinite_grid()
        ok, failed = solve_grid(ds, hps, [LossKind.HINGE], gram=gram)
        assert isinstance(failed, NumericalError)
        alone, trace, _ = solve_baseline(ds, hps[0], LossKind.HINGE, gram=gram)
        assert ok[1].records == trace.records
        assert ok[0].c.tobytes() == alone.c.tobytes()

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_solve_baseline_raises_failed_set_up(self, kind):
        ds, gram, hps = _indefinite_grid()
        with pytest.raises(NumericalError, match="Cholesky"):
            solve_baseline(ds, hps[1], kind, gram=gram)

    def test_cells_share_one_kernel(self):
        train, hps, gram = _moons_grid(max_iter=5)
        hps[1] = Hyperparams(C=1.0, sigma=1.0, kernel=KernelSpec("linear", {}))
        with pytest.raises(InputError, match="one kernel"):
            solve_grid(train, hps, [LossKind.L01], gram=gram)
