import numpy as np
import pytest

from conftest import toy_dataset
from zeroone import (Hyperparams, LossKind, ProxParams, accuracy,
                     gaussian_spec, gen_double_circles, objective, predict,
                     prox_hinge, solve, solve_baseline, split,
                     standardize)


class TestObjective:
    def test_zero_point(self):
        K = np.eye(3)
        for kind in LossKind:
            assert objective(kind, K, np.zeros(3), np.array([-1.0, 0.0, -2.0]), 4.0) == 0.0

    def test_loss_terms_by_kind(self):
        K = np.eye(3)
        u = np.array([1.0, -1.0, 2.0])
        assert objective(LossKind.L01, K, np.zeros(3), u, 1.0) == 2.0
        assert objective(LossKind.HINGE, K, np.zeros(3), u, 1.0) == 3.0
        assert objective(LossKind.SQHINGE, K, np.zeros(3), u, 1.0) == 5.0

    def test_linear_in_weight(self):
        rng = np.random.default_rng(0)
        K = np.eye(4)
        c = rng.normal(size=4)
        u = rng.normal(size=4)
        quad = 0.5 * c @ (K @ c)
        for kind in LossKind:
            lo = objective(kind, K, c, u, 1.0) - quad
            hi = objective(kind, K, c, u, 2.0) - quad
            assert hi == pytest.approx(2.0 * lo, rel=1e-12)

    def test_accepts_string_kind(self):
        assert objective("hinge_l1", np.eye(1), np.zeros(1), np.array([2.0]), 1.0) == 2.0


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
        np.testing.assert_array_equal(state.c, state2.c)

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
            K = None
            from zeroone import gram_matrix
            K = gram_matrix(hp.kernel, ds.X).entries
            want = objective(kind, K, state.c, state.u, hp.C)
            assert trace.records[-1].objective == pytest.approx(want, rel=1e-12)

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
