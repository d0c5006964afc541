import itertools
from dataclasses import replace

import numpy as np
import pytest

from conftest import toy_dataset
from zeroone import (Dataset, GramMatrix, Hyperparams, InputError, KernelSpec,
                     LossKind, NumericalError, ProxParams, accuracy, admm,
                     check_prox_stationary, decision_function, flip_labels,
                     from_solution, gaussian_spec, gen_double_circles,
                     gen_double_moons, gram_matrix, predict, prox_hinge, solve,
                     solve_baseline, split, standardize)
from zeroone.baselines import solve_grid
from zeroone.cli import (DEFAULT_GRID_C, DEFAULT_GRID_SIGMA, RunConfig,
                         prepare_splits)
from zeroone.model import support_vectors
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

    def test_hinge_fixed_point_residual_at_convergence(self, monkeypatch):
        # the finished point is a fixed point of the hinge prox at 1/sigma
        # to within the finish's tolerance; with every search given up, the
        # ADMM's own iterate meets its tolerance, with the gap below eps
        ds = gen_double_circles(100, seed=23)
        train, test = split(ds, seed=24)
        train, test, _ = standardize(train, test)
        hp = self._hp(C=4.0)
        p = ProxParams(gamma=1.0 / hp.sigma, C=hp.C)

        def gap(state):
            return np.linalg.norm(
                state.u - prox_hinge(state.u - state.lam / hp.sigma, p)) / (
                    1.0 + np.linalg.norm(state.u))

        state, trace, _ = solve_baseline(train, hp, LossKind.HINGE)
        assert (trace.termination, trace.iterations) == ("polished", 50)
        assert gap(state) <= admm._EXACT_TOL
        monkeypatch.setattr(admm, "finish", lambda *args: None)
        state, trace, _ = solve_baseline(train, hp, LossKind.HINGE)
        assert trace.termination == "tolerance_met"
        assert gap(state) <= hp.eps

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
        # a cell capped at 20 iterations, below the baselines' first search
        # at 50, ends max_iter; at eps 0.3 the (0.5, 1) hinge cell meets its
        # tolerance at iteration 2, where its search gives up
        hps += [replace(hps[2], max_iter=20), replace(hps[0], eps=0.3)]
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
        assert terminations == {
            (LossKind.L01, "tolerance_met"), (LossKind.L01, "stalled"),
            (LossKind.L01, "max_iter"), (LossKind.HINGE, "polished"),
            (LossKind.HINGE, "tolerance_met"), (LossKind.HINGE, "max_iter"),
            (LossKind.SQHINGE, "polished"), (LossKind.SQHINGE, "max_iter")}
        assert cells[1][1].iterations == 1  # l01, C=0.5, sigma=2

    def test_support_rule_of_each_loss(self):
        """The zero-one model keeps the threshold-interval rule at its
        certified step, a baseline the samples with a nonzero multiplier,
        and ``from_solution`` defaults to the zero-one rule."""
        train, hps, gram = _moons_grid()
        cells = solve_grid(train, hps, list(LossKind), gram=gram)
        for (kind, hp), (state, _, model, _) in zip(
                itertools.product(LossKind, hps), cells):
            l01 = support_vectors(state.u, state.lam, hp.C, model.gamma)
            if kind is LossKind.L01:
                np.testing.assert_array_equal(model.support, l01)
            else:
                np.testing.assert_array_equal(model.support,
                                              np.flatnonzero(state.lam))
            np.testing.assert_array_equal(
                from_solution(state, train, hp).support, l01)

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


def _grid_small_solves(seed):
    """``grid-small``'s two baseline batches: moons, --m 500, noise rate
    0.05, the default 8x2 (C, sigma) grid."""
    train, test, _ = prepare_splits(RunConfig(command="bench", generator="moons",
                                              m=500, seed=seed, noise_rate=0.05))
    kernel = gaussian_spec(1.0 / train.d)
    hps = [Hyperparams(C=C, sigma=s, kernel=kernel)
           for C, s in itertools.product(DEFAULT_GRID_C, DEFAULT_GRID_SIGMA)]
    gram = gram_matrix(kernel, train.X)
    kinds = [LossKind.HINGE, LossKind.SQHINGE]
    cells = solve_grid(train, hps, kinds, gram=gram)
    return train, test, gram, list(zip(itertools.product(kinds, hps), cells))


class TestBaselineFinish:
    """``admm.finish`` on the convex losses: a baseline row ends at its
    exact optimum."""

    @pytest.fixture(scope="class", params=[7, 20231])
    def grid_small(self, request):
        return _grid_small_solves(request.param)

    def test_every_row_is_polished_at_an_exact_point(self, grid_small):
        # all four scaled residuals within 1e-8 with the kind's own prox at
        # 1/sigma: the certificate finish accepts, read here afresh
        train, _, gram, cells = grid_small
        for (kind, hp), (state, trace, model, _) in cells:
            assert trace.termination == "polished", (kind, hp.C, hp.sigma)
            assert state.prox_step is None and model.gamma == 1.0 / hp.sigma
            rep = check_prox_stationary(state.c, state.b, state.u, state.lam,
                                        gram.entries, train.y, hp.C, model.gamma,
                                        tol=admm._EXACT_TOL, kind=kind)
            assert rep.is_prox_stationary, (kind, hp.C, hp.sigma, rep)
            np.testing.assert_array_equal(state.c, -train.y * state.lam)
            np.testing.assert_array_equal(model.support, np.flatnonzero(state.c))

    def test_primal_and_support_only_forms_agree(self, grid_small):
        train, test, _, cells = grid_small
        for (kind, hp), (_, _, model, _) in cells:
            assert model.nsv < train.n
            np.testing.assert_allclose(decision_function(model, test.X, form="dual"),
                                       decision_function(model, test.X), atol=1e-12)
            np.testing.assert_array_equal(predict(model, test.X, form="dual"),
                                          predict(model, test.X))

    def test_objective_not_above_a_long_admm_run(self, monkeypatch):
        # the ADMM run with every search given up, to eps 1e-10 within
        # 20 000 iterations; its objective at the consistent slack bounds
        # the optimum from above, up to rounding
        train, hps, gram = _moons_grid()
        kinds = [LossKind.HINGE, LossKind.SQHINGE]
        finished = solve_grid(train, hps, kinds, gram=gram)
        monkeypatch.setattr(admm, "finish", lambda *args: None)
        long = solve_grid(train, [replace(hp, max_iter=20_000, eps=1e-10) for hp in hps],
                          kinds, gram=gram)
        K = gram.entries
        for (kind, hp), point, admm_run in zip(itertools.product(kinds, hps),
                                               finished, long):
            assert point[1].termination == "polished"
            assert admm_run[1].termination == "tolerance_met"
            best = admm.slack_objective(kind, K, train.y, admm_run[0], hp.C)
            got = admm.slack_objective(kind, K, train.y, point[0], hp.C)
            assert got <= best + 1e-12 * best, (kind, hp.C, hp.sigma)

    def test_carried_product_matches_a_fresh_one(self, monkeypatch):
        # grid-small's hinge cells at sigma = 1, seed 7: every step's slack
        # is 1 - y (K c + b) with K c formed afresh, up to rounding of the
        # terms summed.  Some accepted steps reach |c| of 1e10, whose sums
        # cancel to |K c| of order 1, so a bound relative to |K c| fails by
        # rounding alone (1e-7, with K c_B gathered afresh at every step too)
        train, _, _ = prepare_splits(RunConfig(command="bench", generator="moons",
                                               m=500, seed=7, noise_rate=0.05))
        hps = [Hyperparams(C=C, sigma=1.0, kernel=gaussian_spec(1.0 / train.d))
               for C in (0.5, 8.0, 64.0)]
        step = admm._finish_step
        steps = []

        def spy(K, y, side, KcB, yB, C, ridge, rank):
            assert yB == y[side > 0].sum()  # a sum of labels, carried exactly
            out = step(K, y, side, KcB, yB, C, ridge, rank)
            if out is not None:
                _, c, b, u = out
                terms = np.abs(K).dot(np.abs(c))
                steps.append(np.abs(u - (1.0 - y * (K.dot(c) + b))).max()
                             / (1.0 + terms.max()))
            return out

        monkeypatch.setattr(admm, "_finish_step", spy)
        cells = solve_grid(train, hps, [LossKind.HINGE])
        assert [cell[1].termination for cell in cells] == ["polished"] * 3
        assert len(steps) > 200 and max(steps) <= 1e-10

    def test_search_that_gives_up_leaves_the_row_iterating(self, monkeypatch):
        # grid-small's hinge cell C=64, sigma=1, seed 7: the margin set
        # {u = 0} of each iterate from 50 to 230 holds 71-220 points, whose
        # bordered system is numerically singular (cond 1e16-1e19), so each
        # search gives up at its first solve and the row iterates on; the
        # search from iteration 240 reaches the optimum
        train, _, _ = prepare_splits(RunConfig(command="bench", generator="moons",
                                               m=500, seed=7, noise_rate=0.05))
        hp = Hyperparams(C=64.0, sigma=1.0, kernel=gaussian_spec(1.0 / train.d))
        tried = []
        real = admm.finish

        def spy(K, y, row_state, C, sigma, rank, kind):
            out = real(K, y, row_state, C, sigma, rank, kind)
            tried.append((row_state.iter, out is not None))
            return out

        monkeypatch.setattr(admm, "finish", spy)
        _, trace, _ = solve_baseline(train, hp, LossKind.HINGE)
        assert (trace.termination, trace.iterations) == ("polished", 240)
        assert tried == [(k, k == 240) for k in range(50, 250, 10)]
        assert trace.polish_attempts == len(tried)
        ((_, capped, _, _),) = solve_grid(train, [replace(hp, max_iter=235)],
                                          [LossKind.HINGE])
        assert (capped.termination, capped.polish_attempts) == ("max_iter", 19)
        assert capped.flat == trace.flat[:len(capped.flat)]
