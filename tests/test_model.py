import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from zeroone import (Hyperparams, InputError, KernelSpec, LossKind, TrainedModel,
                     accuracy, cross_matrix, data_fingerprint, decision_function,
                     from_json, from_solution, gaussian_spec, predict, save_model,
                     solve, support_vectors, to_json)
from zeroone import kernels as kernels_mod
from zeroone.cli import main


def _linear_model(c, b, X, y, C=1.0, gamma=1.0):
    c = np.asarray(c, dtype=float)
    y = np.asarray(y, dtype=float)
    return TrainedModel(
        c=c, b=b, lam=-(y * c), u=np.zeros(len(c)),
        kernel=KernelSpec("linear", {}), X=np.asarray(X, dtype=float), y=y,
        gamma=gamma, C=C,
    )


def _gaussian_model(m):
    """A model over ``m`` random training rows in 2-D with random
    coefficients and a support set of every third row: there ``lam`` is in
    (-1, 0), so ``u - gamma*lam`` is in the zeroing window (0, sqrt(2)]."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(m, 2))
    y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    support = np.arange(0, m, 3)
    lam = np.zeros(m)
    lam[support] = -rng.random(len(support))
    return TrainedModel(
        c=rng.normal(size=m), b=0.1, lam=lam, u=np.zeros(m),
        kernel=gaussian_spec(0.5), X=X, y=y, gamma=1.0, C=1.0,
    )


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDecisionFunction:
    def test_empty_support_dual_is_bias(self):
        m = _linear_model([0.0], 0.7, [[0.0]], [1.0])
        assert decision_function(m, np.array([3.0]), form="dual") == 0.7
        out = decision_function(m, np.array([[1.0], [2.0]]), form="dual")
        np.testing.assert_array_equal(out, [0.7, 0.7])

    def test_primal_expansion(self):
        # h(x) = 1 * <x_train, x> with x_train = (1,): identity on scalars
        m = _linear_model([1.0], 0.0, [[1.0]], [1.0])
        assert decision_function(m, np.array([0.3])) == pytest.approx(0.3)

    def test_dimension_mismatch(self):
        m = _linear_model([1.0], 0.0, [[1.0]], [1.0])
        with pytest.raises(InputError):
            decision_function(m, np.array([1.0, 2.0]))
        with pytest.raises(InputError):
            decision_function(m, np.array([1.0]), form="banana")
        # nan >= 0 is false, so the sign rule would label it -1 silently
        for form in ("primal", "dual"):
            with pytest.raises(InputError, match="contain NaN or Inf"):
                predict(m, [[np.nan], [np.inf]], form=form)
            with pytest.raises(InputError, match="contain NaN or Inf"):
                decision_function(m, np.array([-np.inf]), form=form)

    def test_primal_dual_agree_at_stationarity(self, circles_run):
        run = circles_run
        mdl = run.model
        rec = run.trace.records[-1]
        rng = np.random.default_rng(0)
        grid = rng.uniform(-2, 2, size=(64, 2))
        hp_ = decision_function(mdl, grid, form="primal")
        hd = decision_function(mdl, grid, form="dual")
        lam_norm = float(np.linalg.norm(mdl.lam))
        bound = 10.0 * rec.beta1 * (1.0 + lam_norm)
        assert float(np.max(np.abs(hp_ - hd))) <= bound

    def test_support_margins_at_stationarity(self, circles_run):
        run = circles_run
        mdl = run.model
        h = decision_function(mdl, run.train.X)
        margins = run.train.y[mdl.support] * h[mdl.support]
        assert np.all(np.abs(margins - 1.0) <= 1e-2)


class TestBlockedDecision:
    """Queries are evaluated in row blocks, so a call holds one block of
    kernel values whatever the number of queries."""

    @pytest.fixture(scope="class")
    def mdl(self):
        return _gaussian_model(1200)

    @pytest.mark.parametrize("form", ["primal", "dual"])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 800, 1369])
    def test_matches_whole_matrix(self, mdl, n, form):
        Z = np.random.default_rng(n).uniform(-3, 3, size=(n, 2))
        if form == "primal":
            whole = cross_matrix(mdl.kernel, Z, mdl.X) @ mdl.c + mdl.b
        else:
            sv = mdl.support
            whole = (-cross_matrix(mdl.kernel, Z, mdl.X[sv])
                     @ (mdl.y[sv] * mdl.lam[sv]) + mdl.b)
        h = decision_function(mdl, Z, form=form)
        np.testing.assert_allclose(h, whole, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(predict(mdl, Z, form=form),
                                      np.where(whole >= 0.0, 1.0, -1.0))

    @pytest.mark.parametrize("n", [0, 1, 2, 26, 27, 28, 255, 256, 257, 258, 513, 800])
    def test_blocks_cover_the_queries(self, mdl, monkeypatch, n):
        # query i has first coordinate i, so a block's rows show which it is
        blocks = []
        finish = kernels_mod._finish_block

        def counted(spec, B, X, Z, scratch):
            blocks.append((B.shape, X[:, 0].copy()))
            finish(spec, B, X, Z, scratch)
        monkeypatch.setattr(kernels_mod, "_finish_block", counted)
        Z = np.zeros((n, 2))
        Z[:, 0] = np.arange(n)
        assert decision_function(mdl, Z).shape == (n,)
        # every query in exactly one block, in order, and no block above
        # _BLOCK entries (27 rows against 1200)
        covered = [r for _, rows in blocks for r in rows]
        np.testing.assert_array_equal(covered, np.arange(n))
        for (r, m), rows in blocks:
            assert r == len(rows) and m == len(mdl.X)
            assert r * m <= kernels_mod._BLOCK

    @pytest.mark.parametrize("n", [0, 1, 1369])
    def test_empty_support_gives_bias(self, mdl, n):
        bare = dataclasses.replace(mdl, lam=np.zeros_like(mdl.lam))
        assert bare.nsv == 0
        Z = np.random.default_rng(n).uniform(-3, 3, size=(n, 2))
        np.testing.assert_array_equal(decision_function(bare, Z, form="dual"),
                                      np.full(n, mdl.b))

    @pytest.mark.parametrize("form", ["primal", "dual"])
    def test_peak_memory_is_one_block(self, mdl, form):
        # 10 000 queries against 1200 rows: the whole primal kernel would
        # be 92 MiB
        Z = np.random.default_rng(3).uniform(-3, 3, size=(10_000, 2))
        assert _peak_bytes(lambda: predict(mdl, Z, form=form)) <= 3 * 2**20

    def test_boundary_peak_does_not_grow_with_grid(self, mdl, tmp_path):
        path = tmp_path / "model.json"
        save_model(mdl, str(path))

        def boundary(g):
            assert main(["boundary", "--model", str(path), "--grid-size", str(g),
                         "--out", str(tmp_path / f"grid{g}.csv")]) == 0
        peak = {g: _peak_bytes(lambda: boundary(g)) for g in (100, 200)}
        # the 200 x 200 grid's own arrays (points, decisions, labels) add
        # under 2 MiB; its whole kernel would add 275 MiB
        assert peak[200] <= peak[100] + 2 * 2**20
        assert peak[200] <= 8 * 2**20


class TestPredict:
    def test_sign_rule_with_tie(self):
        m = _linear_model([1.0], 0.0, [[1.0]], [1.0])
        out = predict(m, np.array([[0.3], [-0.1], [0.0]]))
        np.testing.assert_array_equal(out, [1.0, -1.0, 1.0])

    def test_constant_positive_bias(self):
        m = _linear_model([0.0], 0.5, [[0.0]], [1.0])
        out = predict(m, np.zeros((5, 1)))
        np.testing.assert_array_equal(out, np.ones(5))


class TestSupportVectors:
    def test_empty_when_nothing_in_window(self):
        # u - gamma*lam = u with lam = 0; no coordinate in (0, tau]
        got = support_vectors(u=np.array([-1.0, 0.0, 10.0]),
                              lam=np.zeros(3), C=2.0, gamma=1.0)
        assert len(got) == 0

    def test_window_rule(self):
        gamma, C = 1.0, 0.5
        tau = math.sqrt(2 * gamma * C)  # = 1
        u = np.array([0.0, 0.0, 2 * tau])
        lam = np.array([-tau / (2 * gamma), 0.0, 0.0])
        got = support_vectors(u, lam, C, gamma)
        np.testing.assert_array_equal(got, [0])

    def test_right_endpoint_inclusive(self):
        gamma, C = 0.5, 1.0
        tau = math.sqrt(2 * gamma * C)
        got = support_vectors(np.array([tau]), np.zeros(1), C, gamma)
        np.testing.assert_array_equal(got, [0])

    def test_dual_form_cross_check(self, circles_run):
        run = circles_run
        st = run.state
        gamma, tol = 1.0 / run.hp.sigma, 1e-6
        a = support_vectors(st.u, st.lam, run.hp.C, gamma)
        # the multiplier form: lam_i in [-sqrt(2C/gamma) - tol, -tol)
        bound = math.sqrt(2.0 * run.hp.C / gamma)
        b = np.flatnonzero((st.lam >= -bound - tol) & (st.lam < -tol))
        np.testing.assert_array_equal(a, b)

    def test_multiplier_bounds_at_stationarity(self, circles_run):
        run = circles_run
        mdl = run.model
        tol = 10 * run.hp.eps
        bound = math.sqrt(2 * mdl.C / mdl.gamma)
        assert np.all(mdl.lam >= -bound - tol)
        assert np.all(mdl.lam <= tol)
        outside = np.setdiff1d(np.arange(len(mdl.lam)), mdl.support)
        assert np.all(np.abs(mdl.lam[outside]) <= tol)


class TestAccuracy:
    def test_extremes(self):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        assert accuracy(y, y) == 1.0
        assert accuracy(-y, y) == 0.0

    def test_half(self):
        p = np.array([1.0, 1.0, -1.0, -1.0])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        assert accuracy(p, y) == 0.5

    def test_identity_with_match_fraction(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            p = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            assert accuracy(p, y) == np.mean(p == y)

    def test_validation(self):
        with pytest.raises(InputError):
            accuracy([1.0, -1.0], [1.0])
        with pytest.raises(InputError):
            accuracy([1.0, 0.5], [1.0, -1.0])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            accuracy([], [])


class TestSerialization:
    def test_round_trip(self, circles_run):
        mdl = circles_run.model
        back = from_json(to_json(mdl))
        np.testing.assert_array_equal(back.c, mdl.c)
        np.testing.assert_array_equal(back.lam, mdl.lam)
        np.testing.assert_array_equal(back.u, mdl.u)
        np.testing.assert_array_equal(back.support, mdl.support)
        np.testing.assert_array_equal(back.X, mdl.X)
        np.testing.assert_array_equal(back.y, mdl.y)
        assert back.b == mdl.b and back.gamma == mdl.gamma and back.C == mdl.C
        assert back.kernel == mdl.kernel
        assert back.loss is mdl.loss is LossKind.L01
        np.testing.assert_array_equal(back.scaling.mean, mdl.scaling.mean)
        X = circles_run.test.X
        np.testing.assert_array_equal(predict(back, X), predict(mdl, X))

    def test_stored_copies_of_an_older_file_are_ignored(self, circles_run):
        # a file as written when the support set, the constant-feature mask
        # and the training fingerprint were stored; an edited copy of the
        # first two changes nothing
        mdl, raw = circles_run.model, circles_run.test.X
        doc = json.loads(to_json(mdl))
        doc["support"] = mdl.support.tolist()
        doc["scaling"]["constant"] = [False] * len(doc["scaling"]["std"])
        doc["meta"]["train_fingerprint"] = data_fingerprint(mdl.X)
        intact = from_json(json.dumps(doc))
        doc["support"] = [0, 1, 2]
        doc["scaling"]["constant"] = [True] * len(doc["scaling"]["std"])
        edited = from_json(json.dumps(doc))
        assert edited.nsv == intact.nsv == mdl.nsv > 3
        np.testing.assert_array_equal(edited.support, mdl.support)
        for form in ("primal", "dual"):
            np.testing.assert_array_equal(
                decision_function(edited, edited.scaling.apply(raw), form=form),
                decision_function(intact, intact.scaling.apply(raw), form=form))

    def test_loss_is_stored_and_defaults_to_l01(self, circles_run):
        # a baseline model keeps its loss; a file written without the field
        # reads as the zero-one loss
        mdl = dataclasses.replace(circles_run.model, loss=LossKind.HINGE)
        doc = json.loads(to_json(mdl))
        assert doc["loss"] == "hinge_l1"
        assert from_json(json.dumps(doc)).loss is LossKind.HINGE
        del doc["loss"]
        assert from_json(json.dumps(doc)).loss is LossKind.L01

    @pytest.mark.parametrize("setting", [
        {"C": np.int64(4)}, {"sigma": np.float32(1.0)},
        {"kernel": KernelSpec("polynomial", {"degree": np.int64(2), "offset": 1.0})},
    ], ids=["C-int64", "sigma-float32", "degree-int64"])
    def test_numpy_scalar_settings_round_trip(self, circles_run, setting):
        # numpy scalars, as from a loop over np.arange, are written as numbers
        run = circles_run
        hp = Hyperparams(**{"C": 16.0, "sigma": 1.0, "kernel": run.hp.kernel,
                            "max_iter": 50, **setting})
        state, _ = solve(run.train, hp)
        mdl = from_solution(state, run.train, hp, scaling=run.stats)
        back = from_json(to_json(mdl))
        assert back.kernel == mdl.kernel
        X = run.test.X
        np.testing.assert_array_equal(predict(back, X), predict(mdl, X))

    def test_version_guard(self, circles_run):
        text = to_json(circles_run.model).replace(
            '"format_version": 1', '"format_version": 99')
        with pytest.raises(InputError):
            from_json(text)
