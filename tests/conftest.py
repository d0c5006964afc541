"""Shared fixtures and independent oracles for the test suite."""

from types import SimpleNamespace

import numpy as np
import pytest

from zeroone import (Hyperparams, admm, from_solution, gaussian_spec,
                     gen_double_circles, gram_matrix, solve, split,
                     standardize)


# ---------------------------------------------------------------------------
# independent oracles

def prox_l01_oracle(eta, gamma, C):
    """Two-candidate brute force for the zero-one hinge prox: compare the
    objective at v=0 and v=eta per coordinate, ties resolved to 0."""
    eta = np.asarray(eta, dtype=float)
    cost_zero = eta * eta / (2.0 * gamma)
    cost_keep = np.where(eta > 0.0, C, 0.0)
    return np.where(cost_zero <= cost_keep, 0.0, eta)


def prox_grid_oracle(loss, eta, gamma, C, step=1e-4):
    """1-D grid search minimizer of C*loss(v) + (v - eta)^2 / (2*gamma)."""
    lo = min(eta - gamma * C, 0.0) - 0.5
    hi = max(eta, 0.0) + 0.5
    vs = np.arange(lo, hi, step)
    costs = C * loss(vs) + (vs - eta) ** 2 / (2.0 * gamma)
    return float(vs[np.argmin(costs)])


def hinge_loss(v):
    return np.maximum(v, 0.0)


def sqhinge_loss(v):
    return np.maximum(v, 0.0) ** 2


# ---------------------------------------------------------------------------
# constructed first-order-stationary quadruples

def make_kkt_fixture(rng, m=8, kind="pair", kernel_rho=0.7):
    """Build (c, b, u, lam, K, y) satisfying the full KKT system to float
    precision, with the multiplier sign pattern exact.

    Kinds:
      pair    two negative multipliers of equal size on a +1/-1 label pair,
              scaled so one bias value zeroes both slacks; remaining slacks
              fall out of feasibility.
      m2pair  the same with m=2, so no slack is positive (exercises the
              multiplier-only branch of the step-size construction).
      free    zero multipliers, coefficients zero, generic bias.
      allneg  one-class labels with a bias pushing every slack negative
              (the unconstrained step-size branch).
    """
    if kind == "m2pair":
        m = 2
    while True:
        X = rng.normal(size=(m, 2)) * 1.5
        K = gram_matrix(gaussian_spec(kernel_rho), X).entries
        y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
        if kind == "allneg":
            y = np.ones(m)
            c = np.zeros(m)
            lam = np.zeros(m)
            b = 2.0 + rng.random()
            u = 1.0 - y * (K @ c) - b * y
            return c, b, u, lam, K, y
        if kind == "free":
            c = np.zeros(m)
            lam = np.zeros(m)
            b = rng.uniform(-0.8, 0.8)
            u = 1.0 - b * y
            if np.min(np.abs(u)) < 1e-4:
                continue
            return c, b, u, lam, K, y
        # pair / m2pair
        j, k = rng.choice(m, size=2, replace=False)
        y[j], y[k] = 1.0, -1.0
        q = K[j, j] - 2.0 * K[j, k] + K[k, k]
        if q < 0.5:  # keep the pair well separated so multipliers stay small
            continue
        a = 2.0 / q
        lam = np.zeros(m)
        lam[j] = lam[k] = -a
        c = -(y * lam)
        Kc = K @ c
        b = 1.0 - Kc[j]
        u = 1.0 - y * Kc - b * y
        u[[j, k]] = 0.0
        rest = np.setdiff1d(np.arange(m), [j, k])
        if len(rest) and np.min(np.abs(u[rest])) < 1e-4:
            continue
        return c, b, u, lam, K, y


FIXTURE_KINDS = ("pair", "m2pair", "free", "allneg")


# ---------------------------------------------------------------------------
# the ADMM alone

@pytest.fixture
def admm_alone(monkeypatch):
    """A call that switches the zero-one polish trigger (``admm._due``) off
    for the rest of the test, so a zero-one solve runs the ADMM alone, to
    its tolerance or ``max_iter``.  A rejected polish attempt never alters
    an iterate, so the iterates are those of the solve with the polish."""
    return lambda: monkeypatch.setattr(admm, "_due", lambda flat: False)


# ---------------------------------------------------------------------------
# solved-model fixtures

def toy_dataset():
    """Four linearly separated points, two per class."""
    from zeroone import Dataset
    X = np.array([[1.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [-1.0, -1.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    return Dataset(X=X, y=y, name="toy4")


@pytest.fixture(scope="session")
def circles_run():
    """A converged training run on small concentric circles, shared by the
    model/stationarity/cli tests."""
    ds = gen_double_circles(150, seed=11)
    train, test = split(ds, seed=12)
    train, test, stats = standardize(train, test)
    hp = Hyperparams(C=16.0, sigma=1.0, kernel=gaussian_spec(1.0 / train.d))
    gram = gram_matrix(hp.kernel, train.X)
    state, trace = solve(train, hp, gram=gram)
    assert trace.termination == "tolerance_met"
    model = from_solution(state, train, hp, scaling=stats)
    return SimpleNamespace(train=train, test=test, stats=stats, hp=hp,
                           gram=gram, state=state, trace=trace, model=model)
