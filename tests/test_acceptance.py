"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import os
import time

import numpy as np
import pytest

import zeroone as z
from conftest import FIXTURE_KINDS, make_kkt_fixture, prox_l01_oracle
from zeroone.cli import DEFAULT_GRID_C, RunConfig, bench_rows


def report(name, ok, detail=""):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


# ---------------------------------------------------------------------------
# 1. prox oracle equivalence

def test_c1_prox_oracle_equivalence():
    rng = np.random.default_rng(1001)
    gammas = rng.uniform(0.02, 5.0, size=10_000)
    Cs = rng.uniform(0.02, 10.0, size=10_000)
    etas = rng.normal(scale=2.5, size=(10_000, 4))
    t0 = time.perf_counter()
    mismatches = 0
    for eta, gamma, C in zip(etas, gammas, Cs):
        got = z.prox_l01(eta, z.ProxParams(gamma=gamma, C=C))
        want = prox_l01_oracle(eta, gamma, C)
        if not np.array_equal(got, want):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 1.0
    assert report("C1 prox-oracle equivalence", ok,
                  f"(mismatches={mismatches}, {elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 2. stationarity equivalence on constructed fixtures and violations

def test_c2_stationarity_equivalence():
    rng = np.random.default_rng(2002)
    C, tol = 2.0, 1e-8
    fixture_fails = 0
    for i in range(200):
        kind = FIXTURE_KINDS[i % len(FIXTURE_KINDS)]
        c, b, u, lam, K, y = make_kkt_fixture(rng, m=8, kind=kind)
        kkt = z.check_kkt(c, b, u, lam, K, y, C, tol=tol).is_kkt
        gamma = z.construct_gamma(u, lam, C, tol=tol)
        prox_ok = z.check_prox_stationary(c, b, u, lam, K, y, C, gamma,
                                          tol=tol).is_prox_stationary
        if not (kkt and prox_ok
                and z.equivalence_roundtrip(c, b, u, lam, K, y, C, tol=tol)):
            fixture_fails += 1

    violation_fails = 0
    for i in range(200):
        flavor = i % 3
        if flavor == 0:  # pure noise quadruple
            m = 8
            X = rng.normal(size=(m, 2))
            K = z.gram_matrix(z.gaussian_spec(0.7), X).entries
            y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
            c, u, lam = rng.normal(size=(3, m))
            b = float(rng.normal())
        elif flavor == 1:  # broken multiplier sign pattern
            c, b, u, lam, K, y = make_kkt_fixture(rng, m=8, kind="pair")
            j = np.flatnonzero(lam < 0)[0]
            lam = lam.copy()
            lam[j] = -lam[j]
        else:  # broken feasibility
            c, b, u, lam, K, y = make_kkt_fixture(rng, m=8, kind="pair")
            b = b + 1.0
        kkt = z.check_kkt(c, b, u, lam, K, y, C, tol=tol).is_kkt
        try:
            gamma = z.construct_gamma(u, lam, C, tol=tol)
            prox_ok = z.check_prox_stationary(c, b, u, lam, K, y, C, gamma,
                                              tol=tol).is_prox_stationary
        except z.InputError:
            prox_ok = False
        if kkt or prox_ok:
            violation_fails += 1
        if not z.equivalence_roundtrip(c, b, u, lam, K, y, C, tol=tol):
            violation_fails += 1

    ok = fixture_fails == 0 and violation_fails == 0
    assert report("C2 stationarity equivalence", ok,
                  f"(fixture fails={fixture_fails}, "
                  f"violation fails={violation_fails})")


# ---------------------------------------------------------------------------
# 3 + 4. convergence certificate and margin property across configurations

_CERT_CONFIGS = (
    [("circles", 150, 0.05, C, s) for C in (8, 16, 32, 64) for s in (1, 2)]
    + [("circles", 250, 0.05, C, s) for C in (8, 16, 32, 64) for s in (1, 2)]
    + [("moons", 150, 0.05, 16, 2), ("moons", 150, 0.05, 64, 2),
       ("moons", 250, 0.05, 16, 2), ("moons", 250, 0.05, 64, 2),
       ("moons", 150, 0.08, 64, 2)]
    + [("circles", 150, 0.05, 0.5, 2)]  # trivial fixed point, stops at iter 1
)


@pytest.fixture(scope="module")
def certificate_runs():
    prepared = {}
    runs = []
    for name, m, noise, C, sigma in _CERT_CONFIGS:
        key = (name, m, noise)
        if key not in prepared:
            gen = z.gen_double_circles if name == "circles" else z.gen_double_moons
            ds = gen(m, noise_std=noise, seed=31)
            train, test = z.split(ds, seed=32)
            train, test, _ = z.standardize(train, test)
            gram = z.gram_matrix(z.gaussian_spec(1.0 / train.d), train.X)
            prepared[key] = (train, gram)
        train, gram = prepared[key]
        hp = z.Hyperparams(C=float(C), sigma=float(sigma), kernel=gram.spec)
        state, trace = z.solve(train, hp, gram=gram)
        runs.append(((name, m, noise, C, sigma), train, gram, hp, state, trace))
    return runs


def test_c3_convergence_certificate(certificate_runs):
    met, failures = 0, []
    for cfg, train, gram, hp, state, trace in certificate_runs:
        if trace.termination != "tolerance_met":
            continue
        met += 1
        rep = z.check_prox_stationary(
            state.c, state.b, state.u, state.lam, gram.entries, train.y,
            hp.C, gamma=1.0 / hp.sigma, tol=1e-2)
        if not rep.is_prox_stationary:
            failures.append(cfg)
    ok = met >= 8 and not failures
    assert report(
        "C3 convergence certificate", ok,
        f"({met}/{len(certificate_runs)} tolerance_met, failures={failures})")


def test_c4_margin_property(certificate_runs):
    worst = 0.0
    checked = 0
    for cfg, train, gram, hp, state, trace in certificate_runs:
        if trace.termination != "tolerance_met":
            continue
        model = z.from_solution(state, train, hp)
        if model.nsv == 0:
            continue
        checked += 1
        h = gram.entries @ state.c + state.b
        dev = float(np.max(np.abs(train.y[model.support] * h[model.support] - 1.0)))
        worst = max(worst, dev)
    ok = checked >= 8 and worst <= 5e-2
    assert report("C4 margin property", ok,
                  f"(runs={checked}, worst deviation={worst:.2e})")


# ---------------------------------------------------------------------------
# 5. separable-benchmark regime on the full grid

@pytest.fixture(scope="module")
def table_regime_bench():
    cfg = RunConfig(command="bench", generator="circles", m=500, seed=7,
                    noise_rate=0.0, grid_c=DEFAULT_GRID_C,
                    grid_sigma=(1.0, 2.0), loss=("l01",), selection="paper")
    t0 = time.perf_counter()
    rows = bench_rows(cfg)
    return rows, time.perf_counter() - t0


def test_c5_separable_regime(table_regime_bench):
    rows, elapsed = table_regime_bench
    best = next(r for r in rows if "paper" in r["selection"])
    ok = best["test_acc"] >= 0.99 and best["nsv"] <= 30 and elapsed < 60.0
    assert report(
        "C5 separable-circles regime", ok,
        f"(best test_acc={best['test_acc']:.4f}, nsv={best['nsv']}, "
        f"bench time={elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 6 + 7. sparsity trend and noise robustness on noisy benches

@pytest.fixture(scope="module")
def noisy_benches():
    out = {}
    for name in ("circles", "moons"):
        for r in (0.05, 0.10):
            cfg = RunConfig(command="bench", generator=name, m=500, seed=7,
                            noise_rate=r, grid_c=(1.0, 4.0, 16.0),
                            grid_sigma=(1.0,), loss=("l01", "hinge_l1"),
                            selection="paper")
            out[(name, r)] = bench_rows(cfg)
    return out


def test_c6_sparsity_trend(noisy_benches):
    problems = []
    for (name, r), rows in noisy_benches.items():
        best = {row["loss"]: row for row in rows if "paper" in row["selection"]}
        l0, hinge = best["l01"], best["hinge_l1"]
        if not (l0["nsv"] < hinge["nsv"]
                and abs(l0["test_acc"] - hinge["test_acc"]) <= 0.03):
            problems.append((name, r, l0["nsv"], hinge["nsv"],
                             l0["test_acc"], hinge["test_acc"]))
    detail = "; ".join(
        f"{name} r={r}: nsv {b['l01']['nsv']} vs {b['hinge_l1']['nsv']}"
        for (name, r), rows in noisy_benches.items()
        for b in [{row["loss"]: row for row in rows
                   if "paper" in row["selection"]}])
    ok = not problems
    assert report("C6 sparsity trend", ok, f"({detail or problems})")


def test_c7_noise_robustness(noisy_benches):
    rows = noisy_benches[("circles", 0.10)]
    best = next(r for r in rows
                if r["loss"] == "l01" and "paper" in r["selection"])
    ok = 0.75 <= best["test_acc"] <= 0.90
    assert report("C7 noise robustness", ok,
                  f"(test_acc={best['test_acc']:.4f})")


# ---------------------------------------------------------------------------
# 8. masking invariants over a full-length noisy run

def test_c8_masking_invariants(admm_alone):
    # the ADMM's own iterates: the polish would end this run at iteration 110
    admm_alone()
    ds = z.gen_double_circles(150, seed=41)
    ds = z.flip_labels(ds, 0.2, seed=42)
    train, test = z.split(ds, seed=43)
    train, test, _ = z.standardize(train, test)
    hp = z.Hyperparams(C=8.0, sigma=1.0, eps=1e-15, max_iter=2000,
                       kernel=z.gaussian_spec(1.0 / train.d))
    m = train.n
    violations = []

    def check(st):
        comp = np.setdiff1d(np.arange(m), st.gamma_k)
        if not (np.all(st.u[st.gamma_k] == 0.0)
                and np.all(st.lam[comp] == 0.0)
                and abs(train.y @ (st.r - st.b * train.y)) <= 1e-12 * m):
            violations.append(st.iter)

    _, trace = z.solve(train, hp, on_iteration=check)
    ok = trace.iterations == 2000 and not violations
    assert report("C8 masking invariants", ok,
                  f"(iterations={trace.iterations}, violations={len(violations)})")


# ---------------------------------------------------------------------------
# 9. benchmark determinism

def test_c9_determinism():
    cfg = dict(command="bench", generator="circles", m=120, seed=13,
               noise_rate=0.05, grid_c=(1.0, 8.0), grid_sigma=(1.0, 2.0),
               loss=("l01", "hinge_l1"), selection="cv", cv_folds=3,
               max_iter=500)
    rows_a = bench_rows(RunConfig(**cfg))
    rows_b = bench_rows(RunConfig(**cfg))
    diffs = []
    for a, b in zip(rows_a, rows_b):
        keys = (set(a) | set(b)) - {"wall_s"}
        for k in sorted(keys):
            if a.get(k) != b.get(k):
                diffs.append((a["loss"], a["C"], a["sigma"], k))
    ok = len(rows_a) == len(rows_b) and not diffs
    assert report("C9 determinism", ok, f"(differing fields: {diffs})")


# ---------------------------------------------------------------------------
# optional: real LIBSVM datasets supplied locally

@pytest.mark.skipif("ZEROONE_REALDATA" not in os.environ,
                    reason="set ZEROONE_REALDATA to a directory of LIBSVM files")
def test_real_dataset_regime():
    root = os.environ["ZEROONE_REALDATA"]
    files = sorted(f for f in os.listdir(root)
                   if not f.startswith(".") and
                   os.path.isfile(os.path.join(root, f)))
    assert files, f"no dataset files under {root}"
    problems = []
    for fname in files:
        cfg = RunConfig(command="bench", data_path=os.path.join(root, fname),
                        seed=7, grid_c=(1.0, 8.0, 64.0), grid_sigma=(1.0,),
                        loss=("l01", "hinge_l1"), selection="paper")
        rows = bench_rows(cfg)
        best = {r["loss"]: r for r in rows if "paper" in r["selection"]}
        l0, hinge = best["l01"], best["hinge_l1"]
        print(f"{fname}: l01 acc={l0['test_acc']:.4f} nsv={l0['nsv']} | "
              f"hinge acc={hinge['test_acc']:.4f} nsv={hinge['nsv']}")
        if l0["nsv"] > hinge["nsv"]:
            problems.append(fname)
    assert report("real-dataset regime", not problems, f"({problems})")
