"""Quartic ERM machinery: losses, gradients, solvers, error metrics."""

import functools
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from phaselab import (
    BudgetExceededError,
    Ensemble,
    NoiseModel,
    PhaseSample,
    SolverConfig,
    StepRule,
    ambient,
    contains,
    erm,
    error_metrics,
    excess_loss_parts,
    generate_sample,
    gradient,
    l1_ball,
    l2_ball,
    objective,
    project,
    random_feasible,
    solve_oracle,
    solve_pgd,
    sparse_cap,
    spectral_init,
)

GAUSS = lambda n: Ensemble("standard_gaussian", n)
QUIET = NoiseModel("none")


def _sample(A, y, x0=None, w=None):
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if x0 is None:
        x0 = np.zeros(A.shape[1])
    if w is None:
        w = y - (A @ np.asarray(x0, dtype=float)) ** 2
    return PhaseSample(A=A, y=y, x0=np.asarray(x0, dtype=float), noise_realization=np.asarray(w, dtype=float))


# ---------------------------------------------------------------------------
# objective / gradient / excess loss


def test_objective_hand_cases():
    s = _sample([[1.0, 0.0], [2.0, 0.0]], [1.0, 4.0])
    assert objective(s, [0.0, 0.0]) == pytest.approx(8.5, abs=0.0)
    s = _sample(np.eye(2), [1.0, 4.0])
    assert objective(s, [2.0, 1.0]) == pytest.approx(9.0, abs=1e-14)


def test_objective_zero_at_truth_and_sign_blind():
    x0 = np.array([0.7, -0.2, 0.4])
    s = generate_sample(x0, GAUSS(3), QUIET, 40, seed=5)
    assert objective(s, x0) <= 1e-28
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(3)
        assert objective(s, x) == objective(s, -x)


def test_objective_dimension_mismatch():
    s = _sample(np.eye(2), [1.0, 1.0])
    with pytest.raises(ValueError):
        objective(s, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        gradient(s, [1.0])


def test_gradient_hand_cases():
    s = _sample([[1.0, 0.0]], [0.0])
    np.testing.assert_allclose(gradient(s, [1.0, 0.0]), [4.0, 0.0])
    s = _sample(np.eye(2), [1.0, 4.0])
    np.testing.assert_allclose(gradient(s, [2.0, 1.0]), [12.0, -6.0])
    s = generate_sample(np.array([1.0, 2.0]), GAUSS(2), QUIET, 9, seed=1)
    np.testing.assert_array_equal(gradient(s, [0.0, 0.0]), [0.0, 0.0])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    h = 1e-5
    for trial in range(100):
        n = int(rng.integers(2, 11))
        N = int(rng.integers(3, 15))
        x0 = rng.standard_normal(n)
        s = generate_sample(
            x0, GAUSS(n), NoiseModel("gaussian", 0.3), N, seed=1000 + trial
        )
        x = rng.standard_normal(n)
        g = gradient(s, x)
        fd = np.empty(n)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd[j] = (objective(s, x + e) - objective(s, x - e)) / (2.0 * h)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-5


def test_excess_loss_vanishes_at_either_sign():
    x0 = np.array([0.5, -1.0, 0.25])
    s = generate_sample(x0, GAUSS(3), NoiseModel("gaussian", 0.7), 60, seed=3)
    for x in (x0, -x0):
        q, m = excess_loss_parts(s, x, x0)
        assert q == 0.0 and m == 0.0


def test_excess_loss_noise_free_has_zero_multiplier():
    x0 = np.array([1.0, 2.0])
    s = generate_sample(x0, GAUSS(2), QUIET, 30, seed=4)
    rng = np.random.default_rng(8)
    for _ in range(10):
        _, m = excess_loss_parts(s, rng.standard_normal(2), x0)
        assert m == 0.0


def test_excess_loss_identity():
    rng = np.random.default_rng(15)
    for trial in range(50):
        n = int(rng.integers(2, 8))
        x0 = rng.standard_normal(n)
        s = generate_sample(
            x0, GAUSS(n), NoiseModel("gaussian", 1.1), 25, seed=200 + trial
        )
        x = rng.standard_normal(n)
        q, m = excess_loss_parts(s, x, x0)
        lhs = objective(s, x) - objective(s, x0)
        scale = max(abs(lhs), abs(q), abs(m), 1e-12)
        assert abs(lhs - (q - m)) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# spectral initializer


def test_spectral_init_zero_responses():
    s = _sample(np.eye(3), [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(spectral_init(s), np.zeros(3))


def test_spectral_init_explicit_two_by_two():
    # power iteration stops on eigenvalue change, so the eigenvector is only
    # accurate to about the square root of that tolerance
    s = _sample(np.eye(2), [4.0, 0.0])
    np.testing.assert_allclose(spectral_init(s), [math.sqrt(2.0), 0.0], atol=1e-4)


def test_spectral_init_quality_monte_carlo():
    # the estimator's norm concentrates at sqrt(3)*||x0|| for gaussian rows
    # (fourth-moment inflation), so the useful guarantee is directional:
    # strong alignment with +-x0 and a sign_error bounded by a constant
    near, aligned = 0, 0
    for trial in range(100):
        rng = np.random.default_rng(3000 + trial)
        x0 = rng.standard_normal(20)
        x0 /= np.linalg.norm(x0)
        s = generate_sample(x0, GAUSS(20), QUIET, 1000, seed=4000 + trial)
        v = spectral_init(s)
        _, sign_err, _ = error_metrics(v, x0)
        near += sign_err <= 1.2
        aligned += abs(v @ x0) / np.linalg.norm(v) >= 0.9
    assert near >= 90
    assert aligned >= 95


# ---------------------------------------------------------------------------
# error metrics


def test_error_metrics_hand_cases():
    x0 = np.array([0.6, 0.8])
    prod, sign, aligned = error_metrics(-x0, x0)
    assert prod == 0.0 and sign == 0.0 and aligned == -1
    prod, sign, aligned = error_metrics(np.zeros(2), x0)
    assert prod == pytest.approx(1.0) and sign == pytest.approx(1.0)
    prod, sign, aligned = error_metrics(2.0 * x0, x0)
    assert prod == pytest.approx(3.0) and sign == pytest.approx(1.0)
    assert aligned == 1


def test_error_metrics_bounds():
    rng = np.random.default_rng(23)
    for _ in range(200):
        x_hat = rng.standard_normal(4)
        x0 = rng.standard_normal(4)
        prod, sign, aligned = error_metrics(x_hat, x0)
        assert prod >= 0.0
        assert sign <= np.linalg.norm(x_hat) + np.linalg.norm(x0) + 1e-12
        assert aligned in (-1, 1)


def test_error_metrics_shape_mismatch():
    with pytest.raises(ValueError):
        error_metrics([1.0, 0.0], [1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# configuration validation


def test_config_validation():
    with pytest.raises(ValueError):
        StepRule(kind="newton")
    with pytest.raises(ValueError):
        StepRule(step=-0.1)
    with pytest.raises(ValueError):
        StepRule(shrink=1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(gradient_tolerance=-1e-9)
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(oracle_budget=0)


# ---------------------------------------------------------------------------
# projected gradient descent


def test_pgd_recovers_sparse_signal_noise_free():
    cset = sparse_cap(16, 2)
    config = SolverConfig(max_iterations=500, restarts=8)
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        x0 = np.zeros(16)
        supp = rng.choice(16, size=2, replace=False)
        x0[supp] = rng.standard_normal(2)
        s = generate_sample(x0, GAUSS(16), QUIET, 120, seed=6000 + trial)
        res = solve_pgd(s, cset, config, seed=trial)
        assert contains(cset, res.x_hat, tol=1e-8)
        hits += res.sign_error <= 1e-6
    assert hits >= 95


def test_pgd_zero_signal_attains_zero_objective():
    for cset in (sparse_cap(6, 2), ambient(6)):
        s = generate_sample(np.zeros(6), GAUSS(6), QUIET, 50, seed=11)
        res = solve_pgd(s, cset, SolverConfig(restarts=2), seed=0)
        assert res.objective_value <= 1e-20


def test_pgd_ambient_plane_recovery():
    x0 = np.array([1.0, 0.0])
    s = generate_sample(x0, GAUSS(2), QUIET, 200, seed=21)
    res = solve_pgd(s, ambient(2), SolverConfig(max_iterations=400, restarts=4), seed=1)
    assert res.sign_error <= 1e-6
    assert res.converged


def test_pgd_never_increases_from_its_start():
    # the reported objective is at most the spectral start's objective
    rng = np.random.default_rng(9)
    for trial in range(20):
        x0 = rng.standard_normal(5)
        s = generate_sample(
            x0, GAUSS(5), NoiseModel("gaussian", 0.5), 40, seed=700 + trial
        )
        cset = ambient(5)
        start = project(cset, spectral_init(s))
        res = solve_pgd(s, cset, SolverConfig(restarts=1), seed=trial)
        assert res.objective_value <= objective(s, start) + 1e-12
        assert res.iterations_used >= 1


@pytest.mark.parametrize(
    "cset", [sparse_cap(6, 2), l1_ball(6, 1.5), l2_ball(6, 2.0), ambient(6)],
    ids=lambda c: c.kind,
)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(8, 60),
       sigma=st.sampled_from([0.0, 0.1, 1.0]), restarts=st.integers(1, 3))
def test_pgd_never_ends_above_its_projected_spectral_start(cset, seed, N, sigma, restarts):
    # backtracking only accepts decreases, and the best restart can only be lower
    x0 = random_feasible(cset, np.random.default_rng(seed), 1)[0]
    noise = NoiseModel("gaussian", sigma) if sigma > 0 else QUIET
    s = generate_sample(x0, GAUSS(6), noise, N, seed=seed)
    f_start = objective(s, project(cset, spectral_init(s)))
    res = solve_pgd(s, cset, SolverConfig(restarts=restarts), seed=seed)
    assert res.objective_value <= f_start + 1e-12 * max(1.0, f_start)


@pytest.mark.parametrize(
    "cset", [sparse_cap(6, 2), l1_ball(6, 1.5), l2_ball(6, 2.0), ambient(6)],
    ids=lambda c: c.kind,
)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6), sigma=st.sampled_from([0.1, 1.0]))
def test_batched_descent_rows_are_independent(cset, seed, k, sigma):
    # a row of the batched kernel ends where it ends when run alone, and
    # permuting the start rows permutes the results
    rng = np.random.default_rng(seed)
    x0 = random_feasible(cset, rng, 1)[0]
    s = generate_sample(x0, GAUSS(6), NoiseModel("gaussian", sigma), 40, seed=seed)
    starts = project(cset, 2.0 * rng.standard_normal((k, 6)))
    base_step = 0.1 / max(float(spectral_init(s) @ spectral_init(s)), 1e-12)

    def run(X):
        return erm._descend(s.A, s.y, X, base_step, 200, 1e-8,
                            functools.partial(project, cset))

    _, f, _, conv = run(starts)
    for i in range(k):
        _, f_i, _, conv_i = run(starts[i])
        assert f_i[0] == pytest.approx(f[i], rel=1e-10)
        assert conv_i[0] == conv[i]
    perm = rng.permutation(k)
    _, f_perm, _, conv_perm = run(starts[perm])
    np.testing.assert_allclose(f_perm, f[perm], rtol=1e-10)
    np.testing.assert_array_equal(conv_perm, conv[perm])


def test_pgd_diverged_first_restart_never_wins():
    # from the spectral start this fixed step diverges to a NaN objective,
    # while restarts 6 and 7 reach zero; only a finite objective may win
    x0 = np.ones(8) / np.sqrt(8)
    s = generate_sample(x0, GAUSS(8), QUIET, 64, seed=1)
    config = SolverConfig(step_rule=StepRule("fixed", 0.05), restarts=8)
    res = solve_pgd(s, ambient(8), config, seed=3)
    assert np.all(np.isfinite(res.x_hat))
    assert res.objective_value <= 1e-12
    assert res.sign_error <= 1e-6
    # with every restart diverged, restart 0 is reported, not converged
    alone = solve_pgd(s, ambient(8), SolverConfig(step_rule=config.step_rule), seed=3)
    assert not math.isfinite(alone.objective_value)
    assert not alone.converged


def test_pgd_fixed_step_rule_runs():
    x0 = np.array([1.0, -0.5])
    s = generate_sample(x0, GAUSS(2), QUIET, 80, seed=31)
    config = SolverConfig(
        max_iterations=2000,
        step_rule=StepRule(kind="fixed", step=1e-3),
        restarts=2,
    )
    res = solve_pgd(s, ambient(2), config, seed=2)
    assert res.objective_value <= 1e-6


def test_pgd_result_quality_is_sign_invariant():
    x0 = np.array([0.3, -0.9, 0.1])
    s = generate_sample(x0, GAUSS(3), QUIET, 60, seed=41)
    res = solve_pgd(s, ambient(3), SolverConfig(restarts=3), seed=3)
    prod_plus, sign_plus, _ = error_metrics(res.x_hat, x0)
    prod_minus, sign_minus, _ = error_metrics(res.x_hat, -x0)
    assert prod_plus == pytest.approx(prod_minus, abs=1e-12)
    assert sign_plus == pytest.approx(sign_minus, abs=1e-12)


def test_pgd_dimension_mismatch():
    s = generate_sample(np.ones(3), GAUSS(3), QUIET, 10, seed=1)
    with pytest.raises(ValueError):
        solve_pgd(s, ambient(4), SolverConfig(), seed=0)


# ---------------------------------------------------------------------------
# exhaustive oracle


def test_oracle_one_sparse_exact_recovery():
    for trial in range(20):
        rng = np.random.default_rng(8000 + trial)
        x0 = np.zeros(6)
        x0[rng.integers(0, 6)] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        s = generate_sample(x0, GAUSS(6), QUIET, 20, seed=9000 + trial)
        res = solve_oracle(s, sparse_cap(6, 1), SolverConfig(), seed=trial)
        assert res.sign_error <= 1e-8
        assert res.converged


def test_oracle_objective_never_above_pgd():
    cset = sparse_cap(8, 2)
    config = SolverConfig(restarts=4)
    for trial in range(20):
        rng = np.random.default_rng(400 + trial)
        x0 = np.zeros(8)
        x0[rng.choice(8, 2, replace=False)] = rng.standard_normal(2)
        noise = QUIET if trial % 2 == 0 else NoiseModel("gaussian", 0.5)
        s = generate_sample(x0, GAUSS(8), noise, 60, seed=500 + trial)
        res_o = solve_oracle(s, cset, config, seed=trial)
        res_p = solve_pgd(s, cset, config, seed=trial)
        assert res_o.objective_value <= res_p.objective_value + 1e-12


def test_oracle_zero_signal_with_noise():
    s = generate_sample(
        np.zeros(6), GAUSS(6), NoiseModel("gaussian", 1.0), 40, seed=77
    )
    res = solve_oracle(s, sparse_cap(6, 2), SolverConfig(), seed=0)
    assert res.objective_value <= objective(s, np.zeros(6)) + 1e-12


def test_oracle_budget_error_names_required_budget():
    s = generate_sample(np.zeros(12), GAUSS(12), QUIET, 10, seed=1)
    needed = math.comb(12, 4)
    with pytest.raises(BudgetExceededError, match=str(needed)):
        solve_oracle(s, sparse_cap(12, 4), SolverConfig(oracle_budget=10), seed=0)


def test_oracle_dense_set_falls_back_to_restarts():
    x0 = np.array([0.8, -0.6])
    s = generate_sample(x0, GAUSS(2), QUIET, 100, seed=55)
    res = solve_oracle(s, ambient(2), SolverConfig(restarts=2), seed=5)
    assert res.sign_error <= 1e-6


# ---------------------------------------------------------------------------
# empirical quadratic lower bound


def test_quadratic_part_dominates_product_of_norms():
    # noise-free gaussian design: the quadratic part of the excess loss
    # concentrates above a small multiple of ||x-x0||^2 ||x+x0||^2
    rng = np.random.default_rng(2718)
    cset = sparse_cap(16, 2)
    x_dummy = np.zeros(16)
    s = generate_sample(x_dummy, GAUSS(16), QUIET, 64, seed=271)
    from phaselab import random_feasible

    for _ in range(1000):
        x, x0 = random_feasible(cset, rng, 2)
        rho2 = (
            np.linalg.norm(x - x0) ** 2 * np.linalg.norm(x + x0) ** 2
        )
        if rho2 <= 1e-20:
            continue
        q, _ = excess_loss_parts(s, x, x0)
        assert q / rho2 >= 0.05
