"""Quartic ERM machinery: losses, gradients, solvers, error metrics."""

import dataclasses
import functools
import itertools
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
    UnsupportedSetError,
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
    s = _sample(np.eye(2), [4.0, 0.0])
    np.testing.assert_allclose(spectral_init(s), [math.sqrt(2.0), 0.0], atol=1e-12)


@pytest.mark.parametrize("a, expected", [
    ([1.0, -1.0], [1.0, -1.0]),            # eigh's vector starts negative
    ([0.0, 1.0, -1.0], [0.0, 1.0, -1.0]),  # its first coordinate is zero
])
def test_spectral_init_sign_convention(a, expected):
    # spectral matrix a a^T: top eigenpair (|a|^2, a/|a|), so the start is a up
    # to sign, and the first non-negligible coordinate decides the sign; eigh's
    # own vector points the other way, so the convention has to flip it
    s = _sample([a], [1.0])
    assert np.linalg.eigh(erm._spectral_matrix(s.A, s.y))[1][:, -1] @ expected < 0
    np.testing.assert_allclose(spectral_init(s), expected, atol=1e-12)


def test_spectral_init_negative_definite_matrix_gives_zero():
    s = _sample(np.eye(2), [-1.0, -2.0])
    np.testing.assert_array_equal(spectral_init(s), np.zeros(2))


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
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(oracle_budget=0)
    # a non-integer is refused when built: PGD at max_iterations=2.5 never met its budget
    for field, value in (("max_iterations", 2.5), ("restarts", 2.5), ("oracle_budget", True),
                         ("restarts", 2.0), ("max_iterations", "300")):
        with pytest.raises(ValueError, match=f"{field}: expected an integer, got {value!r}"):
            SolverConfig(**{field: value})
    assert SolverConfig(max_iterations=np.int64(50)).max_iterations == 50


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
        hits += error_metrics(res.x_hat, x0)[1] <= 1e-6
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
    assert error_metrics(res.x_hat, x0)[1] <= 1e-6
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
    # no accepted objective exceeds the start's, and the best restart can only be lower
    x0 = random_feasible(cset, np.random.default_rng(seed), 1)[0]
    noise = NoiseModel("gaussian", sigma) if sigma > 0 else QUIET
    s = generate_sample(x0, GAUSS(6), noise, N, seed=seed)
    f_start = objective(s, project(cset, spectral_init(s)))
    res = solve_pgd(s, cset, SolverConfig(restarts=restarts), seed=seed)
    assert res.objective_value <= f_start + 1e-12 * max(1.0, f_start)


@pytest.mark.parametrize(
    "cset, sparse",
    [(sparse_cap(6, 2), False), (l1_ball(6, 1.5), False), (l2_ball(6, 2.0), False),
     (ambient(6), False), (sparse_cap(6, 2), True)],
    ids=["sparse_cap", "l1_ball", "l2_ball", "ambient", "sparse_cap_tables"],
)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6), sigma=st.sampled_from([0.1, 1.0]))
def test_batched_descent_rows_are_independent(cset, sparse, seed, k, sigma):
    # a k-row product rounds differently from a one-row product, and over a full
    # run a backtracking, projected descent can turn that into another accept or
    # reject and another local minimum; so a batch row is compared with its solo
    # run over a short horizon only, behind a zero row (stationary: it leaves at
    # iteration 1), and a full run must commute with permuting the rows exactly.
    # With `sparse` (id sparse_cap_tables) the kernel runs the sparse steps
    rng = np.random.default_rng(seed)
    x0 = random_feasible(cset, rng, 1)[0]
    s = generate_sample(x0, GAUSS(6), NoiseModel("gaussian", sigma), 40, seed=seed)
    starts = project(cset, 2.0 * rng.standard_normal((k, 6)))
    base_step = 0.1 / max(float(spectral_init(s) @ spectral_init(s)), 1e-12)

    def run(X, max_iter):
        steps = erm._SparseSteps(s.A, s.y) if sparse else erm._DenseSteps(s.A, s.y)
        return erm._descend(steps, X, base_step, max_iter, 1e-8, functools.partial(project, cset))

    _, f, iters, conv = run(np.vstack([np.zeros(6), starts]), 5)
    assert iters[0] == 1 and conv[0]
    for i in range(k):
        _, f_i, iters_i, conv_i = run(starts[i], 5)
        assert f_i[0] == pytest.approx(f[i + 1], rel=1e-10)
        assert (iters_i[0], conv_i[0]) == (iters[i + 1], conv[i + 1])

    full = run(starts, 200)
    assert np.all(full[3] | (full[2] == 200))
    perm = rng.permutation(k)
    for got, want in zip(run(starts[perm], 200), full):
        np.testing.assert_array_equal(got, want[perm])


@pytest.mark.parametrize(
    "cset, sparse",
    [(sparse_cap(6, 2), False), (l1_ball(6, 1.5), False), (l2_ball(6, 2.0), False),
     (ambient(6), False), (sparse_cap(6, 2), True)],
    ids=["sparse_cap", "l1_ball", "l2_ball", "ambient", "sparse_cap_tables"],
)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), sigma=st.sampled_from([0.1, 1.0]))
def test_accepted_objectives_meet_the_nonmonotone_test(cset, sparse, seed, sigma):
    # a descent capped at m accepted steps returns the m-th accepted point, so the runs
    # m = 1, 2, ... of one row trace its accepted objectives f_m.  Each must lie below
    # the largest of the row's previous <= 10 (its start's included) less 1e-4 ||dx||^2 / s,
    # taken at the largest trial step s the rule allows, 1e6 base_step; and none may
    # exceed the start's.  With `sparse` (id sparse_cap_tables) it runs the sparse steps
    rng = np.random.default_rng(seed)
    x0 = random_feasible(cset, rng, 1)[0]
    s = generate_sample(x0, GAUSS(6), NoiseModel("gaussian", sigma), 40, seed=seed)
    start = project(cset, 2.0 * rng.standard_normal((1, 6)))
    base_step = 0.1 / max(float(spectral_init(s) @ spectral_init(s)), 1e-12)

    def steps():
        return erm._SparseSteps(s.A, s.y) if sparse else erm._DenseSteps(s.A, s.y)

    xs, fs = [start[0]], [float(steps().at(start)[0][0])]
    for m in range(1, 41):
        X, f, iters, conv = erm._descend(steps(), start, base_step, m, 1e-8,
                                         functools.partial(project, cset))
        if iters[0] < m:
            break
        move2 = float(((X[0] - xs[-1]) ** 2).sum())
        assert f[0] <= max(fs[-10:]) - 1e-4 * move2 / max(1e6 * base_step, erm._TINY)
        assert f[0] <= fs[0]
        xs.append(X[0])
        fs.append(float(f[0]))
        if conv[0]:
            break
    assert len(fs) >= 2


def _sparse_points(rng, n, d, k):
    """k points with at most d nonzeros: the zero row first, then random supports of
    every size from 0 to d."""
    X = np.zeros((k, n))
    for i in range(1, k):
        size = int(rng.integers(0, d + 1))
        scale = 2.0 ** rng.integers(-3, 4)
        X[i, rng.choice(n, size, replace=False)] = scale * rng.standard_normal(size)
    return X


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), d=st.integers(1, 4),
       N=st.integers(1, 60), sigma=st.sampled_from([0.0, 0.5, 2.0]))
def test_table_gradient_equals_the_dense_gradient(seed, n, d, N, sigma):
    # the sparse steps' gradient, the dense product from z = A x on each row's own
    # columns, is the analytic gradient to rounding: within 1e-12 of the sum of the
    # absolute terms (4/N) sum (|z_i|^3 + |y_i z_i|) |a_ij|.  A column gathered for the
    # wrong coordinate, or a padding column counted, fails it
    d = min(d, n)
    rng = np.random.default_rng(seed)
    x0 = _sparse_points(rng, n, d, 2)[1]
    noise = NoiseModel("gaussian", sigma) if sigma > 0 else QUIET
    s = generate_sample(x0, GAUSS(n), noise, N, seed=seed)
    X = _sparse_points(rng, n, d, 6)
    steps = erm._SparseSteps(s.A, s.y)
    f, rz = steps.at(X)
    g = steps.gradient(rz)
    for i, x in enumerate(X):
        z = s.A @ x
        terms = (4.0 / N) * ((np.abs(z) ** 3 + np.abs(s.y * z)) @ np.abs(s.A))
        assert np.all(np.abs(g[i] - gradient(s, x)) <= 1e-12 * terms)
        assert f[i] == pytest.approx(objective(s, x), rel=1e-12, abs=0.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 12), d=st.integers(1, 4),
       sigma=st.sampled_from([0.1, 1.0]))
def test_sparse_steps_end_where_dense_steps_end(seed, n, d, sigma):
    # from the same d-sparse starts, the descent by sparse steps and by dense products
    # end on the same objectives, to 1e-12 relative
    d = min(d, n // 2)
    cset = sparse_cap(n, d)
    rng = np.random.default_rng(seed)
    x0 = random_feasible(cset, rng, 1)[0]
    s = generate_sample(x0, GAUSS(n), NoiseModel("gaussian", sigma), 20 * n, seed=seed)
    starts = project(cset, rng.standard_normal((4, n)))
    base_step = 0.1 / max(float(spectral_init(s) @ spectral_init(s)), 1e-12)
    runs = [erm._descend(steps, starts, base_step, 300, 1e-8, functools.partial(project, cset))
            for steps in (erm._DenseSteps(s.A, s.y),
                          erm._SparseSteps(s.A, s.y))]
    np.testing.assert_allclose(runs[1][1], runs[0][1], rtol=1e-12, atol=0.0)


def test_pgd_diverged_first_restart_never_wins():
    # with y scaled by 10^153.5 the loss overflows from every start; restart 0 (the
    # spectral start) never leaves the overflow, a random restart does, and only a
    # finite objective may win
    x0 = np.ones(8) / np.sqrt(8)
    s = generate_sample(x0, GAUSS(8), QUIET, 12, seed=4)

    def scaled(c):
        return PhaseSample(s.A, s.y * c, s.x0 * c, s.noise_realization * c)

    with np.errstate(over="ignore"):
        alone = solve_pgd(scaled(10.0**153.5), ambient(8), SolverConfig(), seed=1)
        assert not math.isfinite(alone.objective_value)
        assert not alone.converged
        res = solve_pgd(scaled(10.0**153.5), ambient(8), SolverConfig(restarts=8), seed=1)
        assert math.isfinite(res.objective_value)
        assert np.all(np.isfinite(res.x_hat))
        # scaled by 1e160 no restart leaves it: restart 0 is reported, not converged
        big = scaled(1e160)
        res = solve_pgd(big, ambient(8), SolverConfig(restarts=8), seed=1)
        assert res.objective_value == math.inf
        assert not res.converged
        assert np.array_equal(res.x_hat, spectral_init(big))


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
        assert error_metrics(res.x_hat, x0)[1] <= 1e-8
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


@pytest.mark.parametrize("sigma", [0.0, 0.01, 0.3, 2.0])
def test_oracle_one_sparse_equals_the_closed_form_minimum(sigma):
    # on coordinate j the loss is quadratic in u = t^2, minimized over u >= 0 at
    # u_j = max(0, sum a_ij^2 y_i / sum a_ij^4); the ERM is the best coordinate
    noise = QUIET if sigma == 0.0 else NoiseModel("gaussian", sigma)
    for trial in range(50):
        rng = np.random.default_rng(7000 + trial)
        n, N = int(rng.integers(2, 13)), int(rng.integers(10, 80))
        x0 = np.zeros(n)
        x0[rng.integers(0, n)] = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
        s = generate_sample(x0, GAUSS(n), noise, N, seed=7500 + trial)
        A2 = s.A * s.A
        u = np.maximum(0.0, (A2 * s.y[:, None]).sum(axis=0) / (A2 * A2).sum(axis=0))
        f = ((A2 * u - s.y[:, None]) ** 2).mean(axis=0)
        j = int(np.argmin(f))
        res = solve_oracle(s, sparse_cap(n, 1), SolverConfig(), seed=trial)
        assert res.objective_value == pytest.approx(f[j], rel=1e-12, abs=1e-20)
        assert np.flatnonzero(res.x_hat).tolist() == ([j] if u[j] > 0 else [])


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


@pytest.mark.parametrize("n, d", [(6, 1), (7, 3), (5, 5)])
def test_support_index_array_tiers_by_largest_index(n, d):
    table = erm._support_index_array(n, d)
    expected = sorted(itertools.combinations(range(n), d), key=lambda c: c[-1])
    assert [tuple(row) for row in table.tolist()] == expected
    assert len({tuple(row) for row in table.tolist()}) == math.comb(n, d)


def test_oracle_noise_free_recovery_through_the_per_block_screen():
    # n = 80 has 3240 > 3000 index pairs, so the Gram screen assembles each block itself
    x0 = np.zeros(80)
    x0[[17, 63]] = [0.8, -0.6]
    s = generate_sample(x0, GAUSS(80), QUIET, 120, seed=606)
    res = solve_oracle(s, sparse_cap(80, 2), SolverConfig(), seed=0)
    assert error_metrics(res.x_hat, x0)[1] <= 1e-6


@pytest.mark.parametrize("cset", [l1_ball(2), l2_ball(2), ambient(2)], ids=lambda c: c.kind)
def test_oracle_refuses_non_sparse_sets(cset):
    # the oracle certifies the ERM by enumerating supports; other sets have none to enumerate
    s = generate_sample(np.array([0.8, -0.6]), GAUSS(2), QUIET, 100, seed=55)
    with pytest.raises(UnsupportedSetError, match="sparse_cap"):
        solve_oracle(s, cset, SolverConfig(restarts=2), seed=5)


@pytest.mark.parametrize("N, sparse_steps", [
    (512, False), (1024, False), (2048, False), (4096, True), (8192, True)])
def test_sparse_steps_rule_splits_the_pgd_benchmark_sweep(N, sparse_steps):
    # the benchmark's PGD sweep on sparse_cap(64, 4) keeps cells on both sides of the
    # rule: dense steps up to N = 2048, sparse steps from N = 4096
    assert erm._sparse_steps_pay(sparse_cap(64, 4), N) == sparse_steps


# PGD on both sides of the sparse-steps rule (N 256 dense, N 2048 sparse), and the oracle
@pytest.mark.parametrize("solve, N, sparse_steps", [
    (solve_pgd, 256, False), (solve_pgd, 2048, True), (solve_oracle, 40, None),
], ids=["pgd-dense", "pgd-sparse", "oracle"])
def test_solvers_do_not_read_x0(solve, N, sparse_steps):
    # the estimator sees A and y only: blanking the sample's x0 changes nothing it returns
    cset = sparse_cap(64, 2) if solve is solve_pgd else sparse_cap(10, 2)
    if sparse_steps is not None:
        assert erm._sparse_steps_pay(cset, N) == sparse_steps
    x0 = np.zeros(cset.n)
    x0[[1, cset.n - 2]] = [0.8, -0.6]
    s = generate_sample(x0, GAUSS(cset.n), NoiseModel("gaussian", 0.2), N, seed=31)
    blank = dataclasses.replace(s, x0=np.full(cset.n, np.nan))
    config = SolverConfig(restarts=3)
    a, b = solve(s, cset, config, seed=4), solve(blank, cset, config, seed=4)
    assert [f.name for f in dataclasses.fields(a)] == [
        "x_hat", "objective_value", "iterations_used", "converged"]
    assert np.array_equal(a.x_hat, b.x_hat)
    assert ((a.objective_value, a.iterations_used, a.converged)
            == (b.objective_value, b.iterations_used, b.converged))


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
