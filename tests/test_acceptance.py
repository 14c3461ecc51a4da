"""End-to-end acceptance checks at desk scale.

One test per shipping criterion, in order, and one check that reuses crit 6's
queries.  Every criterion prints a single ``[acceptance k] PASS/FAIL`` line
with the measured numbers (emitted with capture disabled so the line survives
into piped logs) and then asserts.
Seeds are frozen; thresholds are the contract, not tuned to the draws.
"""

import math
import time
import warnings

import numpy as np

from phaselab import (
    EQUIVALENCE_C1,
    EQUIVALENCE_C2,
    Ensemble,
    ExperimentConfig,
    FixedPointQuery,
    McConfig,
    NoiseModel,
    PZ_LEVELS,
    REARRANGEMENT_RATIO_HIGH,
    REARRANGEMENT_RATIO_LOW,
    SolverConfig,
    SolverSpec,
    X0Spec,
    excess_loss_parts,
    fit_slope,
    fixed_point,
    generate_sample,
    gradient,
    l1_ball,
    l2_ball,
    mean_width_closed_form,
    mean_width_mc,
    norm_equivalence_violations,
    objective,
    paley_zygmund_admitted,
    predict_rate_l1,
    random_feasible,
    rearrangement_ratio_range,
    run_experiment,
    solve_oracle,
    solve_pgd,
    sparse_cap,
)


def _report(capfd, index, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capfd.disabled():
        print(f"\n[acceptance {index}] {status} {name}: {detail}", flush=True)
    assert ok, f"acceptance {index} ({name}): {detail}"


def _config(cset, N_grid, sigma_grid, R0, solver_kind, trials, master_seed,
            d=4, **solver_kwargs):
    return ExperimentConfig(
        constraint_set=cset,
        ensemble=Ensemble("standard_gaussian", cset.n),
        noise=NoiseModel("gaussian") if max(sigma_grid) > 0 else NoiseModel("none"),
        x0_spec=X0Spec(mode="random_sparse", R0=R0, d=d),
        N_grid=N_grid,
        sigma_grid=sigma_grid,
        trials_per_cell=trials,
        solver=SolverSpec(kind=solver_kind, config=SolverConfig(**solver_kwargs)),
        master_seed=master_seed,
    )


def test_criterion_1_noise_free_exact_recovery(capfd):
    # d-sparse signals in n=64 are recovered exactly, without noise, once
    # N ~ 10 d log(en/d); the support-enumeration solver must nail >= 95/100.
    n, d = 64, 4
    N = math.ceil(10 * d * math.log(math.e * n / d))
    assert N == 151
    start = time.monotonic()
    table = run_experiment(
        _config(sparse_cap(n, d), (N,), (0.0,), 1.0, "oracle", 100, 101,
                oracle_budget=700_000),
        threads=1,
    )
    elapsed = time.monotonic() - start
    hits = sum(1 for row in table.rows if row.sign_error <= 1e-6)
    ok = hits >= 95 and elapsed <= 300.0
    _report(capfd, 1, "noise-free exact recovery", ok,
            f"sign_error<=1e-6 in {hits}/100 trials at N={N} ({elapsed:.0f}s)")


def test_criterion_2_error_rate_scales_with_sample_size(capfd):
    # median product error should fall like ~N^{-1/2} over N = 2^9..2^13
    start = time.monotonic()
    table = run_experiment(
        _config(sparse_cap(64, 4), (512, 1024, 2048, 4096, 8192), (0.5,),
                1.0, "pgd", 50, 202, restarts=8),
        threads=1,
    )
    elapsed = time.monotonic() - start
    slope, r_squared = fit_slope(table, "N", "median_product_error")
    ok = -0.65 <= slope <= -0.35 and elapsed <= 1800.0
    _report(capfd, 2, "error vs sample size", ok,
            f"log-log slope {slope:.3f} in [-0.65, -0.35], r2={r_squared:.3f} ({elapsed:.0f}s)")


def test_criterion_3_error_linear_in_noise_level(capfd):
    # with a unit signal the product error should be ~linear in sigma
    table = run_experiment(
        _config(sparse_cap(64, 4), (4096,), (0.1, 0.2, 0.4, 0.8),
                1.0, "pgd", 50, 303, restarts=8),
        threads=1,
    )
    slope, r_squared = fit_slope(table, "sigma", "median_product_error")
    ok = 0.75 <= slope <= 1.25
    _report(capfd, 3, "error linear in noise", ok,
            f"log-log slope {slope:.3f} in [0.75, 1.25], r2={r_squared:.3f}")


def test_criterion_4_zero_signal_exponent_halves(capfd):
    # at x0 = 0 the recovered norm scales like sqrt(sigma), not sigma
    table = run_experiment(
        _config(sparse_cap(64, 4), (4096,), (0.1, 0.2, 0.4, 0.8),
                0.0, "pgd", 50, 404, restarts=8),
        threads=1,
    )
    slope, r_squared = fit_slope(table, "sigma", "median_sign_error")
    ok = 0.35 <= slope <= 0.65
    _report(capfd, 4, "zero-signal exponent halving", ok,
            f"log-log slope {slope:.3f} in [0.35, 0.65], r2={r_squared:.3f}")


def test_criterion_5_width_estimator_calibration(capfd):
    # singleton direction: mean width is E|g| = sqrt(2/pi), within 4 SE
    est = mean_width_mc(sparse_cap(1, 1), 1.0, gaussian_draws=10_000, seed=55)
    target = math.sqrt(2.0 / math.pi)
    deviation = abs(est.value - target) / est.std_error
    ratios = []
    for cset, r_grid in ((l1_ball(64, 1.0), (0.05, 0.25, 1.0)),
                         (sparse_cap(64, 4), (0.25, 1.0, 4.0))):
        for r in r_grid:
            mc = mean_width_mc(cset, r, gaussian_draws=4096, seed=56).value
            ratios.append(mc / mean_width_closed_form(cset, r))
    ok = deviation <= 4.0 and all(0.25 <= q <= 4.0 for q in ratios)
    _report(capfd, 5, "width estimator calibration", ok,
            f"singleton {deviation:.2f} SE from sqrt(2/pi); "
            f"mc/closed in [{min(ratios):.3f}, {max(ratios):.3f}] over 6 cells")


# (functional, level, N, n) chosen so each display is exercised on both of
# its formula branches: large-n log form and small-n root form (rN's second
# branch is the degenerate zero radius).
_FIXED_POINT_COMBOS = (
    ("rN", 1.0, 64, 4096),
    ("rN", 1.0, 128, 2048),
    ("rN", 1.0, 256, 32),
    ("sN", 1.0, 256, 4096),
    ("sN", 0.5, 1024, 1024),
    ("sN", 1.0, 4096, 8),
    ("sN", 1.0, 16384, 16),
    ("vN", 1.0, 1024, 4096),
    ("vN", 2.0, 64, 64),
    ("vN", 1.0, 4096, 4),
)


def test_criterion_6_fixed_point_backends_agree(capfd):
    start = time.monotonic()
    lo, hi = math.inf, -math.inf
    zero_ok = True
    for functional, level, N, n in _FIXED_POINT_COMBOS:
        cset = l1_ball(n, 1.0)
        closed = fixed_point(cset, FixedPointQuery(functional, level, N))
        mc = fixed_point(
            cset,
            FixedPointQuery(functional, level, N, backend="monte_carlo"),
            mc=McConfig(draws=1024, seed=17),
        )
        if closed == 0.0:
            zero_ok = zero_ok and mc <= 1e-9
        else:
            ratio = mc / closed
            lo, hi = min(lo, ratio), max(hi, ratio)
    elapsed = time.monotonic() - start
    ok = zero_ok and 0.25 <= lo and hi <= 4.0 and elapsed <= 60.0
    _report(capfd, 6, "fixed-point backend consistency", ok,
            f"mc/closed in [{lo:.3f}, {hi:.3f}] over {len(_FIXED_POINT_COMBOS)} combos, "
            f"zero branch agrees={zero_ok} ({elapsed:.0f}s)")


def test_fixed_point_monotonicity_check_silent_on_width_queries():
    # Phi(r)/r^p is nonincreasing for every cap width: the check the bisection
    # driver runs must not fire on crit 6's l1 queries or on l2 Monte Carlo widths
    queries = [(l1_ball(n, 1.0), FixedPointQuery(f, level, N, backend=backend), McConfig(1024, 17))
               for f, level, N, n in _FIXED_POINT_COMBOS
               for backend in ("closed_form", "monte_carlo")]
    queries += [(l2_ball(n, radius), FixedPointQuery(f, level, N, backend="monte_carlo"),
                 McConfig(256, 3))
                for n, radius in ((8, 1.0), (32, 2.0))
                for f in ("r0", "r2", "rN", "sN", "vN")
                for level, N in ((0.5, 64), (2.0, 1024))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cset, query, mc in queries:
            fixed_point(cset, query, mc)


def test_criterion_7_deterministic_lemma_suite(capfd):
    bad_fwd, bad_bwd = norm_equivalence_violations(
        1_000_000, EQUIVALENCE_C1, EQUIVALENCE_C2, seed=777)

    lo, hi = rearrangement_ratio_range(400, seed=778)
    band_ok = REARRANGEMENT_RATIO_LOW <= lo and hi <= REARRANGEMENT_RATIO_HIGH

    pz_ok = all(admitted >= 50 and least >= PZ_LEVELS[beta][1]
                for beta, (admitted, least) in paley_zygmund_admitted(100, seed=779).items())

    ok = bad_fwd == 0 and bad_bwd == 0 and band_ok and pz_ok
    _report(capfd, 7, "deterministic lemma suite", ok,
            f"norm-equivalence violations {bad_fwd}+{bad_bwd}/1e6; "
            f"psi/rearrangement ratios [{lo:.3f}, {hi:.3f}] within "
            f"[{REARRANGEMENT_RATIO_LOW}, {REARRANGEMENT_RATIO_HIGH}]; "
            f"small-ball fraction floors hold={pz_ok}")


def test_criterion_8_solver_plumbing(capfd):
    rng = np.random.default_rng(888)
    worst_fd = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        N = int(rng.integers(6, 25))
        x0 = rng.standard_normal(n)
        sample = generate_sample(x0, Ensemble("standard_gaussian", n),
                                 NoiseModel("gaussian"), N,
                                 seed=int(rng.integers(1 << 31)))
        x = rng.standard_normal(n)
        grad = gradient(sample, x)
        h = 1e-5
        fd = np.empty(n)
        for i in range(n):
            step = np.zeros(n)
            step[i] = h
            fd[i] = (objective(sample, x + step) - objective(sample, x - step)) / (2 * h)
        worst_fd = max(worst_fd, float(np.linalg.norm(grad - fd))
                       / max(1.0, float(np.linalg.norm(fd))))

    rng = np.random.default_rng(889)
    worst_identity = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        N = int(rng.integers(6, 25))
        x0 = rng.standard_normal(n)
        sample = generate_sample(x0, Ensemble("standard_gaussian", n),
                                 NoiseModel("gaussian"), N,
                                 seed=int(rng.integers(1 << 31)))
        x = rng.standard_normal(n)
        quadratic, multiplier = excess_loss_parts(sample, x, x0)
        lhs = objective(sample, x) - objective(sample, x0)
        scale = max(abs(lhs), abs(quadratic), abs(multiplier), 1.0)
        worst_identity = max(worst_identity,
                             abs(lhs - (quadratic - multiplier)) / scale)

    cset = sparse_cap(10, 2)
    config = SolverConfig(restarts=2, max_iterations=200)
    dominance_violations = 0
    for k in range(100):
        x0 = random_feasible(cset, np.random.default_rng(9000 + k))[0]
        sigma = 0.0 if k % 2 == 0 else 0.25
        noise = NoiseModel("gaussian", scale=sigma) if sigma else NoiseModel("none")
        sample = generate_sample(x0, Ensemble("standard_gaussian", 10), noise,
                                 50, seed=10_000 + k)
        best_oracle = solve_oracle(sample, cset, config, seed=20_000 + k).objective_value
        best_pgd = solve_pgd(sample, cset, config, seed=20_000 + k).objective_value
        if best_oracle > best_pgd + 1e-9 * max(1.0, best_pgd):
            dominance_violations += 1

    ok = worst_fd <= 1e-5 and worst_identity <= 1e-10 and dominance_violations == 0
    _report(capfd, 8, "solver plumbing", ok,
            f"gradient vs FD rel {worst_fd:.2e} <= 1e-5; excess-loss identity rel "
            f"{worst_identity:.2e} <= 1e-10; oracle>pgd on {dominance_violations}/100")


def test_criterion_9_minimax_sandwich(capfd):
    # packing lower rate and predicted upper rate bracket the observed
    # median sign error within a factor of 32 (all constants set to 1)
    n, N, sigma, R0 = 64, 4096, 0.5, 1.0
    cset = l1_ball(n, 1.0)
    start = time.monotonic()
    table = run_experiment(
        _config(cset, (N,), (sigma,), R0, "pgd", 25, 909, d=1, restarts=4),
        threads=1,
    )
    observed = table.summaries[0].median_sign_error
    upper = predict_rate_l1(n, N, sigma, R0).rate
    q_star = fixed_point(
        cset,
        FixedPointQuery("qN", 1.0, N, shell_R0=R0, backend="monte_carlo"),
        mc=McConfig(draws=512, seed=11, candidates=2048, centers=4),
    )
    elapsed = time.monotonic() - start
    ok = q_star / 32.0 <= observed <= 32.0 * upper and elapsed <= 120.0
    _report(capfd, 9, "minimax sandwich", ok,
            f"{q_star / 32.0:.4g} <= median sign_error {observed:.4g} "
            f"<= {32.0 * upper:.4g} (q*={q_star:.4g}, upper rate={upper:.4g}) ({elapsed:.0f}s)")
