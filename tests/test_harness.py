"""Rate predictors, seeded experiment sweeps, slope fits, and persistence."""

import json
import math

import numpy as np
import pytest

from phaselab import (
    ConfigError,
    Ensemble,
    ExperimentConfig,
    InsufficientDataError,
    NoiseModel,
    ResultsTable,
    SolverConfig,
    SolverSpec,
    TrialRow,
    X0Spec,
    ambient,
    config_from_dict,
    config_to_dict,
    export_results,
    fit_slope,
    l1_ball,
    l2_ball,
    load_config,
    load_results,
    predict_rate_l1,
    predict_rate_sparse,
    run_experiment,
    save_config,
    sparse_cap,
    summarize,
)


# ---------------------------------------------------------------------------
# rate predictors


def test_sparse_rate_noise_free_branches():
    # N above d*log(en/d) means exact recovery, below means no guarantee
    base = 4 * math.log(math.e * 64 / 4)
    pred = predict_rate_sparse(64, 4, int(math.ceil(base)), 0.0, 1.0)
    assert pred.rate == 0.0 and pred.product_rate == 0.0
    assert pred.regime == "noise_free_r0"
    pred = predict_rate_sparse(64, 4, int(base), 0.0, 1.0)  # floor(base) < base
    assert pred.rate == math.inf


def test_sparse_rate_worked_example():
    pred = predict_rate_sparse(1024, 16, 4096, 1.0, 1.0)
    star = math.sqrt(16.0 * math.log(math.e * 64.0) / 4096.0) * math.sqrt(math.log(4096.0))
    assert abs(pred.product_rate - star) <= 1e-12
    assert abs(pred.product_rate - 0.4096) <= 5e-4  # quoted two-decimal arithmetic
    assert pred.regime == "high_noise_r2"
    assert pred.inputs["sign_branch"] == "large_signal"
    assert pred.rate == pytest.approx(star / 1.0)


def test_sparse_rate_small_signal_branch():
    pred = predict_rate_sparse(1024, 16, 4096, 1.0, 0.1)
    star = pred.product_rate
    assert 0.1**2 < star
    assert pred.rate == pytest.approx(math.sqrt(star))
    assert pred.inputs["sign_branch"] == "small_signal"


def test_sparse_rate_linear_in_sigma():
    for sigma in (0.1, 0.5, 2.0):
        a = predict_rate_sparse(256, 8, 2048, sigma, 1.0)
        b = predict_rate_sparse(256, 8, 2048, 2.0 * sigma, 1.0)
        assert b.product_rate == pytest.approx(2.0 * a.product_rate, rel=1e-12)


def test_sparse_rate_branch_boundary_is_continuous():
    # at R0^2 = (*) both sign-error formulas give exactly R0
    n, d, N, sigma = 256, 8, 2048, 0.7
    star = sigma * math.sqrt(d * math.log(math.e * n / d) / N) * math.sqrt(math.log(N))
    r0 = math.sqrt(star)
    lo = predict_rate_sparse(n, d, N, sigma, r0 * (1 - 1e-9))
    hi = predict_rate_sparse(n, d, N, sigma, r0 * (1 + 1e-9))
    assert lo.rate == pytest.approx(hi.rate, rel=1e-6)


def test_sparse_rate_monotone_in_sigma_and_N():
    sigmas = np.linspace(0.01, 3.0, 40)
    rates = [predict_rate_sparse(128, 4, 1024, s, 0.8).rate for s in sigmas]
    assert all(x <= y + 1e-15 for x, y in zip(rates, rates[1:]))
    Ns = [2**k for k in range(4, 16)]
    rates = [predict_rate_sparse(128, 4, N, 0.5, 0.8).rate for N in Ns]
    assert all(x >= y - 1e-15 for x, y in zip(rates, rates[1:]))


def test_sparse_rate_validation():
    with pytest.raises(ValueError):
        predict_rate_sparse(4, 5, 100, 0.1, 1.0)
    with pytest.raises(ValueError):
        predict_rate_sparse(4, 0, 100, 0.1, 1.0)
    with pytest.raises(ValueError):
        predict_rate_sparse(16, 2, 1, 0.1, 1.0)
    with pytest.raises(ValueError):
        predict_rate_sparse(16, 2, 100, -0.1, 1.0)


def test_l1_rate_noise_free():
    pred = predict_rate_l1(64, 4096, 0.0, 1.0)
    assert pred.rate == 0.0
    assert pred.regime == "noise_free_r0"


def test_l1_rate_large_signal_matches_case_display():
    # dimension below eta*sqrt(N): rate = (sigma/R0) * sqrt(n log N / N)
    n, N, sigma, R0 = 64, 4096, 0.5, 2.0
    pred = predict_rate_l1(n, N, sigma, R0)
    assert pred.regime == "large_signal_sN"
    expect = (sigma / R0) * math.sqrt(n * math.log(N) / N)
    assert abs(pred.rate - expect) <= 1e-12
    assert pred.product_rate == pytest.approx(pred.rate * R0)


def test_l1_rate_small_signal_matches_case_display():
    # small dimension: rate = sqrt(sigma * sqrt(n log N / N))
    n, N, sigma, R0 = 8, 4096, 0.5, 0.1
    pred = predict_rate_l1(n, N, sigma, R0)
    assert pred.regime == "small_signal_vN"
    expect = math.sqrt(sigma * math.sqrt(n * math.log(N) / N))
    assert abs(pred.rate - expect) <= 1e-12
    assert pred.product_rate == pytest.approx(pred.rate**2)  # R0 < rate


def test_l1_rate_low_snr_regime():
    # n >> N makes r_N* positive; tiny sigma/R0 falls below its threshold
    pred = predict_rate_l1(4096, 256, 1e-4, 1.0)
    assert pred.regime == "low_snr_rN"
    expect = math.sqrt(math.log(4096.0 / 256.0) / 256.0)
    assert abs(pred.rate - expect) <= 1e-12


def test_l1_rate_regime_boundaries_agree_within_factor_four():
    n, N, sigma = 64, 4096, 0.5
    slog = sigma * math.sqrt(math.log(N))
    zeta = 1.0 / slog
    c = zeta * zeta * N
    v_star = (math.log(n**3 / c) / c) ** (1.0 / 6.0)
    below = predict_rate_l1(n, N, sigma, v_star * (1 - 1e-9))
    above = predict_rate_l1(n, N, sigma, v_star * (1 + 1e-9))
    assert below.regime == "small_signal_vN"
    assert above.regime == "large_signal_sN"
    assert 0.25 <= below.rate / above.rate <= 4.0

    # low-SNR boundary in the overparametrized setting
    n, N, R0 = 4096, 256, 1.0
    r_star = math.sqrt(math.log(n / N) / N)
    s_edge = R0 * r_star / math.sqrt(math.log(N))
    below = predict_rate_l1(n, N, s_edge * (1 - 1e-9), R0)
    above = predict_rate_l1(n, N, s_edge * (1 + 1e-9), R0)
    assert below.regime == "low_snr_rN"
    assert above.regime != "low_snr_rN"
    assert 0.25 <= below.rate / above.rate <= 4.0


def test_l1_rate_monotone_within_regime_runs():
    # constants-to-1 displays have a seam where the log branch vanishes, so
    # monotonicity holds per formula branch; these windows stay inside one
    sigmas = np.linspace(0.01, 0.14, 20)  # small-dimension branch of sN
    rates = [predict_rate_l1(64, 4096, float(s), 0.5).rate for s in sigmas]
    assert all(x <= y + 1e-15 for x, y in zip(rates, rates[1:]))
    sigmas = np.linspace(0.25, 2.0, 40)  # log branches of sN and vN
    preds = [predict_rate_l1(64, 4096, float(s), 0.5) for s in sigmas]
    for a, b in zip(preds, preds[1:]):
        if a.regime == b.regime:
            assert a.rate <= b.rate + 1e-15
    Ns = [2**k for k in range(6, 13)]
    preds = [predict_rate_l1(64, N, 0.5, 0.5) for N in Ns]
    for a, b in zip(preds, preds[1:]):
        if a.regime == b.regime:
            assert a.rate >= b.rate - 1e-15


def test_l1_rate_validation():
    with pytest.raises(ValueError):
        predict_rate_l1(1, 100, 0.1, 1.0)
    with pytest.raises(ValueError):
        predict_rate_l1(64, 1, 0.1, 1.0)
    with pytest.raises(ValueError):
        predict_rate_l1(64, 100, 0.1, -1.0)


# ---------------------------------------------------------------------------
# experiment configs


def _sparse_config(**over):
    base = dict(
        constraint_set=sparse_cap(16, 2),
        ensemble=Ensemble("standard_gaussian", 16),
        noise=NoiseModel("none"),
        x0_spec=X0Spec(mode="random_sparse", R0=1.0, d=2),
        N_grid=(200,),
        sigma_grid=(0.0,),
        trials_per_cell=1,
        solver=SolverSpec(kind="oracle", config=SolverConfig()),
        master_seed=123,
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _sparse_config(N_grid=())
    with pytest.raises(ValueError):
        _sparse_config(trials_per_cell=0)
    with pytest.raises(ValueError):
        _sparse_config(sigma_grid=(0.5,))  # positive sigma but noise "none"
    with pytest.raises(ValueError):
        _sparse_config(ensemble=Ensemble("standard_gaussian", 8))
    with pytest.raises(ValueError):
        _sparse_config(x0_spec=X0Spec(mode="explicit", vector=(1.0, 0.0)))


def test_x0_spec_validation():
    with pytest.raises(ValueError):
        X0Spec(mode="psychic")
    with pytest.raises(ValueError):
        X0Spec(mode="explicit")
    with pytest.raises(ValueError):
        X0Spec(mode="random_on_shell")
    with pytest.raises(ValueError):
        X0Spec(mode="random_sparse", R0=1.0)
    with pytest.raises(ValueError):
        SolverSpec(kind="simulated_annealing")


# ---------------------------------------------------------------------------
# run_experiment


def test_noise_free_sparse_recovery_run():
    table = run_experiment(_sparse_config())
    assert len(table.rows) == 1
    assert len(table.summaries) == 1
    s = table.summaries[0]
    assert s.success_fraction == 1.0
    assert s.median_sign_error <= 1e-6
    assert s.n_converged == 1


def test_run_is_deterministic_and_thread_invariant():
    # tables are identical for any worker count, for every set kind
    for cset in (sparse_cap(6, 2), l1_ball(6, 1.5), l2_ball(6, 2.0), ambient(6)):
        config = _sparse_config(
            constraint_set=cset,
            ensemble=Ensemble("standard_gaussian", 6),
            noise=NoiseModel("gaussian"),
            x0_spec=X0Spec(mode="random_on_shell", R0=1.0),
            N_grid=(40, 60),
            sigma_grid=(0.0, 0.5),
            trials_per_cell=2,
            solver=SolverSpec(kind="pgd", config=SolverConfig(restarts=3)),
        )
        a = run_experiment(config, threads=1)
        b = run_experiment(config, threads=1)
        c = run_experiment(config, threads=2)
        assert a == b, cset.kind
        assert a == c, cset.kind
        assert len(a.rows) == 2 * 2 * 2
        assert {(r.N, r.sigma) for r in a.rows} == {(40, 0.0), (40, 0.5), (60, 0.0), (60, 0.5)}


def test_zero_signal_rows_square_the_sign_error():
    config = _sparse_config(
        constraint_set=ambient(5),
        ensemble=Ensemble("standard_gaussian", 5),
        x0_spec=X0Spec(mode="explicit", vector=(0.0,) * 5),
        N_grid=(30,),
        trials_per_cell=3,
        solver=SolverSpec(kind="pgd", config=SolverConfig(restarts=2)),
    )
    table = run_experiment(config)
    for row in table.rows:
        assert row.R0 == 0.0
        assert row.objective <= 1e-20
        assert row.product_error == pytest.approx(row.sign_error**2, rel=1e-9)


def test_budget_exceeded_becomes_nan_rows():
    config = _sparse_config(
        constraint_set=sparse_cap(20, 4),
        ensemble=Ensemble("standard_gaussian", 20),
        x0_spec=X0Spec(mode="random_sparse", R0=1.0, d=4),
        N_grid=(50,),
        trials_per_cell=2,
        solver=SolverSpec(kind="oracle", config=SolverConfig(oracle_budget=10)),
    )
    table = run_experiment(config)
    assert len(table.rows) == 2
    for row in table.rows:
        assert math.isnan(row.product_error)
        assert not row.converged
    s = table.summaries[0]
    assert s.n_converged == 0
    assert math.isnan(s.median_sign_error)
    assert s.success_fraction == 0.0


def test_rows_carry_the_requested_shell_norm():
    config = _sparse_config(
        constraint_set=l2_ball(6, 2.0),
        ensemble=Ensemble("standard_gaussian", 6),
        x0_spec=X0Spec(mode="random_on_shell", R0=0.7),
        N_grid=(25,),
        trials_per_cell=3,
        solver=SolverSpec(kind="pgd", config=SolverConfig(restarts=1)),
    )
    table = run_experiment(config)
    for row in table.rows:
        assert row.R0 == pytest.approx(0.7, abs=1e-8)


def test_random_sparse_draw_rejects_oversized_support():
    config = _sparse_config(
        constraint_set=sparse_cap(4, 4),
        ensemble=Ensemble("standard_gaussian", 4),
        x0_spec=X0Spec(mode="random_sparse", R0=1.0, d=5),
        N_grid=(20,),
    )
    with pytest.raises(ValueError):
        run_experiment(config)


def test_summaries_recomputable_from_rows():
    config = _sparse_config(
        constraint_set=l2_ball(5, 1.5),
        ensemble=Ensemble("standard_gaussian", 5),
        noise=NoiseModel("gaussian"),
        x0_spec=X0Spec(mode="random_on_shell", R0=1.0),
        N_grid=(30, 50),
        sigma_grid=(0.3,),
        trials_per_cell=5,
        solver=SolverSpec(kind="pgd", config=SolverConfig(restarts=2)),
    )
    table = run_experiment(config)
    for s in table.summaries:
        group = [r for r in table.rows if (r.N, r.sigma) == (s.N, s.sigma)]
        conv = [r for r in group if r.converged]
        assert s.n_trials == len(group) == 5
        assert s.n_converged == len(conv)
        assert s.median_product_error == pytest.approx(
            float(np.median([r.product_error for r in conv]))
        )
        assert s.success_fraction == sum(
            1 for r in conv if r.sign_error <= 1e-6
        ) / len(group)


# ---------------------------------------------------------------------------
# slope fitting


def _table_from_rows(rows):
    return ResultsTable(tuple(rows), tuple(summarize(rows)))


def _power_law_rows(Ns, sigma, c, exponent):
    rows = []
    for ci, N in enumerate(Ns):
        val = c * N**exponent
        for t in range(3):
            rows.append(TrialRow(N, sigma, 1.0, t, val, math.sqrt(val), 0.0, True))
    return rows


def test_fit_slope_exact_inverse_sqrt_law():
    table = _table_from_rows(_power_law_rows([512, 1024, 2048, 4096], 0.5, 3.0, -0.5))
    slope, r2 = fit_slope(table, "N", "median_product_error")
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_linear_in_sigma():
    rows = []
    for sigma in (0.1, 0.2, 0.4, 0.8):
        rows += [TrialRow(1024, sigma, 1.0, t, 2.0 * sigma, 2.0 * sigma, 0.0, True) for t in range(2)]
    slope, r2 = fit_slope(_table_from_rows(rows), "sigma", "median_sign_error")
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_needs_three_positive_points():
    table = _table_from_rows(_power_law_rows([512, 1024], 0.5, 3.0, -0.5))
    with pytest.raises(InsufficientDataError):
        fit_slope(table, "N", "median_product_error")
    # zero sigma cells are unusable on a log axis
    rows = _power_law_rows([512], 0.0, 3.0, -0.5)
    with pytest.raises(InsufficientDataError):
        fit_slope(_table_from_rows(rows), "sigma", "median_sign_error")


def test_fit_slope_axis_validation():
    table = _table_from_rows(_power_law_rows([512, 1024, 2048], 0.5, 3.0, -0.5))
    with pytest.raises(ValueError):
        fit_slope(table, "R0", "median_product_error")
    with pytest.raises(ValueError):
        fit_slope(table, "N", "mean_product_error")


# ---------------------------------------------------------------------------
# persistence


def test_export_empty_table_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    export_results(ResultsTable((), ()), path)
    text = path.read_text()
    assert text == "N,sigma,R0,trial,product_error,sign_error,objective,converged\n"
    back = load_results(path)
    assert back.rows == ()


def test_results_round_trip_exact(tmp_path):
    rows = (
        TrialRow(512, 0.1, 1.0, 0, 0.1 + 0.2, 1e-17, 2.5e-13, True),
        TrialRow(512, 0.1, 1.0, 1, 0.0, 0.0, 0.0, False),
        TrialRow(1024, 0.8, 0.25, 0, math.pi, math.sqrt(2.0), 1.0 / 3.0, True),
    )
    table = ResultsTable(rows, tuple(summarize(rows)))
    path = tmp_path / "rows.csv"
    export_results(table, path)
    back = load_results(path)
    assert back == table
    # line endings are LF and decimals use '.'
    raw = path.read_bytes()
    assert b"\r" not in raw and b"," in raw


def test_results_round_trip_keeps_nan_rows(tmp_path):
    rows = (TrialRow(100, 0.5, 1.0, 0, math.nan, math.nan, math.nan, False),)
    path = tmp_path / "nan.csv"
    export_results(ResultsTable(rows, tuple(summarize(rows))), path)
    back = load_results(path)
    row = back.rows[0]
    assert math.isnan(row.product_error) and not row.converged


def test_load_results_header_and_row_diagnostics(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("N,sigma\n")
    with pytest.raises(ConfigError, match=":1:"):
        load_results(bad)
    bad.write_text(
        "N,sigma,R0,trial,product_error,sign_error,objective,converged\n"
        "512,0.1,1.0,0,0.3,0.1,0.0,true\n"
        "512,0.1,1.0\n"
    )
    with pytest.raises(ConfigError, match=":3:"):
        load_results(bad)
    bad.write_text(
        "N,sigma,R0,trial,product_error,sign_error,objective,converged\n"
        "512,0.1,1.0,0,0.3,0.1,0.0,maybe\n"
    )
    with pytest.raises(ConfigError, match=":2:"):
        load_results(bad)


def test_config_dict_round_trip():
    config = _sparse_config(
        noise=NoiseModel("gaussian"),
        sigma_grid=(0.1, 0.2),
        x0_spec=X0Spec(mode="random_sparse", R0=2.0, d=2),
        solver=SolverSpec(kind="pgd", config=SolverConfig(max_iterations=123, restarts=4)),
    )
    assert config_from_dict(config_to_dict(config)) == config


def test_config_file_round_trip(tmp_path):
    config = _sparse_config()
    path = tmp_path / "config.json"
    save_config(config, path)
    assert load_config(path) == config


def test_config_missing_field_is_named(tmp_path):
    data = config_to_dict(_sparse_config())
    del data["master_seed"]
    with pytest.raises(ConfigError, match="master_seed"):
        config_from_dict(data)
    data = config_to_dict(_sparse_config())
    del data["set"]["kind"]
    with pytest.raises(ConfigError, match="kind"):
        config_from_dict(data)


def test_config_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "set": \n')
    with pytest.raises(ConfigError, match="broken.json:"):
        load_config(path)


def test_config_bad_value_wrapped_as_config_error():
    data = config_to_dict(_sparse_config())
    data["solver"]["kind"] = "annealing"
    with pytest.raises(ConfigError):
        config_from_dict(data)
