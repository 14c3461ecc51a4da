"""Command-line behavior: subcommands, exit codes, output formats."""

import json
import math

import pytest

from phaselab import (
    Ensemble,
    ExperimentConfig,
    FixedPointQuery,
    NoiseModel,
    SolverConfig,
    SolverSpec,
    X0Spec,
    save_config,
    sparse_cap,
)
from phaselab import cli, empirics


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# width / fixed-point / packing


def test_width_monte_carlo_singleton(capsys):
    code, out, _ = _run(
        capsys, "width", "--set", "sparse_cap:1:1", "--r", "1.0",
        "--draws", "10000", "--seed", "0",
    )
    assert code == 0
    assert out.startswith("mc_width=")
    value = float(out.split()[0].split("=")[1])
    assert abs(value - math.sqrt(2.0 / math.pi)) <= 0.03


def test_width_closed_form(capsys):
    code, out, _ = _run(
        capsys, "width", "--set", "l1_ball:100:1.0", "--r", "0.05", "--closed-form"
    )
    assert code == 0
    assert out.strip() == "closed_form_width=0.5"


def test_width_rejects_bad_set_spec(capsys):
    code, _, err = _run(capsys, "width", "--set", "l1_ball", "--r", "0.5")
    assert code == 2
    assert "bad set spec" in err
    code, _, err = _run(capsys, "width", "--set", "sparse_cap:four:1", "--r", "0.5")
    assert code == 2


def test_fixed_point_closed_form_value(capsys):
    code, out, _ = _run(
        capsys, "fixed-point", "--set", "l1_ball:100000", "--functional", "rN",
        "--level", "1.0", "--N", "100",
    )
    assert code == 0
    value = float(out.strip().split("=")[1])
    assert abs(value - 0.26282608848784655) <= 1e-9


def test_fixed_point_packing_requires_monte_carlo(capsys):
    code, _, err = _run(
        capsys, "fixed-point", "--set", "l2_ball:4:1.0", "--functional", "qN",
        "--level", "1.0", "--N", "50", "--shell-R0", "0.9",
    )
    assert code == 2
    assert "monte_carlo" in err


@pytest.mark.parametrize("functional", ["rN", "sN", "vN", "r0", "r2"])
def test_fixed_point_refuses_a_shell_it_does_not_read(capsys, functional):
    # only qN and tN read the shell; the other five would silently ignore it
    code, out, err = _run(
        capsys, "fixed-point", "--set", "l1_ball:64", "--functional", functional,
        "--level", "1", "--N", "1024", "--shell-R0", "0.5",
    )
    assert code == 2
    assert out == ""
    assert f"{functional} does not read shell_R0" in err
    with pytest.raises(ValueError, match="does not read shell_R0"):
        FixedPointQuery(functional, 1.0, 100, shell_R0=0.5)


def test_fixed_point_refuses_a_non_finite_level(capsys):
    # at level inf every functional's inequality holds at any radius, so each would return 0.0
    code, out, err = _run(
        capsys, "fixed-point", "--set", "l1_ball:16", "--functional", "rN",
        "--level", "inf", "--N", "100",
    )
    assert code == 2
    assert out == ""
    assert "level must be finite and > 0, got inf" in err
    with pytest.raises(ValueError, match="level must be finite"):
        FixedPointQuery("sN", math.inf, 100)


@pytest.mark.parametrize("draws", ["0", "-5"])
def test_fixed_point_rejects_empty_monte_carlo_budget(capsys, draws):
    code, out, err = _run(
        capsys, "fixed-point", "--set", "l1_ball:64", "--functional", "sN", "--level", "1",
        "--N", "1024", "--backend", "monte_carlo", "--draws", draws,
    )
    assert code == 2
    assert out == ""
    assert "McConfig.draws must be >= 1" in err


@pytest.mark.parametrize("shell_R0", ["-1", "nan"])
def test_packing_rejects_bad_shell_radius(capsys, shell_R0):
    code, out, err = _run(
        capsys, "packing", "--set", "l2_ball:8:1.0", "--ball-radius", "1",
        "--separation", "0.1", "--shell-R0", shell_R0,
    )
    assert code == 2
    assert out == ""
    assert "shell_R0 must be >= 0" in err


@pytest.mark.parametrize("argv", [
    ("width", "--set", "l2_ball:3", "--r", "1.0", "--draws", "100"),
    ("packing", "--set", "l2_ball:3", "--ball-radius", "1", "--separation", "0.1"),
], ids=["width", "packing"])
def test_monte_carlo_commands_refuse_a_negative_seed(capsys, argv):
    code, out, err = _run(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "seed must be >= 0, got -1" in err


def test_packing_golf_ball(capsys):
    code, out, _ = _run(
        capsys, "packing", "--set", "l2_ball:2:1.0", "--ball-radius", "0.4",
        "--separation", "0.9", "--candidates", "512", "--seed", "1",
    )
    assert code == 0
    count = int(out.strip().split("=")[1])
    assert count <= 1


def test_packing_with_explicit_center(capsys):
    code, out, _ = _run(
        capsys, "packing", "--set", "l2_ball:2:1.0", "--ball-radius", "0.3",
        "--separation", "0.05", "--center", "0.5,0.0", "--candidates", "256",
    )
    assert code == 0
    assert int(out.strip().split("=")[1]) >= 1


# ---------------------------------------------------------------------------
# simulate


@pytest.fixture
def config_path(tmp_path):
    config = ExperimentConfig(
        constraint_set=sparse_cap(12, 2),
        ensemble=Ensemble("standard_gaussian", 12),
        noise=NoiseModel("none"),
        x0_spec=X0Spec(mode="random_sparse", R0=1.0, d=2),
        N_grid=(120,),
        sigma_grid=(0.0,),
        trials_per_cell=2,
        solver=SolverSpec(kind="oracle", config=SolverConfig()),
        master_seed=7,
    )
    path = tmp_path / "config.json"
    save_config(config, path)
    return path


def test_simulate_prints_summary_and_writes_csv(capsys, tmp_path, config_path):
    out_path = tmp_path / "rows.csv"
    code, out, _ = _run(
        capsys, "simulate", str(config_path), "--out", str(out_path), "--threads", "1"
    )
    assert code == 0
    assert "N=120" in out
    assert "success_fraction=1.0000" in out
    assert out_path.exists()
    assert (tmp_path / "rows.csv.summary.json").exists()
    header = out_path.read_text().splitlines()[0]
    assert header == "N,sigma,R0,trial,product_error,sign_error,objective,converged"


def test_simulate_seed_override_runs(capsys, config_path):
    code, out, _ = _run(capsys, "simulate", str(config_path), "--seed", "99")
    assert code == 0
    assert "median_sign_error" in out


def test_simulate_refuses_a_negative_seed(capsys, config_path):
    code, out, err = _run(capsys, "simulate", str(config_path), "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "master_seed must be >= 0, got -1" in err


def test_simulate_missing_config(capsys, tmp_path):
    code, _, err = _run(capsys, "simulate", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


def test_simulate_malformed_config(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"set\": }")
    code, _, err = _run(capsys, "simulate", str(path))
    assert code == 2
    assert "invalid JSON" in err


def test_simulate_config_missing_field(capsys, tmp_path, config_path):
    data = json.loads(config_path.read_text())
    del data["N_grid"]
    bad = tmp_path / "missing.json"
    bad.write_text(json.dumps(data))
    code, _, err = _run(capsys, "simulate", str(bad))
    assert code == 2
    assert "N_grid" in err


def test_simulate_config_unknown_field(capsys, tmp_path, config_path):
    # a typo, and keys that only a config saved by an older version carries
    for key, value in (("restart", 8), ("step_rule", {"kind": "backtracking"}),
                       ("gradient_tolerance", 1e-8)):
        data = json.loads(config_path.read_text())
        data["solver"]["config"] = {key: value}
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps(data))
        code, _, err = _run(capsys, "simulate", str(bad))
        assert code == 2
        assert "solver.config" in err and f"'{key}'" in err


def test_simulate_config_non_finite_number(capsys, tmp_path, config_path):
    data = json.loads(config_path.read_text())
    data["sigma_grid"] = [math.nan]
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(data))  # written as the JSON extension NaN
    code, out, err = _run(capsys, "simulate", str(bad))
    assert code == 2 and out == ""
    assert "sigma_grid" in err and "finite" in err


def test_simulate_oracle_on_a_non_sparse_set_is_refused(capsys, tmp_path, config_path):
    data = json.loads(config_path.read_text())
    data["set"] = {"kind": "l2_ball", "n": 12, "radius": 1.0}
    bad = tmp_path / "oracle_l2.json"
    bad.write_text(json.dumps(data))
    code, out, err = _run(capsys, "simulate", str(bad))
    assert code == 2 and out == ""
    assert "sparse_cap" in err and "l2_ball" in err


def test_simulate_oracle_over_budget_writes_nan_rows(capsys, tmp_path, config_path):
    # C(12, 2) = 66 supports exceed a budget of 10: each trial is a NaN row, exit 0
    data = json.loads(config_path.read_text())
    data["solver"]["config"] = {"oracle_budget": 10}
    small = tmp_path / "budget.json"
    small.write_text(json.dumps(data))
    out_path = tmp_path / "rows.csv"
    code, out, _ = _run(capsys, "simulate", str(small), "--out", str(out_path))
    assert code == 0
    assert "converged=0" in out
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    assert len(rows) == 2
    assert all(math.isnan(float(row[4])) for row in rows)


# ---------------------------------------------------------------------------
# check suites


def test_check_single_suite(capsys):
    code, out, _ = _run(capsys, "check", "psi", "--samples", "2000")
    assert code == 0
    assert out.strip() == "ok   psi"


def test_check_all_suites(capsys):
    code, out, _ = _run(capsys, "check", "--samples", "2000", "--seed", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("ok   ") for line in lines)


def test_check_failure_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(empirics, "REARRANGEMENT_RATIO_HIGH", 1.0)
    code, out, _ = _run(capsys, "check", "rearrangement", "--samples", "2000")
    assert code == 3
    assert out.startswith("FAIL rearrangement")


def test_check_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        cli.main(["check", "horoscopes"])


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        cli.main([])


def test_cached_parser_keeps_nothing_between_calls(capsys):
    # each second command prints what it prints on a freshly built parser,
    # whatever ran before it in the process
    query = ("fixed-point", "--set", "l1_ball:32", "--functional", "sN", "--level", "1",
             "--N", "256", "--backend", "monte_carlo", "--draws", "64")
    pairs = [((*query, "--seed", "5"), query),
             (("check", "psi", "--samples", "2000"), ("check", "all", "--samples", "2000"))]
    for first, second in pairs:
        cli.build_parser.cache_clear()
        alone = _run(capsys, *second)
        cli.build_parser.cache_clear()
        _run(capsys, *first)
        assert _run(capsys, *second) == alone
    assert cli.build_parser() is cli.build_parser()
