"""Experiment orchestration: rate predictions, seeded sweeps, slope fits, I/O.

Every (cell, trial) task derives its own generators from the master seed and
the task's grid position, so tables are bit-identical for any worker count.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .ensembles import Ensemble, NoiseModel, generate_sample, sub_seed, substream
from .erm import SolverConfig, StepRule, solve_oracle, solve_pgd
from .errors import BudgetExceededError, ConfigError, InsufficientDataError
from .sets import ConstraintSet, l1_display, random_feasible, toward_shell

REGIMES = ("noise_free_r0", "high_noise_r2", "large_signal_sN", "small_signal_vN", "low_snr_rN")


@dataclass(frozen=True)
class RatePrediction:
    """Predicted error rates (constants set to 1).

    rate bounds the sign-resolved error min ||x_hat -+ x0||; product_rate
    bounds ||x_hat - x0|| * ||x_hat + x0||.  regime names the fixed point
    that drives the bound; inputs echoes the query.
    """

    rate: float
    product_rate: float
    regime: str
    inputs: dict


def predict_rate_sparse(n, d, N, sigma, R0):
    """Rates for d-sparse signals in R^n from N measurements at noise sigma."""
    if not (1 <= d <= n):
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if sigma < 0 or R0 < 0:
        raise ValueError("sigma and R0 must be >= 0")
    inputs = {"n": n, "d": d, "N": N, "sigma": sigma, "R0": R0}
    base = d * math.log(math.e * n / d)
    if sigma == 0.0:
        rate = 0.0 if N >= base else math.inf
        return RatePrediction(rate, rate, "noise_free_r0", inputs)
    star = sigma * math.sqrt(base / N) * math.sqrt(math.log(N))
    if R0 * R0 >= star:
        rate = star / R0
        inputs["sign_branch"] = "large_signal"
    else:
        rate = math.sqrt(star)
        inputs["sign_branch"] = "small_signal"
    return RatePrediction(rate, star, "high_noise_r2", inputs)


def predict_rate_l1(n, N, sigma, R0):
    """Rates for signals in the unit l1 ball, by the four-regime case split.

    Picks r_N* when sigma/R0 <= r_N*/sqrt(log N); otherwise s_N* when
    R0 >= v_N* and v_N* below that, with each fixed point evaluated by its
    dimension-dependent closed form (constants 1).
    """
    if n < 2 or N < 2:
        raise ValueError(f"need n, N >= 2, got n={n}, N={N}")
    if sigma < 0 or R0 < 0:
        raise ValueError("sigma and R0 must be >= 0")
    inputs = {"n": n, "N": N, "sigma": sigma, "R0": R0}
    r_star = l1_display("rN", 1.0, N, n)
    if sigma == 0.0:
        return RatePrediction(r_star, r_star * max(R0, r_star), "noise_free_r0", inputs)
    log_n_obs = math.log(N)
    noise_ratio = sigma / R0 if R0 > 0 else math.inf
    if noise_ratio <= r_star / math.sqrt(log_n_obs):
        return RatePrediction(r_star, r_star * max(R0, r_star), "low_snr_rN", inputs)
    slog = sigma * math.sqrt(log_n_obs)
    zeta = 1.0 / slog
    v_star = l1_display("vN", zeta, N, n)
    if R0 >= v_star:
        rate = l1_display("sN", R0 / slog, N, n)
        regime = "large_signal_sN"
    else:
        rate = v_star
        regime = "small_signal_vN"
    return RatePrediction(rate, rate * max(R0, rate), regime, inputs)


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class X0Spec:
    """How to draw the signal per trial.

    mode "explicit" uses `vector`; "random_on_shell" draws a point of the
    constraint set with norm R0; "random_sparse" draws a random d-sparse
    vector scaled to norm R0.
    """

    mode: str
    vector: tuple | None = None
    R0: float | None = None
    d: int | None = None

    def __post_init__(self):
        if self.mode not in ("explicit", "random_on_shell", "random_sparse"):
            raise ValueError(f"unknown x0 mode {self.mode!r}")
        if self.mode == "explicit":
            if self.vector is None:
                raise ValueError("explicit x0 needs a vector")
            object.__setattr__(self, "vector", tuple(float(t) for t in self.vector))
        else:
            if self.R0 is None or self.R0 < 0:
                raise ValueError(f"{self.mode} needs R0 >= 0")
        if self.mode == "random_sparse" and (self.d is None or self.d < 1):
            raise ValueError("random_sparse needs d >= 1")


@dataclass(frozen=True)
class SolverSpec:
    kind: str = "pgd"
    config: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.kind not in ("pgd", "oracle"):
            raise ValueError(f"unknown solver kind {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    constraint_set: ConstraintSet
    ensemble: Ensemble
    noise: NoiseModel
    x0_spec: X0Spec
    N_grid: tuple
    sigma_grid: tuple
    trials_per_cell: int
    solver: SolverSpec
    master_seed: int
    success_sign_error: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "N_grid", tuple(int(N) for N in self.N_grid))
        object.__setattr__(self, "sigma_grid", tuple(float(s) for s in self.sigma_grid))
        if not self.N_grid or not self.sigma_grid:
            raise ValueError("N_grid and sigma_grid must be non-empty")
        if any(N < 1 for N in self.N_grid):
            raise ValueError("N_grid entries must be >= 1")
        if any(s < 0 for s in self.sigma_grid):
            raise ValueError("sigma_grid entries must be >= 0")
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be >= 1")
        if self.constraint_set.n != self.ensemble.dimension:
            raise ValueError("constraint set and ensemble dimensions differ")
        if max(self.sigma_grid) > 0 and self.noise.kind == "none":
            raise ValueError("sigma_grid has positive entries but the noise kind is 'none'")
        if self.x0_spec.mode == "explicit" and len(self.x0_spec.vector) != self.constraint_set.n:
            raise ValueError("explicit x0 has the wrong dimension")


@dataclass(frozen=True)
class TrialRow:
    N: int
    sigma: float
    R0: float
    trial: int
    product_error: float
    sign_error: float
    objective: float
    converged: bool


@dataclass(frozen=True)
class CellSummary:
    N: int
    sigma: float
    n_trials: int
    n_converged: int
    median_product_error: float
    median_sign_error: float
    success_fraction: float


@dataclass(frozen=True)
class ResultsTable:
    rows: tuple
    summaries: tuple


# ---------------------------------------------------------------------------
# running


def _draw_x0(config, cell_index, trial):
    spec = config.x0_spec
    cset = config.constraint_set
    n = cset.n
    if spec.mode == "explicit":
        return np.array(spec.vector, dtype=float)
    rng = substream(config.master_seed, cell_index, trial, 0)
    if spec.R0 == 0.0:
        return np.zeros(n)
    if spec.mode == "random_sparse":
        d = spec.d
        if d > n:
            raise ValueError(f"random_sparse d={d} exceeds dimension {n}")
        x0 = np.zeros(n)
        supp = rng.choice(n, size=d, replace=False)
        vals = rng.standard_normal(d)
        x0[supp] = vals * (spec.R0 / np.linalg.norm(vals))
        return x0
    # random_on_shell
    z = random_feasible(cset, rng, 1)
    z = toward_shell(cset, z, spec.R0, iters=200)[0]
    nrm = float(np.linalg.norm(z))
    if abs(nrm - spec.R0) > 1e-8 * max(1.0, spec.R0):
        raise ValueError(
            f"could not place x0 on the shell ||x||={spec.R0} inside the {cset.kind}"
        )
    return z


def _run_task(args):
    config, N, sigma, cell_index, trial = args
    x0 = _draw_x0(config, cell_index, trial)
    noise = NoiseModel("none") if sigma == 0.0 else NoiseModel(config.noise.kind, sigma)
    sample_seed = sub_seed(config.master_seed, cell_index, trial, 1)
    solver_seed = sub_seed(config.master_seed, cell_index, trial, 2)
    sample = generate_sample(x0, config.ensemble, noise, N, sample_seed)
    solve = solve_oracle if config.solver.kind == "oracle" else solve_pgd
    try:
        res = solve(sample, config.constraint_set, config.solver.config, solver_seed)
        return TrialRow(
            N=N, sigma=sigma, R0=float(np.linalg.norm(x0)), trial=trial,
            product_error=res.product_error, sign_error=res.sign_error,
            objective=res.objective_value, converged=bool(res.converged),
        )
    except BudgetExceededError:
        return TrialRow(
            N=N, sigma=sigma, R0=float(np.linalg.norm(x0)), trial=trial,
            product_error=math.nan, sign_error=math.nan,
            objective=math.nan, converged=False,
        )


def summarize(rows, success_sign_error=1e-6):
    """Per-cell medians over converged trials plus the success fraction."""
    cells = {}
    order = []
    for row in rows:
        key = (row.N, row.sigma)
        if key not in cells:
            cells[key] = []
            order.append(key)
        cells[key].append(row)
    out = []
    for key in order:
        group = cells[key]
        conv = [r for r in group if r.converged]
        med_p = float(np.median([r.product_error for r in conv])) if conv else math.nan
        med_s = float(np.median([r.sign_error for r in conv])) if conv else math.nan
        successes = sum(1 for r in conv if r.sign_error <= success_sign_error)
        out.append(CellSummary(
            N=key[0], sigma=key[1], n_trials=len(group), n_converged=len(conv),
            median_product_error=med_p, median_sign_error=med_s,
            success_fraction=successes / len(group),
        ))
    return out


def run_experiment(config, threads=None):
    """Run the full grid; deterministic in master_seed for any thread count."""
    if threads is None:
        threads = int(os.environ.get("PHASELAB_THREADS", "1"))
    cells = [(N, sigma) for N in config.N_grid for sigma in config.sigma_grid]
    tasks = [
        (config, N, sigma, ci, t)
        for ci, (N, sigma) in enumerate(cells)
        for t in range(config.trials_per_cell)
    ]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(_run_task, tasks, chunksize=1))
    else:
        rows = [_run_task(t) for t in tasks]
    return ResultsTable(tuple(rows), tuple(summarize(rows, config.success_sign_error)))


def fit_slope(table, x_axis, y):
    """Log-log least-squares slope of cell medians; returns (slope, r_squared)."""
    if x_axis not in ("N", "sigma"):
        raise ValueError(f"x_axis must be 'N' or 'sigma', got {x_axis!r}")
    if y not in ("median_product_error", "median_sign_error"):
        raise ValueError(f"unknown y {y!r}")
    pts = [
        (getattr(s, x_axis), getattr(s, y))
        for s in table.summaries
        if getattr(s, x_axis) > 0 and math.isfinite(getattr(s, y)) and getattr(s, y) > 0
    ]
    if len({x for x, _ in pts}) < 3:
        raise InsufficientDataError(
            f"need >= 3 distinct positive {x_axis} values with positive medians, "
            f"have {len({x for x, _ in pts})}"
        )
    lx = np.log([x for x, _ in pts])
    ly = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(lx, ly, deg=1)
    fitted = slope * lx + intercept
    ss_res = float(((ly - fitted) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 and ss_res < 1e-20 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return float(slope), float(r2)


# ---------------------------------------------------------------------------
# persistence

_CSV_HEADER = ["N", "sigma", "R0", "trial", "product_error", "sign_error", "objective", "converged"]


def export_results(table, path):
    """Write rows to CSV at `path` and summaries to `path`+'.summary.json'."""
    path = str(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for r in table.rows:
            writer.writerow([
                r.N, repr(r.sigma), repr(r.R0), r.trial,
                repr(r.product_error), repr(r.sign_error), repr(r.objective),
                "true" if r.converged else "false",
            ])
    payload = [s.__dict__ for s in table.summaries]
    with open(path + ".summary.json", "w") as fh:
        json.dump(payload, fh, indent=1)


def load_results(path):
    """Read back a table written by export_results."""
    path = str(path)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _CSV_HEADER:
            raise ConfigError(f"{path}:1: bad header {header!r}, expected {_CSV_HEADER!r}")
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != len(_CSV_HEADER):
                raise ConfigError(f"{path}:{lineno}: expected {len(_CSV_HEADER)} fields, got {len(rec)}")
            try:
                rows.append(TrialRow(
                    N=int(rec[0]), sigma=float(rec[1]), R0=float(rec[2]), trial=int(rec[3]),
                    product_error=float(rec[4]), sign_error=float(rec[5]),
                    objective=float(rec[6]), converged={"true": True, "false": False}[rec[7]],
                ))
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"{path}:{lineno}: unparseable row field: {exc}") from exc
    sidecar = path + ".summary.json"
    if os.path.exists(sidecar):
        with open(sidecar) as fh:
            payload = json.load(fh)
        summaries = tuple(CellSummary(**entry) for entry in payload)
    else:
        summaries = tuple(summarize(rows))
    return ResultsTable(tuple(rows), summaries)


def _require(mapping, key, where):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return mapping[key]


def config_to_dict(config):
    cset = config.constraint_set
    set_dict = {"kind": cset.kind, "n": cset.n}
    if cset.d is not None:
        set_dict["d"] = cset.d
    if cset.radius is not None:
        set_dict["radius"] = cset.radius
    x0 = config.x0_spec
    sc = config.solver.config
    return {
        "set": set_dict,
        "ensemble": {"kind": config.ensemble.kind, "dimension": config.ensemble.dimension},
        "noise": {"kind": config.noise.kind, "scale": config.noise.scale},
        "x0_spec": {"mode": x0.mode, "vector": list(x0.vector) if x0.vector else None,
                    "R0": x0.R0, "d": x0.d},
        "N_grid": list(config.N_grid),
        "sigma_grid": list(config.sigma_grid),
        "trials_per_cell": config.trials_per_cell,
        "solver": {
            "kind": config.solver.kind,
            "config": {
                "max_iterations": sc.max_iterations,
                "gradient_tolerance": sc.gradient_tolerance,
                "restarts": sc.restarts,
                "oracle_budget": sc.oracle_budget,
                "step_rule": {
                    "kind": sc.step_rule.kind, "step": sc.step_rule.step,
                    "shrink": sc.step_rule.shrink, "growth": sc.step_rule.growth,
                },
            },
        },
        "master_seed": config.master_seed,
        "success_sign_error": config.success_sign_error,
    }


def save_config(config, path):
    with open(str(path), "w") as fh:
        json.dump(config_to_dict(config), fh, indent=1)


def config_from_dict(data, where="config"):
    try:
        set_dict = dict(_require(data, "set", where))
        cset = ConstraintSet(
            kind=_require(set_dict, "kind", f"{where}.set"),
            n=int(_require(set_dict, "n", f"{where}.set")),
            d=set_dict.get("d"),
            radius=set_dict.get("radius"),
        )
        ens_dict = _require(data, "ensemble", where)
        ensemble = Ensemble(
            kind=_require(ens_dict, "kind", f"{where}.ensemble"),
            dimension=int(_require(ens_dict, "dimension", f"{where}.ensemble")),
        )
        noise_dict = _require(data, "noise", where)
        noise = NoiseModel(
            kind=_require(noise_dict, "kind", f"{where}.noise"),
            scale=float(noise_dict.get("scale", 0.0)),
        )
        x0_dict = _require(data, "x0_spec", where)
        x0 = X0Spec(
            mode=_require(x0_dict, "mode", f"{where}.x0_spec"),
            vector=x0_dict.get("vector"),
            R0=x0_dict.get("R0"),
            d=x0_dict.get("d"),
        )
        solver_dict = _require(data, "solver", where)
        sc_dict = solver_dict.get("config", {})
        sr_dict = sc_dict.get("step_rule", {})
        solver = SolverSpec(
            kind=_require(solver_dict, "kind", f"{where}.solver"),
            config=SolverConfig(
                max_iterations=int(sc_dict.get("max_iterations", 300)),
                gradient_tolerance=float(sc_dict.get("gradient_tolerance", 1e-8)),
                restarts=int(sc_dict.get("restarts", 1)),
                oracle_budget=int(sc_dict.get("oracle_budget", 200_000)),
                step_rule=StepRule(
                    kind=sr_dict.get("kind", "backtracking"),
                    step=sr_dict.get("step"),
                    shrink=float(sr_dict.get("shrink", 0.5)),
                    growth=float(sr_dict.get("growth", 1.1)),
                ),
            ),
        )
        return ExperimentConfig(
            constraint_set=cset,
            ensemble=ensemble,
            noise=noise,
            x0_spec=x0,
            N_grid=tuple(_require(data, "N_grid", where)),
            sigma_grid=tuple(_require(data, "sigma_grid", where)),
            trials_per_cell=int(_require(data, "trials_per_cell", where)),
            solver=solver,
            master_seed=int(_require(data, "master_seed", where)),
            success_sign_error=float(data.get("success_sign_error", 1e-6)),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path):
    path = str(path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    return config_from_dict(data, where=path)
