"""Experiment orchestration: rate predictions, seeded sweeps, slope fits, I/O.

Every (cell, trial) task derives its own generators from the master seed and
the task's grid position, so tables are bit-identical for any worker count.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .ensembles import Ensemble, NoiseModel, generate_sample, sub_seed, substream
from .erm import SolverConfig, error_metrics, solve_oracle, solve_pgd
from .errors import BudgetExceededError, ConfigError, InsufficientDataError, check_integer
from .sets import (ConstraintSet, FixedPointQuery, contains, fixed_point, l1_ball,
                   random_feasible, sparse_cap, toward_shell)

@dataclass(frozen=True)
class RatePrediction:
    """Predicted error rates (constants set to 1).

    rate bounds the sign-resolved error min ||x_hat -+ x0||; product_rate
    bounds ||x_hat - x0|| * ||x_hat + x0||.  regime names the fixed point
    that drives the bound.
    """

    rate: float
    product_rate: float
    regime: str


def predict_rate(cset, N, sigma, R0):
    """Rates for signals in `cset` from N measurements at noise sigma, by the
    four-regime case split.

    Picks r_N* when sigma/R0 <= r_N*/sqrt(log N); otherwise s_N* when
    R0 >= v_N* and v_N* below that.  Each fixed point is `sets.fixed_point` on
    the closed-form backend, so the set enters through its mean width alone
    (constants 1); a set kind with no closed-form width raises
    UnsupportedSetError.  On a cone r_N* is 0 or inf, as the width scales
    with the radius: inf below the sample complexity N < w(1)^2 (d log(en/d)
    for d-sparse vectors), where no radius meets the width inequality and
    even noise-free data do not pin the signal down.  Noise only adds to that
    error, so there the rate is inf at every sigma, in regime low_snr_rN.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if not (0 <= sigma < math.inf and 0 <= R0 < math.inf):
        raise ValueError(f"sigma and R0 must be finite and >= 0, got sigma={sigma}, R0={R0}")

    def fp(functional, level):
        return fixed_point(cset, FixedPointQuery(functional, level, N))

    r_star = fp("rN", 1.0)
    if sigma == 0.0:
        return RatePrediction(r_star, r_star * max(R0, r_star), "noise_free_r0")
    log_n_obs = math.log(N)
    noise_ratio = sigma / R0 if R0 > 0 else math.inf
    if noise_ratio <= r_star / math.sqrt(log_n_obs):
        return RatePrediction(r_star, r_star * max(R0, r_star), "low_snr_rN")
    slog = sigma * math.sqrt(log_n_obs)
    v_star = fp("vN", 1.0 / slog)
    if R0 >= v_star:
        rate, regime = fp("sN", R0 / slog), "large_signal_sN"
    else:
        rate, regime = v_star, "small_signal_vN"
    return RatePrediction(rate, rate * max(R0, rate), regime)


def predict_rate_sparse(n, d, N, sigma, R0):
    """`predict_rate` for d-sparse signals in R^n."""
    return predict_rate(sparse_cap(n, d), N, sigma, R0)


def predict_rate_l1(n, N, sigma, R0):
    """`predict_rate` for signals in the unit l1 ball of R^n, n >= 2."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    return predict_rate(l1_ball(n), N, sigma, R0)


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
    vector: tuple[float, ...] | None = None
    R0: float | None = None
    d: int | None = None

    def __post_init__(self):
        if self.mode not in ("explicit", "random_on_shell", "random_sparse"):
            raise ValueError(f"unknown x0 mode {self.mode!r}")
        if self.mode == "explicit":
            if self.vector is None:
                raise ValueError("explicit x0 needs a vector")
            object.__setattr__(self, "vector", _convert(tuple[float, ...], self.vector, "vector"))
            if not all(map(math.isfinite, self.vector)):
                raise ValueError("explicit x0 vector entries must be finite")
        elif self.R0 is None or not 0 <= self.R0 < math.inf:
            raise ValueError(f"{self.mode} needs a finite R0 >= 0, got {self.R0}")
        if self.mode == "random_sparse":
            check_integer("d", self.d, 1)


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
    N_grid: tuple[int, ...]
    sigma_grid: tuple[float, ...]
    trials_per_cell: int
    solver: SolverSpec
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "N_grid", _convert(tuple[int, ...], self.N_grid, "N_grid"))
        object.__setattr__(self, "sigma_grid",
                           _convert(tuple[float, ...], self.sigma_grid, "sigma_grid"))
        if not self.N_grid or not self.sigma_grid:
            raise ValueError("N_grid and sigma_grid must be non-empty")
        if any(N < 1 for N in self.N_grid):
            raise ValueError("N_grid entries must be >= 1")
        if not all(0 <= s < math.inf for s in self.sigma_grid):
            raise ValueError(f"sigma_grid entries must be finite and >= 0, got {self.sigma_grid}")
        check_integer("trials_per_cell", self.trials_per_cell, 1)
        check_integer("master_seed", self.master_seed, 0)
        if self.constraint_set.n != self.ensemble.dimension:
            raise ValueError("constraint set and ensemble dimensions differ")
        if self.noise.scale != 0.0:
            raise ConfigError("noise.scale is not read: sigma_grid sets each cell's noise "
                              "level; write 0.0 or leave it out")
        if max(self.sigma_grid) > 0 and self.noise.kind == "none":
            raise ValueError("sigma_grid has positive entries but the noise kind is 'none'")
        spec, cset = self.x0_spec, self.constraint_set
        if spec.mode == "explicit" and len(spec.vector) != cset.n:
            raise ValueError("explicit x0 has the wrong dimension")
        if spec.mode == "explicit" and not contains(cset, spec.vector):
            raise ValueError(f"explicit x0 lies outside the {cset.kind}")
        # a point of norm R0 has l1 and l2 norms >= R0
        if spec.mode != "explicit" and cset.kind.endswith("_ball") and spec.R0 > cset.radius:
            raise ValueError(f"{spec.mode} R0={spec.R0} exceeds the {cset.kind}'s radius "
                             f"{cset.radius}: no x0 lies in the set")
        if spec.mode == "random_sparse" and spec.d > cset.n:
            raise ValueError(f"random_sparse d={spec.d} exceeds dimension {cset.n}")
        if spec.mode == "random_sparse" and cset.kind == "sparse_cap" and spec.d > cset.d:
            raise ValueError(f"random_sparse d={spec.d} exceeds the sparse_cap's d={cset.d}")
        if self.solver.kind == "oracle" and cset.kind != "sparse_cap":
            raise ConfigError(f"the oracle solves sparse_cap only, not {cset.kind}")


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

    @property
    def summaries(self):
        """`summarize(rows)`: a table's summaries always come from its rows."""
        return tuple(summarize(self.rows))


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
        x0 = np.zeros(n)
        supp = rng.choice(n, size=spec.d, replace=False)
        vals = rng.standard_normal(spec.d)
        x0[supp] = vals * (spec.R0 / np.linalg.norm(vals))
    else:  # random_on_shell
        x0 = toward_shell(cset, random_feasible(cset, rng, 1), spec.R0)[0]
        if abs(float(np.linalg.norm(x0)) - spec.R0) > 1e-8 * max(1.0, spec.R0):
            raise ValueError(f"cell {cell_index}, trial {trial}: could not place x0 on the "
                             f"shell ||x||={spec.R0} inside the {cset.kind}")
    if not contains(cset, x0):
        raise ValueError(f"cell {cell_index}, trial {trial}: the drawn x0 lies outside the "
                         f"{cset.kind}")
    return x0


def _run_task(args):
    """Draw, solve and score one trial: the one place that scores an estimate against x0."""
    config, N, sigma, cell_index, trial = args
    x0 = _draw_x0(config, cell_index, trial)
    R0 = float(np.linalg.norm(x0))
    noise = NoiseModel(config.noise.kind, sigma)
    sample_seed = sub_seed(config.master_seed, cell_index, trial, 1)
    solver_seed = sub_seed(config.master_seed, cell_index, trial, 2)
    sample = generate_sample(x0, config.ensemble, noise, N, sample_seed)
    solve = solve_oracle if config.solver.kind == "oracle" else solve_pgd
    try:
        res = solve(sample, config.constraint_set, config.solver.config, solver_seed)
    except BudgetExceededError:  # a NaN row, not converged
        return TrialRow(N, sigma, R0, trial, math.nan, math.nan, math.nan, False)
    prod, sign, _ = error_metrics(res.x_hat, x0)
    return TrialRow(N, sigma, R0, trial, prod, sign, res.objective_value, bool(res.converged))


def summarize(rows):
    """Per-cell medians over converged trials, and the fraction of trials that succeeded:
    converged with sign error <= 1e-6."""
    cells = {}
    for row in rows:
        cells.setdefault((row.N, row.sigma), []).append(row)
    out = []
    for key, group in cells.items():
        conv = [r for r in group if r.converged]
        med_p = float(np.median([r.product_error for r in conv])) if conv else math.nan
        med_s = float(np.median([r.sign_error for r in conv])) if conv else math.nan
        successes = sum(1 for r in conv if r.sign_error <= 1e-6)
        out.append(CellSummary(
            N=key[0], sigma=key[1], n_trials=len(group), n_converged=len(conv),
            median_product_error=med_p, median_sign_error=med_s,
            success_fraction=successes / len(group),
        ))
    return out


def run_experiment(config, threads=1):
    """Run the full grid; deterministic in master_seed for any thread count."""
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
    return ResultsTable(tuple(rows))


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

# One CSV column per TrialRow field, in field order, converted by its annotation.
_CSV_HEADER = [f.name for f in dataclasses.fields(TrialRow)]
_CSV_TYPES = typing.get_type_hints(TrialRow)


def _csv_text(tp, value):
    if tp is bool:
        return "true" if value else "false"
    return repr(tp(value))


def _csv_value(tp, text):
    if tp is bool:
        return {"true": True, "false": False}[text]
    return tp(text)


def export_results(table, path):
    """Write rows to CSV at `path` and their summaries to `path`+'.summary.json'."""
    path = str(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for r in table.rows:
            writer.writerow([_csv_text(_CSV_TYPES[name], getattr(r, name)) for name in _CSV_HEADER])
    with open(path + ".summary.json", "w") as fh:
        json.dump([dataclasses.asdict(s, dict_factory=_json_object) for s in table.summaries],
                  fh, indent=1)


def load_results(path):
    """Read back the rows written by export_results; the sidecar is not read."""
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
                rows.append(TrialRow(**{name: _csv_value(_CSV_TYPES[name], text)
                                        for name, text in zip(_CSV_HEADER, rec)}))
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"{path}:{lineno}: unparseable row field: {exc}") from exc
    return ResultsTable(tuple(rows))


# The one JSON key that is not its field's name.
_JSON_NAMES = {"constraint_set": "set"}


def _json_object(fields):
    """The dict_factory of `dataclasses.asdict`: (field name, value) pairs under their JSON keys."""
    return {_JSON_NAMES.get(name, name): value for name, value in fields}


def _from_plain(cls, data, where):
    """Build dataclass `cls` from JSON values, converting each by its field's annotation.

    Annotations may be int, float, str, tuple[X, ...] (a JSON array, read entry by
    entry), a dataclass (read recursively) or `X | None`.  Absent fields with a
    default take it; a missing required field, an unknown key or a value that does
    not convert is a ConfigError naming the dotted path from `where`.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(data).__name__}")
    fields = {_JSON_NAMES.get(f.name, f.name): f for f in dataclasses.fields(cls)}
    unknown = [key for key in data if key not in fields]
    if unknown:
        raise ConfigError(f"{where}: unknown field {unknown[0]!r}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, f in fields.items():
        if key in data:
            kwargs[f.name] = _convert(hints[f.name], data[key], f"{where}.{key}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{where}: missing required field {key!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _convert(tp, value, where):
    if type(None) in typing.get_args(tp):  # X | None
        if value is None:
            return None
        (tp,) = set(typing.get_args(tp)) - {type(None)}
    if dataclasses.is_dataclass(tp):
        return _from_plain(tp, value, where)
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a JSON array, got {type(value).__name__}")
        return tuple(_convert(typing.get_args(tp)[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if tp is int and (isinstance(value, bool) or isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if tp is float and isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        return tp(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc


def config_to_dict(config):
    return dataclasses.asdict(config, dict_factory=_json_object)


def save_config(config, path):
    with open(str(path), "w") as fh:
        json.dump(config_to_dict(config), fh, indent=1)


def config_from_dict(data, where="config"):
    return _from_plain(ExperimentConfig, data, where)


def load_config(path):
    path = str(path)
    return config_from_dict(_read_json(path), where=path)
