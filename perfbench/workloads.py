"""The benchmark's workloads: inputs drawn from a seed, one timed pass, its checks.

Every pass drives phaselab through `phaselab.cli.main`, as a user would, and
is checked before the next one starts.  An item is a trial for the
`simulate` workloads and one CLI query or check suite for `rates_theory`.
An item fails if the CLI raises or exits non-zero, if it gives a NaN row or
a budget overrun, or if it fails its correctness check.  Non-convergence is
not a failure; the traced run reports it per layer.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import time
import traceback
from dataclasses import asdict, dataclass, field
from itertools import count, zip_longest

import numpy as np

from phaselab import cli, harness


def derive_seed(seed, *key):
    """A 32-bit seed for input `key` of the run seeded with `seed`."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def call_cli(argv):
    """Run `phaselab.cli.main(argv)`; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
    except Exception:  # a crash fails the item; keep the traceback for the report
        return 1, out.getvalue(), err.getvalue() + traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def traced(tracer, name=None):
    """Install `tracer` (and open a caller span `name`) for the with-block."""
    stack = contextlib.ExitStack()
    if tracer is not None:
        stack.enter_context(tracer)
        if name is not None:
            stack.enter_context(tracer.span(name))
    return stack


MIN_PASSES = 3


@dataclass
class Pass:
    """One timed pass: its wall time, items, and the items that failed."""

    index: int
    wall_s: float
    items: int
    failed: set = field(default_factory=set)
    messages: list = field(default_factory=list)
    rows: tuple = ()
    csv_lines: tuple = ()
    reference_wall_s: float | None = None

    def fail(self, item, message):
        self.failed.add(item)
        if len(self.messages) < 8:
            self.messages.append(message)

    def to_json(self):
        return {"index": self.index, "wall_s": self.wall_s, "items": self.items,
                "failed": sorted(self.failed), "messages": self.messages,
                "rows": [asdict(r) for r in self.rows]}

    @classmethod
    def from_json(cls, data):
        return cls(data["index"], data["wall_s"], data["items"], set(data["failed"]),
                   data["messages"], tuple(harness.TrialRow(**r) for r in data["rows"]))


def timed_passes(wl, config, workdir, seed, seconds, first, stride):
    """Passes first, first + stride, ... until `seconds` are up (MIN_PASSES at least)."""
    passes = []
    deadline = time.perf_counter() + seconds
    for index in count(first, stride):
        if len(passes) >= MIN_PASSES and time.perf_counter() >= deadline:
            return passes
        passes.append(wl.run_pass(config, workdir, seed, index))


def _finite_row(row):
    return all(math.isfinite(v) for v in (row.R0, row.product_error, row.sign_error, row.objective))


@dataclass(frozen=True)
class SimulateWorkload:
    """`phaselab simulate` on one config; the seed picks each pass's master_seed.

    With threads > 1 every pass is followed by an untimed 1-worker run of the
    same config, whose rows must be bit-identical.  `min_recovery` is the
    share of trials that must reach sign_error <= 1e-6 over a run.  With
    `rate_factor` every trial's product error must stay within that factor of
    the predicted product rate (constants 1); the zero estimator fails this
    at every N of the sweep.
    """

    name: str
    why: str
    config: dict
    threads: int = 1
    warmup: dict | None = None
    traced_passes: int = 2
    parallel_passes: int = 0
    min_recovery: float | None = None
    rate_factor: float | None = None

    @property
    def items(self):
        c = self.config
        return len(c["N_grid"]) * len(c["sigma_grid"]) * c["trials_per_cell"]

    def prepare(self, workdir):
        """Write the config and fill the lazy caches a user's run pays for."""
        path = workdir / f"{self.name}.json"
        path.write_text(json.dumps({**self.config, "master_seed": 0}, indent=1))
        if self.warmup is not None:
            warm = workdir / f"{self.name}.warmup.json"
            warm.write_text(json.dumps(self.warmup, indent=1))
            code, _, err = call_cli(["simulate", warm, "--threads", 1])
            if code != 0:
                raise RuntimeError(f"warm-up simulate exited {code}: {err.strip()}")
        return path

    def run_pass(self, config_path, workdir, seed, index, tracer=None, threads=None, reference=None):
        threads = self.threads if threads is None else threads
        master = derive_seed(seed, index)
        csv = workdir / f"pass{index}-w{threads}.csv"
        argv = ["simulate", config_path, "--seed", master, "--out", csv, "--threads", threads]
        if tracer is not None:
            tracer.item = f"p{index}"
        with traced(tracer, "cli.main"):
            start = time.perf_counter()
            code, _, err = call_cli(argv)
            wall = time.perf_counter() - start
        result = Pass(index, wall, self.items)
        if code != 0:
            for item in range(self.items):
                result.fail(item, f"simulate exited {code}: {err.strip()[-400:]}")
            return result
        with traced(tracer):
            table = harness.load_results(csv)
        result.rows = table.rows
        result.csv_lines = tuple(csv.read_text().splitlines()[1:])
        self._check_rows(result, index)
        self._check_round_trip(result, table, csv, workdir / f"pass{index}-roundtrip.csv")
        if threads > 1 and reference is None:
            ref = self.run_pass(config_path, workdir, seed, index, threads=1)
            result.reference_wall_s = ref.wall_s
            reference = ref.csv_lines
        if reference is not None:
            for item, (a, b) in enumerate(zip_longest(result.csv_lines, reference)):
                if a != b:
                    result.fail(item, f"pass {index} row {item}: {threads} workers give {a!r}, "
                                      f"1 worker gives {b!r}")
        return result

    def _check_rows(self, result, index):
        for item in range(len(result.rows), self.items):
            result.fail(item, f"pass {index}: row {item} missing")
        for item, row in enumerate(result.rows):
            if not _finite_row(row):
                result.fail(item, f"pass {index}: NaN row {row}")
            elif self.rate_factor is not None:
                cset = self.config["set"]
                rate = harness.predict_rate_sparse(cset["n"], cset["d"], row.N, row.sigma,
                                                   row.R0).product_rate
                if not row.product_error <= self.rate_factor * rate:
                    result.fail(item, f"pass {index}: product error {row.product_error:.4g} > "
                                      f"{self.rate_factor} x predicted rate {rate:.4g}")

    def _check_round_trip(self, result, table, csv, copy):
        harness.export_results(table, copy)
        again = copy.read_text().splitlines()[1:]
        for item, (a, b) in enumerate(zip_longest(result.csv_lines, again)):
            if a != b:
                result.fail(item, f"row {item} does not round-trip: {a!r} -> {b!r}")
        if copy.with_name(copy.name + ".summary.json").read_text() != \
                csv.with_name(csv.name + ".summary.json").read_text():
            result.fail(0, "summary sidecar does not round-trip")

    def run_check(self, passes):
        """Run-level checks over all passes; returns one message per failed item."""
        if self.min_recovery is None:
            return []
        rows = [r for p in passes for r in p.rows]
        if not rows:
            return []
        share = recovery_frac(rows)
        if share >= self.min_recovery:
            return []
        return [f"recovery_frac {share:.3f} < {self.min_recovery}: {r}"
                for r in rows if not r.sign_error <= 1e-6]


def recovery_frac(rows):
    return sum(1 for r in rows if r.sign_error <= 1e-6) / len(rows)


def median_product_error(passes, max_passes=8):
    """Median product error of the largest-N cell over the first passes.

    Counts converged trials only, as the CLI's cell summary does, and uses a
    fixed number of passes so the value depends on the seed alone.
    """
    first = sorted(passes, key=lambda p: p.index)[:max_passes]
    rows = [r for p in first for r in p.rows]
    if not rows:
        return math.nan, 0
    top = max(r.N for r in rows)
    vals = [r.product_error for r in rows if r.N == top and r.converged]
    return (float(np.median(vals)) if vals else math.nan), len(vals)


@dataclass(frozen=True)
class Query:
    """One CLI call of rates_theory.  `kind` picks its correctness check.

    The call gets `--seed` drawn from the run's seed, or `seed` when set.
    """

    kind: str           # "mc" (compare with closed form), "packing" or "check"
    argv: tuple
    seed: int | None = None


@dataclass(frozen=True)
class RatesWorkload:
    """Fixed-point, packing and check-suite queries; no solver runs at all."""

    name: str
    why: str
    queries: tuple
    traced_passes: int = 1
    parallel_passes = 0

    @property
    def items(self):
        return len(self.queries)

    def prepare(self, workdir):
        return None

    def run_pass(self, config_path, workdir, seed, index, tracer=None, threads=None, reference=None):
        outputs = []
        with traced(tracer):
            start = time.perf_counter()
            for item, query in enumerate(self.queries):
                qseed = derive_seed(seed, index, item) if query.seed is None else query.seed
                argv = [*query.argv, "--seed", qseed]
                if tracer is not None:
                    tracer.item = f"p{index}.q{item}"
                    with tracer.span("cli.main"):
                        outputs.append(call_cli(argv))
                else:
                    outputs.append(call_cli(argv))
            wall = time.perf_counter() - start
        result = Pass(index, wall, self.items)
        for item, (query, (code, out, err)) in enumerate(zip(self.queries, outputs)):
            message = self._check(query, code, out, err)
            if message:
                result.fail(item, f"pass {index} query {' '.join(map(str, query.argv))}: {message}")
        return result

    def _check(self, query, code, out, err):
        if code != 0:
            return f"exited {code}: {err.strip()[-400:]}"
        if query.kind == "check":
            return None if "ok " in out and "FAIL" not in out else f"suites failed: {out!r}"
        value = _parse_value(out)
        if value is None or not value >= 0.0:
            return f"unparseable or negative value in {out!r}"
        if query.kind == "packing":
            return None if math.isfinite(value) else f"qN = {value}"
        argv = list(query.argv)
        closed = _closed_form(tuple(argv[:argv.index("--backend")]))
        if closed == 0.0:
            return None if value <= 1e-9 else f"closed form is 0 but Monte Carlo gives {value}"
        ratio = value / closed
        return None if 0.25 <= ratio <= 4.0 else f"mc/closed = {ratio:.3f} outside [0.25, 4]"

    def run_check(self, passes):
        return []


@functools.cache
def _closed_form(argv):
    """The closed-form fixed point for a fixed-point query's set and functional."""
    code, out, _ = call_cli([*argv, "--backend", "closed_form"])
    return _parse_value(out) if code == 0 else math.nan


def _parse_value(out):
    for line in out.splitlines():
        name, sep, text = line.partition("=")
        if sep and name.isalnum():
            try:
                return float(text)
            except ValueError:
                return None
    return None


# ---------------------------------------------------------------------------
# the workloads

_N_SWEEP = (512, 1024, 2048, 4096, 8192)


def _sparse_config(n, d, N_grid, sigma, trials, solver):
    return {
        "set": {"kind": "sparse_cap", "n": n, "d": d},
        "ensemble": {"kind": "standard_gaussian", "dimension": n},
        "noise": {"kind": "gaussian" if sigma > 0 else "none", "scale": 0.0},
        "x0_spec": {"mode": "random_sparse", "R0": 1.0, "d": d},
        "N_grid": list(N_grid),
        "sigma_grid": [sigma],
        "trials_per_cell": trials,
        "solver": solver,
    }


def _pgd(tiny):
    n, d, N_grid = (16, 2, (256, 512)) if tiny else (64, 4, _N_SWEEP)
    return _sparse_config(n, d, N_grid, 0.5, 1, {"kind": "pgd", "config": {"restarts": 8}})


def _oracle(tiny):
    n, d, N = (16, 2, 40) if tiny else (64, 4, 151)
    return _sparse_config(n, d, (N,), 0.0, 2, {"kind": "oracle", "config": {"oracle_budget": 700_000}})


def _oracle_warmup(tiny):
    # one noise-free trial whose support carries the four largest diagonal
    # scores, so it is certified within the first screening block; it builds
    # the support table every oracle run on sparse_cap(64, 4) pays for
    config = _oracle(tiny)
    n, d = config["set"]["n"], config["set"]["d"]
    vector = [1.0 / math.sqrt(d)] * d + [0.0] * (n - d)
    return {**config, "x0_spec": {"mode": "explicit", "vector": vector},
            "trials_per_cell": 1, "master_seed": 0}


# (functional, level, N, n) from acceptance criterion 6's list: the two
# large-n queries carry the l1-cap support-function cost, the rest are small n
_L1_QUERIES = (
    ("rN", 1.0, 128, 2048),
    ("sN", 0.5, 1024, 1024),
    ("rN", 1.0, 256, 32),
    ("sN", 1.0, 4096, 8),
    ("sN", 1.0, 16384, 16),
    ("vN", 2.0, 64, 64),
    ("vN", 1.0, 4096, 4),
)
_L1_QUERIES_TINY = (("rN", 1.0, 256, 32), ("vN", 2.0, 64, 64))


def _rates_queries(tiny):
    draws, candidates, samples = (64, 128, 2000) if tiny else (256, 2048, 100_000)
    queries = [
        Query("mc", ("fixed-point", "--set", f"l1_ball:{n}:1.0", "--functional", f,
                     "--level", level, "--N", N, "--backend", "monte_carlo", "--draws", draws))
        for f, level, N, n in (_L1_QUERIES_TINY if tiny else _L1_QUERIES)
    ]
    # acceptance criterion 9's packing query at its frozen seed.  Its cost is
    # bimodal in the seed: mostly 8 packing_count calls (~1.5 s, zero at the
    # first probe), but about one seed in ten runs the full bisection (~45 s)
    # down to ~1e-12, the same vacuous bound; drawn seeds would put that
    # tail into one pass in ten and push runs past their time budget
    queries.append(Query("packing", (
        "fixed-point", "--set", "l1_ball:64:1.0", "--functional", "qN", "--level", 1.0,
        "--N", 4096, "--shell-R0", 1.0, "--backend", "monte_carlo", "--draws", 512,
        "--candidates", candidates), seed=11))
    queries.append(Query("check", ("check", "all", "--samples", samples)))
    return tuple(queries)


def make(name, tiny=False):
    """The workload called `name`; `tiny` shrinks it for the smoke test."""
    if name == "pgd_sparse":
        return SimulateWorkload(
            name, "the erm descent kernel does most of the work, over an N sweep",
            _pgd(tiny), threads=1, traced_passes=1 if tiny else 8,
            parallel_passes=1 if tiny else 2, rate_factor=4.0)
    if name == "pgd_sparse_2w":
        return SimulateWorkload(
            name, "the harness process pool with 2 workers and BLAS threads as users get them",
            _pgd(tiny), threads=2, traced_passes=1 if tiny else 4, rate_factor=4.0)
    if name == "oracle_exact":
        return SimulateWorkload(
            name, "Gram screen, batched solves and support table; no PGD, no projection",
            _oracle(tiny), warmup=_oracle_warmup(tiny), traced_passes=1 if tiny else 4,
            min_recovery=0.95)
    if name == "rates_theory":
        return RatesWorkload(
            name, "sets support function and packing plus empirics; no erm at all",
            _rates_queries(tiny), traced_passes=1)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")


NAMES = ("pgd_sparse", "pgd_sparse_2w", "oracle_exact", "rates_theory")
