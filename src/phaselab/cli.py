"""Command-line front end: simulations, widths, fixed points, packings, checks.

Exit codes: 0 on success (a `simulate` trial over `oracle_budget` is a NaN row), 2 on a
validation problem (bad flags, bad config, unsupported combination), 3 when a `check` fails.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from . import empirics, sets
from .ensembles import substream
from .errors import ConfigError, InsufficientDataError, UnsupportedSetError
from .harness import export_results, load_config, run_experiment

_SET_HELP = "e.g. sparse_cap:64:4, l1_ball:64:1.0, l2_ball:8:2.0, ambient:8"


def _parse_set(text):
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "sparse_cap" and len(parts) == 3:
            return sets.sparse_cap(int(parts[1]), int(parts[2]))
        if kind == "l1_ball" and len(parts) in (2, 3):
            return sets.l1_ball(int(parts[1]), float(parts[2]) if len(parts) == 3 else 1.0)
        if kind == "l2_ball" and len(parts) in (2, 3):
            return sets.l2_ball(int(parts[1]), float(parts[2]) if len(parts) == 3 else 1.0)
        if kind == "ambient" and len(parts) == 2:
            return sets.ambient(int(parts[1]))
    except ValueError as exc:
        raise ValueError(f"bad set spec {text!r}: {exc}") from exc
    raise ValueError(f"bad set spec {text!r}; {_SET_HELP}")


def _cmd_simulate(args):
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    table = run_experiment(config, threads=args.threads)
    for s in table.summaries:
        print(
            f"N={s.N} sigma={s.sigma:g} trials={s.n_trials} converged={s.n_converged} "
            f"median_product_error={s.median_product_error:.6g} "
            f"median_sign_error={s.median_sign_error:.6g} "
            f"success_fraction={s.success_fraction:.4f}"
        )
    if args.out:
        export_results(table, args.out)
        print(f"wrote {args.out} and {args.out}.summary.json")
    return 0


def _cmd_width(args):
    cset = _parse_set(args.set)
    if args.closed_form:
        value = sets.mean_width_closed_form(cset, args.r)
        print(f"closed_form_width={value:.10g}")
    else:
        est = sets.mean_width_mc(cset, args.r, args.draws, args.seed)
        print(f"mc_width={est.value:.10g} std_error={est.std_error:.3g} draws={est.draws}")
    return 0


def _cmd_fixed_point(args):
    cset = _parse_set(args.set)
    query = sets.FixedPointQuery(
        functional=args.functional,
        level=args.level,
        N=args.N,
        shell_R0=args.shell_R0,
        backend=args.backend,
    )
    mc = sets.McConfig(draws=args.draws, seed=args.seed, candidates=args.candidates)
    value = sets.fixed_point(cset, query, mc)
    print(f"{args.functional}={value:.10g}")
    return 0


def _cmd_packing(args):
    cset = _parse_set(args.set)
    center = (
        np.zeros(cset.n)
        if args.center is None
        else np.array([float(t) for t in args.center.split(",")], dtype=float)
    )
    count = sets.packing_count(
        cset, center, args.ball_radius, args.separation,
        shell_R0=args.shell_R0, candidates=args.candidates, seed=args.seed,
    )
    print(f"packing_count={count}")
    return 0


def _check_psi(samples, seed):
    failures = []
    ones = np.ones(16)
    val = empirics.psi_alpha_norm(ones, 2.0)
    if abs(val - 1.0 / math.sqrt(math.log(2.0))) > 1e-9:
        failures.append(f"psi_2(ones) = {val}")
    spike = np.array([2.0, 0.0, 0.0, 0.0])
    if abs(empirics.psi_alpha_norm(spike, 2.0) - 2.0 / math.sqrt(math.log(5.0))) > 1e-9:
        failures.append("psi_2 spike identity")
    rng = substream(seed)
    for _ in range(32):
        v = rng.standard_normal(rng.integers(1, 64))
        lam = float(np.exp(rng.uniform(-3, 3)))
        a, b = empirics.psi_alpha_norm(lam * v, 2.0), lam * empirics.psi_alpha_norm(v, 2.0)
        if abs(a - b) > 1e-9 * max(1.0, abs(b)):
            failures.append(f"homogeneity off by {abs(a - b)}")
            break
    return failures


def _check_rearrangement(samples, seed):
    lo, hi = empirics.rearrangement_ratio_range(max(32, samples // 1000), seed)
    if lo < empirics.REARRANGEMENT_RATIO_LOW or hi > empirics.REARRANGEMENT_RATIO_HIGH:
        return [f"ratio range [{lo:.4f}, {hi:.4f}] escapes the frozen band"]
    return []


def _check_paley_zygmund(samples, seed):
    measured = empirics.paley_zygmund_admitted(max(32, samples // 1000), seed)
    floors = {beta: floor for beta, (_, floor) in empirics.PZ_LEVELS.items()}
    return [f"beta={beta}: fraction {least:.4f} < floor {floors[beta]}"
            for beta, (_, least) in measured.items() if least < floors[beta]]


def _check_norm_equivalence(samples, seed):
    bad_fwd, bad_bwd = empirics.norm_equivalence_violations(
        samples, empirics.EQUIVALENCE_C1, empirics.EQUIVALENCE_C2, seed
    )
    if bad_fwd or bad_bwd:
        return [f"{bad_fwd} forward / {bad_bwd} backward counterexamples in {samples} triples"]
    return []


_SUITES = {
    "psi": _check_psi,
    "rearrangement": _check_rearrangement,
    "paley-zygmund": _check_paley_zygmund,
    "norm-equivalence": _check_norm_equivalence,
}


def _cmd_check(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    bad = 0
    for name in names:
        failures = _SUITES[name](args.samples, args.seed)
        if failures:
            bad += 1
            print(f"FAIL {name}: {'; '.join(failures)}")
        else:
            print(f"ok   {name}")
    return 3 if bad else 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="phaselab",
        description="Phase-retrieval ERM laboratory: simulations, widths, fixed points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the experiment grid from a JSON config")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--threads", type=int, default=1, help="worker processes (default 1)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("width", help="gaussian mean width of a localized set")
    p.add_argument("--set", required=True, help=_SET_HELP)
    p.add_argument("--r", type=float, required=True, help="cap radius")
    p.add_argument("--draws", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--closed-form", action="store_true")
    p.set_defaults(func=_cmd_width)

    p = sub.add_parser("fixed-point", help="solve a fixed-point inequality")
    p.add_argument("--set", required=True, help=_SET_HELP)
    p.add_argument("--functional", required=True, choices=sorted(sets.FUNCTIONALS))
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--shell-R0", type=float, default=None)
    p.add_argument("--backend", default="closed_form", choices=sorted(sets.BACKENDS))
    p.add_argument("--draws", type=int, default=1024)
    p.add_argument("--candidates", type=int, default=2048)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fixed_point)

    p = sub.add_parser("packing", help="greedy packing count on a shell piece")
    p.add_argument("--set", required=True, help=_SET_HELP)
    p.add_argument("--ball-radius", type=float, required=True)
    p.add_argument("--separation", type=float, required=True)
    p.add_argument("--shell-R0", type=float, default=None)
    p.add_argument("--center", default=None, help="comma-separated coordinates (default origin)")
    p.add_argument("--candidates", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_packing)

    p = sub.add_parser("check", help="run the calibration/regression suites")
    p.add_argument("suite", nargs="?", default="all", choices=["all", *sorted(_SUITES)])
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ConfigError, UnsupportedSetError, InsufficientDataError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
