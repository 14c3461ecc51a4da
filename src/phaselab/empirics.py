"""Empirical Orlicz norms, tail rearrangements, and small-ball diagnostics.

All functionals treat a vector v as a random variable under the uniform
measure on its m coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from .ensembles import substream


def psi_alpha_norm(v, alpha):
    """Discrete psi_alpha norm: inf{c > 0 : mean exp((|v_i|/c)^alpha) <= 2}.

    With M = max|v|, s_i = (|v_i|/M)^alpha in [0, 1] and t = (M/c)^alpha, the
    norm is M * t^(-1/alpha) at the root of

        h(t) = log mean exp(s_i t) - log 2,

    found by Newton's method from t_0 = log 2m.  h is a log-sum-exp of the
    lines s_i t, so it is convex; its slope h'(t) = sum s_i e^(s_i t) /
    sum e^(s_i t) is positive, because some s_i = 1.  h(t_0) >= 0, since
    mean exp(s_i t_0) >= e^(t_0)/m = 2, and h(log 2) <= 0, since every
    s_i <= 1: the root lies in [log 2, log 2m].  From a point at or right of
    the root of a convex increasing function, each Newton step lands at or
    right of the root again (the tangent lies below h), so the iterates
    decrease monotonically to it, quadratically near it.  They stop once a step
    is not above 1e-15 * t.  Every term is evaluated as exp((s_i - 1) t) <= 1,
    so nothing overflows, and the result scales exactly with powers of two.

    The zero vector has norm 0; NaN or infinite entries raise ValueError.
    """
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("psi_alpha_norm needs at least one coordinate")
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    absv = np.abs(v)
    mx = float(absv.max())
    if not math.isfinite(mx):
        i = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValueError(f"psi_alpha_norm needs finite entries, got v[{i}] = {v[i]}")
    if mx == 0.0:
        return 0.0
    s = (absv / mx) ** alpha
    s_minus_1 = s - 1.0
    log_2m = math.log(2.0 * v.size)
    t = log_2m
    for _ in range(100):
        w = np.exp(s_minus_1 * t)
        total = float(w.sum())
        # h(t) = t + log(total) - log 2m and h'(t) = <s, w> / total
        step = (t + math.log(total) - log_2m) * total / float(s @ w)
        t -= step
        if not step > 1e-15 * t:
            break
    return mx / t ** (1.0 / alpha)


def rearrangement_functional(v, alpha):
    """max_i v*_i / log^(1/alpha)(e m / i), v* the nonincreasing |v|."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("rearrangement_functional needs at least one coordinate")
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    vs = np.sort(np.abs(v))[::-1]
    m = v.size
    i = np.arange(1, m + 1, dtype=float)
    return float((vs / np.log(math.e * m / i) ** (1.0 / alpha)).max())


def paley_zygmund_fraction(v, eta):
    """Fraction of coordinates with |v_i| >= eta * mean|v|, plus psi_1/L_1.

    The returned beta_ratio = psi_1 norm over first absolute moment is the
    equivalence constant that controls how large the fraction must be.
    """
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("paley_zygmund_fraction needs at least one coordinate")
    if not eta >= 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    l1 = float(np.abs(v).mean())
    if l1 == 0.0:
        raise ValueError("zero vector has no scale for a Paley-Zygmund fraction")
    fraction = float(np.mean(np.abs(v) >= eta * l1))
    return fraction, psi_alpha_norm(v, 1.0) / l1


def rearrangement_ratio_range(count, seed):
    """(lo, hi) of psi_alpha_norm / rearrangement_functional over `count` stress vectors.

    Each vector has m in {10, 100, 1000} coordinates and alpha in {1, 2}, and is
    gaussian, exponential, geometric (2^-i) or a single spike.
    """
    rng = substream(seed)
    lo, hi = math.inf, -math.inf
    for _ in range(count):
        m = int(rng.choice([10, 100, 1000]))
        alpha = float(rng.choice([1.0, 2.0]))
        style = rng.integers(0, 4)
        if style == 0:
            v = rng.standard_normal(m)
        elif style == 1:
            v = rng.standard_exponential(m)
        elif style == 2:
            v = 2.0 ** -np.arange(m, dtype=float)
        else:
            v = np.zeros(m)
            v[0] = 1.0
        ratio = psi_alpha_norm(v, alpha) / rearrangement_functional(v, alpha)
        lo, hi = min(lo, ratio), max(hi, ratio)
    return lo, hi


def paley_zygmund_admitted(count, seed):
    """Per beta of PZ_LEVELS: (admitted, least fraction) over `count` draws each.

    A draw is |g|^p for g standard gaussian in R^1024, p = 1, 2, 3 for beta = 2,
    4, 8.  It is admitted when its psi_1/L1 ratio is at most beta; the least
    fraction is the smallest paley_zygmund_fraction at eta among the admitted
    draws, inf if none is.
    """
    rng = substream(seed)
    measured = {}
    for beta, (eta, _) in sorted(PZ_LEVELS.items()):
        power = {2.0: 1, 4.0: 2, 8.0: 3}[beta]
        admitted, least = 0, math.inf
        for _ in range(count):
            v = np.abs(rng.standard_normal(1024)) ** power
            frac, ratio = paley_zygmund_fraction(v, eta)
            if ratio <= beta:
                admitted += 1
                least = min(least, frac)
        measured[beta] = (admitted, least)
    return measured


def empirical_smallball_fraction(A, u, v, c1):
    """Fraction of rows with |<a_i,u><a_i,v>| >= c1 ||u|| ||v||."""
    A = np.asarray(A, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if A.ndim != 2 or u.shape != (A.shape[1],) or v.shape != (A.shape[1],):
        raise ValueError("A must be (N, n) with u, v of length n")
    if not c1 >= 0:
        raise ValueError(f"c1 must be >= 0, got {c1}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("u and v must both be nonzero")
    thr = c1 * nu * nv
    return float(np.mean(np.abs((A @ u) * (A @ v)) >= thr))


def product_process_sup(A, T1, T2):
    """max over (t, s) in T1 x T2 of |(1/N) sum <a_i,t><a_i,s> - <t,s>|."""
    A = np.asarray(A, dtype=float)
    T1 = np.atleast_2d(np.asarray(T1, dtype=float))
    T2 = np.atleast_2d(np.asarray(T2, dtype=float))
    if A.ndim != 2 or T1.shape[1] != A.shape[1] or T2.shape[1] != A.shape[1]:
        raise ValueError("A must be (N, n) with T1, T2 rows of length n")
    Z1 = A @ T1.T
    Z2 = A @ T2.T
    empirical = (Z1.T @ Z2) / A.shape[0]
    return float(np.abs(empirical - T1 @ T2.T).max())


# ---------------------------------------------------------------------------
# norm-product equivalence around a signal


def _equivalence_implications(d_minus, d_plus, nx, nx0, R, c1, c2):
    """Vectorized truth values of the two implications, per the two cases."""
    prod = d_minus * d_plus
    mn = np.minimum(d_minus, d_plus)
    sqrt_r = np.sqrt(R)
    small = nx0 < sqrt_r / 4.0
    fwd_small = (prod < R) | (nx >= c1 * sqrt_r)
    bwd_small = (nx < sqrt_r) | (prod >= c2 * R)
    fwd_large = (nx0 * mn < R) | (prod >= c1 * R)
    bwd_large = (prod < R) | (nx0 * mn >= c2 * R)
    forward = np.where(small, fwd_small, fwd_large)
    backward = np.where(small, bwd_small, bwd_large)
    return forward, backward, small


def norm_equivalence_check(x, x0, R, c1, c2):
    """Check the product/norm equivalence at scale R for one pair (x, x0).

    Large-signal case (||x0|| >= sqrt(R)/4):
      forward:  ||x0|| * min{||x-x0||, ||x+x0||} >= R  =>  product >= c1*R
      backward: product >= R  =>  ||x0|| * min{...} >= c2*R
    Small-signal case (||x0|| < sqrt(R)/4) the product behaves like ||x||^2:
      forward:  product >= R   =>  ||x|| >= c1*sqrt(R)
      backward: ||x|| >= sqrt(R)  =>  product >= c2*R

    Returns (forward_holds, backward_holds, small_norm_case).
    """
    x = np.asarray(x, dtype=float).ravel()
    x0 = np.asarray(x0, dtype=float).ravel()
    if x.shape != x0.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x0.shape}")
    if not R > 0:
        raise ValueError(f"R must be > 0, got {R}")
    fwd, bwd, small = _equivalence_implications(
        np.linalg.norm(x - x0),
        np.linalg.norm(x + x0),
        np.linalg.norm(x),
        np.linalg.norm(x0),
        float(R), c1, c2,
    )
    return bool(fwd), bool(bwd), bool(small)


def random_norm_triples(count, seed, dim=3):
    """Random (X, X0, R) stress triples concentrated near the case boundaries.

    Mixes independent pairs, pairs with x near +-x0, and pairs rescaled to
    put the product near the threshold R; ||x0|| straddles sqrt(R)/4.
    """
    rng = substream(seed)
    R = np.exp(rng.uniform(math.log(0.25), math.log(4.0), count))
    sqrt_r = np.sqrt(R)

    t0 = 0.25 * sqrt_r * np.exp(rng.uniform(-3.0, 3.0, count))
    X0 = rng.standard_normal((count, dim))
    X0 *= (t0 / np.linalg.norm(X0, axis=1))[:, None]

    X = rng.standard_normal((count, dim))
    X *= (sqrt_r * np.exp(rng.uniform(-1.5, 1.5, count)) / np.linalg.norm(X, axis=1))[:, None]

    mode = rng.integers(0, 3, count)
    near = X0 * rng.choice([-1.0, 1.0], count)[:, None] + rng.standard_normal((count, dim)) * (
        sqrt_r * np.exp(rng.uniform(-4.0, 0.5, count))
    )[:, None] / math.sqrt(dim)
    X = np.where((mode == 1)[:, None], near, X)

    boundary = X * (sqrt_r * np.exp(rng.uniform(-0.2, 0.2, count)) /
                    np.maximum(np.linalg.norm(X, axis=1), 1e-300))[:, None]
    X = np.where((mode == 2)[:, None], boundary, X)
    return X, X0, R


def norm_equivalence_violations(count, c1, c2, seed, dim=3):
    """Count forward/backward counterexamples over random stress triples."""
    X, X0, R = random_norm_triples(count, seed, dim)
    fwd, bwd, _ = _equivalence_implications(
        np.linalg.norm(X - X0, axis=1),
        np.linalg.norm(X + X0, axis=1),
        np.linalg.norm(X, axis=1),
        np.linalg.norm(X0, axis=1),
        R, c1, c2,
    )
    return int(np.sum(~fwd)), int(np.sum(~bwd))


# Calibrated constants for the regression suites.  The equivalence constants
# sit strictly inside the analytic worst cases (forward sqrt(15)/4 ~ 0.968,
# backward ~ 0.195 at ||x0|| = sqrt(R)/4 collinear) so large random scans
# admit zero counterexamples; the remaining bounds were frozen from reference
# scans and guard against regressions, not proved.
EQUIVALENCE_C1 = 0.95
EQUIVALENCE_C2 = 0.18
# psi_alpha_norm / rearrangement_functional stays inside this band
# (observed [1.07, 2.76] over 3000 stress vectors incl. spikes and heavy tails).
REARRANGEMENT_RATIO_LOW = 0.90
REARRANGEMENT_RATIO_HIGH = 3.20
# For nonnegative samples whose psi_1/L1 ratio is at most beta, the fraction
# of coordinates >= eta * mean is at least the floor: beta -> (eta, floor).
# Observed minima 0.81 / 0.69 / 0.58 over 1000 powered-gaussian draws each.
PZ_LEVELS = {2.0: (0.25, 0.50), 4.0: (0.125, 0.40), 8.0: (0.0625, 0.30)}
