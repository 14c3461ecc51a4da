"""Constraint sets and their complexity functionals.

Four set kinds: d-sparse vectors (a cone), l1 and l2 balls, and the whole
space.  On top of them: Euclidean projection, exact support functions of
localized caps (set intersected with a centered ball), gaussian mean widths
(Monte Carlo and the two known closed forms), fixed points of width/packing
inequalities, and greedy packing counts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ensembles import sub_seed
from .errors import UnsupportedSetError

SET_KINDS = ("sparse_cap", "l1_ball", "l2_ball", "ambient")
FUNCTIONALS = ("r0", "r2", "rN", "sN", "vN", "qN", "tN")
BACKENDS = ("closed_form", "monte_carlo")

# exponent p in the defining inequality  Phi(r) <= level * r^p * sqrt(N)
_EXPONENT = {"r0": 0, "r2": 1, "rN": 1, "sN": 2, "vN": 3, "qN": 2, "tN": 3}

# multiplier on the localizing ball when counting r-separated shell points
_C0_PACKING = 2.0


@dataclass(frozen=True)
class ConstraintSet:
    """A symmetric constraint set in R^n.

    kind "sparse_cap" uses `d` (at most d nonzero coordinates, any norm);
    "l1_ball" and "l2_ball" use `radius`; "ambient" is all of R^n.
    """

    kind: str
    n: int
    d: int | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.kind not in SET_KINDS:
            raise ValueError(f"unknown set kind {self.kind!r}, expected one of {SET_KINDS}")
        if int(self.n) < 1:
            raise ValueError(f"set dimension must be >= 1, got {self.n}")
        if self.kind == "sparse_cap":
            if self.d is None or not (1 <= int(self.d) <= self.n):
                raise ValueError(f"sparse_cap needs 1 <= d <= n, got d={self.d}, n={self.n}")
        if self.kind in ("l1_ball", "l2_ball"):
            if self.radius is None or not (self.radius > 0):
                raise ValueError(f"{self.kind} needs radius > 0, got {self.radius}")


def sparse_cap(n, d):
    return ConstraintSet("sparse_cap", n, d=d)


def l1_ball(n, radius=1.0):
    return ConstraintSet("l1_ball", n, radius=float(radius))


def l2_ball(n, radius=1.0):
    return ConstraintSet("l2_ball", n, radius=float(radius))


def ambient(n):
    return ConstraintSet("ambient", n)


def _check_vector(cset, x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != cset.n:
        raise ValueError(f"expected a vector of length {cset.n}, got shape {x.shape}")
    return x


def contains(cset, x, tol=1e-9):
    """Membership test with additive tolerance `tol`."""
    x = _check_vector(cset, x)
    if cset.kind == "ambient":
        return True
    if cset.kind == "sparse_cap":
        return int((np.abs(x) > tol).sum()) <= cset.d
    if cset.kind == "l1_ball":
        return float(np.abs(x).sum()) <= cset.radius + tol
    return float(np.linalg.norm(x)) <= cset.radius + tol


# ---------------------------------------------------------------------------
# projections


def _project_l1_batch(X, radius):
    """Row-wise Euclidean projection onto the l1 ball (sort/threshold)."""
    X = np.array(X, dtype=float, copy=True)
    absX = np.abs(X)
    over = absX.sum(axis=1) > radius
    if not over.any():
        return X
    U = -np.sort(-absX[over], axis=1)
    k = np.arange(1, X.shape[1] + 1)
    css = np.cumsum(U, axis=1) - radius
    active = U - css / k > 0.0          # prefix-true pattern
    kmax = active.sum(axis=1)
    theta = css[np.arange(U.shape[0]), kmax - 1] / kmax
    X[over] = np.sign(X[over]) * np.maximum(absX[over] - theta[:, None], 0.0)
    return X


def _project_batch(cset, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if cset.kind == "ambient":
        return X.copy()
    if cset.kind == "l2_ball":
        Y = X.copy()
        nrm = np.linalg.norm(Y, axis=1)
        over = nrm > cset.radius
        if over.any():
            Y[over] *= (cset.radius / nrm[over])[:, None]
        return Y
    if cset.kind == "sparse_cap":
        # keep the d largest magnitudes; stable sort breaks ties toward
        # the lowest index
        order = np.argsort(-np.abs(X), axis=1, kind="stable")[:, : cset.d]
        Y = np.zeros_like(X)
        np.put_along_axis(Y, order, np.take_along_axis(X, order, axis=1), axis=1)
        return Y
    return _project_l1_batch(X, cset.radius)


def project(cset, x):
    """Euclidean projection of x onto the set; each row of a (k, n) stack on its own."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 2 and x.shape[1] == cset.n:
        return _project_batch(cset, x)
    return _project_batch(cset, _check_vector(cset, x)[None, :])[0]


def random_feasible(cset, rng, count=1):
    """Draw `count` points of the set (rows); uniform for the balls."""
    n = cset.n
    if cset.kind == "ambient":
        return rng.standard_normal((count, n))
    if cset.kind == "l2_ball":
        D = rng.standard_normal((count, n))
        D /= np.linalg.norm(D, axis=1, keepdims=True)
        radii = cset.radius * rng.uniform(size=count) ** (1.0 / n)
        return D * radii[:, None]
    if cset.kind == "l1_ball":
        W = rng.exponential(size=(count, n)) * rng.choice([-1.0, 1.0], size=(count, n))
        W /= np.abs(W).sum(axis=1, keepdims=True)
        radii = cset.radius * rng.uniform(size=count) ** (1.0 / n)
        return W * radii[:, None]
    X = np.zeros((count, n))
    for i in range(count):
        supp = rng.choice(n, size=cset.d, replace=False)
        X[i, supp] = rng.standard_normal(cset.d)
    return X


# ---------------------------------------------------------------------------
# support functions of localized caps


def _topd_energy(absG, d):
    if d >= absG.shape[1]:
        return (absG * absG).sum(axis=1)
    part = np.partition(absG, absG.shape[1] - d, axis=1)[:, -d:]
    return (part * part).sum(axis=1)


def _l1_dual_from_sorted(radius, r, B, S1, S2):
    """Exact sup over the l1(radius)-ball cap of radius r, per row.

    B holds |g| sorted descending per row, S1/S2 the prefix sums of B and
    B^2.  Strong duality gives value = min over lam >= 0 of
    lam*radius + r*||(|g| - lam)_+||_2; the dual is piecewise smooth between
    breakpoints, so the minimum is attained at a breakpoint or at the
    closed-form stationary point of one piece.
    """
    m, n = B.shape
    k = np.arange(1, n + 1, dtype=float)
    q = (radius / r) ** 2

    h = np.maximum(S2 - 2.0 * B * S1 + k * B * B, 0.0)
    best = np.minimum(r * np.sqrt(S2[:, -1]), (B * radius + r * np.sqrt(h)).min(axis=1))

    with np.errstate(divide="ignore", invalid="ignore"):
        disc = q * np.maximum(k * S2 - S1 * S1, 0.0) / (k - q)
        lam = (S1 - np.sqrt(np.maximum(disc, 0.0))) / k
    lower = np.concatenate([B[:, 1:], np.zeros((m, 1))], axis=1)
    ok = (k > q) & np.isfinite(lam) & (lam >= lower) & (lam <= B) & (lam >= 0.0)
    if ok.any():
        lam = np.where(ok, lam, 0.0)
        h = np.maximum(S2 - 2.0 * lam * S1 + k * lam * lam, 0.0)
        vals = np.where(ok, lam * radius + r * np.sqrt(h), np.inf)
        best = np.minimum(best, vals.min(axis=1))
    return best


def _support_batch(cset, r, G):
    G = np.atleast_2d(np.asarray(G, dtype=float))
    if cset.kind == "ambient":
        return r * np.linalg.norm(G, axis=1)
    if cset.kind == "l2_ball":
        return min(r, cset.radius) * np.linalg.norm(G, axis=1)
    if cset.kind == "sparse_cap":
        return r * np.sqrt(_topd_energy(np.abs(G), cset.d))
    absG = np.abs(G)
    B = -np.sort(-absG, axis=1)
    return _l1_dual_from_sorted(cset.radius, r, B, np.cumsum(B, axis=1), np.cumsum(B * B, axis=1))


def support_function_cap(cset, r, g):
    """sup |<g, t>| over t in the set intersected with the r-ball (exact)."""
    if not r > 0:
        raise ValueError(f"cap radius must be > 0, got {r}")
    g = _check_vector(cset, g)
    return float(_support_batch(cset, r, g[None, :])[0])


@dataclass(frozen=True)
class WidthEstimate:
    value: float
    std_error: float
    draws: int


def mean_width_mc(cset, r, gaussian_draws, seed):
    """Monte Carlo gaussian mean width of the cap: E sup |<G, t>|."""
    if not r > 0:
        raise ValueError(f"cap radius must be > 0, got {r}")
    if gaussian_draws < 2:
        raise ValueError(f"need at least 2 gaussian draws, got {gaussian_draws}")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((gaussian_draws, cset.n))
    vals = _support_batch(cset, r, G)
    return WidthEstimate(
        value=float(vals.mean()),
        std_error=float(vals.std(ddof=1) / math.sqrt(gaussian_draws)),
        draws=int(gaussian_draws),
    )


def mean_width_closed_form(cset, r):
    """Known width formulas (constants set to 1).

    sparse_cap: r * sqrt(d log(en/d)).  l1_ball of radius rho, with effective
    cap radius u = min(r/rho, 1): rho*sqrt(log(e n u^2)) when u^2 n >= 1,
    else rho*u*sqrt(n).  Other kinds raise UnsupportedSetError.
    """
    if not r > 0:
        raise ValueError(f"cap radius must be > 0, got {r}")
    n = cset.n
    if cset.kind == "sparse_cap":
        return r * math.sqrt(cset.d * math.log(math.e * n / cset.d))
    if cset.kind == "l1_ball":
        u = min(r / cset.radius, 1.0)
        if u * u * n >= 1.0:
            return cset.radius * math.sqrt(math.log(math.e * n * u * u))
        return cset.radius * u * math.sqrt(n)
    raise UnsupportedSetError(f"no closed-form width for set kind {cset.kind!r}")


# ---------------------------------------------------------------------------
# fixed points


@dataclass(frozen=True)
class FixedPointQuery:
    """Query for inf{r > 0 : Phi(r) <= level * r^p * sqrt(N)}.

    functional picks Phi and p: "rN"/"sN"/"vN" use the cap width with
    p = 1/2/3; "r0"/"r2" use the global complexity of the normalized
    excess-loss classes (p = 0/1); "qN"/"tN" use the shell packing
    functional (p = 2/3) and need shell_R0.
    """

    functional: str
    level: float
    N: int
    shell_R0: float | None = None
    backend: str = "closed_form"

    def __post_init__(self):
        if self.functional not in FUNCTIONALS:
            raise ValueError(f"unknown functional {self.functional!r}, expected one of {FUNCTIONALS}")
        if not self.level > 0:
            raise ValueError(f"level must be > 0, got {self.level}")
        if int(self.N) < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}, expected one of {BACKENDS}")
        if self.functional in ("qN", "tN") and not (self.shell_R0 and self.shell_R0 > 0):
            raise ValueError("qN/tN need shell_R0 > 0")


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo budget for width- and packing-based fixed points."""

    draws: int = 1024
    seed: int = 0
    candidates: int = 2048
    centers: int = 4


def _max_norm(cset):
    if cset.kind in ("l1_ball", "l2_ball"):
        return cset.radius
    return math.inf


def _double(cset):
    if cset.kind == "l1_ball":
        return l1_ball(cset.n, 2.0 * cset.radius)
    if cset.kind == "l2_ball":
        return l2_ball(cset.n, 2.0 * cset.radius)
    return cset


def _make_width_evaluator(cset, backend, mc):
    if backend == "closed_form":
        return lambda rr: mean_width_closed_form(cset, rr)
    rng = np.random.default_rng(mc.seed)
    G = rng.standard_normal((mc.draws, cset.n))
    if cset.kind == "l1_ball":
        absG = np.abs(G)
        B = -np.sort(-absG, axis=1)
        S1 = np.cumsum(B, axis=1)
        S2 = np.cumsum(B * B, axis=1)
        rad = cset.radius
        return lambda rr: float(_l1_dual_from_sorted(rad, rr, B, S1, S2).mean())
    if cset.kind == "sparse_cap":
        base = float(np.sqrt(_topd_energy(np.abs(G), cset.d)).mean())
        return lambda rr: rr * base
    base = float(np.linalg.norm(G, axis=1).mean())
    if cset.kind == "l2_ball":
        rad = cset.radius
        return lambda rr: min(rr, rad) * base
    return lambda rr: rr * base


def _inf_by_bisection(cond, r_start):
    """inf{r > 0 : cond(r)} for a condition that is an up-set in r.

    Starts from r_start (a diameter-like scale), expands upward if needed,
    probes down to r_start * 2^-40, then runs 60 bisection steps and returns
    the smallest radius observed to satisfy the condition.
    """
    hi = float(r_start)
    if cond(hi):
        lo = hi * 2.0**-40
        if cond(lo):
            return 0.0
    else:
        for _ in range(80):
            lo = hi
            hi *= 2.0
            if cond(hi):
                break
        else:
            return math.inf
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cond(mid):
            hi = mid
        else:
            lo = mid
    return hi


def l1_display(functional, level, N, n):
    """Fixed points of the unit-l1-ball width formulas (constants 1)."""
    if functional == "rN":
        a = level * level * N
        if n <= a:
            return 0.0
        return math.sqrt(math.log(n / a) / a)
    if functional == "sN":
        b = level * level * N
        if n >= level * math.sqrt(N):
            return (math.log(n * n / b) / b) ** 0.25
        return math.sqrt(n / b)
    c = level * level * N
    if n >= level ** (2.0 / 3.0) * N ** (1.0 / 3.0):
        return (math.log(n**3 / c) / c) ** (1.0 / 6.0)
    return (n / c) ** 0.25


def _fp_l1_closed(cset, query):
    # reduce the radius-rho ball to the unit ball: r = rho * u with the
    # level rescaled by rho^(p-1)
    p = _EXPONENT[query.functional]
    rho = cset.radius
    return rho * l1_display(query.functional, query.level * rho ** (p - 1), query.N, cset.n)


def _fp_homogeneous(cset, query, mc, closed_form):
    """Cones and the ambient space: width(r) = r * width(1), solve directly."""
    f = query.functional
    base_set = cset
    if f in ("r0", "r2") and cset.kind == "sparse_cap":
        # differences/sums of d-sparse vectors are 2d-sparse
        base_set = sparse_cap(cset.n, min(2 * cset.d, cset.n))
    if closed_form:
        w1 = mean_width_closed_form(base_set, 1.0)
    else:
        w1 = mean_width_mc(base_set, 1.0, mc.draws, mc.seed).value
    root_n = math.sqrt(query.N)
    if f in ("rN", "r0"):
        return 0.0 if w1 <= query.level * root_n else math.inf
    if f in ("sN", "r2"):
        return w1 / (query.level * root_n)
    return math.sqrt(w1 / (query.level * root_n))  # vN


def _fp_bisect(cset, query, mc):
    f = query.functional
    p = _EXPONENT[f]
    root_n = math.sqrt(query.N)
    lvl = query.level
    if f in ("r0", "r2"):
        # upper envelope of the two localized-surrogate branches, widths of
        # the doubled set, evaluated at the branch-endpoint signal norms
        width2 = _make_width_evaluator(_double(cset), query.backend, mc)
        dmax = _max_norm(cset)

        def phi(r):
            small = width2(math.sqrt(r)) / math.sqrt(r)
            large = (dmax / r) * width2(r / dmax)
            return max(small, large)

    else:
        phi = _make_width_evaluator(cset, query.backend, mc)

    def cond(r):
        return phi(r) <= lvl * r**p * root_n

    return _inf_by_bisection(cond, 2.0 * _max_norm(cset))


def _shell_points(cset, R0, count, rng):
    """Points of the set with ||x|| within 1% of R0, by alternating steps."""
    X = random_feasible(cset, rng, max(4 * count, 16))
    X = toward_shell(cset, X, R0)
    nrm = np.linalg.norm(X, axis=1)
    ok = np.abs(nrm - R0) <= 0.01 * R0
    return X[ok][:count]


def toward_shell(cset, X, R0, iters=50):
    """Rows of X moved toward the shell ||x|| = R0 of the set: `iters` rounds
    of rescaling to norm R0 and projecting back."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    for _ in range(iters):
        nrm = np.linalg.norm(X, axis=1, keepdims=True)
        nrm[nrm == 0.0] = 1.0
        X = X * (R0 / nrm)
        X = _project_batch(cset, X)
    return X


def _fp_packing(cset, query, mc):
    R0 = query.shell_R0
    if R0 > _max_norm(cset) * (1.0 + 1e-12):
        raise ValueError(f"shell_R0={R0} exceeds the set's largest norm {_max_norm(cset)}")
    centers = _shell_points(cset, R0, mc.centers, np.random.default_rng(sub_seed(mc.seed, 7)))
    if centers.shape[0] == 0:
        raise ValueError(f"no shell points found at R0={R0} for kind {cset.kind!r}")
    p = _EXPONENT[query.functional]
    root_n = math.sqrt(query.N)
    seeds = [sub_seed(mc.seed, 11, ci) for ci in range(centers.shape[0])]

    def phi(r):
        best = 1
        for c, s in zip(centers, seeds):
            m = packing_count(
                cset, c, _C0_PACKING * r, r,
                shell_R0=R0, candidates=mc.candidates, seed=s,
            )
            best = max(best, m)
        return r * math.sqrt(max(math.log(best), 0.0))

    probes = []

    def cond(r):
        val = phi(r)
        probes.append((r, val / r**p))
        return val <= query.level * r**p * root_n

    out = _inf_by_bisection(cond, 2.0 * R0)
    # Phi(r)/r^p should be nonincreasing; flag clear violations between
    # positive probes (zero counts at tiny radii are expected and harmless)
    ratios = [v for _, v in sorted(probes) if v > 0]
    if any(b > 1.5 * a for a, b in zip(ratios, ratios[1:])):
        warnings.warn(
            "packing functional looks non-monotone across probed radii; "
            "increase candidates/centers for a sharper estimate",
            stacklevel=2,
        )
    return out


def fixed_point(cset, query, mc=None):
    """Solve the query's fixed-point inequality on this set.

    Returns 0.0 when the inequality holds down to the bottom of the search
    range, math.inf when no radius satisfies it (possible for cones).
    """
    mc = mc if mc is not None else McConfig()
    f = query.functional
    if f in ("qN", "tN"):
        if query.backend != "monte_carlo":
            raise UnsupportedSetError("qN/tN are packing-based; use backend='monte_carlo'")
        return _fp_packing(cset, query, mc)
    if query.backend == "closed_form":
        if cset.kind not in ("sparse_cap", "l1_ball"):
            raise UnsupportedSetError(
                f"closed_form backend covers sparse_cap and l1_ball only, not {cset.kind!r}"
            )
        if cset.kind == "sparse_cap":
            return _fp_homogeneous(cset, query, mc, closed_form=True)
        if f in ("rN", "sN", "vN"):
            return _fp_l1_closed(cset, query)
        return _fp_bisect(cset, query, mc)
    if cset.kind in ("sparse_cap", "ambient"):
        return _fp_homogeneous(cset, query, mc, closed_form=False)
    return _fp_bisect(cset, query, mc)


# ---------------------------------------------------------------------------
# packing


def packing_count(cset, center, ball_radius, separation, shell_R0=None,
                  candidates=1024, seed=0, candidate_points=None):
    """Greedy lower bound on the packing number of a localized piece of the set.

    Counts a maximal subset of candidate points, pairwise >= separation
    apart, drawn from {x in set : ||x - center|| <= ball_radius} further
    restricted to ||x|| within 1% of shell_R0 when given.  Candidates are
    rejection-sampled unless `candidate_points` supplies them explicitly.
    Returns 0 if nothing feasible survives.
    """
    center = _check_vector(cset, center)
    if not separation > 0:
        raise ValueError(f"separation must be > 0, got {separation}")
    if not ball_radius > 0:
        raise ValueError(f"ball_radius must be > 0, got {ball_radius}")
    if candidates < 1:
        raise ValueError(f"candidates must be >= 1, got {candidates}")

    if candidate_points is None:
        pts = _sample_candidates(cset, center, ball_radius, shell_R0, candidates, seed)
    else:
        pts = np.atleast_2d(np.asarray(candidate_points, dtype=float))
        if pts.shape[1] != cset.n:
            raise ValueError(f"candidate_points must have {cset.n} columns, got {pts.shape[1]}")

    keep = np.array([contains(cset, row, tol=1e-9) for row in pts])
    dist = np.linalg.norm(pts - center[None, :], axis=1)
    keep &= dist <= ball_radius * (1.0 + 1e-12) + 1e-12
    if shell_R0 is not None:
        nrm = np.linalg.norm(pts, axis=1)
        if shell_R0 == 0.0:
            keep &= nrm <= 1e-12
        else:
            keep &= np.abs(nrm - shell_R0) <= 0.01 * shell_R0
    pts = pts[keep]
    if pts.shape[0] == 0:
        return 0

    packed = [pts[0]]
    for row in pts[1:]:
        dmin = min(float(np.linalg.norm(row - p)) for p in packed)
        if dmin >= separation:
            packed.append(row)
    return len(packed)


def _sample_candidates(cset, center, ball_radius, shell_R0, count, seed):
    rng = np.random.default_rng(seed)
    n = cset.n
    D = rng.standard_normal((count, n))
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    radii = ball_radius * rng.uniform(size=count) ** (1.0 / n)
    X = center[None, :] + D * radii[:, None]
    if shell_R0 is not None and shell_R0 > 0:
        X = toward_shell(cset, X, shell_R0)
    else:
        X = _project_batch(cset, X)
    return np.vstack([center[None, :], X])
