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
from dataclasses import dataclass, replace

import numpy as np

from .ensembles import sub_seed, substream
from .errors import UnsupportedSetError, check_integer

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
        check_integer("n", self.n, 1)
        if self.kind == "sparse_cap":
            check_integer("d", self.d, 1)
            if self.d > self.n:
                raise ValueError(f"sparse_cap needs 1 <= d <= n, got d={self.d}, n={self.n}")
        if self.kind in ("l1_ball", "l2_ball"):
            if self.radius is None or not 0 < self.radius < math.inf:
                raise ValueError(f"{self.kind} needs a finite radius > 0, got {self.radius}")


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
    """Membership test with additive tolerance `tol`; a (k, n) stack gets one flag per row.
    A row with a NaN or infinite entry is in no set."""
    x = np.asarray(x, dtype=float)
    if not (x.ndim == 2 and x.shape[1] == cset.n):
        return bool(contains(cset, _check_vector(cset, x)[None, :], tol)[0])
    if cset.kind == "ambient":
        return np.isfinite(x).all(axis=1)
    if cset.kind == "sparse_cap":
        return np.isfinite(x).all(axis=1) & ((np.abs(x) > tol).sum(axis=1) <= cset.d)
    if cset.kind == "l1_ball":
        return np.abs(x).sum(axis=1) <= cset.radius + tol
    return np.linalg.norm(x, axis=1) <= cset.radius + tol


# ---------------------------------------------------------------------------
# projections


def _project_l1_batch(X, radius):
    """Row-wise Euclidean projection onto the l1 ball: soft-threshold the rows over
    the radius at the threshold their sorted magnitudes give (Duchi,
    Shalev-Shwartz, Singer & Chandra, ICML 2008)."""
    A = np.abs(X)
    U = -np.sort(-A, axis=1)
    css = np.cumsum(U, axis=1)
    css -= radius
    k = (U > css / np.arange(1, X.shape[1] + 1)).sum(axis=1)   # prefix-true pattern
    theta = np.where(A.sum(axis=1) > radius, css[np.arange(X.shape[0]), k - 1] / k, 0.0)
    # the pairwise row sum can call a row over while the sequential prefix
    # sums give theta < 0; zero entries must stay zero, as sign(0) kept them
    neg = np.flatnonzero(theta < 0.0)
    zeros = A[neg] == 0.0
    A -= theta[:, None]
    np.maximum(A, 0.0, out=A)
    if neg.size:
        A[neg] = np.where(zeros, 0.0, A[neg])
    return np.copysign(A, X, out=A)


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
        # keep the d largest magnitudes: those at or above the d-th largest,
        # and in rows where it ties, only the lowest-index ties at it; NaN
        # ranks below every number
        key = -np.abs(X)
        key[np.isnan(key)] = np.inf
        kth = np.sort(key, axis=1)[:, cset.d - 1 : cset.d]
        keep = key <= kth
        tied = np.flatnonzero(np.count_nonzero(keep, axis=1) > cset.d)
        if tied.size:
            key, kth = key[tied], kth[tied]
            tie = key == kth
            room = cset.d - np.count_nonzero(key < kth, axis=1, keepdims=True)
            keep[tied] = (key < kth) | (tie & (np.cumsum(tie, axis=1) <= room))
        return np.where(keep, X, 0.0)
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


def _sorted_form(G):
    """|G| sorted descending per row, in G's place, and the prefix sums of it
    and its square.

    Built in place: on a large draw these arrays set a Monte Carlo fixed
    point's peak memory.
    """
    B = np.abs(G, out=G)
    np.negative(B, out=B)
    B.sort(axis=1)
    np.negative(B, out=B)
    S2 = np.square(B)
    return B, np.cumsum(B, axis=1), np.cumsum(S2, axis=1, out=S2)


def _l1_cap_piece(q, B, S1, S2):
    """Where F(lam) = lam*radius + r*||(|g| - lam)_+||_2 is least, per row, for
    q = (radius/r)^2.

    B holds |g| sorted descending per row, S1/S2 the prefix sums of B and B^2.
    F'(lam) = radius - r*R(lam), with R(lam) = ||S||_1/||S||_2 for S = (|g| - lam)_+
    the ratio `toward_shell` shows nonincreasing, so F is convex and smooth on
    each piece [B[k], B[k-1]] (k active entries, B[n] = 0).  A bisection per row
    over k, log2(n) rounds of O(m) gathers, finds the first breakpoint with
    F'(B[k]) <= 0, that is R(B[k])^2 >= q.  On that piece R(lam)^2 = q is a
    quadratic in lam when k > q; where k <= q, R <= sqrt(k) <= sqrt(q) keeps
    F' >= 0 on the piece.  Returns k, the sum s1 and sum of squares s2 of the k
    largest entries, the piece's ends upper = B[k-1] and lower = B[k], and lam:
    the quadratic's root clipped to the piece, or lower where k <= q.
    """
    m, n = B.shape
    rows = np.arange(m) * n

    def piece(k):
        # sum and sum of squares of the k largest entries, B[k-1], and B[k] (0 at k = n)
        i = rows + k - 1
        below = np.where(k < n, B.take(np.minimum(i + 1, m * n - 1)), 0.0)
        return S1.take(i), S2.take(i), B.take(i), below

    # binary lifting to the last k with F'(B[k]) > 0; h = 0 is a tied top, not crossed
    k = np.zeros(m, dtype=np.intp)
    for step in 1 << np.arange(n.bit_length())[::-1]:
        trial = np.minimum(k + step, n)
        s1, s2, _, lam = piece(trial)
        h = s2 - 2.0 * lam * s1 + trial * lam * lam
        crossed = ((s1 - trial * lam) ** 2 >= q * h) & (h > 0.0)
        k = np.where((k + step <= n) & ~crossed, trial, k)
    k = np.minimum(k + 1, n)
    s1, s2, upper, lower = piece(k)
    # fmax/fmin, not clip: a root that overflowed to NaN falls to the piece's end
    lam = np.where(k > q, np.fmin(np.fmax(_ratio_root(q, k, s1, s2), lower), upper), lower)
    return k, s1, s2, upper, lower, lam


def _ratio_root(q, k, s1, s2):
    """The lam < s1/k at which k entries with sum s1 and sum of squares s2, each
    less lam, have ||.||_1^2 = q*||.||_2^2.  Meaningful only where k > q."""
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = q * np.maximum(k * s2 - s1 * s1, 0.0) / (k - q)
        return (s1 - np.sqrt(np.maximum(disc, 0.0))) / k


def _l1_dual_from_sorted(radius, r, B, S1, S2):
    """Exact sup over the l1(radius)-ball cap of radius r, per row.

    B holds |g| sorted descending per row, S1/S2 the prefix sums of B and
    B^2.  By strong duality the value is min over lam >= 0 of the convex F of
    `_l1_cap_piece`: the least of radius*||g||_inf and F at both ends of the
    piece that function finds and at its lam.  O(m log n) time, O(m) memory.
    """
    k, s1, s2, upper, lower, lam = _l1_cap_piece((radius / r) ** 2, B, S1, S2)

    def dual(lam):
        # F on piece k.  Where the piece's entries tie, h cancels to rounding and
        # F comes out low; ||u||_2 >= ||u||_1 / sqrt(k) bounds it without cancelling
        h = np.maximum(s2 - 2.0 * lam * s1 + k * lam * lam, 0.0)
        return lam * radius + r * np.maximum(np.sqrt(h), (s1 - k * lam) / np.sqrt(k))

    return np.min([B[:, 0] * radius, dual(upper), dual(lower), dual(lam)], axis=0)


def _cap_support(cset, G):
    """Support function of the set's r-caps at the rows of G, as `r -> values`; what
    does not depend on r (row norms, top-d energies, the l1 sorted form) is computed once.
    On an l1 ball the sorted form overwrites G."""
    G = np.atleast_2d(np.asarray(G, dtype=float))
    if cset.kind == "l1_ball":
        sorted_form = _sorted_form(G)
        return lambda r: _l1_dual_from_sorted(cset.radius, r, *sorted_form)
    if cset.kind == "sparse_cap":
        base = np.sqrt(_topd_energy(np.abs(G), cset.d))
    else:
        base = np.linalg.norm(G, axis=1)
    if cset.kind == "l2_ball":
        return lambda r: min(r, cset.radius) * base
    return lambda r: r * base


def support_function_cap(cset, r, g):
    """sup |<g, t>| over t in the set intersected with the r-ball (exact)."""
    if not r > 0:
        raise ValueError(f"cap radius must be > 0, got {r}")
    # g scaled by a power of two, exactly, so that no norm underflows or overflows
    g = _check_vector(cset, g)
    e = int(np.frexp(np.abs(g).max(initial=0.0))[1])
    return math.ldexp(float(_cap_support(cset, np.ldexp(g, -e))(r)[0]), e)


@dataclass(frozen=True)
class WidthEstimate:
    value: float
    std_error: float
    draws: int


def mean_width_mc(cset, r, gaussian_draws, seed):
    """Monte Carlo gaussian mean width of the cap: E sup |<G, t>|."""
    if not r > 0:
        raise ValueError(f"cap radius must be > 0, got {r}")
    check_integer("gaussian_draws", gaussian_draws, 2)
    check_integer("seed", seed, 0)
    vals = _cap_support(cset, substream(seed).standard_normal((gaussian_draws, cset.n)))(r)
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
    functional (p = 2/3) and need shell_R0, which the other five refuse.
    """

    functional: str
    level: float
    N: int
    shell_R0: float | None = None
    backend: str = "closed_form"

    def __post_init__(self):
        if self.functional not in FUNCTIONALS:
            raise ValueError(f"unknown functional {self.functional!r}, expected one of {FUNCTIONALS}")
        if not 0 < self.level < math.inf:
            raise ValueError(f"level must be finite and > 0, got {self.level}")
        check_integer("N", self.N, 1)
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}, expected one of {BACKENDS}")
        if self.functional in ("qN", "tN") and not (self.shell_R0 and self.shell_R0 > 0):
            raise ValueError("qN/tN need shell_R0 > 0")
        if self.functional not in ("qN", "tN") and self.shell_R0 is not None:
            raise ValueError(f"{self.functional} does not read shell_R0; only qN and tN do")


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo budget for width- and packing-based fixed points."""

    draws: int = 1024
    seed: int = 0
    candidates: int = 2048
    centers: int = 4

    def __post_init__(self):
        for name in ("draws", "seed", "candidates", "centers"):
            check_integer(f"McConfig.{name}", getattr(self, name), 0 if name == "seed" else 1)


def _max_norm(cset):
    if cset.kind in ("l1_ball", "l2_ball"):
        return cset.radius
    return math.inf


def _make_width_evaluator(cset, backend, mc):
    if backend == "closed_form":
        return lambda rr: mean_width_closed_form(cset, rr)
    support = _cap_support(cset, substream(mc.seed).standard_normal((mc.draws, cset.n)))
    return lambda rr: float(support(rr).mean())


def _least_radius(cond, r_start):
    """inf{r > 0 : cond(r)} for a condition that is an up-set in r.

    `cond(r)` returns (holds, t), t a log-ratio that is >= 0 where the condition
    fails and <= 0 where it holds, or nan.  The search probes r_start, then
    r_start * 2^-40 (0.0 if that holds) or doubles upward (inf after 80 doublings).
    It takes arithmetic midpoints while hi > 2 lo, as a bisection does.  Inside the
    octave it interpolates t linearly in log r (regula falsi; an end kept twice in
    a row has its t halved, the Illinois rule), a step of at least one ulp of hi
    from either end, doubled each time the same end moves again.  The probe is held
    in the window from which midpoints still reach adjacent doubles within 60
    probes after the bracket, a 60-step bisection's count, and is the midpoint
    where that window is empty.  The bracket moves on `holds` alone.  The search
    stops when lo and hi are adjacent doubles and returns hi.

    So it never makes more probes than a 60-step bisection, and ~10-20 on a width.
    When the root lies above about r_start * 2^-8 and the condition is monotone
    across its last few doubles, hi is the least double that holds, the one the
    bisection returns.  Below that, 60 halvings cannot reach adjacent doubles: the
    search makes the bisection's probes and returns its hi, within r_start * 2^-60
    of the root.
    """
    hi = float(r_start)
    ok, t_hi = cond(hi)
    if ok:
        lo = hi * 2.0**-40
        ok, t_lo = cond(lo)
        if ok:
            return 0.0
    else:
        for _ in range(80):
            lo, t_lo = hi, t_hi
            hi *= 2.0
            ok, t_hi = cond(hi)
            if ok:
                break
        else:
            return math.inf
    run = 0  # secant probes in a row that moved the same end: > 0 lo, < 0 hi
    for spent in range(60):
        r = mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        # a new bracket no wider than `reach` ends within the 59 - spent probes left
        gap, reach = math.ldexp(math.ulp(hi), abs(run)), math.ldexp(math.ulp(lo), 59 - spent)
        low = max(lo + gap, hi - reach)
        high = min(hi - gap, math.nextafter(lo + reach, lo))  # lo + reach may round up
        secant = hi <= 2.0 * lo and low <= high and t_lo >= 0.0 >= t_hi and t_lo > t_hi
        if secant:
            r = lo * math.exp(math.log(hi / lo) * t_lo / (t_lo - t_hi))
            r = min(max(r, low), high)
        ok, t = cond(r)
        if ok:
            hi, t_hi = r, t
            t_lo *= 0.5 if run < 0 else 1.0
        else:
            lo, t_lo = r, t
            t_hi *= 0.5 if run > 0 else 1.0
        run = (min(run, 0) - 1 if ok else max(run, 0) + 1) if secant else 0
    return hi


def _l1_display(functional, level, N, n):
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
    return rho * _l1_display(query.functional, query.level * rho ** (p - 1), query.N, cset.n)


def _fp_homogeneous(cset, query, mc):
    """Cones and the ambient space: width(r) = r * width(1), solve directly."""
    f = query.functional
    base_set = cset
    if f in ("r0", "r2") and cset.kind == "sparse_cap":
        # differences/sums of d-sparse vectors are 2d-sparse
        base_set = sparse_cap(cset.n, min(2 * cset.d, cset.n))
    w1 = _make_width_evaluator(base_set, query.backend, mc)(1.0)
    root_n = math.sqrt(query.N)
    if f in ("rN", "r0"):
        return 0.0 if w1 <= query.level * root_n else math.inf
    if f in ("sN", "r2"):
        return w1 / (query.level * root_n)
    return math.sqrt(w1 / (query.level * root_n))  # vN


def _width_phi(cset, query, mc):
    """Phi of rN/sN/vN (the cap width) and of r0/r2 on a ball."""
    if query.functional not in ("r0", "r2"):
        return _make_width_evaluator(cset, query.backend, mc)
    # upper envelope of the two localized-surrogate branches, widths of the
    # doubled set, evaluated at the branch-endpoint signal norms
    width2 = _make_width_evaluator(replace(cset, radius=2.0 * cset.radius), query.backend, mc)
    dmax = _max_norm(cset)

    def phi(r):
        small = width2(math.sqrt(r)) / math.sqrt(r)
        large = (dmax / r) * width2(r / dmax)
        return max(small, large)

    return phi


def toward_shell(cset, X, R0):
    """Each row u of X mapped to the maximiser of <u, t> over the set's R0-cap,
    a point of the shell ||t|| = R0 wherever the set reaches it.

    ambient and l2_ball: min(R0, radius) * u/||u||.  sparse_cap: R0 * P_d(u)/||P_d(u)||.
    l1_ball(rho), R0 < rho: t = c * S_lam(|u|) with the signs of u, where
    S_lam(a) = (a - lam)_+, c = min(R0/||S||_2, rho/||S||_1), and lam solves
    R(lam) = ||S_lam||_1/||S_lam||_2 = rho/R0 (lam = 0 where R(0) <= rho/R0).
    l1_ball, R0 >= rho: every point of the ball has ||t||_2 <= ||t||_1 <= rho, so
    the cap is the ball: rho times the vertex of the first largest |u_i|.  Zero
    rows stay zero.

    R is nonincreasing in lam.  With k entries active, d||S||_1/dlam = -k and
    d||S||_2^2/dlam = -2||S||_1, so d(R^2)/dlam = 2||S||_1 (||S||_1^2 - k||S||_2^2)
    / ||S||_2^4 <= 0 by Cauchy-Schwarz; R is continuous where an entry leaves,
    at 0.  So the one search of `_l1_cap_piece`, at q = (rho/R0)^2, finds lam.
    There ||t||_2 = R0, ||t||_1 = rho and <|u|, S> = ||S||_2^2 + lam*||S||_1, so
    <|u|, t> = lam*rho + R0*||S||_2: t meets the dual bound F(lam) and is the
    maximiser.  Where the largest |u_i| tie j > q times, R >= sqrt(j) > rho/R0
    for every lam below them: lam reaches them, and t spreads rho evenly over
    the ties, inside the shell, as the rounds below do.

    t is also the limit of repeated rounds of "rescale to norm R0, project
    onto the ball".  Projecting c*S_theta(|u|), c > 0, soft-thresholds
    it at some tau >= 0, and (c*S_theta(a) - tau)_+ = c*S_(theta + tau/c)(a);
    rescaling changes only c.  So from u the rounds stay on c_j*S_theta_j(|u|)
    with theta_j nondecreasing.  A round that shrinks ends on ||.||_1 = rho,
    ||.||_2 <= R0, so R(theta_j) >= rho/R0 and theta_j <= lam; a round that
    does not shrink leaves the point fixed, and then R(theta_j) <= rho/R0.  The
    theta_j rise to a limit where a round is fixed: to lam.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    # the map ignores a row's scale: bring each row's largest |u_i| into [0.5, 1)
    # by a power of two, exactly, so that no norm below underflows or overflows
    X = np.ldexp(X, -np.frexp(np.abs(X).max(axis=1, initial=0.0))[1][:, None])
    if cset.kind == "sparse_cap":
        T = project(cset, X)
    elif cset.kind != "l1_ball":
        T = X
    elif R0 >= cset.radius:
        T = project(sparse_cap(cset.n, 1), X)
    else:
        A = np.abs(X)
        q = (cset.radius / R0) ** 2
        *_, lam = _l1_cap_piece(q, *_sorted_form(A.copy()))
        # the root from prefix sums of |u| loses digits where the largest entries
        # nearly tie; the same root on the thresholded entries' own sums restores them
        T = np.maximum(A - lam[:, None], 0.0)
        k = np.count_nonzero(T, axis=1)
        step = _ratio_root(q, k, T.sum(axis=1), np.square(T).sum(axis=1))
        lam += np.where(k > q, np.fmax(step, -lam), 0.0)
        T = np.maximum(A - lam[:, None], 0.0)
        tied = np.flatnonzero((lam > 0.0) & ~T.any(axis=1))
        T[tied] = A[tied] >= lam[tied, None]
        np.copysign(T, X, out=T)
    l2 = np.linalg.norm(T, axis=1)
    l2[l2 == 0.0] = 1.0
    scale = min(R0, _max_norm(cset)) / l2
    if cset.kind == "l1_ball":
        l1 = np.abs(T).sum(axis=1)
        l1[l1 == 0.0] = 1.0
        scale = np.minimum(scale, cset.radius / l1)
    return T * scale[:, None]


def _packing_phi(cset, R0, mc):
    """Phi of qN/tN: r * sqrt(log M(r)), M the largest greedy count of
    r-separated shell points near one of `mc.centers` shell points."""
    if R0 > _max_norm(cset) * (1.0 + 1e-12):
        raise ValueError(f"shell_R0={R0} exceeds the set's largest norm {_max_norm(cset)}")
    # centres: points of the set with ||x|| within 1% of R0, each the maximiser
    # of <x, t> over the set's R0-cap
    X = random_feasible(cset, substream(sub_seed(mc.seed, 7)), max(4 * mc.centers, 16))
    X = toward_shell(cset, X, R0)
    centers = X[np.abs(np.linalg.norm(X, axis=1) - R0) <= 0.01 * R0][: mc.centers]
    if centers.shape[0] == 0:
        raise ValueError(f"no shell points found at R0={R0} for kind {cset.kind!r}")
    # each centre's candidates are drawn once and placed again at every probe
    draws = [_candidate_draws(cset.n, mc.candidates, sub_seed(mc.seed, 11, ci))
             for ci in range(centers.shape[0])]

    def phi(r):
        ball = _C0_PACKING * r
        counts = [_greedy_count(cset, c, ball, r, R0, _place_candidates(cset, c, D, ball * w, R0))
                  for c, (D, w) in zip(centers, draws)]
        return r * math.sqrt(math.log(max([1, *counts])))

    return phi


def fixed_point(cset, query, mc=None):
    """Solve the query's fixed-point inequality on this set.

    Every functional is a Phi(r) solved by one search, `_least_radius`, apart
    from the exact shortcuts for cones, the ambient space and the l1 closed forms.
    Returns 0.0 when the inequality holds down to the bottom of the search
    range, math.inf when no radius satisfies it (possible for cones).
    """
    mc = mc if mc is not None else McConfig()
    f = query.functional
    closed_form = query.backend == "closed_form"
    if f in ("qN", "tN"):
        if closed_form:
            raise UnsupportedSetError("qN/tN are packing-based; use backend='monte_carlo'")
        phi, r_start = _packing_phi(cset, query.shell_R0, mc), 2.0 * query.shell_R0
    elif closed_form and cset.kind not in ("sparse_cap", "l1_ball"):
        raise UnsupportedSetError(
            f"closed_form backend covers sparse_cap and l1_ball only, not {cset.kind!r}"
        )
    elif cset.kind in ("sparse_cap", "ambient"):
        return _fp_homogeneous(cset, query, mc)
    elif closed_form and f in ("rN", "sN", "vN"):
        return _fp_l1_closed(cset, query)
    else:
        phi, r_start = _width_phi(cset, query, mc), 2.0 * _max_norm(cset)

    p = _EXPONENT[f]
    root_n = math.sqrt(query.N)
    probes = []

    def cond(r):
        val, rp = phi(r), r**p
        if rp > 0:  # r**p underflows on very small sets; such probes give no ratio
            probes.append((r, val / rp))
        bound = query.level * rp * root_n
        ratio = val / bound if bound > 0 else math.inf
        return val <= bound, math.log(ratio) if 0 < ratio < math.inf else math.nan

    out = _least_radius(cond, r_start)
    # Phi(r)/r^p should be nonincreasing; flag clear violations between
    # positive probes (zero packing counts at tiny radii are expected and harmless)
    ratios = [v for _, v in sorted(probes) if v > 0]
    if any(b > 1.5 * a for a, b in zip(ratios, ratios[1:])):
        warnings.warn(
            f"{f} functional looks non-monotone across probed radii; increase the "
            "Monte Carlo budget (draws, candidates, centers) for a sharper estimate",
            stacklevel=2,
        )
    return out


# ---------------------------------------------------------------------------
# packing


def packing_count(cset, center, ball_radius, separation, shell_R0=None,
                  candidates=1024, seed=0):
    """Greedy lower bound on the packing number of a localized piece of the set.

    Counts a maximal subset of candidate points, pairwise >= separation
    apart, drawn from {x in set : ||x - center|| <= ball_radius} further
    restricted to ||x|| within 1% of shell_R0 when given.  The candidates are
    the centre and `candidates` uniform draws from the ball around it, each
    mapped toward the shell (or projected onto the set when no positive
    shell_R0 is given); the membership, ball and shell filters then drop those
    that miss.  Returns 0 if nothing feasible survives.
    """
    center = _check_vector(cset, center)
    if not separation > 0:
        raise ValueError(f"separation must be > 0, got {separation}")
    if not ball_radius > 0:
        raise ValueError(f"ball_radius must be > 0, got {ball_radius}")
    check_integer("candidates", candidates, 1)
    check_integer("seed", seed, 0)
    if shell_R0 is not None and not shell_R0 >= 0:
        raise ValueError(f"shell_R0 must be >= 0, got {shell_R0}")
    D, w = _candidate_draws(cset.n, candidates, seed)
    return _greedy_count(cset, center, ball_radius, separation, shell_R0,
                         _place_candidates(cset, center, D, ball_radius * w, shell_R0))


def _greedy_count(cset, center, ball_radius, separation, shell_R0, pts):
    """`packing_count` over the placed candidate rows `pts`: the greedy count of those
    that pass its membership, ball and shell filters."""
    keep = contains(cset, pts, tol=1e-9)
    dist = np.linalg.norm(pts - center[None, :], axis=1)
    keep &= dist <= ball_radius * (1.0 + 1e-12) + 1e-12
    if shell_R0 is not None:
        nrm = np.linalg.norm(pts, axis=1)
        if shell_R0 == 0.0:
            keep &= nrm <= 1e-12
        else:
            keep &= np.abs(nrm - shell_R0) <= 0.01 * shell_R0
    pts = pts[keep]
    # greedy in row order: each accepted point drops every later candidate
    # closer than `separation`, so the next survivor is the next accepted one
    count = 0
    while pts.shape[0]:
        count += 1
        pts = pts[1:][np.linalg.norm(pts[1:] - pts[0], axis=1) >= separation]
    return count


def _candidate_draws(n, count, seed):
    """Unit directions D and radius fractions u^(1/n) of `count` uniform points of
    the unit n-ball, as rows: row i is D[i] * w[i]."""
    rng = substream(seed)
    D = rng.standard_normal((count, n))
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    return D, rng.uniform(size=count) ** (1.0 / n)


def _place_candidates(cset, center, D, radii, shell_R0):
    """The centre, then center + D[i] * radii[i] mapped toward the shell (or onto the set)."""
    X = center[None, :] + D * radii[:, None]
    if shell_R0 is not None and shell_R0 > 0:
        X = toward_shell(cset, X, shell_R0)
    else:
        X = project(cset, X)
    return np.vstack([center[None, :], X])
