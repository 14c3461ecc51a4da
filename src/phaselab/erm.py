"""Least-squares solvers for recovery from noisy quadratic measurements.

The objective is (1/N) sum_i (<a_i, x>^2 - y_i)^2, minimized over a
constraint set.  The sign of the signal is not identifiable, so errors are
reported both as the product ||x-x0||*||x+x0|| and as the best-sign distance.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ensembles import substream
from .errors import BudgetExceededError
from .sets import project, random_feasible

_TINY = 1e-300


def _loss(z, y):
    """(1/N) sum (z_i^2 - y_i)^2 for the predictions z = A x; one value per row of a stack."""
    r = z * z
    r -= y
    r *= r
    return r.sum(axis=-1) / r.shape[-1]


def _loss_gradient(A, z, y):
    """(4/N) sum (z_i^2 - y_i) z_i a_i: the loss gradient at x, given z = A x; row-wise."""
    r = z * z
    r -= y
    r *= z
    return (4.0 / A.shape[0]) * (r @ A)


def objective(sample, x):
    """(1/N) sum (<a_i,x>^2 - y_i)^2."""
    return float(_loss(sample.A @ np.asarray(x, dtype=float), sample.y))


def gradient(sample, x):
    """Analytic gradient: (4/N) sum (<a_i,x>^2 - y_i) <a_i,x> a_i."""
    return _loss_gradient(sample.A, sample.A @ np.asarray(x, dtype=float), sample.y)


def excess_loss_parts(sample, x, x0):
    """Quadratic and multiplier parts of the empirical excess loss.

    Returns (quadratic, multiplier) with
      quadratic  = (1/N) sum <x-x0,a_i>^2 <x+x0,a_i>^2
      multiplier = (2/N) sum w_i <x-x0,a_i> <x+x0,a_i>
    so that objective(x) - objective(x0) = quadratic - multiplier whenever
    y = (A x0)^2 + w.
    """
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    u = sample.A @ (x - x0)
    v = sample.A @ (x + x0)
    quadratic = float(np.mean(u * u * v * v))
    multiplier = float(2.0 * np.mean(sample.noise_realization * u * v))
    return quadratic, multiplier


# ---------------------------------------------------------------------------
# spectral initialization


def _spectral_matrix(sample):
    return (sample.A.T @ (sample.y[:, None] * sample.A)) / sample.N


def _leading_eig(M, max_iter=200, rel_tol=1e-10):
    """Leading (largest algebraic) eigenpair by shifted power iteration.

    The shift max abs row sum bounds the spectral radius, making the shifted
    matrix PSD so the iteration converges to the top algebraic eigenvalue.
    Sign convention: first non-negligible coordinate of the eigenvector is
    positive.
    """
    n = M.shape[0]
    if not np.any(M):
        return 0.0, np.zeros(n)
    shift = float(np.abs(M).sum(axis=1).max())
    v = np.random.default_rng(0x5EED).standard_normal(n)
    v /= np.linalg.norm(v)
    lam = float(v @ (M @ v))
    for _ in range(max_iter):
        w = M @ v + shift * v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            break
        v = w / nw
        lam_new = float(v @ (M @ v))
        if abs(lam_new - lam) <= rel_tol * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    idx = np.flatnonzero(np.abs(v) > 1e-12 * max(np.abs(v).max(), _TINY))
    if idx.size and v[idx[0]] < 0:
        v = -v
    return lam, v


def _spectral_start(lam, v):
    """sqrt(max(lam, 0)) v: the rank-1 factor of the eigenpair, zero if lam <= 0."""
    return math.sqrt(max(float(lam), 0.0)) * v


def spectral_init(sample):
    """sqrt(max(lambda_1, 0)) times the leading eigenvector of
    (1/N) sum y_i a_i a_i^T."""
    return _spectral_start(*_leading_eig(_spectral_matrix(sample)))


# ---------------------------------------------------------------------------
# solvers


@dataclass(frozen=True)
class StepRule:
    """"backtracking" (sufficient-decrease line search) or "fixed".

    step=None means the default initial step 0.1 / lambda_1 of the spectral
    matrix.
    """

    kind: str = "backtracking"
    step: float | None = None
    shrink: float = 0.5
    growth: float = 1.1

    def __post_init__(self):
        if self.kind not in ("backtracking", "fixed"):
            raise ValueError(f"unknown step rule {self.kind!r}")
        if self.step is not None and not self.step > 0:
            raise ValueError("explicit step must be > 0")
        if not (0 < self.shrink < 1) or not self.growth >= 1:
            raise ValueError("need 0 < shrink < 1 and growth >= 1")


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 300
    gradient_tolerance: float = 1e-8
    step_rule: StepRule = field(default_factory=StepRule)
    restarts: int = 1
    oracle_budget: int = 200_000

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.gradient_tolerance < 0:
            raise ValueError("gradient_tolerance must be >= 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.oracle_budget < 1:
            raise ValueError("oracle_budget must be >= 1")


@dataclass(frozen=True)
class TrialResult:
    x_hat: np.ndarray
    objective_value: float
    product_error: float
    sign_error: float
    iterations_used: int
    converged: bool


def error_metrics(x_hat, x0):
    """(product_error, sign_error, aligned_sign) for the two-fold ambiguity."""
    x_hat = np.asarray(x_hat, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x_hat.shape != x0.shape:
        raise ValueError(f"shape mismatch: {x_hat.shape} vs {x0.shape}")
    d_minus = float(np.linalg.norm(x_hat - x0))
    d_plus = float(np.linalg.norm(x_hat + x0))
    if d_minus <= d_plus:
        return d_minus * d_plus, d_minus, 1
    return d_minus * d_plus, d_plus, -1


def _descend(A, y, X, base_step, max_iter, tol, project=None, shrink=0.5, growth=1.1,
             fixed=False):
    """Descent of the loss from each row of X, fixed or backtracking step, mapped by `project`.

    None means no projection.  Each row keeps its own step size, accept/reject test, exits
    and iteration count; the live rows share one product with A per trial step and one per
    gradient, and a row leaves them when it finishes.  Returns per-row (X, f, iterations,
    converged).
    """
    x = np.array(X, dtype=float, ndmin=2)
    k = x.shape[0]
    X, f, iters, conv = np.empty_like(x), np.empty(k), np.empty(k, dtype=int), np.empty(k, bool)
    live, step, it = np.arange(k), np.full(k, float(base_step)), np.ones(k, dtype=int)
    z = x @ A.T
    fx, g = _loss(z, y), _loss_gradient(A, z, y)
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size:
            x_new = x - step[:, None] * g
            if project is not None:
                x_new = project(x_new)
            z = x_new @ A.T
            f_new = _loss(z, y)
            move2 = ((x_new - x) ** 2).sum(axis=1)
            s = np.maximum(step, _TINY)
            ok = fixed | (np.isfinite(f_new) & (f_new <= fx - 1e-4 * move2 / s))
            x, fx = np.where(ok[:, None], x_new, x), np.where(ok, f_new, fx)
            # converged: an accepted step within tol, or a rejected one at the floor step
            stop = np.where(ok, np.sqrt(move2) / s <= tol, step <= 1e-16 * base_step)
            done = stop | (ok & (it == max_iter))
            if done.any():
                rows, keep = live[done], ~done
                X[rows], f[rows] = x[done], fx[done]
                iters[rows], conv[rows] = it[done], stop[done]
                live, x, fx, step, it, ok, z, g = (v[keep] for v in (live, x, fx, step, it, ok, z, g))
            step = step * np.where(ok, 1.0 if fixed else growth, shrink)
            it += ok
            if ok.all():
                g = _loss_gradient(A, z, y)
            elif ok.any():
                g[ok] = _loss_gradient(A, z[ok], y)
    return X, f, iters, conv


def solve_pgd(sample, cset, config, seed):
    """Projected gradient descent with restarts.

    Restart 0 starts from the spectral initializer (projected into the set);
    the others from random feasible points rescaled to the initializer's
    norm.  Returns the run with the smallest finite objective; if every run
    diverged, restart 0's, marked not converged.
    """
    if sample.n != cset.n:
        raise ValueError(f"sample dimension {sample.n} != set dimension {cset.n}")
    lam1, v1 = _leading_eig(_spectral_matrix(sample))
    rule = config.step_rule
    if rule.step is not None:
        base_step = rule.step
    else:
        base_step = 0.1 / lam1 if lam1 > 0 else 1.0

    rng = substream(seed, 0)
    starts = [project(cset, _spectral_start(lam1, v1))]
    norm0 = float(np.linalg.norm(starts[0]))
    for _ in range(config.restarts - 1):
        z = random_feasible(cset, rng, 1)[0]
        nz = float(np.linalg.norm(z))
        if norm0 > 0 and nz > 0:
            z = project(cset, z * (norm0 / nz))
        starts.append(z)

    X, f, iters, conv = _descend(
        sample.A, sample.y, np.array(starts), base_step, config.max_iterations,
        config.gradient_tolerance, functools.partial(project, cset),
        rule.shrink, rule.growth, rule.kind == "fixed")
    # a diverged run never wins; if all diverged, argmin keeps restart 0
    best = int(np.argmin(np.where(np.isfinite(f), f, np.inf)))
    prod, sign, _ = error_metrics(X[best], sample.x0)
    return TrialResult(X[best], float(f[best]), prod, sign, int(iters.sum()),
                       bool(conv[best]) and math.isfinite(f[best]))


# ---------------------------------------------------------------------------
# ground-truth oracle


def _newton_polish(As, y, x, fx, max_iter=15):
    """A few damped Newton steps; only accepts strict objective decreases."""
    N = As.shape[0]
    z = As @ x
    for iters in range(1, max_iter + 1):
        g = _loss_gradient(As, z, y)
        if float(np.linalg.norm(g)) <= 1e-15 * max(1.0, abs(fx)):
            break
        H = (4.0 / N) * ((As.T * (3.0 * z * z - y)) @ As)
        try:
            delta = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            break
        t = 1.0
        improved = False
        for _ in range(30):
            x_new = x - t * delta
            zn = As @ x_new
            f_new = _loss(zn, y)
            if f_new < fx:
                x, z, fx = x_new, zn, f_new
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return x, fx, iters


def _ordered_supports(order, d):
    """All size-d supports, tiers of growing prefixes of `order` first."""
    n = len(order)
    for k in range(d, n + 1):
        newest = order[k - 1]
        for rest in itertools.combinations(order[: k - 1], d - 1):
            yield rest + (newest,)


@functools.lru_cache(maxsize=4)
def _support_index_array(n, d):
    """All size-d index tuples in the tier order of _ordered_supports."""
    total = math.comb(n, d)
    return np.fromiter(
        itertools.chain.from_iterable(_ordered_supports(tuple(range(n)), d)),
        dtype=np.int32, count=total * d,
    ).reshape(total, d)


def _ls_resid(G, b, yy, yscale):
    """Batched ridge-stabilized least squares; exact residual of the fit."""
    p = G.shape[1]
    ar = np.arange(p)
    ridge = 1e-10 * G[:, ar, ar].mean(axis=1) + 1e-300
    G[:, ar, ar] += ridge[:, None]
    try:
        sol = np.linalg.solve(G, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        sol = np.stack([np.linalg.lstsq(G[i], b[i], rcond=None)[0] for i in range(len(G))])
    quad = ((G @ sol[:, :, None])[:, :, 0] * sol).sum(axis=1)
    quad -= ridge * (sol * sol).sum(axis=1)  # undo the ridge in the residual
    resid = np.maximum(yy - 2.0 * (sol * b).sum(axis=1) + quad, 0.0)
    return resid / yscale, sol


def _make_gram_screen(rows, ym, n, iu):
    """Batched residual of the best symmetric Gram fit per support.

    For support S the screen solves min_X sum_i (<a_{i,S}, X a_{i,S}> - y_i)^2
    over symmetric d x d matrices: a linear least-squares problem in the
    d(d+1)/2 upper entries.  A support carrying an exact solution
    y_i = <a_{i,S}, x>^2 has residual ~ 0 (take X = x x^T); generic wrong
    supports are overdetermined and land at O(1).  When the global pair count
    is small, per-support normal equations are gathered from one precomputed
    pair-product Gram; otherwise they are assembled per block.
    """
    m = rows.shape[0]
    yy = float(ym @ ym) / m
    yscale = max(yy, 1e-300)
    npairs = n * (n + 1) // 2
    offdiag = iu[0] != iu[1]
    if npairs <= 3000:
        gj, gk = np.triu_indices(n)
        pair_mat = rows[:, gj] * rows[:, gk]
        pair_mat[:, gj != gk] *= 2.0
        Q = (pair_mat.T @ pair_mat) / m
        cvec = (pair_mat.T @ ym) / m

        def screen(chunk):
            J, K = chunk[:, iu[0]], chunk[:, iu[1]]
            lo, hi = np.minimum(J, K), np.maximum(J, K)
            pidx = lo * n - (lo * (lo - 1)) // 2 + (hi - lo)
            G = Q[pidx[:, :, None], pidx[:, None, :]]
            return _ls_resid(G, cvec[pidx], yy, yscale)

    else:
        rows_t = np.ascontiguousarray(rows.T)

        def screen(chunk):
            As = rows_t[chunk]                         # (B, d, m)
            D = As[:, iu[0], :] * As[:, iu[1], :]      # (B, p, m)
            D[:, offdiag, :] *= 2.0
            G = (D @ D.transpose(0, 2, 1)) / m
            return _ls_resid(G, (D @ ym) / m, yy, yscale)

    return screen


def _gram_init(sol_row, d, iu):
    """Rank-1 factor sqrt(lam_1) v_1 of the packed symmetric solution."""
    X = np.zeros((d, d))
    X[iu[0], iu[1]] = sol_row
    X[iu[1], iu[0]] = sol_row
    lam, V = np.linalg.eigh(X)
    return _spectral_start(lam[-1], V[:, -1])


def _solve_support(A, y, supp, x_init, max_iter):
    As = A[:, supp]
    if x_init is None:
        Ms = (As.T @ (y[:, None] * As)) / A.shape[0]
        lam, V = np.linalg.eigh(Ms)
        lam1 = float(lam[-1])
        x_init = _spectral_start(lam1, V[:, -1])
        base_step = 0.1 / lam1 if lam1 > 0 else 1.0
    else:
        scale = float(x_init @ x_init)
        base_step = 0.1 / scale if scale > 0 else 1.0
    X, f, it1, _ = _descend(As, y, x_init, base_step, max_iter, 1e-12)
    x, fx, it2 = _newton_polish(As, y, X[0], f[0])
    return x, float(fx), int(it1[0]) + it2


def _oracle_sparse(sample, cset, config):
    n, d = cset.n, cset.d
    total = math.comb(n, d)
    if total > config.oracle_budget:
        raise BudgetExceededError(
            f"sparse oracle needs {total} support solves for n={n}, d={d}; "
            f"oracle_budget={config.oracle_budget} is too small"
        )
    A, y, N = sample.A, sample.y, sample.N
    # score coordinates by the diagonal of the spectral matrix so promising
    # supports are screened first; any support reaching objective ~ 0 is a
    # certified global minimizer (the objective is nonnegative), which lets
    # noise-free runs stop early without giving up exhaustiveness
    scores = (y[:, None] * (A * A)).mean(axis=0)
    order = np.argsort(-scores, kind="stable").astype(np.int32)
    zero_tol = 1e-16 * max(1.0, float(np.mean(y * y)))
    per_support_iter = min(config.max_iterations, 80)
    supports = order[_support_index_array(n, d)]

    iu = np.triu_indices(d)
    m = min(N, 2 * iu[0].size + 10)
    screen = _make_gram_screen(A[:m], y[:m], n, iu)
    best_f = math.inf
    best_x = np.zeros(d)
    best_row = 0
    total_iters = 0

    # pass 1: screen every support with the cheap vectorized Gram fit and
    # fully solve only the (near-)consistent ones
    residuals = np.empty(total)
    tried = set()
    block = 8192
    for start in range(0, total, block):
        chunk = supports[start:start + block]
        resid, sols = screen(chunk)
        residuals[start:start + chunk.shape[0]] = resid
        for h in np.flatnonzero(resid <= 1e-12):
            row = start + int(h)
            tried.add(row)
            x, fx, its = _solve_support(A, y, chunk[h], _gram_init(sols[h], d, iu),
                                        per_support_iter)
            total_iters += its
            if fx < best_f:
                best_f, best_x, best_row = fx, x, row
            if best_f <= zero_tol:
                break
        if best_f <= zero_tol:
            break

    # pass 2 (reached only without a certified zero, e.g. noisy data):
    # exhaustive descent over the remaining supports, most promising first
    if best_f > zero_tol:
        for row in np.argsort(residuals, kind="stable"):
            row = int(row)
            if row in tried:
                continue
            x, fx, its = _solve_support(A, y, supports[row], None, per_support_iter)
            total_iters += its
            if fx < best_f:
                best_f, best_x, best_row = fx, x, row
            if best_f <= zero_tol:
                break

    x_hat = np.zeros(n)
    x_hat[supports[best_row]] = best_x
    prod, sign, _ = error_metrics(x_hat, sample.x0)
    return TrialResult(x_hat, best_f, prod, sign, total_iters, True)


def solve_oracle(sample, cset, config, seed):
    """Ground-truth ERM at desk scale.

    sparse_cap: exhaustive minimization over all supports (within
    oracle_budget).  Other kinds: projected descent with at least 32
    restarts.
    """
    if sample.n != cset.n:
        raise ValueError(f"sample dimension {sample.n} != set dimension {cset.n}")
    if cset.kind == "sparse_cap":
        return _oracle_sparse(sample, cset, config)
    cfg = replace(config, restarts=max(config.restarts, 32))
    return solve_pgd(sample, cset, cfg, seed)
