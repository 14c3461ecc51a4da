"""Least-squares solvers for recovery from noisy quadratic measurements.

The objective is (1/N) sum_i (<a_i, x>^2 - y_i)^2, minimized over a constraint
set without reading the signal x0.  Its sign is not identifiable, so `error_metrics`
gives an error both as the product ||x-x0||*||x+x0|| and as the best-sign distance.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ensembles import substream
from .errors import BudgetExceededError, UnsupportedSetError, check_integer
from .sets import project, random_feasible

_TINY = 1e-300


def _residual(z, y):
    """z^2 - y for the predictions z = A x; row-wise on a stack."""
    r = z * z
    r -= y
    return r


def _loss(r):
    """(1/N) sum r_i^2 for the residuals r = z^2 - y; one value per row of a stack."""
    return np.einsum("...i,...i->...", r, r) / r.shape[-1]


def _loss_gradient(A, z, r):
    """(4/N) sum r_i z_i a_i: the loss gradient at x, given z = A x and r = z^2 - y; row-wise.

    A column-major left factor keeps each row's result independent of the other rows; so
    does it in `_DenseSteps.at`.
    """
    return (4.0 / A.shape[0]) * (np.asfortranarray(r * z) @ A)


def objective(sample, x):
    """(1/N) sum (<a_i,x>^2 - y_i)^2."""
    return float(_loss(_residual(sample.A @ np.asarray(x, dtype=float), sample.y)))


def gradient(sample, x):
    """Analytic gradient: (4/N) sum (<a_i,x>^2 - y_i) <a_i,x> a_i."""
    z = sample.A @ np.asarray(x, dtype=float)
    return _loss_gradient(sample.A, z, _residual(z, sample.y))


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


def _spectral_matrix(A, y):
    """(1/N) sum y_i a_i a_i^T for the rows a_i of A.

    Summed over blocks of 1024 rows, so the weighted rows never make a copy of A.
    """
    M = np.zeros((A.shape[1], A.shape[1]))
    for start in range(0, A.shape[0], 1024):
        rows = A[start:start + 1024]
        M += rows.T @ (y[start:start + 1024, None] * rows)
    return M / A.shape[0]


def _spectral_start(M):
    """The largest eigenvalue lam of the symmetric matrix M and its rank-1 factor
    sqrt(max(lam, 0)) v, zero if lam <= 0.

    Sign convention: the first non-negligible coordinate of the unit eigenvector v is
    positive.
    """
    lam, V = np.linalg.eigh(M)
    lam, v = float(lam[-1]), V[:, -1]
    if v[np.flatnonzero(np.abs(v) > 1e-12)[0]] < 0:  # v has unit norm
        v = -v
    return lam, math.sqrt(max(lam, 0.0)) * v


def spectral_init(sample):
    """sqrt(max(lambda_1, 0)) times the leading eigenvector of
    (1/N) sum y_i a_i a_i^T."""
    return _spectral_start(_spectral_matrix(sample.A, sample.y))[1]


# ---------------------------------------------------------------------------
# solvers


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 300
    restarts: int = 1
    oracle_budget: int = 200_000

    def __post_init__(self):
        for name in ("max_iterations", "restarts", "oracle_budget"):
            check_integer(name, getattr(self, name), 1)


@dataclass(frozen=True)
class TrialResult:
    x_hat: np.ndarray
    objective_value: float
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


def _sparse_steps_pay(cset, N):
    """Whether PGD on `cset` with N measurements runs `_SparseSteps`: on sparse_cap, when
    N n >= 2^13 max(16, C(d+2, 3)).

    The sparse steps save two O(N n) products per restart-step, but pay a fixed cost in
    support bookkeeping per step and a table build of about C(d+2, 3) dense gradients per
    recurring support.  The rule is fitted to wall times of 4 trials of 8 restarts at 32
    cells (n 16-256, d 1-6, N 512-16384; see CHANGES.md): it never picks the sparse steps
    where they were the slower form, and it misses at most a 25% gain near its boundary.
    """
    return cset.kind == "sparse_cap" and N * cset.n >= 2**13 * max(16, math.comb(cset.d + 2, 3))


@functools.lru_cache(maxsize=16)
def _triples(w):
    """Index triples p <= q <= r < w and the number of orderings of each (1, 3 or 6).

    Sorted by r, then q, then p, so the triples of a narrower width come first.
    """
    t = sorted(itertools.combinations_with_replacement(range(w), 3), key=lambda t: t[::-1])
    p, q, r = np.array(t, dtype=np.intp).reshape(-1, 3).T
    return p, q, r, np.array([(0.0, 1.0, 3.0, 6.0)[len(set(u))] for u in t])


class _DenseSteps:
    """The loss and gradient of a descent step by one product with A each: O(N n) per row."""

    def __init__(self, A, y):
        self.A, self.y = A, y

    def at(self, x):
        """The loss at the rows of x, and what their gradient needs: z = A x and r = z^2 - y."""
        z = np.asfortranarray(x) @ self.A.T
        r = _residual(z, self.y)
        return _loss(r), (z, r)

    def gradient(self, z, r):
        return _loss_gradient(self.A, z, r)

    def keep(self, rows):
        pass


class _SparseSteps:
    """The loss and gradient of a descent step at sparse points: O(N s) per row with s nonzeros.

    z = A x comes from each row's own columns of A, kept while the row's support stays
    the same.  With M the spectral matrix, the gradient (4/N) sum (z_i^2 - y_i) z_i a_i
    is 4 (sum_{p<=q<=r in S} x_p x_q x_r T_S[pqr] - M[:, S] x_S) on the support S, where
    T_S[pqr] = (orderings/N) sum_i a_ip a_iq a_ir a_i.  A table costs about C(s+2, 3)
    dense gradients to build, and a gradient from it O(n C(s+2, 3)).  At a support not
    met before in the call, the gradient is the dense product, O(N n); the table is built
    when the support recurs and kept for the call, so a support met once costs no build.
    """

    def __init__(self, A, y, M):
        self.A, self.y, self.M, self.tables, self.seen = A, y, M, {}, set()
        self.S = self.cols = None  # supports and columns of the rows last evaluated

    def at(self, x):
        """The loss at the rows of x, and what their gradient needs: each row's nonzero
        columns S in order, padded to one width with columns where the row is zero; its
        values xs there; and its number of nonzeros."""
        nz = x != 0
        counts = nz.sum(axis=1)
        S = np.argsort(~nz, axis=1, kind="stable")[:, :counts.max(initial=0)]
        xs = x[np.arange(len(x))[:, None], S]
        if self.S is None or self.S.shape != S.shape:
            self.cols = self.A.T[S]
        else:  # one row at a time, so no step holds a second copy of many rows' columns
            for row in np.flatnonzero((S != self.S).any(axis=1)):
                self.cols[row] = self.A.T[S[row]]
        self.S = S
        r = (xs[:, None, :] @ self.cols)[:, 0]  # z = A x, squared less y in place
        r *= r
        r -= self.y
        return _loss(r), (S, xs, counts)

    def keep(self, rows):
        # move the kept rows' columns up in place, again with no second copy
        kept = np.flatnonzero(rows)
        for to, row in enumerate(kept):
            if to != row:
                self.cols[to] = self.cols[row]
        self.S, self.cols = self.S[kept], self.cols[:kept.size]

    def _table(self, supp):
        key = supp.tobytes()
        T = self.tables.get(key)
        if T is None:
            p, q, r, orderings = _triples(supp.size)
            T = np.zeros((p.size, self.A.shape[1]))
            for start in range(0, self.A.shape[0], 1024):  # a_p a_q a_r for 1024 rows at a time
                rows = self.A[start:start + 1024]
                cols = rows[:, supp]
                P = cols[:, p] * cols[:, q]
                P *= cols[:, r]
                T += P.T @ rows
            T *= (orderings / self.A.shape[0])[:, None]
            self.tables[key] = T
        return T

    def gradient(self, S, xs, counts):
        p, q, r, _ = _triples(S.shape[1])
        T = np.zeros((len(S), p.size, self.A.shape[1]))
        supps = [row[:s] for row, s in zip(S, counts)]
        # a support not met before this call: the same for every row on it, whatever their order
        first = np.array([supp.tobytes() not in self.seen for supp in supps], dtype=bool)
        for Ti, supp, new in zip(T, supps, first):
            if not new:
                table = self._table(supp)
                Ti[:len(table)] = table
        self.seen.update(supp.tobytes() for supp in supps)
        c = xs[:, p] * xs[:, q] * xs[:, r]
        g = 4.0 * ((c[:, None, :] @ T)[:, 0] - (xs[:, None, :] @ self.M.T[S])[:, 0])
        for i in np.flatnonzero(first):  # one row at a time: no (k, N) temporaries
            z = xs[i] @ self.A.T[S[i]]
            g[i] = _loss_gradient(self.A, z, _residual(z, self.y))
        return g


# A descent has converged when an accepted step moves x by at most tol times its step size.
# PGD stops at 1e-8: its rows are judged by sign error, and success means <= 1e-6.  A support
# solve goes on to 1e-12: the oracle ranks supports by their objectives, so each should end at
# its support's minimum to near rounding (~1e-26 on noise-free data, where 1e-8 leaves ~1e-20).
_PGD_TOLERANCE = 1e-8
_SUPPORT_TOLERANCE = 1e-12


def _descend(steps, X, base_step, max_iter, tol, project=None):
    """Spectral projected gradient descent of the loss from each row of X, mapped by
    `project` (Birgin, Martinez & Raydan 2000).

    `steps` gives the loss and gradient at the rows: `_DenseSteps`, or `_SparseSteps` when
    every iterate has few nonzeros.  None means no projection.  A trial point is accepted
    on nonmonotone sufficient decrease: f_new <= max(the row's last 10 accepted objectives,
    its start included) - 1e-4 ||dx||^2 / step.  After an accepted move dx, with dg the
    change in the row's gradient, the next trial step is Barzilai & Borwein's <dx, dx> /
    <dx, dg> (1.1 times the last one when <dx, dg> <= 0), clipped to [1e-6, 1e6] times
    `base_step`; a rejected step halves.  So no accepted objective exceeds the start's.
    Each row keeps its own step size, objective window, exits and iteration count; the live
    rows share each step's products, and a row leaves them when it finishes.  Returns
    per-row (X, f, iterations, converged), f the last accepted objective.
    """
    x = np.array(X, dtype=float, ndmin=2)
    k = x.shape[0]
    X, f, iters, conv = np.empty_like(x), np.empty(k), np.empty(k, dtype=int), np.empty(k, bool)
    live, step, it = np.arange(k), np.full(k, float(base_step)), np.ones(k, dtype=int)
    fx, pt = steps.at(x)
    recent = np.repeat(fx[:, None], 10, axis=1)  # accepted objective m sits in column m % 10
    g = steps.gradient(*pt)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live.size:
            x_new = x - step[:, None] * g
            if project is not None:
                x_new = project(x_new)
            f_new, pt = steps.at(x_new)
            dx = x_new - x
            move2 = (dx * dx).sum(axis=1)
            s = np.maximum(step, _TINY)
            ok = np.isfinite(f_new) & (f_new <= recent.max(axis=1) - 1e-4 * move2 / s)
            x, fx = np.where(ok[:, None], x_new, x), np.where(ok, f_new, fx)
            # converged: an accepted step within tol, or a rejected one at the floor step
            stop = np.where(ok, np.sqrt(move2) / s <= tol, step <= 1e-16 * base_step)
            done = stop | (ok & (it == max_iter))
            if done.any():
                rows, keep = live[done], ~done
                X[rows], f[rows] = x[done], fx[done]
                iters[rows], conv[rows] = it[done], stop[done]
                if not keep.any():
                    break
                live, x, fx, step, it, ok, g, dx, move2, recent = (
                    v[keep] for v in (live, x, fx, step, it, ok, g, dx, move2, recent))
                pt = tuple(v[keep] for v in pt)
                steps.keep(keep)
            recent[ok, it[ok] % 10] = fx[ok]
            it += ok
            step[~ok] *= 0.5
            if ok.any():
                g_new = steps.gradient(*(pt if ok.all() else (v[ok] for v in pt)))
                dxdg = (dx[ok] * (g_new - g[ok])).sum(axis=1)
                bb = np.where(dxdg > 0, move2[ok] / dxdg, 1.1 * step[ok])
                step[ok] = np.clip(bb, 1e-6 * base_step, 1e6 * base_step)
                g[ok] = g_new
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
    M = _spectral_matrix(sample.A, sample.y)
    lam1, x1 = _spectral_start(M)
    base_step = 0.1 / lam1 if lam1 > 0 else 1.0

    rng = substream(seed, 0)
    starts = [project(cset, x1)]
    norm0 = float(np.linalg.norm(starts[0]))
    for _ in range(config.restarts - 1):
        z = random_feasible(cset, rng, 1)[0]
        nz = float(np.linalg.norm(z))
        if norm0 > 0 and nz > 0:
            z = project(cset, z * (norm0 / nz))
        starts.append(z)

    steps = (_SparseSteps(sample.A, sample.y, M) if _sparse_steps_pay(cset, sample.N)
             else _DenseSteps(sample.A, sample.y))
    X, f, iters, conv = _descend(steps, np.array(starts), base_step, config.max_iterations,
                                 _PGD_TOLERANCE, functools.partial(project, cset))
    # a diverged run never wins; if all diverged, argmin keeps restart 0
    best = int(np.argmin(np.where(np.isfinite(f), f, np.inf)))
    return TrialResult(X[best], float(f[best]), int(iters.sum()),
                       bool(conv[best]) and math.isfinite(f[best]))


# ---------------------------------------------------------------------------
# ground-truth oracle


@functools.lru_cache(maxsize=4)
def _support_index_array(n, d):
    """All size-d index tuples in tiers of their largest index, lexicographic within a tier."""
    table = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), d)),
                        dtype=np.int32, count=math.comb(n, d) * d).reshape(-1, d)
    return table[np.argsort(table[:, -1], kind="stable")]


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


def _oracle_candidates(supports, screen, M, d, iu):
    """(row, x_init) pairs of `supports` in the oracle's solve order, x_init the top factor
    of a d x d matrix (`_spectral_start`).

    First every support the cheap Gram screen finds (near-)consistent, block by block,
    from its unpacked Gram solution; then every other support S, lowest screen residual
    first, from M[S, S], with M the spectral matrix of the sample.  Lazy, so a caller that
    stops at a certified zero screens no further block.
    """
    residuals = np.empty(len(supports))
    block = 8192
    for start in range(0, len(supports), block):
        resid, sols = screen(supports[start:start + block])
        residuals[start:start + len(resid)] = resid
        for h in np.flatnonzero(resid <= 1e-12):
            X = np.zeros((d, d))
            X[iu], X[iu[::-1]] = sols[h], sols[h]
            yield start + int(h), _spectral_start(X)[1]
    ranked = np.argsort(residuals, kind="stable")
    for row in ranked[~(residuals[ranked] <= 1e-12)]:
        S = supports[row]
        yield int(row), _spectral_start(M[np.ix_(S, S)])[1]


def _solve_support(A, y, supp, x_init, max_iter):
    """Descent of the loss restricted to columns `supp` from x_init: (x, objective,
    iterations, converged), with base step 0.1 / ||x_init||^2 (1.0 at a zero start)."""
    scale = float(x_init @ x_init)
    X, f, iters, conv = _descend(_DenseSteps(A[:, supp], y), x_init,
                                 0.1 / scale if scale > 0 else 1.0, max_iter, _SUPPORT_TOLERANCE)
    return X[0], float(f[0]), int(iters[0]), bool(conv[0])


def solve_oracle(sample, cset, config, seed):
    """Ground-truth ERM at desk scale on sparse_cap: exhaustive minimization over all
    supports, within oracle_budget.  Other set kinds, where it could certify nothing,
    raise UnsupportedSetError.

    Each support is solved by the descent kernel alone, from its Gram or spectral start,
    for up to max_iterations steps; `converged` is the winning support's descent flag.
    `seed` is not read.
    """
    if cset.kind != "sparse_cap":
        raise UnsupportedSetError(f"the oracle solves sparse_cap only, not {cset.kind}")
    if sample.n != cset.n:
        raise ValueError(f"sample dimension {sample.n} != set dimension {cset.n}")
    n, d = cset.n, cset.d
    total = math.comb(n, d)
    if total > config.oracle_budget:
        raise BudgetExceededError(
            f"sparse oracle needs {total} support solves for n={n}, d={d}; "
            f"oracle_budget={config.oracle_budget} is too small"
        )
    A, y, N = sample.A, sample.y, sample.N
    M = _spectral_matrix(A, y)
    # score coordinates by the diagonal of the spectral matrix so promising
    # supports are screened first; any support reaching objective ~ 0 is a
    # certified global minimizer (the objective is nonnegative), which lets
    # noise-free runs stop early without giving up exhaustiveness
    order = np.argsort(-np.diag(M), kind="stable").astype(np.int32)
    zero_tol = 1e-16 * max(1.0, float(np.mean(y * y)))
    supports = order[_support_index_array(n, d)]

    iu = np.triu_indices(d)
    m = min(N, 2 * iu[0].size + 10)
    screen = _make_gram_screen(A[:m], y[:m], n, iu)
    best_f, best_x, best_row, best_conv, total_iters = math.inf, np.zeros(d), 0, False, 0
    for row, x_init in _oracle_candidates(supports, screen, M, d, iu):
        x, fx, its, conv = _solve_support(A, y, supports[row], x_init, config.max_iterations)
        total_iters += its
        if fx < best_f:
            best_f, best_x, best_row, best_conv = fx, x, row, conv
        if best_f <= zero_tol:
            break

    x_hat = np.zeros(n)
    x_hat[supports[best_row]] = best_x
    return TrialResult(x_hat, best_f, total_iters, best_conv)
