"""Constraint sets: membership, projection, support/width, fixed points, packing."""

import itertools
import math

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from phaselab import (
    ConstraintSet,
    FixedPointQuery,
    McConfig,
    UnsupportedSetError,
    ambient,
    contains,
    fixed_point,
    l1_ball,
    l2_ball,
    mean_width_closed_form,
    mean_width_mc,
    packing_count,
    project,
    random_feasible,
    sets,
    sparse_cap,
    support_function_cap,
)

ALL_KINDS = [sparse_cap(6, 2), l1_ball(6, 1.5), l2_ball(6, 2.0), ambient(6)]
CONVEX_KINDS = [c for c in ALL_KINDS if c.kind != "sparse_cap"]


# ---------------------------------------------------------------------------
# construction and membership


def test_constructor_validation():
    with pytest.raises(ValueError):
        ConstraintSet("moebius_strip", 4)
    with pytest.raises(ValueError):
        sparse_cap(4, 5)
    with pytest.raises(ValueError):
        sparse_cap(4, 0)
    with pytest.raises(ValueError):
        l1_ball(4, 0.0)
    with pytest.raises(ValueError):
        l2_ball(4, -1.0)
    with pytest.raises(ValueError):
        ambient(0)


def test_contains_hand_cases():
    assert contains(l1_ball(3, 1.0), [0.3, 0.3, 0.3], tol=0.0)
    assert not contains(l1_ball(2, 1.0), [0.8, 0.3])
    # numerically-zero coordinates do not count against the sparsity budget
    assert contains(sparse_cap(3, 1), [1.0, 1e-15, 0.0])
    assert not contains(sparse_cap(3, 1), [1.0, 0.5, 0.0])
    assert contains(l2_ball(2, 1.0), [0.6, 0.8], tol=0.0)
    assert not contains(l2_ball(2, 1.0), [0.7, 0.8])
    assert contains(ambient(2), [1e9, -1e9])


def test_contains_stack_equals_row_by_row():
    rng = np.random.default_rng(9)
    for cset in ALL_KINDS:
        X = rng.standard_normal((40, cset.n)) * rng.uniform(0.1, 2.0, size=(40, 1))
        X[::5, 1:] = 0.0
        flags = contains(cset, X)
        assert flags.shape == (40,)
        assert flags.tolist() == [contains(cset, x) for x in X]


@pytest.mark.parametrize("cset", ALL_KINDS, ids=lambda c: c.kind)
def test_contains_is_false_on_a_non_finite_row(cset):
    X = np.zeros((4, cset.n))
    X[0], X[1, 0], X[2, 1], X[3, 0] = math.nan, math.inf, -math.inf, math.nan
    assert contains(cset, X).tolist() == [False] * 4
    assert not any(contains(cset, x) for x in X)
    assert contains(cset, np.zeros(cset.n))


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        contains(l1_ball(3, 1.0), [1.0, 0.0])


# ---------------------------------------------------------------------------
# projections


def test_project_hand_cases():
    np.testing.assert_allclose(project(l1_ball(2, 1.0), [0.2, -0.1]), [0.2, -0.1])
    np.testing.assert_allclose(project(l1_ball(2, 1.0), [1.0, 1.0]), [0.5, 0.5])
    np.testing.assert_allclose(project(sparse_cap(2, 1), [3.0, -4.0]), [0.0, -4.0])
    np.testing.assert_allclose(project(l2_ball(2, 1.0), [3.0, 4.0]), [0.6, 0.8])
    np.testing.assert_allclose(project(ambient(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_project_keeps_interior_points_fixed():
    rng = np.random.default_rng(7)
    for cset in ALL_KINDS:
        Z = random_feasible(cset, rng, 40)
        for z in Z:
            np.testing.assert_allclose(project(cset, z), z, atol=1e-12)


@pytest.mark.parametrize("cset", ALL_KINDS, ids=lambda c: c.kind)
def test_project_idempotent_and_feasible(cset):
    rng = np.random.default_rng(11)
    X = rng.standard_normal((200, cset.n)) * 3.0
    for x in X:
        p = project(cset, x)
        assert contains(cset, p, tol=1e-8)
        np.testing.assert_allclose(project(cset, p), p, atol=1e-10)


@pytest.mark.parametrize("cset", ALL_KINDS, ids=lambda c: c.kind)
def test_project_stack_equals_row_by_row(cset):
    rng = np.random.default_rng(13)
    X = rng.standard_normal((30, cset.n)) * 3.0
    X[:10] /= 30.0  # some rows already feasible
    P = project(cset, X)
    assert P.shape == X.shape
    np.testing.assert_array_equal(P, np.array([project(cset, x) for x in X]))
    assert project(cset, X[:0]).shape == (0, cset.n)


@pytest.mark.parametrize("shape", [(), (5,), (7,), (3, 5), (2, 3, 6), (6, 1)])
def test_project_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match="expected a vector of length 6"):
        project(l2_ball(6, 1.0), np.zeros(shape))


@pytest.mark.parametrize("cset", CONVEX_KINDS, ids=lambda c: c.kind)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(x=hnp.arrays(float, 6, elements=st.floats(-10, 10)),
       y=hnp.arrays(float, 6, elements=st.floats(-10, 10)))
def test_project_is_non_expansive(cset, x, y):
    # projection onto a closed convex set is 1-Lipschitz
    gap = np.linalg.norm(project(cset, x) - project(cset, y))
    assert gap <= np.linalg.norm(x - y) * (1.0 + 1e-12) + 1e-12


def _topd_reference(X, d):
    # the stable-argsort projection onto sparse_cap that the threshold replaced
    order = np.argsort(-np.abs(X), axis=1, kind="stable")[:, :d]
    Y = np.zeros_like(X)
    np.put_along_axis(Y, order, np.take_along_axis(X, order, axis=1), axis=1)
    return Y


@st.composite
def _rows_with_specials(draw):
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((6, n))
    X[1] = rng.integers(-2, 3, n)       # integer-valued: ties, zeros of both signs
    X[1][X[1] == 0.0] = rng.choice([0.0, -0.0], int(np.sum(X[1] == 0.0)))
    X[2] = -0.0
    specials = rng.uniform(size=(3, n)) < 0.3
    X[3:][specials] = rng.choice([np.inf, -np.inf, np.nan, -0.0, 1.0], int(specials.sum()))
    return X


@settings(max_examples=300, deadline=None, derandomize=True)
@given(X=_rows_with_specials())
def test_project_sparse_equals_the_argsort_reference(X):
    # bit for bit, at every d: the same entries kept, signed zeros and NaN included
    for d in range(1, X.shape[1] + 1):
        got = project(sparse_cap(X.shape[1], d), X)
        assert got.view(np.uint64).tolist() == _topd_reference(X, d).view(np.uint64).tolist()


def test_project_is_nearest_feasible_point():
    """project(x) beats 10^3 random feasible points for 10^4 random pairs."""
    rng = np.random.default_rng(23)
    kinds = [sparse_cap(5, 2), l1_ball(5, 1.0), l2_ball(5, 1.5), ambient(5)]
    for cset in kinds:
        for _ in range(25):
            X = rng.standard_normal((100, cset.n)) * 2.0
            P = np.array([project(cset, x) for x in X])
            Z = random_feasible(cset, rng, 1000)
            d_proj = np.linalg.norm(X - P, axis=1)
            cross = np.linalg.norm(X[:, None, :] - Z[None, :, :], axis=2)
            assert np.all(d_proj[:, None] <= cross + 1e-9)


def test_project_l1_soft_threshold_structure():
    # the l1 projection shrinks every coordinate by one common threshold
    rng = np.random.default_rng(3)
    cset = l1_ball(8, 1.0)
    for _ in range(50):
        x = rng.standard_normal(8) * 2.0
        p = project(cset, x)
        if np.abs(x).sum() <= 1.0:
            continue
        assert abs(np.abs(p).sum() - 1.0) <= 1e-9
        theta = np.abs(x) - np.abs(p)
        active = np.abs(p) > 1e-12
        assert np.all(np.sign(p[active]) == np.sign(x[active]))
        if active.any():
            t = theta[active]
            assert t.max() - t.min() <= 1e-9
            assert np.all(theta[~active] <= t.mean() + 1e-9)


# ---------------------------------------------------------------------------
# moving points onto the shell


def _project_l1_reference(X, radius):
    """Row-wise l1(radius) projection written out on its own: sort the
    magnitudes, take the soft threshold from their prefix sums, shrink."""
    X = np.array(X, dtype=float)
    absX = np.abs(X)
    over = absX.sum(axis=1) > radius
    U = -np.sort(-absX[over], axis=1)
    css = np.cumsum(U, axis=1) - radius
    k = (U > css / np.arange(1, X.shape[1] + 1)).sum(axis=1)
    theta = css[np.arange(k.size), k - 1] / k
    X[over] = np.sign(X[over]) * np.maximum(absX[over] - theta[:, None], 0.0)
    return X


@st.composite
def _shell_inputs(draw, kinds=sets.SET_KINDS):
    n = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(kinds))
    radius = draw(st.floats(0.1, 4.0))
    cset = {"sparse_cap": sparse_cap(n, draw(st.integers(1, n))), "l1_ball": l1_ball(n, radius),
            "l2_ball": l2_ball(n, radius), "ambient": ambient(n)}[kind]
    # up to 1.5 radii: a shell beyond a ball's radius is out of its reach
    R0 = radius * draw(st.floats(0.01, 1.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((8, n)) * rng.uniform(0.0, 3.0, size=(8, 1))
    X[0] = 0.0                          # a zero row
    X[1] = draw(st.floats(-3.0, 3.0))   # an all-equal row
    X[2] = 0.0
    X[2, 0] = R0                        # on the shell, 1-sparse
    X[3] *= R0 / max(np.linalg.norm(X[3]), 1e-300)   # on the shell of the ambient space
    X[4, : n // 2] = 0.0                # zero entries among moving ones
    return cset, X, R0


def _wide_l1_case():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((300, 200)) * rng.uniform(0.0, 3.0, size=(300, 1))
    return l1_ball(200, 2.0), X, 0.5


def _expected_shell_norms(cset, X, R0):
    """||toward_shell(x)|| per row: R0 where the set reaches the shell, the set's
    largest norm beyond it, 0 on zero rows, and rho/sqrt(j) on an l1 row whose
    largest magnitude ties j > (rho/R0)^2 times (every cap maximiser spreads
    over the ties then)."""
    top = np.abs(X).max(axis=1)
    norms = np.where(top > 0.0, min(R0, sets._max_norm(cset)), 0.0)
    if cset.kind == "l1_ball" and R0 < cset.radius:
        ties = (np.abs(X) == top[:, None]).sum(axis=1)
        spread = (top > 0.0) & (ties > (cset.radius / R0) ** 2)
        norms[spread] = cset.radius / np.sqrt(ties[spread])
    return norms


@settings(max_examples=200, deadline=None, derandomize=True)
@given(inputs=_shell_inputs())
@example(inputs=_wide_l1_case())
def test_toward_shell_lands_on_the_shell_inside_the_set(inputs):
    cset, X, R0 = inputs
    Y = sets.toward_shell(cset, X, R0)
    assert contains(cset, Y, tol=1e-9).all()
    np.testing.assert_allclose(np.linalg.norm(Y, axis=1), _expected_shell_norms(cset, X, R0),
                               rtol=1e-12, atol=0.0)
    # signs kept: every entry is zero or has its input's sign
    assert np.all((Y == 0.0) | (np.sign(Y) == np.sign(X)))
    # a second application moves nothing
    np.testing.assert_allclose(sets.toward_shell(cset, Y, R0), Y, rtol=0.0, atol=1e-12 * R0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(inputs=_shell_inputs())
@example(inputs=_wide_l1_case())
def test_toward_shell_attains_the_cap_support(inputs):
    # <u, T(u)> is the support function of the R0-cap at u: T(u) is its maximiser
    cset, X, R0 = inputs
    Y = sets.toward_shell(cset, X, R0)
    inner = np.einsum("ij,ij->i", X, Y)
    support = np.array([support_function_cap(cset, R0, x) for x in X])
    np.testing.assert_allclose(inner, support, rtol=1e-12, atol=0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(inputs=_shell_inputs(kinds=("l1_ball",)),
       fractions=st.lists(st.floats(0.01, 1.5), min_size=2, max_size=4))
def test_toward_shell_l1_support_shrinks_as_R0_grows(inputs, fractions):
    # ||x||_1/||x||_2 <= radius/R0 on the shell: a larger R0 keeps fewer entries
    cset, X, _ = inputs
    supports = [sets.toward_shell(cset, X, cset.radius * f) != 0.0 for f in sorted(fractions)]
    for wide, narrow in zip(supports, supports[1:]):
        assert np.all(wide | ~narrow)


def test_toward_shell_ambient_rows_are_one_rescale():
    # rounds of rescaling these rows to norm 7 end, after 120 rounds, in 3-cycles
    # on 20 rows and with no period up to 6 on 24 more; the map is one rescale
    X = np.random.default_rng(0).standard_normal((2000, 3))
    np.testing.assert_array_equal(sets.toward_shell(ambient(3), X, 7.0),
                                  X * (7.0 / np.linalg.norm(X, axis=1, keepdims=True)))


def test_crit9_packing_query_stops_at_the_first_probe(monkeypatch):
    # criterion 9's qN query at seed 33: at R0 = radius the map sends every
    # centre and candidate to a vertex, so each of the 4 centres counts 1 at the
    # first probe and at 2^-40 of it, and the bisection ends there
    counts = []
    count = sets._greedy_count

    def counting(*args):
        counts.append(count(*args))
        return counts[-1]

    monkeypatch.setattr(sets, "_greedy_count", counting)
    q = FixedPointQuery("qN", 1.0, 4096, shell_R0=1.0, backend="monte_carlo")
    mc = McConfig(draws=512, seed=33, candidates=2048, centers=4)
    assert fixed_point(l1_ball(64, 1.0), q, mc) == 0.0
    assert counts == [1] * 8


@st.composite
def _l1_stacks(draw):
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((8, n)) * rng.uniform(0.0, 3.0, size=(8, 1))
    X[0] = 0.0                          # a zero row
    X[1] = draw(st.floats(-3.0, 3.0))   # a tied row
    X[2] = -0.0                         # a negative-zero row
    X[3, : n // 2] = 0.0                # zero entries among moving ones
    return l1_ball(n, draw(st.floats(0.05, 4.0))), X


def _negative_threshold_projection():
    # 42 rounds of rescaling to 0.5 and projecting, then one more rescale, bring
    # row 276 to a projection input whose pairwise row sum is over the radius
    # while its sequential prefix sums are not, so theta < 0; a threshold applied
    # to its zero entries would turn 161 of them into 1.1e-18
    cset, X, R0 = _wide_l1_case()
    for _ in range(42):
        X = _project_l1_reference(X * (R0 / np.linalg.norm(X, axis=1, keepdims=True)), cset.radius)
    X = X[276:277]
    return cset, X * (R0 / np.linalg.norm(X, axis=1, keepdims=True))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(inputs=_l1_stacks())
@example(inputs=_negative_threshold_projection())
def test_project_l1_equals_the_reference(inputs):
    cset, X = inputs
    assert np.array_equal(project(cset, X), _project_l1_reference(X, cset.radius))


# ---------------------------------------------------------------------------
# support functions of localized caps


def test_support_hand_cases():
    # top-2 energy of (3, 1, -2, 0) is 9 + 4
    val = support_function_cap(sparse_cap(4, 2), 1.0, [3.0, 1.0, -2.0, 0.0])
    assert abs(val - math.sqrt(13.0)) <= 1e-12
    # small radius: the l2 constraint binds
    val = support_function_cap(l1_ball(2, 1.0), 0.5, [2.0, 1.0])
    assert abs(val - 0.5 * math.sqrt(5.0)) <= 1e-12
    # huge radius: the l1 ball binds, sup = radius * max|g_i|
    val = support_function_cap(l1_ball(2, 1.0), 10.0, [2.0, 1.0])
    assert abs(val - 2.0) <= 1e-12
    # a tied row whose squares underflow still gives radius * max|g_i|
    assert support_function_cap(l1_ball(3, 1.0), 1.0, [1e-200] * 3) == 1e-200
    # l2 ball cap is min(r, radius) * ||g||
    val = support_function_cap(l2_ball(3, 2.0), 5.0, [1.0, 2.0, 2.0])
    assert abs(val - 6.0) <= 1e-12
    val = support_function_cap(ambient(2), 0.25, [3.0, 4.0])
    assert abs(val - 1.25) <= 1e-12


def test_support_leaves_its_input_alone():
    # the l1 sorted form is built in the draws' place; a caller's vector is copied
    g = np.array([3.0, -1.0, 2.0])
    support_function_cap(l1_ball(3, 1.0), 0.5, g)
    np.testing.assert_array_equal(g, [3.0, -1.0, 2.0])


def test_support_positive_homogeneity_in_g():
    rng = np.random.default_rng(5)
    for cset in ALL_KINDS:
        for _ in range(20):
            g = rng.standard_normal(cset.n)
            lam = float(rng.uniform(0.1, 10.0))
            a = support_function_cap(cset, 0.7, lam * g)
            b = lam * support_function_cap(cset, 0.7, g)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_support_sparse_matches_exhaustive_supports():
    rng = np.random.default_rng(17)
    cset = sparse_cap(6, 3)
    for _ in range(30):
        g = rng.standard_normal(6)
        r = float(rng.uniform(0.2, 3.0))
        best = max(
            math.sqrt(sum(g[j] ** 2 for j in supp))
            for supp in itertools.combinations(range(6), 3)
        )
        val = support_function_cap(cset, r, g)
        assert abs(val - r * best) <= 1e-10


def _l1_cap_support_sandwich(radius, r, g):
    """Two-sided oracle: dual grid upper bound and a feasible primal value.

    sup{<g,t> : ||t||_1 <= radius, ||t||_2 <= r} equals
    min over lam >= 0 of r*||soft(g, lam)||_2 + lam*radius (strong duality).
    Primal candidates are soft-thresholded directions rescaled to satisfy
    both constraints exactly, which includes every KKT point.
    """
    g = np.asarray(g, dtype=float)
    lam_hi = float(np.abs(g).max())
    if lam_hi == 0.0:
        return 0.0, 0.0

    def primal_best(lam):
        soft = np.maximum(np.abs(g)[None, :] - lam[:, None], 0.0)
        n2 = np.sqrt((soft**2).sum(axis=1))
        n1 = soft.sum(axis=1)
        ok = n2 > 0.0
        scale = np.minimum(r, radius * n2[ok] / n1[ok]) / n2[ok]
        vals = scale * (soft[ok] @ np.abs(g))
        return float(vals.max(initial=0.0))

    lo, hi = 0.0, lam_hi
    upper, lower = math.inf, 0.0
    for _ in range(6):
        lam = np.linspace(lo, hi, 4000)
        soft = np.maximum(np.abs(g)[None, :] - lam[:, None], 0.0)
        dual = r * np.sqrt((soft**2).sum(axis=1)) + lam * radius
        j = int(np.argmin(dual))
        upper = min(upper, float(dual[j]))
        lower = max(lower, primal_best(lam))
        w = (hi - lo) / 3999.0
        lo, hi = max(0.0, lam[j] - 2 * w), min(lam_hi, lam[j] + 2 * w)
    lower = max(lower, primal_best(np.linspace(0.0, lam_hi * (1 - 1e-12), 2000)))
    return lower, upper


@pytest.mark.parametrize("n", [2, 3, 5, 12])
def test_support_l1_duality_sandwich(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(25):
        g = rng.standard_normal(n)
        radius = float(rng.uniform(0.3, 2.0))
        r = float(rng.uniform(0.05, 2.0) * radius)
        lower, upper = _l1_cap_support_sandwich(radius, r, g)
        val = support_function_cap(l1_ball(n, radius), r, g)
        assert upper - lower <= 1e-6 * max(1.0, upper)
        assert lower - 1e-9 <= val <= upper + 1e-9


def test_support_l1_fine_grid_2d():
    """Brute-force maximum over the cap boundary in the plane."""
    rng = np.random.default_rng(29)
    theta = np.linspace(0.0, 2.0 * math.pi, 200_001)
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    u = np.linspace(-1.0, 1.0, 200_001)
    diamond = np.column_stack([u, 1.0 - np.abs(u)])
    diamond = np.vstack([diamond, np.column_stack([u, np.abs(u) - 1.0])])
    for _ in range(10):
        radius = float(rng.uniform(0.5, 1.5))
        r = float(rng.uniform(0.3, 1.5) * radius)
        g = rng.standard_normal(2)
        pts = np.vstack([r * circle, radius * diamond])
        keep = (np.abs(pts).sum(axis=1) <= radius + 1e-12) & (
            np.linalg.norm(pts, axis=1) <= r + 1e-12
        )
        brute = float((pts[keep] @ g).max())
        val = support_function_cap(l1_ball(2, radius), r, g)
        assert val >= brute - 1e-9
        assert val <= brute + 1e-4


def _l1_cap_support_dense(radius, r, G):
    """Reference: F(lam) = lam*radius + r*||(|g| - lam)_+||_2 at every
    breakpoint and every in-piece stationary point, then the minimum.

    An O(m*n) scan over all pieces, where the library bisects to one piece
    per row.  Stationary values get the library's floor ||u||_2 >=
    ||u||_1 / sqrt(k), which the prefix-sum formula misses on tied entries.
    """
    B = -np.sort(-np.abs(np.atleast_2d(G)), axis=1)
    S1, S2 = np.cumsum(B, axis=1), np.cumsum(B * B, axis=1)
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
    lam = np.where(ok, lam, 0.0)
    h = np.maximum(S2 - 2.0 * lam * S1 + k * lam * lam, 0.0)
    norm2 = np.maximum(np.sqrt(h), (S1 - k * lam) / np.sqrt(k))
    vals = np.where(ok, lam * radius + r * norm2, np.inf)
    return np.minimum(best, vals.min(axis=1))


@st.composite
def _rows_with_ties(draw):
    n = draw(st.integers(1, 64))
    G = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((6, n))
    G[1] = np.round(G[1], 1)            # ties among the breakpoints
    G[2] = 0.0                          # a zero row
    # an all-equal row; at levels whose squares underflow the dense
    # reference reads 0 (test_support_hand_cases covers those)
    G[3] = draw(st.floats(1e-3, 3.0))
    G[4, : (n + 1) // 2] = G[4, 0]      # a tied top
    return G


@settings(max_examples=300, deadline=None, derandomize=True)
@given(G=_rows_with_ties(), radius=st.floats(0.3, 3.0),
       log_ratio=st.floats(math.log(1e-4), math.log(10.0)))
def test_support_l1_equals_dense_scan_and_feasible_maximum(G, radius, log_ratio):
    # the cap support function is a maximum over feasible points: the dense
    # dual scan equals it, and for small n a primal/dual sandwich brackets it
    r = radius * math.exp(log_ratio)
    vals = sets._cap_support(l1_ball(G.shape[1], radius), G.copy())(r)
    np.testing.assert_allclose(vals, _l1_cap_support_dense(radius, r, G), rtol=1e-12, atol=0.0)
    if G.shape[1] <= 12:
        for g, val in zip(G, vals):
            lower, upper = _l1_cap_support_sandwich(radius, r, g)
            assert lower - 1e-9 <= val <= upper + 1e-9


def test_support_validation():
    with pytest.raises(ValueError):
        support_function_cap(l1_ball(3, 1.0), 0.0, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        support_function_cap(l1_ball(3, 1.0), 1.0, [1.0, 0.0])


# ---------------------------------------------------------------------------
# random feasible points


@pytest.mark.parametrize("cset", ALL_KINDS, ids=lambda c: c.kind)
def test_random_feasible_lands_in_set(cset):
    X = random_feasible(cset, np.random.default_rng(31), 500)
    assert X.shape == (500, cset.n)
    for x in X:
        assert contains(cset, x, tol=1e-9)
    if cset.kind == "sparse_cap":
        assert np.all((np.abs(X) > 0).sum(axis=1) <= cset.d)


def test_random_feasible_deterministic():
    a = random_feasible(l1_ball(5, 1.0), np.random.default_rng(42), 8)
    b = random_feasible(l1_ball(5, 1.0), np.random.default_rng(42), 8)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# mean widths


def test_width_singleton_is_half_normal_mean():
    est = mean_width_mc(sparse_cap(1, 1), 1.0, 10_000, seed=0)
    assert est.draws == 10_000
    assert est.std_error > 0.0
    assert abs(est.value - math.sqrt(2.0 / math.pi)) <= 4.0 * est.std_error


@pytest.mark.parametrize("n", [2, 8])
def test_width_full_ball_matches_chi_mean(n):
    chi_mean = math.sqrt(2.0) * math.gamma((n + 1) / 2.0) / math.gamma(n / 2.0)
    est = mean_width_mc(ambient(n), 1.0, 20_000, seed=1)
    assert abs(est.value - chi_mean) <= 4.0 * est.std_error


def test_width_l2_ball_saturates_at_radius():
    n = 5
    chi_mean = math.sqrt(2.0) * math.gamma(3.0) / math.gamma(2.5)
    est = mean_width_mc(l2_ball(n, 2.0), 5.0, 20_000, seed=2)
    assert abs(est.value - 2.0 * chi_mean) <= 4.0 * est.std_error


def test_width_mc_deterministic_and_monotone_in_r():
    cset = l1_ball(16, 1.0)
    a = mean_width_mc(cset, 0.3, 4096, seed=9)
    b = mean_width_mc(cset, 0.3, 4096, seed=9)
    assert a == b
    radii = [0.05, 0.1, 0.3, 1.0, 3.0]
    vals = [mean_width_mc(cset, r, 4096, seed=9).value for r in radii]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
    # width(r)/r never increases
    ratios = [v / r for v, r in zip(vals, radii)]
    assert all(x >= y - 1e-12 for x, y in zip(ratios, ratios[1:]))


def test_width_mc_validation():
    with pytest.raises(ValueError):
        mean_width_mc(l1_ball(4, 1.0), -1.0, 100, seed=0)
    with pytest.raises(ValueError):
        mean_width_mc(l1_ball(4, 1.0), 1.0, 1, seed=0)


@pytest.mark.parametrize("args, message", [
    ((1.0, 100.5, 0), "gaussian_draws: expected an integer, got 100.5"),
    ((1.0, 1, 0), "gaussian_draws must be >= 2, got 1"),
    ((1.0, 100, -1), "seed must be >= 0, got -1"),
    ((1.0, 100, 0.5), "seed: expected an integer, got 0.5"),
], ids=["draws-float", "draws-one", "seed-negative", "seed-float"])
def test_width_mc_refuses_bad_integers(args, message):
    with pytest.raises(ValueError, match=message):
        mean_width_mc(l2_ball(3), *args)


@pytest.mark.parametrize("field", ["draws", "candidates", "centers"])
@pytest.mark.parametrize("value", [0, -5])
def test_mc_config_rejects_empty_budgets(field, value):
    with pytest.raises(ValueError, match=f"McConfig.{field} must be >= 1"):
        McConfig(**{field: value})


@pytest.mark.parametrize("field", ["draws", "seed", "candidates", "centers"])
@pytest.mark.parametrize("value", [2.5, 2.0, True])
def test_mc_config_rejects_non_integers(field, value):
    with pytest.raises(ValueError, match=f"McConfig.{field}: expected an integer, got {value!r}"):
        McConfig(**{field: value})


def test_mc_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="McConfig.seed must be >= 0, got -1"):
        McConfig(seed=-1)
    assert McConfig(seed=0).seed == 0


def test_width_closed_form_hand_cases():
    # small radius: the cap is the whole r-ball, width r*sqrt(n)
    assert abs(mean_width_closed_form(l1_ball(100, 1.0), 0.05) - 0.5) <= 1e-12
    # full ball: sqrt(log(e*n))
    val = mean_width_closed_form(l1_ball(100, 1.0), 1.0)
    assert abs(val - math.sqrt(1.0 + math.log(100.0))) <= 1e-12
    val = mean_width_closed_form(sparse_cap(1024, 16), 1.0)
    assert abs(val - math.sqrt(16.0 * math.log(math.e * 64.0))) <= 1e-12
    assert abs(val - 9.0853) <= 1e-3
    val = mean_width_closed_form(sparse_cap(64, 4), 1.0)
    assert abs(val - math.sqrt(4.0 * math.log(16.0 * math.e))) <= 1e-12


def test_width_closed_form_branches_join_continuously():
    n, rho = 100, 1.0
    r_star = rho / math.sqrt(n)
    below = mean_width_closed_form(l1_ball(n, rho), r_star * (1 - 1e-9))
    above = mean_width_closed_form(l1_ball(n, rho), r_star * (1 + 1e-9))
    assert abs(below - above) <= 1e-6
    assert abs(below - rho) <= 1e-6


def test_width_closed_form_radius_rescaling():
    for r in [0.01, 0.2, 1.0, 7.0]:
        a = mean_width_closed_form(l1_ball(50, 3.0), r)
        b = 3.0 * mean_width_closed_form(l1_ball(50, 1.0), r / 3.0)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_width_closed_form_unsupported_kinds():
    with pytest.raises(UnsupportedSetError):
        mean_width_closed_form(l2_ball(4, 1.0), 1.0)
    with pytest.raises(UnsupportedSetError):
        mean_width_closed_form(ambient(4), 1.0)
    with pytest.raises(ValueError):
        mean_width_closed_form(l1_ball(4, 1.0), 0.0)


@pytest.mark.parametrize(
    "cset,r",
    [
        (l1_ball(64, 1.0), 0.05),
        (l1_ball(64, 1.0), 1.0),
        (sparse_cap(64, 4), 1.0),
        (sparse_cap(64, 4), 0.1),
    ],
)
def test_width_mc_and_closed_form_agree_up_to_constants(cset, r):
    closed = mean_width_closed_form(cset, r)
    mc = mean_width_mc(cset, r, 3000, seed=13).value
    assert 0.25 <= mc / closed <= 4.0


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_point_l1_log_branch_value():
    q = FixedPointQuery(functional="rN", level=1.0, N=100)
    r = fixed_point(l1_ball(100_000, 1.0), q)
    assert abs(r - math.sqrt(math.log(1000.0) / 100.0)) <= 1e-12
    assert abs(r - 0.26282608848784655) <= 1e-12


def test_fixed_point_l1_rn_vanishes_for_large_samples():
    q = FixedPointQuery(functional="rN", level=1.0, N=100)
    assert fixed_point(l1_ball(16, 1.0), q) == 0.0


def test_fixed_point_l1_sn_small_dimension_branch():
    q = FixedPointQuery(functional="sN", level=1.0, N=10_000)
    r = fixed_point(l1_ball(4, 1.0), q)
    assert abs(r - 0.02) <= 1e-12  # sqrt(n / (level^2 N))


def test_fixed_point_l1_vn_small_dimension_branch():
    q = FixedPointQuery(functional="vN", level=1.0, N=1_000_000)
    r = fixed_point(l1_ball(2, 1.0), q)
    assert abs(r - (2.0 / 1e6) ** 0.25) <= 1e-12


def test_fixed_point_sparse_r0_threshold():
    # r0 on a d-sparse cone looks at the 2d-sparse width at radius 1
    cset = sparse_cap(64, 4)
    w1 = mean_width_closed_form(sparse_cap(64, 8), 1.0)
    n_boundary = int(math.ceil(w1 * w1))
    q_ok = FixedPointQuery(functional="r0", level=1.0, N=n_boundary)
    q_bad = FixedPointQuery(functional="r0", level=1.0, N=n_boundary - 1)
    assert fixed_point(cset, q_ok) == 0.0
    assert fixed_point(cset, q_bad) == math.inf


def test_fixed_point_sparse_r2_formula():
    cset = sparse_cap(64, 4)
    q = FixedPointQuery(functional="r2", level=2.0, N=100)
    w1 = mean_width_closed_form(sparse_cap(64, 8), 1.0)
    assert abs(fixed_point(cset, q) - w1 / 20.0) <= 1e-12


def test_fixed_point_cone_vn_is_sqrt_of_sn():
    cset = sparse_cap(32, 3)
    s = fixed_point(cset, FixedPointQuery(functional="sN", level=1.5, N=200))
    v = fixed_point(cset, FixedPointQuery(functional="vN", level=1.5, N=200))
    assert abs(v - math.sqrt(s)) <= 1e-12


def test_fixed_point_ambient_rn_zero_or_inf():
    q = FixedPointQuery(functional="rN", level=1.0, N=100, backend="monte_carlo")
    mc = McConfig(draws=2048, seed=3)
    assert fixed_point(ambient(4), q, mc) == 0.0  # E||g||_4 < 10
    q_tight = FixedPointQuery(functional="rN", level=0.05, N=1, backend="monte_carlo")
    assert fixed_point(ambient(400), q_tight, mc) == math.inf


def test_fixed_point_mc_satisfies_defining_inequality():
    """r* is the smallest radius with width(r) <= level * r^p * sqrt(N)."""
    cset = l1_ball(32, 1.0)
    mc = McConfig(draws=2048, seed=5)
    q = FixedPointQuery(functional="sN", level=1.5, N=64, backend="monte_carlo")
    r_star = fixed_point(cset, q, mc)
    assert 0.0 < r_star < math.inf

    def phi(r):
        return mean_width_mc(cset, r, mc.draws, mc.seed).value

    bound = lambda r: q.level * r**2 * math.sqrt(q.N)
    assert phi(r_star) <= bound(r_star) * (1.0 + 1e-9)
    assert phi(0.9 * r_star) > bound(0.9 * r_star)


@pytest.mark.parametrize("n, functional, level, N, expected", [
    (2048, "rN", 1.0, 128, 0.2724217815063743),
    (1024, "sN", 0.5, 1024, 0.44254404984365797),
    (256, "r0", 0.2, 64, 14.27827688513346),
    (256, "r2", 1.0, 512, 0.44421648755395604),
])
def test_fixed_point_l1_mc_values_pinned(n, functional, level, N, expected):
    # rN/sN recorded at commit ca2ac62, before the l1 cap support function
    # moved from a dense breakpoint scan to a per-row bisection; r0/r2 at
    # a2abe5c, before every fixed point shared one bisection driver
    q = FixedPointQuery(functional=functional, level=level, N=N, backend="monte_carlo")
    r_star = fixed_point(l1_ball(n, 1.0), q, McConfig(draws=256, seed=3))
    assert abs(r_star - expected) <= 1e-12 * expected


_PACKING_MC = McConfig(draws=256, seed=3, candidates=256, centers=2)


@pytest.mark.parametrize("cset, query, mc, expected, rtol", [
    (l1_ball(256, 1.0), FixedPointQuery("r0", 0.2, 64), McConfig(draws=256, seed=3),
     10.226839756999313, 1e-12),
    (l1_ball(256, 1.0), FixedPointQuery("r2", 1.0, 512), McConfig(draws=256, seed=3),
     0.401768109197826, 1e-12),
    # the Monte Carlo l2 width is now mean(r * |g|), not r * mean(|g|): rounding only
    (l2_ball(16, 1.0), FixedPointQuery("sN", 0.5, 256, backend="monte_carlo"),
     McConfig(draws=256, seed=3), 0.4934182309237898, 1e-15),
    (l2_ball(4, 1.0), FixedPointQuery("qN", 1.0, 256, shell_R0=0.9, backend="monte_carlo"),
     _PACKING_MC, 0.10905349958784964, 1e-12),
    (l2_ball(4, 1.0), FixedPointQuery("tN", 1.0, 256, shell_R0=0.9, backend="monte_carlo"),
     _PACKING_MC, 0.32890142734965877, 1e-12),
    (l1_ball(64, 1.0), FixedPointQuery("qN", 1.0, 256, shell_R0=0.3, backend="monte_carlo"),
     _PACKING_MC, 0.1464830067381504, 0.0),
    (l1_ball(64, 1.0), FixedPointQuery("qN", 1.0, 256, shell_R0=0.5, backend="monte_carlo"),
     _PACKING_MC, 0.11635304409559481, 0.0),
    (l1_ball(64, 1.0), FixedPointQuery("tN", 1.0, 256, shell_R0=0.3, backend="monte_carlo"),
     _PACKING_MC, 0.35214875334355183, 0.0),
    (l1_ball(64, 1.0), FixedPointQuery("tN", 1.0, 256, shell_R0=0.5, backend="monte_carlo"),
     _PACKING_MC, 0.337771436331225, 0.0),
], ids=["l1-r0-closed", "l1-r2-closed", "l2-sN-mc", "l2-qN", "l2-tN",
        "l1-qN-0.3", "l1-qN-0.5", "l1-tN-0.3", "l1-tN-0.5"])
def test_fixed_point_bisection_values_pinned(cset, query, mc, expected, rtol):
    # recorded at commit a2abe5c, before widths and packings shared one
    # bisection driver; the l1 qN/tN values at c1995d1, before toward_shell
    # stopped sorting every round and let settled rows leave.  l1-tN-0.3 was
    # 0.3521487533295299 while toward_shell ran 50 rounds of rescale-and-project,
    # which left one centre at norm 0.2999999988; 5,000 rounds give the exact
    # map's value, pinned here, bit for bit
    assert abs(fixed_point(cset, query, mc) - expected) <= rtol * expected


def test_packing_query_draws_each_centres_candidates_once(monkeypatch):
    # l1-tN-0.3 above probes 56 radii; each centre's candidates are drawn once
    # for the query and placed again at every probe
    draws, separations = [], []
    draw, count = sets._candidate_draws, sets._greedy_count

    def counting_draw(*args):
        draws.append(args)
        return draw(*args)

    def counting_count(*args):
        separations.append(args[3])
        return count(*args)

    monkeypatch.setattr(sets, "_candidate_draws", counting_draw)
    monkeypatch.setattr(sets, "_greedy_count", counting_count)
    q = FixedPointQuery("tN", 1.0, 256, shell_R0=0.3, backend="monte_carlo")
    assert fixed_point(l1_ball(64, 1.0), q, _PACKING_MC) == 0.35214875334355183
    assert len(draws) == _PACKING_MC.centers
    assert len(separations) == 56 * _PACKING_MC.centers


def test_fixed_point_warns_when_phi_ratio_jumps(monkeypatch):
    # a packing count that jumps as r grows makes Phi(r)/r^2 increase; the
    # driver looks _greedy_count up at call time, so the fake is what it probes
    def jumpy_count(cset, center, ball_radius, separation, *rest):
        return 2 if separation < 0.5 else 10**6

    monkeypatch.setattr(sets, "_greedy_count", jumpy_count)
    q = FixedPointQuery("qN", 1.0, 256, shell_R0=0.9, backend="monte_carlo")
    with pytest.warns(UserWarning, match="non-monotone"):
        fixed_point(l2_ball(4, 1.0), q, _PACKING_MC)


def test_fixed_point_r2_bisect_defining_inequality():
    cset = l2_ball(8, 1.0)
    mc = McConfig(draws=2048, seed=7)
    q = FixedPointQuery(functional="r2", level=3.0, N=500, backend="monte_carlo")
    r_star = fixed_point(cset, q, mc)
    assert 0.0 < r_star < math.inf
    doubled = l2_ball(8, 2.0)

    def phi(r):
        w = lambda s: mean_width_mc(doubled, s, mc.draws, mc.seed).value
        return max(w(math.sqrt(r)) / math.sqrt(r), (1.0 / r) * w(r / 1.0))

    bound = lambda r: q.level * r * math.sqrt(q.N)
    assert phi(r_star) <= bound(r_star) * (1.0 + 1e-9)
    assert phi(0.9 * r_star) > bound(0.9 * r_star)


def test_fixed_point_on_a_tiny_ball_does_not_divide_by_zero():
    # the probes' r^3 underflows to 0; the monotonicity check must skip them
    q = FixedPointQuery("vN", 1.0, 64, backend="monte_carlo")
    assert fixed_point(l1_ball(8, 1e-110), q, McConfig(draws=64)) == math.inf


def test_fixed_point_query_validation():
    with pytest.raises(ValueError):
        FixedPointQuery(functional="wN", level=1.0, N=10)
    with pytest.raises(ValueError):
        FixedPointQuery(functional="rN", level=0.0, N=10)
    with pytest.raises(ValueError):
        FixedPointQuery(functional="rN", level=1.0, N=0)
    with pytest.raises(ValueError):
        FixedPointQuery(functional="qN", level=1.0, N=10)  # missing shell_R0
    with pytest.raises(ValueError):
        FixedPointQuery(functional="rN", level=1.0, N=10, backend="tea_leaves")


def test_fixed_point_backend_restrictions():
    q = FixedPointQuery(functional="qN", level=1.0, N=10, shell_R0=0.5)
    with pytest.raises(UnsupportedSetError):
        fixed_point(l2_ball(4, 1.0), q)  # packing needs monte_carlo
    q2 = FixedPointQuery(functional="rN", level=1.0, N=10)
    with pytest.raises(UnsupportedSetError):
        fixed_point(l2_ball(4, 1.0), q2)  # no closed form for l2
    with pytest.raises(UnsupportedSetError):
        fixed_point(ambient(4), q2)


def test_fixed_point_packing_smoke():
    q = FixedPointQuery(
        functional="qN", level=2.0, N=50, shell_R0=0.9, backend="monte_carlo"
    )
    mc = McConfig(draws=256, seed=3, candidates=256, centers=2)
    a = fixed_point(l2_ball(4, 1.0), q, mc)
    b = fixed_point(l2_ball(4, 1.0), q, mc)
    assert a == b
    assert 0.0 <= a < math.inf


def _bisection_reference(cond, r_start):
    # a plain 60-step bisection, the search's reference: same bracket probes,
    # then 60 midpoints; it reads only `holds` out of cond's (holds, t)
    hi = float(r_start)
    if cond(hi)[0]:
        lo = hi * 2.0**-40
        if cond(lo)[0]:
            return 0.0
    else:
        for _ in range(80):
            lo = hi
            hi *= 2.0
            if cond(hi)[0]:
                break
        else:
            return math.inf
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cond(mid)[0]:
            hi = mid
        else:
            lo = mid
    return hi


# acceptance criterion 6's (functional, level, N, n) combos
_CRIT6_COMBOS = (
    ("rN", 1.0, 64, 4096), ("rN", 1.0, 128, 2048), ("rN", 1.0, 256, 32),
    ("sN", 1.0, 256, 4096), ("sN", 0.5, 1024, 1024), ("sN", 1.0, 4096, 8),
    ("sN", 1.0, 16384, 16), ("vN", 1.0, 1024, 4096), ("vN", 2.0, 64, 64),
    ("vN", 1.0, 4096, 4),
)

_REFERENCE_QUERIES = (
    [(l1_ball(n, 1.0), FixedPointQuery(f, level, N, backend="monte_carlo"), McConfig(1024, 17))
     for f, level, N, n in _CRIT6_COMBOS]
    # the l2 width grid of the acceptance file's monotonicity-check test
    + [(l2_ball(n, radius), FixedPointQuery(f, level, N, backend="monte_carlo"), McConfig(256, 3))
       for n, radius in ((8, 1.0), (32, 2.0))
       for f in ("r0", "r2", "rN", "sN", "vN")
       for level, N in ((0.5, 64), (2.0, 1024))]
    + [(cset, FixedPointQuery(f, 1.0, 256, shell_R0=R0, backend="monte_carlo"), _PACKING_MC)
       for cset, R0s in ((l2_ball(4, 1.0), (0.9,)), (l1_ball(64, 1.0), (0.3, 0.5)))
       for f in ("qN", "tN") for R0 in R0s]
    + [(l1_ball(256, 1.0), FixedPointQuery(f, level, N, backend=backend), McConfig(draws=256, seed=3))
       for f, level, N in (("r0", 0.2, 64), ("r2", 1.0, 512))
       for backend in ("closed_form", "monte_carlo")]
)


def test_fixed_point_returns_the_bisection_double(monkeypatch):
    # every query above lands on the very double that 60 halvings gave
    found = [fixed_point(cset, query, mc) for cset, query, mc in _REFERENCE_QUERIES]
    monkeypatch.setattr(sets, "_least_radius", _bisection_reference)
    for (cset, query, mc), r in zip(_REFERENCE_QUERIES, found):
        assert r == fixed_point(cset, query, mc), (cset, query)


def _inequality(phi, p, scale, calls):
    # the shape of fixed_point's condition: Phi(r) <= scale * r^p, and log of the ratio
    def cond(r):
        calls.append(r)
        val, bound = phi(r), scale * r**p
        ratio = val / bound if bound > 0 else math.inf
        return val <= bound, math.log(ratio) if 0 < ratio < math.inf else math.nan

    return cond


@settings(max_examples=300, deadline=None, derandomize=True)
@given(smooth=st.booleans(), p=st.integers(0, 3), e=st.floats(0.05, 3.0),
       k=st.integers(-5, 5), u=st.floats(-8.0, 20.0), scale=st.floats(0.1, 10.0))
def test_least_radius_finds_the_least_double(smooth, p, e, k, u, scale):
    # Phi/r^p falls through `scale` at tau, smoothly (a power law) or by a step.
    # r_start is a power of two: then 60 halvings reach adjacent doubles for every
    # tau >= r_start * 2^-8; for other r_start they can end a double short near it
    r_start = 2.0**k
    tau = r_start * 2.0**u
    if smooth:
        phi = lambda r: scale * tau**e * r ** (p - e)
    else:
        phi = lambda r: scale * tau**p * (2.0 if r < tau else 1.0)
    calls, reference_calls = [], []
    r = sets._least_radius(_inequality(phi, p, scale, calls), r_start)
    _bisection_reference(_inequality(phi, p, scale, reference_calls), r_start)
    cond = _inequality(phi, p, scale, [])
    assert cond(r)[0] and not cond(np.nextafter(r, 0.0))[0]
    assert len(calls) <= len(reference_calls)
    if smooth and u >= -7.0:
        # below r_start * 2^-7 the halvings to adjacency use all 60 probes, so the
        # search has none to spend on the secant; the upward doublings are the
        # bisection's own
        assert len(calls) - max(0, math.ceil(u)) <= 25


_RATES_THEORY_L1 = (
    ("rN", 1.0, 128, 2048), ("sN", 0.5, 1024, 1024), ("rN", 1.0, 256, 32),
    ("sN", 1.0, 4096, 8), ("sN", 1.0, 16384, 16), ("vN", 2.0, 64, 64), ("vN", 1.0, 4096, 4),
)


@pytest.mark.parametrize("functional, level, N, n", _RATES_THEORY_L1)
def test_fixed_point_width_queries_make_few_probes(monkeypatch, functional, level, N, n):
    # perfbench rates_theory's seven l1 queries: the bisection evaluated the
    # width 62 times on each
    evaluations = []
    cap_support = sets._cap_support

    def counting(cset, G):
        support = cap_support(cset, G)

        def values(r):
            evaluations.append(r)
            return support(r)

        return values

    monkeypatch.setattr(sets, "_cap_support", counting)
    q = FixedPointQuery(functional, level, N, backend="monte_carlo")
    fixed_point(l1_ball(n, 1.0), q, McConfig(draws=256, seed=3))
    assert 1 <= len(evaluations) <= 24


# ---------------------------------------------------------------------------
# packing counts


def _count_among(cset, center, pts, ball_radius, separation, shell_R0=None):
    # the greedy count of `packing_count` over explicit candidate points
    return sets._greedy_count(cset, np.asarray(center, dtype=float), ball_radius, separation,
                              shell_R0, np.asarray(pts, dtype=float))


def test_packing_two_explicit_points():
    pts = [[0.0, 0.0], [1.0, 0.0]]
    m = _count_among(sparse_cap(2, 1), [0.0, 0.0], pts, ball_radius=1.5, separation=0.5)
    assert m == 2


def test_packing_segment_at_exact_separation():
    pts = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]
    m = _count_among(l1_ball(1, 1.0), [0.0], pts, ball_radius=1.0, separation=0.5)
    assert m == 5


def test_packing_wide_separation_caps_at_one():
    # separation above the ball's diameter leaves room for one point at most
    for seed in range(5):
        m = packing_count(
            l2_ball(3, 1.0), [0.0, 0.0, 0.0], ball_radius=0.4, separation=0.9,
            candidates=512, seed=seed,
        )
        assert m <= 1


def test_packing_infeasible_candidates_drop_out():
    pts = [[5.0, 5.0], [-4.0, 0.0]]  # far outside the unit l2 ball
    m = _count_among(l2_ball(2, 1.0), [0.0, 0.0], pts, ball_radius=1.0, separation=0.1)
    assert m == 0


def test_packing_greedy_never_beats_exhaustive():
    rng = np.random.default_rng(19)
    cset = l2_ball(2, 1.0)
    center = np.zeros(2)
    for trial in range(20):
        pts = random_feasible(cset, rng, 10)
        sep = float(rng.uniform(0.2, 0.8))
        greedy = _count_among(cset, center, pts, ball_radius=1.0, separation=sep)
        best = 0
        for mask in range(1 << 10):
            idx = [i for i in range(10) if mask >> i & 1]
            if len(idx) <= best:
                continue
            ok = all(
                np.linalg.norm(pts[i] - pts[j]) >= sep
                for i, j in itertools.combinations(idx, 2)
            )
            if ok:
                best = len(idx)
        assert 1 <= greedy <= best


def test_packing_shell_zero_keeps_origin_only():
    pts = [[0.0, 0.0], [0.5, 0.0], [0.0, 0.9]]
    m = _count_among(l2_ball(2, 1.0), [0.0, 0.0], pts, ball_radius=1.0, separation=0.1,
                     shell_R0=0.0)
    assert m == 1


def test_packing_shell_filter_width():
    # shell_R0 keeps only points whose norm is within 1% of R0
    pts = [[0.9, 0.0], [0.0, 0.895], [0.5, 0.0], [0.0, -0.906]]
    m = _count_among(l2_ball(2, 1.0), [0.0, 0.0], pts, ball_radius=2.0, separation=0.05,
                     shell_R0=0.9)
    assert m == 3


def test_packing_sampled_candidates_deterministic():
    args = dict(ball_radius=0.5, separation=0.15, candidates=400, seed=21)
    a = packing_count(l1_ball(3, 1.0), [0.0, 0.0, 0.0], **args)
    b = packing_count(l1_ball(3, 1.0), [0.0, 0.0, 0.0], **args)
    assert a == b
    assert a >= 1


@pytest.mark.parametrize("shell_R0", [-1.0, math.nan])
def test_packing_rejects_bad_shell_radius(shell_R0):
    with pytest.raises(ValueError, match="shell_R0 must be >= 0"):
        packing_count(l2_ball(8, 1.0), np.zeros(8), ball_radius=1.0, separation=0.1,
                      shell_R0=shell_R0)


@pytest.mark.parametrize("kwargs, message", [
    ({"candidates": 100.5}, "candidates: expected an integer, got 100.5"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"seed": 0.5}, "seed: expected an integer, got 0.5"),
], ids=["candidates-float", "seed-negative", "seed-float"])
def test_packing_refuses_bad_integers(kwargs, message):
    with pytest.raises(ValueError, match=message):
        packing_count(l2_ball(3), np.zeros(3), ball_radius=1.0, separation=0.1, **kwargs)


def test_packing_validation():
    cset = l2_ball(2, 1.0)
    with pytest.raises(ValueError):
        packing_count(cset, [0.0, 0.0], ball_radius=1.0, separation=0.0)
    with pytest.raises(ValueError):
        packing_count(cset, [0.0, 0.0], ball_radius=0.0, separation=0.5)
    with pytest.raises(ValueError):
        packing_count(cset, [0.0, 0.0], ball_radius=1.0, separation=0.5, candidates=0)
    with pytest.raises(ValueError):
        packing_count(cset, [0.0], ball_radius=1.0, separation=0.5)
    with pytest.raises(TypeError, match="candidate_points"):  # the count draws its own
        packing_count(
            cset, [0.0, 0.0], ball_radius=1.0, separation=0.5,
            candidate_points=[[1.0, 2.0]],
        )
