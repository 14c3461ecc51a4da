"""Constraint sets: membership, projection, support/width, fixed points, packing."""

import itertools
import math

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

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
    # l2 ball cap is min(r, radius) * ||g||
    val = support_function_cap(l2_ball(3, 2.0), 5.0, [1.0, 2.0, 2.0])
    assert abs(val - 6.0) <= 1e-12
    val = support_function_cap(ambient(2), 0.25, [3.0, 4.0])
    assert abs(val - 1.25) <= 1e-12


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


# ---------------------------------------------------------------------------
# packing counts


def test_packing_two_explicit_points():
    pts = [[0.0, 0.0], [1.0, 0.0]]
    m = packing_count(
        sparse_cap(2, 1), [0.0, 0.0], ball_radius=1.5, separation=0.5,
        candidate_points=pts,
    )
    assert m == 2


def test_packing_segment_at_exact_separation():
    pts = [[-1.0], [-0.5], [0.0], [0.5], [1.0]]
    m = packing_count(
        l1_ball(1, 1.0), [0.0], ball_radius=1.0, separation=0.5,
        candidate_points=pts,
    )
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
    m = packing_count(
        l2_ball(2, 1.0), [0.0, 0.0], ball_radius=1.0, separation=0.1,
        candidate_points=pts,
    )
    assert m == 0


def test_packing_greedy_never_beats_exhaustive():
    rng = np.random.default_rng(19)
    cset = l2_ball(2, 1.0)
    center = np.zeros(2)
    for trial in range(20):
        pts = random_feasible(cset, rng, 10)
        sep = float(rng.uniform(0.2, 0.8))
        greedy = packing_count(
            cset, center, ball_radius=1.0, separation=sep, candidate_points=pts
        )
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
    m = packing_count(
        l2_ball(2, 1.0), [0.0, 0.0], ball_radius=1.0, separation=0.1,
        shell_R0=0.0, candidate_points=pts,
    )
    assert m == 1


def test_packing_shell_filter_width():
    # shell_R0 keeps only points whose norm is within 1% of R0
    pts = [[0.9, 0.0], [0.0, 0.895], [0.5, 0.0], [0.0, -0.906]]
    m = packing_count(
        l2_ball(2, 1.0), [0.0, 0.0], ball_radius=2.0, separation=0.05,
        shell_R0=0.9, candidate_points=pts,
    )
    assert m == 3


def test_packing_sampled_candidates_deterministic():
    args = dict(ball_radius=0.5, separation=0.15, candidates=400, seed=21)
    a = packing_count(l1_ball(3, 1.0), [0.0, 0.0, 0.0], **args)
    b = packing_count(l1_ball(3, 1.0), [0.0, 0.0, 0.0], **args)
    assert a == b
    assert a >= 1


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
    with pytest.raises(ValueError):
        packing_count(
            cset, [0.0, 0.0], ball_radius=1.0, separation=0.5,
            candidate_points=[[1.0, 2.0, 3.0]],
        )
