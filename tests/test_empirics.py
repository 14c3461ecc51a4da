"""Orlicz norms, rearrangements, Paley-Zygmund fractions, norm equivalences."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from phaselab import (
    EQUIVALENCE_C1,
    EQUIVALENCE_C2,
    PZ_LEVELS,
    REARRANGEMENT_RATIO_HIGH,
    REARRANGEMENT_RATIO_LOW,
    empirical_smallball_fraction,
    norm_equivalence_check,
    norm_equivalence_violations,
    paley_zygmund_admitted,
    paley_zygmund_fraction,
    product_process_sup,
    psi_alpha_norm,
    random_norm_triples,
    rearrangement_functional,
    rearrangement_ratio_range,
)


# ---------------------------------------------------------------------------
# psi_alpha norms


def test_psi2_constant_vector():
    # exp(1/c^2) = 2 forces c = 1/sqrt(ln 2), independent of m
    for m in (1, 4, 257):
        val = psi_alpha_norm(np.ones(m), 2.0)
        assert abs(val - 1.0 / math.sqrt(math.log(2.0))) <= 1e-9
    assert abs(psi_alpha_norm(np.ones(5), 2.0) - 1.20112) <= 1e-4


def test_psi2_single_spike():
    # (exp(4/c^2) + 3)/4 = 2  =>  c = 2/sqrt(ln 5)
    val = psi_alpha_norm([2.0, 0.0, 0.0, 0.0], 2.0)
    assert abs(val - 2.0 / math.sqrt(math.log(5.0))) <= 1e-9
    assert abs(val - 1.5765) <= 1e-3


def test_psi1_half_spike_closed_form():
    # (2 exp(c/x) + 2)/4 = 2  =>  x = c/ln 3
    val = psi_alpha_norm([0.7, 0.7, 0.0, 0.0], 1.0)
    assert abs(val - 0.7 / math.log(3.0)) <= 1e-9


def test_psi_zero_vector_and_validation():
    assert psi_alpha_norm(np.zeros(10), 2.0) == 0.0
    with pytest.raises(ValueError):
        psi_alpha_norm([], 2.0)
    with pytest.raises(ValueError):
        psi_alpha_norm([1.0], 0.0)


def test_psi_absolute_homogeneity():
    rng = np.random.default_rng(12)
    for _ in range(32):
        m = int(rng.integers(2, 60))
        v = rng.standard_normal(m)
        lam = float(rng.uniform(0.01, 50.0)) * float(rng.choice([-1.0, 1.0]))
        alpha = float(rng.uniform(1.0, 2.0))
        a = psi_alpha_norm(lam * v, alpha)
        b = abs(lam) * psi_alpha_norm(v, alpha)
        assert abs(a - b) <= 1e-9 * max(1.0, b)


@st.composite
def _stress_vectors(draw):
    """(v, alpha): gaussian, cubed exponential, geometric or spike, at 2^j scale."""
    m = draw(st.integers(1, 1024))
    alpha = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.integers(0, 3))
    if style == 0:
        v = rng.standard_normal(m)
    elif style == 1:
        v = rng.standard_exponential(m) ** 3
    elif style == 2:
        v = 2.0 ** -np.arange(m, dtype=float)
    else:
        v = np.zeros(m)
        v[rng.integers(m)] = 1.0
    return np.ldexp(v, draw(st.integers(-200, 200))), alpha


@settings(max_examples=300, deadline=None, derandomize=True)
@given(inputs=_stress_vectors())
def test_psi_budget_is_met_at_the_norm(inputs):
    # the defining inequality: the budget is at most 2 just above the norm
    # and above 2 just below it
    v, alpha = inputs
    c = psi_alpha_norm(v, alpha)
    assert np.mean(np.exp((np.abs(v) / (c * (1.0 + 1e-12))) ** alpha)) <= 2.0
    assert np.mean(np.exp((np.abs(v) / (c * (1.0 - 1e-12))) ** alpha)) > 2.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(inputs=_stress_vectors(), k=st.integers(-500, 500))
def test_psi_scales_exactly_by_powers_of_two(inputs, k):
    v, alpha = inputs
    assert psi_alpha_norm(np.ldexp(v, k), alpha) == np.ldexp(psi_alpha_norm(v, alpha), k)


def test_psi_extreme_magnitudes():
    # the root t = (max|v|/c)^alpha is found without forming exp(max|v|/c)
    assert psi_alpha_norm([1e308, 1e308], 2.0) == 1.20112240878645e308
    assert psi_alpha_norm([5e-324], 2.0) == 5e-324


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_psi_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match=rf"v\[2\] = {bad}"):
        psi_alpha_norm([1.0, 0.5, bad, 2.0], 1.0)


def test_lemma_suite_values_pinned():
    # the numbers criterion 7 and `phaselab check all` read
    assert paley_zygmund_admitted(100, seed=779) == {
        2.0: (100, 0.822265625), 4.0: (100, 0.6865234375), 8.0: (98, 0.5986328125)}
    np.testing.assert_allclose(rearrangement_ratio_range(400, seed=778),
                               (1.0698594357988285, 2.7582452623102354), rtol=1e-9)


# ---------------------------------------------------------------------------
# rearrangement functional


def test_rearrangement_ones_attained_at_last_index():
    assert abs(rearrangement_functional([1.0, 1.0, 1.0, 1.0], 2.0) - 1.0) <= 1e-12


def test_rearrangement_spike():
    for m in (4, 50):
        v = np.zeros(m)
        v[m // 2] = 5.0
        expect = 5.0 / math.sqrt(math.log(math.e * m))
        assert abs(rearrangement_functional(v, 2.0) - expect) <= 1e-12


def test_rearrangement_zero_and_validation():
    assert rearrangement_functional(np.zeros(7), 1.0) == 0.0
    with pytest.raises(ValueError):
        rearrangement_functional([], 1.0)


def test_rearrangement_matches_direct_enumeration():
    rng = np.random.default_rng(14)
    for _ in range(25):
        m = int(rng.integers(1, 30))
        v = rng.standard_normal(m) * 3.0
        alpha = float(rng.uniform(1.0, 2.0))
        vs = sorted(np.abs(v), reverse=True)
        brute = max(
            vs[i] / math.log(math.e * m / (i + 1)) ** (1.0 / alpha)
            for i in range(m)
        )
        assert abs(rearrangement_functional(v, alpha) - brute) <= 1e-12


def test_psi_rearrangement_ratio_stays_in_frozen_band():
    rng = np.random.default_rng(15)
    for _ in range(120):
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
        assert REARRANGEMENT_RATIO_LOW <= ratio <= REARRANGEMENT_RATIO_HIGH


# ---------------------------------------------------------------------------
# Paley-Zygmund fractions


def test_pz_constant_vector():
    frac, beta = paley_zygmund_fraction(np.ones(9), 0.5)
    assert frac == 1.0
    assert abs(beta - 1.0 / math.log(2.0)) <= 1e-9


def test_pz_spike_fraction_is_one_coordinate():
    v = np.zeros(100)
    v[3] = 1.0
    frac, _ = paley_zygmund_fraction(v, 0.5)
    assert frac == pytest.approx(0.01)


def test_pz_gaussian_mass_above_a_tenth_of_the_mean():
    g = np.random.default_rng(16).standard_normal(10_000)
    frac, _ = paley_zygmund_fraction(g, 0.1)
    assert frac >= 0.5


def test_pz_validation():
    with pytest.raises(ValueError):
        paley_zygmund_fraction(np.zeros(5), 0.5)
    with pytest.raises(ValueError):
        paley_zygmund_fraction([], 0.5)
    with pytest.raises(ValueError):
        paley_zygmund_fraction([1.0], -0.2)


def test_pz_frozen_floors_hold_for_powered_gaussians():
    rng = np.random.default_rng(17)
    powers = {2.0: 1, 4.0: 2, 8.0: 3}
    for beta, (eta, floor) in sorted(PZ_LEVELS.items()):
        admitted = 0
        for _ in range(100):
            v = np.abs(rng.standard_normal(1024)) ** powers[beta]
            frac, ratio = paley_zygmund_fraction(v, eta)
            if ratio > beta:
                continue
            admitted += 1
            assert frac >= floor
        assert admitted >= 50  # the generator mostly stays under beta


# ---------------------------------------------------------------------------
# empirical small-ball fractions


def test_smallball_zero_threshold_counts_everything():
    A = np.random.default_rng(18).standard_normal((40, 3))
    assert empirical_smallball_fraction(A, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.0) == 1.0


def test_smallball_deterministic_rows():
    u = np.array([3.0, 4.0])
    A = np.tile(u / 5.0, (25, 1))
    for c1 in (0.5, 1.0):
        assert empirical_smallball_fraction(A, u, u, c1) == 1.0
    assert empirical_smallball_fraction(A, u, u, 1.0 + 1e-9) == 0.0


def test_smallball_orthogonal_gaussian_matches_product_normal_tail():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((100_000, 2))
    frac = empirical_smallball_fraction(A, [1.0, 0.0], [0.0, 1.0], 0.1)
    # independent Monte Carlo oracle for P(|g1*g2| >= 0.1)
    oracle_rng = np.random.default_rng(991)
    z = oracle_rng.standard_normal(2_000_000) * oracle_rng.standard_normal(2_000_000)
    oracle = float(np.mean(np.abs(z) >= 0.1))
    assert abs(frac - oracle) <= 0.01


def test_smallball_validation():
    A = np.eye(3)
    with pytest.raises(ValueError):
        empirical_smallball_fraction(A, np.zeros(3), np.ones(3), 0.1)
    with pytest.raises(ValueError):
        empirical_smallball_fraction(A, np.ones(3), np.zeros(3), 0.1)
    with pytest.raises(ValueError):
        empirical_smallball_fraction(A, np.ones(3), np.ones(3), -0.5)
    with pytest.raises(ValueError):
        empirical_smallball_fraction(A, np.ones(2), np.ones(3), 0.1)


# ---------------------------------------------------------------------------
# product process suprema


def test_product_process_hand_cases():
    A = np.array([[1.0, 0.0], [3.0, 0.0]])
    e1, e2 = [1.0, 0.0], [0.0, 1.0]
    assert product_process_sup(A, [e1], [e1]) == pytest.approx(4.0)
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    assert product_process_sup(A, [e1], [e2]) == pytest.approx(0.0)


def test_product_process_symmetric_in_candidate_sets():
    rng = np.random.default_rng(20)
    A = rng.standard_normal((50, 4))
    T1 = rng.standard_normal((6, 4))
    T2 = rng.standard_normal((9, 4))
    assert product_process_sup(A, T1, T2) == pytest.approx(
        product_process_sup(A, T2, T1), abs=1e-12
    )


def test_product_process_scales_like_width_over_root_n():
    rng = np.random.default_rng(21)
    n, N = 20, 10_000
    A = rng.standard_normal((N, n))
    T = rng.standard_normal((50, n))
    T /= np.linalg.norm(T, axis=1, keepdims=True)
    sup = product_process_sup(A, T, T)
    G = rng.standard_normal((2000, n))
    width_hat = float(np.abs(G @ T.T).max(axis=1).mean())
    assert sup <= 10.0 * width_hat / math.sqrt(N)


def test_product_process_validation():
    A = np.eye(3)
    with pytest.raises(ValueError):
        product_process_sup(A, [[1.0, 0.0]], [[1.0, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# norm equivalence around a signal


def test_equivalence_vacuous_at_the_signal():
    fwd, bwd, _ = norm_equivalence_check([1.0, 2.0], [1.0, 2.0], 4.0,
                                         EQUIVALENCE_C1, EQUIVALENCE_C2)
    assert fwd and bwd


def test_equivalence_zero_signal_is_exact():
    rng = np.random.default_rng(22)
    for _ in range(100):
        x = rng.standard_normal(3) * float(rng.uniform(0.1, 3.0))
        fwd, bwd, small = norm_equivalence_check(x, np.zeros(3), 1.0, 1.0, 1.0)
        assert small
        assert fwd and bwd


def test_equivalence_flags_small_signal_case():
    _, _, small = norm_equivalence_check([1.0, 0.0], [0.2, 0.0], 1.0,
                                         EQUIVALENCE_C1, EQUIVALENCE_C2)
    assert small  # ||x0|| = 0.2 < sqrt(R)/4 = 0.25
    _, _, small = norm_equivalence_check([1.0, 0.0], [0.3, 0.0], 1.0,
                                         EQUIVALENCE_C1, EQUIVALENCE_C2)
    assert not small


def test_equivalence_detects_violations_of_too_strong_constants():
    # ||x0||*min barely reaches R while the product is about 2R < 3R
    x0 = np.array([10.0, 0.0, 0.0])
    x = x0 + np.array([0.100001, 0.0, 0.0])
    fwd, _, small = norm_equivalence_check(x, x0, 1.0, 3.0, EQUIVALENCE_C2)
    assert not small
    assert not fwd


def test_equivalence_validation():
    with pytest.raises(ValueError):
        norm_equivalence_check([1.0], [1.0], 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        norm_equivalence_check([1.0, 0.0], [1.0], 1.0, 1.0, 1.0)


def test_random_triples_reproducible():
    a = random_norm_triples(100, seed=5)
    b = random_norm_triples(100, seed=5)
    for u, v in zip(a, b):
        np.testing.assert_array_equal(u, v)
    X, X0, R = a
    assert X.shape == (100, 3) and X0.shape == (100, 3) and R.shape == (100,)
    assert np.all(R > 0)


def test_frozen_equivalence_constants_admit_no_counterexamples():
    assert norm_equivalence_violations(100_000, EQUIVALENCE_C1, EQUIVALENCE_C2, seed=2) == (0, 0)


def test_pushy_constants_do_find_counterexamples():
    # beyond the analytic worst cases the stress generator finds violations
    bad_fwd, _ = norm_equivalence_violations(100_000, 1.01, EQUIVALENCE_C2, seed=2)
    assert bad_fwd > 0
    _, bad_bwd = norm_equivalence_violations(100_000, EQUIVALENCE_C1, 0.30, seed=2)
    assert bad_bwd > 0
