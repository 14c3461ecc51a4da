import numpy as np
import pytest

from phaselab import (
    Ensemble,
    NoiseModel,
    draw_measurements,
    draw_noise,
    estimate_isotropy_defect,
    estimate_smallball_kappa0,
    generate_sample,
    sub_seed,
    substream,
)

SQRT3 = np.sqrt(3.0)


def test_substream_reproducible_and_independent():
    a = substream(7, 0).standard_normal(5)
    b = substream(7, 0).standard_normal(5)
    c = substream(7, 1).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # sub_seed: same keys, same integer; the values are pinned, since every
    # sample and solver seed of an experiment table is derived with it
    assert sub_seed(7, 0) == sub_seed(7, 0) == 1201125462
    assert sub_seed(7, 1) == 3618983171
    assert sub_seed(7, 3, 2, 1) == 2608898304


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble("poisson", 4)
    with pytest.raises(ValueError):
        Ensemble("standard_gaussian", 0)


@pytest.mark.parametrize("kind", ["standard_gaussian", "rademacher", "scaled_uniform"])
def test_rows_are_isotropic(kind):
    # all three ensembles have zero-mean unit-variance coordinates
    A = draw_measurements(Ensemble(kind, 8), 20_000, seed=3)
    assert A.shape == (20_000, 8)
    assert abs(A.mean()) < 0.02
    assert abs((A * A).mean() - 1.0) < 0.03


def test_rademacher_is_signs():
    A = draw_measurements(Ensemble("rademacher", 5), 100, seed=1)
    assert set(np.unique(A)) == {-1.0, 1.0}


def test_scaled_uniform_support():
    A = draw_measurements(Ensemble("scaled_uniform", 5), 1000, seed=2)
    assert np.all(np.abs(A) <= SQRT3)


def test_noise_none_and_zero_scale_are_zero():
    assert np.array_equal(draw_noise(NoiseModel("none"), 10, seed=0), np.zeros(10))
    assert np.array_equal(draw_noise(NoiseModel("gaussian", 0.0), 10, seed=0), np.zeros(10))


def test_gaussian_noise_scale():
    w = draw_noise(NoiseModel("gaussian", 2.0), 50_000, seed=4)
    assert abs(w.std() - 2.0) < 0.05


def test_bounded_uniform_noise_is_bounded():
    w = draw_noise(NoiseModel("bounded_uniform", 0.3), 1000, seed=5)
    assert np.all(np.abs(w) <= 0.3)
    assert w.min() < 0 < w.max()


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("laplace")
    with pytest.raises(ValueError):
        NoiseModel("gaussian", -1.0)


def test_generate_sample_identity():
    # y must equal (A x0)^2 + w exactly, not approximately
    x0 = np.array([1.0, -2.0, 0.5])
    s = generate_sample(x0, Ensemble("standard_gaussian", 3), NoiseModel("gaussian", 0.7),
                        40, seed=11)
    assert s.N == 40 and s.n == 3
    assert np.array_equal(s.y, (s.A @ x0) ** 2 + s.noise_realization)


def test_generate_sample_seed_determinism():
    x0 = np.ones(4)
    ens = Ensemble("standard_gaussian", 4)
    a = generate_sample(x0, ens, NoiseModel("gaussian", 0.1), 25, seed=9)
    b = generate_sample(x0, ens, NoiseModel("gaussian", 0.1), 25, seed=9)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.y, b.y)
    # measurements come from their own substream: changing the noise model
    # must not change A
    c = generate_sample(x0, ens, NoiseModel("none"), 25, seed=9)
    assert np.array_equal(a.A, c.A)


def test_generate_sample_dimension_mismatch():
    with pytest.raises(ValueError):
        generate_sample(np.ones(3), Ensemble("standard_gaussian", 4), NoiseModel("none"),
                        10, seed=0)


def test_product_moment_for_hand_pairs():
    # the quantity the kappa0 estimator minimizes: E|<a,s><a,t>|.
    # s = t unit: E<a,s>^2 = 1.  s perpendicular to t: E|g1 g2| = 2/pi.
    A = draw_measurements(Ensemble("standard_gaussian", 6), 200_000, seed=21)
    s = np.zeros(6); s[0] = 1.0
    t = np.zeros(6); t[1] = 1.0
    same = np.abs((A @ s) * (A @ s))
    perp = np.abs((A @ s) * (A @ t))
    assert abs(same.mean() - 1.0) <= 4 * same.std() / np.sqrt(A.shape[0])
    assert abs(perp.mean() - 2 / np.pi) <= 4 * perp.std() / np.sqrt(A.shape[0])


def test_kappa0_gaussian_floor():
    k0, (s, t) = estimate_smallball_kappa0(Ensemble("standard_gaussian", 20),
                                           pair_count=200, mc_samples=4000, seed=13)
    assert k0 >= 0.5
    assert abs(np.linalg.norm(s) - 1.0) < 1e-12
    assert abs(np.linalg.norm(t) - 1.0) < 1e-12


def test_kappa0_determinism():
    args = (Ensemble("rademacher", 6), 20, 500, 17)
    assert estimate_smallball_kappa0(*args)[0] == estimate_smallball_kappa0(*args)[0]


@pytest.mark.parametrize("kind", ["standard_gaussian", "rademacher", "scaled_uniform"])
def test_isotropy_defect_small(kind):
    defect = estimate_isotropy_defect(Ensemble(kind, 10), directions=50,
                                      mc_samples=20_000, seed=29)
    assert defect < 0.1
