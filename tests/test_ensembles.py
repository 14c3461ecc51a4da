import numpy as np
import pytest

from phaselab import (
    Ensemble,
    NoiseModel,
    draw_measurements,
    draw_noise,
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
    with pytest.raises(ValueError):
        NoiseModel("gaussian", np.nan)


@pytest.mark.parametrize("n, N", [(3, 40), (7, 513), (7, 2500), (64, 4096)])
@pytest.mark.parametrize("kind", ["standard_gaussian", "rademacher", "scaled_uniform"])
def test_generate_sample_returns_the_draw_column_major(kind, n, N):
    # the descent kernel reads a coordinate's column contiguously; A, filled from
    # row blocks of the draw, keeps the drawn values, and y is the row-major
    # draw's (A x0)^2 + w, bit for bit, also over several blocks and a short last one
    ens, noise = Ensemble(kind, n), NoiseModel("gaussian", 0.3)
    x0 = np.linspace(-1.0, 2.0, n)
    s = generate_sample(x0, ens, noise, N, seed=19)
    assert s.N == N and s.n == n
    drawn = draw_measurements(ens, N, seed=19)
    assert drawn.flags.c_contiguous
    assert s.A.flags.f_contiguous and not s.A.flags.c_contiguous
    assert np.array_equal(s.A, drawn)
    w = draw_noise(noise, N, seed=19)
    assert np.array_equal(s.noise_realization, w)
    assert s.y.tobytes() == ((drawn @ x0) ** 2 + w).tobytes()


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


@pytest.mark.parametrize("draw", [
    lambda N: generate_sample(np.zeros(3), Ensemble("standard_gaussian", 3),
                              NoiseModel("gaussian", 0.1), N, 1),
    lambda N: draw_noise(NoiseModel("gaussian", 0.1), N, 1),
    lambda N: draw_measurements(Ensemble("standard_gaussian", 3), N, 1),
], ids=["generate_sample", "draw_noise", "draw_measurements"])
def test_draws_refuse_a_non_integer_N(draw):
    with pytest.raises(ValueError, match="N: expected an integer, got 10.5"):
        draw(10.5)
    with pytest.raises(ValueError, match="N must be >= 1, got 0"):
        draw(0)


def test_product_moment_for_hand_pairs():
    # the small-ball product moment E|<a,s><a,t>| for two unit pairs.
    # s = t unit: E<a,s>^2 = 1.  s perpendicular to t: E|g1 g2| = 2/pi.
    A = draw_measurements(Ensemble("standard_gaussian", 6), 200_000, seed=21)
    s = np.zeros(6); s[0] = 1.0
    t = np.zeros(6); t[1] = 1.0
    same = np.abs((A @ s) * (A @ s))
    perp = np.abs((A @ s) * (A @ t))
    assert abs(same.mean() - 1.0) <= 4 * same.std() / np.sqrt(A.shape[0])
    assert abs(perp.mean() - 2 / np.pi) <= 4 * perp.std() / np.sqrt(A.shape[0])


def _isotropy_defect(ensemble, directions, mc_samples, seed):
    # max over random unit directions t of |mean <a,t>^2 - 1|
    D = substream(seed, 3).standard_normal((directions, ensemble.dimension))
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    A = draw_measurements(ensemble, mc_samples, seed)
    return float(np.abs(((A @ D.T) ** 2).mean(axis=0) - 1.0).max())


@pytest.mark.parametrize("kind", ["standard_gaussian", "rademacher", "scaled_uniform"])
def test_isotropy_defect_small(kind):
    defect = _isotropy_defect(Ensemble(kind, 10), directions=50, mc_samples=20_000, seed=29)
    assert defect < 0.1
