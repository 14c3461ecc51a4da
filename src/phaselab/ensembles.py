"""Measurement ensembles and noise models for quadratic sensing.

A sample is y_i = <a_i, x0>^2 + w_i with isotropic subgaussian rows a_i.
All randomness flows through `substream` (or `sub_seed`, its integer-seed
twin), which derives independent generators from (master seed, key) pairs,
so adding or reordering consumers never perturbs anybody else's draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ENSEMBLE_KINDS = ("standard_gaussian", "rademacher", "scaled_uniform")
NOISE_KINDS = ("none", "gaussian", "bounded_uniform")

_SQRT3 = float(np.sqrt(3.0))


def substream(seed, *key):
    """Generator for consumer `key` of master seed `seed`.

    Uses SeedSequence spawn keys, so streams for distinct keys are
    statistically independent and reproducible regardless of the order in
    which they are consumed.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def sub_seed(seed, *key):
    """Integer seed for consumer `key` of master seed `seed`, from the same
    spawn keys as `substream`, for APIs that take a seed, not a generator."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


@dataclass(frozen=True)
class Ensemble:
    """Isotropic subgaussian row distribution on R^n.

    kind: one of "standard_gaussian", "rademacher", "scaled_uniform"
          (uniform on [-sqrt(3), sqrt(3)], unit variance).
    dimension: ambient dimension n.
    """

    kind: str
    dimension: int

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}, expected one of {ENSEMBLE_KINDS}")
        if int(self.dimension) < 1:
            raise ValueError(f"ensemble dimension must be >= 1, got {self.dimension}")


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise on the quadratic measurements.

    kind "none" ignores scale; "gaussian" is N(0, scale^2); "bounded_uniform"
    is uniform on [-scale, scale].
    """

    kind: str
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}")
        if self.scale < 0:
            raise ValueError(f"noise scale must be >= 0, got {self.scale}")


@dataclass(frozen=True)
class PhaseSample:
    """One drawn experiment: measurement matrix, responses, signal, noise."""

    A: np.ndarray
    y: np.ndarray
    x0: np.ndarray
    noise_realization: np.ndarray

    @property
    def N(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]


def draw_measurements(ensemble, N, seed):
    """Draw an (N, n) measurement matrix with i.i.d. rows from `ensemble`."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    rng = substream(seed, 0)
    n = ensemble.dimension
    if ensemble.kind == "standard_gaussian":
        return rng.standard_normal((N, n))
    if ensemble.kind == "rademacher":
        return rng.integers(0, 2, size=(N, n)).astype(float) * 2.0 - 1.0
    # scaled_uniform: U[-sqrt(3), sqrt(3)] has variance 1
    return rng.uniform(-_SQRT3, _SQRT3, size=(N, n))


def draw_noise(model, N, seed):
    """Draw an N-vector of additive noise from `model`."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    rng = substream(seed, 1)
    if model.kind == "none" or model.scale == 0.0:
        return np.zeros(N)
    if model.kind == "gaussian":
        return model.scale * rng.standard_normal(N)
    return rng.uniform(-model.scale, model.scale, size=N)


def generate_sample(x0, ensemble, noise, N, seed):
    """Draw a PhaseSample with y = (A @ x0)**2 + w.

    The matrix and the noise come from separate substreams of `seed`, so the
    same seed always produces the same sample bit for bit.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.shape[0] != ensemble.dimension:
        raise ValueError(
            f"x0 must be a vector of length {ensemble.dimension}, got shape {x0.shape}"
        )
    A = draw_measurements(ensemble, N, seed)
    w = draw_noise(noise, N, seed)
    y = (A @ x0) ** 2 + w
    return PhaseSample(A=A, y=y, x0=x0.copy(), noise_realization=w)


def estimate_smallball_kappa0(ensemble, pair_count, mc_samples, seed):
    """Monte Carlo estimate of kappa_0 = min over unit pairs of E|<a,s><a,t>|.

    Samples `pair_count` pairs (s, t) uniformly on the sphere, estimates the
    product moment for each on a shared batch of `mc_samples` rows, and
    returns (smallest estimate, worst pair).

    Returns
    -------
    (kappa0_hat, (s, t)) : float and the minimizing pair of unit vectors.
    """
    if pair_count < 1 or mc_samples < 1:
        raise ValueError("pair_count and mc_samples must be >= 1")
    rng = substream(seed, 2)
    n = ensemble.dimension
    S = rng.standard_normal((pair_count, n))
    T = rng.standard_normal((pair_count, n))
    S /= np.linalg.norm(S, axis=1, keepdims=True)
    T /= np.linalg.norm(T, axis=1, keepdims=True)
    A = draw_measurements(ensemble, mc_samples, seed)
    # E|<a,s><a,t>| per pair, common measurement draws across pairs
    est = np.abs((A @ S.T) * (A @ T.T)).mean(axis=0)
    worst = int(np.argmin(est))
    return float(est[worst]), (S[worst].copy(), T[worst].copy())


def estimate_isotropy_defect(ensemble, directions, mc_samples, seed):
    """Max over sampled unit directions t of |mean <a,t>^2 - 1|."""
    if directions < 1 or mc_samples < 1:
        raise ValueError("directions and mc_samples must be >= 1")
    rng = substream(seed, 3)
    n = ensemble.dimension
    D = rng.standard_normal((directions, n))
    D /= np.linalg.norm(D, axis=1, keepdims=True)
    A = draw_measurements(ensemble, mc_samples, seed)
    second_moment = ((A @ D.T) ** 2).mean(axis=0)
    return float(np.abs(second_moment - 1.0).max())
