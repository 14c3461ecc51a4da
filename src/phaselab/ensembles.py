"""Measurement ensembles and noise models for quadratic sensing.

A sample is y_i = <a_i, x0>^2 + w_i with isotropic subgaussian rows a_i.
All randomness flows through `substream` (or `sub_seed`, its integer-seed
twin), which derives independent generators from (master seed, key) pairs,
so adding or reordering consumers never perturbs anybody else's draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_integer

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
        check_integer("dimension", self.dimension, 1)


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
        if not 0 <= self.scale < math.inf:
            raise ValueError(f"noise scale must be finite and >= 0, got {self.scale}")


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
    return _draw_rows(ensemble, substream(seed, 0), N)


def _draw_rows(ensemble, rng, m):
    """The next m rows from `rng`, row-major; rows drawn in blocks equal one draw of them all."""
    n = ensemble.dimension
    if ensemble.kind == "standard_gaussian":
        return rng.standard_normal((m, n))
    if ensemble.kind == "rademacher":
        return rng.integers(0, 2, size=(m, n)).astype(float) * 2.0 - 1.0
    # scaled_uniform: U[-sqrt(3), sqrt(3)] has variance 1
    return rng.uniform(-_SQRT3, _SQRT3, size=(m, n))


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
    same seed always produces the same sample bit for bit.  A holds the values
    of `draw_measurements`, stored column-major so that each coordinate's
    column is contiguous for the descent kernel; it is filled from row-major
    blocks of the draw, so no second copy of A is held.  y is computed from
    those blocks, which gives the bits of the row-major product; `A @ x0` on
    the returned A may round differently, so for it the identity holds to
    rounding.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.shape[0] != ensemble.dimension:
        raise ValueError(
            f"x0 must be a vector of length {ensemble.dimension}, got shape {x0.shape}"
        )
    w = draw_noise(noise, N, seed)
    rng = substream(seed, 0)
    A, z = np.empty((N, ensemble.dimension), order="F"), np.empty(N)
    for start in range(0, N, 1024):
        rows = _draw_rows(ensemble, rng, min(1024, N - start))
        A[start:start + len(rows)] = rows
        z[start:start + len(rows)] = rows @ x0
    return PhaseSample(A=A, y=z ** 2 + w, x0=x0.copy(), noise_realization=w)
