"""Synthetic covariate and response generators for the benchmark scenarios.

Three covariate cases are supported:

- ``uniform01``: iid entries on [0, 1]
- ``mvnormal``: mean-zero multivariate normal, unit variances, all
  pairwise correlations 0.5
- ``truncated-mvnormal``: the same normal with rows redrawn until every
  coordinate lies in [-5, 5]

The response is linear with Gaussian noise; with ``interaction=True`` the
mean uses the fully expanded pairwise-interaction design.

All randomness flows through numpy's default generator (PCG64). A config
seed spawns two fixed substreams, one for covariates and one for noise,
so regenerating either piece is reproducible in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, NumericError
from .linalg import DataMatrix, positive_integer, seed_integer
from .regression import expand_interactions, expanded_column_count

CASES = ("uniform01", "mvnormal", "truncated-mvnormal")

TRUNCATION_BOUND = 5.0

# Rejection rounds per row before giving up; each round redraws every
# still-invalid row once.
MAX_REJECTION_ROUNDS = 10**6

_COVARIATE_STREAM = 0
_NOISE_STREAM = 1


@dataclass(frozen=True)
class ScenarioConfig:
    """One synthetic benchmark scenario.

    ``beta_slopes`` defaults to all ones of the design width (p columns,
    or p + p(p-1)/2 with interactions); ``beta0`` defaults to 1 and
    ``sigma2`` to 9, the reference settings used throughout the
    simulation studies. k is carried here because the harness selects k
    rows from every generated dataset; generators themselves ignore it.
    ``seed`` is a whole number >= 0.
    """

    case: str
    n: int
    p: int
    k: int
    beta0: float = 1.0
    beta_slopes: np.ndarray | None = field(default=None)
    sigma2: float = 9.0
    interaction: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.case not in CASES:
            raise ConfigError(
                f"unknown case {self.case!r}, expected one of {CASES}"
            )
        for name in ("n", "p", "k"):
            object.__setattr__(self, name, positive_integer(getattr(self, name), name))
        object.__setattr__(self, "seed", seed_integer(self.seed))
        if not self.k > self.p:
            raise ConfigError(f"need k > p, got k={self.k}, p={self.p}")
        if not self.n >= self.k:
            raise ConfigError(f"need n >= k, got n={self.n}, k={self.k}")
        if not self.sigma2 > 0.0:
            raise ConfigError(f"sigma2 must be positive, got {self.sigma2!r}")
        width = self.design_width
        if self.beta_slopes is None:
            object.__setattr__(self, "beta_slopes", np.ones(width))
        else:
            beta = np.asarray(self.beta_slopes, dtype=np.float64).ravel()
            if beta.shape[0] != width:
                raise ConfigError(
                    f"beta_slopes has {beta.shape[0]} entries, design has "
                    f"{width} columns"
                )
            object.__setattr__(self, "beta_slopes", beta)

    @property
    def design_width(self) -> int:
        return expanded_column_count(self.p) if self.interaction else self.p


def _covariance(p: int) -> np.ndarray:
    """Unit-variance covariance with all off-diagonal entries 0.5."""
    sigma = np.full((p, p), 0.5)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def _stream(seed: int, which: int) -> np.random.Generator:
    return np.random.default_rng([seed, which])


def gen_covariates(config: ScenarioConfig) -> DataMatrix:
    """Draw the covariate matrix for a scenario. Deterministic in seed."""
    rng = _stream(config.seed, _COVARIATE_STREAM)
    n, p = config.n, config.p
    if config.case == "uniform01":
        return DataMatrix(rng.random((n, p)))

    chol = np.linalg.cholesky(_covariance(p))
    draw = lambda m: rng.standard_normal((m, p)) @ chol.T
    X = draw(n)
    if config.case == "mvnormal":
        return DataMatrix(X)

    # truncated case: redraw rows until all coordinates are in bounds
    bad = np.flatnonzero(np.any(np.abs(X) > TRUNCATION_BOUND, axis=1))
    rounds = 0
    while bad.size:
        rounds += 1
        if rounds > MAX_REJECTION_ROUNDS:
            raise NumericError(
                f"rejection sampling exceeded {MAX_REJECTION_ROUNDS} redraws "
                f"per row; bound {TRUNCATION_BOUND} looks unattainable"
            )
        X[bad] = draw(bad.size)
        bad = bad[np.any(np.abs(X[bad]) > TRUNCATION_BOUND, axis=1)]
    return DataMatrix(X)


def gen_response(X, config: ScenarioConfig) -> np.ndarray:
    """Draw y = beta0 + design @ beta_slopes + N(0, sigma2) noise.

    The design is X itself, or its full pairwise-interaction expansion
    when the scenario says so. Noise comes from a substream independent
    of the covariate draw, so the response is deterministic given the
    seed and the covariates.
    """
    vals = X.values if isinstance(X, DataMatrix) else np.asarray(X, dtype=np.float64)
    design = expand_interactions(vals) if config.interaction else vals
    if design.shape[1] != config.beta_slopes.shape[0]:
        raise DimensionError(
            f"design has {design.shape[1]} columns, beta_slopes has "
            f"{config.beta_slopes.shape[0]}"
        )
    rng = _stream(config.seed, _NOISE_STREAM)
    noise = rng.normal(0.0, np.sqrt(config.sigma2), design.shape[0])
    return config.beta0 + design @ config.beta_slopes + noise


def gen_dataset(config: ScenarioConfig) -> DataMatrix:
    """Covariates and response together, as one DataMatrix."""
    X = gen_covariates(config)
    y = gen_response(X, config)
    return DataMatrix(X.values, y)
