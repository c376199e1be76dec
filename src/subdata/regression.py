"""Ordinary least squares on subdata, plus interaction design expansion."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, SingularDesignError
from .linalg import as_data_matrix


@dataclass(frozen=True)
class LinearFit:
    """OLS coefficients split into intercept and slopes."""

    intercept: float
    slopes: np.ndarray


def with_intercept(design) -> np.ndarray:
    """Prepend a column of ones to a design matrix."""
    M = np.asarray(design, dtype=np.float64)
    if M.ndim != 2:
        raise DimensionError(f"expected a 2-d design, got ndim={M.ndim}")
    return np.column_stack([np.ones(M.shape[0]), M])


def fit_ols(X, y) -> LinearFit:
    """Least-squares fit of y on [1, X] via orthogonal factorization.

    Uses a rank-revealing solver rather than normal equations, so the
    conditioning of the subdata enters only once. A rank-deficient
    design raises :class:`SingularDesignError` carrying the numerical
    rank that was found.
    """
    dm = as_data_matrix(X)
    yv = np.asarray(y, dtype=np.float64).ravel()
    if yv.shape[0] != dm.n:
        raise DimensionError(
            f"response length {yv.shape[0]} does not match {dm.n} rows"
        )
    Z = with_intercept(dm.values)
    coef, _, rank, _ = np.linalg.lstsq(Z, yv, rcond=None)
    q = Z.shape[1]
    if rank < q:
        raise SingularDesignError(
            f"design is rank deficient: numerical rank {rank} < {q} columns",
            rank=int(rank),
        )
    return LinearFit(float(coef[0]), coef[1:])


def adjusted_intercept(fit: LinearFit, x_means, y_mean: float) -> LinearFit:
    """Replace the intercept with ybar - xbar' slopes, slopes untouched.

    ``x_means`` are the column means of the FULL design and ``y_mean``
    is the full-data response mean; the slopes come from the subdata
    fit. Returns a new LinearFit whose slopes are the very same array as
    the input's.
    """
    means = np.asarray(x_means, dtype=np.float64).ravel()
    if means.shape[0] != fit.slopes.shape[0]:
        raise DimensionError(
            f"got {means.shape[0]} design means for {fit.slopes.shape[0]} slopes"
        )
    b0 = float(y_mean) - float(means @ fit.slopes)
    return replace(fit, intercept=b0)


def expand_interactions(X) -> np.ndarray:
    """Append the product x_j * x_l of every column pair j < l.

    The output has p + p(p-1)/2 columns: the p originals followed by
    the pairwise products in lexicographic order (0,1), (0,2), ...,
    (p-2, p-1).
    """
    vals = as_data_matrix(X).values
    j, l = np.triu_indices(vals.shape[1], 1)
    return np.concatenate([vals, vals[:, j] * vals[:, l]], axis=1)


def expanded_column_count(p: int) -> int:
    """Design width after full expansion: p + p(p-1)/2."""
    return p + p * (p - 1) // 2
