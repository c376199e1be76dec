"""Ordinary least squares on subdata, plus interaction design expansion."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, SingularDesignError
from .linalg import _gram_factor, as_data_matrix


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


def _gram_fit(X: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """[intercept, slopes] from the normal equations, or None off the Gram path.

    The Gram matrix of [1, X] is assembled from n, the column sums and
    X'X, and its right-hand side from sum(y) and X'y, so [1, X] itself
    is never built. ``linalg._gram_factor`` guards the solve, which is
    one LU solve (LAPACK gesv) of the Gram matrix.
    """
    n, q = X.shape[0], X.shape[1] + 1
    gram = np.empty((q, q))
    gram[0, 0] = n
    gram[0, 1:] = gram[1:, 0] = np.ones(n) @ X
    gram[1:, 1:] = X.T @ X
    if _gram_factor(gram) is None:
        return None
    rhs = np.concatenate(([y.sum()], X.T @ y))
    return np.linalg.solve(gram, rhs)


def fit_ols(X, y) -> LinearFit:
    """Least-squares fit of y on [1, X].

    For n >= 2(p+1) the fit solves the normal equations of [1, X] by
    one LU solve of their Gram matrix, under the Cholesky guard that
    ``linalg.thin_svd`` uses: a Cholesky that fails, or a condition
    number of [1, X] above sqrt(1e5), falls back to LAPACK's
    rank-revealing gelsd on [1, X], as do shorter designs. The normal
    equations square the condition number, so the bound keeps their
    error at eps * 1e5 or less. A rank-deficient design fails the guard
    and raises :class:`SingularDesignError` carrying the numerical rank
    gelsd found.
    """
    dm = as_data_matrix(X)
    yv = np.asarray(y, dtype=np.float64).ravel()
    if yv.shape[0] != dm.n:
        raise DimensionError(
            f"response length {yv.shape[0]} does not match {dm.n} rows"
        )
    q = dm.p + 1
    if dm.n >= 2 * q:
        coef = _gram_fit(dm.values, yv)
        if coef is not None:
            return LinearFit(float(coef[0]), coef[1:])
    Z = with_intercept(dm.values)
    coef, _, rank, _ = np.linalg.lstsq(Z, yv, rcond=None)
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
