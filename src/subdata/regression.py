"""Ordinary least squares on subdata, plus interaction design expansion."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, SingularDesignError
from .linalg import (EPS_RANK, _gram_factor, as_data_matrix,
                     matrix_rank_from_singular_values)


@dataclass(frozen=True)
class LinearFit:
    """OLS coefficients split into intercept and slopes.

    A fit by :func:`fit_ols` also keeps the singular values of its
    design [1, X], in descending order: the ones its solve used, from
    which the subdata information's logdet follows
    (``linalg.logdet_from_singular_values``). A fit given by hand, such
    as a scenario's truth, has none.
    """

    intercept: float
    slopes: np.ndarray
    singular_values: np.ndarray | None = None


def with_intercept(design) -> np.ndarray:
    """Prepend a column of ones to a design matrix."""
    M = np.asarray(design, dtype=np.float64)
    if M.ndim != 2:
        raise DimensionError(f"expected a 2-d design, got ndim={M.ndim}")
    return np.column_stack([np.ones(M.shape[0]), M])


def fit_ols(X, y) -> LinearFit:
    """Least-squares fit of y on [1, X].

    For n >= 2(p+1) the fit solves the normal equations of [1, X]
    through the one factorization ``linalg.thin_svd`` also uses,
    ``linalg._gram_factor``: the Cholesky factor R of their Gram matrix
    and one SVD of R, (s, V), under the same guard; the coefficients
    are c = V (V' rhs / s**2). The Gram matrix is assembled from n, the
    column sums and X'X, and the right-hand side from sum(y) and X'y,
    so [1, X] itself is never built. A Cholesky that fails, or a
    condition number of [1, X] above sqrt(1e5), falls back to LAPACK's
    gelsd on [1, X], as do shorter designs. The normal equations square
    the condition number, so the bound keeps their error at eps * 1e5
    or less. The fit keeps [1, X]'s singular values, from R or from
    gelsd. gelsd truncates its solve at the EPS_RANK cutoff, and a
    design of rank below p+1 under that rule
    (``linalg.matrix_rank_from_singular_values``, the rule of leverage
    and of logdet too) fails the guard and raises
    :class:`SingularDesignError` carrying that rank, so no fit is a
    truncated solve.
    """
    dm = as_data_matrix(X)
    yv = np.asarray(y, dtype=np.float64).ravel()
    if yv.shape[0] != dm.n:
        raise DimensionError(
            f"response length {yv.shape[0]} does not match {dm.n} rows"
        )
    X, n, q = dm.values, dm.n, dm.p + 1
    gram = np.empty((q, q))
    gram[0, 0] = n
    gram[0, 1:] = gram[1:, 0] = np.ones(n) @ X
    gram[1:, 1:] = X.T @ X
    factor = _gram_factor(gram) if n >= 2 * q else None
    if factor is not None:
        s, V = factor
        rhs = np.concatenate(([yv.sum()], X.T @ yv))
        coef = V @ ((V.T @ rhs) / (s * s))
    else:
        coef, _, _, s = np.linalg.lstsq(with_intercept(X), yv, rcond=EPS_RANK)
        rank = matrix_rank_from_singular_values(s)
        if rank < q:
            raise SingularDesignError(
                f"design is rank deficient: numerical rank {rank} < {q} columns",
                rank=rank,
            )
    return LinearFit(float(coef[0]), coef[1:], s)


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
