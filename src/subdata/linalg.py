"""Dense linear algebra kernels shared by the selectors and the harness.

Everything here is a thin, contract-checked layer over LAPACK via
numpy.linalg. The two quantities the selection algorithms actually consume
are row leverage scores (squared row norms of the thin-SVD factor U) and
condition numbers of small symmetric Gram matrices. One factorization,
``_gram_factor``, serves leverage, every OLS fit and its logdet, and
EPS_RANK is the one rule for the rank of a matrix.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError

# Relative cutoff below which a singular/eigen value is treated as zero.
EPS_RANK = 1e-12

# Absolute tolerance for the symmetry check in condition_number.
SYMMETRY_TOL = 1e-8

# The Gram-Cholesky path loses orthonormality of U, and accuracy of a
# least-squares fit, at roughly eps * cond**2; beyond this cutoff
# (cond**2 = 1e5) we pay for an SVD of the matrix itself instead (gesdd
# in thin_svd, gelsd in regression.fit_ols), so that U stays orthonormal
# to ~1e-11.
_FAST_PATH_MAX_COND = math.sqrt(1e5)

# thread-count (setter, getter) of the numpy wheel's OpenBLAS, then that of
# a scipy wheel, whose OpenBLAS a caller may load beside it
_OPENBLAS_THREAD_FUNCS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def _openblas_libraries() -> list[tuple]:
    """(setter, getter) of each OpenBLAS library in ``/proc/self/maps``."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return []
    libs = [ctypes.CDLL(path) for path in sorted(paths)]
    found = [(getattr(lib, set_name), getattr(lib, get_name)) for lib in libs
             for set_name, get_name in _OPENBLAS_THREAD_FUNCS if hasattr(lib, set_name)]
    for setter, getter in found:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
    return found


@contextmanager
def blas_threads(n: int):
    """Pin every loaded OpenBLAS library to ``n`` threads within the block.

    On exit, by an exception too, each gets back the (process-wide) count
    it had. Yields how many were pinned: 0, changing nothing, under
    another BLAS (MKL, Accelerate) or without ``/proc/self/maps``.
    """
    libs = _openblas_libraries()
    previous = [get() for _set, get in libs]
    try:
        for set_count, _get in libs:
            set_count(n)
        yield len(libs)
    finally:
        for (set_count, _get), count in zip(libs, previous):
            set_count(count)


def _whole_number(value, name: str, least: int, what: str) -> int:
    """``value`` as an int, or ConfigError unless it is whole and >= ``least``."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = least - 1
    if whole != value or whole < least:
        raise ConfigError(f"{name} must be a {what} integer, got {value!r}")
    return whole


def positive_integer(value, name: str) -> int:
    """``value`` as an int, or ConfigError unless it is a whole number >= 1.

    Whole floats such as 20.0 pass; fractions, NaN and infinities fail.
    """
    return _whole_number(value, name, 1, "positive")


def seed_integer(value) -> int:
    """``value`` as an int, or ConfigError unless it is a whole number >= 0.

    numpy's generators refuse negative seeds with a bare ValueError.
    """
    return _whole_number(value, "seed", 0, "non-negative")


@dataclass(frozen=True)
class DataMatrix:
    """An n x p covariate matrix with an optional response vector.

    Construction validates shape and finiteness once so downstream code
    can skip per-call checks. Both arrays are float64 and row-major
    (C-contiguous): an input of any other layout is copied once, so
    every consumer sums in the same order and equal numbers give equal
    results wherever they came from. Instances are immutable.
    """

    values: np.ndarray
    response: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64, order="C")
        if vals.ndim != 2:
            raise DimensionError(f"expected a 2-d matrix, got ndim={vals.ndim}")
        if vals.shape[0] < 1 or vals.shape[1] < 1:
            raise DimensionError(f"matrix must be at least 1 x 1, got {vals.shape}")
        if not np.isfinite(vals).all():
            raise ContractError("covariate matrix contains non-finite entries")
        object.__setattr__(self, "values", vals)
        if self.response is not None:
            resp = np.asarray(self.response, dtype=np.float64, order="C")
            if resp.ndim != 1 or resp.shape[0] != vals.shape[0]:
                raise DimensionError(
                    f"response must be 1-d with length {vals.shape[0]}, "
                    f"got shape {resp.shape}"
                )
            if not np.isfinite(resp).all():
                raise ContractError("response contains non-finite entries")
            object.__setattr__(self, "response", resp)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def take(self, indices) -> "DataMatrix":
        """Row subset as a new DataMatrix (response rows come along).

        ``np.take`` gathers the same rows as fancy indexing, negative
        indices and the IndexError out of range included, without its
        per-row overhead. Indices that are not integers (a boolean mask,
        floats) are a ContractError rather than cast.
        """
        idx = np.asarray(indices)
        if idx.size and not np.issubdtype(idx.dtype, np.integer):
            raise ContractError(f"row indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.intp, copy=False)
        resp = None if self.response is None else np.take(self.response, idx)
        return DataMatrix(np.take(self.values, idx, axis=0), resp)


def as_data_matrix(x) -> DataMatrix:
    """Coerce a plain array (or pass through a DataMatrix) to DataMatrix."""
    if isinstance(x, DataMatrix):
        return x
    return DataMatrix(np.asarray(x))


class SvdFactors(NamedTuple):
    """Thin SVD ``X = U @ diag(singular_values) @ V.T``.

    U is n x p with orthonormal columns, singular_values is length p and
    nonincreasing, V is p x p orthogonal.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray


def _gram_factor(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(s, V) of a Gram matrix A'A, or None off the Gram path.

    The one factorization of the Gram path: the upper Cholesky factor R
    (A'A = R'R) and one SVD of R, whose singular values s (descending)
    and right singular vectors V are those of A. The Gram matrix squares
    the condition number, so this is None when the Cholesky fails (A'A
    is not numerically positive definite), the SVD does not converge,
    or s spreads wider than ``_FAST_PATH_MAX_COND``; the caller then
    factors A itself. thin_svd (leverage) and regression.fit_ols (the
    coefficients, the singular values every logdet reads) share it.
    """
    try:
        R = np.linalg.cholesky(gram, upper=True)
        _Ur, s, Vt = np.linalg.svd(R)
    except np.linalg.LinAlgError:
        return None
    if s[0] > 0.0 and s[-1] > s[0] / _FAST_PATH_MAX_COND:
        return s, Vt.T
    return None


def thin_svd(X) -> SvdFactors:
    """Thin singular value decomposition of an n x p matrix, n >= p.

    For clearly tall, well-conditioned inputs the factorization runs
    through the Cholesky factor R of the Gram matrix X'X followed by an
    SVD of R, so U = X V / s costs one pass over X for the Gram matrix
    and one for U. The Gram matrix squares the condition number, so a
    Cholesky that fails, a singular value spread above
    ``_FAST_PATH_MAX_COND`` (sqrt(1e5)) and near-square inputs fall back
    to LAPACK gesdd, and U keeps orthonormal columns in all cases. A
    badly scaled column fails the same guard and takes gesdd.

    Parameters
    ----------
    X : DataMatrix or array_like
        Input matrix, n x p with n >= p.

    Returns
    -------
    SvdFactors
        Factors (U, singular_values, V) with X = U @ diag(s) @ V.T.

    Raises
    ------
    DimensionError
        If n < p.
    NumericError
        If the underlying LAPACK routine does not converge.
    """
    A = as_data_matrix(X).values
    n, p = A.shape
    if n < p:
        raise DimensionError(f"thin_svd requires n >= p, got n={n}, p={p}")
    factor = _gram_factor(A.T @ A) if n >= 2 * p else None
    if factor is not None:
        s, V = factor
        return SvdFactors(A @ (V / s), s, V)
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hardware dependent
        raise NumericError(f"SVD failed to converge: {exc}") from exc
    return SvdFactors(U, s, Vt.T)


def matrix_rank_from_singular_values(s: np.ndarray) -> int:
    """Number of singular values above the relative EPS_RANK cutoff."""
    s = np.asarray(s, dtype=np.float64)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > s[0] * EPS_RANK))


def leverage_scores(factors: SvdFactors) -> np.ndarray:
    """Leverage score of every row: squared row norm of the U factor.

    Only the U columns belonging to nonzero singular values enter, so the
    scores equal the diagonal of the hat matrix X (X'X)^-1 X' whenever X
    has full column rank, each score lies in [0, 1], and they sum to
    rank(X).

    Parameters
    ----------
    factors : SvdFactors
        Output of :func:`thin_svd`.

    Returns
    -------
    numpy.ndarray
        Length-n vector of leverage scores.
    """
    r = matrix_rank_from_singular_values(factors.singular_values)
    U = factors.U[:, :r]
    return np.einsum("ij,ij->i", U, U)


def condition_number(B) -> float:
    """Condition number lambda_max / lambda_min of a symmetric PSD matrix.

    Returns +inf when the matrix is numerically singular, i.e. when
    lambda_min <= EPS_RANK * lambda_max.

    Parameters
    ----------
    B : array_like
        Square symmetric positive semidefinite matrix.

    Raises
    ------
    DimensionError
        If B is not square.
    ContractError
        If B deviates from symmetry by more than SYMMETRY_TOL, or has a
        clearly negative eigenvalue.
    """
    M = np.asarray(B, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"condition_number needs a square matrix, got {M.shape}")
    if M.shape[0] == 0:
        raise DimensionError("condition_number needs at least a 1 x 1 matrix")
    scale = max(1.0, float(np.max(np.abs(M))))
    if float(np.max(np.abs(M - M.T))) > SYMMETRY_TOL * scale:
        raise ContractError("condition_number requires a symmetric matrix")
    try:
        eigs = np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    lam_max = float(eigs[-1])
    lam_min = float(eigs[0])
    if lam_max <= 0.0:
        return math.inf
    if lam_min < -SYMMETRY_TOL * lam_max:
        raise ContractError("condition_number requires a PSD matrix")
    if lam_min <= EPS_RANK * lam_max:
        return math.inf
    return lam_max / lam_min


def logdet_from_singular_values(s: np.ndarray, sigma2: float) -> float:
    """Log determinant of (1/sigma2) * Z'Z from the singular values s of Z.

    det(Z'Z) is the product of the s**2, so this is
    2 * sum(log s) - q * log(sigma2) for q = len(s) columns, and -inf
    when Z has rank below q under the EPS_RANK rule
    (:func:`matrix_rank_from_singular_values`). sigma2 must be positive.
    """
    if not sigma2 > 0.0:
        raise ConfigError(f"sigma2 must be positive, got {sigma2}")
    if matrix_rank_from_singular_values(s) < s.size:
        return -math.inf
    return float(2.0 * np.log(s).sum() - s.size * math.log(sigma2))


def logdet_info(Z, sigma2: float) -> float:
    """Log determinant of the information matrix (1/sigma2) * Z'Z.

    Z is the k x (p+1) subdata design including its leading intercept
    column; k must be at least p+1 for the determinant to have a chance
    of being positive. The value comes from Z's singular values
    (:func:`logdet_from_singular_values`), so it is -inf when Z's rank
    falls below p+1 under the EPS_RANK rule that leverage and every
    fit use, and when Z holds a NaN or an inf.

    Parameters
    ----------
    Z : array_like
        Subdata design matrix, k x (p+1).
    sigma2 : float
        Error variance, must be positive.
    """
    M = np.asarray(Z, dtype=np.float64)
    if M.ndim != 2:
        raise DimensionError(f"expected a 2-d design, got ndim={M.ndim}")
    k, q = M.shape
    if k < q:
        raise DimensionError(
            f"need at least as many rows as columns for a nonsingular "
            f"information matrix, got {k} rows for {q} columns"
        )
    # a Z with a NaN or an inf has no finite determinant: rank 0
    s = np.linalg.svdvals(M) if np.isfinite(M).all() else np.zeros(q)
    return logdet_from_singular_values(s, sigma2)
