"""Subdata selection algorithms.

Four selectors share one result type:

- :func:`select_levss`: rows ranked by leverage score, with an optional
  condition-number stopping rule and random down-selection when the rule
  admits more than k rows.
- :func:`select_iboss`: per-covariate extreme values, smallest and largest,
  taken sequentially with earlier picks excluded.
- :func:`select_oss`: greedy minimization of a pairwise discrepancy that
  rewards long, sign-balanced rows after scaling each column to [-1, 1].
- :func:`select_uniform`: seeded uniform sampling without replacement.

All selectors return exactly ``k`` distinct row indices and report their
own wall-clock time, so harness code can compare them on equal terms.

Many subdata sizes on one matrix can share the work that depends on the
matrix alone: :func:`rank_by_leverage` factors once for every
:func:`select_levss` call, :func:`iboss_tails` sorts each column's tails
once for every :func:`select_iboss` call, and the :func:`select_oss`
selection of size k is the first k rows of any longer run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ScalingError
from .linalg import (
    as_data_matrix,
    condition_number,
    leverage_scores,
    matrix_rank_from_singular_values,
    positive_integer,
    thin_svd,
)

_EMPTY_TRACE = np.empty(0, dtype=np.float64)

# rows per block of _column_extrema's long-row reduction
_EXTREMA_ROWS = 64


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selector run.

    Attributes
    ----------
    indices : numpy.ndarray
        Exactly k distinct row indices into the input matrix.
    k_star : int
        Number of rows the acceptance rule admitted before any random
        down-selection. Equal to ``len(indices)`` except for the
        leverage selector with a threshold, where it may be larger.
    condition_trace : numpy.ndarray
        Condition numbers evaluated by the leverage selector's stopping
        rule, one entry per evaluation starting at subdata size k. Empty
        when no threshold is in force and for every other selector.
    elapsed : float
        Selection wall-clock seconds, measured inside the selector. A
        selection served from a :class:`LeverageRanking` counts the
        ranking's seconds in full besides its own.
    """

    indices: np.ndarray
    k_star: int
    condition_trace: np.ndarray
    elapsed: float


def _argsort_head(v: np.ndarray, m: int) -> np.ndarray:
    """The first m positions of ``v`` in (value, position) order.

    Equal to ``np.argsort(v, kind="stable")[:m]``, but only the block of
    positions at or below the m-th smallest value is sorted, so the cost
    is linear in ``v.size`` plus a sort of that block.
    """
    if m >= v.size:
        return np.argsort(v, kind="stable")
    if m <= 0:
        return np.empty(0, dtype=np.intp)
    edge = np.partition(v, m - 1)[m - 1]
    block = np.flatnonzero(v <= edge)  # ascending positions, ties included
    return block[np.argsort(v[block], kind="stable")[:m]]


def _stopping_threshold(threshold) -> float:
    """``threshold`` as a float, or ConfigError unless it is >= 1 (NaN fails)."""
    t = float(threshold)
    if not t >= 1.0:
        raise ConfigError(
            f"threshold must be >= 1 (condition numbers never go "
            f"lower), got {threshold!r}"
        )
    return t


@dataclass(frozen=True)
class LevssConfig:
    """Configuration for :func:`select_levss`.

    ``threshold`` is the condition-number bound T. ``None`` disables the
    stopping rule entirely: selection stops at exactly k rows and no
    randomness is consumed. ``seed`` feeds the down-selection draw that
    only happens when the rule admits more than k rows.
    """

    k: int
    threshold: float | None = None
    seed: int | None = 0

    def __post_init__(self):
        object.__setattr__(self, "k", positive_integer(self.k, "k"))
        if self.threshold is not None:
            object.__setattr__(self, "threshold", _stopping_threshold(self.threshold))


class LeverageRanking:
    """The part of leverage selection that depends on the matrix alone.

    One ranking serves every (k, threshold, seed) cell on its matrix:
    pass it to :func:`select_levss` in place of the matrix.

    Attributes
    ----------
    scores : numpy.ndarray
        Leverage score of every row.
    U : numpy.ndarray
        The thin-SVD factor's columns for the nonzero singular values,
        n x rank; the stopping rule reads its rows.
    p : int
        Column count of the ranked matrix.
    elapsed : float
        Wall-clock seconds the factorization and the scores took.
    """

    def __init__(self, scores: np.ndarray, U: np.ndarray, p: int, elapsed: float):
        self.scores, self.U, self.p, self.elapsed = scores, U, p, elapsed
        self._top = np.empty(0, dtype=np.intp)

    @property
    def n(self) -> int:
        return self.scores.size

    def top(self, m: int) -> np.ndarray:
        """The first m rows by descending leverage, equal scores by ascending row.

        Rows come from a cached head of the ranking. A request beyond it
        sorts a new head at least twice as long; only ``m >= n`` sorts
        every score. The result is a view of the cache: copy it to keep.
        """
        if m > self._top.size:
            size = min(self.n, max(m, 2 * self._top.size))
            self._top = _argsort_head(-self.scores, size)
        return self._top[:m]


def rank_by_leverage(X) -> LeverageRanking:
    """Factor X once and score its rows by leverage; rows are ranked on demand.

    Parameters
    ----------
    X : DataMatrix or array_like
        Matrix to rank, n x p with n >= p.

    Returns
    -------
    LeverageRanking
    """
    t0 = time.perf_counter()
    dm = as_data_matrix(X)
    factors = thin_svd(dm)
    scores = leverage_scores(factors)
    r = matrix_rank_from_singular_values(factors.singular_values)
    return LeverageRanking(scores, factors.U[:, :r], dm.p, time.perf_counter() - t0)


def _levss_size(n: int, p: int, k: int) -> None:
    """ConfigError unless p < k < n, the sizes leverage selection needs."""
    if k <= p:
        raise ConfigError(f"leverage selection needs k > p, got k={k}, p={p}")
    if n <= k:
        raise ConfigError(f"leverage selection needs n > k, got n={n}, k={k}")


def select_levss(X, config: LevssConfig) -> SelectionResult:
    """Leverage-ordered subdata selection with optional stopping rule.

    Rows are ranked by leverage score (ties broken by ascending row
    index) and accepted in that order. The first k acceptances are
    unconditional. With a threshold T, acceptance then continues while
    the condition number of U_sel' U_sel, the Gram matrix of the
    selected rows of the thin-SVD factor U, stays at or above T; each
    evaluated condition number is appended to ``condition_trace``. The
    first evaluation happens at size k, so with T = +inf and a
    well-conditioned size-k subdata the rule stops immediately and
    k_star == k.

    When the rule admits k_star > k rows, a seeded shuffle keeps k of
    them. Without a threshold no condition numbers are computed and no
    randomness is consumed, so the output is a pure function of X.

    Rows are ranked by the leverage of exactly the matrix given: the
    hat diagonal of X itself, with no intercept column added. To rank
    by the leverage of a model with an intercept, pass [1, X] (see
    :func:`~subdata.regression.with_intercept`); the ``k > p`` check
    then counts the intercept column, and the stopping rule sees the
    same design.

    Several selections on one matrix can share its factorization: pass
    ``rank_by_leverage(X)`` as X to each. A matrix given as such is
    ranked within the call, so ``select_levss(X, config)`` equals
    ``select_levss(rank_by_leverage(X), config)`` in every field but
    ``elapsed``.

    Parameters
    ----------
    X : DataMatrix, array_like or LeverageRanking
        Design matrix, n x p: the covariates, or the covariates with a
        leading column of ones; or its ranking.
    config : LevssConfig
        Subdata size k, optional threshold, down-selection seed.

    Returns
    -------
    SelectionResult
        With a ranking given, ``elapsed`` counts the ranking's own
        seconds in full besides this call's.

    Raises
    ------
    ConfigError
        If k <= p or n <= k.
    """
    t0 = time.perf_counter()
    shared = isinstance(X, LeverageRanking)
    source = X if shared else as_data_matrix(X)
    if shared:
        t0 -= X.elapsed  # every cell served from a ranking counts it in full
    n, k = source.n, config.k
    _levss_size(n, source.p, k)
    ranking = source if shared else rank_by_leverage(source)
    order = ranking.top(k)

    if config.threshold is None:
        indices = order.copy()
        elapsed = time.perf_counter() - t0
        return SelectionResult(indices, k, _EMPTY_TRACE, elapsed)

    T = config.threshold
    U = ranking.U
    r = U.shape[1]
    taken = U[order[:k]]
    gram = taken.T @ taken
    trace = []
    size = k
    kappa = condition_number(gram) if r > 0 else np.inf
    trace.append(kappa)
    while kappa >= T and size < n:
        if size == order.size:
            order = ranking.top(n)  # the walk passed the cached head
        u = U[order[size]]
        gram += np.outer(u, u)
        size += 1
        kappa = condition_number(gram) if r > 0 else np.inf
        trace.append(kappa)

    accepted = order[:size]
    if size > k:
        rng = np.random.default_rng(config.seed)
        keep = np.sort(rng.permutation(size)[:k])
        indices = accepted[keep]
    else:
        indices = accepted.copy()
    elapsed = time.perf_counter() - t0
    return SelectionResult(indices, size, np.asarray(trace, dtype=np.float64), elapsed)


def _iboss_quotas(k: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-covariate (min side, max side) counts summing to k.

    The base allocation is r = floor(k / (2p)) per side per covariate.
    Leftover budget is handed out as one extra min+max pair to covariate
    0, 1, ... until exhausted; a final odd point goes to the max side of
    the next covariate in line.
    """
    r = k // (2 * p)
    m = k - 2 * p * r
    pairs, odd = divmod(m, 2)
    lo = np.full(p, r, dtype=np.intp)
    hi = np.full(p, r, dtype=np.intp)
    lo[:pairs] += 1
    hi[:pairs] += 1
    if odd:
        hi[pairs] += 1
    return lo, hi


@dataclass(frozen=True)
class IbossTails:
    """The part of extreme-value selection that depends on the matrix alone.

    One set of tails serves every subdata size k <= ``depth`` on its
    matrix: pass it to :func:`select_iboss` in place of the matrix.

    Attributes
    ----------
    lo : numpy.ndarray
        p x depth; row j holds the ``depth`` rows with the smallest
        values of covariate j in (value, row) order.
    hi : numpy.ndarray
        p x depth; row j holds the ``depth`` rows with the largest
        values of covariate j, by descending value, equal values in
        ascending row order.
    n : int
        Row count of the matrix.
    elapsed : float
        Wall-clock seconds the tails took.
    """

    lo: np.ndarray
    hi: np.ndarray
    n: int
    elapsed: float

    @property
    def p(self) -> int:
        return self.lo.shape[0]

    @property
    def depth(self) -> int:
        return self.lo.shape[1]


def iboss_tails(X, depth: int) -> IbossTails:
    """Sort the two tails of every column of X once, ``depth`` rows each.

    Columns are taken one at a time, so no copy of the whole matrix is
    made. ``depth`` above n is cut to n.

    Parameters
    ----------
    X : DataMatrix or array_like
        Covariate matrix, n x p.
    depth : int
        Rows per tail: the largest subdata size the tails will serve.

    Returns
    -------
    IbossTails
    """
    t0 = time.perf_counter()
    dm = as_data_matrix(X)
    depth = min(positive_integer(depth, "depth"), dm.n)
    lo = np.empty((dm.p, depth), dtype=np.intp)
    hi = np.empty((dm.p, depth), dtype=np.intp)
    for j in range(dm.p):
        col = dm.values[:, j].copy()  # negated in place below
        lo[j] = _argsort_head(col, depth)
        np.negative(col, out=col)
        hi[j] = _argsort_head(col, depth)
    return IbossTails(lo, hi, dm.n, time.perf_counter() - t0)


def _iboss_size(n: int, p: int, k) -> int:
    """``k`` as an int, or ConfigError unless it is whole and 2p <= k <= n."""
    k = positive_integer(k, "k")
    if k < 2 * p:
        raise ConfigError(
            f"extreme-value selection needs k >= 2p so each covariate "
            f"keeps both tails, got k={k}, p={p}"
        )
    if k > n:
        raise ConfigError(f"cannot select k={k} rows from n={n}")
    return k


def select_iboss(X, k: int) -> SelectionResult:
    """Extreme-value subdata selection, one covariate at a time.

    Covariate j contributes the rows with its smallest values and then
    the rows with its largest values, skipping rows already selected by
    earlier covariates. Within a tail, rows come in (value, row) order:
    by ascending value for the smallest, by descending value for the
    largest, equal values in ascending row order, so the selected set
    and its order are a function of the data alone.

    Several selections on one matrix can share its sorted tails: pass
    ``iboss_tails(X, K)`` as X to each selection of size k <= K. A pass
    that needs ``want`` rows after ``taken`` earlier picks reads only
    the first ``want + taken`` rows of its tail, so a selection served
    from tails costs O(p k). A matrix given as such gets tails of depth
    k within the call, so ``select_iboss(X, k)`` equals
    ``select_iboss(iboss_tails(X, K), k)`` in every field but
    ``elapsed``.

    Parameters
    ----------
    X : DataMatrix, array_like or IbossTails
        Covariate matrix, n x p; or its tails.
    k : int
        Subdata size, a whole number with 2p <= k <= n so every
        covariate gets at least one point per tail.

    Returns
    -------
    SelectionResult
        ``k_star`` equals k and the condition trace is empty. With tails
        given, ``elapsed`` counts the tails' own seconds in full besides
        this call's.

    Raises
    ------
    ConfigError
        If k is not whole, k < 2p, k > n, or k exceeds the depth of the
        tails given.
    """
    t0 = time.perf_counter()
    shared = isinstance(X, IbossTails)
    source = X if shared else as_data_matrix(X)
    if shared:
        t0 -= X.elapsed  # every cell served from tails counts them in full
    n, p = source.n, source.p
    k = _iboss_size(n, p, k)
    tails = source if shared else iboss_tails(source, k)
    if k > tails.depth:
        raise ConfigError(f"tails of depth {tails.depth} cannot serve k={k}")

    lo_quota, hi_quota = _iboss_quotas(k, p)
    avail = np.ones(n, dtype=bool)
    out = np.empty(k, dtype=np.intp)
    pos = 0
    for j in range(p):
        for want, order in ((lo_quota[j], tails.lo[j]), (hi_quota[j], tails.hi[j])):
            # at most pos of the first want + pos rows are taken already
            head = order[:want + pos]
            chosen = head[avail[head]][:want]
            avail[chosen] = False
            out[pos:pos + want] = chosen
            pos += want
    elapsed = time.perf_counter() - t0
    return SelectionResult(out, k, _EMPTY_TRACE, elapsed)


def _column_extrema(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's minimum and maximum, as ``vals.min(axis=0)`` and ``.max``.

    Reducing a C-ordered n x p array over axis 0 walks p-long rows, which
    costs per-row overhead when p is small. The first n - n mod
    _EXTREMA_ROWS rows are viewed as rows of _EXTREMA_ROWS * p values
    and reduced over those long rows, the _EXTREMA_ROWS partial results
    are folded, and so are the remaining rows. A min or max is exact, so
    the order changes nothing but, at most, the sign of a zero extreme.
    """
    n, p = vals.shape
    head = n - n % _EXTREMA_ROWS
    if not head or not vals.flags.c_contiguous:
        return vals.min(axis=0), vals.max(axis=0)
    blocks = vals[:head].reshape(-1, _EXTREMA_ROWS * p)
    lo = blocks.min(axis=0).reshape(_EXTREMA_ROWS, p).min(axis=0)
    hi = blocks.max(axis=0).reshape(_EXTREMA_ROWS, p).max(axis=0)
    if head < n:
        np.minimum(lo, vals[head:].min(axis=0), out=lo)
        np.maximum(hi, vals[head:].max(axis=0), out=hi)
    return lo, hi


def _scale_to_unit_box(vals: np.ndarray) -> np.ndarray:
    """Column-wise affine map onto [-1, 1] using each column's min/max.

    The result is bit for bit ``2 * (vals - lo) / (hi - lo) - 1``: the
    sign of a zero extreme cannot reach it.
    """
    lo, hi = _column_extrema(vals)
    span = hi - lo
    flat = np.flatnonzero(span == 0.0)
    if flat.size:
        j = int(flat[0])
        raise ScalingError(
            f"column {j} is constant and cannot be scaled to [-1, 1]", column=j
        )
    # 2 (vals - lo) / span - 1, in place on one n x p buffer
    Z = vals - lo
    Z *= 2.0
    Z /= span
    Z -= 1.0
    return Z


def _pack_signs(Z: np.ndarray) -> np.ndarray:
    """Each row's bits [Z > 0 | Z < 0] as unsigned words, one row per word column.

    The word is the narrowest of uint8, uint16 and uint32 that holds 2p
    bits; wider patterns take ceil(2p / 64) uint64 words. The result has
    shape (words per row, n), so each word's column is contiguous.
    """
    n, p = Z.shape
    width = next((w for w in (1, 2, 4) if 2 * p <= 8 * w), 8)
    nwords = -(-2 * p // (8 * width))
    # each row padded with zero bits to whole words, so one flat packbits
    # call packs every row without per-row overhead
    bits = np.zeros((n, 8 * width * nwords), dtype=bool)
    np.greater(Z, 0.0, out=bits[:, :p])
    np.less(Z, 0.0, out=bits[:, p:2 * p])
    words = np.packbits(bits, axis=None, bitorder="little").view(f"u{width}")
    return np.ascontiguousarray(words.reshape(n, nwords).T)


def select_oss(X, k: int) -> SelectionResult:
    """Greedy discrepancy-minimizing selection on the scaled unit box.

    After scaling each column to [-1, 1], the loss of a candidate row z
    against a selected row x is

        (p - |z|^2 / 2 - |x|^2 / 2 + delta(z, x))^2

    where delta counts coordinates on which z and x share a strict sign.
    The first selected row maximizes |z|^2; every later step adds the
    candidate with the smallest summed loss against the current
    selection, ties going to the lowest row index. The greedy is
    deterministic and consumes no randomness. No step looks at k, so
    the selection of size k is the first k rows of any longer run on
    the same matrix.

    Each row's strict signs are packed into one 2p-bit pattern
    [z > 0 | z < 0], held in the narrowest unsigned word that fits
    (uint8, uint16, uint32, else as many uint64 words as needed), so
    delta(z, x) is the popcount of the two patterns' AND: an exact
    integer, zero on coordinates whose scaled entry is exactly 0. Each
    step then adds the new row's loss term to every candidate's running
    score, summed in selection order as the naive greedy sums it, and a
    picked row's score is pinned at +inf so it is never picked again.

    Parameters
    ----------
    X : DataMatrix or array_like
        Covariate matrix, n x p.
    k : int
        Subdata size, a whole number with 2 <= k < n.

    Returns
    -------
    SelectionResult
        ``k_star`` equals k and the condition trace is empty.

    Raises
    ------
    ConfigError
        If k is not a whole number, k < 2 or k >= n.
    ScalingError
        If some column is constant, naming that column.
    """
    t0 = time.perf_counter()
    dm = as_data_matrix(X)
    n, p = dm.n, dm.p
    k = positive_integer(k, "k")
    if k < 2:
        raise ConfigError(f"discrepancy selection needs k >= 2, got k={k}")
    if k >= n:
        raise ConfigError(f"discrepancy selection needs n > k, got n={n}, k={k}")

    Z = _scale_to_unit_box(dm.values)
    norms2 = np.einsum("ij,ij->i", Z, Z)
    u = p - 0.5 * norms2          # candidate-side constant of the loss
    b = 0.5 * norms2              # selected-side constant
    words = _pack_signs(Z)        # (words per row) x n

    both = np.empty(n, dtype=words.dtype)
    count = np.empty(n, dtype=np.uint8)
    delta = np.empty(n, dtype=np.min_scalar_type(p))  # delta <= p, summed exactly
    term = np.empty(n)
    scores = np.zeros(n)
    chosen = np.empty(k, dtype=np.intp)

    current = int(np.argmax(norms2))
    chosen[0] = current
    scores[current] = np.inf
    for step in range(1, k):
        mine = words[:, current]
        np.bitwise_count(np.bitwise_and(words[0], mine[0], out=both), out=delta)
        for w in range(1, words.shape[0]):
            np.bitwise_count(np.bitwise_and(words[w], mine[w], out=both), out=count)
            delta += count
        np.subtract(u, b[current], out=term)
        term += delta
        np.square(term, out=term)
        scores += term
        current = int(np.argmin(scores))
        chosen[step] = current
        scores[current] = np.inf

    elapsed = time.perf_counter() - t0
    return SelectionResult(chosen, k, _EMPTY_TRACE, elapsed)


def select_uniform(X, k: int, seed: int | None = 0) -> SelectionResult:
    """Uniform sampling of k distinct rows via a seeded shuffle.

    ``k == n`` returns every index in natural order, which makes the
    exhaustive draw bit-for-bit reproducible in downstream fits.
    """
    t0 = time.perf_counter()
    dm = as_data_matrix(X)
    n = dm.n
    k = positive_integer(k, "k")
    if k > n:
        raise ConfigError(f"uniform selection needs 1 <= k <= n, got k={k}, n={n}")
    if k == n:
        indices = np.arange(n, dtype=np.intp)
    else:
        rng = np.random.default_rng(seed)
        indices = rng.permutation(n)[:k]
    elapsed = time.perf_counter() - t0
    return SelectionResult(indices, k, _EMPTY_TRACE, elapsed)
