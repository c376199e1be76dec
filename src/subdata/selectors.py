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
selection of size k is the first k rows of any longer run. Given a
:class:`Resample`, a matrix of rows drawn with replacement that keeps
its row map, :func:`select_oss` prepares each distinct row once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, ScalingError
from .linalg import (
    DataMatrix,
    as_data_matrix,
    condition_number,
    leverage_scores,
    matrix_rank_from_singular_values,
    positive_integer,
    seed_integer,
    thin_svd,
)

_EMPTY_TRACE = np.empty(0, dtype=np.float64)

# rows per block of _column_extrema's long-row reduction
_EXTREMA_ROWS = 64

# rows per block of the OSS preparation pass (_oss_rows)
_OSS_BLOCK_ROWS = 4096

# _argsort_head takes its bound from every _HEAD_STRIDE-th value
_HEAD_STRIDE = 32

# classes the OSS greedy ranks on a sign pattern's first need; each
# later ranking doubles the ranked front
_RANK_DEPTH = 128

# columns iboss_tails copies per pass over the rows
_TAIL_COLUMNS = 8


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
        Selection wall-clock seconds, measured inside the selector: the
        time of the call that returned it. A selection served from a
        :class:`LeverageRanking` or :class:`IbossTails` counts its own
        seconds only, not those of the ranking or tails.
    """

    indices: np.ndarray
    k_star: int
    condition_trace: np.ndarray
    elapsed: float


def _argsort_head(v: np.ndarray, m: int) -> np.ndarray:
    """The first m positions of ``v`` in (value, position) order.

    Equal to ``np.argsort(v, kind="stable")[:m]`` (empty for m <= 0),
    but only a block of positions at or below a bound is sorted. The
    bound is a quantile of every _HEAD_STRIDE-th value, the sample's
    j-th smallest with j about m / 32 + 3 sqrt(m / 32) + 2, in the
    manner of Floyd & Rivest, "Expected time bounds for selection"
    (CACM 1975): the block almost always holds the m smallest values
    with some to spare, and no selection over all of ``v`` runs. Any
    bound whose block holds at least m positions gives the exact head,
    since the block then holds every value up to the m-th smallest,
    ties included. Should the block fall short, the bound widens to
    later quantiles of the sample and finally to every position, which
    also covers NaN. The cost is linear in ``v.size`` plus a sort of
    the block.
    """
    if m >= v.size:
        return np.argsort(v, kind="stable")
    if m <= 0:
        return np.empty(0, dtype=np.intp)
    sample = v[::_HEAD_STRIDE]
    expected = m / _HEAD_STRIDE          # sampled values among the m smallest
    j = int(expected + 3.0 * expected ** 0.5) + 2
    while j < sample.size:
        bound = np.partition(sample, j)[j]
        block = np.flatnonzero(v <= bound)  # ascending positions, ties included
        if block.size >= m:
            return block[np.argsort(v[block], kind="stable")[:m]]
        j = 2 * j + 1
    return np.argsort(v, kind="stable")[:m]


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
    only happens when the rule admits more than k rows; it must be a
    whole number >= 0 or ``None`` either way, so a config that works on
    one matrix works on every other.
    """

    k: int
    threshold: float | None = None
    seed: int | None = 0

    def __post_init__(self):
        object.__setattr__(self, "k", positive_integer(self.k, "k"))
        if self.seed is not None:
            object.__setattr__(self, "seed", seed_integer(self.seed))
        if self.threshold is not None:
            object.__setattr__(self, "threshold", _stopping_threshold(self.threshold))


@dataclass(frozen=True)
class LeverageRanking:
    """The part of leverage selection that depends on the matrix alone.

    One ranking serves every (k, threshold, seed) cell on its matrix
    up to its head's length: pass it to :func:`select_levss` instead.

    Attributes
    ----------
    scores : numpy.ndarray
        Leverage score of every row.
    U : numpy.ndarray
        The thin-SVD factor's columns for the nonzero singular values,
        n x rank; the stopping rule reads its rows.
    head : numpy.ndarray
        The first rows by descending leverage, equal scores by ascending row.
    p : int
        Column count of the ranked matrix.
    elapsed : float
        Wall-clock seconds the factorization, the scores and the head took.
    """

    scores: np.ndarray
    U: np.ndarray
    head: np.ndarray
    p: int
    elapsed: float

    @property
    def n(self) -> int:
        return self.scores.size


def rank_by_leverage(X, depth: int) -> LeverageRanking:
    """Factor X once, score its rows by leverage and sort the first ``depth``.

    Parameters
    ----------
    X : DataMatrix or array_like
        Matrix to rank, n x p with n >= p.
    depth : int
        Rows in the head, cut to n: the largest k the ranking will serve.

    Returns
    -------
    LeverageRanking
    """
    t0 = time.perf_counter()
    dm = as_data_matrix(X)
    depth = min(positive_integer(depth, "depth"), dm.n)
    factors = thin_svd(dm)
    scores = leverage_scores(factors)
    r = matrix_rank_from_singular_values(factors.singular_values)
    head = _argsort_head(-scores, depth)  # only the head's block is sorted
    return LeverageRanking(scores, factors.U[:, :r], head, dm.p, time.perf_counter() - t0)


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
    ``rank_by_leverage(X, K)`` as X to each selection of size k <= K.
    A matrix given as such is ranked to depth k within the call, so
    ``select_levss(X, config)`` equals
    ``select_levss(rank_by_leverage(X, K), config)`` in every field but
    ``elapsed``. A stopping-rule walk past the head sorts every score.

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
        With a ranking given, ``elapsed`` counts this call's seconds
        only; the ranking carries its own.

    Raises
    ------
    ConfigError
        If k <= p, n <= k, or k exceeds the head of the ranking given.
    """
    t0 = time.perf_counter()
    shared = isinstance(X, LeverageRanking)
    source = X if shared else as_data_matrix(X)
    n, k = source.n, config.k
    _levss_size(n, source.p, k)
    ranking = source if shared else rank_by_leverage(source, k)
    if k > ranking.head.size:
        raise ConfigError(f"ranking of depth {ranking.head.size} cannot serve k={k}")
    order = ranking.head

    if config.threshold is None:
        indices = order[:k].copy()
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
            order = _argsort_head(-ranking.scores, n)  # the walk passed the head
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

    Columns are copied _TAIL_COLUMNS at a time into contiguous rows, one
    block of _OSS_BLOCK_ROWS rows after another, so each block is read
    once per group of columns rather than once per column; no copy of
    the whole matrix is made when p exceeds _TAIL_COLUMNS. ``depth``
    above n is cut to n.

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
    n, p = dm.n, dm.p
    depth = min(positive_integer(depth, "depth"), n)
    lo = np.empty((p, depth), dtype=np.intp)
    hi = np.empty((p, depth), dtype=np.intp)
    chunk = np.empty((min(p, _TAIL_COLUMNS), n))
    for j0 in range(0, p, _TAIL_COLUMNS):
        cols = chunk[:min(_TAIL_COLUMNS, p - j0)]
        for a in range(0, n, _OSS_BLOCK_ROWS):
            b = a + _OSS_BLOCK_ROWS
            cols[:, a:b] = dm.values[a:b, j0:j0 + cols.shape[0]].T
        for j, col in enumerate(cols, start=j0):  # each column negated in place below
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
        given, ``elapsed`` counts this call's seconds only; the tails
        carry their own.

    Raises
    ------
    ConfigError
        If k is not whole, k < 2p, k > n, or k exceeds the depth of the
        tails given.
    """
    t0 = time.perf_counter()
    shared = isinstance(X, IbossTails)
    source = X if shared else as_data_matrix(X)
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
    if not head:
        return vals.min(axis=0), vals.max(axis=0)
    blocks = vals[:head].reshape(-1, _EXTREMA_ROWS * p)
    lo = blocks.min(axis=0).reshape(_EXTREMA_ROWS, p).min(axis=0)
    hi = blocks.max(axis=0).reshape(_EXTREMA_ROWS, p).max(axis=0)
    if head < n:
        np.minimum(lo, vals[head:].min(axis=0), out=lo)
        np.maximum(hi, vals[head:].max(axis=0), out=hi)
    return lo, hi


def _oss_rows(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's |z|^2 and sign bytes, z being the row scaled to [-1, 1].

    One pass over blocks of _OSS_BLOCK_ROWS rows scales each block
    column-wise by ``2 * (vals - lo) / (hi - lo) - 1`` with the columns'
    minima lo and maxima hi, takes |z|^2 by the same einsum as over the
    whole scaled matrix, and packs the bits [z > 0 | z < 0] of each row
    into bytes, bit j of the pattern being bit j mod 8 of byte j // 8.
    ``vals`` is row-major, as a :class:`DataMatrix`'s values are, and so
    is every block. Every value is bit for bit what the whole-matrix
    formula gives; no n x p scaled copy is made. A column whose span
    is more than half the largest float, so that 2 (vals - lo) would
    overflow, is scaled as its quarter; only then is X copied once.

    Every z lies in [-1, 1]: rounding is monotone, so vals - lo rounds
    into [0, span] and its quotient by span into [0, 2]. Hence
    0 <= |z|^2 <= p, the premise of :func:`select_oss`'s head rule.

    Returns
    -------
    norms2 : numpy.ndarray
        |z|^2 of every row.
    signs : numpy.ndarray
        n x 8 ceil(2p / 64) uint8: each row's pattern in its first
        ceil(2p / 8) bytes, zero-padded to whole uint64 words.

    Raises
    ------
    ScalingError
        If some column is constant, naming the first such column.
    """
    lo, hi = _column_extrema(vals)
    with np.errstate(over="ignore"):
        span = hi - lo
        wide = ~np.isfinite(2.0 * span)
    flat = np.flatnonzero(span == 0.0)
    if flat.size:
        j = int(flat[0])
        raise ScalingError(
            f"column {j} is constant and cannot be scaled to [-1, 1]", column=j
        )
    if wide.any():
        # 2 (vals - lo) would overflow: such a column is scaled as its
        # quarter, a power of two, so every z still lies in [-1, 1]
        quarter = np.where(wide, 0.25, 1.0)
        vals, lo, hi = vals * quarter, lo * quarter, hi * quarter
        span = hi - lo
    n, p = vals.shape
    width = 8 * -(-2 * p // 64)         # bytes per row, whole uint64 words
    rows = min(n, _OSS_BLOCK_ROWS)
    block = np.empty((rows, p))
    # lo and span tiled to the block's shape: broadcasting a p-vector
    # over rows runs an inner loop of p elements per row
    lo_rows = np.tile(lo, (rows, 1))
    span_rows = np.tile(span, (rows, 1))
    bits = np.zeros((rows, 8 * width), dtype=bool)
    norms2 = np.empty(n)
    signs = np.empty((n, width), dtype=np.uint8)
    for a in range(0, n, _OSS_BLOCK_ROWS):
        b = min(a + _OSS_BLOCK_ROWS, n)
        # 2 (vals - lo) / span - 1, in place on the block
        z = np.subtract(vals[a:b], lo_rows[:b - a], out=block[:b - a])
        z *= 2.0
        z /= span_rows[:b - a]
        z -= 1.0
        np.einsum("ij,ij->i", z, z, out=norms2[a:b])
        m = bits[:b - a]
        np.greater(z, 0.0, out=m[:, :p])
        np.less(z, 0.0, out=m[:, p:2 * p])
        signs[a:b] = np.packbits(m, axis=None, bitorder="little").reshape(b - a, width)
    return norms2, signs


def _all_distinct(key: np.ndarray) -> bool:
    """Whether no two entries of ``key`` are equal, found by one sort."""
    ordered = np.sort(key)
    return bool((ordered[1:] != ordered[:-1]).all())


def _runs(key: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices in runs of equal key and words, and where each run starts.

    i and j share a run when ``key[i] == key[j]`` and every uint64 word
    of ``words[i]`` (n x W) equals that of ``words[j]``. ``order`` lists
    the indices run by run and ``start`` holds each run's first position
    in it, ending with n; runs and the indices within one come in no
    fixed order. One argsort of the key is refined word by word, and
    only where a run of equal keys mixes words.
    """
    order = np.argsort(key)
    ordered = key[order]
    start = np.ones(key.size, dtype=bool)  # a run starts at this position
    np.not_equal(ordered[1:], ordered[:-1], out=start[1:])
    for word in words.T:
        sw = word[order]
        split = sw[1:] != sw[:-1]
        if (split & ~start[1:]).any():  # a run mixes words: sort it by this one
            resort = np.lexsort((sw, np.cumsum(start)))
            order, sw = order[resort], sw[resort]
            split = sw[1:] != sw[:-1]
        start[1:] |= split
    return order, np.append(np.flatnonzero(start), key.size)


def _interchangeable_classes(norms2: np.ndarray,
                             signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows laid out class by class, and where each class starts.

    Rows are interchangeable in the OSS greedy when they share |z|^2 bit
    for bit and every sign byte, compared as the uint64 words that the
    rows of ``signs`` (from :func:`_oss_rows`) view as: every loss term
    against them or from them is then the same float. Classes are the
    :func:`_runs` of that key, laid out in the order of their lowest row,
    each listing its rows in ascending order, so
    ``members[first[c]:first[c + 1]]`` are the rows of class c and
    ``first`` ends with n. Rows with pairwise distinct |z|^2, as
    continuous data without repeated rows has, are found by one sort
    and form n one-row classes.
    """
    n = norms2.size
    if _all_distinct(norms2):
        return np.arange(n), np.arange(n + 1)
    order, start = _runs(norms2, signs.view(np.uint64))
    starts = start[:-1]
    lowest = np.minimum.reduceat(order, starts)
    # lowest row of the row's class, then the row: one key, since both are < n
    key = np.repeat(lowest, np.diff(start)) * n + order
    key.sort()
    cls, members = np.divmod(key, n)
    first = np.append(np.flatnonzero(members == cls), n)
    return members, first


def _pattern_runs(signs: np.ndarray,
                  rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Classes in runs of one sign pattern, where each run starts, and how
    many runs hold one class of one row.

    ``signs`` holds one row of sign bytes per class, as
    :func:`_oss_classes` returns them, and ``rows`` each class's row
    count. Runs of one class of one row come first, in class order, then
    every other run, its classes in ascending order, so
    ``order[start[i]:start[i + 1]]`` are the classes of run i and
    ``start`` ends with the class count.

    A pattern that fits one uint64 word with room above the data's
    largest word for a class index, as every pattern of p <= 16 does at
    up to 2^32 classes, is grouped by one sort of ``word << bits |
    class``: it tests the words for distinctness and, when some repeat,
    gives the runs with their classes in ascending order. Longer
    patterns are tested by a sort of their first words, and repeats go
    to the :func:`_runs` of all words, whose classes one more sort puts
    in ascending order within each run. Classes whose patterns all
    differ form one-class runs.
    """
    words = signs.view(np.uint64)
    g = words.shape[0]
    bits = g.bit_length()               # a class index fits in the low bits
    one_word = words.shape[1] == 1 and int(words.max()).bit_length() + bits <= 64
    if one_word:
        key = words[:, 0] << bits
        key |= np.arange(g, dtype=np.uint64)
        key.sort()                      # pattern, then class
        word = key >> bits
        new = np.ones(g, dtype=bool)    # a run starts at this position
        np.not_equal(word[1:], word[:-1], out=new[1:])
        distinct = new.all()
    else:
        distinct = _all_distinct(words[:, 0])
    if distinct:
        alone = np.flatnonzero(rows == 1)
        return (np.concatenate([alone, np.flatnonzero(rows != 1)]),
                np.arange(g + 1), alone.size)
    if one_word:
        order = (key & ((1 << bits) - 1)).astype(np.intp)
        start = np.append(np.flatnonzero(new), g)
    else:
        order, start = _runs(words[:, 0], words[:, 1:])
    sizes = np.diff(start)
    one = (sizes == 1) & (rows[order[start[:-1]]] == 1)
    alone = np.sort(order[start[:-1][one]])
    sizes = sizes[~one]
    at = np.cumsum(sizes) - sizes  # each other run's start among them
    others = order[np.repeat(start[:-1][~one] - at, sizes) + np.arange(g - alone.size)]
    if not one_word:                    # classes ascending within each run
        run = np.repeat(at, sizes) * g
        others = np.sort(run + others) - run
    return (np.concatenate([alone, others]),
            np.concatenate([np.arange(alone.size), at + alone.size, [g]]), alone.size)


class Resample(DataMatrix):
    """``data.take(rows)`` that keeps its row map: rows drawn by number.

    ``Resample(data, rows)`` is the DataMatrix ``data.take(rows)``, its
    ``values`` and ``response`` copied when it is made: row i is row
    ``rows[i]`` of ``data``, and a row may be drawn any number of times,
    as a bootstrap replicate draws it. Every consumer reads it as that
    matrix. It also keeps ``data`` and ``rows``, and :func:`select_oss`
    reads them to prepare only the distinct rows it names, with a
    result equal bit for bit to a run on the plain copy.

    Parameters
    ----------
    data : DataMatrix or array_like
        The base matrix, N x p.
    rows : array_like of int
        Base row of every resampled row, each in [0, N); at least one.
    """

    data: DataMatrix
    rows: np.ndarray

    def __init__(self, data, rows):
        data = as_data_matrix(data)
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.size < 1:
            raise DimensionError(
                f"rows must be a non-empty 1-d array, got shape {rows.shape}")
        if not np.issubdtype(rows.dtype, np.integer):
            raise ContractError(f"rows must be integers, got dtype {rows.dtype}")
        if rows.min() < 0 or rows.max() >= data.n:
            raise ContractError(f"rows must lie in [0, {data.n}), "
                                f"got [{rows.min()}, {rows.max()}]")
        rows = rows.astype(np.intp, copy=False)
        copy = data.take(rows)
        for name, value in (("values", copy.values), ("response", copy.response),
                            ("data", data), ("rows", rows)):
            object.__setattr__(self, name, value)


def _oss_classes(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray, np.ndarray]:
    """The OSS greedy's classes of interchangeable rows of ``vals``.

    Returns each class's |z|^2 and sign bytes, as :func:`_oss_rows`
    gives them for any of its rows, and, as
    :func:`_interchangeable_classes` gives them, the rows class by class
    and where each class starts.
    """
    norms2, signs = _oss_rows(vals)
    members, first = _interchangeable_classes(norms2, signs)
    if first.size - 1 < norms2.size:    # some class holds several rows
        head = members[first[:-1]]
        norms2, signs = norms2[head], signs[head]
    return norms2, signs, members, first


def _resample_classes(res: Resample) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray, np.ndarray]:
    """:func:`_oss_classes` of ``res.values``, preparing its distinct rows only.

    ``np.minimum.at`` finds each base row's first position. Only those
    rows are scaled, gathered in order of appearance by the same
    ``np.take`` that copies the resample, row-major as it is, so every
    |z|^2 is summed as it is there; the column extrema are those of the
    rows present, as in the resample. :func:`_interchangeable_classes` merges
    distinct base rows that are interchangeable, and orders the classes
    by their first appearance, which is their lowest position. One
    int64 sort of (class, position) keys then lists each class's
    positions in ascending order, as the resample's own grouping lists
    them.
    """
    n, rows = res.n, res.rows
    lowest = np.full(res.data.n, n)     # each base row's first position; n if absent
    np.minimum.at(lowest, rows, np.arange(n))
    seen = np.zeros(n, dtype=bool)
    seen[lowest[lowest < n]] = True
    firsts = rows[np.flatnonzero(seen)]  # the base rows present, as they appear
    norms2, signs, members, first = _oss_classes(np.take(res.data.values, firsts, axis=0))
    cls = np.empty(res.data.n, dtype=np.int64)  # class of each base row present
    cls[firsts[members]] = np.repeat(np.arange(first.size - 1), np.diff(first))
    bits = n.bit_length()               # a position fits in the low bits
    key = (cls[rows] << bits) | np.arange(n)
    key.sort()                          # class, then position
    members = key & ((1 << bits) - 1)
    key >>= bits
    start = np.ones(n, dtype=bool)      # a class's lowest position
    np.not_equal(key[1:], key[:-1], out=start[1:])
    return norms2, signs, members, np.append(np.flatnonzero(start), n)


def _oss_size(n: int, k) -> int:
    """``k`` as an int, or ConfigError unless it is whole and 2 <= k < n."""
    k = positive_integer(k, "k")
    if k < 2:
        raise ConfigError(f"discrepancy selection needs k >= 2, got k={k}")
    if k >= n:
        raise ConfigError(f"discrepancy selection needs n > k, got n={n}, k={k}")
    return k


class _OssGreedy:
    """The greedy of :func:`select_oss`, one pick per :meth:`step`.

    The constructor prepares the greedy. One pass over blocks of rows
    scales each block, takes each row's |z|^2 and packs the row's strict
    signs into the 2p-bit pattern [z > 0 | z < 0], held in ceil(2p / 8)
    bytes; no n x p scaled copy of X is made. delta(z, x) is the popcount
    of the two patterns' AND, an exact integer, zero on coordinates whose
    scaled entry is exactly 0. Rows that share |z|^2 bit for bit and
    every sign byte are interchangeable: each loss term against them or
    from them is the same float. The greedy therefore treats classes of
    such rows, grouped by sorting on that key, in the order of their
    lowest row; a class keeps the score each of its rows has in a
    row-by-row run and gives up its lowest untaken row when picked. A
    :class:`Resample` names its repeated rows in its row map, so for
    one only the distinct base rows it draws are scaled and grouped, at
    their first appearance, and each class's copies are listed from the
    row numbers by one integer sort; its copied ``values`` go unread.
    This is the one place that treats a Resample apart from its copy.

    Heads. Classes that share a sign pattern share every delta. With
    u = p - |z|^2 / 2 and b = |x|^2 / 2 the loss is (u - b + delta)^2,
    and its base is never negative: the scaling keeps 0 <= |z|^2 <= p,
    so u >= p / 2 >= b, and delta >= 0. Subtraction, addition, squaring
    and the running sum round monotonically on non-negative operands,
    so within a pattern no class's float score is ever below that of
    the pattern's head, its untaken class of smallest u (the lowest
    class on ties). Only a head can hold the minimum. The greedy keeps
    one running score per pattern, its head's, summed with the same
    operations in the same order as the row-by-row greedy. When a head
    runs out of rows, the next live class of its pattern in (u, class)
    order (:meth:`_live`) becomes the head, and :meth:`_replay` rebuilds
    its score by ``np.add.accumulate`` over its t terms in selection
    order: the very bits a running sum holds. A pattern with no class
    left is pinned at +inf.

    Slots. Pattern i keeps slot i of the step's arrays for the whole
    run. Its head's signs sit in column i of w contiguous planes of
    unsigned words, the fewest that numpy counts fast: a pattern of up
    to 8 bits in one uint8 word, of up to 32 bits in one uint32 word
    (numpy's uint16 popcount is the slowest per byte), and a longer one
    in ceil(2p / 8) byte planes, which stream faster than uint64 words
    at large P. A step counts the set bits of each plane's AND with the
    last pick's word separately. Patterns of one class that holds one
    row come first, in the order of that row, so the first of them with
    the smallest score holds the lowest tied row among them. Every other
    pattern, a one-class pattern whose class holds several rows
    included, comes after them.

    Ties go to the lowest untaken row. A class can tie only if its
    pattern's head holds the smallest score m, and a follower ties its
    head only if its u is close: after t picks, rounding moves either
    score by a relative (t + 4) 2^-53 at most, to first order, while a
    follower whose u exceeds the head's by d sums at least 2 d sqrt(m)
    more before rounding, to first order. A margin eight times wider
    covers both: a follower with d > (t + 8) 2^-50 sqrt(m) scores more,
    a closer one has its score rebuilt, and one with equal u ties
    exactly (:meth:`_lowest_tied`). Each pattern after the one-row ones
    that ties m is compared one by one.

    Cost. With P distinct sign patterns, P <= min(G, 3^p) for G classes,
    the greedy costs O(P k w), plus O(t) at each head change after t
    picks, plus a comparison for each pattern after the one-row ones
    that ties the smallest score; all this after an O(n p) preparation
    and an O(n log n) grouping. G is n for continuous data without
    repeated rows, found by one sort of |z|^2, and about 1 - 1/e, or
    63 %, of n for a bootstrap resample of such data; such data has no
    exact zeros, so P <= 2^p, at most 1,024 at p = 10. When every
    pattern holds one class the heads are the classes and nothing is
    rebuilt. A pattern's classes are ranked by (u, class) only as deep
    as the greedy reads them (:meth:`_rank`): the first _RANK_DEPTH on
    first need, by :func:`_argsort_head` over the pattern's u, then
    twice as many each time a read passes the ranked front, so a
    pattern of s classes read r deep costs O(s log r) in place of a
    sort of all s.
    """

    def __init__(self, source, k: int):
        if isinstance(source, Resample):
            norms2, signs, self.members, self.first = _resample_classes(source)
        else:
            norms2, signs, self.members, self.first = _oss_classes(source.values)
        g, p = norms2.size, source.p
        # classes by sign pattern, one-row patterns first
        order, start, ones = _pattern_runs(signs, np.diff(self.first))
        npat = start.size - 1
        self.u = u = p - 0.5 * norms2  # candidate-side constant of the loss
        self.b = 0.5 * norms2          # selected-side constant
        head = order[start[:-1]]
        if ones < npat:
            # the head of another pattern: the lowest class of its smallest u
            cls, at = order[start[ones]:], start[ones:-1] - start[ones]
            u_run = u[cls]
            least = np.repeat(np.minimum.reduceat(u_run, at), np.diff(start[ones:]))
            head[ones:] = np.minimum.reduceat(np.where(u_run == least, cls, g), at)
        nbytes = -(-2 * p // 8)             # sign bytes per row
        size = 4 if 1 < nbytes <= 4 else 1  # bytes per plane word (see Slots)
        heads = np.take(signs, head, axis=0)[:, :size * -(-nbytes // size)]
        self.planes = np.ascontiguousarray(heads.view(f"u{size}").T)
        self.rows = list(self.planes)
        self.words = signs.view(np.uint64)
        self.order, self.start, self.ones = order, start, ones
        self.head, self.head_u = head, u[head]
        self.scores = np.zeros(npat)        # score of each pattern's head
        # ranked[start[i]:front[i]] holds pattern i's first classes in
        # (u, class) order, as far as the greedy has read them
        self.ranked = np.empty_like(order)
        self.front = start[:-1].copy()
        self.at_head = start[:-1].copy()    # position of a ranked pattern's head in ranked
        self.both = np.empty(npat, dtype=self.planes.dtype)
        self.delta = np.empty(npat, dtype=np.min_scalar_type(p))  # delta <= p, summed exactly
        self.term = np.empty(npat)
        self.seen = np.empty(k, dtype=np.intp)  # class of each pick
        self.nxt = self.first[:-1].copy()   # each class's lowest untaken row, in members
        self.t = self.pattern = 0           # picks so far, the last one's pattern

    def step(self) -> int:
        """Take and return the next row: the lowest row of largest |z|^2
        first, then the lowest row of smallest score."""
        t, scores, nxt = self.t, self.scores, self.nxt
        if t:
            rows, both, delta, term = self.rows, self.both, self.delta, self.term
            mine = self.planes[:, self.pattern]
            np.bitwise_count(np.bitwise_and(rows[0], mine[0], out=both), out=delta)
            for w in range(1, mine.size):
                np.bitwise_count(np.bitwise_and(rows[w], mine[w], out=both), out=both)
                delta += both
            np.subtract(self.head_u, self.b[self.seen[t - 1]], out=term)
            term += delta
            np.square(term, out=term)
            scores += term
            pattern = int(scores.argmin())
            current, row = self._lowest_tied(pattern, t)
            m, after = scores[pattern], pattern + 1 if pattern >= self.ones else self.ones
            if after < scores.size and scores[after:].min() == m:
                for other in np.flatnonzero(scores[after:] == m) + after:
                    c, r = self._lowest_tied(int(other), t)
                    if r < row:
                        current, row, pattern = c, r, int(other)
        else:  # no class has lost a row: the first of largest |z|^2 holds the lowest row
            current = int(np.argmax(self.b))
            at = np.flatnonzero(self.order == current)[0]
            pattern = int(np.searchsorted(self.start, at, "right")) - 1
            row = self.members[nxt[current]]
        nxt[current] += 1
        if nxt[current] == self.first[current + 1] and current == self.head[pattern]:
            end = self.start[pattern + 1]
            if (pos := self._live(pattern, self.at_head[pattern] + 1, end)) == end:
                scores[pattern] = np.inf    # no class of the pattern is left
            else:
                h = self.head[pattern] = self.ranked[pos]
                self.at_head[pattern], self.head_u[pattern] = pos, self.u[h]
                scores[pattern] = self._replay(h, t)
        self.seen[t], self.pattern, self.t = current, pattern, t + 1
        return row

    def _live(self, pat: int, pos: int, end: int) -> int:
        """The first position from ``pos`` on of a class with a row left in
        pattern pat's (u, class) order, or the pattern's end ``end``. The
        pattern's classes are ranked only as far as this reads."""
        ranked, nxt, first = self.ranked, self.nxt, self.first
        while True:
            front = self.front[pat]
            while pos < front and nxt[(c := ranked[pos])] == first[c + 1]:
                pos += 1
            if pos < front or pos >= end:
                return pos
            self._rank(pat, end)

    def _rank(self, pat: int, end: int) -> None:
        """Rank pattern pat's first classes in (u, class) order into
        ``ranked``: _RANK_DEPTH of them on first need, then twice as many
        as are ranked already."""
        at = self.start[pat]
        cls = self.order[at:end]        # in class order
        top = _argsort_head(self.u[cls], max(_RANK_DEPTH, 2 * (self.front[pat] - at)))
        self.ranked[at:at + top.size] = cls[top]
        self.front[pat] = at + top.size

    def _lowest_tied(self, pat: int, t: int) -> tuple[int, int]:
        """The class of pattern pat scoring exactly its head's score after t
        picks that holds the lowest untaken row, and that row."""
        h, members, nxt, u = self.head[pat], self.members, self.nxt, self.u
        best, row, end = h, members[nxt[h]], self.start[pat + 1]
        if end - self.start[pat] == 1:
            return best, row              # the pattern's one class
        hu, m, pos = u[h], self.scores[pat], self.at_head[pat]
        # a follower whose u exceeds the head's by more than this is
        # certainly worse (see the class docstring)
        margin = (t + 8) * 2.0 ** -50 * math.sqrt(m)
        while (pos := self._live(pat, pos + 1, end)) < end:
            c = self.ranked[pos]
            if u[c] != hu and (u[c] - hu > margin or self._replay(c, t) != m):
                break                     # every later class scores as much or more
            if members[nxt[c]] < row:
                best, row = c, members[nxt[c]]
        return best, row

    def _replay(self, c: int, t: int) -> float:
        """Class c's score over the first t picks, summed as the greedy sums it."""
        if not t:
            return 0.0
        picks, mine, words = self.seen[:t], self.words[c], self.words
        d = np.bitwise_count(words[picks, 0] & mine[0]).astype(self.delta.dtype, copy=False)
        for w in range(1, mine.size):
            d += np.bitwise_count(words[picks, w] & mine[w])
        sums = self.u[c] - self.b[picks]
        sums += d
        np.square(sums, out=sums)
        return np.add.accumulate(sums)[-1]


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

    The greedy (:class:`_OssGreedy`) scores one head per sign pattern
    and classes of interchangeable rows, not rows, yet its picks are
    those of the row-by-row greedy, bit for bit. Given a
    :class:`Resample`, the greedy reads its row map and prepares only
    the distinct base rows it draws, and the result equals that of a
    run on a plain copy of the same rows bit for bit.

    Parameters
    ----------
    X : DataMatrix or array_like
        Covariate matrix, n x p; a :class:`Resample` is one.
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
    k = _oss_size(dm.n, k)
    greedy = _OssGreedy(dm, k)
    chosen = np.array([greedy.step() for _ in range(k)], dtype=np.intp)
    elapsed = time.perf_counter() - t0
    return SelectionResult(chosen, k, _EMPTY_TRACE, elapsed)


def select_uniform(X, k: int, seed: int | None = 0) -> SelectionResult:
    """Uniform sampling of k distinct rows via a seeded shuffle.

    ``k == n`` returns every index in natural order, which makes the
    exhaustive draw bit-for-bit reproducible in downstream fits.
    ``seed`` is a whole number >= 0, or ``None`` for fresh entropy; any
    other seed is a ConfigError, whether or not the draw happens.
    """
    t0 = time.perf_counter()
    dm = as_data_matrix(X)
    n = dm.n
    k = positive_integer(k, "k")
    if seed is not None:
        seed = seed_integer(seed)
    if k > n:
        raise ConfigError(f"uniform selection needs 1 <= k <= n, got k={k}, n={n}")
    if k == n:
        indices = np.arange(n, dtype=np.intp)
    else:
        rng = np.random.default_rng(seed)
        indices = rng.permutation(n)[:k]
    elapsed = time.perf_counter() - t0
    return SelectionResult(indices, k, _EMPTY_TRACE, elapsed)
