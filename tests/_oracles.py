"""Independent reference computations used to check production code.

Everything here is written the slow, literal way on purpose: hat-matrix
diagonals via an explicit solve, greedy selection via double loops,
determinants via cofactor expansion. Tests compare production output
against these, never the other way round.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def hat_diagonal(X: np.ndarray) -> np.ndarray:
    """Diagonal of X (X'X)^-1 X' for full-column-rank X."""
    X = np.asarray(X, dtype=np.float64)
    gram = X.T @ X
    return np.einsum("ij,ji->i", X, np.linalg.solve(gram, X.T))


def iboss_sequential_trace(X: np.ndarray, k: int) -> list[int]:
    """Literal per-covariate min/max selection with exclusion.

    Base quota r = k // (2p) per tail; leftover handed out as one extra
    pair per covariate from the left, final odd point to the max side.
    """
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    r = k // (2 * p)
    m = k - 2 * p * r
    pairs, odd = divmod(m, 2)
    taken: list[int] = []
    avail = set(range(n))
    for j in range(p):
        lo_want = r + (1 if j < pairs else 0)
        hi_want = r + (1 if j < pairs else 0) + (1 if odd and j == pairs else 0)
        lo = sorted(avail, key=lambda i: (X[i, j], i))[:lo_want]
        for i in lo:
            avail.remove(i)
            taken.append(i)
        hi = sorted(avail, key=lambda i: (-X[i, j], i))[:hi_want]
        for i in hi:
            avail.remove(i)
            taken.append(i)
    return taken


def oss_scale(X: np.ndarray) -> np.ndarray:
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    return 2.0 * (X - lo) / (hi - lo) - 1.0


def oss_pair_loss(a: np.ndarray, b: np.ndarray) -> float:
    p = a.shape[0]
    delta = int(np.sum((a > 0) & (b > 0)) + np.sum((a < 0) & (b < 0)))
    return float((p - a @ a / 2.0 - b @ b / 2.0 + delta) ** 2)


def oss_total_loss(Z: np.ndarray, idx) -> float:
    return sum(oss_pair_loss(Z[i], Z[j]) for i, j in combinations(idx, 2))


def oss_naive_greedy(X: np.ndarray, k: int) -> list[int]:
    """Reference greedy: scan every candidate against every selected row.

    First pick maximizes the scaled squared norm; later picks minimize
    the summed pair loss; all ties go to the lowest row index.
    """
    Z = oss_scale(np.asarray(X, dtype=np.float64))
    n = Z.shape[0]
    norms = np.einsum("ij,ij->i", Z, Z)
    first = int(np.argmax(norms))
    selected = [first]
    remaining = [i for i in range(n) if i != first]
    for _ in range(k - 1):
        best_score = None
        best = None
        for c in remaining:
            score = sum(oss_pair_loss(Z[c], Z[s]) for s in selected)
            if best_score is None or score < best_score:
                best_score = score
                best = c
        selected.append(best)
        remaining.remove(best)
    return selected


def oss_rowwise_greedy(X: np.ndarray, k: int) -> list[int]:
    """Reference greedy that scores every row at every step, duplicates too.

    The vectorized row-by-row kernel ``select_oss`` ran before it scored
    classes of interchangeable rows, with strict signs counted on boolean
    matrices instead of packed words. Every float operation is the same
    and in the same order, so its picks are ``select_oss``'s bit for bit,
    at sizes the double loops of :func:`oss_naive_greedy` cannot reach.
    """
    Z = oss_scale(np.asarray(X, dtype=np.float64))
    n, p = Z.shape
    norms2 = np.einsum("ij,ij->i", Z, Z)
    u = p - 0.5 * norms2
    b = 0.5 * norms2
    pos, neg = Z > 0, Z < 0
    scores = np.zeros(n)
    current = int(np.argmax(norms2))
    selected = [current]
    scores[current] = np.inf
    for _ in range(k - 1):
        delta = (np.count_nonzero(pos & pos[current], axis=1)
                 + np.count_nonzero(neg & neg[current], axis=1))
        term = (u - b[current]) + delta
        scores += term * term
        current = int(np.argmin(scores))
        selected.append(current)
        scores[current] = np.inf
    return selected


def det_cofactor(M: np.ndarray) -> float:
    """Determinant by recursive cofactor expansion along the first row."""
    M = np.asarray(M, dtype=np.float64)
    m = M.shape[0]
    if m == 1:
        return float(M[0, 0])
    total = 0.0
    for j in range(m):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * M[0, j] * det_cofactor(minor)
    return total
