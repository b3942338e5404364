"""Exact matrix rank and determinant over the integers.

Primary routine: fraction-free (Bareiss) elimination over Python's unbounded
integers; no floating point, no rounding, intermediate values are exact
minors.  `rank_oracle` is an independent implementation (rational Gaussian
elimination over fractions.Fraction with largest-pivot selection) used to
cross-check the primary one in tests.

`batch_ranks` computes exact ranks for large batches of small {-1,0,1}
matrices at numpy speed.  It runs the same fraction-free elimination in
numpy arrays: every intermediate value is a minor of the input
(Sylvester), so magnitudes never exceed the Hadamard bound n**(n/2) and
products stay below 2**24 (float32, n <= 8) resp. 2**53 (float64,
n <= 13); all products, subtractions and exact divisions are therefore
performed without rounding.  Orders 14-15 run in int64: every numerator
is a difference of two products of minors, each minor at most n**(n/2),
so it is at most 2 * n**n <= 2 * 15**15 < 2**63, and the division by the
previous pivot is exact, so floor division returns the true quotient.
Exact integer arithmetic throughout, just carried by float or integer
representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

IntMatrix = Sequence[Sequence[int]]


@dataclass(frozen=True)
class RankReport:
    """Exact rank and nullity of a square integer matrix."""

    rank: int
    nullity: int
    order: int


def _check_square(matrix: IntMatrix) -> int:
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
    return n


def _bareiss_echelon(rows: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free elimination; returns (rank, swap sign, last pivot).

    Row swaps pick the first nonzero entry in each column; columns with no
    available pivot are skipped.  Every division below is exact (the updated
    entries are determinants of minors, by Sylvester's identity); a nonzero
    remainder would mean corrupted arithmetic and raises.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    prev = 1
    sign = 1
    piv_row = 0
    last_pivot = 1
    for col in range(n_cols):
        if piv_row == n_rows:
            break
        pivot_at = -1
        for r in range(piv_row, n_rows):
            if rows[r][col]:
                pivot_at = r
                break
        if pivot_at < 0:
            continue
        if pivot_at != piv_row:
            rows[piv_row], rows[pivot_at] = rows[pivot_at], rows[piv_row]
            sign = -sign
        pivot = rows[piv_row][col]
        base = rows[piv_row]
        for r in range(piv_row + 1, n_rows):
            row = rows[r]
            factor = row[col]
            if factor:
                for c in range(col + 1, n_cols):
                    q, rem = divmod(pivot * row[c] - factor * base[c], prev)
                    if rem:
                        raise ArithmeticError("inexact division in fraction-free step")
                    row[c] = q
            elif pivot != 1 or prev != 1:
                # factor == 0 still rescales the row to keep entries equal to minors
                for c in range(col + 1, n_cols):
                    q, rem = divmod(pivot * row[c], prev)
                    if rem:
                        raise ArithmeticError("inexact division in fraction-free step")
                    row[c] = q
            row[col] = 0
        prev = pivot
        last_pivot = pivot
        piv_row += 1
    return piv_row, sign, last_pivot


def rank(matrix: IntMatrix) -> RankReport:
    """Exact rank of a square integer matrix over the rationals."""
    n = _check_square(matrix)
    rows = [[int(x) for x in row] for row in matrix]
    r, _, _ = _bareiss_echelon(rows)
    return RankReport(rank=r, nullity=n - r, order=n)


def determinant(matrix: IntMatrix) -> int:
    """Exact determinant of a square integer matrix."""
    n = _check_square(matrix)
    if n == 0:
        return 1
    rows = [[int(x) for x in row] for row in matrix]
    r, sign, last_pivot = _bareiss_echelon(rows)
    if r < n:
        return 0
    return sign * last_pivot


def rank_oracle(matrix: IntMatrix) -> int:
    """Independent exact rank: rational elimination with largest-pivot choice."""
    n = _check_square(matrix)
    rows = [[Fraction(int(x)) for x in row] for row in matrix]
    rank_count = 0
    piv_row = 0
    for col in range(n):
        best = -1
        best_abs = Fraction(0)
        for r in range(piv_row, n):
            a = abs(rows[r][col])
            if a > best_abs:
                best_abs = a
                best = r
        if best < 0:
            continue
        rows[piv_row], rows[best] = rows[best], rows[piv_row]
        pivot = rows[piv_row][col]
        base = [x / pivot for x in rows[piv_row]]
        rows[piv_row] = base
        for r in range(piv_row + 1, n):
            factor = rows[r][col]
            if factor:
                rows[r] = [x - factor * b for x, b in zip(rows[r], base)]
        piv_row += 1
        rank_count += 1
    return rank_count


# float32 keeps n**(n/2) minor products exact up to n=8 (8**8 == 2**24),
# float64 up to n=13 (13**13 < 2**53), int64 up to n=15 (2 * 15**15 < 2**63)
_FLOAT32_MAX_ORDER = 8
_FLOAT64_MAX_ORDER = 13
_MAX_ORDER = 15


def _batch_ranks_bareiss(matrices: np.ndarray, dtype) -> np.ndarray:
    batch, n, _ = matrices.shape
    work = matrices.astype(dtype)
    idx = np.arange(batch)
    used = np.zeros((batch, n), dtype=bool)
    ranks = np.zeros(batch, dtype=np.int64)
    prev = np.ones(batch, dtype=dtype)
    # exact division either way; true division is the fast one on floats
    divide = np.floor_divide if np.issubdtype(dtype, np.integer) else np.true_divide
    for col in range(n):
        column = work[:, :, col]
        candidates = (column != 0) & ~used
        has_pivot = candidates.any(axis=1)
        if not has_pivot.any():
            continue
        piv = candidates.argmax(axis=1)
        pivot_vals = column[idx, piv]
        pivot_rows = work[idx, piv, col:]
        # fraction-free step on every row below the front, zero factor or
        # not: row <- (pv*row - row[col]*pivot_row)/prev; pivot rows,
        # settled rows and pivotless matrices get prev/prev = 1 instead
        below = ~used & has_pivot[:, None]
        below[idx, piv] = False
        factor = np.where(below, column, 0)
        row_scale = np.where(below, pivot_vals[:, None], prev[:, None])
        tail = work[:, :, col:]
        tmp = tail * row_scale[:, :, None]
        tmp -= factor[:, :, None] * pivot_rows[:, None, :]
        divide(tmp, prev[:, None, None], out=tmp)
        work[:, :, col:] = tmp
        prev = np.where(has_pivot, pivot_vals, prev)
        used[idx[has_pivot], piv[has_pivot]] = True
        ranks += has_pivot
    return ranks


def batch_ranks(matrices: np.ndarray) -> np.ndarray:
    """Exact ranks of a (batch, n, n) integer array with entries in {-1,0,1}.

    Fraction-free elimination carried in float32 arrays for order <= 8,
    float64 for orders 9-13 and int64 for orders 14-15 (exact: all
    intermediates are Hadamard-bounded minors).  See the module docstring
    for the argument.
    """
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise ValueError("expected a (batch, n, n) array")
    batch, n, _ = matrices.shape
    if batch == 0:
        return np.zeros(0, dtype=np.int64)
    if n > _MAX_ORDER:
        raise ValueError(f"batch kernel supports order <= {_MAX_ORDER}, got {n}")
    if abs(int(matrices.max(initial=0))) > 1 or abs(int(matrices.min(initial=0))) > 1:
        raise ValueError("batch kernel requires entries in {-1,0,1}")
    if n <= _FLOAT32_MAX_ORDER:
        return _batch_ranks_bareiss(matrices, np.float32)
    if n <= _FLOAT64_MAX_ORDER:
        return _batch_ranks_bareiss(matrices, np.float64)
    return _batch_ranks_bareiss(matrices, np.int64)
