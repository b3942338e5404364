"""Exact matrix rank and determinant over the integers.

Primary routine: fraction-free (Bareiss) elimination over Python's unbounded
integers; no floating point, no rounding, intermediate values are exact
minors.  `rank_oracle` is an independent implementation (rational Gaussian
elimination over fractions.Fraction with largest-pivot selection) used to
cross-check the primary one in tests.

`capped_ranks(matrices, c)` computes min(rank, c) for large batches of
small {-1,0,1} matrices at numpy speed, and `batch_ranks` is it with
c = n.  It runs fraction-free elimination with full pivoting on a
shrinking active block.  At block size m each matrix takes the first
nonzero entry of its m x m block as pivot, moves its last row and column
into the pivot's row and column, and replaces the leading (m-1) x (m-1)
block by (pivot * entry - column entry * row entry) / previous pivot.  A
matrix whose block is all zero leaves the batch with the number of
pivots taken as its rank; one that reaches its c-th pivot leaves with
rank c.  A rank above c is never needed: the verification sweep only
tells ranks apart up to girth + 1.

Exactness: row and column permutations do not break Sylvester's identity
(Bareiss, Math. Comp. 22, 1968): after q pivots the block has size
m = n-q, every entry in it is an order-(q+1) minor of a row- and
column-permuted input, and each division by the previous pivot is exact.
An update runs only while m >= 2 and q+1 < c, so its factors are minors
of order q+1 <= e-1, where e = min(n, c) is the elimination order.  By
Hadamard each is at most (e-1)**((e-1)/2) in magnitude, and every
numerator is at most 2 * (e-1)**(e-1).  That is below 2**24 for e <= 8
(float32) and below 2**63 for e <= 16 (int64), so every product,
difference and quotient is an exact integer carried in that dtype; floor
division on int64 returns the true quotient because the division is
exact.  Every graph of girth g <= 7 is ranked in float32 at any order,
since its cap g + 1 is at most 8.
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


# float32 is exact through elimination order 8 (2 * 7**7 < 2**24),
# int64 through order 16 (2 * 15**15 < 2**63)
_FLOAT32_MAX_ORDER = 8
_MAX_ORDER = 16


def _batch_ranks_bareiss(matrices: np.ndarray, dtype, cap: int) -> np.ndarray:
    """min(rank, cap) per matrix, for cap <= n: elimination until each
    matrix has no pivot left or has its cap-th one."""
    batch, n, _ = matrices.shape
    work = matrices.astype(dtype)
    ranks = np.full(batch, cap, dtype=np.int64)
    live = np.arange(batch)
    prev = np.ones(batch, dtype=dtype)
    # exact division either way; true division is the fast one on floats
    divide = np.floor_divide if np.issubdtype(dtype, np.integer) else np.true_divide
    for m in range(n, 0, -1):
        # work holds the live matrices' m x m active blocks; a matrix's
        # rank is n - m plus its block's rank, and the pivot is the first
        # nonzero entry in row-major order
        nonzero = (work != 0).reshape(len(live), m * m)
        pos = nonzero.argmax(axis=1)
        found = nonzero[np.arange(len(live)), pos]
        if not found.all():
            ranks[live[~found]] = n - m
            live, work, pos, prev = live[found], work[found], pos[found], prev[found]
            if not len(live):
                break
        if n - m + 1 >= cap:
            break  # every live matrix has reached the cap (m == 1 included)
        idx = np.arange(len(live))
        pr, pc = np.divmod(pos, m)
        pv = work[idx, pr, pc]
        prow = work[idx, pr, :]
        pcol = work[idx, :, pc]
        # the last row and column take the pivot's slots, so the rows and
        # columns left to eliminate are the leading m-1
        work[idx, pr, :] = work[:, m - 1, :]
        work[idx, :, pc] = work[:, :, m - 1]
        prow[idx, pc] = prow[:, m - 1]
        pcol[idx, pr] = pcol[:, m - 1]
        work *= pv[:, None, None]
        block = pcol[:, : m - 1, None] * prow[:, None, : m - 1]
        np.subtract(work[:, : m - 1, : m - 1], block, out=block)
        divide(block, prev[:, None, None], out=block)
        work = block
        prev = pv
    return ranks


def _check_batch(matrices: np.ndarray) -> None:
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
        raise ValueError("expected a (batch, n, n) array")
    n = matrices.shape[1]
    if n > _MAX_ORDER:
        raise ValueError(f"batch kernel supports order <= {_MAX_ORDER}, got {n}")
    if matrices.dtype.kind in "biu":
        valid = matrices.min(initial=0) >= -1 and matrices.max(initial=0) <= 1
    else:
        valid = np.isin(matrices, (-1, 0, 1)).all()
    if not valid:
        raise ValueError("batch kernel requires integer entries in {-1,0,1}")


def capped_ranks(matrices: np.ndarray, cap: int) -> np.ndarray:
    """min(rank, cap) of each matrix of a (batch, n, n) integer array with
    entries in {-1,0,1}, n <= 16, for a cap >= 0.

    Fraction-free elimination that stops once a matrix has cap pivots,
    carried in float32 when the elimination order min(n, cap) is <= 8 and
    in int64 for 9-16 (exact: see the module docstring).  Non-integer
    entries raise ValueError.
    """
    _check_batch(matrices)
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    return _capped_ranks(matrices, cap)


def _capped_ranks(matrices: np.ndarray, cap: int) -> np.ndarray:
    order = min(cap, matrices.shape[1])
    dtype = np.float32 if order <= _FLOAT32_MAX_ORDER else np.int64
    return _batch_ranks_bareiss(matrices, dtype, order)


def batch_ranks(matrices: np.ndarray) -> np.ndarray:
    """Exact ranks of a (batch, n, n) integer array with entries in {-1,0,1},
    n <= 16: `capped_ranks` with cap = n, so float32 for n <= 8 and int64
    for 9-16.  Non-integer entries raise ValueError.
    """
    _check_batch(matrices)
    return _capped_ranks(matrices, matrices.shape[1])
