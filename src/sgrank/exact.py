"""Exact matrix rank and determinant over the integers.

Primary routine: fraction-free (Bareiss) elimination over Python's unbounded
integers; no floating point, no rounding, intermediate values are exact
minors.  `rank_oracle` is an independent implementation (rational Gaussian
elimination over fractions.Fraction with largest-pivot selection) used to
cross-check the primary one in tests.

`batch_ranks` computes exact ranks for large batches of small {-1,0,1}
matrices at numpy speed, by fraction-free elimination with full pivoting
on a shrinking active block.  At block size m each matrix takes the first
nonzero entry of its m x m block as pivot, moves its last row and column
into the pivot's row and column, and replaces the leading (m-1) x (m-1)
block by (pivot * entry - column entry * row entry) / previous pivot.  A
matrix whose block is all zero leaves the batch; its rank is the number
of pivots taken.  Exactness: row and column permutations do not break
Sylvester's identity (Bareiss, Math. Comp. 22, 1968): after q pivots the
block has size m = n-q, every entry in it is an order-(q+1) minor of a
row- and column-permuted input, and each division by the previous pivot
is exact.  An update runs only while m >= 2, so its factors are minors of
order q+1 <= n-1; by Hadamard each is at most (n-1)**((n-1)/2) in
magnitude, and every numerator is at most 2 * (n-1)**(n-1).  That is
below 2**24 for n <= 8 (float32), 2**53 for n <= 14 (float64) and 2**63
for n <= 16 (int64), so every product, difference and quotient is an
exact integer carried in that representation; floor division on int64
returns the true quotient because the division is exact.

Before that elimination, `batch_ranks` deletes leading pendant pairs
without any arithmetic, by the pendant lemma r(G) = r(G-x-y) + 2 for a
pendant vertex x with neighbour y.  p is the number of leading vertex
pairs (0,1), (2,3), ... that are pendant in every matrix of the batch
once the earlier pairs are deleted: row 2i and column 2i are zero except
for nonzero entries at 2i+1.  Column operations with column 2i then clear
row 2i+1, row operations with row 2i clear column 2i+1, and neither
touches any other entry, so deleting the pair lowers the rank by exactly
2, whatever the diagonal entry at 2i+1.  The column condition is needed
because the input need not be symmetric: with row 2i pendant but a
second nonzero entry in column 2i, deleting the pair can change the rank
by 1 or 3.  The rest is the view A[2p:, 2p:], a {-1,0,1} matrix of order
n-2p.  All that follows runs on it, and n, A and the dtype below refer to
that matrix, so the bound above holds for it unchanged.

Then a leading induced matching is removed in one exact Schur-complement
step: the pendant lemma applied to several edges at once.  k is the
number of leading vertex pairs that, in every matrix of the batch, have
zero diagonal entries, nonzero entries between the two vertices and zero
entries to every earlier pair.  The leading 2k x 2k block B is then a
signed permutation matrix, so B^-1 = B^T and det B = +-1.  With M the
matched vertices and R the others, Haynsworth's rank additivity gives
rank A = 2k + rank A', where A' = A_RR - A_RM B^T A_MR is the Schur
complement of B.  A' is 2k rank-one updates of A_RR whose terms are all
in {-1,0,1}, so its entries are integers of magnitude at most 2k+1 and
it is formed in int8 without any division.  The elimination above then
runs on A', in the dtype chosen from the order n, and the same bound
holds: by Schur's determinant identity det A[M+I, M+J] = det B *
det A'[I, J], so every order-r minor of A' is +- a minor of A of order
2k+r.  After q pivots on A' an update's factors are order-(q+1) minors of
A', that is minors of A of order 2k+q+1, and it runs only while
n-2k-q >= 2, so that order is at most n-1.  With p = 0 and k = 0 both
steps do nothing.

`capped_ranks(matrices, c)` returns min(rank, c) from the same loop, and
`batch_ranks` is it with c = n.  A rank above c is never needed there:
the verification sweep only tells ranks apart up to girth + 1.  Each
pendant pair and each matched pair adds 2 to the rank, so after the
pendant pairs the loop runs on the rest of order n-2p with cap c-2p
(below, n and c name these two), and a batch with 2k >= c returns c at
once.  Pivot number 2k+q+1 is taken on A' after q pivots on it; a matrix
that reaches pivot number c leaves the batch with rank c, and one that
runs out of pivots first leaves with its exact rank, below c.  So an
update runs only while 2k+q+1 < c as well as n-2k-q >= 2: its factors
are minors of A of order 2k+q+1 <= min(n, c) - 1.  The bound above then
holds with the order n replaced by min(n, c), the elimination order, and
the dtype is chosen from it.  Back in the terms of the input, that is
min(n, c) - 2p: every graph of girth g <= 7 is ranked in float32 at any
order, since its cap g + 1 is at most 8.
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


# float32 is exact through order 8 (2 * 7**7 < 2**24), float64 through
# order 14 (2 * 13**13 < 2**53), int64 through order 16 (2 * 15**15 < 2**63)
_FLOAT32_MAX_ORDER = 8
_FLOAT64_MAX_ORDER = 14
_MAX_ORDER = 16


def _pendant_pairs(matrices: np.ndarray) -> int:
    """The number p of leading vertex pairs (0,1), (2,3), ... that are
    pendant in every matrix of the batch once the earlier pairs are
    deleted: row and column 2i zero except for nonzero entries at 2i+1."""
    n = matrices.shape[1]
    p = 0
    while 2 * p + 2 <= n:
        x = 2 * p
        row = matrices[:, x, x:]
        col = matrices[:, x:, x]
        if (
            row[:, 0].any()
            or not row[:, 1].all()
            or not col[:, 1].all()
            or row[:, 2:].any()
            or col[:, 2:].any()
        ):
            break
        p += 1
    return p


def _leading_pairs(matrices: np.ndarray) -> int:
    """The number k of leading vertex pairs (0,1), (2,3), ... that form an
    induced matching in every matrix of the batch: zero diagonal, nonzero
    entries within each pair, zero entries between pairs."""
    n = matrices.shape[1]
    k = 0
    while 2 * k + 2 <= n:
        a = 2 * k
        pair = matrices[:, a:a + 2, a:a + 2]
        if (
            pair[:, 0, 0].any()
            or pair[:, 1, 1].any()
            or not pair[:, 0, 1].all()
            or not pair[:, 1, 0].all()
            or matrices[:, a:a + 2, :a].any()
            or matrices[:, :a, a:a + 2].any()
        ):
            break
        k += 1
    return k


def _matching_complement(matrices: np.ndarray, k: int) -> np.ndarray:
    """A_RR - A_RM B^T A_MR in int8 for the k leading pairs: per pair
    (a, a+1) with B = [[0, s], [t, 0]], B^T = [[0, t], [s, 0]]."""
    h = 2 * k
    mats = matrices.astype(np.int8, copy=False)
    rest = mats[:, h:, h:].copy()
    for a in range(0, h, 2):
        s = mats[:, a, a + 1, None, None]
        t = mats[:, a + 1, a, None, None]
        rest -= mats[:, h:, a, None] * t * mats[:, a + 1, None, h:]
        rest -= mats[:, h:, a + 1, None] * s * mats[:, a, None, h:]
    return rest


def _batch_ranks_bareiss(matrices: np.ndarray, dtype, cap: int | None = None) -> np.ndarray:
    """min(rank, cap) per matrix, cap defaulting to the order n: the
    matching step, then elimination until each matrix has no pivot left
    or has its cap-th one."""
    batch, n, _ = matrices.shape
    cap = n if cap is None else min(cap, n)
    k = _leading_pairs(matrices)
    if 2 * k >= cap:
        return np.full(batch, cap, dtype=np.int64)
    work = _matching_complement(matrices, k).astype(dtype)
    ranks = np.full(batch, cap, dtype=np.int64)
    live = np.arange(batch)
    prev = np.ones(batch, dtype=dtype)
    # exact division either way; true division is the fast one on floats
    divide = np.floor_divide if np.issubdtype(dtype, np.integer) else np.true_divide
    for m in range(n - 2 * k, 0, -1):
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

    The kernel of `batch_ranks`, which is this with cap = n.  The leading
    pendant pairs are deleted and the matching step taken as there;
    elimination then stops once a matrix has cap pivots.  The dtype
    follows the elimination order min(n, cap) - 2p, where p is the number
    of pendant pairs: float32 up to 8, float64 up to 14 and int64 for 15
    and 16 (see the module docstring).  Non-integer entries raise
    ValueError.
    """
    _check_batch(matrices)
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    return _capped_ranks(matrices, cap)


def _capped_ranks(matrices: np.ndarray, cap: int) -> np.ndarray:
    batch, n, _ = matrices.shape
    cap = min(cap, n)
    p = _pendant_pairs(matrices)
    if 2 * p >= cap:
        return np.full(batch, cap, dtype=np.int64)
    order = cap - 2 * p
    if order <= _FLOAT32_MAX_ORDER:
        dtype = np.float32
    elif order <= _FLOAT64_MAX_ORDER:
        dtype = np.float64
    else:
        dtype = np.int64
    return 2 * p + _batch_ranks_bareiss(matrices[:, 2 * p:, 2 * p:], dtype, order)


def batch_ranks(matrices: np.ndarray) -> np.ndarray:
    """Exact ranks of a (batch, n, n) integer array with entries in {-1,0,1},
    n <= 16: `capped_ranks` with cap = n.

    The leading vertex pairs that are pendant in every matrix are deleted
    first, with no arithmetic; the leading pairs of the rest that form an
    induced matching in every matrix are then removed by one int8
    Schur-complement step.  Each pair adds 2 to the rank.  Fraction-free
    elimination runs on what is left, carried in float32 arrays when the
    order left after the pendant pairs is <= 8, float64 for 9-14 and
    int64 for 15-16 (exact: all intermediates are Hadamard-bounded minors
    of that matrix).  See the module docstring for the argument.
    Non-integer entries raise ValueError.
    """
    _check_batch(matrices)
    return _capped_ranks(matrices, matrices.shape[1])
