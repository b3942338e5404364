"""Fraction-free elimination vs the rational oracle, plus the batch kernel."""

import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_symmetric_matrix
from sgrank import batch_ranks, capped_ranks, determinant, rank, rank_oracle
import sgrank.exact as exact


def cofactor_det(mat):
    """Textbook expansion, the slowest possible cross-check."""
    n = len(mat)
    if n == 0:
        return 1
    total = 0
    sign = 1
    for perm in permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= mat[i][j]
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        total += (-1) ** inv * prod
    return total


int_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


class TestRank:
    def test_zero_matrix(self):
        rep = rank([[0, 0], [0, 0]])
        assert (rep.rank, rep.nullity, rep.order) == (0, 2, 2)

    def test_single_edge(self):
        assert rank([[0, 1], [1, 0]]).rank == 2

    def test_known_singular(self):
        # rows 0 and 2 identical
        assert rank([[1, 2, 1], [0, 1, 3], [1, 2, 1]]).rank == 2

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            rank([[1, 2], [3, 4], [5, 6]])

    def test_empty_matrix(self):
        assert rank([]).rank == 0

    @given(int_matrices)
    @settings(max_examples=200)
    def test_matches_oracle(self, mat):
        assert rank(mat).rank == rank_oracle(mat)

    def test_large_entries_stay_exact(self):
        # Hilbert-like integer matrix with huge minors
        n = 9
        mat = [[(i + j + 1) ** 3 for j in range(n)] for i in range(n)]
        assert rank(mat).rank == rank_oracle(mat)


class TestDeterminant:
    @given(int_matrices)
    @settings(max_examples=150)
    def test_matches_cofactor_expansion(self, mat):
        if len(mat) <= 5:
            assert determinant(mat) == cofactor_det(mat)

    def test_identity_and_swap_signs(self):
        assert determinant([[1, 0], [0, 1]]) == 1
        assert determinant([[0, 1], [1, 0]]) == -1
        # forces a row swap inside the elimination
        assert determinant([[0, 1, 2], [1, 0, 3], [2, 3, 0]]) == 12

    def test_singular_is_zero(self):
        assert determinant([[1, 1], [1, 1]]) == 0


class TestOracle:
    def test_oracle_uses_rationals(self):
        # a matrix that breaks naive float elimination thresholds would
        # require more contrast; instead check a fraction-heavy case exactly
        mat = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assert rank_oracle(mat) == 2
        assert rank(mat).rank == 2

    def test_fraction_pivot_selection(self):
        mat = [[2, 4], [1, 2]]
        assert rank_oracle(mat) == 1


class TestBatchKernel:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 12, 13, 14, 15, 16])
    def test_matches_scalar_bareiss(self, n):
        rng = np.random.default_rng(100 + n)
        batch = 300 if n <= 10 else 80
        mats = rng.integers(-1, 2, size=(batch, n, n)).astype(np.int8)
        half = batch // 2
        mats[:half] = np.tril(mats[:half]) + np.tril(mats[:half], -1).transpose(0, 2, 1)
        got = batch_ranks(mats)
        expect = [rank([[int(x) for x in row] for row in m]).rank for m in mats]
        assert got.tolist() == expect

    def test_float32_and_int64_agree(self):
        rng = np.random.default_rng(7)
        for n in (4, 8):
            mats = rng.integers(-1, 2, size=(500, n, n)).astype(np.int8)
            a = exact._batch_ranks_bareiss(mats, np.float32, n)
            b = exact._batch_ranks_bareiss(mats, np.int64, n)
            assert (a == b).all()

    def test_empty_batch(self):
        out = batch_ranks(np.zeros((0, 5, 5), dtype=np.int8))
        assert out.shape == (0,)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            batch_ranks(np.zeros((3, 4), dtype=np.int8))
        with pytest.raises(ValueError):
            batch_ranks(np.zeros((2, 3, 4), dtype=np.int8))
        with pytest.raises(ValueError):
            batch_ranks(np.full((1, 2, 2), 2, dtype=np.int8))
        with pytest.raises(ValueError):
            batch_ranks(np.zeros((1, 17, 17), dtype=np.int8))

    def test_non_integer_entries_are_refused(self):
        with pytest.raises(ValueError, match="integer"):
            batch_ranks(np.array([[[0.5, 0.5], [0.5, 0.5]]]))
        with pytest.raises(ValueError, match="integer"):
            batch_ranks(np.array([[[0.0, np.nan], [1.0, 0.0]]]))
        rng = np.random.default_rng(8)
        mats = rng.integers(-1, 2, size=(40, 6, 6)).astype(np.int8)
        want = batch_ranks(mats).tolist()
        assert batch_ranks(mats.astype(np.float64)).tolist() == want
        assert batch_ranks(mats.astype(np.int64)).tolist() == want
        assert want == _oracle_ranks(mats)

    def test_worst_case_magnitudes(self):
        # all-ones-off-diagonal and alternating-sign matrices drive the
        # largest minors the kernel can meet on each side of the dtype
        # switch and at the order limit
        for n in (8, 9, 16):
            mats = []
            ones = np.ones((n, n), dtype=np.int8)
            np.fill_diagonal(ones, 0)
            mats.append(ones)
            alt = np.fromfunction(lambda i, j: (-1) ** (i + j), (n, n)).astype(np.int8)
            np.fill_diagonal(alt, 0)
            mats.append(alt)
            rng = np.random.default_rng(n)
            sym = rng.integers(-1, 2, size=(64, n, n))
            sym = np.tril(sym) + np.tril(sym, -1).transpose(0, 2, 1)
            mats.extend(sym.astype(np.int8))
            arr = np.stack(mats)
            got = batch_ranks(arr)
            expect = [rank([[int(x) for x in row] for row in m]).rank for m in arr]
            assert got.tolist() == expect


def _oracle_ranks(mats):
    return [rank_oracle([[int(x) for x in row] for row in m]) for m in mats]


def _rank_one(rng, n):
    u = rng.integers(-1, 2, size=n)
    v = rng.integers(-1, 2, size=n)
    u[rng.integers(n)] = 1
    v[rng.integers(n)] = -1
    return np.outer(u, v).astype(np.int8)


def _full_rank(rng, n):
    while True:
        m = rng.integers(-1, 2, size=(n, n)).astype(np.int8)
        if rank_oracle(m.tolist()) == n:
            return m


# both sides of the dtype switch (8|9), and int64 up to the order limit 16
KERNEL_ORDERS = [5, 8, 9, 14, 15, 16]


class TestBatchKernelEdgeCases:
    """Matrices that leave the shrinking-block elimination at different steps."""

    @pytest.mark.parametrize("n", KERNEL_ORDERS)
    def test_rank_alone_equals_rank_in_mixed_batch(self, n):
        rng = np.random.default_rng(200 + n)
        mats = [np.zeros((n, n), dtype=np.int8), _rank_one(rng, n), _full_rank(rng, n)]
        mats += list(rng.integers(-1, 2, size=(9, n, n)).astype(np.int8))
        low = rng.integers(-1, 2, size=(n, 2))
        mats.append(np.clip(low @ low.T, -1, 1).astype(np.int8))
        arr = np.stack(mats)
        mixed = batch_ranks(arr).tolist()
        alone = [int(batch_ranks(m[None])[0]) for m in arr]
        assert mixed == alone == _oracle_ranks(arr)

    @pytest.mark.parametrize("n", KERNEL_ORDERS)
    def test_zero_rank_one_and_full_rank_mixed(self, n):
        rng = np.random.default_rng(300 + n)
        mats = []
        for i in range(12):
            kind = i % 3
            if kind == 0:
                mats.append(np.zeros((n, n), dtype=np.int8))
            elif kind == 1:
                mats.append(_rank_one(rng, n))
            else:
                mats.append(_full_rank(rng, n))
        arr = np.stack(mats)
        got = batch_ranks(arr).tolist()
        assert got == _oracle_ranks(arr)
        assert got == [0, 1, n] * 4

    @pytest.mark.parametrize("n", KERNEL_ORDERS)
    def test_nonzeros_only_in_last_row_or_column(self, n):
        rng = np.random.default_rng(400 + n)
        mats = []
        for _ in range(6):
            row = np.zeros((n, n), dtype=np.int8)
            row[n - 1] = rng.integers(-1, 2, size=n)
            row[n - 1, rng.integers(n)] = 1
            col = row.T.copy()
            both = row + col
            corner = np.zeros((n, n), dtype=np.int8)
            corner[n - 1, n - 1] = -1
            mats += [row, col, np.clip(both, -1, 1), corner]
        arr = np.stack(mats)
        assert batch_ranks(arr).tolist() == _oracle_ranks(arr)

    @pytest.mark.parametrize("n", KERNEL_ORDERS)
    def test_every_matrix_finishes_early(self, n):
        rng = np.random.default_rng(500 + n)
        mats = []
        for r in range(n):
            # rank <= r < n: every row is 0 or +-1 times one of r base rows
            for _ in range(4):
                base = rng.integers(-1, 2, size=(max(r, 1), n))
                pick = rng.integers(0, max(r, 1), size=n)
                scale = rng.integers(-1, 2, size=n) if r else np.zeros(n, dtype=int)
                mats.append((scale[:, None] * base[pick]).astype(np.int8))
        arr = np.stack(mats)
        got = batch_ranks(arr)
        assert got.tolist() == _oracle_ranks(arr)
        assert (got < n).all()


def _with_leading_matching(rng, n, k, count, symmetric):
    """Random {-1,0,1} matrices whose vertex pairs (0,1), ..., (2k-2, 2k-1)
    form an induced matching; the pair signs s, t are drawn independently
    unless `symmetric`."""
    mats = rng.integers(-1, 2, size=(count, n, n))
    if symmetric:
        mats = np.tril(mats) + np.tril(mats, -1).transpose(0, 2, 1)
    h = 2 * k
    mats[:, :h, :h] = 0
    for a in range(0, h, 2):
        mats[:, a, a + 1] = rng.choice([-1, 1], size=count)
        mats[:, a + 1, a] = (
            mats[:, a, a + 1] if symmetric else rng.choice([-1, 1], size=count)
        )
    return mats.astype(np.int8)


def _with_pendant_pairs(rng, n, p, count, symmetric):
    """Random {-1,0,1} matrices whose vertex pairs (0,1), ..., (2p-2, 2p-1)
    are pendant once the earlier pairs are deleted: row and column 2i
    vanish from 2i on except at 2i+1.  Entries of row and column 2i
    towards earlier pairs' second vertices stay random."""
    mats = rng.integers(-1, 2, size=(count, n, n))
    if symmetric:
        mats = np.tril(mats) + np.tril(mats, -1).transpose(0, 2, 1)
    for x in range(0, 2 * p, 2):
        mats[:, x, x:] = 0
        mats[:, x:, x] = 0
        mats[:, x, x + 1] = rng.choice([-1, 1], size=count)
        mats[:, x + 1, x] = (
            mats[:, x, x + 1] if symmetric else rng.choice([-1, 1], size=count)
        )
    return mats.astype(np.int8)


def _pendant_pairs(matrices):
    """The number p of leading vertex pairs (0,1), (2,3), ... that are
    pendant in every matrix of the batch once the earlier pairs are
    deleted: row and column 2i zero except for nonzero entries at 2i+1.
    It checks the inputs below; the kernel itself looks for no pairs."""
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


def _leading_pairs(matrices):
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


def _assert_every_cap(arr):
    """capped_ranks(arr, cap) = min(rank, cap) for every cap up to n + 1,
    and batch_ranks equals the rational oracle."""
    want = _oracle_ranks(arr)
    assert batch_ranks(arr).tolist() == want
    for cap in range(1, arr.shape[1] + 2):
        assert capped_ranks(arr, cap).tolist() == [min(r, cap) for r in want], cap


class TestMatchingSchurStep:
    """Batches whose leading vertex pairs form an induced matching, the
    sweep's k in 2(p + k) >= g + 1: the plain elimination ranks them exactly
    at every cap, whether or not every matrix keeps the matching."""

    @pytest.mark.parametrize("n", KERNEL_ORDERS)
    def test_every_matching_size(self, n):
        rng = np.random.default_rng(600 + n)
        for k in range((n - 1) // 2 + 1):
            for symmetric in (True, False):
                arr = _with_leading_matching(rng, n, k, 10, symmetric)
                if 2 * k + 2 <= n:
                    arr[0, 2 * k, 2 * k] = 1  # pair k is not a matched edge
                assert _leading_pairs(arr) == k
                if not symmetric and k:
                    assert (arr[:, 0, 1] != arr[:, 1, 0]).any()
                _assert_every_cap(arr)

    @pytest.mark.parametrize("n", [2, 4, 8, 14, 16])
    def test_perfect_matching_leaves_no_block(self, n):
        # an induced perfect matching has full rank
        rng = np.random.default_rng(650 + n)
        arr = _with_leading_matching(rng, n, n // 2, 6, symmetric=False)
        assert _leading_pairs(arr) == n // 2
        assert batch_ranks(arr).tolist() == [n] * 6 == _oracle_ranks(arr)
        assert capped_ranks(arr, n - 1).tolist() == [n - 1] * 6

    @pytest.mark.parametrize("n", KERNEL_ORDERS)
    def test_one_matrix_breaking_the_matching_lowers_k(self, n):
        rng = np.random.default_rng(700 + n)
        k = (n - 1) // 2
        for j in range(k):
            arr = _with_leading_matching(rng, n, k, 8, symmetric=j % 2 == 0)
            odd = arr[3]
            if j == 0:
                odd[0, 1] = 0  # a pair without its edge
            elif j % 2:
                odd[2 * j, 0] = odd[0, 2 * j] = 1  # an edge to an earlier pair
            else:
                odd[2 * j, 2 * j] = 1  # a loop on the pair
            assert _leading_pairs(arr) == j
            mixed = batch_ranks(arr).tolist()
            alone = [int(batch_ranks(m[None])[0]) for m in arr]
            assert mixed == alone == _oracle_ranks(arr)
            cap = 2 * k
            assert capped_ranks(arr, cap).tolist() == [min(r, cap) for r in mixed]

    @pytest.mark.parametrize("n", [8, 9, 14, 15, 16])
    def test_worst_case_magnitudes_with_a_matching(self, n):
        # negative pairs and all-equal or alternating signs elsewhere: the
        # matrices that made the Schur complement over the matching largest
        for k in range(1, (n - 1) // 2 + 1):
            h = 2 * k
            mats = []
            for alternating in (False, True):
                mat = np.fromfunction(
                    lambda i, j: (-1) ** (i + j) if alternating else 1 + 0 * i,
                    (n, n),
                ).astype(np.int8)
                np.fill_diagonal(mat, 0)
                mat[:h, :h] = 0
                for a in range(0, h, 2):
                    mat[a, a + 1] = mat[a + 1, a] = -1
                mats.append(mat)
            arr = np.stack(mats)
            assert _leading_pairs(arr) == k
            _assert_every_cap(arr)


class TestPendantPairs:
    """Batches whose leading vertex pairs are pendant, the sweep's p in
    2(p + k) >= g + 1: the plain elimination ranks them exactly at every
    cap, including the shapes a wrong pendant deletion would misrank."""

    @pytest.mark.parametrize("n", KERNEL_ORDERS)
    def test_every_pendant_count(self, n):
        rng = np.random.default_rng(800 + n)
        for p in range(n // 2 + 1):
            for symmetric in (True, False):
                arr = _with_pendant_pairs(rng, n, p, 10, symmetric)
                if 2 * p + 2 <= n:
                    arr[0, 2 * p, 2 * p] = 1  # pair p is not pendant
                assert _pendant_pairs(arr) == p
                _assert_every_cap(arr)

    @pytest.mark.parametrize("n", KERNEL_ORDERS)
    def test_pendant_row_over_a_longer_column_is_kept(self, n):
        # row 2i is pendant, column 2i is not: deleting the pair would
        # change the rank by 1 or 3 in some of these matrices
        rng = np.random.default_rng(850 + n)
        for i in range((n - 1) // 2):
            x = 2 * i
            arr = _with_pendant_pairs(rng, n, i + 1, 40, symmetric=False)
            # a sparse rest is rank deficient, where a wrong deletion shows
            arr[:, x + 2:, x + 2:] *= rng.random((40, n - x - 2, n - x - 2)) < 0.15
            arr[np.arange(40), x + 2 + rng.integers(n - x - 2, size=40), x] = 1
            assert _pendant_pairs(arr) == i
            got = batch_ranks(arr).tolist()
            assert got == _oracle_ranks(arr)
            rows_only = 2 * (i + 1) + batch_ranks(arr[:, x + 2:, x + 2:])
            assert (rows_only != np.array(got)).any()
            cap = x + 3
            assert capped_ranks(arr, cap).tolist() == [min(r, cap) for r in got]

    @pytest.mark.parametrize("n", KERNEL_ORDERS)
    def test_one_matrix_breaking_the_pairs_lowers_p(self, n):
        rng = np.random.default_rng(900 + n)
        p = n // 2
        for j in range(p):
            x = 2 * j
            arr = _with_pendant_pairs(rng, n, p, 8, symmetric=j % 2 == 0)
            odd = arr[3]
            kind = j % 4
            if kind == 0:
                odd[x, x + 1] = 0  # a pair without its edge
            elif kind == 1:
                odd[x, x] = -1  # a loop on the pendant vertex
            elif kind == 2 and x + 2 < n:
                odd[x + 2, x] = 1  # a second neighbour, in the column only
            elif x + 2 < n:
                odd[x, n - 1] = 1  # a second neighbour, in the row only
            else:
                odd[x + 1, x] = 0
            assert _pendant_pairs(arr) == j
            mixed = batch_ranks(arr).tolist()
            alone = [int(batch_ranks(m[None])[0]) for m in arr]
            assert mixed == alone == _oracle_ranks(arr)
            cap = 2 * p - 1
            assert capped_ranks(arr, cap).tolist() == [min(r, cap) for r in mixed]

    @pytest.mark.parametrize("n", KERNEL_ORDERS)
    def test_pendant_pairs_followed_by_a_matching(self, n):
        rng = np.random.default_rng(950 + n)
        for p in range(1, n // 2):
            h = 2 * p
            # an unmatched vertex is left, so the first matched vertex
            # can have a second neighbour and is not pendant
            for k in range(1, (n - h - 1) // 2 + 1):
                for symmetric in (True, False):
                    arr = _with_pendant_pairs(rng, n, p, 8, symmetric)
                    rest = _with_leading_matching(rng, n - h, k, 8, symmetric)
                    rest[:, 0, -1] = 1
                    if 2 * k + 2 <= n - h:
                        rest[0, 2 * k, 2 * k] = 1  # pair k is not a matched edge
                    arr[:, h:, h:] = rest
                    assert _pendant_pairs(arr) == p
                    assert _leading_pairs(arr[:, h:, h:]) == k
                    _assert_every_cap(arr)


def _sylvester_hadamard(n):
    """The Sylvester Hadamard matrix of order n, a power of 2: +-1 entries
    and |det| = n**(n/2), Hadamard's bound, as have its leading blocks of
    every power-of-2 order."""
    h = np.ones((1, 1), dtype=np.int8)
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return h


class TestCappedKernel:
    """capped_ranks(matrices, cap) = min(rank, cap), the sweep's kernel."""

    @pytest.mark.parametrize("n", range(3, 17))
    def test_equals_the_capped_oracle(self, n):
        rng = np.random.default_rng(1000 + n)
        batches = []
        for symmetric in (True, False):
            dense = rng.integers(-1, 2, size=(6, n, n))
            if symmetric:
                dense = np.tril(dense) + np.tril(dense, -1).transpose(0, 2, 1)
            # sparse matrices have ranks well below the order
            dense[:3] *= rng.random((3, n, n)) < 0.15
            batches.append(dense.astype(np.int8))
            # the shapes behind the sweep's 2(p + k) rule
            p = int(rng.integers(1, n // 2 + 1))
            batches.append(_with_pendant_pairs(rng, n, p, 6, symmetric))
            k = int(rng.integers(1, (n - 1) // 2 + 1))
            batches.append(_with_leading_matching(rng, n, k, 6, symmetric))
            if n >= 5:
                # one pendant pair, then a matching of the rest
                both = _with_pendant_pairs(rng, n, 1, 6, symmetric)
                rest = _with_leading_matching(rng, n - 2, (n - 3) // 2, 6, symmetric)
                rest[:, 0, -1] = 1
                both[:, 2:, 2:] = rest
                batches.append(both)
        for arr in batches:
            want = _oracle_ranks(arr)
            for cap in range(1, n + 2):
                got = capped_ranks(arr, cap).tolist()
                assert got == [min(r, cap) for r in want], (cap, got, want)

    @pytest.mark.parametrize("n, cap, dtype", [
        (8, 9, np.float32),
        (9, 9, np.int64),
        (16, 9, np.int64),
        (16, 17, np.int64),
        (16, 8, np.float32),
    ])
    def test_worst_case_magnitudes_at_the_elimination_order(
        self, monkeypatch, n, cap, dtype
    ):
        # the dtype follows the elimination order min(n, cap): the cap
        # makes an order-16 matrix run in float32
        rng = np.random.default_rng(1100 + n + cap)
        mats = []
        hadamard = _sylvester_hadamard(16)[:n, :n]
        for alternating in (False, True, None):
            if alternating is None:
                mat = hadamard.copy()
            else:
                mat = np.fromfunction(
                    lambda i, j: (-1) ** (i + j) if alternating else 1 + 0 * i, (n, n)
                ).astype(np.int8)
                np.fill_diagonal(mat, 0)
            mats.append(mat)
        mats.append(hadamard[rng.permutation(n)][:, rng.permutation(n)])
        sym = rng.integers(-1, 2, size=(8, n, n))
        mats.extend((np.tril(sym) + np.tril(sym, -1).transpose(0, 2, 1)).astype(np.int8))
        arr = np.stack(mats)
        order = min(n, cap)
        seen = []
        inner = exact._batch_ranks_bareiss

        def spy(matrices, dtype, cap):
            seen.append((matrices.shape[1], dtype, cap))
            return inner(matrices, dtype, cap)

        monkeypatch.setattr(exact, "_batch_ranks_bareiss", spy)
        got = capped_ranks(arr, cap).tolist()
        assert seen == [(n, dtype, order)]
        assert got == [min(r, cap) for r in _oracle_ranks(arr)]
        # int64 carries every minor of order <= 16 exactly
        assert (inner(arr, dtype, order) == inner(arr, np.int64, order)).all()

    def test_input_validation(self):
        with pytest.raises(ValueError, match="order <= 16, got 17"):
            capped_ranks(np.zeros((2, 17, 17), dtype=np.int8), 8)
        with pytest.raises(ValueError, match="non-negative"):
            capped_ranks(np.zeros((2, 4, 4), dtype=np.int8), -1)
        with pytest.raises(ValueError, match="integer"):
            capped_ranks(np.full((1, 3, 3), 2, dtype=np.int8), 2)
        assert capped_ranks(np.ones((2, 4, 4), dtype=np.int8), 0).tolist() == [0, 0]
        assert capped_ranks(np.zeros((0, 5, 5), dtype=np.int8), 3).shape == (0,)


def test_rank_report_consistency():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(1, 8)
        mat = random_symmetric_matrix(rng, n)
        rep = rank(mat)
        assert rep.rank + rep.nullity == rep.order == n
        assert rep.rank == rank_oracle(mat)
