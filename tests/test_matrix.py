import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqrank._fast import rank_mod_p, rank_stack
from fqrank.errors import DimensionMismatch, InvalidArgument
from fqrank.field import field_new
from fqrank.matrix import FqMatrix, dumps_matrix, insert_row, loads_matrix

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(4)


def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        FqMatrix(F2, 2, 2, (0, 1, 0))
    with pytest.raises(ValueError):
        FqMatrix(F2, 1, 1, (2,))


@pytest.mark.parametrize("entries", [(1.5, True), (1, True), (0, 1.0), (0, "1"), (0, None),
                                     (np.int64(1), 3), (-1, 0)])
def test_entries_must_be_field_integers(entries):
    # a bool or a float passes a range check alone, and then fails in rank()
    with pytest.raises(InvalidArgument, match="entry must be an integer in \\[0, 2\\]"):
        FqMatrix(F3, 1, 2, entries)


def test_numpy_integer_entries_are_stored_as_ints():
    M = FqMatrix(F3, 1, 3, (np.int64(2), np.uint8(1), 0))
    assert M.entries == (2, 1, 0) and all(type(e) is int for e in M.entries)
    assert M == FqMatrix(F3, 1, 3, (2, 1, 0)) and M.rank() == 1


def test_identity_and_zero():
    I = FqMatrix.from_rows(F3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert I.rank() == 3 and I.corank() == 0
    Z = FqMatrix.from_rows(F3, [[0, 0, 0], [0, 0, 0]])
    assert Z.rank() == 0 and Z.corank() == 2


def test_rank_known_values():
    M = FqMatrix.from_rows(F2, [[1, 1], [1, 1]])
    assert M.rank() == 1
    M = FqMatrix.from_rows(F3, [[1, 2, 0], [2, 1, 0], [0, 0, 1]])
    assert M.rank() == 2  # top corner has det 1 - 4 = 0 mod 3
    M = FqMatrix.from_rows(F3, [[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    assert M.rank() == 3
    # rows proportional over F_3: (2,1,0) = 2*(1,2,0)
    M = FqMatrix.from_rows(F3, [[1, 2, 0], [2, 1, 0], [0, 0, 0]])
    assert M.rank() == 1


def test_rank_extension_field():
    # over F_4, (2,3) = 2*(1,x+1)... check a rank-1 construction directly
    a = 2
    row = (1, 3)
    scaled = tuple(F4.mul(a, x) for x in row)
    M = FqMatrix.from_rows(F4, [list(row), list(scaled)])
    assert M.rank() == 1


def _oracle_rank(f, a):
    return FqMatrix(f, a.shape[0], a.shape[1], tuple(a.ravel().tolist())).rank()


def test_rank_mod_p_matches_fqmatrix_rank():
    rng = np.random.default_rng(0)
    for q in (2, 4, 8, 9, 25, 101, 256, 65521):
        f = field_new(q)
        for t in range(40):
            rows, cols = rng.integers(1, 7, size=2)
            a = rng.integers(0, q, size=(rows, cols))
            if t % 2:  # zero-heavy: many columns without a pivot
                a[rng.random((rows, cols)) < 0.75] = 0
            if t % 3 == 0 and rows > 1:  # a dependent row
                a[-1] = f.vec.mul(a[0], int(rng.integers(1, q)))
            assert rank_mod_p(a, q) == _oracle_rank(f, a)
        # whole stacks, tall, wide and square, mixing full-rank matrices
        # with zero-heavy, dependent-row and zero ones
        for rows, cols in ((7, 4), (4, 7), (6, 6)):
            stack = rng.integers(0, q, size=(8, rows, cols))
            stack[1::2][rng.random((4, rows, cols)) < 0.75] = 0
            stack[2, -1] = f.vec.mul(stack[2, 0], int(rng.integers(1, q)))
            stack[4, :, 1] = 0
            stack[6] = 0
            ranks = rank_stack(stack, q)
            assert ranks.tolist() == [_oracle_rank(f, a) for a in stack]
            assert 0 in ranks and min(rows, cols) in ranks
    # 64 delayed updates at p = 65521 leave entries far beyond int32
    stack = rng.integers(0, 65521, size=(3, 64, 64))
    stack[1, 40] = stack[1, 3]
    stack[2, :, 60] = field_new(65521).vec.mul(stack[2, :, 5], 7)
    ranks = rank_stack(stack, 65521)
    assert ranks.tolist() == [_oracle_rank(field_new(65521), a) for a in stack]
    assert ranks.tolist() == [64, 63, 63]


@pytest.mark.parametrize("q", [2, 3, 4, 9, 101, 65521])
def test_rank_stack_pivot_row_clears_itself(q):
    """rank_stack keeps no mask of used pivot rows: a pivot row's own update
    must clear it, or a later column picks it again and these rank-1 stacks
    (one nonzero row, or every row a multiple of the first) rank above 1."""
    f = field_new(q)
    rng = np.random.default_rng(q)
    B, R, C = 12, 5, 7
    row = rng.integers(1, q, size=(B, C))
    row[1::3, :2] = 0  # a pivot further right
    lone = np.zeros((B, R, C), dtype=np.int64)
    lone[np.arange(B), rng.integers(0, R, size=B)] = row
    repeats = f.vec.mul(row[:, None, :], rng.integers(1, q, size=(B, R, 1)))
    repeats[::2] = row[::2, None, :]  # exact copies
    for stack in (lone, repeats):
        assert [_oracle_rank(f, a) for a in stack] == [1] * B
        assert rank_stack(stack, q).tolist() == [1] * B


@pytest.mark.parametrize("q, C, dtype", [
    (2, 40, np.int16), (7, 40, np.int16),
    (101, 3, np.int16), (101, 4, np.int32), (101, 50, np.int32),
    (46337, 1, np.int32), (46337, 2, np.int64), (65521, 64, np.int64),
    (9, 6, np.int64), (256, 6, np.int64),  # extension fields keep int64
])
def test_rank_stack_working_type_holds_every_entry(monkeypatch, q, C, dtype):
    """rank_stack runs in the narrowest type holding q + C(p-1)^2, the bound
    on every entry its delayed updates make: each sub_mul output keeps that
    type, stays within the bound, and the ranks are FqMatrix.rank's."""
    f = field_new(q)
    records = []
    sub_mul = f.vec.sub_mul

    def recording(x, a, b):
        out = sub_mul(x, a, b)
        records.append((out.dtype, int(np.abs(out).max(initial=0))))
        return out

    monkeypatch.setattr(f.vec, "sub_mul", recording)
    rng = np.random.default_rng(C)
    top = q - 1
    # row j < C-1 is e_j + top e_{C-1} and the last row is top left of its
    # last entry, so each of the C-1 pivots gives the last row factor p-1
    # against a pivot row entry p-1: its last entry falls to -(C-1)(p-1)^2
    worst = np.zeros((C, C), dtype=np.int64)
    worst[np.arange(C - 1), np.arange(C - 1)] = 1
    worst[:C - 1, -1] = top
    worst[-1, :-1] = top
    repeats = np.repeat(rng.integers(0, q, size=(1, C)), C, axis=0)
    repeats = f.vec.mul(repeats, rng.integers(0, q, size=(C, 1)))
    sparse = rng.integers(0, q, size=(C, C))
    sparse[rng.random((C, C)) < 0.75] = 0
    stack = np.stack([np.full((C, C), top), repeats, sparse,
                      rng.integers(0, q, size=(C, C)), worst])
    assert rank_stack(stack, q).tolist() == [_oracle_rank(f, a) for a in stack]
    assert records and {t for t, _ in records} == {np.dtype(dtype)}
    peak = max(m for _, m in records)
    assert peak <= q + C * (f.p - 1) ** 2
    if f.k == 1:
        assert peak == (C - 1) * (q - 1) ** 2


def _full_rank(f, rng, n):
    while True:
        a = rng.integers(0, f.q, size=(n, n))
        if _oracle_rank(f, a) == n:
            return a


def _mixed_stack(f, rng, n):
    """Full-rank and rank-one matrices, full-rank ones with a zero first,
    middle or last column, and alternating ones of odd n (corank >= 1)."""
    full = [_full_rank(f, rng, n) for _ in range(3)]
    u, v = rng.integers(1, f.q, size=(2, 2, n))
    u[:, ::3] = 0
    rank_one = [f.vec.mul(u[i][:, None], v[i][None, :]) for i in range(2)]
    zero_col = [_full_rank(f, rng, n) for _ in range(3)]
    for a, j in zip(zero_col, (0, n // 2, n - 1)):
        a[:, j] = 0
    alternating = []
    for _ in range(2):
        x = rng.integers(0, f.q, size=(n, n))
        a = f.vec.sub(x, x.T)
        np.fill_diagonal(a, 0)
        alternating.append(a)
    return np.stack(full + rank_one + zero_col + alternating)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 101])
def test_rank_stack_rank_does_not_depend_on_the_stack(q):
    """Whether a step retires a row depends on every matrix in the stack, so
    no matrix's rank may: the stack, each matrix alone, a shuffled copy,
    splits and pairs of it all give FqMatrix.rank's ranks."""
    f = field_new(q)
    rng = np.random.default_rng(q)
    n = 7
    stack = _mixed_stack(f, rng, n)
    ranks = [_oracle_rank(f, a) for a in stack]
    assert {1, n - 1, n} <= set(ranks)
    assert rank_stack(stack, q).tolist() == ranks
    assert [int(rank_stack(a[None], q)[0]) for a in stack] == ranks
    order = rng.permutation(len(stack))
    assert rank_stack(stack[order], q).tolist() == [ranks[i] for i in order]
    for k in range(1, len(stack)):
        assert rank_stack(stack[:k], q).tolist() + rank_stack(stack[k:], q).tolist() == ranks
    for i in range(1, len(stack)):  # a full-rank matrix beside each other one
        assert rank_stack(stack[[0, i]], q).tolist() == [n, ranks[i]]


@pytest.mark.parametrize("q", [2, 9, 101])
@pytest.mark.parametrize("j", [None, 0, 3, 5])
def test_rank_stack_retires_a_row_where_every_matrix_has_a_pivot(monkeypatch, q, j):
    """A column step where every matrix has a pivot drops a row, so each
    sub_mul runs on one row fewer than the last; at column j one matrix has
    no pivot, and that step keeps the row count of the step before."""
    f = field_new(q)
    rows = []
    sub_mul = f.vec.sub_mul
    monkeypatch.setattr(f.vec, "sub_mul",
                        lambda x, a, b: rows.append(x.shape[1]) or sub_mul(x, a, b))
    n = 6
    rng = np.random.default_rng(q)
    stack = np.stack([_full_rank(f, rng, n) for _ in range(4)])
    if j is not None:
        stack[2, :, j] = 0
    assert rank_stack(stack, q).tolist() == [n, n, n - (j is not None), n]
    retiring = [i for i in range(n) if i != j]
    assert rows == [n - sum(r <= i for r in retiring) for i in range(n)]


@pytest.mark.parametrize("q", [2, 9, 101])
@pytest.mark.parametrize("shape", [(0, 3, 4), (0, 0, 0), (3, 0, 4), (3, 4, 0), (2, 0, 0)])
def test_rank_stack_edge_shapes(q, shape):
    f = field_new(q)
    stack = np.zeros(shape, dtype=np.int64)
    ranks = rank_stack(stack, q)
    assert ranks.shape == (shape[0],)
    assert ranks.tolist() == [_oracle_rank(f, a) for a in stack]


def test_rref_pivots():
    M = FqMatrix.from_rows(F3, [[0, 2, 1], [1, 1, 0]])
    red, pivots = M.rref()
    assert pivots == [0, 1]
    # pivot columns reduce to unit vectors
    assert red.get(0, 0) == 1 and red.get(1, 0) == 0
    assert red.get(0, 1) == 0 and red.get(1, 1) == 1


def _product(M, v):
    """M v over M's field, entry by entry through Field.add and Field.mul."""
    f = M.field
    return tuple(reduce(f.add, map(f.mul, row, v), 0) for row in M.to_lists())


def test_nullspace_is_kernel():
    M = FqMatrix.from_rows(F3, [[1, 2, 0], [0, 1, 1]])
    basis = M.nullspace()
    assert len(basis) == M.cols - M.rank() == 1
    for v in basis:
        assert _product(M, v) == (0, 0)


def test_text_roundtrip():
    M = FqMatrix.from_rows(F4, [[0, 1, 2], [3, 2, 1]])
    text = dumps_matrix(M)
    assert text.splitlines()[0] == "4 2 3"
    assert loads_matrix(text) == M


@st.composite
def matrices(draw):
    """A matrix over F_q with 0-6 rows and columns, zero-heavy half the time."""
    f = field_new(draw(st.sampled_from((2, 3, 4, 9, 101))))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.integers(0, f.q - 1)
    if draw(st.booleans()):
        entry = st.just(0) | st.just(0) | entry
    return FqMatrix(f, rows, cols, tuple(draw(st.lists(
        entry, min_size=rows * cols, max_size=rows * cols))))


@settings(max_examples=300, deadline=None, database=None)
@given(matrices())
def test_oracle_self_consistency(M):
    """rank, rref and the nullspaces of M and its transpose agree with one
    another, and M (or its transpose) maps each nullspace basis vector to 0."""
    red, pivots = M.rref()
    T = FqMatrix(M.field, M.cols, M.rows,
                 tuple(x for col in zip(*M.to_lists()) for x in col))
    kernel, left = M.nullspace(), T.nullspace()
    assert M.rank() == len(pivots) == M.cols - len(kernel) == M.rows - len(left)
    assert all(_product(M, v) == (0,) * M.rows for v in kernel)
    assert all(_product(T, w) == (0,) * M.cols for w in left)
    assert red.rref() == (red, pivots)


def _insert_row_reference(ech, row, f):
    """insert_row's former row update, f.add and f.mul per entry."""
    for c, inv, prow in ech:
        a = row[c]
        if a:
            coef = f.neg(f.mul(a, inv))
            row = [f.add(x, f.mul(coef, y)) for x, y in zip(row, prow)]
    for c, x in enumerate(row):
        if x:
            ech.append((c, f.inv(x), row))
            return True
    return False


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25, 256, 6561, 65521, 65536])
def test_insert_row_builds_the_reference_echelon_entries(q):
    # seeded random rows, zero-heavy half the time, so that rows also reduce
    # to zero; each insertion must return and append what the reference does
    f = field_new(q)
    rnd = random.Random(q)
    for _ in range(30):
        rows, cols = rnd.randint(1, 7), rnd.randint(1, 7)
        sparse = rnd.random() < 0.5
        m = [[rnd.choice((0, 0, 0, rnd.randrange(q))) if sparse else rnd.randrange(q)
              for _ in range(cols)] for _ in range(rows)]
        if rows > 1:
            m[-1] = f.add_multiple(m[0], rnd.randrange(q), m[-2])  # in the span
        ech, ref = [], []
        for row in m:
            assert insert_row(ech, list(row), f) == _insert_row_reference(ref, list(row), f)
            assert ech == ref
