"""Vectorized elimination kernel used by the GL sampler, the Monte Carlo
harness and the corank fqrank sample prints, on every field F_q.

Elements are integer arrays with entries in [0, q); all arithmetic goes
through Field.vec.  rank_stack eliminates a whole (B, R, C) stack of
matrices at once, one column per step across the stack.  Its trailing-block
update is Field.vec.sub_mul, which on prime fields leaves x - a*b unreduced
(delayed modular reduction); Field.vec.reduce brings an array back into
[0, q) where an entry is compared or multiplied.  On extension fields
sub_mul goes through exp/log tables and reduce is the identity, so the same
kernel runs on every field.  On prime fields the delayed entries stay below
q + C(p-1)^2, so the stack runs in the narrowest integer type that holds
that bound (_working_dtype).  A column where every matrix has a pivot
retires a row: each first row moves into its pivot row's slot and the
update runs on one row fewer, so an n x n stack costs about n^3/3 entry
updates, not n^3/2.  Where only some matrices have a pivot, a pivot row's
own factor is 1, so its own update clears it and it is never chosen again.
FqMatrix.rank is the scalar counterpart and the oracle this kernel is
tested against.
"""

from __future__ import annotations

import numpy as np

from .field import field_new


def _working_dtype(q: int, cols: int) -> type[np.signedinteger]:
    """The narrowest of int16, int32 and int64 holding q + cols*(p-1)^2, the
    bound on every entry rank_stack makes on a prime field; extension fields
    keep int64, which their tables index."""
    if field_new(q).k > 1:
        return np.int64
    bound = q + cols * (q - 1) ** 2
    return next(t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


def rank_stack(stack: np.ndarray, q: int) -> np.ndarray:
    """Ranks over F_q of a (B, R, C) stack of integer matrices with entries
    in [0, q), by elimination one column at a time; a column where every
    matrix has a pivot drops a row from the update."""
    f = field_new(q).vec
    B, R, C = stack.shape
    dt = _working_dtype(q, C)
    m = np.array(stack, dtype=dt)
    rank = np.zeros(B, dtype=np.int64)  # pivots of the steps that retire no row
    retired = 0
    b = np.arange(B)
    inv = f.inv.astype(dt)  # the int64 table would widen the factor, and m
    # m holds the columns not yet eliminated.  Only the pivot column and the
    # pivot row are reduced, so each update x - a*b subtracts a product in
    # [0, (p-1)^2], and after k < C updates every entry lies in
    # [-k(p-1)^2, q): below q + C(p-1)^2, which dt holds.  A pivot row's own
    # factor is 1 <= p-1, so the update that clears it (to 0 mod p) keeps
    # the bound.
    for _ in range(C):
        if retired == R:
            break
        col = f.reduce(m[:, :, 0])
        piv = (col != 0).argmax(axis=1)
        pivot = col[b, piv]  # 0 where a matrix has no pivot in this column
        m = m[:, :, 1:]
        found = np.count_nonzero(pivot)
        if not found:
            continue
        prow = f.reduce(m[b, piv])
        if found == B:
            m[b, piv], col[b, piv] = m[:, 0], col[:, 0]
            m, col = m[:, 1:], col[:, 1:]
            retired += 1
        else:
            rank += pivot != 0
            if rank.min() + retired == R:
                break
        m = f.sub_mul(m, f.mul(col, inv[pivot][:, None])[:, :, None], prow[:, None, :])
    return rank + retired


def rank_mod_p(mat: np.ndarray, q: int) -> int:
    """Rank over F_q of one integer matrix with entries in [0, q)."""
    return int(rank_stack(mat[None], q)[0])

