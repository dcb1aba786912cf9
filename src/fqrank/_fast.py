"""Vectorized elimination kernels used by the samplers and the Monte Carlo
harness, on every field F_q.

Elements are integer arrays with entries in [0, q); all arithmetic goes
through Field.vec, which reduces mod p on prime fields and looks up exp/log
tables on extension fields.  FqMatrix.rank is the scalar counterpart and the
independent oracle these kernels are tested against.
"""

from __future__ import annotations

import numpy as np

from .field import Field, field_new


def rank_mod_p(mat: np.ndarray, q: int) -> int:
    """Rank over F_q of an integer matrix with entries in [0, q), by
    elimination (q = p on prime fields)."""
    f = field_new(q).vec
    m = mat.copy()
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + nz[0]
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        m[r] = f.mul(m[r], f.inv[m[r, c]])
        below = m[r + 1:, c]
        if below.size and np.any(below):
            m[r + 1:] = f.sub_outer(m[r + 1:], below, m[r])
        r += 1
        if r == rows:
            break
    return r


class SpanTracker:
    """Incremental column-span membership over F_q.

    Maintains a fully reduced basis (RREF rows) of the span; add() reduces a
    vector against the basis and inserts it if it lies outside the span.
    """

    def __init__(self, n: int, f: Field):
        self.f = f.vec
        self.basis = np.zeros((0, n), dtype=np.int64)
        self.pivots: list[int] = []

    def add(self, x: np.ndarray) -> bool:
        """Insert x; False, leaving the span unchanged, if x already lies in it."""
        red = self.f.sub_dot(x, x[self.pivots], self.basis)
        nz = np.nonzero(red)[0]
        if nz.size == 0:
            return False
        j = int(nz[0])
        red = self.f.mul(red, self.f.inv[red[j]])
        if self.pivots:
            self.basis = self.f.sub_outer(self.basis, self.basis[:, j], red)
        self.basis = np.vstack([self.basis, red[None, :]])
        self.pivots.append(j)
        return True
