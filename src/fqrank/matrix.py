"""Dense matrices over F_q with exact rank / RREF / nullspace services.

Matrices are immutable: entries live in a flat row-major tuple of element
representatives.  rank, rref, nullspace and in_span all run one forward
elimination, _eliminate, with first-nonzero pivoting; over an exact field
there is nothing to stabilize.  rank_rows ranks plain row lists without
building (and range-checking) an FqMatrix, for the enumeration oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import DimensionMismatch, InvalidArgument
from .field import Field


@dataclass(frozen=True)
class FqMatrix:
    field: Field
    rows: int
    cols: int
    entries: tuple[int, ...] = dc_field(repr=False)

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        if any(not (0 <= e < self.field.q) for e in self.entries):
            raise InvalidArgument("entry out of range for the field")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_rows(cls, f: Field, rows: list[list[int]]) -> "FqMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise DimensionMismatch("ragged rows")
        return cls(f, r, c, tuple(x for row in rows for x in row))

    # -- accessors ------------------------------------------------------------

    def get(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.get(i, j) == self.get(j, i)
            for i in range(self.rows) for j in range(i + 1, self.cols)
        )

    def is_alternating(self) -> bool:
        f = self.field
        if self.rows != self.cols:
            return False
        if any(self.get(i, i) != 0 for i in range(self.rows)):
            return False
        return all(
            self.get(j, i) == f.neg(self.get(i, j))
            for i in range(self.rows) for j in range(i + 1, self.cols)
        )

    # -- elimination ----------------------------------------------------------

    def rref(self) -> tuple["FqMatrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        m = self.to_lists()
        pivots = _eliminate(m, self.field, reduce=True)
        return FqMatrix.from_rows(self.field, m) if m else self, pivots

    def rank(self) -> int:
        return rank_rows(self.to_lists(), self.field)

    def corank(self) -> int:
        """rows - rank; the corank Q(M) for square matrices."""
        return self.rows - self.rank()

    def nullspace(self) -> list[tuple[int, ...]]:
        """Basis of the right kernel {v : Mv = 0}."""
        f = self.field
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [0] * self.cols
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(red.get(r, fc))
            basis.append(tuple(v))
        return basis

    def matvec(self, v: tuple[int, ...]) -> tuple[int, ...]:
        f = self.field
        if len(v) != self.cols:
            raise DimensionMismatch("vector length != cols")
        out = []
        for i in range(self.rows):
            acc = 0
            for j, x in enumerate(v):
                if x:
                    acc = f.add(acc, f.mul(self.get(i, j), x))
            out.append(acc)
        return tuple(out)


def _eliminate(m: list[list[int]], f: Field, reduce: bool = False) -> list[int]:
    """Forward elimination of the row lists m in place, by first-nonzero
    pivoting; returns the pivot columns.  It stops once every row holds a
    pivot.  With reduce, each pivot row is also scaled to a leading 1 and
    cleared above, which leaves m in reduced row echelon form."""
    rows = len(m)
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == rows:
            break
        for piv in range(r, rows):
            if m[piv][c] != 0:
                break
        else:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = f.inv(m[r][c])
        if reduce:
            m[r] = [f.mul(inv, x) for x in m[r]]
            inv = 1
        for i in range(0 if reduce else r + 1, rows):
            if i != r and m[i][c] != 0:
                # row_i + (-a) row_r: f.add and f.mul per entry (f.sub is two calls)
                coef = f.neg(f.mul(m[i][c], inv))
                m[i] = [f.add(x, f.mul(coef, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def rank_rows(m: list[list[int]], f: Field) -> int:
    """Rank of the row lists m, whose entries must already lie in [0, q): the
    entry point for enumerations that build many matrices from known values
    and would pay FqMatrix's range check on each.  m is eliminated in place."""
    return len(_eliminate(m, f))


def in_span(W: FqMatrix, x: tuple[int, ...] | list[int]) -> bool:
    """True iff x lies in the column span of W: one elimination of [W | x],
    in which x's column gets no pivot."""
    if len(x) != W.rows:
        raise DimensionMismatch(f"vector length {len(x)} != {W.rows} rows")
    aug = FqMatrix.from_rows(W.field, [[*W.row(i), x[i]] for i in range(W.rows)])
    return W.cols not in _eliminate(aug.to_lists(), W.field)


# -- fixture text format ------------------------------------------------------
# First line "q rows cols", then row-major space-separated entries.

def dumps_matrix(M: FqMatrix) -> str:
    lines = [f"{M.field.q} {M.rows} {M.cols}"]
    for i in range(M.rows):
        lines.append(" ".join(str(x) for x in M.row(i)))
    return "\n".join(lines) + "\n"


def loads_matrix(text: str) -> FqMatrix:
    from .field import field_new

    try:
        tokens = [int(t) for t in text.split()]
    except ValueError:
        raise InvalidArgument("matrix text holds a token that is not an integer") from None
    if len(tokens) < 3:
        raise DimensionMismatch("matrix text needs a 'q rows cols' header")
    q, rows, cols = tokens[:3]
    body = tokens[3:]
    if rows < 0 or cols < 0 or len(body) != rows * cols:
        raise DimensionMismatch("matrix text has wrong number of entries")
    return FqMatrix(field_new(q), rows, cols, tuple(body))
