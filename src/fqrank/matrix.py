"""Dense matrices over F_q with exact rank / RREF / nullspace services.

Matrices are immutable: entries live in a flat row-major tuple of element
representatives, Python ints in [0, q).  insert_row is the one scalar
elimination step: it reduces a row against the echelon rows inserted before
it.  rank, rref, nullspace and in_span insert a matrix's rows through
_eliminate, rank_rows those of plain row lists without building (and
range-checking) an FqMatrix, and brute_force_pmf each row of its walk once,
and each assignment of its last row once per prefix; over an exact field
there is nothing to stabilize.  Every row update, in insert_row and in
rref's clearing above a pivot, is one Field.add_multiple call, which builds
row + c*other without a Field method call per entry on prime fields and on
F_{2^k}.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import DimensionMismatch, InvalidArgument, need_int
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
        q = self.field.q
        if not all(type(e) is int and 0 <= e < q for e in self.entries):
            # a numpy integer is kept as the int it equals; a bool, a
            # non-integer and an entry outside [0, q) are refused
            object.__setattr__(self, "entries", tuple(
                need_int("entry", e, 0, q - 1) for e in self.entries))

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


def insert_row(ech: list[tuple[int, int, list[int]]], row: list[int], f: Field) -> bool:
    """One elimination step: reduce row against ech, a list of (pivot column,
    pivot inverse, row) entries whose rows are zero before their pivots and at
    the pivots of the entries before them, and append row's entry at its first
    nonzero column unless it reduced to zero; returns whether it did.  No row
    is rescaled, and row itself is not written: a reduced row is a new list."""
    for c, inv, prow in ech:
        a = row[c]
        if a:
            row = f.add_multiple(row, f.neg(f.mul(a, inv)), prow)  # row - (a / pivot) prow
    for c, x in enumerate(row):
        if x:
            ech.append((c, f.inv(x), row))
            return True
    return False


def _eliminate(m: list[list[int]], f: Field, reduce: bool = False) -> list[int]:
    """Insert the rows of m one at a time by insert_row, stopping once every
    column holds a pivot, and return the pivot columns, sorted.  With
    reduce, each pivot row is then scaled to a leading 1 and cleared above,
    and m is rewritten in place as its reduced row echelon form: the pivot
    rows in pivot order, then zero rows."""
    ech: list[tuple[int, int, list[int]]] = []
    cols = len(m[0]) if m else 0
    for row in m:
        if len(ech) == cols:
            break
        insert_row(ech, row, f)
    ech.sort()
    if reduce:
        red = [[f.mul(inv, x) for x in row] for _, inv, row in ech]
        for k, (c, _, _) in enumerate(ech):
            for i in range(k):
                if red[i][c]:
                    red[i] = f.add_multiple(red[i], f.neg(red[i][c]), red[k])
        m[:] = red + [[0] * cols for _ in range(len(m) - len(red))]
    return [c for c, _, _ in ech]


def rank_rows(m: list[list[int]], f: Field) -> int:
    """Rank of the row lists m, whose entries must already lie in [0, q): the
    entry point for enumerations that build many matrices from known values
    and would pay FqMatrix's range check on each.  m is not written.  It
    inserts the rows itself: _eliminate's sort and pivot list would make a
    2 x 2 rank, a lone GL draw's, about 30% slower."""
    ech: list[tuple[int, int, list[int]]] = []
    for row in m:
        insert_row(ech, row, f)
    return len(ech)


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
