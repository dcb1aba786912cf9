"""Exact oracles: a spec's corank law by enumeration of its cells.

cell_table, the oracles' one reading of a spec, is built from the spec's own
fields, not from ModelSpec.cell_sources, which the sampler reads, so that an
oracle stays independent of the code it checks.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import product

from .distributions import CorankPMF, _pmf
from .errors import InvalidSpec, TooLargeToEnumerate
from .field import Field
from .matrix import insert_row
from .models import GL_KINDS, EntryDist, ModelSpec


def _law(d: EntryDist) -> tuple:
    """A law as its support, (value, integer weight over the law's own
    denominator) pairs, and that denominator."""
    return [(v, w) for v, w in enumerate(d.numerators) if w], d.denominator


def _negated(f: Field, x: int | tuple) -> int | tuple:
    """-x for a fixed value x, the law of -X for a law X."""
    return f.neg(x) if isinstance(x, int) else (sorted((f.neg(v), w) for v, w in x[0]), x[1])


def cell_table(spec: ModelSpec) -> dict[tuple[int, int], int | tuple]:
    """Every cell the kind draws, row by row: every cell, or on symmetric
    and alternating kinds the upper triangle with its diagonal, mapped to its
    fixed value (an F value, the planted corner, the alternating diagonal's
    0) or to its law.  One rule places each of them: what is given below the
    diagonal of a mirrored kind goes to its mirror, negated if alternating."""
    f, kind = spec.field, spec.kind
    if kind in GL_KINDS:
        raise InvalidSpec(f"brute force enumeration not defined for kind {kind!r}")
    mirror = kind not in ("iid-square", "iid-rect")
    alt = "alternating" in kind
    rows, cols = spec.shape
    default = _law(spec.default_dist())
    table = {(i, j): default for i in range(rows) for j in range(i if mirror else 0, cols)}

    def place(i: int, j: int, x: int | tuple) -> None:
        if mirror and i > j:
            i, j, x = j, i, _negated(f, x) if alt else x
        table[i, j] = x

    for i in range(rows if alt else 0):
        place(i, i, 0)
    m0 = spec.planted.rows if spec.planted is not None else 0
    for i, j in product(range(m0), repeat=2):
        place(i, j, spec.planted.get(i, j))
    for (i, j), v in (spec.type_f.fixed_entries() if spec.type_f else {}).items():
        place(i, j, v)
    for i, j, d in spec.overrides:
        place(i, j, _law(d))
    return table


def brute_force_pmf(spec: ModelSpec) -> CorankPMF:
    """Exact corank PMF by weighted enumeration of all free entries, one row
    at a time, depth first: each row's free cells are written once, its
    weight multiplied into its prefix once, and the row inserted once into
    the echelon rows above it, which every completion below it shares.  The
    walk stops one row short: the last row's assignments and their integer
    weights are listed once, and each prefix of the rows above closes in one
    loop that sums the weight of the last rows that reduce to zero against
    its echelon rows, which leave the corank where it is; the rest add a
    pivot.  A one-row spec closes once, without a walk.  It reads the spec's
    cells through cell_table alone."""
    f = spec.field
    table = cell_table(spec)
    mirror = spec.kind not in ("iid-square", "iid-rect")
    alt = "alternating" in spec.kind
    rows, cols = spec.shape
    # the fixed values written, mirrored (negated on alternating kinds); the
    # free cells and their laws listed row by row
    grid = [[0] * cols for _ in range(rows)]
    free: list[list[int]] = [[] for _ in range(rows)]
    choices: list[list[list[tuple[int, int]]]] = [[] for _ in range(rows)]
    laws = []
    for (i, j), x in table.items():
        if isinstance(x, int):
            grid[i][j] = x
            if mirror:
                grid[j][i] = f.neg(x) if alt else x
        else:
            free[i].append(j)
            choices[i].append(x[0])
            laws.append(x)
    assignments = 1  # the product of the support sizes, up to the guard
    for s, _ in laws:
        assignments *= len(s)
        if assignments > 10**7:
            raise TooLargeToEnumerate(f"{len(laws)} free cells with more than 10^7 "
                                      "assignments exceed the guard")
    scale = math.prod(den for _, den in laws)  # divided out once at the end
    last = [(tuple(v for v, _ in a), math.prod(w for _, w in a)) for a in product(*choices[-1])]
    total = sum(w for _, w in last)
    masses: Counter = Counter()
    ech: list = []  # the echelon entries of the rows above the current one

    def close(w: int) -> None:
        """Weigh the last row's assignments against ech, the echelon entries
        of a prefix of weight w."""
        r, row, zero = len(ech), grid[-1], 0
        for values, lw in last:
            for j, v in zip(free[-1], values):
                row[j] = v
            if insert_row(ech, row, f):
                ech.pop()
            else:
                zero += lw
        masses[rows - r] += w * zero
        masses[rows - r - 1] += w * (total - zero)

    above = [(0, 1)] * rows  # len(ech) and the weight above each row of the path
    walk = [product(*choices[0])] if rows > 1 else []  # one iterator per row of the path
    if not walk:
        close(1)
    while walk:
        i = len(walk) - 1
        assignment = next(walk[i], None)
        if assignment is None:
            walk.pop()
            continue
        r, w = above[i]
        row = grid[i]
        for j, (v, vw) in zip(free[i], assignment):
            w *= vw
            row[j] = v
            if mirror and j != i:
                grid[j][i] = f.neg(v) if alt else v
        del ech[r:]
        insert_row(ech, row, f)
        if i + 2 < rows:
            above[i + 1] = len(ech), w
            walk.append(product(*choices[i + 1]))
        else:
            close(w)
    return _pmf({k: Fraction(w, scale) for k, w in masses.items() if w})
