"""Fourier-analytic structure toolkit.

The structure measure rho of a vector a against entry distributions
(c^i_k) is (1/q) * sum_{t != 0} prod_{i not in F} |f_i(t*a_i)|, where
f_i is the modulus of the additive-character transform of distribution i.
Small rho means the linear form X.a is close to uniform.

Character sums run in double-precision complex arithmetic with a global
comparison slack of 1e-12; the slack is always added to the passing side
of an inequality.  The anti-concentration PMFs themselves (linear forms,
subspace membership, quadratic forms) are exact rational computations by
dynamic programming or weighted enumeration, independent of the Fourier
code they are used to validate, and the checks built on them compare
exactly, with no slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product

from .errors import (CodimensionTooLarge, DimensionMismatch, InvalidArgument,
                     TooLargeToEnumerate, need_int)
from .field import Field, field_new
from .matrix import FqMatrix
from .models import EntryDist

SLACK = 1e-12


def f_abs(d: EntryDist, y: int) -> float:
    """|sum_k c_k e_q(k*y)|, the character transform modulus at y."""
    f = field_new(d.q)
    acc = 0j
    for k, c in enumerate(d.probs):
        if c:
            acc += float(c) * f.char_e(f.mul(k, y))
    return abs(acc)


@lru_cache(maxsize=256)
def moduli(d: EntryDist) -> tuple[float, ...]:
    """(f_abs(d, 0), ..., f_abs(d, q-1)), computed once per law for
    threshold_set, rho and the Parseval sum."""
    return tuple(f_abs(d, y) for y in range(d.q))


def threshold_set(d: EntryDist, K: float) -> frozenset[int]:
    """T = {y : |f(y)| >= K * q^(-1/2)}."""
    if not 0 < K < math.inf:  # also rejects nan
        raise InvalidArgument("K must be positive and finite")
    cut = K / d.q ** 0.5
    return frozenset(y for y, v in enumerate(moduli(d)) if v >= cut)


def diff_dist(d: EntryDist) -> EntryDist:
    """Distribution of x - x' for iid x, x' ~ d."""
    f = field_new(d.q)
    support = [(k, c) for k, c in enumerate(d.probs) if c]
    probs = [Fraction(0)] * d.q
    for (k, c), (k2, c2) in product(support, repeat=2):
        probs[f.sub(k, k2)] += c * c2
    return EntryDist(tuple(probs))


@dataclass(frozen=True)
class StructureReport:
    rho: float
    per_t_products: tuple[float, ...]  # indexed by t = 1..q-1
    a: tuple[int, ...]
    F: frozenset[int]
    T_sets: tuple[frozenset[int], ...] | None  # per coordinate, when K given
    K: float | None
    q: int

    def meets_unstructured_condition(self, M: int) -> bool:
        """Claim-1 predicate: for every t != 0, at least M indices i not in F
        have t*a_i outside T_i."""
        if self.T_sets is None:
            raise InvalidArgument("report built without K; no threshold sets")
        M, f = need_int("M", M, 0), field_new(self.q)
        for t in range(1, self.q):
            good = sum(
                1 for i, ai in enumerate(self.a)
                if i not in self.F and f.mul(t, ai) not in self.T_sets[i]
            )
            if good < M:
                return False
        return True


def rho(a, dists: list[EntryDist], F=(), K: float | None = None) -> StructureReport:
    """Structure measure of a, with the per-t products; threshold sets are
    attached when K is given."""
    a = tuple(a)
    if len(a) != len(dists):
        raise DimensionMismatch("vector length != number of distributions")
    q = _one_field(dists)
    a = tuple(need_int("a coordinate", ai, 0, q - 1) for ai in a)
    f = field_new(q)
    Fset = frozenset(need_int("an F index", i, 0, len(a) - 1) for i in F)
    mods = [moduli(d) for d in dists]
    prods = []
    for t in range(1, q):
        p = 1.0
        for i, ai in enumerate(a):
            if i in Fset:
                continue
            p *= mods[i][f.mul(t, ai)]
            if p == 0.0:
                break
        prods.append(p)
    value = sum(prods) / q
    T_sets = tuple(threshold_set(d, K) for d in dists) if K is not None else None
    return StructureReport(rho=value, per_t_products=tuple(prods), a=a,
                           F=Fset, T_sets=T_sets, K=K, q=q)


# ---------------------------------------------------------------------------
# exact anti-concentration PMFs
# ---------------------------------------------------------------------------

def _one_field(dists: list[EntryDist]) -> int:
    """The q of every law in dists, which must be a nonempty list over one field."""
    qs = {d.q for d in dists}
    if len(qs) != 1:
        raise InvalidArgument("the laws must be a nonempty list over one field; "
                              f"their q are {sorted(qs)}")
    return qs.pop()


def _check_fixed(fixed: dict[int, int], dists: list[EntryDist]) -> dict[int, int]:
    """fixed, its coordinates in [0, m) and values in [0, q) stored as ints."""
    m, q = len(dists), _one_field(dists)
    return {need_int("a fixed coordinate", i, 0, m - 1): need_int("a fixed value", v, 0, q - 1)
            for i, v in fixed.items()}


def _joint_law(ws, dists: list[EntryDist], fixed: dict[int, int]
               ) -> dict[tuple[int, ...], Fraction]:
    """Exact joint law of (X.w_1, ..., X.w_d) for vectors w of one length,
    by dynamic programming over the coordinates; coordinates in `fixed` are
    point masses at their fixed values, the rest independent draws from
    dists[i]."""
    fixed = _check_fixed(fixed, dists)
    f = field_new(dists[0].q)
    law = {(0,) * len(ws): Fraction(1)}
    for i, coeffs in enumerate(zip(*ws)):
        if not any(coeffs):
            continue
        support = ([(fixed[i], 1)] if i in fixed
                   else [(x, c) for x, c in enumerate(dists[i].probs) if c])
        new: dict[tuple[int, ...], Fraction] = {}
        for x, cx in support:
            inc = tuple(f.mul(c, x) for c in coeffs)
            for state, p in law.items():
                key = tuple(f.add(s, e) for s, e in zip(state, inc))
                new[key] = new.get(key, Fraction(0)) + p * cx
        law = new
    return law


def linear_form_pmf(a, dists: list[EntryDist], fixed: dict[int, int] | None = None
                    ) -> dict[int, Fraction]:
    """Exact distribution of X.a over F_q; coordinates in `fixed` contribute
    their fixed values, the rest are independent draws from dists[i]."""
    law = _joint_law([tuple(a)], dists, fixed or {})
    return {v: law.get((v,), Fraction(0)) for v in range(dists[0].q)}


def _perp_basis(H_basis: list, n: int, f: Field) -> list[tuple[int, ...]]:
    """A basis w_1, ..., w_d of the orthogonal complement of span(H_basis) in
    F_q^n (the standard basis when H_basis is empty), guarded at d <= 3."""
    if any(len(h) != n for h in H_basis):
        raise DimensionMismatch(f"H basis vectors must have length {n}")
    perp = FqMatrix(f, len(H_basis), n, tuple(x for h in H_basis for x in h)).nullspace()
    if len(perp) != n - len(H_basis):
        raise InvalidArgument("H basis is not linearly independent")
    if len(perp) > 3:
        raise CodimensionTooLarge(f"codimension {len(perp)} > 3")
    return perp


def subspace_prob(H_basis: list, dists: list[EntryDist],
                  fixed: dict[int, int] | None = None) -> Fraction:
    """Exact P(X in H) via the joint law of (X.w_1, ..., X.w_d) for a basis
    w of the orthogonal complement.  Guarded at codimension d <= 3."""
    perp = _perp_basis(H_basis, len(dists), field_new(_one_field(dists)))
    return _joint_law(perp, dists, fixed or {}).get((0,) * len(perp), Fraction(0))


def check_unconc_implies_uniform(H_basis: list, dists: list[EntryDist],
                                 fixed: dict[int, int] | None = None
                                 ) -> tuple[Fraction, Fraction, bool]:
    """lhs = |P(X in H) - q^-d|; delta = max over nonzero w in the orthogonal
    complement of |P(X.w = 0) - 1/q|; pass iff lhs <= 2*delta."""
    q = _one_field(dists)
    f = field_new(q)
    perp = _perp_basis(H_basis, len(dists), f)
    d = len(perp)
    law = _joint_law(perp, dists, fixed or {})
    lhs = abs(law.get((0,) * d, Fraction(0)) - Fraction(1, q**d))
    # w = sum_j c_j w_j has X.w = c.(X.w_j)_j, so its law is read off the
    # joint law of the basis forms
    delta = Fraction(0)
    for c in product(range(q), repeat=d):
        if any(c):
            p_zero = sum((p for y, p in law.items()
                          if reduce(f.add, map(f.mul, c, y), 0) == 0), Fraction(0))
            delta = max(delta, abs(p_zero - Fraction(1, q)))
    return lhs, delta, lhs <= 2 * delta


def quad_form_pmf(B, linear, dists: list[EntryDist],
                  fixed: dict[int, int] | None = None) -> dict[int, Fraction]:
    """Exact distribution of sum_{ij} B[i][j] x_i x_j + sum_i linear[i] x_i,
    by weighted enumeration of all free coordinates: integer weights over
    each law's own denominator, divided out once at the end."""
    fixed = _check_fixed(fixed or {}, dists)
    m = len(dists)
    q = dists[0].q
    f = field_new(q)
    free = [i for i in range(m) if i not in fixed]
    if len(free) > 8 or q ** len(free) > 10**6:
        raise TooLargeToEnumerate(f"q^{len(free)} assignments exceed the guard")
    supports = [[(v, w) for v, w in enumerate(dists[i].numerators) if w] for i in free]
    scale = math.prod(dists[i].denominator for i in free)
    terms = [(i, j, B[i][j]) for i in range(m) for j in range(m) if B[i][j]]
    x = [fixed.get(i, 0) for i in range(m)]
    masses = [0] * q
    for assignment in product(*supports):
        weight = 1
        for i, (v, w) in zip(free, assignment):
            x[i] = v
            weight *= w
        acc = 0
        for i in range(m):
            acc = f.add(acc, f.mul(linear[i], x[i]))
        for i, j, b in terms:
            acc = f.add(acc, f.mul(b, f.mul(x[i], x[j])))
        masses[acc] += weight
    return {v: Fraction(w, scale) for v, w in enumerate(masses)}


def check_decoupling(A, b, dists: list[EntryDist], I) -> tuple[Fraction, Fraction, bool]:
    """Decoupling inequality: sup_r |P(x.Ax + b.x = r) - 1/q|^4 against
    |P(sum_{i in I, j not in I} A_ij y_i y_j = 0) - 1/q| with y = x - x'."""
    m = len(dists)
    q = _one_field(dists)
    Iset = frozenset(I)
    pmf = quad_form_pmf(A, b, dists)
    lhs = max(abs(pmf[r] - Fraction(1, q)) for r in range(q))
    cross = [[A[i][j] if i in Iset and j not in Iset else 0 for j in range(m)]
             for i in range(m)]
    p_zero = quad_form_pmf(cross, [0] * m, [diff_dist(d) for d in dists])[0]
    rhs = abs(p_zero - Fraction(1, q))
    return lhs**4, rhs, lhs**4 <= rhs
