"""Corank distributions for uniform matrix ensembles over F_q.

Finite-n laws are exact counts of the matrices of each rank.  A limiting
law's mass is an exact rational weight times one infinite q-product, which
_limit_constant cuts to a rational lower bound; the law keeps those masses
with a recorded tail bound, so every comparison downstream is exact up to
that tail.  Each product of (q^i - 1) or (1 - q^-i) is one call of _qprod.

Two corrections to the printed closed forms are applied (and guarded by
the enumeration oracles in the test suite):
  * the finite-n symmetric product factor is q^(2i)/(q^(2i)-1);
  * the symmetric limit denominator runs over prod_{i=1}^k (q^i - 1).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import EvenCharacteristic, InvalidArgument
from .field import Field
from .models import _is_int

ZERO = Fraction(0)


def int_str(n: int) -> str:
    """str(n) at any length: str() refuses an int of over 4,300 digits, a
    guard against slow parsing that the masses of a small-tol limit law pass."""
    return str(Decimal(n))


def _ratio_str(x: Fraction) -> str:
    return f"{int_str(x.numerator)}/{int_str(x.denominator)}"


@dataclass(frozen=True)
class CorankPMF:
    """A PMF over integer coranks with exact masses and an exact tail_bound,
    summing to exactly 1.  A law with tail_bound > 0 is a truncated limit: its
    masses are lower bounds, and tail_bound bounds the mass they leave out.
    """

    support: tuple[tuple[int, Fraction], ...]
    tail_bound: Fraction = ZERO

    def __post_init__(self):
        ks = [k for k, _ in self.support]
        masses = [m for _, m in self.support]
        if not all(map(_is_int, ks)):
            raise InvalidArgument("coranks must be integers")
        if not all(_is_int(m) or isinstance(m, Fraction) for m in masses + [self.tail_bound]):
            raise InvalidArgument("masses and tail_bound must be ints or Fractions")
        # numpy integers pass both tests; keep Python ints, which json writes
        object.__setattr__(self, "support", tuple(
            (int(k), m if isinstance(m, Fraction) else int(m)) for k, m in self.support))
        if not isinstance(self.tail_bound, Fraction):
            object.__setattr__(self, "tail_bound", int(self.tail_bound))
        if ks != sorted(set(ks)):
            raise InvalidArgument("support coranks must be distinct and sorted")
        if ks and ks[0] < 0:
            raise InvalidArgument("coranks must be >= 0")
        if any(m < 0 for m in masses):
            raise InvalidArgument("negative mass")
        if self.tail_bound < 0 or self.total() + self.tail_bound != 1:
            raise InvalidArgument("masses + tail_bound must sum to exactly 1")

    @property
    def kind(self) -> str:
        return "truncated-limit" if self.tail_bound > 0 else "exact"

    def total(self) -> Fraction:
        return fraction_sum(m for _, m in self.support)

    def mass(self, k: int) -> Fraction:
        return self.as_dict().get(k, ZERO)

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.support)

    def to_json(self, q: int | None = None, params: dict | None = None) -> str:
        obj = {
            "kind": self.kind,
            "q": q,
            "params": params or {},
            "support": [[k, _ratio_str(m)] for k, m in self.support],
            "tail_bound": _ratio_str(self.tail_bound),
        }
        return json.dumps(obj)

    @staticmethod
    def from_counts(counts: dict[int, int], trials: int) -> "CorankPMF":
        return _pmf({k: Fraction(c, trials) for k, c in counts.items()})


def fraction_sum(xs) -> Fraction:
    """sum(xs) of Fractions, exactly: the numerators scaled to the lcm of the
    denominators are added as integers and reduced once, instead of taking a
    gcd of ever larger integers on every addition."""
    xs = list(xs)
    den = math.lcm(*(x.denominator for x in xs))
    return Fraction(sum(x.numerator * (den // x.denominator) for x in xs), den)


def _pmf(masses: dict[int, Fraction], tail_bound: Fraction = ZERO) -> CorankPMF:
    support = tuple(sorted((k, m) for k, m in masses.items() if m != 0))
    return CorankPMF(support=support, tail_bound=tail_bound)


# ---------------------------------------------------------------------------
# q-product helpers
# ---------------------------------------------------------------------------

def _qprod(q: int, lo: int, hi: int, step: int = 1) -> tuple[int, int]:
    """(prod (q^i - 1), prod q^i) over i = lo, lo + step, ... <= hi, so that
    prod (1 - q^-i) is the first over the second."""
    idx = range(lo, hi + 1, step)
    return math.prod(q**i - 1 for i in idx), q ** sum(idx)


_CONSTANTS: dict[tuple[int, int, int], Fraction] = {}


def _limit_constant(q: int, step: int, tol: Fraction) -> Fraction:
    """Rigorous lower bound on c = prod (1 - q^-i) over i = 1, 1 + step, ...

    The product is cut at the first hi of the progression with q^-hi <=
    min(tol * 10^-20, 10^-30).  The factors it drops lie in [1 - delta, 1]
    with delta = sum_{i>hi} q^-i = q^-hi / (q - 1), so the kept product times
    1 - delta is at most c, and within relative delta of it."""
    cut = min(tol / 10**20, Fraction(1, 10**30))
    hi = 1
    while q**hi * cut.numerator < cut.denominator:
        hi += step
    if (q, step, hi) not in _CONSTANTS:
        _CONSTANTS[q, step, hi] = (Fraction(*_qprod(q, 1, hi, step))
                                   * (1 - Fraction(1, q**hi * (q - 1))))
    return _CONSTANTS[q, step, hi]


def _check_tol(tol) -> Fraction:
    # the comparison also rejects a float nan
    if not (isinstance(tol, numbers.Real) and 0 < tol <= Fraction(1, 10**6)):
        raise InvalidArgument("tol must be a real number with 0 < tol <= 1e-6")
    if not isinstance(tol, float):
        return Fraction(tol)
    # a float is rounded to a denominator of at most 10^40, which would take
    # a smaller tol to 0 or up to 1e-40; an exact Fraction has no such floor
    if tol < 1e-40:
        raise InvalidArgument("a float tol must be >= 1e-40; give a smaller one as a Fraction")
    return Fraction(tol).limit_denominator(10**40)


# ---------------------------------------------------------------------------
# finite-n exact laws
# ---------------------------------------------------------------------------

def uniform_square_pmf(n: int, f: Field) -> CorankPMF:
    """Exact corank law of a uniform n x n matrix over F_q."""
    return uniform_rect_pmf(n, 0, f)


def uniform_rect_pmf(n: int, m: int, f: Field) -> CorankPMF:
    """Exact corank law of a uniform n x (n+m) matrix (corank = n - rank):
    prod_{i<r} (q^n - q^i)(q^(n+m) - q^i) / (q^r - q^i) matrices have rank r."""
    if not (_is_int(n) and _is_int(m) and n >= 1 and m >= 0):
        raise InvalidArgument("need integers n >= 1, m >= 0")
    q = f.q
    masses = {}
    for k in range(n + 1):
        r = n - k
        count = (q ** (r * (r - 1) // 2) * _qprod(q, k + 1, n)[0]
                 * _qprod(q, m + k + 1, n + m)[0] // _qprod(q, 1, r)[0])
        masses[k] = Fraction(count, q ** (n * (n + m)))
    return _pmf(masses)


def _mirrored_pmf(n: int, f: Field, alt: bool) -> CorankPMF:
    """MacWilliams' law of a uniform symmetric (alt False) or alternating matrix:
    mass(k) = prod_{i<n-k} (q^(n-i) - 1) prod_{i=1}^{(n-k)//2} q^(2i) / (q^(2i) - 1)
    / q^(n(n+1)/2); alternating has q^(2i-2), q^(n(n-1)/2) and k = n mod 2 there."""
    if not (_is_int(n) and n >= 1):
        raise InvalidArgument("need an integer n >= 1")
    if alt and f.q % 2 == 0:
        raise EvenCharacteristic("alternating model requires odd q")
    q, a = f.q, int(alt)
    masses = {}
    for k in range(n % 2 if alt else 0, n + 1, 2 if alt else 1):
        j = (n - k) // 2
        den, qpow = _qprod(q, 2, 2 * j, 2)
        masses[k] = Fraction(_qprod(q, k + 1, n)[0] * qpow,
                             den * q ** (n * (n + 1) // 2 + a * (2 * j - n)))
    return _pmf(masses)


def uniform_sym_pmf(n: int, f: Field) -> CorankPMF:
    """Exact corank law of a uniform symmetric n x n matrix."""
    return _mirrored_pmf(n, f, alt=False)


def uniform_alt_pmf(n: int, f: Field) -> CorankPMF:
    """Exact corank law of a uniform alternating n x n matrix (q odd)."""
    return _mirrored_pmf(n, f, alt=True)


# ---------------------------------------------------------------------------
# limiting laws
# ---------------------------------------------------------------------------

def _truncated_limit(f: Field, tol, c_step: int, first: int, step: int,
                     weight) -> CorankPMF:
    """Lower bounds c * weight(k) on the masses at k = first, first + step,
    ... until less than tol is left, with a rigorous tail bound.

    Every limit law is mass(k) = c * weight(k), where c is the infinite
    product of _limit_constant (over every i if c_step is 1, every odd i if
    it is 2) and weight(k) is an exact rational.  With c replaced by its
    lower bound the kept masses sum to at most 1, and 1 minus their sum
    bounds the mass they leave out."""
    tol = _check_tol(tol)
    c = _limit_constant(f.q, c_step, tol)
    weights: dict[int, Fraction] = {}
    acc, k = ZERO, first
    while 1 - c * acc >= tol:
        weights[k] = weight(k)
        acc += weights[k]
        k += step
    return _pmf({k: c * w for k, w in weights.items()}, tail_bound=1 - c * acc)


def limit_square_pmf(f: Field, tol=Fraction(1, 10**12)) -> CorankPMF:
    """Truncated law of the limiting corank Q_inf for square uniform matrices."""
    return limit_rect_pmf(0, f, tol)


def limit_rect_pmf(m: int, f: Field, tol=Fraction(1, 10**12)) -> CorankPMF:
    """Truncated law of Q_{m,inf} for n x (n+m) uniform matrices:
    q^(-k(m+k)) prod_{i>k} (1 - q^-i) / prod_{i=1}^{m+k} (1 - q^-i), which is
    c = prod_{i>=1} (1 - q^-i) times q^(k + m(m+1)/2) / (prod_{i=1}^k (q^i - 1)
    prod_{i=1}^{m+k} (q^i - 1))."""
    if not (_is_int(m) and m >= 0):
        raise InvalidArgument("need an integer m >= 0")
    q = f.q
    return _truncated_limit(f, tol, 1, 0, 1, lambda k: Fraction(
        q ** (k + m * (m + 1) // 2), _qprod(q, 1, k)[0] * _qprod(q, 1, m + k)[0]))


def limit_sym_pmf(f: Field, tol=Fraction(1, 10**12)) -> CorankPMF:
    """Truncated law of Q_{sym,inf} for symmetric uniform matrices:
    prod_{i odd} (1 - q^-i) / prod_{i=1}^k (q^i - 1)."""
    return _truncated_limit(f, tol, 2, 0, 1, lambda k: Fraction(1, _qprod(f.q, 1, k)[0]))


def limit_alt_pmf(f: Field, parity: str, tol=Fraction(1, 10**12)) -> CorankPMF:
    """Truncated law of Q_{alt,e} or Q_{alt,o}, prod_{i odd} (1 - q^-i) q^k
    / prod_{i=1}^k (q^i - 1) on k of the parity; each parity class sums to 1."""
    if f.q % 2 == 0:
        raise EvenCharacteristic("alternating model requires odd q")
    if parity not in ("even", "odd"):
        raise InvalidArgument("parity must be 'even' or 'odd'")
    first = 0 if parity == "even" else 1
    return _truncated_limit(f, tol, 2, first, 2,
                            lambda k: Fraction(f.q**k, _qprod(f.q, 1, k)[0]))


# ---------------------------------------------------------------------------
# lookup by kind
# ---------------------------------------------------------------------------

# model and chain kinds whose corank law is one of the four law kinds
_LAW_OF = {"iid-square": "square", "iid-column": "square", "iid-rect": "rect",
           "gl-minus-identity": "square", "gl-corner": "square"}
LAW_KINDS = ("square", "rect", "symmetric", "alternating")


def _law_kind(kind: str) -> str:
    kind = _LAW_OF.get(kind, kind)
    if kind not in LAW_KINDS:
        raise InvalidArgument(f"no corank law for kind {kind!r}")
    return kind


def uniform_pmf(kind: str, n: int, f: Field, m: int = 0) -> CorankPMF:
    """Exact finite-n law of a law kind or of the model kind that follows it;
    m (extra columns) is read only by rect.  The GL kinds follow the square
    law only in the limit."""
    if kind in ("gl-minus-identity", "gl-corner"):
        raise InvalidArgument(f"no finite-n corank law for kind {kind!r}")
    kind = _law_kind(kind)
    if kind in ("symmetric", "alternating"):
        return _mirrored_pmf(n, f, alt=kind == "alternating")
    return uniform_rect_pmf(n, m if kind == "rect" else 0, f)


def limit_pmf(kind: str, f: Field, m: int = 0, parity: str | None = None,
              tol=Fraction(1, 10**12)) -> CorankPMF:
    """Truncated limit law of a law kind or of the model kind that follows it;
    parity ('even' or 'odd') is read only by alternating."""
    kind = _law_kind(kind)
    if kind == "symmetric":
        return limit_sym_pmf(f, tol)
    if kind == "alternating":
        return limit_alt_pmf(f, parity, tol)
    return limit_rect_pmf(m if kind == "rect" else 0, f, tol)


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------

def tv_distance(a: CorankPMF, b: CorankPMF) -> tuple[Fraction, Fraction]:
    """(value, error bar): half the l1 distance over the union support, plus
    half the summed tail bounds as reported uncertainty."""
    da, db = a.as_dict(), b.as_dict()
    val = fraction_sum(abs(da.get(k, ZERO) - db.get(k, ZERO))
                       for k in da.keys() | db.keys()) / 2
    err = (a.tail_bound + b.tail_bound) / 2
    return val, err
