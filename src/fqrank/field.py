"""Arithmetic for the finite field F_q with q = p^k.

Elements are integers in [0, q).  The base-p digits of an element are the
coefficients of its polynomial-basis expansion, least significant digit =
constant term.  For prime fields this is ordinary arithmetic mod p; for
extension fields multiplication goes through log/antilog tables built once
at construction over a fixed multiplicative generator, addition is XOR when
p = 2 and goes through Zech logarithms when p is odd.

Field.vec carries the same arithmetic over numpy arrays of elements, from
the same tables, in one class per field type (prime, binary extension, odd
extension).  The scalar methods add, neg, mul, inv and trace branch on k:
prime fields take ordinary arithmetic mod p, extension fields the tables.

The reducing modulus is the lexicographically least monic irreducible
polynomial of degree k over F_p (compared as coefficient tuples from the
leading coefficient down, equivalently as base-p integer encodings), so
element representations are deterministic across runs.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import NotPrimePower, TooLarge, need_int

MAX_Q = 1 << 16


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"q={q} is not a prime power")
    p = None
    for d in range(2, math.isqrt(q) + 1):
        if q % d == 0:
            p = d
            break
    if p is None:
        return q, 1  # q itself is prime
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise NotPrimePower(f"q={q} is not a prime power")
    return p, k


# ---------------------------------------------------------------------------
# Polynomial helpers over F_p, polynomials encoded as base-p integers.
# ---------------------------------------------------------------------------

def _poly_coeffs(a: int, p: int) -> list[int]:
    out = []
    while a:
        out.append(a % p)
        a //= p
    return out


def _poly_from_coeffs(cs: list[int], p: int) -> int:
    a = 0
    for c in reversed(cs):
        a = a * p + c
    return a


def _poly_mul(a: int, b: int, p: int) -> int:
    ca, cb = _poly_coeffs(a, p), _poly_coeffs(b, p)
    if not ca or not cb:
        return 0
    out = [0] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        if x:
            for j, y in enumerate(cb):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_from_coeffs(out, p)


def _poly_mod(a: int, m: int, p: int) -> int:
    """a mod m for a monic m: each step cancels a's leading coefficient."""
    cm = _poly_coeffs(m, p)
    dm = len(cm) - 1
    ca = _poly_coeffs(a, p)
    while len(ca) > dm:
        coef = ca.pop()
        if coef:
            off = len(ca) - dm
            for i in range(dm):
                ca[off + i] = (ca[off + i] - coef * cm[i]) % p
    return _poly_from_coeffs(ca, p)


def _is_irreducible(m: int, p: int) -> bool:
    k = len(_poly_coeffs(m, p)) - 1
    # trial division by all monic polynomials of degree 1..k//2
    for d in range(1, k // 2 + 1):
        for tail in range(p**d):
            g = p**d + tail  # monic of degree d
            if _poly_mod(m, g, p) == 0:
                return False
    return True


def _least_irreducible(p: int, k: int) -> int:
    for m in range(p**k, 2 * p**k):  # the monic polynomials of degree k
        if _is_irreducible(m, p):
            return m
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """The finite field F_q, q = p^k <= 2^16."""

    def __init__(self, q: int):
        q = need_int("q", q)
        if q > MAX_Q:
            raise TooLarge(f"q={q} exceeds the cap of 2^16")
        p, k = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        if k == 1:
            self.modulus = p  # the polynomial "x - 0" is degenerate; unused
        else:
            self.modulus = _least_irreducible(p, k)
            self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Polynomial-basis multiplication without tables."""
        return _poly_mod(_poly_mul(a, b, self.p), self.modulus, self.p)

    def _pow_raw(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._mul_raw(out, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return out

    def _build_tables(self) -> None:
        q, p, k = self.q, self.p, self.k
        # g generates F_q^* iff g^((q-1)/r) != 1 for every prime r | q-1;
        # trying g = 2, 3, ... finds the least generator
        factors = [r for r in range(2, q) if (q - 1) % r == 0
                   and all(r % d for d in range(2, math.isqrt(r) + 1))]
        g = next(g for g in range(2, q)
                 if all(self._pow_raw(g, (q - 1) // r) != 1 for r in factors))
        # x -> g*x is F_p-linear: digit j of g*x is sum_i digit_i(x) * M[i][j]
        # mod p, where row i of M holds the digits of g * X^i.  int32 and
        # one q-vector at a time keep the build's peak memory near the
        # size of the tables it makes.
        M = [_poly_coeffs(self._mul_raw(g, p**i), p) for i in range(k)]
        x = np.arange(q, dtype=np.int32)
        times_g = np.zeros(q, dtype=np.int32)
        for j in range(k):
            acc = np.zeros(q, dtype=np.int32)
            for i, row in enumerate(M):
                if j < len(row) and row[j]:
                    acc += x // p**i % p * row[j]
            times_g += acc % p * p**j
        del x, acc
        # exp_arr[i] = g^i by doubling: each round maps the powers found so
        # far by x -> g^len * x, then squares that map
        exp_arr = np.ones(1, dtype=np.int64)
        while len(exp_arr) < q - 1:
            exp_arr = np.concatenate([exp_arr, times_g[exp_arr]])
            times_g = times_g[times_g]
        exp_arr = exp_arr[:q - 1]
        # the zero-marked layout that add(), mul() and Field.vec read: log[0] =
        # Z = 2(q-1) and exp is zero from index Z on, so a product with a zero
        # factor lands on 0; zech, built from log, is Z where 1 + g^n = 0
        zero = 2 * (q - 1)
        self._exp = exp_arr.tolist() * 2 + [0] * (zero + 1)
        log_arr = np.full(q, zero, dtype=np.int64)
        log_arr[exp_arr] = np.arange(q - 1)
        self._log = log_arr.tolist()
        if p != 2:
            # -1 = g^((q-1)/2); Zech logarithm zech[n] = log(1 + g^n), where
            # adding 1 only changes the constant digit
            neg_arr = np.zeros(q, dtype=np.int64)
            neg_arr[exp_arr] = np.roll(exp_arr, -((q - 1) // 2))
            self._neg = neg_arr.tolist()
            self._zech = log_arr[exp_arr - exp_arr % p + (exp_arr % p + 1) % p].tolist()

    @cached_property
    def vec(self) -> "PrimeArrays | TableArrays":
        """Elementwise arithmetic on integer arrays of elements."""
        if self.k == 1:
            return PrimeArrays(self.p)
        return (BinaryArrays if self.p == 2 else TableArrays)(self)

    # -- element arithmetic --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if a == 0 or b == 0:
            return a or b
        la = self._log[a]
        return self._exp[la + self._zech[(self._log[b] - la) % (self.q - 1)]]

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return a if self.p == 2 else self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(self.q - 1) - self._log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def elements(self) -> range:
        return range(self.q)

    # -- trace and additive character ----------------------------------------

    def trace(self, x: int) -> int:
        """tr(x) = x + x^p + ... + x^(p^(k-1)), an element of F_p."""
        if self.k == 1:
            return x
        acc, y = 0, x
        for _ in range(self.k):
            acc = self.add(acc, y)
            y = self.pow(y, self.p)
        if acc >= self.p:
            raise AssertionError(f"trace of {x} in F_{self.q} is {acc}, "
                                 f"outside the prime subfield F_{self.p}")
        return acc

    def char_e(self, t: int) -> complex:
        """The additive character exp(2*pi*i*tr(t)/p)."""
        return cmath.exp(2j * cmath.pi * self.trace(t) / self.p)

    def __repr__(self) -> str:
        return f"Field(q={self.q}, p={self.p}, k={self.k})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Field", self.q))

    def __reduce__(self):
        # pickle as the order alone: the receiver rebuilds or reuses its
        # cached tables instead of unpickling them
        return field_new, (self.q,)


# ---------------------------------------------------------------------------
# Array arithmetic.  Kernels that eliminate or sample whole rows at a time
# call these through Field.vec, so the same kernel runs on every field.
# ---------------------------------------------------------------------------

class PrimeArrays:
    """Arithmetic mod p: every operation is one fused expression reduced once."""

    def __init__(self, p: int):
        self.q = p

    @cached_property
    def inv(self) -> np.ndarray:
        """inv[a] = a^-1 for a in 1..p-1 (inv[0] unused)."""
        p = self.q
        return np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=np.int64)

    def mul(self, a: np.ndarray, b) -> np.ndarray:
        return (a * b) % self.q

    def sub(self, a, b: np.ndarray) -> np.ndarray:
        return (a - b) % self.q

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """x brought into [0, p)."""
        return x % self.q

    def sub_mul(self, x: np.ndarray, a, b) -> np.ndarray:
        """x - a*b, broadcast and left unreduced: reduce() before comparing."""
        return x - a * b


class TableArrays:
    """Arithmetic on F_{p^k}, k > 1, through exp/log tables: a*b is
    exp[log a + log b], and a + b is a * (1 + b/a) through the Zech logarithm.
    The field's zero-marked tables make a product with a zero factor and a
    sum a + (-a) land on 0 without a branch; add() still selects zero summands."""

    def __init__(self, f: Field):
        self.period = f.q - 1
        self.log = np.array(f._log, dtype=np.int64)
        self.exp = np.array(f._exp, dtype=np.int64)
        self.inv = self.exp[(-self.log) % self.period]
        self.inv[0] = 0
        if f.p != 2:
            self.neg = np.array(f._neg, dtype=np.int64)
            self.zech = np.array(f._zech, dtype=np.int64)

    def mul(self, a: np.ndarray, b) -> np.ndarray:
        return self.exp[self.log[a] + self.log[b]]

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        la = self.log[a]
        s = self.exp[la + self.zech[(self.log[b] - la) % self.period]]
        return np.where(a == 0, b, np.where(b == 0, a, s))

    def sub(self, a, b: np.ndarray) -> np.ndarray:
        return self.add(a, self.neg[b])

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """Table arithmetic never leaves [0, q)."""
        return x

    def sub_mul(self, x: np.ndarray, a, b) -> np.ndarray:
        """x - a*b, broadcast."""
        return self.sub(x, self.mul(a, b))


class BinaryArrays(TableArrays):
    """F_{2^k}: addition and subtraction are XOR."""

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a ^ b

    sub = add


@lru_cache(maxsize=None, typed=True)
def field_new(q: int) -> Field:
    """Construct (and cache) the field with q elements; typed, so that 3.0 is
    refused, not served the cached Field(3)."""
    return Field(q)
