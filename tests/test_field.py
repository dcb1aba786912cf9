import cmath
import pickle
import random

import numpy as np
import pytest

from fqrank.errors import NotPrimePower, TooLarge
from fqrank.field import Field, field_new, _factor_prime_power, _least_irreducible


def test_factor_prime_power():
    assert _factor_prime_power(2) == (2, 1)
    assert _factor_prime_power(9) == (3, 2)
    assert _factor_prime_power(32) == (2, 5)
    assert _factor_prime_power(101) == (101, 1)


@pytest.mark.parametrize("q", [6, 12, 15, 100])
def test_not_prime_power_rejected(q):
    with pytest.raises(NotPrimePower):
        Field(q)


def test_too_large_rejected():
    with pytest.raises(TooLarge):
        Field(1 << 17)


def test_prime_field_arithmetic():
    f = field_new(7)
    assert f.add(5, 4) == 2
    assert f.sub(2, 5) == 4
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.div(1, 3) == 5
    assert f.neg(2) == 5
    assert f.pow(3, 6) == 1  # Fermat


def test_least_irreducible_modulus_f4():
    # x^2 + x + 1 is the least monic irreducible quadratic over F_2;
    # encoded base 2 that is 0b111 = 7
    assert _least_irreducible(2, 2) == 7
    f = field_new(4)
    assert f.modulus == 7


def test_f4_multiplication_table():
    f = field_new(4)
    # elements 0,1,x,x+1 encoded 0,1,2,3 with x^2 = x + 1
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.mul(3, 3) == 2
    assert f.inv(2) == 3


def test_extension_field_axioms():
    for q in (4, 8, 9, 25, 27):
        f = field_new(q)
        els = list(f.elements())
        assert els == list(range(q))
        # every nonzero element has an inverse
        for a in range(1, q):
            assert f.mul(a, f.inv(a)) == 1
        # spot-check distributivity
        for a, b, c in [(1, 2, 3), (2, 3, q - 1), (q - 1, q - 2, 1)]:
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def _digits(a, p, k):
    return [a // p**i % p for i in range(k)]


def test_tables_match_polynomial_arithmetic():
    rnd = random.Random(0)
    for q in (4, 8, 9, 25, 27, 256, 3**10):
        f = field_new(q)
        for _ in range(200):
            a = rnd.randrange(q)
            da = _digits(a, f.p, f.k)
            minus_a = sum(-x % f.p * f.p**i for i, x in enumerate(da))
            b = rnd.choice([0, a, minus_a, rnd.randrange(q)])
            db = _digits(b, f.p, f.k)
            assert f.mul(a, b) == f._mul_raw(a, b)
            # addition and negation are digit-wise mod p
            assert f.add(a, b) == sum((x + y) % f.p * f.p**i
                                      for i, (x, y) in enumerate(zip(da, db)))
            assert f.neg(a) == minus_a


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 6561, 1 << 16])
def test_scalar_methods_match_field_vec(q):
    # every pair on the small fields; on the large ones random pairs plus
    # pairs with a zero and pairs b = -a
    f = field_new(q)
    if q < 100:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rnd = random.Random(q)
        pairs = []
        for _ in range(1000):
            a, b = rnd.randrange(q), rnd.randrange(q)
            pairs += [(a, b), (0, b), (a, 0), (a, f.neg(a))]
    a, b = (np.array(x) for x in zip(*pairs))
    c = np.roll(b, 1)
    v = f.vec
    assert v.add(a, b).tolist() == [f.add(x, y) for x, y in pairs]
    assert v.mul(a, b).tolist() == [f.mul(x, y) for x, y in pairs]
    assert v.sub(a, b).tolist() == [f.sub(x, y) for x, y in pairs]
    assert v.reduce(v.sub_mul(c, a, b)).tolist() == \
        [f.sub(z, f.mul(x, y)) for z, (x, y) in zip(c.tolist(), pairs)]
    assert v.inv[1:].tolist() == [f.inv(x) for x in range(1, q)]


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        field_new(5).inv(0)


def test_trace_lands_in_prime_subfield():
    f = field_new(9)
    for x in f.elements():
        assert 0 <= f.trace(x) < f.p


def test_trace_outside_prime_subfield_raises(monkeypatch):
    """The exactness guard is an explicit raise, so it holds under python -O."""
    f = field_new(9)
    monkeypatch.setattr(f, "pow", lambda a, e: 0)  # drops the Frobenius terms
    with pytest.raises(AssertionError, match="outside the prime subfield F_3"):
        f.trace(4)


def test_trace_f4():
    f = field_new(4)
    # tr(x) = x + x^2 = x + (x + 1) = 1 for x encoded as 2
    assert f.trace(0) == 0
    assert f.trace(1) == 0
    assert f.trace(2) == 1
    assert f.trace(3) == 1


def test_trace_additive():
    f = field_new(8)
    for a in f.elements():
        for b in f.elements():
            assert f.trace(f.add(a, b)) == (f.trace(a) + f.trace(b)) % f.p


def test_character_sums_to_zero():
    for q in (3, 4, 9):
        f = field_new(q)
        total = sum(f.char_e(t) for t in f.elements())
        assert abs(total) < 1e-10
        assert f.char_e(0) == 1


def test_field_cache_and_equality():
    assert field_new(5) is field_new(5)
    assert field_new(5) == Field(5)
    assert field_new(5) != field_new(25)
    # a field pickles as its order, without its tables
    for q in (7, 6561, 1 << 16):
        f = field_new(q)
        f.vec  # build and cache the array tables too
        data = pickle.dumps(f)
        assert len(data) < 1024
        assert pickle.loads(data) is field_new(q)


def _add_multiple_reference(f, row, c, other):
    """The per-entry row update that Field.add_multiple replaces."""
    return [f.add(x, f.mul(c, y)) for x, y in zip(row, other)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25, 256])
def test_add_multiple_matches_the_per_entry_update_for_every_c(q):
    # every c != 0 against rows that hold zeros, in row, other or both
    f = field_new(q)
    rnd = random.Random(q)
    for c in range(1, q):
        row = [rnd.randrange(q) for _ in range(6)] + [0, 0, rnd.randrange(1, q)]
        other = [rnd.randrange(q) for _ in range(6)] + [0, rnd.randrange(1, q), 0]
        out = f.add_multiple(row, c, other)
        assert out == _add_multiple_reference(f, row, c, other)
        assert out is not row and out is not other


@pytest.mark.parametrize("q", [6561, 65521, 65536])
def test_add_multiple_matches_the_per_entry_update_on_large_fields(q):
    f = field_new(q)
    rnd = random.Random(q)
    for _ in range(200):
        row = [rnd.choice((0, rnd.randrange(q))) for _ in range(8)]
        other = [rnd.choice((0, rnd.randrange(q))) for _ in range(8)]
        c = rnd.randrange(1, q)
        assert f.add_multiple(row, c, other) == _add_multiple_reference(f, row, c, other)
