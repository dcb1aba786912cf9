import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from fqrank.distributions import (CorankPMF, fraction_sum, limit_alt_pmf, limit_pmf,
                                  limit_rect_pmf, limit_sym_pmf,
                                  limit_square_pmf, tv_distance,
                                  uniform_alt_pmf, uniform_pmf,
                                  uniform_rect_pmf, uniform_sym_pmf,
                                  uniform_square_pmf)
from fqrank.errors import EvenCharacteristic, InvalidArgument
from fqrank.field import field_new

F2 = field_new(2)
F3 = field_new(3)
TOL = Fraction(1, 10**25)


def test_pmf_invariants():
    with pytest.raises(ValueError):
        CorankPMF(support=((1, Fraction(1, 2)), (0, Fraction(1, 2))))
    with pytest.raises(ValueError):
        CorankPMF(support=((0, Fraction(-1, 2)), (1, Fraction(3, 2))))
    with pytest.raises(ValueError):
        CorankPMF(support=((0, Fraction(1, 2)),))  # missing mass, no tail
    with pytest.raises(ValueError):  # an exact law must sum to exactly 1
        CorankPMF(support=((0, 1 - Fraction(1, 10**13)),))
    with pytest.raises(ValueError):  # and carries no tail
        CorankPMF(support=((0, Fraction(1)),), tail_bound=Fraction(1, 10**13))
    with pytest.raises(InvalidArgument):  # coranks are >= 0
        CorankPMF(support=((-1, Fraction(1)),))
    with pytest.raises(InvalidArgument):  # a truncated law balances exactly too
        CorankPMF(support=((0, 1 - Fraction(1, 10**13)),), tail_bound=Fraction(1, 10**14))


def test_pmf_accessors_and_json():
    pmf = uniform_square_pmf(2, F2)
    assert pmf.mass(1) == Fraction(9, 16)
    assert pmf.mass(5) == 0
    assert pmf.total() == 1
    assert '"9/16"' in pmf.to_json()


def test_pmf_stores_python_ints():
    """numpy integers pass CorankPMF's integer tests; the law keeps them as
    Python ints, so json writes it and equal laws compare and hash alike."""
    law = CorankPMF(((np.int64(0), Fraction(1, 2)), (np.int32(2), np.int64(0)),
                     (np.uint8(3), Fraction(1, 2))), tail_bound=np.int64(0))
    assert [type(k) for k, _ in law.support] == [int] * 3
    assert type(law.support[1][1]) is int and type(law.tail_bound) is int
    assert json.loads(law.to_json())["support"] == [[0, "1/2"], [2, "0/1"], [3, "1/2"]]
    plain = CorankPMF(((0, Fraction(1, 2)), (2, 0), (3, Fraction(1, 2))), tail_bound=0)
    assert law == plain and hash(law) == hash(plain)
    assert CorankPMF(((np.int64(0), Fraction(1)),)).to_json() == \
        CorankPMF(((0, Fraction(1)),)).to_json()


def test_square_small_values():
    assert uniform_square_pmf(1, F2).as_dict() == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert uniform_square_pmf(2, F2).as_dict() == {
        0: Fraction(6, 16), 1: Fraction(9, 16), 2: Fraction(1, 16)}


def test_rect_small_values():
    assert uniform_rect_pmf(2, 1, F2).as_dict() == {
        0: Fraction(42, 64), 1: Fraction(21, 64), 2: Fraction(1, 64)}


def test_rect_m0_equals_square():
    for q in (2, 3, 5):
        f = field_new(q)
        for n in (1, 2, 4):
            assert uniform_rect_pmf(n, 0, f).as_dict() == \
                uniform_square_pmf(n, f).as_dict()


def test_sym_small_values():
    assert uniform_sym_pmf(2, F2).as_dict() == {
        0: Fraction(1, 2), 1: Fraction(3, 8), 2: Fraction(1, 8)}


def test_alt_small_values():
    assert uniform_alt_pmf(2, F3).as_dict() == {0: Fraction(2, 3), 2: Fraction(1, 3)}
    assert uniform_alt_pmf(1, F3).as_dict() == {1: Fraction(1)}


def _gaussian_binomial(n, d, q):
    if d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_finite_laws_match_subspace_moments():
    # E [corank choose d]_q, the expected number of d-dim subspaces of the
    # kernel (left kernel for rect), is [n choose d]_q q^-c(d), with c(d) the
    # linear conditions such a subspace puts on the entries.  Triangular in
    # d, so the moments d = 0..n fix every mass (Wood's moment method).
    for q in (2, 3, 4, 5, 7, 9):
        f = field_new(q)
        for n in range(1, 21):
            laws = [(uniform_rect_pmf(n, m, f), lambda d, m=m: d * (n + m))
                    for m in range(3)]
            laws.append((uniform_sym_pmf(n, f), lambda d: n * d - d * (d - 1) // 2))
            if q % 2:
                laws.append((uniform_alt_pmf(n, f), lambda d: n * d - d * (d + 1) // 2))
            for pmf, c in laws:
                # in integers: the masses over their common denominator den
                den = math.lcm(*(m.denominator for _, m in pmf.support))
                nums = [(k, m.numerator * (den // m.denominator)) for k, m in pmf.support]
                for d in range(n + 1):
                    moment = sum(x * _gaussian_binomial(k, d, q) for k, x in nums)
                    assert moment * q ** c(d) == _gaussian_binomial(n, d, q) * den, \
                        (q, n, d, pmf)


def test_alt_even_characteristic_rejected():
    with pytest.raises(EvenCharacteristic):
        uniform_alt_pmf(2, F2)
    with pytest.raises(EvenCharacteristic):
        limit_alt_pmf(F2, "even")


def test_finite_laws_sum_to_one():
    for q in (2, 3, 4, 5):
        f = field_new(q)
        for n in range(1, 6):
            assert uniform_square_pmf(n, f).total() == 1
            assert uniform_sym_pmf(n, f).total() == 1
            for m in range(4):
                assert uniform_rect_pmf(n, m, f).total() == 1
            if q % 2:
                assert uniform_alt_pmf(n, f).total() == 1


def test_alt_parity_support():
    pmf = uniform_alt_pmf(5, F3)
    assert all(k % 2 == 1 for k, _ in pmf.support)
    pmf = uniform_alt_pmf(6, F3)
    assert all(k % 2 == 0 for k, _ in pmf.support)


def test_limit_laws_tail_bounds():
    for make in (lambda f: limit_square_pmf(f, TOL),
                 lambda f: limit_rect_pmf(2, f, TOL),
                 lambda f: limit_sym_pmf(f, TOL),
                 lambda f: limit_alt_pmf(f, "even", TOL),
                 lambda f: limit_alt_pmf(f, "odd", TOL)):
        pmf = make(F3)
        assert pmf.kind == "truncated-limit"
        assert pmf.total() <= 1
        assert pmf.tail_bound <= TOL
        assert pmf.total() + pmf.tail_bound >= 1 - TOL


def _long_masses(kind: str, q: int, m: int, ks) -> list[Decimal]:
    """The limit masses at ks with every q-product cut at i = 400, in
    400-digit decimal arithmetic."""
    def prod(factors):
        return math.prod(factors, start=Decimal(1))

    def one_minus(i):
        return 1 - Decimal(q) ** -i

    odd = prod(one_minus(i) for i in range(1, 401, 2))
    out = []
    for k in ks:
        if kind == "rect":
            out.append(Decimal(q) ** (-k * (m + k)) * prod(one_minus(i) for i in range(k + 1, 401))
                       / prod(one_minus(i) for i in range(1, m + k + 1)))
        else:
            den = prod(Decimal(q) ** i - 1 for i in range(1, k + 1))
            out.append(odd * (Decimal(q) ** k if kind == "alternating" else 1) / den)
    return out


def test_limit_tail_bound_covers_truncation():
    # the truncated q-products overestimate the true masses; the kept masses
    # must stay below them, and the tail bound must cover both the omitted
    # mass and the distance of each kept mass from its true value
    for q in (2, 3, 101, 65521):
        f = field_new(q)
        for tol in (Fraction(1, 10**12), TOL, Fraction(1, 10**30)):
            laws = [("rect", 0, limit_square_pmf(f, tol)), ("rect", 2, limit_rect_pmf(2, f, tol)),
                    ("symmetric", 0, limit_sym_pmf(f, tol))]
            if q % 2:
                laws += [("alternating", 0, limit_alt_pmf(f, parity, tol))
                         for parity in ("even", "odd")]
            for kind, m, pmf in laws:
                # with every kept mass below its true value, the omitted mass
                # plus those distances is exactly 1 - total
                assert pmf.tail_bound == 1 - pmf.total(), (q, tol, kind, m)
                with localcontext() as ctx:
                    ctx.prec = 400
                    ks = [k for k, _ in pmf.support]
                    kept = [Decimal(c.numerator) / c.denominator for _, c in pmf.support]
                    long = _long_masses(kind, q, m, ks)
                    assert all(a < b for a, b in zip(kept, long)), (q, tol, kind, m)
                    # and each lies within the cut's relative precision of it
                    cut = min(tol / 10**20, Fraction(1, 10**30))
                    assert all((b - a) / b < Decimal(cut.numerator) / cut.denominator
                               for a, b in zip(kept, long)), (q, tol, kind, m)


def test_limit_law_below_float_range():
    # exact tols below the 1e-40 floor of a float tol, one of them below
    # what float() holds at all
    tol = Fraction(1, 10**400)
    assert limit_rect_pmf(0, field_new(65521), tol).tail_bound < tol
    tol = Fraction(1, 10**100)
    for pmf in (limit_sym_pmf(F3, tol), limit_alt_pmf(F3, "even", tol),
                limit_alt_pmf(F3, "odd", tol)):
        assert pmf.tail_bound < tol


def test_kind_lookup():
    assert uniform_pmf("iid-rect", 3, F3, m=2) == uniform_rect_pmf(3, 2, F3)
    assert uniform_pmf("square", 3, F3, m=2) == uniform_square_pmf(3, F3)  # m: rect only
    assert uniform_pmf("iid-column", 3, F3) == uniform_square_pmf(3, F3)
    assert uniform_pmf("alternating", 3, F3) == uniform_alt_pmf(3, F3)
    assert limit_pmf("gl-corner", F3, tol=TOL) == limit_square_pmf(F3, TOL)
    assert limit_pmf("symmetric", F3, parity="odd", tol=TOL) == limit_sym_pmf(F3, TOL)
    assert limit_pmf("alternating", F3, parity="odd", tol=TOL) == limit_alt_pmf(F3, "odd", TOL)
    with pytest.raises(InvalidArgument):
        uniform_pmf("uniform-gl", 3, F3)
    # the GL perturbations follow the square law only in the limit
    with pytest.raises(InvalidArgument):
        uniform_pmf("gl-corner", 3, F3)
    with pytest.raises(InvalidArgument):
        uniform_pmf("gl-minus-identity", 1, F2)
    with pytest.raises(InvalidArgument):
        limit_pmf("alternating", F3)  # no parity


def test_negative_m_refused():
    with pytest.raises(InvalidArgument):
        uniform_rect_pmf(3, -1, F3)
    for m in (-1, -2):
        with pytest.raises(InvalidArgument):
            limit_rect_pmf(m, F3, TOL)


def test_limit_alt_parity_support():
    even = limit_alt_pmf(F3, "even", TOL)
    odd = limit_alt_pmf(F3, "odd", TOL)
    assert all(k % 2 == 0 for k, _ in even.support)
    assert all(k % 2 == 1 for k, _ in odd.support)


def test_finite_converges_to_limit():
    limit = limit_square_pmf(F2, TOL)
    tvs = []
    for n in (3, 5, 7):
        tv, err = tv_distance(uniform_square_pmf(n, F2), limit)
        tvs.append(tv + err)
    assert tvs[0] > tvs[1] > tvs[2]


def test_tv_distance_basics():
    a = uniform_square_pmf(3, F2)
    assert tv_distance(a, a) == (0, 0)
    b = uniform_square_pmf(4, F2)
    tv_ab, _ = tv_distance(a, b)
    tv_ba, _ = tv_distance(b, a)
    assert tv_ab == tv_ba > 0
    assert tv_ab <= 1


def test_fraction_sum_equals_naive_sum():
    """fraction_sum, under CorankPMF.total and tv_distance, gives the same
    Fraction as adding one Fraction at a time, on every kind of law."""
    laws = [limit_square_pmf(F3, TOL), limit_alt_pmf(field_new(5), "odd", TOL),
            uniform_sym_pmf(6, F3), uniform_rect_pmf(4, 2, F2),
            CorankPMF.from_counts({0: 7, 2: 3, 5: 1}, 11),
            CorankPMF((), tail_bound=Fraction(1))]
    for a in laws:
        masses = [m for _, m in a.support]
        total = fraction_sum(masses)
        assert type(total) is Fraction and total == sum(masses, Fraction(0)) == a.total()
        for b in laws:
            keys = {k for k, _ in a.support} | {k for k, _ in b.support}
            naive = sum((abs(a.mass(k) - b.mass(k)) for k in keys), Fraction(0)) / 2
            assert tv_distance(a, b)[0] == naive


def test_tol_validation():
    with pytest.raises(ValueError):
        limit_square_pmf(F2, Fraction(1, 10))  # too loose
    with pytest.raises(ValueError):
        limit_square_pmf(F2, 0)
