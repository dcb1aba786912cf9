import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from fqrank.errors import CodimensionTooLarge, DimensionMismatch, InvalidArgument
from fqrank.field import field_new
from fqrank.matrix import FqMatrix
from fqrank.models import EntryDist, near_uniform_dist, uniform_entry_dist
from fqrank.structure import (check_decoupling, check_unconc_implies_uniform,
                              diff_dist, f_abs, linear_form_pmf, moduli,
                              quad_form_pmf, rho, subspace_prob, threshold_set)

F3 = field_new(3)
HALF = EntryDist((Fraction(1, 2), Fraction(1, 2), Fraction(0)))


def test_f_abs_uniform():
    d = uniform_entry_dist(field_new(5))
    assert abs(f_abs(d, 0) - 1) < 1e-12
    for y in range(1, 5):
        assert f_abs(d, y) < 1e-12


def test_f_abs_half_mass_example():
    # |1/2 + 1/2 e^{2 pi i/3}| = 1/2
    assert abs(f_abs(HALF, 1) - 0.5) < 1e-12
    assert abs(f_abs(HALF, 0) - 1) < 1e-12


def _random_dist(rnd, q):
    while True:
        w = [rnd.choice([0, 0, 1, 2, 3]) for _ in range(q)]
        if sum(w):
            return EntryDist(tuple(Fraction(x, sum(w)) for x in w))


def test_moduli_match_f_abs():
    rnd = random.Random(5)
    for q in (2, 3, 4, 5, 7, 9):
        for d in (uniform_entry_dist(field_new(q)), _random_dist(rnd, q)):
            assert moduli(d) == tuple(f_abs(d, y) for y in range(q))


def test_threshold_set_contains_zero_and_bounded():
    for q in (3, 5, 7):
        f = field_new(q)
        d = near_uniform_dist(f, set(range(q // 2, q)))
        for K in (0.5, 1.0, 2.0):
            T = threshold_set(d, K)
            if K <= q**0.5:  # the cutoff K/sqrt(q) is <= |f(0)| = 1
                assert 0 in T
            assert len(T) <= float(d.C) * q / K**2 + 1e-9
    for K in (0, float("inf"), float("nan")):
        with pytest.raises(InvalidArgument):
            threshold_set(HALF, K)


def test_diff_dist():
    d = diff_dist(HALF)
    # x - x' for x, x' uniform on {0,1} over F_3: 0 w.p. 1/2, 1 and 2 w.p. 1/4
    assert d.probs == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


def test_rho_uniform_is_zero():
    dists = [uniform_entry_dist(F3)] * 3
    rep = rho((1, 0, 2), dists)
    assert rep.rho < 1e-12


def test_rho_supported_inside_f():
    dists = [HALF, HALF]
    rep = rho((1, 1), dists, F=(0, 1))
    assert abs(rep.rho - 2 / 3) < 1e-12  # (q-1)/q


def test_rho_half_mass_example():
    rep = rho((1, 1), [HALF, HALF])
    assert abs(rep.rho - 1 / 6) < 1e-12
    assert len(rep.per_t_products) == 2


def test_rho_threshold_report():
    rep = rho((1, 1), [HALF, HALF], K=1.0)
    assert rep.T_sets is not None
    assert rep.meets_unstructured_condition(0)
    with pytest.raises(InvalidArgument):
        rho((1, 1), [HALF, HALF]).meets_unstructured_condition(0)


def test_rho_coordinates_in_range():
    dists = [uniform_entry_dist(field_new(4))] * 2
    for a in ((1, 7), (-1, 1), (4, 0)):
        with pytest.raises(InvalidArgument):
            rho(a, dists)


@pytest.mark.parametrize("F", [(1.5, "x"), (2,), (-1,), (True,), (0, 1.0)])
def test_rho_refuses_f_indices_it_cannot_read(F):
    # rho((1, 1), [HALF, HALF], F=(1.5, "x")) returned the value with no F
    with pytest.raises(InvalidArgument):
        rho((1, 1), [HALF, HALF], F=F)


def test_linear_form_pmf_against_enumeration():
    dists = [HALF, near_uniform_dist(F3, {2}), uniform_entry_dist(F3)]
    a = (1, 2, 1)
    pmf = linear_form_pmf(a, dists)
    direct = {v: Fraction(0) for v in range(3)}
    for xs in product(range(3), repeat=3):
        w = Fraction(1)
        for x, d in zip(xs, dists):
            w *= d.probs[x]
        direct[sum(c * x for c, x in zip(a, xs)) % 3] += w
    assert pmf == direct
    assert sum(pmf.values()) == 1


def test_linear_form_pmf_with_fixed():
    dists = [HALF, HALF]
    pmf = linear_form_pmf((1, 1), dists, fixed={1: 2})
    # x0 + 2 with x0 uniform on {0,1}
    assert pmf[2] == Fraction(1, 2) and pmf[0] == Fraction(1, 2)


def test_subspace_prob_basics():
    dists = [uniform_entry_dist(F3)] * 3
    # full space: probability 1
    full = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert subspace_prob(full, dists) == 1
    # hyperplane x0 + x1 + x2 = 0 under uniform entries: 1/q
    H = [(1, 0, 2), (0, 1, 2)]
    assert subspace_prob(H, dists) == Fraction(1, 3)


@pytest.mark.parametrize("bad", [1.5, True, 3, "1"])
def test_subspace_prob_refuses_h_basis_entries_outside_the_field(bad):
    # the H basis becomes an FqMatrix, which refuses the entry before its
    # nullspace is taken
    dists = [uniform_entry_dist(F3)] * 3
    with pytest.raises(InvalidArgument, match="entry must be an integer"):
        subspace_prob([(1, bad, 0), (0, 1, 2)], dists)
    with pytest.raises(InvalidArgument, match="entry must be an integer"):
        check_unconc_implies_uniform([(1, bad, 0), (0, 1, 2)], dists)


def test_subspace_prob_takes_numpy_integer_h_basis():
    dists = [uniform_entry_dist(F3)] * 3
    H = [(np.int64(1), np.int8(0), np.uint16(2)), (0, np.int32(1), 2)]
    assert subspace_prob(H, dists) == Fraction(1, 3)


def test_subspace_prob_codimension_guard():
    dists = [uniform_entry_dist(F3)] * 5
    H = [(1, 0, 0, 0, 0)]  # codimension 4
    with pytest.raises(CodimensionTooLarge):
        subspace_prob(H, dists)


def test_unconc_implies_uniform_holds():
    dists = [HALF, near_uniform_dist(F3, {0}), HALF]
    H = [(1, 1, 0), (0, 1, 1)]
    lhs, delta, ok = check_unconc_implies_uniform(H, dists)
    assert ok
    assert lhs <= 2 * delta + Fraction(1, 10**12)
    with pytest.raises(InvalidArgument):
        check_unconc_implies_uniform([(1, 1, 0), (2, 2, 0)], dists)
    with pytest.raises(DimensionMismatch):  # a basis of F_3^2, not of F_3^3
        check_unconc_implies_uniform([(1, 1)], dists)


def test_unconc_delta_against_each_linear_form():
    # delta is the largest |P(X.w = 0) - 1/q| over the nonzero w of the
    # orthogonal complement, each w built here and its law computed alone
    rnd = random.Random(11)
    for _ in range(60):
        q = rnd.choice([2, 3, 4, 5])
        f = field_new(q)
        n = rnd.randrange(1, 5)
        d = rnd.randrange(0, min(n, 3) + 1)
        dists = [_random_dist(rnd, q) for _ in range(n)]
        fixed = {rnd.randrange(n): rnd.randrange(q)} if rnd.random() < 0.5 else {}
        while True:
            H = [[rnd.randrange(q) for _ in range(n)] for _ in range(n - d)]
            if not H or FqMatrix.from_rows(f, H).rank() == n - d:
                break
        perp = FqMatrix.from_rows(f, H).nullspace() if H else \
            [tuple(int(i == j) for j in range(n)) for i in range(n)]
        delta = Fraction(0)
        for c in product(range(q), repeat=d):
            if any(c):
                w = [0] * n
                for cj, v in zip(c, perp):
                    w = [f.add(wi, f.mul(cj, vi)) for wi, vi in zip(w, v)]
                delta = max(delta, abs(linear_form_pmf(w, dists, fixed)[0] - Fraction(1, q)))
        lhs, got, _ = check_unconc_implies_uniform(H, dists, fixed)
        assert got == delta
        assert lhs == abs(subspace_prob(H, dists, fixed) - Fraction(1, q**d))


def test_quad_form_pmf_against_enumeration():
    dists = [HALF, uniform_entry_dist(F3)]
    B = [[1, 2], [0, 1]]
    b = [2, 1]
    pmf = quad_form_pmf(B, b, dists)
    direct = {v: Fraction(0) for v in range(3)}
    for xs in product(range(3), repeat=2):
        w = Fraction(1)
        for x, d in zip(xs, dists):
            w *= d.probs[x]
        val = sum(B[i][j] * xs[i] * xs[j] for i in range(2) for j in range(2))
        val += sum(c * x for c, x in zip(b, xs))
        direct[val % 3] += w
    assert pmf == direct


def _law(*weights):
    return EntryDist(tuple(Fraction(w, sum(weights)) for w in weights))


@pytest.mark.parametrize("B, b, dists, fixed, expected", [
    # q=4, no fixed coordinates
    ([[1, 2, 0], [3, 0, 1], [0, 2, 3]], [1, 0, 2],
     [_law(1, 2, 0, 1), _law(3, 1, 1, 0), _law(1, 1, 1, 1)], None,
     {0: "2/5", 1: "2/5", 2: "1/10", 3: "1/10"}),
    # q=4, the middle coordinate fixed
    ([[0, 1, 1], [1, 2, 0], [3, 0, 1]], [2, 3, 0],
     [_law(2, 0, 1, 1), _law(1, 1, 1, 1), _law(0, 1, 2, 3)], {1: 3},
     {0: "1/4", 1: "5/24", 2: "7/24", 3: "1/4"}),
    # q=5, two of four coordinates fixed
    ([[1, 0, 2, 0], [0, 4, 0, 1], [3, 0, 0, 2], [0, 1, 1, 0]], [0, 1, 4, 2],
     [_law(1, 2, 3, 0, 1), _law(1, 0, 0, 0, 1), _law(2, 1, 1, 1, 0), _law(0, 0, 1, 1, 1)],
     {0: 2, 3: 4}, {0: "1/5", 1: "0", 2: "2/5", 3: "1/5", 4: "1/5"}),
    # q=3, a point mass: every value of F_q is a key, zero masses included
    ([[1, 0], [0, 0]], [0, 0], [_law(0, 1, 1), _law(1, 0, 0)], None,
     {0: "0", 1: "1", 2: "0"}),
])
def test_quad_form_pmf_pinned(B, b, dists, fixed, expected):
    # values captured from the recursive Fraction-weight enumerator
    pmf = quad_form_pmf(B, b, dists, fixed)
    assert pmf == {v: Fraction(p) for v, p in expected.items()}
    assert list(pmf) == list(range(dists[0].q))


def test_decoupling_holds():
    dists = [HALF, near_uniform_dist(F3, {1}), uniform_entry_dist(F3)]
    A = [[1, 2, 0], [1, 1, 1], [0, 2, 1]]
    b = [0, 1, 2]
    lhs4, rhs, ok = check_decoupling(A, b, dists, I=[0])
    assert ok
    assert lhs4 <= rhs + Fraction(1, 10**12)


def test_decoupling_rhs_against_enumeration():
    # the right side by direct enumeration of y = x - x' over F_q^m
    rnd = random.Random(12)
    for _ in range(40):
        q = rnd.choice([2, 3, 4])
        f = field_new(q)
        m = rnd.randrange(2, 5)
        dists = [_random_dist(rnd, q) for _ in range(m)]
        A = [[rnd.randrange(q) for _ in range(m)] for _ in range(m)]
        b = [rnd.randrange(q) for _ in range(m)]
        I = set(rnd.sample(range(m), rnd.randrange(1, m)))
        ydists = [diff_dist(d) for d in dists]
        p_zero = Fraction(0)
        for y in product(range(q), repeat=m):
            weight = Fraction(1)
            for v, d in zip(y, ydists):
                weight *= d.probs[v]
            acc = 0
            for i in I:
                for j in set(range(m)) - I:
                    acc = f.add(acc, f.mul(A[i][j], f.mul(y[i], y[j])))
            if acc == 0:
                p_zero += weight
        _, rhs, _ = check_decoupling(A, b, dists, I)
        assert rhs == abs(p_zero - Fraction(1, q))


# a key outside [0, m) or a value outside [0, q), with m = 2 coordinates
_BAD_FIXED = [(3, {0: 9}), (3, {0: 3}), (3, {1: -1}), (3, {2: 0}), (3, {-1: 0}),
              (3, {0: 1, 5: 0}), (4, {0: 7}), (4, {1: 4})]


@pytest.mark.parametrize("q, fixed", _BAD_FIXED)
def test_joint_law_refuses_bad_fixed(q, fixed):
    dists = [uniform_entry_dist(field_new(q))] * 2
    with pytest.raises(InvalidArgument):
        linear_form_pmf([1, 1], dists, fixed)
    with pytest.raises(InvalidArgument):
        subspace_prob([(1, 1)], dists, fixed)
    with pytest.raises(InvalidArgument):
        check_unconc_implies_uniform([(1, 1)], dists, fixed)


@pytest.mark.parametrize("q, fixed", _BAD_FIXED)
def test_quad_form_pmf_refuses_bad_fixed(q, fixed):
    dists = [uniform_entry_dist(field_new(q))] * 2
    with pytest.raises(InvalidArgument):
        quad_form_pmf([[1, 0], [0, 1]], [0, 0], dists, fixed)


# laws over two fields, and no laws at all
_MIXED = [uniform_entry_dist(F3), uniform_entry_dist(field_new(5))]


@pytest.mark.parametrize("call", [
    lambda: rho([1, 1], _MIXED),
    lambda: rho([], []),
    lambda: linear_form_pmf([1, 1], _MIXED),
    lambda: linear_form_pmf([], []),
    lambda: quad_form_pmf([[1, 0], [0, 1]], [0, 0], _MIXED),
    lambda: quad_form_pmf([], [], []),
    lambda: subspace_prob([], []),
    lambda: check_unconc_implies_uniform([(1, 0)], _MIXED),
    lambda: check_decoupling([[0, 1], [1, 0]], [0, 0], _MIXED, [0]),
], ids=["rho-mixed", "rho-empty", "linear-mixed", "linear-empty", "quad-mixed",
        "quad-empty", "subspace-empty", "unconc-mixed", "decoupling-mixed"])
def test_laws_over_one_field_only(call):
    with pytest.raises(InvalidArgument):
        call()
