import hashlib
import json
import random
import time
from bisect import bisect_right
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest

from fqrank.errors import EmptySupport, InvalidSpec, TooLarge
from fqrank.field import field_new
from fqrank.harness import mc_corank
from fqrank.matrix import FqMatrix
from fqrank import models
from fqrank.models import (EntryDist, ModelSpec, TypeFSpec, band_type_f,
                           candidates_per_call, corank_of_sample, derive_rng,
                           full_rank_stack, near_uniform_dist, sample, sample_array,
                           sample_gl, sample_stack, uniform_entry_dist,
                           validate_conditions)

F2 = field_new(2)
F3 = field_new(3)
F5 = field_new(5)


def test_entry_dist_validation():
    with pytest.raises(InvalidSpec):
        EntryDist((Fraction(1, 2), Fraction(1, 4)))  # does not sum to 1
    with pytest.raises(InvalidSpec):
        EntryDist((Fraction(3, 2), Fraction(-1, 2)))
    # integers are exact too
    assert EntryDist((1, 0, Fraction(0))).numerators == (1, 0, 0)
    assert EntryDist((np.int64(0), Fraction(1))).denominator == 1


@pytest.mark.parametrize("probs", [
    (0.5, 0.5, 0.0), (Fraction(1, 2), 0.5, 0), ("1", 0, 0), (True, False, 0),
    (Decimal(1), 0, 0), (1.0,),
])
def test_entry_dist_takes_exact_probabilities_only(probs):
    with pytest.raises(InvalidSpec):
        EntryDist(probs)


@pytest.mark.parametrize("zero_set", [{1.5}, {1.0}, {True}, {"1"}])
def test_near_uniform_zero_set_takes_integers_only(zero_set):
    with pytest.raises(InvalidSpec, match="must be an integer"):
        near_uniform_dist(F3, zero_set)


def test_entry_dist_constant():
    assert uniform_entry_dist(F5).C == 1
    assert uniform_entry_dist(F5) is uniform_entry_dist(F5)  # built once per field
    d = near_uniform_dist(F5, {0})
    assert d.C == Fraction(5, 4)
    assert d.probs[0] == 0


def test_near_uniform_validation():
    with pytest.raises(EmptySupport):
        near_uniform_dist(F2, {0, 1})
    with pytest.raises(InvalidSpec):
        near_uniform_dist(F2, {7})


def test_entry_dist_draw_matches_probs():
    d = EntryDist((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    rng = derive_rng(7)
    counts = Counter(d.lookup(rng.integers(0, d.denominator, size=30000)).tolist())
    for k, c in enumerate(d.probs):
        assert abs(counts[k] / 30000 - float(c)) < 0.02


def test_draw_one_and_array_share_support():
    d = near_uniform_dist(F5, {2, 3})
    rng = derive_rng(1)
    vals = set(d.lookup(rng.integers(0, d.denominator, size=1000)).tolist())
    vals.add(int(d.lookup(rng.integers(0, d.denominator))))
    assert vals <= {0, 1, 4}


def test_derive_rng_deterministic_and_trial_keyed():
    a = derive_rng(5, 3).integers(0, 1 << 30, 8)
    b = derive_rng(5, 3).integers(0, 1 << 30, 8)
    c = derive_rng(5, 4).integers(0, 1 << 30, 8)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()


def test_derive_rng_streams_pinned():
    # first draws of each stream, captured before derive_rng stopped building
    # Philox(key=...): the streams must never change
    expected = {
        (0, 0): [1732311908832338799, 4492247348597469749, 2680695788093016340,
                 1549287052922356039],
        (5, 3): [2444057192070346366, 2195725546862151674, 3078571240752900425,
                 3049056742983127277],
        (-1, 7): [625198244095296097, 140084468906613190, 1491801076012399896,
                  621060056510319282],
        (2**62, 0): [3284088124594451618, 4454316770275062550, 4185390721759368039,
                     3830783678376942420],
        (110, 12345): [824396500245186270, 1151327244895683566, 1390950857154495689,
                       3030684451703835755],
    }
    for (seed, trial), draws in expected.items():
        assert derive_rng(seed, trial).integers(0, 2**62, 4).tolist() == draws


def _random_law(rng: random.Random, q: int, D: int) -> EntryDist:
    """A law on F_q with common denominator exactly D: random integer masses
    summing to D, one of them 1, some of them 0."""
    cuts = sorted(rng.randrange(1, D) for _ in range(q - 2)) if D > 1 else [0] * (q - 2)
    masses = [b - a for a, b in zip([0] + cuts, cuts + [D - 1])] + [1]
    rng.shuffle(masses)
    return EntryDist(tuple(Fraction(m, D) for m in masses))


@pytest.mark.parametrize("q, D", [
    (2, 1), (5, 1), (7, 7), (101, 101), (3, (1 << 16) + 1), (17, 3**30),
    (101, (1 << 40) - 87), (5, (1 << 63) - 1), (101, (1 << 63) - 25)])
def test_guide_table_lookup_matches_binary_search(q, D):
    rng = random.Random(q * 1_000_003 + D)
    for law in (_random_law(rng, q, D), _random_law(rng, q, D)):
        assert law.denominator == D
        if D <= 2**16:  # one bucket per u: a lookup is a single gather
            assert law._guide[3] == ()
        cum = list(accumulate(int(c * D) for c in law.probs))
        u = {0, D - 1} | {b for b in cum if b < D} | {b - 1 for b in cum if b > 0}
        u |= {rng.randrange(D) for _ in range(200)}
        u = sorted(u)
        expected = [bisect_right(cum, x) for x in u]
        assert law.lookup(np.array(u, dtype=np.int64)).tolist() == expected


def test_guide_table_lookup_many_boundaries_in_one_bucket():
    # 100 values of mass 1/D share the top bucket of a table over D ~ 2^40:
    # the correction rounds must walk all of them
    D = (1 << 40) + 3
    law = EntryDist((1 - Fraction(100, D),) + (Fraction(1, D),) * 100)
    cum = list(accumulate(int(c * D) for c in law.probs))
    u = list(range(D - 120, D)) + [0, 1, D - 101]
    assert law.lookup(np.array(u)).tolist() == [bisect_right(cum, x) for x in u]


@pytest.mark.parametrize("D", [(c << k) + 1 for k in range(53, 62) for c in (1, 3)])
def test_guide_table_counts_its_buckets_in_integers(D):
    # arange(0, D, 2^shift) sizes itself in floats and made one bucket too
    # few for these D, so the last u ran off the table
    law = EntryDist((Fraction(1, D), 1 - Fraction(1, D)))
    cum = np.array(list(accumulate(law.numerators)), dtype=np.int64)
    u = np.array([D - 2, D - 1], dtype=np.int64)
    assert law.lookup(u).tolist() == np.searchsorted(cum, u, side="right").tolist()


def test_guide_table_is_built_on_first_lookup():
    d = near_uniform_dist(field_new(101), set(range(51, 101)))
    spec = ModelSpec(kind="iid-square", field=field_new(101), n=4, entries=d)
    assert "_guide" not in vars(d)
    assert "_guide" not in vars(spec.default_dist())
    d.lookup(np.array([0, 50]))
    assert "_guide" in vars(d)


def test_near_uniform_mc_counts_pinned():
    # criterion 10's iid-square spec over ten blocks of 104 trials; counts
    # captured before sampling moved from a binary search to the guide table
    f = field_new(101)
    d = near_uniform_dist(f, set(range(51, 101)))
    spec = ModelSpec(kind="iid-square", field=f, n=50, entries=d,
                     type_f=band_type_f(50, 0.05))
    assert dict(mc_corank(spec, 1000, seed=110, threads=1).counts) == {0: 993, 1: 7}
    # and one draw, entry by entry
    M = sample(spec, 110, 0)
    assert sum((i + 1) * v for i, v in enumerate(M.entries)) == 73419002


def test_override_draws_pinned():
    # overrides, one of them over a denominator above 2^16, drawn before and
    # after the override lookups were batched over a stack
    law = EntryDist((Fraction(1, 2), Fraction(0), Fraction(1, 6), Fraction(1, 4),
                     Fraction(1, 12)))
    big = EntryDist((Fraction(1, 3), Fraction(1, 999999999989), Fraction(0), Fraction(2, 5),
                     1 - Fraction(1, 3) - Fraction(1, 999999999989) - Fraction(2, 5)))
    expected = {
        "iid-square": [(0, 3, 0, 0, 4, 0, 0, 2, 4), (0, 0, 2, 2, 4, 3, 2, 3, 2),
                       (0, 0, 0, 3, 2, 0, 4, 0, 0)],
        "symmetric": [(0, 3, 0, 3, 4, 0, 0, 0, 4), (0, 0, 2, 0, 4, 3, 2, 3, 2),
                      (0, 0, 0, 0, 2, 0, 0, 0, 0)],
    }
    for kind, draws in expected.items():
        spec = ModelSpec(kind=kind, field=F5, n=3, entries=law,
                         overrides=((0, 1, big), (2, 2, law)))
        assert [sample(spec, 9, t).entries for t in range(3)] == draws


def test_fixed_cell_draws_pinned():
    # mirrored kinds with nonzero F values, F cells on the diagonal, overrides
    # in either triangle and planted corners, drawn before the fixed cells
    # became one list written after in-place mirroring
    law5 = EntryDist((Fraction(1, 2), Fraction(0), Fraction(1, 6), Fraction(1, 4),
                      Fraction(1, 12)))
    law3 = EntryDist((Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)))
    specs = [
        (ModelSpec(kind="alternating", field=F5, n=4, entries=law5,
                   overrides=((0, 1, law5), (3, 2, law5)),
                   type_f=TypeFSpec(((2,), (1, 3), (), (0,)), ((3,), (0, 4), (), (1,)))),
         [(0, 0, 2, 1, 0, 0, 0, 1, 3, 0, 0, 2, 4, 4, 3, 0),
          (0, 0, 2, 1, 0, 0, 0, 1, 3, 0, 0, 0, 4, 4, 0, 0)]),
        (ModelSpec(kind="planted-symmetric", field=F5, n=5,
                   planted=FqMatrix.from_rows(F5, [[1, 4], [4, 0]]),
                   overrides=((4, 2, law5), (0, 4, law5)),
                   type_f=TypeFSpec(((3,), (), (2,), (4,)), ((4,), (), (1,), (2,)))),
         [(1, 4, 1, 4, 3, 4, 0, 2, 1, 3, 1, 2, 1, 2, 3, 4, 1, 2, 2, 2, 3, 3, 3, 2, 3),
          (1, 4, 1, 4, 0, 4, 0, 1, 1, 4, 1, 1, 1, 3, 0, 4, 1, 3, 4, 2, 0, 4, 0, 2, 0)]),
        (ModelSpec(kind="planted-alternating", field=F3, n=5,
                   planted=FqMatrix.from_rows(F3, [[0, 1], [2, 0]]),
                   overrides=((3, 1, law3),),
                   type_f=TypeFSpec(((4,), (), (2, 3)), ((2,), (), (0, 1)))),
         [(0, 1, 0, 0, 1, 2, 0, 1, 2, 2, 0, 2, 0, 2, 2, 0, 1, 1, 0, 0, 2, 1, 1, 0, 0),
          (0, 1, 0, 1, 1, 2, 0, 0, 1, 2, 0, 0, 0, 2, 1, 2, 2, 1, 0, 0, 2, 1, 2, 0, 0)]),
    ]
    for spec, draws in specs:
        assert [sample(spec, 7, t).entries for t in range(2)] == draws


def test_fixed_cells_hold_every_cell_not_drawn_from_a_law():
    # the zero diagonal, the planted corner, then F entries with negated mirrors
    corner = FqMatrix.from_rows(F3, [[0, 1], [2, 0]])
    spec = ModelSpec(kind="planted-alternating", field=F3, n=3, planted=corner,
                     type_f=TypeFSpec(((2,),), ((1,),)))
    rows, cols, vals = spec.fixed_cells
    assert dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist())) == {
        (0, 0): 0, (1, 1): 0, (2, 2): 0, (0, 1): 1, (1, 0): 2, (2, 0): 1, (0, 2): 2}
    assert all(a.size == 0 for a in ModelSpec(kind="symmetric", field=F3, n=3).fixed_cells)


def test_fixed_cells_built_with_the_spec():
    spec = ModelSpec(kind="symmetric", field=F5, n=3, type_f=TypeFSpec(((1,),), ((2,),)))
    assert "fixed_cells" in spec.__dict__


@pytest.mark.parametrize("kind, tf, cells", [
    # a cell listed together with its mirror at the mirror's value (negated on
    # alternating kinds), and one F column listing a row twice with one value
    ("symmetric", TypeFSpec(((1,), (0,)), ((2,), (2,))), {(1, 0): 2, (0, 1): 2}),
    ("alternating", TypeFSpec(((1,), (0,)), ((2,), (3,))), {(1, 0): 2, (0, 1): 3}),
    ("iid-square", TypeFSpec(((1, 1),), ((2, 2),)), {(1, 0): 2}),
])
def test_fixed_cell_listed_with_its_mirror_value_accepted(kind, tf, cells):
    spec = ModelSpec(kind=kind, field=F5, n=3, type_f=tf)
    rows, cols, vals = spec.fixed_cells
    fixed = dict(zip(zip(rows.tolist(), cols.tolist()), vals.tolist()))
    assert {k: v for k, v in fixed.items() if k[0] != k[1]} == cells
    for t in range(3):
        assert all(sample(spec, 5, t).get(r, c) == v for (r, c), v in cells.items())


def _point5(v: int) -> EntryDist:
    return EntryDist(tuple(Fraction(int(x == v)) for x in range(5)))


@pytest.mark.parametrize("kind, extra", [
    # refused before fixed cells became one pass
    ("alternating", {"type_f": TypeFSpec(((0,),), ((1,),))}),  # nonzero on the diagonal
    ("planted-symmetric", {"planted": [[1, 2], [1, 0]]}),  # corner not symmetric
    ("planted-alternating", {"planted": [[0, 1], [1, 0]]}),  # corner not alternating
    ("planted-alternating", {"planted": [[1, 1], [2, 0]]}),  # nor with a nonzero diagonal
    ("alternating", {"overrides": ((1, 1),)}),  # override of the diagonal
    ("planted-symmetric", {"planted": [[1, 2], [2, 1]], "overrides": ((0, 1),)}),
    ("planted-symmetric", {"planted": [[1, 2], [2, 1]],  # F inside the corner,
                           "type_f": TypeFSpec(((1,),), ((2,),))}),  # even at its value
    # a cell fixed to two values
    ("symmetric", {"type_f": TypeFSpec(((1,), (0,)), ((2,), (3,)))}),
    ("alternating", {"type_f": TypeFSpec(((1,), (0,)), ((2,), (2,)))}),
    ("planted-symmetric", {"planted": [[1, 2], [2, 1]],
                           "type_f": TypeFSpec(((), (), (3,), (2,)), ((), (), (1,), (2,)))}),
    ("iid-square", {"type_f": TypeFSpec(((1, 1),), ((1, 2),))}),
    # a cell with two sources: two laws, or a law and a fixed value
    ("iid-square", {"overrides": ((2, 1), (2, 1, _point5(3)))}),
    ("symmetric", {"overrides": ((2, 1), (1, 2, _point5(3)))}),  # a cell and its mirror
    ("iid-square", {"type_f": TypeFSpec(((0,),), ((2,),)), "overrides": ((0, 0, _point5(0)),)}),
    ("symmetric", {"type_f": TypeFSpec(((1,),), ((2,),)), "overrides": ((0, 1),)}),  # F's mirror
])
def test_fixed_cell_conflicts_refused(kind, extra):
    # an override given as (i, j) has the uniform law
    if "planted" in extra:
        extra = {**extra, "planted": FqMatrix.from_rows(F5, extra["planted"])}
    if "overrides" in extra:
        extra = {**extra, "overrides": tuple(o if len(o) == 3 else (*o, uniform_entry_dist(F5))
                                             for o in extra["overrides"])}
    with pytest.raises(InvalidSpec):
        ModelSpec(kind=kind, field=F5, n=4, **extra)


def test_two_sources_named_in_words():
    with pytest.raises(InvalidSpec, match=r"cell \(0, 0\) is given both 2 and "
                                          r"the law \(1, 0, 0\)$"):
        ModelSpec(kind="iid-square", field=F3, n=2, type_f=TypeFSpec(((0,),), ((2,),)),
                  overrides=((0, 0, EntryDist((Fraction(1), Fraction(0), Fraction(0)))),))


def test_override_listed_with_its_mirror_law_accepted():
    law = _point5(3)
    spec = ModelSpec(kind="symmetric", field=F5, n=3, overrides=((0, 2, law), (2, 0, law)),
                     type_f=TypeFSpec(((1,),), ((4,),)))
    assert spec.cell_sources == {(1, 0): 4, (0, 1): 4, (0, 2): law, (2, 0): law}
    assert [a.tolist() for a in spec.fixed_cells] == [[1, 0], [0, 1], [4, 4]]
    for t in range(3):
        M = sample(spec, 5, t)
        assert M.get(0, 2) == M.get(2, 0) == 3


def test_override_below_alternating_diagonal_lands_on_its_cell():
    # the stated cell holds the law, its mirror the negated law, as with F
    one = EntryDist((Fraction(0), Fraction(1), Fraction(0)))
    spec = ModelSpec(kind="alternating", field=F3, n=3, overrides=((1, 0, one),))
    for t in range(50):
        M = sample(spec, 1, t)
        assert (M.get(1, 0), M.get(0, 1)) == (1, 2)


def test_mirrored_override_sources():
    law = EntryDist((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    # P(-X = v) = P(X = -v): the masses of 1 and 2 swap in F_3
    neg = EntryDist((Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)))
    for i, j in ((2, 0), (0, 2)):
        spec = ModelSpec(kind="alternating", field=F3, n=3, overrides=((i, j, law),))
        assert spec.cell_sources[i, j] == law and spec.cell_sources[j, i] == neg
        spec = ModelSpec(kind="symmetric", field=F3, n=3, overrides=((i, j, law),))
        assert spec.cell_sources[i, j] == spec.cell_sources[j, i] == law
    # in F_9 = F_3[x], -(a + bx) = -a - bx
    F9 = field_new(9)
    law9 = EntryDist(tuple(Fraction(int(v == 5)) for v in range(9)))
    spec = ModelSpec(kind="alternating", field=F9, n=2, overrides=((1, 0, law9),))
    assert spec.cell_sources[0, 1].probs[F9.neg(5)] == 1
    assert all(sample(spec, 3, t).to_lists() == [[0, F9.neg(5)], [5, 0]] for t in range(5))


def test_override_and_its_mirror_with_one_law_on_alternating_kinds():
    # one law stated for a cell and its mirror gives them two sources, unless
    # negation leaves the law as it is
    law = EntryDist((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    with pytest.raises(InvalidSpec, match=r"cell \(1, 0\) is given both"):
        ModelSpec(kind="alternating", field=F3, n=3, overrides=((0, 1, law), (1, 0, law)))
    even = uniform_entry_dist(F3)
    spec = ModelSpec(kind="alternating", field=F3, n=3, overrides=((0, 1, even), (1, 0, even)))
    assert spec.cell_sources[0, 1] == spec.cell_sources[1, 0] == even


def test_entry_law_denominator_cap():
    third = Fraction(1, 999999999989)
    fourth = Fraction(1, 999999999961)
    law = EntryDist((third, fourth, 1 - third - fourth))
    assert law.denominator > 2**63
    with pytest.raises(TooLarge):
        ModelSpec(kind="iid-square", field=F3, n=3, entries=law)
    with pytest.raises(TooLarge):
        ModelSpec(kind="iid-square", field=F3, n=3, overrides=((0, 0, law),))
    # the largest int64 denominator is still sampled
    top = EntryDist((Fraction(1, 2**63 - 1), Fraction(0), 1 - Fraction(1, 2**63 - 1)))
    spec = ModelSpec(kind="iid-square", field=F3, n=3, entries=top)
    assert set(sample(spec, 1).entries) <= {0, 2}


def test_probability_strings_bounded():
    def law(*probs):
        spec = {"kind": "iid-square", "q": 2, "n": 2, "entries": {"default": list(probs)}}
        return ModelSpec.from_json(spec).entries.probs

    assert law("1e-3", "999E-3") == (Fraction(1, 1000), Fraction(999, 1000))
    half = "0.5" + "0" * 253  # 256 characters
    assert law(half, "1/2") == (Fraction(1, 2), Fraction(1, 2))
    assert law("0e-256", "1") == (0, 1)
    for probs in (("1/0", "1"), ("0/0", "1"), (half + "0", "1/2"), ("0e-257", "1")):
        with pytest.raises(InvalidSpec):
            law(*probs)
    # Fraction would build a 10^8-digit power of ten; the check refuses it first
    t0 = time.perf_counter()
    with pytest.raises(InvalidSpec):
        law("1e-99999999", "1")
    assert time.perf_counter() - t0 < 10


def test_model_spec_validation():
    with pytest.raises(InvalidSpec):
        ModelSpec(kind="nope", field=F3, n=2)
    with pytest.raises(InvalidSpec):
        ModelSpec(kind="alternating", field=F2, n=2)  # even q
    with pytest.raises(InvalidSpec):
        ModelSpec(kind="gl-corner", field=F3, n=4)  # missing n_prime
    with pytest.raises(InvalidSpec):
        ModelSpec(kind="iid-square", field=F3, n=2,
                  entries=uniform_entry_dist(F5))  # wrong length
    d = uniform_entry_dist(F3)
    for kind, i, j in (("iid-square", -1, 0), ("iid-square", 5, 0),
                       ("iid-square", 0, 3), ("symmetric", 0, -1),
                       ("alternating", 1, 1)):  # alternating diagonal is 0
        with pytest.raises(InvalidSpec):
            ModelSpec(kind=kind, field=F3, n=3, overrides=((i, j, d),))
    with pytest.raises(InvalidSpec):
        ModelSpec(kind="iid-rect", field=F3, n=2, m=1, overrides=((2, 0, d),))
    with pytest.raises(InvalidSpec):  # a fixed alternating diagonal must be 0
        ModelSpec(kind="alternating", field=F3, n=3, type_f=TypeFSpec(((0,),), ((1,),)))
    ModelSpec(kind="iid-rect", field=F3, n=2, m=1, overrides=((1, 2, d),))
    # what sampling would ignore: entry laws and fixed entries on GL kinds,
    # entry laws on planted kinds
    tf = TypeFSpec(((1,),))
    for kind, extra in (("uniform-gl", {}), ("gl-minus-identity", {}),
                        ("gl-corner", {"n_prime": 2})):
        for bad in ({"entries": d}, {"overrides": ((0, 1, d),)}, {"type_f": tf}):
            with pytest.raises(InvalidSpec):
                ModelSpec(kind=kind, field=F3, n=3, **extra, **bad)
    corner = FqMatrix.from_rows(F3, [[1, 2], [2, 1]])
    with pytest.raises(InvalidSpec):
        ModelSpec(kind="planted-symmetric", field=F3, n=3, planted=corner, entries=d)
    # what it would contradict: overrides and fixed entries inside the corner,
    # in either triangle, and an override of an F cell
    for bad in ({"overrides": ((1, 0, d),)}, {"overrides": ((0, 0, d),)},
                {"type_f": TypeFSpec(((1,),))}, {"type_f": TypeFSpec(((), (0,)))},
                {"overrides": ((2, 0, d),), "type_f": TypeFSpec(((2,), (2,)))}):
        with pytest.raises(InvalidSpec):
            ModelSpec(kind="planted-symmetric", field=F3, n=3, planted=corner, **bad)
    ModelSpec(kind="planted-symmetric", field=F3, n=3, planted=corner,
              overrides=((2, 2, d),), type_f=TypeFSpec(((2,), (2,))))
    # sizes and corners that only other kinds read
    for kind, bad in (("iid-square", {"m": 1}), ("symmetric", {"m": 2}),
                      ("uniform-gl", {"m": 1}), ("iid-square", {"n_prime": 2}),
                      ("gl-minus-identity", {"n_prime": 2}), ("iid-rect", {"n_prime": 1}),
                      ("symmetric", {"planted": corner}), ("uniform-gl", {"planted": corner})):
        with pytest.raises(InvalidSpec):
            ModelSpec(kind=kind, field=F3, n=3, **bad)
    # sizes, indices and fixed values that are not integers
    for bad in ({"n": 2.7}, {"n": True}, {"overrides": ((1.0, 0, d),)},
                {"type_f": TypeFSpec(((True,),))}, {"type_f": TypeFSpec(((1,),), ((1.0,),))}):
        with pytest.raises(InvalidSpec):
            ModelSpec(**{"kind": "iid-square", "field": F3, "n": 3, **bad})


_OVERRIDE = ["0", "1", "0"]


@pytest.mark.parametrize("part", [
    {"n": 2.7}, {"n": True}, {"n": 2.0}, {"n": "2"}, {"q": 3.0}, {"q": True},
    {"kind": "iid-rect", "m": 1.5}, {"kind": "iid-rect", "m": True},
    {"kind": "gl-corner", "n_prime": 1.0},
    {"entries": {"overrides": [[0.0, 1, _OVERRIDE]]}},
    {"entries": {"overrides": [[0, True, _OVERRIDE]]}},
    {"F": [[1.0]]}, {"F": [[1], [0.5]]}, {"F": [[1]], "F_values": [[False]]},
    {"F": [[1]], "F_values": [[1.0]]},
])
def test_from_json_refuses_non_integers(part):
    # int() would read 2.7 as 2 and true as 1
    good = {"kind": "iid-square", "q": 3, "n": 2, "m": 0}
    assert ModelSpec.from_json(json.dumps(good)).n == 2
    with pytest.raises(InvalidSpec):
        ModelSpec.from_json(json.dumps({**good, **part}))


def test_from_json_refuses_deep_nesting():
    with pytest.raises(InvalidSpec, match="RecursionError"):
        ModelSpec.from_json("[" * 200_000 + "]" * 200_000)


def test_planted_validation():
    corner = FqMatrix.from_rows(F3, [[1, 2], [2, 0]])
    spec = ModelSpec(kind="planted-symmetric", field=F3, n=4, planted=corner)
    assert spec.shape == (4, 4)
    with pytest.raises(InvalidSpec):
        ModelSpec(kind="planted-alternating", field=F3, n=4, planted=corner)
    with pytest.raises(InvalidSpec):
        ModelSpec(kind="planted-symmetric", field=F3, n=1, planted=corner)


def test_json_roundtrip():
    d = near_uniform_dist(F5, {1})
    spec = ModelSpec(
        kind="iid-rect", field=F5, n=3, m=2, entries=d,
        overrides=((0, 1, uniform_entry_dist(F5)),),
        type_f=TypeFSpec(((0,), (1,)), ((2,), (0,))),
    )
    again = ModelSpec.from_json(spec.to_json())
    assert again == spec
    # overrides without a default law, on a kind that takes none and on one that does
    for spec in (ModelSpec(kind="planted-symmetric", field=F3, n=3,
                           planted=FqMatrix.from_rows(F3, [[1, 2], [2, 1]]),
                           overrides=((2, 2, near_uniform_dist(F3, {0})),)),
                 ModelSpec(kind="iid-square", field=F5, n=2, overrides=((1, 0, d),))):
        again = ModelSpec.from_json(spec.to_json())
        assert again == spec and again.entries is None


def test_band_type_f():
    tf = band_type_f(5, 0.4)
    assert tf.sets[0] == (0, 1, 2)
    assert tf.sets[4] == (4,)
    assert tf.fixed_entries()[(1, 0)] == 0


def test_validate_conditions_reports():
    spec = ModelSpec(kind="iid-square", field=F5, n=40, type_f=band_type_f(40, 0.02))
    rep = validate_conditions(spec, 0.08)
    assert rep["all_ok"]
    crowded = TypeFSpec(tuple((0,) for _ in range(40)))
    spec = ModelSpec(kind="iid-square", field=F5, n=40, type_f=crowded)
    rep = validate_conditions(spec, 0.08)
    assert not rep["membership_ok"]


def test_sample_deterministic():
    spec = ModelSpec(kind="iid-square", field=F3, n=4)
    assert sample(spec, 9, 2) == sample(spec, 9, 2)
    assert sample(spec, 9, 2) != sample(spec, 9, 3)


def test_sample_symmetric_and_alternating_structure():
    sym = ModelSpec(kind="symmetric", field=F5, n=6)
    alt = ModelSpec(kind="alternating", field=F5, n=6)
    for t in range(5):
        assert sample(sym, 3, t).is_symmetric()
        assert sample(alt, 3, t).is_alternating()


def test_sample_respects_type_f():
    tf = TypeFSpec(((0, 1), (1,)), ((4, 0), (3,)))
    spec = ModelSpec(kind="iid-square", field=F5, n=3, type_f=tf)
    M = sample(spec, 11)
    assert M.get(0, 0) == 4 and M.get(1, 0) == 0 and M.get(1, 1) == 3


def test_sample_respects_overrides():
    point = EntryDist((Fraction(0), Fraction(0), Fraction(1)))
    spec = ModelSpec(kind="iid-square", field=F3, n=3,
                     overrides=((2, 1, point),))
    for t in range(5):
        assert sample(spec, 4, t).get(2, 1) == 2


def test_planted_corner_embedded():
    corner = FqMatrix.from_rows(F3, [[0, 1], [2, 0]])
    spec = ModelSpec(kind="planted-alternating", field=F3, n=5, planted=corner)
    M = sample(spec, 8)
    assert [row[:2] for row in M.to_lists()[:2]] == corner.to_lists()
    assert M.is_alternating()


def test_sample_gl_invertible():
    for q, n in ((2, 3), (3, 4), (4, 3)):
        f = field_new(q)
        for t in range(4):
            assert sample_gl(n, f, 13, t).rank() == n


@pytest.mark.parametrize("n, error", [
    (-1, InvalidSpec), (0, InvalidSpec), (2.5, InvalidSpec), (True, InvalidSpec),
    (2049, TooLarge),
])
def test_sample_gl_refuses_what_model_spec_refuses(n, error):
    with pytest.raises(error):
        ModelSpec(kind="uniform-gl", field=F2, n=n)
    with pytest.raises(error):
        sample_gl(n, F2, 0)


def test_sample_gl_lone_draws_uniform_on_gl2_f3():
    # chi-square of lone sample_gl draws against the 48 elements of GL_2(F_3)
    from scipy.stats import chi2

    cells = Counter(sample_gl(2, F3, 31, t).entries for t in range(4800))
    gl = [e for e in product(range(3), repeat=4) if FqMatrix(F3, 2, 2, e).rank() == 2]
    assert len(gl) == 48 and set(cells) <= set(gl)
    stat = sum((cells[e] - 100) ** 2 / 100 for e in gl)
    assert chi2.sf(stat, 47) > 1e-3


def test_sample_gl_is_the_uniform_gl_draw():
    for q in (2, 3, 4, 5, 9):
        f = field_new(q)
        for n in (1, 2, 3, 5):
            spec = ModelSpec(kind="uniform-gl", field=f, n=n)
            for t in range(3):
                assert sample_gl(n, f, 17, t) == sample(spec, 17, t), (q, n, t)


@pytest.mark.parametrize("rows, cols, q", [
    (1, 1, 2), (2, 2, 2), (2, 2, 3), (5, 5, 3), (8, 8, 2), (12, 12, 7),
    (6, 3, 5),  # odlyzko_check's bases
    (4, 4, 9), (3, 3, 4),
])
def test_full_rank_stack_same_under_either_rank(monkeypatch, rows, cols, q):
    # a cutoff of 0 ranks every round by rank_stack, one above every round
    # ranks every round by rank_rows; lone draws and stacks alike
    for streams in (1, 30):
        draws = []
        for cutoff in (0, 10**9):
            monkeypatch.setattr(models, "SCALAR_RANK_ENTRIES", cutoff)
            rngs = [derive_rng(23, t) for t in range(streams)]
            draws.append(full_rank_stack(rngs, rows, cols, q))
        assert np.array_equal(*draws), (rows, cols, q, streams)


@pytest.mark.parametrize("n, q, digest", [
    (1, 2, "afb6cecb558a0858"), (2, 2, "083adfc9fec7208d"), (2, 3, "8d761b5aba72c4a2"),
    (3, 4, "a6ebd4acf82c28b9"), (4, 5, "29b687bf7cb3635f"),
])
def test_lone_gl_draws_are_pinned(n, q, digest):
    # 400 lone draws, hashed; the digests were computed before lone rounds
    # ran one stream at a time, which must change no draw
    f = field_new(q)
    h = hashlib.sha256()
    for t in range(400):
        h.update(bytes(sample_gl(n, f, 41, t).entries))
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize("rows, cols, q, digest", [
    (1, 1, 2, "ead11463b081c0e0"), (2, 2, 2, "0d6f4e1d52b58504"),
    (2, 2, 3, "c038ecb9dd3b786a"), (5, 5, 3, "15d8a2b334fc8841"),
    (8, 8, 2, "504be0c2b6e6999a"), (12, 12, 7, "1b8ddb37eaf3f998"),
    (6, 3, 5, "2b93e3a15c361d8c"),  # odlyzko_check's bases, after which it draws x
    (4, 4, 9, "d8c691e856f8b433"), (3, 3, 4, "1bb1f7d7cd9832af"),
])
def test_full_rank_stack_leaves_each_stream_where_it_did(monkeypatch, rows, cols, q, digest):
    # the draws of 1 and 30 streams and each stream's next integers() draw
    # after them, hashed: k candidates a round, no later round grown and no
    # candidate drawn ahead, under either rank (cutoffs as in
    # test_full_rank_stack_same_under_either_rank)
    for cutoff in (0, 10**9):
        monkeypatch.setattr(models, "SCALAR_RANK_ENTRIES", cutoff)
        h = hashlib.sha256()
        for streams in (1, 30):
            rngs = [derive_rng(29, t) for t in range(streams)]
            h.update(full_rank_stack(rngs, rows, cols, q).tobytes())
            for rng in rngs:
                h.update(rng.integers(0, q, size=(rows, cols)).tobytes())
        assert h.hexdigest()[:16] == digest, cutoff


def test_candidates_per_call():
    # the least k with P(some of k candidates has full column rank) >= 1/2
    assert candidates_per_call(40, 40, 2) == 3
    assert candidates_per_call(40, 40, 3) == candidates_per_call(40, 40, 7) == 1
    assert candidates_per_call(6, 3, 5) == 1  # the odlyzko_check bases
    assert candidates_per_call(2, 2, 2) == 2  # p = 3/8
    assert candidates_per_call(1, 1, 2) == 1  # p = 1/2 exactly
    assert candidates_per_call(4, 0, 2) == 1


def _first_full_rank(rng, n: int, f) -> np.ndarray:
    """The GL draw of sample_stack replayed one candidate at a time and
    ranked by the FqMatrix oracle."""
    k = candidates_per_call(n, n, f.q)
    while True:
        for c in rng.integers(0, f.q, size=(k, n, n)):
            if FqMatrix(f, n, n, tuple(c.ravel().tolist())).rank() == n:
                return c


def test_gl_stack_is_first_full_rank_candidate_per_stream():
    for q, n in ((2, 1), (2, 2), (2, 5), (3, 2), (4, 3), (5, 6)):
        f = field_new(q)
        specs = (ModelSpec(kind="uniform-gl", field=f, n=n),
                 ModelSpec(kind="gl-minus-identity", field=f, n=n),
                 ModelSpec(kind="gl-corner", field=f, n=n, n_prime=max(1, n // 2)))
        g = np.stack([_first_full_rank(derive_rng(8, t), n, f) for t in range(12)])
        for spec in specs:
            k = spec.shape[0]
            expected = {"uniform-gl": g, "gl-corner": g[:, :k, :k],
                        "gl-minus-identity": f.vec.sub(g, np.eye(n, dtype=np.int64))
                        }[spec.kind]
            stack = sample_stack(spec, [derive_rng(8, t) for t in range(12)])
            singles = [sample_array(spec, derive_rng(8, t)) for t in range(12)]
            assert np.array_equal(stack, expected), (q, n, spec.kind)
            assert np.array_equal(stack, np.stack(singles)), (q, n, spec.kind)


def test_gl_kinds_cap_the_whole_draw():
    # gl-corner keeps an n' x n' corner of an n x n draw; the cap is on the draw.
    # These specs are only built, never sampled.
    for kind, extra in (("uniform-gl", {}), ("gl-minus-identity", {}),
                        ("gl-corner", {"n_prime": 1})):
        with pytest.raises(TooLarge):
            ModelSpec(kind=kind, field=F2, n=2049, **extra)
        assert ModelSpec(kind=kind, field=F2, n=2048, **extra).n == 2048


def test_f_values_need_f():
    with pytest.raises(InvalidSpec, match="F_values"):
        ModelSpec.from_json('{"kind": "iid-square", "q": 3, "n": 2, "F_values": [[2]]}')
    plain = ModelSpec(kind="iid-square", field=F3, n=2)
    assert ModelSpec.from_json(
        '{"kind": "iid-square", "q": 3, "n": 2, "F_values": null}') == plain
    assert ModelSpec.from_json(
        '{"kind": "iid-square", "q": 3, "n": 2, "F": [[1]], "F_values": null}'
    ) == ModelSpec(kind="iid-square", field=F3, n=2, type_f=TypeFSpec(((1,),)))


def test_gl_minus_identity_1x1_f2():
    spec = ModelSpec(kind="gl-minus-identity", field=F2, n=1)
    for t in range(4):
        assert corank_of_sample(spec, 5, t) == 1


def test_gl_corner_shape():
    spec = ModelSpec(kind="gl-corner", field=F3, n=6, n_prime=3)
    M = sample(spec, 2)
    assert (M.rows, M.cols) == (3, 3)


def test_corank_of_sample_matches_sample():
    # the array kernel against the FqMatrix elimination of the same draw,
    # and a stack of draws against the same draws made one at a time
    for q in (3, 4, 9):
        f = field_new(q)
        sym = FqMatrix.from_rows(f, [[1, 2], [2, 0]])
        alt = FqMatrix.from_rows(f, [[0, 1], [f.neg(1), 0]])
        nonzero = near_uniform_dist(f, {0})
        one = EntryDist(tuple(Fraction(int(v == 1)) for v in range(q)))
        # two overrides of one mirrored cell with one law, nonzero fixed values,
        # and a fixed cell listed together with its mirror's value
        over = ((1, 3, nonzero), (3, 1, nonzero), (1, 2, one))
        tf = TypeFSpec(((1, 2), (0,), (), (2,)), ((1, q - 1), (1,), (), (0,)))
        # the same kinds of fixed cells outside the 2x2 planted corner
        planted_tf = TypeFSpec(((2, 3), (), (3,), (2,)), ((1, q - 1), (), (2,), (2,)))
        specs = [ModelSpec(kind="iid-square", field=f, n=4),
                 ModelSpec(kind="iid-rect", field=f, n=3, m=2),
                 ModelSpec(kind="symmetric", field=f, n=4),
                 ModelSpec(kind="uniform-gl", field=f, n=4),
                 ModelSpec(kind="gl-minus-identity", field=f, n=4),
                 ModelSpec(kind="gl-corner", field=f, n=4, n_prime=2),
                 ModelSpec(kind="planted-symmetric", field=f, n=4, planted=sym),
                 ModelSpec(kind="iid-square", field=f, n=4, entries=nonzero,
                           overrides=over, type_f=tf),
                 ModelSpec(kind="iid-rect", field=f, n=4, m=1,
                           overrides=over + ((2, 4, nonzero),), type_f=tf),
                 ModelSpec(kind="symmetric", field=f, n=4, entries=nonzero,
                           overrides=over + ((2, 2, one),), type_f=tf),
                 ModelSpec(kind="planted-symmetric", field=f, n=4, planted=sym,
                           overrides=over, type_f=planted_tf)]
        if q % 2:
            alt_tf = TypeFSpec(((1, 3), (), (0,)), ((1, q - 1), (), (2,)))
            planted_alt_tf = TypeFSpec(((2, 3), (), (0,)), ((1, q - 1), (), (2,)))
            specs += [ModelSpec(kind="alternating", field=f, n=4),
                      ModelSpec(kind="planted-alternating", field=f, n=4, planted=alt),
                      ModelSpec(kind="alternating", field=f, n=4, entries=nonzero,
                                overrides=over, type_f=alt_tf),
                      ModelSpec(kind="planted-alternating", field=f, n=4, planted=alt,
                                overrides=over, type_f=planted_alt_tf)]
        for spec in specs:
            for t in range(4):
                assert corank_of_sample(spec, 21, t) == sample(spec, 21, t).corank()
            stack = sample_stack(spec, [derive_rng(21, t) for t in range(6)])
            singles = [sample_array(spec, derive_rng(21, t)) for t in range(6)]
            assert np.array_equal(stack, np.stack(singles))


def test_extension_field_sampling():
    f4 = field_new(4)
    spec = ModelSpec(kind="symmetric", field=f4, n=4)
    M = sample(spec, 6)
    assert M.is_symmetric()
    assert corank_of_sample(spec, 6, 0) == M.corank()
    # fixed off-diagonal values mirror to their negatives in F_9 (-4 = 8),
    # not to (-v) mod p (which would give 2)
    f9 = field_new(9)
    tf = TypeFSpec(((1, 2), (), (3,)), ((4, 7), (), (5,)))
    spec = ModelSpec(kind="alternating", field=f9, n=4, type_f=tf)
    for t in range(5):
        M = sample(spec, 6, t)
        assert M.is_alternating()
        assert (M.get(1, 0), M.get(2, 0), M.get(3, 2)) == (4, 7, 5)
