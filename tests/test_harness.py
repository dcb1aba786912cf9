import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from fqrank import harness
from fqrank.chain import ChainSpec, enumerate_positive_paths
from fqrank.distributions import limit_square_pmf, tv_distance, uniform_square_pmf
from fqrank._fast import rank_stack
from fqrank.errors import InvalidArgument, InvalidSpec, TooLargeToEnumerate
from fqrank.field import field_new
from fqrank.harness import (_BLOCK_ENTRIES, MCResult, brute_force_pmf,
                            chain_consistency_check, decoupling_suite, fg_sandwich_check,
                            formula_enumeration_check, gl_uniformity_check,
                            mc_corank, mc_limit_check, odlyzko_check,
                            submatrix_fullrank_check, threshold_parseval_check,
                            tv_report, unconc_uniform_suite, zero_diag_count_check)
from fqrank.matrix import FqMatrix
from fqrank import matrix, models
from fqrank.models import (EntryDist, ModelSpec, TypeFSpec, corank_of_sample,
                           derive_rng, near_uniform_dist, ranked_entries,
                           uniform_entry_dist)

F2 = field_new(2)
F3 = field_new(3)
F5 = field_new(5)


def test_brute_force_known_values():
    assert brute_force_pmf(ModelSpec(kind="iid-square", field=F2, n=2)).as_dict() == {
        0: Fraction(6, 16), 1: Fraction(9, 16), 2: Fraction(1, 16)}
    assert brute_force_pmf(ModelSpec(kind="symmetric", field=F2, n=2)).as_dict() == {
        0: Fraction(1, 2), 1: Fraction(3, 8), 2: Fraction(1, 8)}
    assert brute_force_pmf(ModelSpec(kind="alternating", field=F3, n=2)).as_dict() == {
        0: Fraction(2, 3), 2: Fraction(1, 3)}


def test_brute_force_weighted_entries():
    # point mass at 0 everywhere: corank n with probability 1
    zero = EntryDist((Fraction(1), Fraction(0)))
    spec = ModelSpec(kind="iid-square", field=F2, n=2, entries=zero)
    assert brute_force_pmf(spec).as_dict() == {2: Fraction(1)}


def test_brute_force_type_f():
    tf = TypeFSpec(((0, 1), (0, 1)), ((1, 0), (0, 1)))  # fully fixed identity
    spec = ModelSpec(kind="iid-square", field=F2, n=2, type_f=tf)
    assert brute_force_pmf(spec).as_dict() == {0: Fraction(1)}
    # fixed diagonal only: [[1, b], [a, 1]] is singular iff a = b = 1
    tf = TypeFSpec(((0,), (1,)), ((1,), (1,)))
    spec = ModelSpec(kind="iid-square", field=F2, n=2, type_f=tf)
    assert brute_force_pmf(spec).as_dict() == {
        0: Fraction(3, 4), 1: Fraction(1, 4)}


def test_brute_force_overrides_and_type_f_pinned():
    # PMF captured while weights were still multiplied as Fractions
    law = EntryDist((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    spec = ModelSpec(kind="iid-square", field=F3, n=3, entries=law,
                     overrides=((0, 1, EntryDist((Fraction(0), Fraction(2, 5), Fraction(3, 5)))),
                                (2, 2, EntryDist((Fraction(1, 7), Fraction(0), Fraction(6, 7))))),
                     type_f=TypeFSpec(((1,), (2,), ()), ((2,), (0,), ())))
    assert brute_force_pmf(spec).as_dict() == {
        0: Fraction(57, 80), 1: Fraction(179, 630), 2: Fraction(17, 5040)}


def test_brute_force_guard():
    with pytest.raises(TooLargeToEnumerate):
        brute_force_pmf(ModelSpec(kind="iid-square", field=F5, n=5))


def test_brute_force_guard_counts_assignments():
    # a two-point law on F_9: 9^9 ~ 3.9e8 by a count of q^e, but 2^9 = 512
    # assignments, which the guard lets run
    F9 = field_new(9)
    spec = ModelSpec(kind="iid-square", field=F9, n=3, entries=near_uniform_dist(F9, range(2, 9)))
    assert brute_force_pmf(spec).as_dict() == _reference_pmf(spec)
    # 6^9 = 10,077,696 assignments, just above the guard's 10^7
    F7 = field_new(7)
    with pytest.raises(TooLargeToEnumerate, match="more than 10\\^7 assignments"):
        brute_force_pmf(ModelSpec(kind="iid-square", field=F7, n=3,
                                  entries=near_uniform_dist(F7, {0})))


def test_brute_force_walks_more_rows_than_the_recursion_limit():
    # the walk keeps one iterator per row on a list, not one Python frame
    n = sys.getrecursionlimit() + 1
    zero = EntryDist((Fraction(1), Fraction(0)))
    spec = ModelSpec(kind="symmetric", field=F2, n=n, entries=zero)
    assert brute_force_pmf(spec).as_dict() == {n: Fraction(1)}


def _reference_pmf(spec: ModelSpec) -> dict:
    """brute_force_pmf's former enumeration, one assignment of all the free
    cells at a time, each written into the grid and weighted by Fractions;
    the grids are ranked by the vector kernel, which shares no code with
    matrix.insert_row."""
    f, kind = spec.field, spec.kind
    mirror = kind not in ("iid-square", "iid-rect")
    alt = "alternating" in kind
    m0 = spec.planted.rows if kind.startswith("planted") else 0
    rows, cols = spec.shape
    grid = [0] * (rows * cols)
    fixed = spec.type_f.fixed_entries() if spec.type_f else {}
    for (r, c), v in fixed.items():
        grid[r * cols + c] = v
        if mirror:
            grid[c * cols + r] = f.neg(v) if alt else v
    for i, j in product(range(m0), repeat=2):
        grid[i * cols + j] = spec.planted.get(i, j)
    taken = set(fixed) | ({(c, r) for r, c in fixed} if mirror else set())
    positions = [(i, j) for i in range(rows) for j in range(i + alt if mirror else 0, cols)
                 if (i, j) not in taken and not (i < m0 and j < m0)]
    over = {}
    for i, j, d in spec.overrides:
        if mirror and i > j:
            i, j = j, i
            if alt:
                d = EntryDist(tuple(d.probs[f.neg(v)] for v in range(f.q)))
        over[i, j] = d
    dists = [over.get(pos, spec.default_dist()) for pos in positions]
    grids, weights = [], []
    for assignment in product(*[[(v, p) for v, p in enumerate(d.probs) if p] for d in dists]):
        weight = Fraction(1)
        for (i, j), (v, p) in zip(positions, assignment):
            weight *= p
            grid[i * cols + j] = v
            if mirror and i != j:
                grid[j * cols + i] = f.neg(v) if alt else v
        grids.append(list(grid))
        weights.append(weight)
    coranks = rows - rank_stack(np.array(grids).reshape(-1, rows, cols), f.q)
    pmf: dict = {}
    for k, w in zip(coranks.tolist(), weights):
        pmf[k] = pmf.get(k, 0) + w
    return pmf


def _assignments(spec: ModelSpec) -> int:
    """The number of assignments brute_force_pmf enumerates: the product of
    the support sizes of the free cells' laws, read off the spec's own list
    of cell sources."""
    rows, cols = spec.shape
    mirror = spec.kind not in ("iid-square", "iid-rect")
    sources = spec.cell_sources
    sizes = [sum(1 for p in sources.get((i, j), spec.default_dist()).probs if p)
             for i in range(rows) for j in range(i if mirror else 0, cols)
             if not isinstance(sources.get((i, j)), int)]
    return math.prod(sizes)


def _random_law(rnd: random.Random, q: int) -> EntryDist:
    """A law on F_q on 1 to 3 random values (or all of them), with random
    integer masses."""
    support = rnd.sample(range(q), rnd.choice((1, 2, 2, 3, q)) if q > 3 else rnd.randint(1, q))
    masses = {v: rnd.randint(1, 4) for v in support}
    total = sum(masses.values())
    return EntryDist(tuple(Fraction(masses.get(v, 0), total) for v in range(q)))


def _brute_force_grid() -> list[ModelSpec]:
    """Three seeded random specs of at most 2000 assignments for each
    non-GL kind and each q in {2, 3, 4, 5, 9} (odd q on alternating kinds):
    default laws or not, overrides anywhere, F with and without values, and
    planted corners.  A draw that ModelSpec refuses, or that has more
    assignments, is drawn again."""
    rnd = random.Random(29)
    specs = []
    for kind in ("iid-square", "iid-rect", "symmetric", "alternating",
                 "planted-symmetric", "planted-alternating"):
        for q in (2, 3, 4, 5, 9):
            if "alternating" in kind and q % 2 == 0:
                continue
            f = field_new(q)
            drawn = 0
            while drawn < 3:
                n = rnd.choice((1, 2) if kind == "iid-rect" else (2, 3, 3, 4, 4))
                m = rnd.randint(0, 2) if kind == "iid-rect" else 0
                rows, cols = n, n + m
                planted = None
                if kind.startswith("planted"):
                    m0 = rnd.randint(1, n)
                    planted = FqMatrix.from_rows(f, [[rnd.randrange(q) for _ in range(m0)]
                                                     for _ in range(m0)])
                overrides = tuple((rnd.randrange(rows), rnd.randrange(cols), _random_law(rnd, q))
                                  for _ in range(rnd.randint(0, 3)))
                type_f = None
                if rnd.random() < 0.6:
                    sets = tuple(tuple(sorted(rnd.sample(range(rows), rnd.randint(0, 2) % (rows + 1))))
                                 for _ in range(cols))
                    values = (tuple(tuple(rnd.randrange(q) for _ in s) for s in sets)
                              if rnd.random() < 0.5 else None)
                    type_f = TypeFSpec(sets, values)
                entries = (_random_law(rnd, q) if planted is None and rnd.random() < 0.7
                           else None)
                try:
                    spec = ModelSpec(kind=kind, field=f, n=n, m=m, entries=entries,
                                     overrides=overrides, type_f=type_f, planted=planted)
                except InvalidSpec:
                    continue
                if _assignments(spec) <= 2000:
                    specs.append(spec)
                    drawn += 1
    return specs


def test_brute_force_matches_the_reference_enumeration():
    specs = _brute_force_grid()
    # what the grid covers: every kind and q, overrides on either side of
    # the diagonal of a mirrored kind, F with and without values, and
    # alternating kinds large enough for a symmetric mirror to differ
    assert {(s.kind, s.field.q) for s in specs} == {
        (k, q) for k in ("iid-square", "iid-rect", "symmetric", "alternating",
                         "planted-symmetric", "planted-alternating")
        for q in (2, 3, 4, 5, 9) if q % 2 or "alternating" not in k}
    for alt in (False, True):
        mirrored = [s for s in specs if s.kind.endswith("symmetric") != alt
                    and s.kind not in ("iid-square", "iid-rect")]
        assert any(i < j for s in mirrored for i, j, _ in s.overrides)
        assert any(i > j for s in mirrored for i, j, _ in s.overrides)
        assert any(s.n >= 3 and s.overrides and s.type_f for s in mirrored)
    assert any(s.type_f and s.type_f.values for s in specs)
    assert any(s.type_f and not s.type_f.values for s in specs)
    assert any(s.kind == "iid-rect" and s.m == 2 for s in specs)
    for spec in specs:
        assert brute_force_pmf(spec).as_dict() == _reference_pmf(spec), spec.to_json()


def _one_row_specs() -> list[ModelSpec]:
    """Every one-row spec of a small grid that ModelSpec accepts: n = 1 for
    each non-GL kind, iid-rect with m = 0, 1 and 2, and the planted kinds'
    1 x 1 corner; without F, with F on the first cell (fixed to 0 or to a
    value) or on the last, and with or without an override of the last
    cell, over the default law and a non-uniform one."""
    specs = []
    for q in (3, 4, 5):
        f = field_new(q)
        law = EntryDist(tuple(Fraction(v + 1, q * (q + 1) // 2) for v in range(q)))
        for kind, m in product(("iid-square", "iid-rect", "symmetric", "alternating",
                                "planted-symmetric", "planted-alternating"), (0, 1, 2)):
            if (m and kind != "iid-rect") or ("alternating" in kind and q % 2 == 0):
                continue
            cols = 1 + m
            planted = (FqMatrix.from_rows(f, [[0 if "alternating" in kind else q - 1]])
                       if kind.startswith("planted") else None)
            first = ((0,),) + ((),) * m
            last = ((),) * m + ((0,),)
            for type_f, over, entries in product(
                    (None, TypeFSpec(first), TypeFSpec(first, ((1,),) + ((),) * m),
                     TypeFSpec(last, ((),) * m + ((q - 1,),))),
                    ((), ((0, cols - 1, near_uniform_dist(f, {1})),)),
                    (None,) if planted else (None, law)):
                try:
                    specs.append(ModelSpec(kind=kind, field=f, n=1, m=m, type_f=type_f,
                                           overrides=over, entries=entries, planted=planted))
                except InvalidSpec:
                    continue  # a second source for one cell, or F in the corner
    return specs


def test_brute_force_one_row_specs_match_the_reference_enumeration():
    # a one-row spec closes its last row once, without walking a prefix
    specs = _one_row_specs()
    assert {s.kind for s in specs} == {"iid-square", "iid-rect", "symmetric", "alternating",
                                       "planted-symmetric", "planted-alternating"}
    assert {s.m for s in specs if s.kind == "iid-rect"} == {0, 1, 2}
    # F and an override together where the one row has room for both; a 1 x 1
    # corner leaves no free cell for either, so ModelSpec refuses them there
    for kind in ("iid-square", "iid-rect", "symmetric"):
        assert any(s.kind == kind and s.type_f and s.type_f.values for s in specs)
        assert any(s.kind == kind and s.overrides for s in specs)
    assert any(s.kind == "iid-rect" and s.type_f and s.overrides for s in specs)
    assert any(s.kind == "alternating" and s.type_f for s in specs)
    for spec in specs:
        assert brute_force_pmf(spec).as_dict() == _reference_pmf(spec), spec.to_json()


def test_mc_corank_concentrates():
    spec = ModelSpec(kind="iid-square", field=F2, n=2)
    res = mc_corank(spec, 20000, seed=3)
    assert sum(res.counts.values()) == res.trials == 20000
    # 4 sigma around the exact 9/16
    sigma = (9 / 16 * 7 / 16 / 20000) ** 0.5
    assert abs(res.counts.get(1, 0) / 20000 - 9 / 16) < 4 * sigma


def _constrained_specs():
    """Specs that exercise overrides, fixed entries, mirroring and planted
    corners separately."""
    def point(f, v):
        return EntryDist(tuple(Fraction(int(x == v)) for x in range(f.q)))

    F4 = field_new(4)
    return [
        # nonzero fixed values on mirrored kinds
        ModelSpec(kind="symmetric", field=F2, n=3,
                  type_f=TypeFSpec(((1,), (), (1,)), ((1,), (), (1,)))),
        ModelSpec(kind="symmetric", field=F3, n=3, entries=near_uniform_dist(F3, {0}),
                  type_f=TypeFSpec(((1,), (), (0,)), ((2,), (), (1,)))),
        # overrides of mirrored cells, given below the diagonal
        ModelSpec(kind="symmetric", field=F4, n=3,
                  overrides=((2, 0, point(F4, 0)), (1, 0, point(F4, 0))),
                  type_f=TypeFSpec(((), (), (1,)), ((), (), (3,)))),
        # alternating with fixed entries and an override (n = 4: at n = 3
        # these constraints leave corank 1 certain)
        ModelSpec(kind="alternating", field=F3, n=4,
                  overrides=((2, 1, point(F3, 1)),),
                  type_f=TypeFSpec(((1,), (), ()), ((2,), (), ()))),
        # planted corners with fixed entries and overrides outside the corner
        ModelSpec(kind="planted-symmetric", field=F3, n=3,
                  planted=FqMatrix.from_rows(F3, [[1, 2], [2, 1]]),
                  overrides=((2, 2, near_uniform_dist(F3, {0})),),
                  type_f=TypeFSpec(((2,), (), ()), ((1,), (), ()))),
        ModelSpec(kind="planted-alternating", field=F3, n=4,
                  planted=FqMatrix.from_rows(F3, [[0, 1], [2, 0]]),
                  overrides=((1, 2, point(F3, 1)),),
                  type_f=TypeFSpec(((2,), (), ()), ((1,), (), ()))),
    ]


def test_override_below_alternating_diagonal_oracle_and_sampler():
    # Pf = a01 a23 - a02 a13 + a03 a12 with a23 = a02 = a13 = 1 and a03 = 0:
    # a10 = 1 puts a01 = 2, so Pf = 1 and corank 0; read at (0, 1) unnegated,
    # a01 = 1 would give Pf = 0 and corank 2
    spec = ModelSpec(kind="alternating", field=F3, n=4,
                     overrides=((1, 0, EntryDist((Fraction(0), Fraction(1), Fraction(0)))),),
                     type_f=TypeFSpec(((), (), (0,), (0, 1, 2)), ((), (), (1,), (0, 1, 1))))
    assert brute_force_pmf(spec).as_dict() == {0: Fraction(1)}
    assert mc_corank(spec, 200, seed=2).counts == {0: 200}


def test_brute_force_constrained_specs_pinned():
    # PMFs captured while the free cells were listed by a separate helper
    expected = [
        {0: Fraction(1, 2), 1: Fraction(7, 16), 2: Fraction(1, 16)},
        {0: Fraction(1, 2), 1: Fraction(3, 8), 2: Fraction(1, 8)},
        {0: Fraction(39, 64), 1: Fraction(11, 32), 2: Fraction(3, 64)},
        {0: Fraction(2, 3), 2: Fraction(1, 3)},
        {0: Fraction(2, 3), 1: Fraction(1, 6), 2: Fraction(1, 6)},
        {0: Fraction(2, 3), 2: Fraction(1, 3)},
    ]
    for spec, pmf in zip(_constrained_specs(), expected, strict=True):
        assert brute_force_pmf(spec).as_dict() == pmf, spec.kind


def test_mc_corank_matches_brute_force_on_constrained_specs():
    # the sampler against the independent enumerator where they apply
    # overrides, fixed entries, mirroring and planted corners separately;
    # a fixed tolerance of twice the harness noise floor (99% half-widths)
    for i, spec in enumerate(_constrained_specs()):
        res = mc_corank(spec, 4000, seed=40 + i)
        tv, _ = tv_distance(res.empirical, brute_force_pmf(spec))
        assert float(tv) <= 2 * res.noise_floor(), (spec.kind, float(tv), res.noise_floor())


def test_mc_corank_parallel_matches_serial():
    # blocks of trials give the counts of one trial at a time, also when
    # the run ends in a partial block
    for q in (3, 4):
        for n in (3, 128):
            spec = ModelSpec(kind="symmetric", field=field_new(q), n=n)
            block = _BLOCK_ENTRIES // n**2
            trials = min(500, 2 * block + 5)
            assert trials % block
            expected = Counter(corank_of_sample(spec, 5, t) for t in range(trials))
            for threads in (1, 3):
                assert mc_corank(spec, trials, seed=5, threads=threads).counts == expected


def test_mc_corank_gl_counts_do_not_depend_on_blocks(monkeypatch):
    # GL blocks are sized by the k n x n candidates a trial ranks (k = 3 at
    # q = 2, n = 40); counts match one trial at a time for any worker count
    # and block size
    specs = (ModelSpec(kind="gl-corner", field=F2, n=40, n_prime=20),
             ModelSpec(kind="gl-minus-identity", field=field_new(7), n=40))
    assert [ranked_entries(s) for s in specs] == [3 * 1600, 1600]
    expected = {}
    for spec in specs:
        trials = 2 * harness._block_size(ranked_entries(spec)) + 5
        expected[spec] = [corank_of_sample(spec, 6, t) for t in range(trials)]
        for threads in (1, 3):
            assert mc_corank(spec, trials, seed=6, threads=threads).counts == \
                Counter(expected[spec])
    ranked = []
    rank_stack = models.rank_stack
    monkeypatch.setattr(models, "rank_stack",
                        lambda m, q: ranked.append(m.size) or rank_stack(m, q))
    monkeypatch.setattr(harness, "_BLOCK_ENTRIES", 5000)  # one trial a block
    for spec in specs:
        assert mc_corank(spec, 30, seed=6).counts == Counter(expected[spec][:30])
    assert max(ranked) <= 4800


@pytest.mark.parametrize("trials", [2.5, True, 3.0, "3", None, 0, -1])
def test_mc_corank_refuses_trials_that_are_not_an_integer(trials):
    spec = ModelSpec(kind="iid-square", field=F3, n=2)
    with pytest.raises(InvalidArgument, match="trials must be an integer >= 1"):
        mc_corank(spec, trials, 1)


def test_mc_corank_one_block_stays_serial(monkeypatch):
    class PoolStarted(Exception):
        pass

    def no_pool(*args, **kwargs):
        raise PoolStarted

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    spec = ModelSpec(kind="iid-square", field=field_new(4), n=10)  # blocks of 2,621
    expected = Counter(corank_of_sample(spec, 1, t) for t in range(400))
    assert mc_corank(spec, 400, seed=1, threads=3).counts == expected
    spec = ModelSpec(kind="symmetric", field=F3, n=128)  # blocks of 16
    with pytest.raises(PoolStarted):
        mc_corank(spec, 17, seed=1, threads=3)


@pytest.mark.parametrize("threads", [2.5, "2", True, 0, -3])
def test_mc_corank_refuses_bad_threads(threads):
    spec = ModelSpec(kind="iid-square", field=F3, n=200)  # 4 blocks
    with pytest.raises(InvalidArgument, match="threads must be an integer >= 1"):
        mc_corank(spec, 20, seed=1, threads=threads)


def test_mc_limit_check_parity(monkeypatch):
    spec = ModelSpec(kind="alternating", field=F3, n=7)
    rep = mc_limit_check(spec, 2000, seed=4, threshold=0.05)
    assert rep.passed and rep.computed["parity_ok"]
    assert rep.claim_id == "mc-limit-alternating-n7-q3"
    # one even corank fails an odd-n alternating law whatever the TV
    monkeypatch.setattr(harness, "mc_corank", lambda spec, trials, seed:
                        MCResult.from_counts({1: 1999, 2: 1}, trials, seed))
    rep = mc_limit_check(spec, 2000, seed=4, threshold=1.0)
    assert not rep.passed and not rep.computed["parity_ok"]


def test_fg_sandwich_square_example():
    rep = fg_sandwich_check("square", 6, F2)
    assert rep.passed
    lower = Fraction(1, 8 * 2**7)
    upper = Fraction(3, 2**7)
    assert lower <= rep.computed["tv"] <= upper


def test_fg_sandwich_all_kinds():
    assert fg_sandwich_check("rect", 5, F3, m=2).passed
    assert fg_sandwich_check("symmetric", 5, F3).passed
    assert fg_sandwich_check("alternating", 6, F3).passed
    assert fg_sandwich_check("alternating", 5, F3).passed


def test_formula_enumeration_checks():
    assert formula_enumeration_check("iid-square", 2, F3).passed
    assert formula_enumeration_check("iid-rect", 2, F2, m=1).passed
    assert formula_enumeration_check("symmetric", 3, F2).passed
    assert formula_enumeration_check("alternating", 3, F3).passed
    F4 = field_new(4)
    for n in (1, 2):
        assert formula_enumeration_check("iid-square", n, F4).passed
    for n in (1, 2, 3):
        assert formula_enumeration_check("symmetric", n, F4).passed
    assert formula_enumeration_check("iid-rect", 2, F4, m=1).passed


def test_chain_consistency_checks():
    assert chain_consistency_check("symmetric", 5, F2).passed
    assert chain_consistency_check("alternating", 5, F3).passed
    assert chain_consistency_check("iid-column", 5, F2).passed


def test_odlyzko_trivial_and_uniform():
    d = uniform_entry_dist(F5)
    rep = odlyzko_check(5, 0, 0, d, 200, seed=2, f=F5)
    assert rep.passed  # d = 0: bound >= 1
    rep = odlyzko_check(6, 3, 0, d, 2000, seed=2, f=F5)
    assert rep.passed


def test_odlyzko_gate_point():
    # the point `fqrank verify gl` runs; its bases take k = 1 candidate a call,
    # so the draws are those of one candidate per round
    rep = odlyzko_check(6, 3, 0, uniform_entry_dist(F5), 4000, 15, F5)
    assert rep.computed["empirical"] == Fraction(37, 4000)


def _rank(f, a) -> int:
    return FqMatrix(f, a.shape[0], a.shape[1], tuple(a.ravel().tolist())).rank()


def test_odlyzko_blocks_match_per_trial_replay(monkeypatch):
    # a small block size puts block boundaries inside the run
    monkeypatch.setattr(harness, "_BLOCK_ENTRIES", 40)
    trials, seed = 60, 9
    for q in (4, 5):
        f = field_new(q)
        dist = near_uniform_dist(f, {1})
        for n, d, k_bad in ((4, 0, 0), (4, 2, 1), (4, 4, 0), (5, 3, 2)):
            hits = 0
            for t in range(trials):
                rng = derive_rng(seed, t)
                while True:
                    basis = rng.integers(0, q, size=(n, n - d))
                    if _rank(f, basis) == n - d:
                        break
                x = dist.lookup(rng.integers(0, dist.denominator, size=n))
                x[:k_bad] = 0
                hits += _rank(f, np.concatenate([basis, x[:, None]], axis=1)) == n - d
            rep = odlyzko_check(n, d, k_bad, dist, trials, seed, f)
            assert rep.computed["empirical"] == Fraction(hits, trials)


_U3 = uniform_entry_dist(F3)


@pytest.mark.parametrize("call", [
    lambda: odlyzko_check(3, -1, 0, _U3, 20, 1, F3),  # cols > rows: never full rank
    lambda: odlyzko_check(3, 4, 0, _U3, 20, 1, F3),  # d = n + 1
    lambda: odlyzko_check(3, 5, 0, _U3, 20, 1, F3),  # d >= n + 2
    lambda: odlyzko_check(0, 0, 0, _U3, 20, 1, F3),
    lambda: odlyzko_check(4, 2, -2, _U3, 20, 1, F3),
    lambda: odlyzko_check(3, 1, 4, _U3, 20, 1, F3),
    lambda: odlyzko_check(3, 1.0, 0, _U3, 20, 1, F3),
    lambda: odlyzko_check(3, 1, 0, _U3, 0, 1, F3),
    lambda: odlyzko_check(3, 1, 0, _U3, -5, 1, F3),
    lambda: submatrix_fullrank_check(3, 2, 5, 20, 1, F3),  # l > n
    lambda: submatrix_fullrank_check(3, 4, 4, 20, 1, F3),  # k > n
    lambda: submatrix_fullrank_check(4, 3, 2, 20, 1, F3),  # k > l
    lambda: submatrix_fullrank_check(3, 0, 2, 20, 1, F3),
    lambda: submatrix_fullrank_check(3, -1, 2, 20, 1, F3),
    lambda: submatrix_fullrank_check(3, 1, 2, 0, 1, F3),
    lambda: submatrix_fullrank_check(3, 1, 2, 2.5, 1, F3),
    lambda: models.candidates_per_call(2, 3, 2),
], ids=["odlyzko-d-1", "odlyzko-d-n+1", "odlyzko-d-n+2", "odlyzko-n0", "odlyzko-kbad-2",
        "odlyzko-kbad-n+1", "odlyzko-float-d", "odlyzko-trials0", "odlyzko-trials-5",
        "submatrix-l-n+2", "submatrix-k-n+1", "submatrix-k-l+1", "submatrix-k0",
        "submatrix-k-1", "submatrix-trials0", "submatrix-float-trials",
        "candidates-cols-rows+1"])
def test_gl_subspace_checks_refuse_what_they_cannot_check(call):
    with pytest.raises(InvalidArgument):
        call()


def test_exact_bounds_hold_the_whole_interval(monkeypatch):
    # a TV above the upper sandwich bound by less than its error bar: the
    # interval crosses the bound, so the check cannot certify it
    upper = Fraction(3, 2**7)
    monkeypatch.setattr(harness, "tv_distance",
                        lambda a, b: (upper + Fraction(5, 10**22), Fraction(1, 10**21)))
    rep = fg_sandwich_check("square", 6, F2)
    assert rep.bounds == {"lower": Fraction(1, 2**10), "upper": upper}
    assert not rep.passed


def test_chain_bounds_take_negative_exponents():
    # m0 = 5 above s = 2 (and n // 2 = 3): both bounds are vacuous, not a TypeError
    rep = harness.planted_tv_check("symmetric", 5, 2, F3)
    assert rep.passed and rep.bounds == {"upper": Fraction(3**3 * 3**2)}
    rep = harness.hit_zero_bound_check("symmetric", 5, 2, F3)
    assert rep.passed and rep.bounds == {"lower": 1 - Fraction(3**2 * 3**3)}
    assert rep.notes == "bound is vacuous (nonpositive) and trivially holds"


def test_zero_diag_counts():
    rep = zero_diag_count_check(2, F2)
    assert rep.passed
    assert rep.computed["direct"] == rep.computed["smaller_full_rank"] == 1
    rep = zero_diag_count_check(3, F3)
    assert rep.passed
    assert rep.computed["direct"] == 8


def test_zero_diag_guard_counts_off_diagonal_assignments():
    # q^(n(n-1)/2) assignments: 467 and 23^3; q^(n(n+1)/2) would exceed 10^8
    assert zero_diag_count_check(2, field_new(467)).passed
    assert zero_diag_count_check(3, field_new(23)).passed
    with pytest.raises(TooLargeToEnumerate):
        zero_diag_count_check(3, field_new(223))


def test_zero_diag_even_n_checks_the_identity(monkeypatch):
    # both routes share matrix.insert_row, route one through brute_force_pmf's
    # walk and route two through rank_rows: a rank capped at 3 makes them agree
    # on 0 full-rank 4 x 4 matrices, and the closed-form size 3 count of 28
    # catches it
    insert_row = matrix.insert_row
    def capped(ech, row, f):
        return len(ech) < 3 and insert_row(ech, row, f)

    monkeypatch.setattr(matrix, "insert_row", capped)
    monkeypatch.setattr(harness, "insert_row", capped)
    rep = zero_diag_count_check(4, F2)
    assert rep.computed == {"via_type_f": 0, "direct": 0, "smaller_full_rank": 28}
    assert not rep.passed
    # odd n keep the two-route rule: their counts differ from the size n-1 count
    rep = zero_diag_count_check(3, F3)
    assert rep.passed and rep.computed["smaller_full_rank"] == 18


def test_gl_subspace_checks_pass():
    reports = list(harness.CHECKS["gl-subspaces"].run())
    assert [r.claim_id for r in reports] == [
        "submatrix-fullrank-n8-k3-l6-q2", "submatrix-fullrank-n6-k2-l2-q3",
        "odlyzko-n6-d3-kbad0-q5"]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("raw", ["abc", "", "0", "-3"])
def test_worker_count_refuses_bad_thread_counts(monkeypatch, raw):
    monkeypatch.setenv("FQRANK_THREADS", raw)
    with pytest.raises(InvalidArgument):
        harness.worker_count()


def test_worker_count_reads_thread_count(monkeypatch):
    monkeypatch.delenv("FQRANK_THREADS", raising=False)
    assert harness.worker_count() == 1
    monkeypatch.setenv("FQRANK_THREADS", "3")
    assert harness.worker_count() == 3


def test_submatrix_fullrank():
    # k = l = n: columns of an invertible matrix are independent
    rep = submatrix_fullrank_check(4, 4, 4, 200, seed=1, f=F3)
    assert rep.passed and rep.computed["empirical"] == 1
    # vacuous bound
    rep = submatrix_fullrank_check(6, 2, 2, 200, seed=1, f=F3)
    assert rep.passed and rep.bounds["bound"] < 0


def test_tv_report_same_law():
    spec = ModelSpec(kind="iid-square", field=F2, n=2)
    res = mc_corank(spec, 50000, seed=9)
    rep = tv_report(res, uniform_square_pmf(2, F2), threshold=None)
    assert float(rep.computed["tv"]) <= 3 * rep.computed["noise_floor"]


def test_tv_report_upper_confidence_bound():
    res = MCResult.from_counts({0: 700, 1: 300}, 1000, 0)
    rep = tv_report(res, uniform_square_pmf(1, F2))  # P(corank 0) = 1/2
    delta = rep.bounds["ucb_delta"]
    assert delta == 1e-3 and rep.computed["tv"] == Fraction(1, 5)
    dev = (np.log(1 / delta) / 2000) ** 0.5
    assert 0.2 + dev < rep.computed["tv_ucb"] < 0.2 + dev + 1e-9


@pytest.mark.parametrize("q, expected", [(101, 0.0100), (7, 0.1632)])
def test_tv_report_point_mass_power(q, expected):
    """point_mass_tv is 1 minus the reference's largest mass: the TV of a run
    with every trial at the likeliest corank, up to the reference's tail."""
    ref = limit_square_pmf(field_new(q))
    rep = tv_report(MCResult.from_counts({0: 1000}, 1000, 0), ref, threshold=0.02)
    point = rep.computed["point_mass_tv"]
    assert point == 1 - ref.mass(0) == rep.computed["tv"] + rep.computed["tv_err"]
    assert round(float(point), 4) == expected
    assert rep.passed == (expected <= 0.02)


@pytest.mark.parametrize("group, expected", [("gl-minus-identity", 0.1632),
                                             ("gl-corner", 0.2397)])
def test_gl_limit_checks_fail_a_point_mass(monkeypatch, group, expected):
    """Negative control for criteria 5 and 6: the gate's check, with its
    trials, seed and threshold, fails a sampler that puts every trial at
    corank 0."""
    monkeypatch.setattr(harness, "mc_corank", lambda spec, trials, seed:
                        MCResult.from_counts({0: trials}, trials, seed))
    (rep,) = harness.CHECKS[group].run()
    assert rep.computed["trials"] == 20000 and rep.bounds["threshold"] == 0.02
    assert round(float(rep.computed["tv"]), 4) == expected
    assert rep.passed is False


def test_gl_uniformity_small():
    rep = gl_uniformity_check(2, F2, 6000, seed=17)
    assert rep.computed["cells"] == rep.bounds["cells"] == 6
    assert rep.computed["expected_per_cell"] == 1000 and rep.bounds["expected_min"] == 5
    assert rep.passed


def test_gl_uniformity_fails_on_too_few_draws_a_cell():
    # 10 draws over GL_4(F_2)'s 20,160 cells passed before the floor of 5
    # expected draws a cell, below which the chi-square law does not hold
    rep = gl_uniformity_check(4, F2, 10, seed=1)
    assert rep.computed["cells"] == 20160 and rep.computed["singular"] == 0
    assert rep.computed["expected_per_cell"] == 10 / 20160
    assert rep.passed is False


@pytest.mark.parametrize("n, q, trials, error", [
    (2, 2, -5, InvalidArgument), (2, 2, 0, InvalidArgument), (2, 2, 2.5, InvalidArgument),
    (2.0, 2, 100, InvalidArgument), (True, 2, 100, InvalidArgument),
    (0, 2, 100, InvalidArgument), (-1, 2, 100, InvalidArgument),
    (5, 2, 100, TooLargeToEnumerate),  # 2^25 cells
    (4, 3, 100, TooLargeToEnumerate),  # 3^16
    (3, 7, 100, TooLargeToEnumerate),  # 7^9
    (10**9, 2, 100, TooLargeToEnumerate),
])
def test_gl_uniformity_check_refuses_what_it_cannot_check(n, q, trials, error):
    # trials=-5 passed with chi_square -5.0, trials=0 gave NaN, n=2.0 a bare
    # TypeError; a grid past brute_force_pmf's 10^7 guard is refused unranked
    with pytest.raises(error):
        gl_uniformity_check(n, field_new(q), trials, seed=1)


def test_gl_uniformity_fails_unrejected_draws(monkeypatch):
    """Negative control for criterion 4: the gate's check, with its trials
    and seeds, fails uniform n x n draws that skip the rejection step."""
    def unrejected(spec, seed, start, stop):
        rng = np.random.default_rng(seed)
        yield rng.integers(0, spec.field.q, size=(stop - start, *spec.shape))

    monkeypatch.setattr(harness, "_blocks", unrejected)
    reports = list(harness.CHECKS["gl-uniformity"].run())
    assert [r.computed["trials"] for r in reports] == [60000, 100000]
    for rep in reports:
        assert rep.computed["singular"] > 0
        assert rep.passed is False


@pytest.mark.parametrize("kind, q", [("symmetric", 2), ("symmetric", 3), ("alternating", 3)])
def test_path_claim_max_is_the_plain_max(kind, q):
    # criterion 9's 12-step points compare each distinct Fraction once
    f = field_new(q)
    rep = harness.path_claim_check(kind, 4, 12, f)
    paths = enumerate_positive_paths(ChainSpec(kind, f), 4, 12)
    assert rep.computed["max_prob"] == max(p for _, p in paths)


def test_structure_suites():
    assert unconc_uniform_suite(25, seed=1).passed
    assert decoupling_suite(15, seed=2).passed
    assert threshold_parseval_check(13).passed


def test_report_serializes():
    rep = fg_sandwich_check("square", 4, F2)
    text = json.dumps(rep.to_dict())
    assert "fg-sandwich-square-n4-q2" in text


def test_registry_times_each_report():
    reports = list(harness.CHECKS["zero-diag-count"].run())
    assert len(reports) == 4
    assert all(r.runtime > 0 for r in reports)
    # the check functions read no clock: a direct call leaves the default
    assert zero_diag_count_check(2, F2).runtime == 0.0


def test_near_uniform_mc_against_limit():
    d = near_uniform_dist(F5, {4})
    spec = ModelSpec(kind="iid-square", field=F5, n=12, entries=d)
    res = mc_corank(spec, 3000, seed=23)
    tv, _ = tv_distance(res.empirical, limit_square_pmf(F5, Fraction(1, 10**12)))
    assert float(tv) < 0.05
