import gc
import itertools
from fractions import Fraction

import pytest

from fqrank import chain
from fqrank.chain import (ChainSpec, delta_pmf, enumerate_positive_paths,
                          evolve, hit_zero_prob, most_likely_positive_path,
                          path_probability, planted_pmf, transition)
from fqrank.distributions import (CorankPMF, limit_rect_pmf, limit_sym_pmf, uniform_alt_pmf,
                                  uniform_rect_pmf, uniform_sym_pmf, uniform_square_pmf)
from fqrank.errors import EvenCharacteristic, InvalidArgument
from fqrank.field import field_new

F2 = field_new(2)
F3 = field_new(3)


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec("nope", F3)
    with pytest.raises(EvenCharacteristic):
        ChainSpec("alternating", F2)
    with pytest.raises(ValueError):
        ChainSpec("iid-column", F3)  # missing n


@pytest.mark.parametrize("kind", ["symmetric", "alternating"])
@pytest.mark.parametrize("n", [0, 5])
def test_chain_spec_refuses_an_n_it_would_ignore(kind, n):
    """Only the iid-column chain reads n; a symmetric or alternating spec
    given one would run a chain its caller did not ask for."""
    with pytest.raises(InvalidArgument, match="iid-column"):
        ChainSpec(kind, F3, n=n)
    assert ChainSpec(kind, F3).n is None


def test_transition_known_values():
    assert transition("symmetric", 0, F2) == (0, Fraction(1, 2), Fraction(1, 2))
    assert transition("alternating", 0, F3) == (0, 0, 1)
    assert transition("symmetric", 1, F3) == (
        Fraction(2, 3), Fraction(2, 9), Fraction(1, 9))


def test_transitions_sum_to_one():
    for kind in ("symmetric", "alternating", "iid-column"):
        for k in range(5):
            down, stay, up = transition(kind, k, F3)
            assert down + stay + up == 1
            if k == 0:
                assert down == 0


def test_evolve_matches_closed_forms():
    for q in (2, 3):
        f = field_new(q)
        for n in (1, 3, 5):
            sym = evolve(ChainSpec("symmetric", f), delta_pmf(0), n)
            assert sym.as_dict() == uniform_sym_pmf(n, f).as_dict()
            iid = evolve(ChainSpec("iid-column", f, n=n), delta_pmf(0), n)
            assert iid.as_dict() == uniform_square_pmf(n, f).as_dict()
            if q % 2:
                alt = evolve(ChainSpec("alternating", f), delta_pmf(0), n)
                assert alt.as_dict() == uniform_alt_pmf(n, f).as_dict()


def test_iid_column_two_steps_example():
    pmf = evolve(ChainSpec("iid-column", F2, n=2), delta_pmf(0), 2)
    assert pmf.as_dict() == {0: Fraction(6, 16), 1: Fraction(9, 16), 2: Fraction(1, 16)}


def test_hit_zero_prob():
    spec = ChainSpec("symmetric", F3)
    assert hit_zero_prob(spec, 0, 0) == 1
    p4 = hit_zero_prob(spec, 2, 4)
    p8 = hit_zero_prob(spec, 2, 8)
    assert 0 < p4 < p8 < 1  # monotone in steps
    # one step from corank 1: exactly the down probability
    assert hit_zero_prob(spec, 1, 1) == Fraction(2, 3)


def test_path_probability():
    spec = ChainSpec("symmetric", F3)
    assert path_probability(spec, [2, 1, 0]) == \
        Fraction(8, 9) * Fraction(2, 3)
    assert path_probability(spec, [2, 0]) == 0  # jumps of 2 impossible
    # the alternating corank never stays, the iid-column codimension never rises
    assert path_probability(ChainSpec("alternating", F3), [2, 1, 1]) == 0
    assert path_probability(ChainSpec("iid-column", F3, n=3), [1, 2]) == 0
    # no coranks, or a negative one, is no path at all
    for path in ([], [-1], [2, 1, 0, -1]):
        with pytest.raises(InvalidArgument):
            path_probability(spec, path)


def test_most_likely_path_matches_enumeration():
    for kind, q in (("symmetric", 2), ("symmetric", 3), ("alternating", 3)):
        spec = ChainSpec(kind, field_new(q))
        for x0 in (1, 2, 3):
            for steps in (2, 5, 6):
                path, prob = most_likely_positive_path(spec, x0, steps)
                assert len(path) == steps + 1
                assert path_probability(spec, path) == prob
                best = max(p for _, p in enumerate_positive_paths(spec, x0, steps))
                assert prob == best


def test_enumerate_positive_paths_equals_brute_force():
    """Every step sequence over (-1, 0, +1), in lexicographic order (down,
    stay, up), whose path stays positive and whose product of transition()
    probabilities is nonzero."""
    cases = [ChainSpec("symmetric", field_new(q)) for q in (2, 3, 5)]
    cases += [ChainSpec("alternating", F3), ChainSpec("iid-column", F3, n=4)]
    for spec in cases:
        for x0 in range(1, 5):
            for steps in (0, 1, 2, 3, 4, 5, 6, 7):
                expected = []
                for moves in itertools.product((-1, 0, 1), repeat=steps):
                    path = tuple(itertools.accumulate(moves, initial=x0))
                    if min(path) < 1:
                        continue
                    prob = Fraction(1)
                    for k, d in zip(path, moves):
                        prob *= transition(spec.kind, k, spec.field)[d + 1]
                    if prob:
                        expected.append((path, prob))
                assert enumerate_positive_paths(spec, x0, steps) == expected


def _reference_positive_paths(spec, x0, steps):
    """The depth-first recursion the head x tail enumeration replaced: an
    integer weight per path over D = q^(x0+steps+1), one Fraction per weight."""
    D = spec.field.q ** (x0 + steps + 1)
    weights = {k: tuple((k2, (p * D).numerator)
                        for k2, p in chain._moves(spec.kind, k, spec.field) if k2 >= 1)
               for k in range(1, x0 + steps + 1)}
    probs, out = {}, []

    def rec(path, weight):
        if len(path) > steps:
            out.append((path, probs.setdefault(weight, Fraction(weight, D**steps))))
            return
        for k2, w in weights[path[-1]]:
            rec(path + (k2,), weight * w)

    rec((x0,), 1)
    return out


def test_enumerate_positive_paths_pins_gate_output():
    """Every criterion-9 gate point up to 9 steps equals the reference
    recursion; the 12-step point shares one Fraction per distinct weight."""
    for kind, q in (("symmetric", 2), ("symmetric", 3), ("alternating", 3)):
        spec = ChainSpec(kind, field_new(q))
        for x0 in (1, 2, 3, 4):
            for steps in (3, 6, 9):
                assert (enumerate_positive_paths(spec, x0, steps)
                        == _reference_positive_paths(spec, x0, steps))
    paths = enumerate_positive_paths(ChainSpec("symmetric", F3), 4, 12)
    assert len(paths) == 444_315
    assert len({id(p) for _, p in paths}) == 14_083


def test_enumerate_positive_paths_keeps_collector_state():
    spec = ChainSpec("symmetric", F3)
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert enumerate_positive_paths(spec, 2, 5)
            assert gc.isenabled() is enabled
            with pytest.raises(InvalidArgument):
                enumerate_positive_paths(spec, 0, 5)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_enumerate_positive_paths_refuses_inexact_weight(monkeypatch):
    """A move probability that is not an integer over q^(x0+steps+1) is
    refused by an explicit raise, which python -O keeps."""
    monkeypatch.setattr(chain, "_moves",
                        lambda kind, k, f: ((k - 1, Fraction(1, 7)), (k, Fraction(6, 7))))
    with pytest.raises(AssertionError, match="not an integer weight over q"):
        enumerate_positive_paths(ChainSpec("symmetric", F3), 2, 3)


def _viterbi_max(spec, x0, steps, floor):
    """Largest probability of a strictly positive path of at least floor: a
    max-product DP over (step, corank >= 1) on transition() alone.  No move
    has probability above 1, so a prefix below floor is left out."""
    best = {x0: Fraction(1)}
    for _ in range(steps):
        nxt = {}
        for k, prob in best.items():
            for k2, move in zip((k - 1, k, k + 1), transition(spec.kind, k, spec.field)):
                p = prob * move
                if k2 >= 1 and p >= floor and p > nxt.get(k2, 0):
                    nxt[k2] = p
        best = nxt
    return max(best.values())


@pytest.mark.parametrize("kind, q", [("symmetric", 2), ("symmetric", 3), ("alternating", 3)])
def test_most_likely_path_matches_viterbi(kind, q):
    """The closed-form path far beyond the enumeration's reach; a tie with
    another path of the same probability counts as success.  The claimed
    path is a real positive path, so the best path is at least as likely and
    the DP may leave out every prefix less likely than the claim."""
    spec = ChainSpec(kind, field_new(q))
    for x0 in (1, 4, 10):
        for steps in (50, 200):
            path, prob = most_likely_positive_path(spec, x0, steps)
            assert len(path) == steps + 1 and path[0] == x0 and min(path) >= 1
            assert path_probability(spec, path) == prob > 0
            assert _viterbi_max(spec, x0, steps, prob) == prob


def test_planted_pmf_from_zero_matches_uniform():
    for q in (2, 3):
        f = field_new(q)
        pmf = planted_pmf("symmetric", 0, 4, f)
        assert pmf.as_dict() == uniform_sym_pmf(4, f).as_dict()
    pmf = planted_pmf("alternating", 1, 4, F3)
    assert all(k % 2 == 1 for k, _ in pmf.support)


def test_negative_steps_refused():
    spec = ChainSpec("symmetric", F3)
    calls = [lambda: evolve(spec, delta_pmf(1), -1),
             lambda: hit_zero_prob(spec, 1, -2),
             lambda: most_likely_positive_path(spec, 1, -1),
             lambda: enumerate_positive_paths(spec, 1, -1),
             lambda: planted_pmf("alternating", 1, -1, F3)]
    for call in calls:
        with pytest.raises(InvalidArgument):
            call()


def test_enumerate_positive_paths_refuses_x0_below_1():
    for kind in ("symmetric", "alternating"):
        spec = ChainSpec(kind, F3)
        for x0 in (0, -1):
            with pytest.raises(InvalidArgument, match="x0 >= 1"):
                enumerate_positive_paths(spec, x0, 2)
        assert all(min(path) >= 1 for path, _ in enumerate_positive_paths(spec, 1, 4))


def _positive_paths_by_product(spec, x0, steps):
    """Every strictly positive path from x0 with its product of transition()
    probabilities, over all step sequences in (-1, 0, +1)."""
    for moves in itertools.product((-1, 0, 1), repeat=steps):
        path = tuple(itertools.accumulate(moves, initial=x0))
        if min(path) >= 1:
            prob = Fraction(1)
            for k, d in zip(path, moves):
                prob *= transition(spec.kind, k, spec.field)[d + 1]
            yield path, prob


def test_hit_zero_prob_is_one_minus_the_positive_paths():
    """Not touching 0 within s steps is taking a strictly positive path."""
    cases = [ChainSpec("symmetric", field_new(q)) for q in (2, 3, 5)]
    cases += [ChainSpec("alternating", F3), ChainSpec("iid-column", F3, n=4)]
    for spec in cases:
        for x0 in range(1, 5):
            for steps in range(8):
                stay_positive = sum(p for _, p in _positive_paths_by_product(spec, x0, steps))
                assert hit_zero_prob(spec, x0, steps) == 1 - stay_positive, (spec, x0, steps)


_SYM3 = ChainSpec("symmetric", F3)


@pytest.mark.parametrize("call", [
    lambda: delta_pmf(1.5),
    lambda: CorankPMF(((0, Fraction(1, 2)), (True, Fraction(1, 2)))),
    lambda: CorankPMF(((0, 0.5), (1, 0.5))),
    lambda: ChainSpec("iid-column", F3, n=2.5),
    lambda: ChainSpec("iid-column", F3, n=True),
    lambda: ChainSpec("symmetric", 3),
    lambda: evolve(_SYM3, delta_pmf(0), True),
    lambda: evolve(_SYM3, delta_pmf(0), 2.5),
    lambda: hit_zero_prob(_SYM3, 2, True),
    lambda: hit_zero_prob(_SYM3, 1.5, 3),
    lambda: most_likely_positive_path(_SYM3, 2.5, 3),
    lambda: enumerate_positive_paths(_SYM3, 2, 2.5),
    lambda: path_probability(_SYM3, [1.5, 0.5]),
    lambda: transition("symmetric", 1.5, F3),
    lambda: uniform_rect_pmf(True, 0, F3),
    lambda: uniform_rect_pmf(2.5, 0, F3),
    lambda: uniform_sym_pmf(2.5, F3),
    lambda: limit_rect_pmf(1.5, F3),
    lambda: limit_sym_pmf(F3, tol="1e-9"),
], ids=["delta-float", "pmf-bool-corank", "pmf-float-mass", "spec-float-n", "spec-bool-n",
        "spec-int-field", "evolve-bool-steps", "evolve-float-steps", "hit-bool-steps",
        "hit-float-x0", "path-float-x0", "enumerate-float-steps", "path-prob-floats",
        "transition-float-k", "rect-bool-n", "rect-float-n", "sym-float-n",
        "limit-rect-float-m", "limit-sym-str-tol"])
def test_exact_laws_and_chains_take_integers_only(call):
    with pytest.raises(InvalidArgument):
        call()
