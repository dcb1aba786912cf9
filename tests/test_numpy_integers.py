"""numpy integers at the integer parameters of the exact laws, the chains,
Monte Carlo, specs and fields give the results of Python ints, and are
stored as Python ints: a numpy integer in exact arithmetic wraps around."""
from fractions import Fraction

import numpy as np
import pytest

from fqrank import chain
from fqrank.chain import (ChainSpec, delta_pmf, enumerate_positive_paths, evolve,
                          hit_zero_prob, most_likely_positive_path, path_probability,
                          planted_pmf)
from fqrank.distributions import limit_pmf, uniform_pmf
from fqrank.field import field_new
from fqrank.harness import mc_corank
from fqrank.models import EntryDist, ModelSpec, TypeFSpec, near_uniform_dist


def _plain(x) -> bool:
    """Every number in x is a Python int or a Fraction of two."""
    if isinstance(x, Fraction):
        return type(x.numerator) is int and type(x.denominator) is int
    if isinstance(x, (tuple, list)):
        return all(map(_plain, x))
    if isinstance(x, dict):
        return _plain(list(x.items()))
    return type(x) in (int, str)


def _mc(I):
    res = mc_corank(ModelSpec(kind="symmetric", field=field_new(I(3)), n=I(6)),
                    I(300), I(5), threads=I(1))
    return res.counts, res.trials, res.seed, res.empirical.to_json()


def _spec(I):
    f = field_new(I(5))
    return ModelSpec(kind="iid-rect", field=f, n=I(4), m=I(2),
                     entries=EntryDist((I(0), Fraction(1, 2), Fraction(1, 2), I(0), I(0))),
                     overrides=((I(1), I(5), near_uniform_dist(f, [I(1), I(2)])),),
                     type_f=TypeFSpec(((I(0), I(3)), (), (I(2),)),
                                      ((I(0), I(4)), (), (I(1),)))).to_json()


# each call takes the integer type I and returns a to_json text where there is one
CALLS = {
    "uniform_pmf": lambda I: uniform_pmf("iid-rect", I(10), field_new(I(101)), I(3)).to_json(),
    "uniform_pmf-symmetric": lambda I: uniform_pmf("symmetric", I(6), field_new(I(7))).to_json(),
    "limit_pmf": lambda I: limit_pmf("rect", field_new(I(101)), I(2)).to_json(),
    "limit_pmf-symmetric": lambda I: limit_pmf("symmetric", field_new(I(101))).to_json(),
    "evolve": lambda I: evolve(ChainSpec("iid-column", field_new(I(3)), n=I(5)),
                               delta_pmf(I(0)), I(5)).to_json(),
    "hit_zero_prob": lambda I: hit_zero_prob(ChainSpec("symmetric", field_new(I(101))),
                                             I(2), I(12)),
    "path_probability": lambda I: path_probability(ChainSpec("alternating", field_new(I(5))),
                                                   [I(3), I(2), I(1), I(2), I(1)]),
    "most_likely_positive_path": lambda I: most_likely_positive_path(
        ChainSpec("symmetric", field_new(I(3))), I(4), I(9)),
    "enumerate_positive_paths": lambda I: enumerate_positive_paths(
        ChainSpec("symmetric", field_new(I(2))), I(2), I(6)),
    "planted_pmf": lambda I: planted_pmf("symmetric", I(2), I(5), field_new(I(3))).to_json(),
    "mc_corank": _mc,
    "ModelSpec": _spec,
    "ModelSpec-gl-corner": lambda I: ModelSpec(kind="gl-corner", field=field_new(I(4)),
                                               n=I(5), n_prime=I(3)).to_json(),
    "field_new": lambda I: (lambda f: (f.q, f.p, f.k, f.modulus))(field_new(I(9))),
}


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
@pytest.mark.parametrize("name", CALLS)
def test_numpy_integers_give_the_int_result(name, dtype):
    call = CALLS[name]
    chain._moves.cache_clear()
    expected = call(int)
    chain._moves.cache_clear()
    got = call(dtype)  # the numpy call first, into an empty cache
    assert got == expected and _plain(got)
    # the cache keys np.int64(2) and 2 alike: an int call after the numpy
    # one must still get the exact value
    assert call(int) == expected
