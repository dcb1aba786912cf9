"""Exact corank Markov chains for the uniform exposure processes.

Three kinds are supported:

* ``symmetric``:   corner exposure of a uniform symmetric matrix.  At corank
  k the corank drops with probability 1 - q^-k, stays with probability
  q^-k - q^-(k+1) and rises with probability q^-(k+1).
* ``alternating``: corner exposure of a uniform alternating matrix; the
  corank moves by exactly one each step (drop 1 - q^-k, rise q^-k).
* ``iid-column``:  column exposure of an iid uniform matrix with ambient
  dimension n.  The tracked state is the codimension of the column span;
  it shrinks with probability 1 - q^-k and is the matrix corank once n
  columns are exposed.

Everything is exact rational arithmetic.  One step moves the corank by at
most one, so the state space [0, x0 + steps] is complete and there is no
truncation error.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .distributions import CorankPMF, _pmf
from .errors import EvenCharacteristic, InvalidArgument, need_int
from .field import Field

CHAIN_KINDS = ("symmetric", "alternating", "iid-column")


@dataclass(frozen=True)
class ChainSpec:
    kind: str
    field: Field
    n: int | None = None  # ambient dimension, iid-column only

    def __post_init__(self):
        if self.kind not in CHAIN_KINDS:
            raise InvalidArgument(f"unknown chain kind {self.kind!r}")
        if not isinstance(self.field, Field):
            raise InvalidArgument(f"a chain's field must be a Field, not {self.field!r}")
        if self.kind == "iid-column":  # refuses a missing n too
            object.__setattr__(self, "n", need_int("iid-column's ambient dimension n", self.n, 1))
        elif self.n is not None:
            raise InvalidArgument("the ambient dimension n is read only by iid-column")
        if self.kind == "alternating" and self.field.q % 2 == 0:
            raise EvenCharacteristic("alternating chain requires odd q")


def transition(kind: str, k: int, f: Field) -> tuple[Fraction, Fraction, Fraction]:
    """Exact one-step (down, stay, up) probabilities from corank k."""
    k, q = need_int("corank", k, 0), f.q
    qk = Fraction(1, q**k)
    if kind == "symmetric":
        return 1 - qk, qk - qk / q, qk / q
    if kind == "alternating":
        if q % 2 == 0:
            raise EvenCharacteristic("alternating chain requires odd q")
        return 1 - qk, Fraction(0), qk
    if kind == "iid-column":
        # state = codimension of the span; a new column leaves it or not
        return 1 - qk, qk, Fraction(0)
    raise InvalidArgument(f"unknown chain kind {kind!r}")


@lru_cache(maxsize=None)
def _moves(kind: str, k: int, f: Field) -> tuple[tuple[int, Fraction], ...]:
    """The (next corank, probability) pairs of one step from corank k, in
    the order down, stay, up, leaving out the moves of probability 0."""
    return tuple((k2, p) for k2, p in zip((k - 1, k, k + 1), transition(kind, k, f)) if p)


def _step(kind: str, f: Field, dist: dict[int, Fraction]) -> dict[int, Fraction]:
    new: dict[int, Fraction] = {}
    for k, p in dist.items():
        for k2, move in _moves(kind, k, f):
            new[k2] = new.get(k2, Fraction(0)) + p * move
    return new


def evolve(spec: ChainSpec, initial: CorankPMF, steps: int) -> CorankPMF:
    """Exact PMF after `steps` one-step transitions.

    For the iid-column kind the initial PMF is over span dimension (so the
    delta at 0 is the empty matrix) and the returned PMF is over the span
    codimension n - dim, which equals the matrix corank once steps = n.
    """
    steps = need_int("steps", steps, 0)
    if spec.kind == "iid-column":
        dist = {spec.n - dim: p for dim, p in initial.support}
        if any(k < 0 for k in dist):
            raise InvalidArgument("span dimension exceeds ambient n")
    else:
        dist = dict(initial.support)
    for _ in range(steps):
        dist = _step(spec.kind, spec.field, dist)
    return _pmf(dist, tail_bound=initial.tail_bound)


def delta_pmf(k: int) -> CorankPMF:
    return CorankPMF(support=((k, Fraction(1)),))


def hit_zero_prob(spec: ChainSpec, x0: int, steps: int) -> Fraction:
    """Exact probability the chain started at corank x0 touches 0 within
    `steps` steps: the mass that lands on 0 after each step is counted and
    taken out of the chain.  On iid-column, x0 is the span codimension, at
    most n."""
    x0, steps = need_int("x0", x0, 0, spec.n), need_int("steps", steps, 0)
    dist = {x0: Fraction(1)}
    hit = dist.pop(0, Fraction(0))
    for _ in range(steps):
        dist = _step(spec.kind, spec.field, dist)
        hit += dist.pop(0, Fraction(0))
    return hit


def path_probability(spec: ChainSpec, path: list[int]) -> Fraction:
    """Exact probability of a given corank path (consecutive transitions)."""
    if not path:
        raise InvalidArgument("a path needs at least one corank")
    path = [need_int("corank", k, 0) for k in path]
    prob = Fraction(1)
    for k, k2 in zip(path, path[1:]):
        move = dict(_moves(spec.kind, k, spec.field)).get(k2)
        if move is None:
            return Fraction(0)
        prob *= move
    return prob


def most_likely_positive_path(spec: ChainSpec, x0: int, steps: int
                              ) -> tuple[tuple[int, ...], Fraction]:
    """The maximal-probability strictly-positive corank path: descend to 1,
    then alternate between 1 and 2 (with a single stay at 1 absorbing an odd
    leftover step in the symmetric chain)."""
    if spec.kind not in ("symmetric", "alternating"):
        raise InvalidArgument("positive-path claim applies to symmetric/alternating")
    x0, steps = need_int("x0", x0, 1), need_int("steps", steps, 0)
    path = list(range(x0, max(x0 - steps, 1) - 1, -1))
    left = steps + 1 - len(path)
    path += [2, 1] * (left // 2)
    if left % 2:  # a stay at 1, or on alternating an up-move
        path.append(1 if spec.kind == "symmetric" else 2)
    return tuple(path), path_probability(spec, path)


def enumerate_positive_paths(spec: ChainSpec, x0: int, steps: int):
    """All strictly-positive paths with their exact probabilities, depth first
    in the move order down, stay, up (cross-check oracle; capped by the caller
    at modest step counts).

    A move from corank k has probability an integer over q^(k+1), so over
    D = q^(x0+steps+1) every reachable move is an integer weight and a path's
    probability is the product of its weights over D^steps.  Each path is a
    head of steps // 2 moves from x0 joined to a tail of the remaining moves;
    the tails are enumerated once per end corank of a head, and paths of equal
    weight share one Fraction.

    The cyclic garbage collector is paused while the output list is built:
    the list holds only tuples of ints and Fractions, which form no reference
    cycles, so a collection there would traverse every new pair and free
    nothing.  The caller's collector state is restored on every exit."""
    x0, steps = need_int("x0", x0, 1), need_int("steps", steps, 0)
    D = spec.field.q ** (x0 + steps + 1)
    weights: dict[int, tuple[tuple[int, int], ...]] = {}
    for k in range(1, x0 + steps + 1):
        scaled = [(k2, p * D) for k2, p in _moves(spec.kind, k, spec.field) if k2 >= 1]
        if any(w.denominator != 1 for _, w in scaled):
            raise AssertionError(f"a move from corank {k} is not an integer weight "
                                 f"over q^{x0 + steps + 1}")
        weights[k] = tuple((k2, w.numerator) for k2, w in scaled)

    def walks(start: int, moves: int) -> list[tuple[tuple[int, ...], int]]:
        # extending each walk in move order keeps the depth-first order
        level = [((start,), 1)]
        for _ in range(moves):
            level = [(path + (k2,), weight * w)
                     for path, weight in level for k2, w in weights[path[-1]]]
        return level

    heads = walks(x0, steps // 2)
    tails: dict[int, tuple[list[tuple[tuple[int, ...], int]], list[int]]] = {}
    for end in {head[-1] for head, _ in heads}:
        index: dict[int, int] = {}
        tails[end] = ([(path[1:], index.setdefault(v, len(index)))
                       for path, v in walks(end, steps - steps // 2)], list(index))
    denom = D**steps
    probs: dict[int, Fraction] = {}
    out: list[tuple[tuple[int, ...], Fraction]] = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for head, w in heads:
            joins, vs = tails[head[-1]]
            shared = []
            for v in vs:
                weight = w * v
                prob = probs.get(weight)
                if prob is None:
                    prob = probs[weight] = Fraction(weight, denom)
                shared.append(prob)
            out += [(head + tail, shared[i]) for tail, i in joins]
    finally:
        if collecting:
            gc.enable()
    return out


def planted_pmf(kind: str, x0: int, added_steps: int, f: Field) -> CorankPMF:
    """Exact final-corank law when a fixed corner of corank x0 is extended by
    `added_steps` uniform exposures."""
    spec = ChainSpec(kind=kind, field=f)
    return evolve(spec, delta_pmf(x0), added_steps)
