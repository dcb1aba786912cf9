"""Seeded samplers for the matrix ensembles.

Every sampler is a pure function of (spec, seed, trial): the per-trial
random stream is keyed by SHA-256(seed, trial) feeding a counter-based
Philox generator, so trials can be generated in any order or in parallel
and still reproduce bit-for-bit.

Entry sampling is exact: an EntryDist holds rational point masses over a
common denominator D, and a single uniform integer u in [0, D) selects the
value v whose cumulative interval holds u.  A guide table (indexed search)
maps the high bits of u, at most 2^16 buckets, to the first value each
bucket can select, so for D <= 2^16 a draw is one table gather; larger D
add a few vectorised correction rounds.  No floating-point thresholds.

Every GL draw, a lone sample_gl included, is its stream's first invertible
whole-matrix candidate (full_rank_stack), whatever the number k of
candidates a rejection round draws; k fixes only where the stream is left.
A large round ranks all its candidates by one rank_stack call.  A round too
small for numpy's per-call cost to pay runs one stream at a time: the scalar
rank_rows ranks its candidates in order and stops at the first invertible
one.  Both ranks are exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import accumulate

import numpy as np

from ._fast import rank_mod_p, rank_stack
from .errors import EmptySupport, FqRankError, InvalidArgument, InvalidSpec, TooLarge, need_int
from .field import Field, field_new
from .matrix import FqMatrix, dumps_matrix, loads_matrix, rank_rows

KINDS = (
    "iid-square", "iid-rect", "symmetric", "alternating",
    "uniform-gl", "gl-minus-identity", "gl-corner",
    "planted-symmetric", "planted-alternating",
)
GL_KINDS = ("uniform-gl", "gl-minus-identity", "gl-corner")
MAX_ENTRIES = 1 << 22  # per matrix: a draw is a 32 MB int64 array at the cap
MAX_DENOMINATOR = (1 << 63) - 1  # uniform integers and cumulative sums are int64
SCALAR_RANK_ENTRIES = 192  # rejection rounds this small are ranked by rank_rows
MAX_PROB_CHARS = 256  # a spec's probability strings: length and exponent magnitude


class _PhiloxKey:
    """Hands Philox a ready key.  Philox(key=...) would first build a
    SeedSequence from OS entropy and then discard it, about half the cost of
    derive_rng; Philox(seed) takes its key from generate_state(2, uint64)
    and starts its counter at 0, so the stream is the same."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


@lru_cache(maxsize=None)
def _philox() -> type:
    """np.random.Philox, once _PhiloxKey is registered as a seed sequence;
    numpy.random then loads on the first draw, not when fqrank is imported."""
    np.random.bit_generator.ISeedSequence.register(_PhiloxKey)
    return np.random.Philox


def derive_rng(seed: int, trial: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, trial), each a signed 64-bit
    integer."""
    try:
        packed = struct.pack("<qq", seed, trial)
    except struct.error:
        raise InvalidArgument("seed and trial must be integers in [-2^63, 2^63)") from None
    h = hashlib.sha256(b"fqrank" + packed).digest()
    key = np.array(struct.unpack("<QQ", h[:16]), dtype=np.uint64)
    return np.random.Generator(_philox()(_PhiloxKey(key)))


# ---------------------------------------------------------------------------
# entry distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntryDist:
    """A probability vector (c_0, ..., c_{q-1}) over F_q."""

    probs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(
            c if isinstance(c, Fraction) else need_int(
                "an entry probability that is not a Fraction", c, error=InvalidSpec)
            for c in self.probs))
        if any(c < 0 for c in self.probs):
            raise InvalidSpec("negative entry probability")
        if sum(self.probs) != 1:
            raise InvalidSpec("entry probabilities must sum to 1")

    def __str__(self) -> str:
        return f"the law ({', '.join(map(str, self.probs))})"

    @property
    def q(self) -> int:
        return len(self.probs)

    @property
    def C(self) -> Fraction:
        """Near-uniform constant q * max_k c_k."""
        return self.q * max(self.probs)

    @cached_property
    def denominator(self) -> int:
        return reduce(math.lcm, (c.denominator for c in self.probs), 1)

    @cached_property
    def numerators(self) -> tuple[int, ...]:
        """The probabilities as integers over the common denominator."""
        D = self.denominator
        return tuple(c.numerator * (D // c.denominator) for c in self.probs)

    @cached_property
    def _guide(self) -> tuple[np.ndarray, int, np.ndarray, tuple[int, ...]]:
        """Guide table for lookup (Chen & Asau 1974; Devroye, Non-Uniform
        Random Variate Generation, III.2.4), built on the first lookup.

        Bucket b holds u in [b << shift, (b + 1) << shift), with shift chosen
        so there are at most 2^16 buckets; table[b] is the value its first u
        selects.  A bucket holding w cumulative boundaries spans w + 1
        values, which the correction rounds search by binary lifting: one
        round per binary digit of the widest bucket's w, none when D <= 2^16."""
        D = self.denominator
        shift = max(0, (D - 1).bit_length() - 16)
        cum = np.array(list(accumulate(self.numerators)), dtype=np.int64)
        # the bucket count in integers: arange(0, D, step) sizes itself in floats
        starts = np.arange(((D - 1) >> shift) + 1, dtype=np.int64) << shift
        table = np.searchsorted(cum, starts, side="right")
        # the value the last u of each bucket selects: boundaries below the next start
        last = np.searchsorted(cum, np.append(starts[1:], D), side="left")
        width = int((last - table).max())
        steps = tuple(1 << i for i in reversed(range(width.bit_length())))
        # lifting may probe up to steps[0] - 1 places past the last value
        cum = np.append(cum, np.full(steps[0] if steps else 0, D, dtype=np.int64))
        return table, shift, cum, steps

    def lookup(self, u: np.ndarray) -> np.ndarray:
        """The values that uniform integers u in [0, denominator) select:
        for each u, the least v with numerators[0] + ... + numerators[v] > u.
        One guide-table gather, then the table's correction rounds."""
        table, shift, cum, steps = self._guide
        v = np.take(table, u >> shift if shift else u)
        for h in steps:
            v += h * (cum[v + (h - 1)] <= u)
        return v


@lru_cache(maxsize=None)
def uniform_entry_dist(f: Field) -> EntryDist:
    return EntryDist(tuple(Fraction(1, f.q) for _ in range(f.q)))


def near_uniform_dist(f: Field, zero_set) -> EntryDist:
    """Uniform on the complement of zero_set; C = q/(q - |zero_set|)."""
    zero_set = frozenset(need_int("a zero_set element", v, 0, f.q - 1, InvalidSpec)
                         for v in zero_set)
    support = f.q - len(zero_set)
    if support == 0:
        raise EmptySupport("zero_set covers all of F_q")
    return EntryDist(tuple(
        Fraction(0) if v in zero_set else Fraction(1, support) for v in range(f.q)
    ))


# ---------------------------------------------------------------------------
# model specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeFSpec:
    """Per-column index sets of fixed entries (rows j in sets[i] of column i),
    with the fixed values (default all zero)."""

    sets: tuple[tuple[int, ...], ...]
    values: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.values is not None and (
            len(self.values) != len(self.sets)
            or any(len(v) != len(s) for v, s in zip(self.values, self.sets))
        ):
            raise InvalidSpec("F_values shape must mirror F")

    def fixed_entries(self) -> dict[tuple[int, int], int]:
        """(row, col) -> fixed value."""
        out: dict[tuple[int, int], int] = {}
        for col, rows in enumerate(self.sets):
            for idx, row in enumerate(rows):
                out[(row, col)] = self.values[col][idx] if self.values else 0
        return out


def band_type_f(n: int, alpha: float) -> TypeFSpec:
    """The band pattern F_i = {i, ..., i + floor(alpha*n)} of fixed zeros."""
    w = int(alpha * n)
    return TypeFSpec(tuple(
        tuple(j for j in range(i, i + w + 1) if j < n) for i in range(n)
    ))


@dataclass(frozen=True)
class ModelSpec:
    """A matrix model.  On mirrored kinds an F value or an override law
    given for (i, j) holds at (i, j), and (j, i) holds its mirror: the same
    value, negated if alternating."""

    kind: str
    field: Field
    n: int
    m: int = 0
    n_prime: int | None = None
    entries: EntryDist | None = None
    overrides: tuple[tuple[int, int, EntryDist], ...] = ()
    type_f: TypeFSpec | None = None
    planted: FqMatrix | None = None

    def __post_init__(self):
        self.validate()

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        f = self.field
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "n", need_int("n", self.n, 1, error=InvalidSpec))
        object.__setattr__(self, "m", need_int("m", self.m, 0, error=InvalidSpec))
        if self.m and self.kind != "iid-rect":
            raise InvalidSpec("m must be 0 unless the kind is iid-rect")
        if self.kind != "gl-corner" and self.n_prime is not None:
            raise InvalidSpec("n_prime is only for gl-corner")
        if not self.kind.startswith("planted") and self.planted is not None:
            raise InvalidSpec("a planted corner is only for planted kinds")
        if self.kind in ("alternating", "planted-alternating") and f.q % 2 == 0:
            raise InvalidSpec("alternating models require odd q (parity)")
        if self.kind == "gl-corner":
            object.__setattr__(self, "n_prime", need_int("gl-corner's n_prime", self.n_prime,
                                                         1, self.n, InvalidSpec))
        if self.kind.startswith("planted"):
            if self.planted is None:
                raise InvalidSpec("planted kind needs a planted corner matrix")
            if self.planted.rows != self.planted.cols or self.planted.rows > self.n:
                raise InvalidSpec("planted corner must be square with m0 <= n (dimensions)")
            if self.planted.field.q != f.q:
                raise InvalidSpec("planted corner field mismatch")
            if self.entries is not None:
                raise InvalidSpec("planted kinds draw uniform entries; entries not allowed")
        if self.kind in GL_KINDS and (self.entries is not None or self.overrides
                                      or self.type_f is not None):
            raise InvalidSpec("GL kinds draw uniformly from GL_n; entries, overrides "
                              "and F not allowed")
        for d in filter(None, (self.entries, *(d for _, _, d in self.overrides))):
            if d.q != f.q:
                raise InvalidSpec("entry distribution length != q (distribution sum)")
            if d.denominator > MAX_DENOMINATOR:
                raise TooLarge("an entry law's common denominator exceeds 2^63 - 1")
        # a GL kind draws the whole n x n element, of which gl-corner keeps a corner
        _refuse_too_large(*((self.n, self.n) if self.kind in GL_KINDS else self.shape))
        rows, cols = self.shape
        object.__setattr__(self, "overrides", tuple(
            (need_int("an override's row", i, 0, rows - 1, InvalidSpec),
             need_int("an override's column", j, 0, cols - 1, InvalidSpec), d)
            for i, j, d in self.overrides))
        if self.type_f is not None:
            sets, values = self.type_f.sets, self.type_f.values
            object.__setattr__(self, "type_f", TypeFSpec(
                tuple(tuple(need_int("an F index", r, 0, rows - 1, InvalidSpec) for r in s)
                      for s in sets),
                values and tuple(tuple(need_int("a fixed value", v, 0, f.q - 1, InvalidSpec)
                                       for v in vs) for vs in values)))
        self.fixed_cells  # builds the cell sources, refusing a spec they contradict

    @property
    def shape(self) -> tuple[int, int]:
        if self.kind == "iid-rect":
            return self.n, self.n + self.m
        if self.kind == "gl-corner":
            return self.n_prime, self.n_prime
        return self.n, self.n

    def default_dist(self) -> EntryDist:
        return self.entries if self.entries is not None else uniform_entry_dist(self.field)

    @cached_property
    def cell_sources(self) -> dict[tuple[int, int], int | EntryDist]:
        """Each cell not drawn from default_dist(), mapped to its one source: a
        fixed value (the alternating diagonal's 0, the planted corner, an F
        entry) or an override's law, and on mirrored kinds its mirror image
        (negated if alternating: P(-X = v) = P(X = -v) for a law).  Refuses F
        out of range or inside the planted corner, and a cell with two
        different sources."""
        f, alt = self.field, "alternating" in self.kind
        rows, cols = self.shape
        m0 = self.planted.rows if self.planted is not None else 0
        writes = [(i, i, 0) for i in range(self.n)] if alt else []
        writes += [(r, c, self.planted.get(r, c)) for r in range(m0) for c in range(m0)]
        sets = self.type_f.sets if self.type_f is not None else ()
        if len(sets) > cols:
            raise InvalidSpec("more F sets than columns")
        for c, rset in enumerate(sets):
            for idx, r in enumerate(rset):
                v = self.type_f.values[c][idx] if self.type_f.values else 0
                if r < m0 and c < m0:
                    raise InvalidSpec("F entry inside the planted corner")
                writes.append((r, c, v))
        writes += self.overrides
        if self.kind not in ("iid-square", "iid-rect"):
            def neg(v):
                if isinstance(v, EntryDist):
                    return EntryDist(tuple(v.probs[f.neg(x)] for x in range(f.q)))
                return f.neg(v)
            writes += [(c, r, neg(v) if alt else v) for r, c, v in writes]
        out: dict[tuple[int, int], int | EntryDist] = {}
        for r, c, v in writes:
            if out.setdefault((r, c), v) != v:
                raise InvalidSpec(f"cell ({r}, {c}) is given both {out[r, c]} and {v}")
        return out

    @cached_property
    def fixed_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the fixed values in cell_sources."""
        fixed = {k: v for k, v in self.cell_sources.items() if not isinstance(v, EntryDist)}
        return (np.array([r for r, _ in fixed], dtype=np.intp),
                np.array([c for _, c in fixed], dtype=np.intp),
                np.array(list(fixed.values()), dtype=np.int64))

    # -- JSON -----------------------------------------------------------------

    def to_json(self) -> str:
        def dist_list(d: EntryDist):
            return [f"{c.numerator}/{c.denominator}" for c in d.probs]

        obj: dict = {"kind": self.kind, "q": self.field.q, "n": self.n}
        if self.kind == "iid-rect":
            obj["m"] = self.m
        if self.n_prime is not None:
            obj["n_prime"] = self.n_prime
        entries = {"default": dist_list(self.entries)} if self.entries is not None else {}
        if entries or self.overrides:
            obj["entries"] = {**entries,
                              "overrides": [[i, j, dist_list(d)] for i, j, d in self.overrides]}
        if self.type_f is not None:
            obj["F"] = [list(s) for s in self.type_f.sets]
            if self.type_f.values is not None:
                obj["F_values"] = [list(v) for v in self.type_f.values]
        if self.planted is not None:
            obj["planted"] = dumps_matrix(self.planted)
        return json.dumps(obj)

    @staticmethod
    def from_json(text: str | bytes | dict) -> "ModelSpec":
        try:
            obj = json.loads(text) if isinstance(text, (str, bytes)) else text
            return ModelSpec._from_obj(obj)
        except FqRankError:
            raise
        except (AttributeError, KeyError, IndexError, TypeError, ValueError,
                OverflowError, ZeroDivisionError, RecursionError) as exc:
            raise InvalidSpec(f"malformed spec: {type(exc).__name__}: {exc}") from exc

    @staticmethod
    def _from_obj(obj: dict) -> "ModelSpec":
        _refuse_unknown_keys(obj, _SPEC_KEYS)
        f = field_new(need_int("q", obj["q"], error=InvalidSpec))

        def parse_dist(lst) -> EntryDist:
            probs = []
            for x in lst:
                if isinstance(x, str):
                    # Fraction("1e-99999999") would build a 10^8-digit power of ten
                    _, e, exp = x.lower().partition("e")
                    if len(x) > MAX_PROB_CHARS or (e and abs(int(exp)) > MAX_PROB_CHARS):
                        raise InvalidSpec(f"probability strings take at most {MAX_PROB_CHARS}"
                                          f" characters and exponents up to {MAX_PROB_CHARS}")
                    probs.append(Fraction(x))
                elif isinstance(x, float):
                    probs.append(Fraction(x).limit_denominator(10**12))
                else:
                    probs.append(Fraction(x))
            return EntryDist(tuple(probs))

        entries, overrides = None, ()
        if "entries" in obj:
            e = obj["entries"]
            _refuse_unknown_keys(e, ("default", "overrides"), " under entries")
            if "default" in e and e["default"] is not None:
                entries = parse_dist(e["default"])
            overrides = tuple((i, j, parse_dist(d)) for i, j, d in e.get("overrides", []))
        type_f = None
        values = obj.get("F_values")
        if values is not None and "F" not in obj:
            raise InvalidSpec("F_values needs F: it gives the values of F's cells")
        if "F" in obj:
            sets = tuple(tuple(s) for s in obj["F"])
            type_f = TypeFSpec(sets, None if values is None else tuple(map(tuple, values)))
        planted = loads_matrix(obj["planted"]) if obj.get("planted") is not None else None
        return ModelSpec(
            kind=obj["kind"], field=f, n=obj["n"], m=obj.get("m", 0),
            n_prime=obj.get("n_prime"),
            entries=entries, overrides=overrides, type_f=type_f, planted=planted,
        )


_SPEC_KEYS = ("kind", "q", "n", "m", "n_prime", "entries", "F", "F_values", "planted")


def _refuse_unknown_keys(obj: dict, known, where: str = "") -> None:
    """A misspelt key would be read as absent, so a key outside the schema
    that to_json writes is refused."""
    unknown = sorted(map(repr, obj.keys() - set(known)))
    if unknown:
        raise InvalidSpec(f"unknown key {', '.join(unknown)}{where}")


# ---------------------------------------------------------------------------
# condition validation (reports, never blocks)
# ---------------------------------------------------------------------------

def validate_conditions(spec: ModelSpec, alpha: float) -> dict:
    """Check the index-set conditions the theorems require for the given
    alpha.  Sampling never depends on this; the report is informational."""
    n = spec.n
    sets = spec.type_f.sets if spec.type_f is not None else ()
    size_violations = [i for i, s in enumerate(sets) if len(s) >= alpha * n]
    counts: dict[int, int] = {}
    for s in sets:
        for r in s:
            counts[r] = counts.get(r, 0) + 1
    cap = (1 - 12 * alpha) * n
    membership_violations = [i for i, c in counts.items() if c > cap]
    symmetric = None
    if spec.kind in ("symmetric", "alternating", "planted-symmetric", "planted-alternating"):
        member = {(r, c) for c, s in enumerate(sets) for r in s}
        symmetric = all((c, r) in member for r, c in member)
    report = {
        "alpha": alpha,
        "size_ok": not size_violations,
        "size_violations": size_violations,
        "membership_ok": not membership_violations,
        "membership_violations": sorted(membership_violations),
        "symmetry_ok": symmetric,
        "all_ok": (not size_violations and not membership_violations
                   and symmetric is not False),
    }
    return report


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample(spec: ModelSpec, seed: int, trial: int = 0) -> FqMatrix:
    """One exact draw from the model; deterministic given (spec, seed, trial)."""
    return _as_matrix(spec.field, sample_array(spec, derive_rng(seed, trial)))


def sample_gl(n: int, f: Field, seed: int, trial: int = 0) -> FqMatrix:
    """A uniformly distributed element of GL_n(F_q): the same draw as
    sample of a uniform-gl spec with this (seed, trial).  It refuses every
    n that ModelSpec refuses, without building one per draw."""
    n = need_int("n", n, 1, error=InvalidSpec)
    _refuse_too_large(n, n)
    return _as_matrix(f, full_rank_stack([derive_rng(seed, trial)], n, n, f.q)[0])


def _refuse_too_large(rows: int, cols: int) -> None:
    if rows * cols > MAX_ENTRIES:
        raise TooLarge(f"a {rows}x{cols} matrix exceeds the cap of 2^22 entries")


def _as_matrix(f: Field, arr: np.ndarray) -> FqMatrix:
    return FqMatrix(f, arr.shape[0], arr.shape[1], tuple(arr.ravel().tolist()))


@lru_cache(maxsize=None)
def candidates_per_call(rows: int, cols: int, q: int) -> int:
    """k: the least number of uniform rows x cols candidates (rows >= cols)
    that holds one of full column rank with probability at least 1/2.

    A candidate has full column rank with probability
    p = prod_{i<cols} (1 - q^(i-rows)), so k is the least k with
    (1 - p)^k <= 1/2.  p is evaluated in floating point: the thresholds
    1 - 2^(-1/k) are irrational for k >= 2, and the one exact tie, p = 1/2 at
    k = 1 (q = 2, rows = cols = 1), is computed exactly."""
    if cols > rows:  # p = 0: no candidate has full column rank
        raise InvalidArgument(f"a {rows}x{cols} candidate cannot have full column rank")
    p = math.prod(1 - float(q) ** (i - rows) for i in range(cols))
    k = 1
    while (1 - p) ** k > 0.5:
        k += 1
    return k


def full_rank_stack(rngs: list[np.random.Generator], rows: int, cols: int,
                    q: int) -> np.ndarray:
    """For each generator, the first rows x cols candidate of full column
    rank in its stream, stacked into a (len(rngs), rows, cols) array.

    A stream draws its candidates in rounds of k = candidates_per_call(rows,
    cols, q), one integers() call each.  A draw is its stream's first
    full-rank candidate whatever k is; k fixes only where the stream is
    left, at the end of the round that held the draw.  A round of more than
    SCALAR_RANK_ENTRIES entries over all pending streams is ranked by one
    rank_stack call.  Once a round is that small, so is every later one, and
    each pending stream runs its own rounds: rank_rows ranks its candidates
    in order and stops at the first of full rank.  Both ranks are exact, so
    how the streams are grouped into stacks never changes a draw or where a
    stream is left.  A full-rank candidate is uniform on the full-rank
    matrices: every rejected candidate is thrown away whole."""
    k = candidates_per_call(rows, cols, q)
    out = np.empty((len(rngs), rows, cols), dtype=np.int64)
    todo = np.arange(len(rngs))
    while todo.size * k * rows * cols > SCALAR_RANK_ENTRIES:
        cand = np.stack([rngs[i].integers(0, q, size=(k, rows, cols)) for i in todo])
        ok = (rank_stack(cand.reshape(-1, rows, cols), q) == cols).reshape(-1, k)
        hit = ok.any(axis=1)
        out[todo[hit]] = cand[hit, ok[hit].argmax(axis=1)]
        todo = todo[~hit]
    f = field_new(q)
    for i in todo.tolist():
        out[i] = _first_full_rank(rngs[i], k, rows, cols, f)
    return out


def _first_full_rank(rng: np.random.Generator, k: int, rows: int, cols: int,
                     f: Field) -> np.ndarray:
    """The first rows x cols candidate of full column rank in rng's stream,
    drawn in rounds of k by one integers() call each, as full_rank_stack
    draws them, and ranked in stream order by rank_rows."""
    while True:
        cand = rng.integers(0, f.q, size=(k, rows, cols))
        for j, c in enumerate(cand.tolist()):
            if rank_rows(c, f) == cols:
                return cand[j]


def ranked_entries(spec: ModelSpec) -> int:
    """Entries per draw of the largest stack that sampling and ranking a draw
    of spec builds: the k whole n x n candidates of a GL round, otherwise
    the matrix itself."""
    if spec.kind in GL_KINDS:
        return candidates_per_call(spec.n, spec.n, spec.field.q) * spec.n ** 2
    rows, cols = spec.shape
    return rows * cols


def sample_stack(spec: ModelSpec, rngs: list[np.random.Generator]) -> np.ndarray:
    """One draw from the model per generator, stacked into a (len(rngs),
    rows, cols) integer array with entries in [0, q).

    Draw i consumes rngs[i] alone, exactly as a stack of one would: the
    entry draw of spec.shape, then one draw per override.  Then the whole
    stack is looked up (an override's upper cell by the law cell_sources
    gives it), mirrored kinds copy the strict upper triangle into the lower
    one (negated if alternating), and spec.fixed_cells is written."""
    f = spec.field
    kind, n = spec.kind, spec.n
    if kind in GL_KINDS:
        m = full_rank_stack(rngs, n, n, f.q)
        if kind == "gl-minus-identity":
            return f.vec.sub(m, np.eye(n, dtype=np.int64))
        k = spec.shape[0]
        return m[:, :k, :k]

    mirrored = kind not in ("iid-square", "iid-rect")
    dist = spec.default_dist()
    u, over = [], []
    for rng in rngs:
        u.append(rng.integers(0, dist.denominator, size=spec.shape))
        over.append([rng.integers(0, d.denominator) for _, _, d in spec.overrides])
    m = dist.lookup(np.stack(u))
    over = np.array(over, dtype=np.int64).reshape(len(rngs), -1)
    for k, (i, j, _) in enumerate(spec.overrides):
        if mirrored:
            i, j = min(i, j), max(i, j)
        m[:, i, j] = spec.cell_sources[i, j].lookup(over[:, k])
    if mirrored:
        r, c = np.triu_indices(n, k=1)
        m[:, c, r] = f.vec.sub(0, m[:, r, c]) if "alternating" in kind else m[:, r, c]
    r, c, v = spec.fixed_cells
    m[:, r, c] = v
    return m


def sample_array(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """One draw from the model as an integer array with entries in [0, q)."""
    return sample_stack(spec, [rng])[0]


def corank_of_sample(spec: ModelSpec, seed: int, trial: int = 0) -> int:
    """Corank (rows - rank) of one draw."""
    arr = sample_array(spec, derive_rng(seed, trial))
    return arr.shape[0] - rank_mod_p(arr, spec.field.q)
