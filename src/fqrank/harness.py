"""Monte Carlo estimation, enumeration oracles, and verification suites.

Trial t of a run seeded with s draws from the stream keyed by (s, t), so a
worker pool can split the trial range arbitrarily: accumulation is a
commutative integer-count merge and the result is identical to the serial
run.  FQRANK_THREADS caps the worker count (default: serial).  Each worker
walks its range in blocks of consecutive trials, sampled into one stack and
ranked by one call of the stack kernel.  A block holds about 2^18 entries
of the largest stack it ranks (on GL kinds, the k whole candidates per
trial of a rejection round), so memory stays bounded for any matrix size,
and the counts do not depend on where the blocks fall.  The GL checks of
criterion 4 and of `fqrank verify gl` draw through the same blocks.

CHECKS is the one registry of verification checks: an ordered table of
named check groups, one per acceptance criterion plus the GL subspace
checks, each tagged with the `fqrank verify` suite that runs it.  A group
yields its VerificationReports at fixed grids, seeds, trial counts and
thresholds; the acceptance gate and the CLI both read them from here.
The registry stamps each report's runtime; the checks read no clock.
"""

from __future__ import annotations

import math
import os
import random
import time
from collections import Counter
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from ._fast import rank_stack
from .chain import (ChainSpec, delta_pmf, enumerate_positive_paths, evolve,
                    hit_zero_prob, most_likely_positive_path, planted_pmf)
from .distributions import CorankPMF, limit_pmf, tv_distance, uniform_pmf, _pmf
from .errors import InvalidArgument, InvalidSpec, NotPrimePower, TooLargeToEnumerate, need_int
from .field import Field, _factor_prime_power, field_new
from .matrix import FqMatrix, rank_rows
from .models import (GL_KINDS, EntryDist, ModelSpec, TypeFSpec, band_type_f,
                     candidates_per_call, derive_rng, full_rank_stack,
                     near_uniform_dist, ranked_entries, sample_stack,
                     uniform_entry_dist)
from .structure import (SLACK, check_decoupling, check_unconc_implies_uniform,
                        moduli, threshold_set)

Z99 = 2.5758293035489004  # two-sided 99% normal quantile
UCB_DELTA = 1e-3  # failure probability of tv_report's upper confidence bound


@dataclass(frozen=True)
class MCResult:
    counts: dict[int, int]
    trials: int
    seed: int
    empirical: CorankPMF
    ci_half_widths: dict[int, float]

    @staticmethod
    def from_counts(counts: dict[int, int], trials: int, seed: int) -> "MCResult":
        emp = CorankPMF.from_counts(counts, trials)
        hw = {}
        for k, c in counts.items():
            p = c / trials
            hw[k] = Z99 * math.sqrt(p * (1 - p) / trials)
        return MCResult(dict(counts), trials, seed, emp, hw)

    def noise_floor(self) -> float:
        return sum(self.ci_half_widths.values()) / 2


@dataclass
class VerificationReport:
    """One check's result.  runtime is the seconds a CHECKS group spent on
    the report; a check function called directly leaves it at 0.0."""

    claim_id: str
    computed: dict
    bounds: dict
    passed: bool
    runtime: float = 0.0
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "computed": {k: _jsonable(v) for k, v in self.computed.items()},
            "bounds": {k: _jsonable(v) for k, v in self.bounds.items()},
            "passed": self.passed,
            "runtime": self.runtime,
            "notes": self.notes,
        }


def _jsonable(v):
    if isinstance(v, Fraction):
        return float(v)
    if isinstance(v, (np.integer, np.floating)):
        return v.item()
    return v


# ---------------------------------------------------------------------------
# Monte Carlo corank estimation
# ---------------------------------------------------------------------------

# Entries per block of trials: a block's stack and the kernel's temporaries
# stay a few MB whatever the matrix size.
_BLOCK_ENTRIES = 1 << 18


def _block_size(entries: int) -> int:
    """Trials per block when a trial puts `entries` entries on a stack."""
    return max(1, _BLOCK_ENTRIES // entries)


def _blocks(spec: ModelSpec, seed: int, start: int, stop: int) -> Iterator[np.ndarray]:
    """sample_stack of trials start..stop-1, a block of trials at a time."""
    block = _block_size(ranked_entries(spec))
    for a in range(start, stop, block):
        yield sample_stack(spec, [derive_rng(seed, t) for t in range(a, min(a + block, stop))])


def _count_chunk(spec: ModelSpec, seed: int, start: int, stop: int) -> Counter:
    rows = spec.shape[0]
    c: Counter = Counter()
    for stack in _blocks(spec, seed, start, stop):
        c.update((rows - rank_stack(stack, spec.field.q)).tolist())
    return c


def worker_count() -> int:
    """FQRANK_THREADS as a positive integer; unset means serial."""
    raw = os.environ.get("FQRANK_THREADS")
    if raw is None:
        return 1
    if not (raw.strip().isdecimal() and int(raw) >= 1):
        raise InvalidArgument(f"FQRANK_THREADS must be a positive integer, not {raw!r}")
    return int(raw)


def mc_corank(spec: ModelSpec, trials: int, seed: int,
              threads: int | None = None) -> MCResult:
    """Empirical corank PMF from `trials` independently keyed samples."""
    trials, seed = need_int("trials", trials, 1), need_int("seed", seed)
    threads = worker_count() if threads is None else need_int("threads", threads, 1)
    # a worker gets at least one block, so a one-block run stays serial
    threads = min(threads, math.ceil(trials / _block_size(ranked_entries(spec))))
    if threads == 1:
        counts = _count_chunk(spec, seed, 0, trials)
    else:
        chunk = math.ceil(trials / threads)
        ranges = [(i, min(i + chunk, trials)) for i in range(0, trials, chunk)]
        counts = Counter()
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_count_chunk, spec, seed, a, b) for a, b in ranges]
            for fut in futures:
                counts.update(fut.result())
    return MCResult.from_counts(counts, trials, seed)


# ---------------------------------------------------------------------------
# brute-force enumeration oracle
# ---------------------------------------------------------------------------

def brute_force_pmf(spec: ModelSpec) -> CorankPMF:
    """Exact corank PMF by weighted enumeration of all free entries."""
    f = spec.field
    kind = spec.kind
    if kind in GL_KINDS:
        raise InvalidSpec(f"brute force enumeration not defined for kind {kind!r}")
    mirror = kind not in ("iid-square", "iid-rect")
    alt = "alternating" in kind
    m0 = spec.planted.rows if kind.startswith("planted") else 0
    rows, cols = spec.shape
    # the fixed values, mirrored (negated on alternating kinds), then the corner
    grid = [0] * (rows * cols)
    fixed = spec.type_f.fixed_entries() if spec.type_f else {}
    for (r, c), v in fixed.items():
        grid[r * cols + c] = v
        if mirror:
            grid[c * cols + r] = f.neg(v) if alt else v
    for i, j in product(range(m0), repeat=2):
        grid[i * cols + j] = spec.planted.get(i, j)
    # free: every cell, or the (strict on alternating kinds) upper triangle,
    # outside the corner and the fixed cells
    taken = set(fixed) | ({(c, r) for r, c in fixed} if mirror else set())
    positions = [(i, j) for i in range(rows) for j in range(i + alt if mirror else 0, cols)
                 if (i, j) not in taken and not (i < m0 and j < m0)]
    e = len(positions)
    if f.q**e > 10**7:
        raise TooLargeToEnumerate(f"q^{e} assignments exceed the guard")
    # an override below the diagonal is read at its mirror, negated if alternating
    over = {}
    for i, j, d in spec.overrides:
        if mirror and i > j:
            i, j = j, i
            if alt:
                d = EntryDist(tuple(d.probs[f.neg(v)] for v in range(f.q)))
        over[i, j] = d
    dists = [over.get(pos, spec.default_dist()) for pos in positions]
    # integer weights over each law's own denominator, divided out once at the end
    supports = [[(v, w) for v, w in enumerate(d.numerators) if w] for d in dists]
    scale = math.prod(d.denominator for d in dists)
    masses: dict[int, int] = {}
    for assignment in product(*supports):
        weight = 1
        for (i, j), (v, w) in zip(positions, assignment):
            weight *= w
            grid[i * cols + j] = v
            if mirror and i != j:
                grid[j * cols + i] = f.neg(v) if alt else v
        corank = rows - rank_rows([grid[i * cols:(i + 1) * cols] for i in range(rows)], f)
        masses[corank] = masses.get(corank, 0) + weight
    return _pmf({k: Fraction(w, scale) for k, w in masses.items()})


# ---------------------------------------------------------------------------
# theorem verification suites
# ---------------------------------------------------------------------------

_FG_BOUNDS = {
    # kind -> parity -> (lower coeff, lower offset, upper coeff, upper offset);
    # bound = coeff / q^(n + offset).  The alternating odd lower bound uses
    # offset 2: with offset 1 the exact TV already violates it at n=5, q=3,
    # mirroring the exponent shift of the symmetric odd-parity bounds.
    "square": {"any": (Fraction(1, 8), 1, Fraction(3), 1)},
    "rect": {"any": (Fraction(1, 8), 1, Fraction(3), 1)},  # + m applied below
    "symmetric": {
        "even": (Fraction(18, 100), 1, Fraction(225, 100), 1),
        "odd": (Fraction(18, 100), 2, Fraction(2), 2),
    },
    "alternating": {
        "even": (Fraction(18, 100), 1, Fraction(15, 10), 1),
        "odd": (Fraction(37, 100), 2, Fraction(22, 10), 1),
    },
}


def fg_sandwich_check(kind: str, n: int, f: Field, m: int = 0) -> VerificationReport:
    """TV(finite-n law, limiting law) against the published sandwich bounds."""
    q = f.q
    parity = "even" if n % 2 == 0 else "odd"
    lo, lo_off, hi, hi_off = _FG_BOUNDS[kind].get(parity) or _FG_BOUNDS[kind]["any"]
    shift = m if kind == "rect" else 0
    tv, err = tv_distance(uniform_pmf(kind, n, f, m),
                          limit_pmf(kind, f, m, parity, Fraction(1, 10**25)))
    rep = _within(f"fg-sandwich-{kind}-n{n}-q{q}" + (f"-m{m}" if kind == "rect" else ""),
                  {"tv": tv, "tv_err": err}, tv, err,
                  lower=lo / q ** (n + lo_off + shift), upper=hi / q ** (n + hi_off + shift))
    rep.passed = rep.passed and err <= Fraction(1, 10**20)
    return rep


def odlyzko_check(n: int, d: int, k_bad: int, dist: EntryDist, trials: int,
                  seed: int, f: Field) -> VerificationReport:
    """Empirical P(X in V) for random codimension-d subspaces V against the
    (C/q)^(d - k_bad) bound; the first k_bad coordinates are held at 0."""
    n, trials = need_int("n", n, 1), need_int("trials", trials, 1)
    d, k_bad = need_int("d", d, 0, n), need_int("k_bad", k_bad, 0, n)
    q = f.q
    hits = 0
    k = candidates_per_call(n, n - d, q)
    block = _block_size(n * max(k * (n - d), n - d + 1))
    for a in range(0, trials, block):
        rngs = [derive_rng(seed, t) for t in range(a, min(a + block, trials))]
        # each trial takes its first full-rank basis, then draws x from its stream
        basis = full_rank_stack(rngs, n, n - d, q)
        x = dist.lookup(np.stack([rng.integers(0, dist.denominator, size=n) for rng in rngs]))
        x[:, :k_bad] = 0
        aug = np.concatenate([basis, x[:, :, None]], axis=2)
        hits += int((rank_stack(aug, q) == n - d).sum())
    emp = Fraction(hits, trials)
    bound = float(dist.C / q) ** (d - k_bad) if d >= k_bad else 1.0
    slack = 3 * math.sqrt(max(bound * (1 - bound), 1e-12) / trials) + 2 / trials
    passed = float(emp) <= bound + slack
    return VerificationReport(
        claim_id=f"odlyzko-n{n}-d{d}-kbad{k_bad}-q{q}",
        computed={"empirical": emp, "trials": trials},
        bounds={"bound": bound, "slack": slack},
        passed=passed,
    )


def zero_diag_count_check(n: int, f: Field) -> VerificationReport:
    """Count full-rank symmetric n x n matrices with zero diagonal by two
    independent enumeration routes and require exact agreement.

    Route one enumerates the q^(n(n-1)/2) off-diagonal assignments through the
    fixed-entry (type-F diagonal) machinery; route two writes the same
    assignments straight into a symmetric grid with a zero diagonal.  The
    full-rank count of size n-1 symmetric matrices (1 at size 0, the empty
    matrix), over its q^(n(n-1)/2) upper triangles, comes from the
    closed-form law that criterion 1 checks against enumeration.  For even n
    it equals the zero-diagonal count, and passing requires that too."""
    q = f.q
    free = q ** (n * (n - 1) // 2)
    # route one: PMF of the symmetric model with a fixed zero diagonal, rescaled
    # to a count; its guard refuses more than 10^7 assignments for both routes
    diag_zeros = TypeFSpec(tuple((i,) for i in range(n)))
    pmf = brute_force_pmf(ModelSpec(kind="symmetric", field=f, n=n, type_f=diag_zeros))
    via_type_f = pmf.mass(0) * free
    # route two: the same assignments written straight into a zero-diagonal grid
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    grid, direct = [0] * (n * n), 0
    for assignment in product(range(q), repeat=len(pairs)):
        for (i, j), v in zip(pairs, assignment):
            grid[i * n + j] = grid[j * n + i] = v
        direct += rank_rows([grid[i * n:(i + 1) * n] for i in range(n)], f) == n
    smaller = int(uniform_pmf("symmetric", n - 1, f).mass(0) * free) if n > 1 else 1
    passed = via_type_f == direct and (n % 2 == 1 or direct == smaller)
    return VerificationReport(
        claim_id=f"zero-diag-count-n{n}-q{q}",
        computed={"via_type_f": int(via_type_f), "direct": direct,
                  "smaller_full_rank": smaller},
        bounds={"equal": True},
        passed=passed,
        notes=("equals the size n-1 full-rank count" if direct == smaller else
               "differs from the size n-1 full-rank count" + (" (n odd)" if n % 2 else "")),
    )


def submatrix_fullrank_check(n: int, k: int, l: int, trials: int, seed: int,
                             f: Field) -> VerificationReport:
    """Frequency that the first k columns of a uniform GL_n draw restricted to
    the first l coordinates stay independent, against 1 - 2/q^(l-k)."""
    n, trials = need_int("n", n, 1), need_int("trials", trials, 1)
    l = need_int("l", l, 1, n)
    k = need_int("k", k, 1, l)
    q = f.q
    spec = ModelSpec(kind="uniform-gl", field=f, n=n)
    hits = sum(int((rank_stack(g[:, :l, :k], q) == k).sum())
               for g in _blocks(spec, seed, 0, trials))
    emp = hits / trials
    bound = 1 - 2 / q ** (l - k)
    slack = 3 * math.sqrt(max(emp * (1 - emp), 1e-12) / trials) + 2 / trials
    passed = emp >= bound - slack
    return VerificationReport(
        claim_id=f"submatrix-fullrank-n{n}-k{k}-l{l}-q{q}",
        computed={"empirical": emp, "trials": trials},
        bounds={"bound": bound, "slack": slack},
        passed=passed,
        notes="bound is vacuous (negative) and trivially passes" if bound < 0 else "",
    )


def tv_report(result: MCResult, reference: CorankPMF,
              threshold: float | None = None, claim_id: str = "tv") -> VerificationReport:
    """TV(empirical, reference) with the sampling noise floor; the pass
    criterion (threshold) is supplied by the caller.

    tv_ucb is an upper confidence bound, at level 1 - UCB_DELTA, on the TV
    between the sampler's true law and the reference.  The empirical TV moves
    by at most 1/N when one of the N trials changes, so by McDiarmid's
    inequality it falls below its mean by more than sqrt(ln(1/delta)/(2N))
    with probability at most delta; its mean is at least the true TV, since
    TV is convex and the empirical law is unbiased.  tv_err covers the
    reference's truncation.  It is reported only.

    point_mass_tv, 1 minus the reference's largest mass, is the TV of the
    nearest point mass up to the reference's tail: a threshold above it
    passes a sampler that returns one corank every time."""
    tv, err = tv_distance(result.empirical, reference)
    floor = result.noise_floor()
    passed = True if threshold is None else float(tv) <= threshold
    dev = math.sqrt(math.log(1 / UCB_DELTA) / (2 * result.trials))
    ucb = (float(tv + err) + dev) * (1 + 2**-40)  # rounds up past the float error
    point = 1 - max((m for _, m in reference.support), default=Fraction(0))
    return VerificationReport(
        claim_id=claim_id,
        computed={"tv": tv, "tv_err": err, "tv_ucb": ucb, "noise_floor": floor,
                  "trials": result.trials, "point_mass_tv": point},
        bounds={"threshold": threshold, "ucb_delta": UCB_DELTA},
        passed=passed,
        notes="property-level check; tolerance dominated by sampling noise"
              if threshold is not None else "",
    )


def mc_limit_check(spec: ModelSpec, trials: int, seed: int,
                   threshold: float) -> VerificationReport:
    """Monte Carlo corank law of spec against the limit law of its kind:
    TV at most threshold and, on alternating kinds, every corank of the
    parity of n."""
    res = mc_corank(spec, trials, seed)
    n, f = spec.n, spec.field
    ref = limit_pmf(spec.kind, f, spec.m, "even" if n % 2 == 0 else "odd")
    claim = (f"mc-limit-{spec.kind}-n{n}" + (f"-m{spec.m}" if spec.m else "")
             + (f"-nprime{spec.n_prime}" if spec.n_prime else "") + f"-q{f.q}")
    rep = tv_report(res, ref, threshold, claim)
    if "alternating" in spec.kind:
        rep.computed["parity_ok"] = all(k % 2 == n % 2 for k in res.counts)
        rep.passed = rep.passed and rep.computed["parity_ok"]
    return rep


def gl_uniformity_check(n: int, f: Field, trials: int, seed: int) -> VerificationReport:
    """Chi-square goodness of fit of the uniform-gl sampler, as Monte Carlo
    draws it in blocks, against the uniform law on the enumerated elements
    of GL_n(F_q) (small n only); the enumeration must find all
    prod_{i<n} (q^n - q^i) of them.  It refuses q^(n^2) > 10^7 matrices,
    brute_force_pmf's guard.  It passes only on at least 5 expected draws a
    cell, below which the chi-square law of the statistic does not hold."""
    n, trials = need_int("n", n, 1), need_int("trials", trials, 1)
    q = f.q
    if n >= 5 or q ** (n * n) > 10**7:  # n >= 5 holds 2^25 > 10^7 matrices on any field
        raise TooLargeToEnumerate(f"q^{n * n} matrices exceed the guard")
    from scipy.stats import chi2

    # 1 + the cell of each matrix, keyed by its entries read as a base-q
    # number; 0 for a singular matrix
    cell = np.zeros(q ** (n * n), dtype=np.int64)
    cells = 0
    for code, e in enumerate(product(range(q), repeat=n * n)):
        if rank_rows([list(e[i * n:(i + 1) * n]) for i in range(n)], f) == n:
            cells += 1
            cell[code] = cells
    place = q ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
    spec = ModelSpec(kind="uniform-gl", field=f, n=n)
    counts = np.zeros(cells + 1, dtype=np.int64)
    for g in _blocks(spec, seed, 0, trials):
        counts += np.bincount(cell[g.reshape(len(g), -1) @ place], minlength=cells + 1)
    singular, counts = int(counts[0]), counts[1:]
    expected = trials / cells
    stat = float(np.sum((counts - expected) ** 2 / expected))
    pvalue = float(chi2.sf(stat, cells - 1))
    order = math.prod(q**n - q**i for i in range(n))
    return VerificationReport(
        claim_id=f"gl-uniformity-n{n}-q{q}",
        computed={"chi_square": stat, "p_value": pvalue, "cells": cells,
                  "singular": singular, "trials": trials, "expected_per_cell": expected},
        bounds={"p_value_min": 1e-3, "cells": order, "expected_min": 5},
        passed=pvalue > 1e-3 and cells == order and singular == 0 and expected >= 5,
    )


def formula_enumeration_check(kind: str, n: int, f: Field, m: int = 0) -> VerificationReport:
    """Closed-form finite-n PMF against the weighted enumeration oracle;
    the two must agree as exact rationals."""
    return _equal_laws_report(
        f"formula-enum-{kind}-n{n}-q{f.q}" + (f"-m{m}" if kind == "iid-rect" else ""),
        closed_form=uniform_pmf(kind, n, f, m),
        enumeration=brute_force_pmf(ModelSpec(kind=kind, field=f, n=n, m=m)))


def chain_consistency_check(kind: str, n: int, f: Field) -> VerificationReport:
    """evolve(delta_0, n) against the matching closed-form finite-n law."""
    spec = ChainSpec(kind, f, n=n if kind == "iid-column" else None)
    return _equal_laws_report(f"chain-consistency-{kind}-n{n}-q{f.q}",
                              evolved=evolve(spec, delta_pmf(0), n),
                              closed_form=uniform_pmf(kind, n, f))


def _within(claim_id: str, computed: dict, value: Fraction, err: Fraction,
            lower: Fraction | None = None, upper: Fraction | None = None,
            notes: str = "") -> VerificationReport:
    """value, known to within err, against the sides given, which bounds holds
    as lower and upper: passed iff all of [value - err, value + err] lies inside."""
    passed = ((lower is None or value - err >= lower)
              and (upper is None or value + err <= upper))
    bounds = {k: b for k, b in (("lower", lower), ("upper", upper)) if b is not None}
    return VerificationReport(claim_id, computed, bounds, passed, notes=notes)


def _equal_laws_report(claim_id: str, **laws: CorankPMF) -> VerificationReport:
    """Two exact laws, named in computed; passed iff they are equal."""
    a, b = laws.values()
    return VerificationReport(claim_id, {k: p.as_dict() for k, p in laws.items()},
                              {"equal": True}, dict(a.support) == dict(b.support))


def planted_tv_check(kind: str, x0: int, added_steps: int, f: Field) -> VerificationReport:
    """TV(planted-corner law, limiting law) against the exact bound
    3^(n/2) / q^(n/2 - m0) with n = x0 + added_steps and m0 = x0."""
    n, m0, q = x0 + added_steps, x0, f.q
    limit = limit_pmf(kind, f, parity="even" if n % 2 == 0 else "odd", tol=Fraction(1, 10**30))
    tv, err = tv_distance(planted_pmf(kind, x0, added_steps, f), limit)
    # TV >= 0 holds anyway; a certified lower side would fail a law within err
    return _within(f"planted-{kind}-x0{x0}-n{n}-q{q}", {"tv": tv, "tv_err": err}, tv, err,
                   upper=Fraction(3) ** (n // 2) / Fraction(q) ** (n // 2 - m0))


def hit_zero_bound_check(kind: str, m0: int, s: int, f: Field) -> VerificationReport:
    """Exact hitting-zero probability within s steps from corank m0 against
    the lower bound 1 - 3^s / q^(s - m0)."""
    spec = ChainSpec(kind, f) if kind != "iid-column" else ChainSpec(kind, f, n=m0 + s)
    prob = hit_zero_prob(spec, m0, s)
    bound = 1 - Fraction(3) ** s / Fraction(f.q) ** (s - m0)
    vacuous = "bound is vacuous (nonpositive) and trivially holds" if bound <= 0 else ""
    return _within(f"hit-zero-{kind}-m0{m0}-s{s}-q{f.q}", {"hit_zero_prob": prob}, prob, 0,
                   lower=bound, notes=vacuous)


def path_claim_check(kind: str, x0: int, steps: int, f: Field) -> VerificationReport:
    """most_likely_positive_path against exhaustive enumeration of all
    strictly positive paths (ties count as success)."""
    spec = ChainSpec(kind, f)
    path, prob = most_likely_positive_path(spec, x0, steps)
    # each distinct object once gives the same max; equal weights share one Fraction
    best = max({id(p): p for _, p in enumerate_positive_paths(spec, x0, steps)}.values())
    return VerificationReport(
        claim_id=f"path-claim-{kind}-x0{x0}-steps{steps}-q{f.q}",
        computed={"claimed_path": list(path), "claimed_prob": prob, "max_prob": best},
        bounds={"equal": True},
        passed=prob == best,
    )


# ---------------------------------------------------------------------------
# randomized structure-inequality suites
# ---------------------------------------------------------------------------

def _random_dist(rnd, q: int) -> EntryDist:
    weights = [rnd.randrange(0, 5) for _ in range(q)]
    if sum(weights) == 0:
        weights[rnd.randrange(q)] = 1
    total = sum(weights)
    return EntryDist(tuple(Fraction(w, total) for w in weights))


def unconc_uniform_suite(count: int, seed: int) -> VerificationReport:
    """Randomized instances of the subspace anti-concentration inequality
    |P(X in H) - q^-d| <= 2 * max_w |P(X.w = 0) - 1/q|."""
    rnd = random.Random(seed)
    failures = []
    for i in range(count):
        q = rnd.choice([2, 3, 4, 5])
        n = rnd.randrange(2, 6)
        d = rnd.randrange(1, 3)
        f = field_new(q)
        dists = [_random_dist(rnd, q) for _ in range(n)]
        while True:
            basis = [[rnd.randrange(q) for _ in range(n)] for _ in range(n - d)]
            if not basis or FqMatrix.from_rows(f, basis).rank() == n - d:
                break
        fixed = {}
        if rnd.random() < 0.3:
            fixed[rnd.randrange(n)] = rnd.randrange(q)
        lhs, delta, ok = check_unconc_implies_uniform(basis, dists, fixed)
        if not ok:
            failures.append({"instance": i, "q": q, "n": n, "d": d,
                             "lhs": float(lhs), "delta": float(delta)})
    return _no_failures_report(f"unconc-implies-uniform-suite-{count}", failures,
                               instances=count)


def decoupling_suite(count: int, seed: int) -> VerificationReport:
    """Randomized instances of the decoupling inequality
    sup_r |P(x.Ax + b.x = r) - 1/q|^4 <= |P(y.A'y = 0) - 1/q|."""
    rnd = random.Random(seed)
    failures = []
    for i in range(count):
        q = rnd.choice([2, 3])
        m = rnd.randrange(2, 5)
        dists = [_random_dist(rnd, q) for _ in range(m)]
        A = [[rnd.randrange(q) for _ in range(m)] for _ in range(m)]
        b = [rnd.randrange(q) for _ in range(m)]
        size = rnd.randrange(1, m)
        I = rnd.sample(range(m), size)
        lhs4, rhs, ok = check_decoupling(A, b, dists, I)
        if not ok:
            failures.append({"instance": i, "q": q, "m": m,
                             "lhs4": float(lhs4), "rhs": float(rhs)})
    return _no_failures_report(f"decoupling-suite-{count}", failures, instances=count)


def threshold_parseval_check(q_max: int, seed: int = 0) -> VerificationReport:
    """|T| <= C*q/K^2 and sum_y f(y)^2 <= C over all prime powers q <= q_max,
    for a family of stress distributions and a grid of K values."""
    rnd = random.Random(seed)
    failures = []
    qs = [q for q in range(2, q_max + 1) if _is_prime_power(q)]
    for q in qs:
        f = field_new(q)
        dists = [
            uniform_entry_dist(f),
            near_uniform_dist(f, range((q + 1) // 2, q)),  # uniform on the lower half
            # half the mass at 0, the rest uniform (C = q/2 for q > 2)
            EntryDist((Fraction(1, 2),) + (Fraction(1, 2 * (q - 1)),) * (q - 1)),
            _random_dist(rnd, q),
        ]
        for d in dists:
            C = float(d.C)
            parseval = sum(v ** 2 for v in moduli(d))
            if parseval > C + SLACK:
                failures.append({"q": q, "check": "parseval", "sum": parseval, "C": C})
            for K in (0.5, 1.0, 2.0, 4.0):
                T = threshold_set(d, K)
                if len(T) > C * q / K**2 + SLACK:
                    failures.append({"q": q, "check": "threshold", "K": K,
                                     "size": len(T), "bound": C * q / K**2})
    return _no_failures_report(f"threshold-parseval-qmax{q_max}", failures,
                               fields_checked=len(qs))


def _no_failures_report(claim_id: str, failures: list, **computed) -> VerificationReport:
    """Passed iff no instance failed; computed lists the failures last."""
    return VerificationReport(claim_id, {**computed, "failures": failures},
                              {"failures": 0}, not failures)


def _is_prime_power(q: int) -> bool:
    try:
        _factor_prime_power(q)
        return True
    except NotPrimePower:
        return False


# ---------------------------------------------------------------------------
# the check registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckGroup:
    """A group of checks at fixed grids, seeds, trial counts and thresholds,
    and the `fqrank verify` suite that runs it."""

    suite: str
    run: Callable[[], Iterator[VerificationReport]]


def _formula_enumeration():
    for q in (2, 3):
        f = field_new(q)
        for n in (1, 2, 3):
            yield formula_enumeration_check("iid-square", n, f)
            yield formula_enumeration_check("symmetric", n, f)
        yield formula_enumeration_check("iid-rect", 2, f, m=1)
    for n in (1, 2, 3, 4):
        yield formula_enumeration_check("alternating", n, field_new(3))


def _chain_consistency():
    for q in (2, 3, 5):
        kinds = ("symmetric", "iid-column") + (("alternating",) if q % 2 else ())
        for n in range(1, 9):
            for kind in kinds:
                yield chain_consistency_check(kind, n, field_new(q))


def _fg_sandwich():
    for kind, qs, ns in (("square", (2, 3, 4, 5), range(4, 9)),
                         ("symmetric", (2, 3), range(4, 8)),
                         ("alternating", (3, 5), range(4, 8))):
        for q in qs:
            for n in ns:
                yield fg_sandwich_check(kind, n, field_new(q))


def _gl_uniformity():
    yield gl_uniformity_check(2, field_new(2), 60000, seed=101)
    yield gl_uniformity_check(2, field_new(3), 100000, seed=102)


def _gl_minus_identity():
    spec = ModelSpec(kind="gl-minus-identity", field=field_new(7), n=40)
    yield mc_limit_check(spec, 20000, seed=105, threshold=0.02)


def _gl_corner():
    spec = ModelSpec(kind="gl-corner", field=field_new(5), n=40, n_prime=20)
    rep = mc_limit_check(spec, 20000, seed=106, threshold=0.02)
    # the theorem's bound 3/q^n' + 2^(n'+1)/q^(n-n') on the exact TV
    rep.bounds["exact_tv_bound"] = Fraction(3 + 2**21, 5**20)
    yield rep


def _planted_corner():
    for kind in ("symmetric", "alternating"):
        yield planted_tv_check(kind, 4, 36, field_new(7))


def _hit_zero():
    for q in (5, 7, 11):
        for m0 in (1, 2, 4):
            for s in (8, 10, 12):
                yield hit_zero_bound_check("symmetric", m0, s, field_new(q))


def _most_likely_path():
    for kind, q in (("symmetric", 2), ("symmetric", 3), ("alternating", 3)):
        f = field_new(q)
        for x0 in (1, 2, 3, 4):
            for steps in (3, 6, 9):
                yield path_claim_check(kind, x0, steps, f)
        yield path_claim_check(kind, 4, 12, f)


def _near_uniform():
    f = field_new(101)
    d = near_uniform_dist(f, set(range(51, 101)))  # C = 101/51, about 1.98
    for kind, n, m in (("iid-square", 50, 0), ("iid-rect", 50, 5),
                       ("symmetric", 50, 0), ("alternating", 51, 0)):
        spec = ModelSpec(kind=kind, field=f, n=n, m=m, entries=d,
                         type_f=band_type_f(n, 0.05))
        yield mc_limit_check(spec, 20000, seed=110, threshold=0.02)


def _structure_inequalities():
    yield unconc_uniform_suite(200, seed=111)
    yield decoupling_suite(100, seed=112)
    yield threshold_parseval_check(101)


def _zero_diag_count():
    for n, q in ((2, 2), (3, 2), (4, 2), (3, 3)):
        yield zero_diag_count_check(n, field_new(q))


def _gl_subspaces():
    yield submatrix_fullrank_check(8, 3, 6, 4000, seed=13, f=field_new(2))
    yield submatrix_fullrank_check(6, 2, 2, 2000, seed=14, f=field_new(3))
    f5 = field_new(5)
    yield odlyzko_check(6, 3, 0, uniform_entry_dist(f5), 4000, 15, f5)


def _timed(run: Callable[[], Iterator[VerificationReport]]) -> Callable:
    """run, with each report's runtime set to the seconds spent producing it."""
    def timed():
        t0 = time.perf_counter()
        for rep in run():
            rep.runtime = time.perf_counter() - t0
            yield rep
            t0 = time.perf_counter()
    return timed


# Group name, suite and group, in the order of the twelve acceptance criteria,
# then the checks only `fqrank verify` runs.  The acceptance gate runs each
# group once; `fqrank verify SUITE` runs every group of that suite, in order.
CHECKS: dict[str, CheckGroup] = {
    name: CheckGroup(suite, _timed(run)) for name, suite, run in (
        ("formula-enumeration", "formulas", _formula_enumeration),
        ("chain-consistency", "chain", _chain_consistency),
        ("fg-sandwich", "sandwich", _fg_sandwich),
        ("gl-uniformity", "gl", _gl_uniformity),
        ("gl-minus-identity", "theorems", _gl_minus_identity),
        ("gl-corner", "theorems", _gl_corner),
        ("planted-corner", "chain", _planted_corner),
        ("hit-zero", "chain", _hit_zero),
        ("most-likely-path", "chain", _most_likely_path),
        ("near-uniform", "theorems", _near_uniform),
        ("structure-inequalities", "structure", _structure_inequalities),
        ("zero-diag-count", "counting", _zero_diag_count),
        ("gl-subspaces", "gl", _gl_subspaces),
    )}
