"""The benchmark workloads: set-up, op generation and op execution.

Every op is generated from the workload seed before it runs, so fqrank only
sees generated specs and per-op seeds.  Each workload is a closed loop with a
single caller: an op starts when the previous one has returned, and Monte
Carlo runs serially (threads=1).  Ops come in rounds; a round is the fixed
job whose wall time is reported as wall_s.

Calls into fqrank go through a tracer (spans.py) under the name of the layer
they enter, so a traced run records one span per call.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from fqrank import chain, harness, models
from fqrank import distributions as dist
from fqrank._fast import rank_mod_p
from fqrank.field import Field
from fqrank.matrix import FqMatrix
from fqrank.structure import check_decoupling, check_unconc_implies_uniform


@dataclass(frozen=True)
class Op:
    kind: str      # "mc", "gl2", "formula", "evolve", ...
    key: str       # the spec or grid point; checks pool ops by key
    args: tuple = ()
    seed: int = 0
    size: int = 0  # trials of an "mc" op, draws of a "gl2" op


@dataclass(frozen=True)
class Case:
    """A Monte Carlo spec with its reference limit law (None: corank is 0)."""

    spec: models.ModelSpec
    ref: dist.CorankPMF | None


def rank_updates(rows: int, cols: int, rank: int) -> int:
    """Computed element writes of one rank_mod_p call: pivot i rescales its
    row and updates the rows below it, each over the full width."""
    return cols * (rank * rows - rank * (rank - 1) // 2)


def free_entries(kind: str, n: int, m: int) -> int:
    """Free positions brute_force_pmf enumerates for an unconstrained spec."""
    return {"iid-square": n * n, "iid-rect": n * (n + m),
            "symmetric": n * (n + 1) // 2, "alternating": n * (n - 1) // 2}[kind]


def closed_form(kind: str, n: int, m: int, f: Field) -> dist.CorankPMF:
    if kind in ("iid-square", "iid-column"):
        return dist.uniform_square_pmf(n, f)
    if kind == "iid-rect":
        return dist.uniform_rect_pmf(n, m, f)
    if kind == "symmetric":
        return dist.uniform_sym_pmf(n, f)
    return dist.uniform_alt_pmf(n, f)


def limit_law(tr, spec: models.ModelSpec) -> dist.CorankPMF | None:
    f, kind = spec.field, spec.kind
    if kind in ("iid-square", "gl-minus-identity", "gl-corner"):
        return tr.call("distributions.limit_pmf", dist.limit_square_pmf, f)
    if kind == "iid-rect":
        return tr.call("distributions.limit_pmf", dist.limit_rect_pmf, spec.m, f)
    if kind == "symmetric":
        return tr.call("distributions.limit_pmf", dist.limit_sym_pmf, f)
    if kind == "alternating":
        parity = "odd" if spec.n % 2 else "even"
        return tr.call("distributions.limit_pmf", dist.limit_alt_pmf, f, parity)
    return None


def replay_counts(spec: models.ModelSpec, trials: int, seed: int, tr) -> dict:
    """Re-run the trials of mc_corank(spec, trials, seed) one layer call at a
    time: derive_rng -> sample_array -> rank_mod_p on prime fields,
    sample -> FqMatrix.rank on extension fields."""
    t0 = perf_counter()
    f = spec.field
    counts: Counter = Counter()
    updates = 0
    for t in range(trials):
        if f.k == 1:
            rng = tr.call("models.derive_rng", models.derive_rng, seed, t)
            arr = tr.call("models.sample_array", models.sample_array, spec, rng)
            r = tr.call("fast.rank_mod_p", rank_mod_p, arr, f.p)
            n = rank_updates(arr.shape[0], arr.shape[1], r)
            tr.count("fast.rank_mod_p.updates", n)
            updates += n
            counts[arr.shape[0] - r] += 1
        else:
            M = tr.call("models.sample", models.sample, spec, seed, t)
            counts[M.rows - tr.call("matrix.FqMatrix.rank", M.rank)] += 1
    return {"counts": dict(counts), "updates": updates, "seconds": perf_counter() - t0}


def traced_rank_mod_p(tr):
    """rank_mod_p wrapped in a span, for the calls harness makes itself."""
    def wrapped(mat, p):
        r = tr.call("fast.rank_mod_p", rank_mod_p, mat, p)
        tr.count("fast.rank_mod_p.updates", rank_updates(mat.shape[0], mat.shape[1], r))
        return r
    return wrapped


def _random_dist(rnd: random.Random, q: int) -> models.EntryDist:
    """Random entry law, drawn the way criterion 11's suites draw theirs."""
    weights = [rnd.randrange(0, 5) for _ in range(q)]
    if sum(weights) == 0:
        weights[rnd.randrange(q)] = 1
    total = sum(weights)
    return models.EntryDist(tuple(Fraction(w, total) for w in weights))


class Workload:
    name = ""
    trace_rounds = 1          # rounds a traced run replays (>= 100 ops)
    repeats = 1               # >1: a timed run repeats its first round this often
    parallel_trials = 0       # trials of the threads=nproc repeat; 0: none
    field_qs: tuple[int, ...] = ()
    probe = "numpy"           # host-speed probe kernel closest to the ops' code

    def setup(self, tr) -> None:
        """What a user pays per invocation: fields and reference limit laws."""
        self.fields = {q: tr.call("field.Field", Field, q) for q in self.field_qs}
        self.cases = {key: Case(spec, limit_law(tr, spec))
                      for key, spec in self.mc_specs().items()}

    def mc_specs(self) -> dict[str, models.ModelSpec]:
        return {}

    def round(self, rnd: random.Random) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op, tr) -> dict:
        """Execute one op; a traced run also replays Monte Carlo trials."""
        return getattr(self, "run_" + op.kind)(op, tr)

    # -- Monte Carlo ops -------------------------------------------------------

    def mc_ops(self, rnd: random.Random, trials: dict[str, int]) -> list[Op]:
        return [Op("mc", key, seed=rnd.getrandbits(62), size=n)
                for key, n in trials.items()]

    def run_mc(self, op: Op, tr) -> dict:
        spec = self.cases[op.key].spec
        res = tr.call("harness.mc_corank", harness.mc_corank, spec, op.size,
                      op.seed, threads=1)
        out = {"counts": dict(res.counts)}
        if tr.traced:
            out["replay"] = replay_counts(spec, op.size, op.seed, tr)
        return out

    # -- exact ops -------------------------------------------------------------

    def run_formula(self, op: Op, tr) -> dict:
        spec = op.args[0]
        closed = tr.call("distributions.uniform_pmf", closed_form, spec.kind,
                         spec.n, spec.m, spec.field)
        enum = tr.call("harness.brute_force_pmf", harness.brute_force_pmf, spec)
        return {"closed": closed.as_dict(), "enum": enum.as_dict()}


class NearUniform(Workload):
    name = "mc-near-uniform"
    field_qs = (101,)
    trace_rounds = 7
    parallel_trials = 400
    CASES = (("iid-square", 50, 0), ("iid-rect", 50, 5),
             ("symmetric", 50, 0), ("alternating", 51, 0))

    def mc_specs(self):
        f = self.fields[101]
        d = models.near_uniform_dist(f, range(51, 101))  # C = 101/51
        return {kind: models.ModelSpec(kind=kind, field=f, n=n, m=m, entries=d,
                                       type_f=models.band_type_f(n, 0.05))
                for kind, n, m in self.CASES}

    def round(self, rnd):
        return [op for _ in range(4)
                for op in self.mc_ops(rnd, dict.fromkeys(self.cases, 25))]


class Invertible(Workload):
    name = "mc-invertible"
    field_qs = (2, 3, 5, 7)
    trace_rounds = 7
    parallel_trials = 300
    GL2_DRAWS = 400

    def mc_specs(self):
        F = self.fields
        return {
            "gl-minus-identity": models.ModelSpec(kind="gl-minus-identity", field=F[7], n=40),
            "gl-corner": models.ModelSpec(kind="gl-corner", field=F[5], n=40, n_prime=20),
            "uniform-gl": models.ModelSpec(kind="uniform-gl", field=F[2], n=40),
        }

    def round(self, rnd):
        ops = []
        for _ in range(3):
            ops += self.mc_ops(rnd, dict.fromkeys(self.cases, 20))
            ops += [Op("gl2", f"gl2-q{q}", (q,), rnd.getrandbits(62), self.GL2_DRAWS)
                    for q in (2, 3)]
        return ops

    def run_gl2(self, op, tr):
        f = self.fields[op.args[0]]
        cells: Counter = Counter()
        for t in range(op.size):
            cells[tr.call("models.sample_gl", models.sample_gl, 2, f, op.seed, t).entries] += 1
        return {"cells": cells}


class ExactOracles(Workload):
    """The exact gate criteria 1-3, 7-9, 11 and 12 at their gate grids.

    One round outlasts a run, and most of it is three calls of several
    seconds each, which no probe can watch; so a timed run runs the same
    round twice and times each op by the faster of its two runs."""

    name = "exact-oracles"
    field_qs = (2, 3, 4, 5, 7, 11)
    probe = "python"
    repeats = 2

    def round(self, rnd):
        F = self.fields
        ops = []
        # criterion 1: closed forms against the enumeration oracle
        grid = [(kind, n, 0, q) for q in (2, 3) for n in (1, 2, 3)
                for kind in ("iid-square", "symmetric")]
        grid += [("iid-rect", 2, 1, q) for q in (2, 3)]
        grid += [("alternating", n, 0, 3) for n in (1, 2, 3, 4)]
        for kind, n, m, q in grid:
            spec = models.ModelSpec(kind=kind, field=F[q], n=n, m=m)
            ops.append(Op("formula", f"{kind}-n{n}-m{m}-q{q}", (spec,)))
        # criterion 2: chain evolution against the closed forms
        for q in (2, 3, 5):
            for n in range(1, 9):
                for kind in ("symmetric", "iid-column", "alternating"):
                    if kind != "alternating" or q % 2:
                        ops.append(Op("evolve", f"{kind}-n{n}-q{q}", (kind, n, q)))
        # criterion 3: sandwich bounds
        grid = [("square", n, q) for q in (2, 3, 4, 5) for n in range(4, 9)]
        grid += [("symmetric", n, q) for q in (2, 3) for n in range(4, 8)]
        grid += [("alternating", n, q) for q in (3, 5) for n in range(4, 8)]
        ops += [Op("sandwich", f"{k}-n{n}-q{q}", (k, n, q)) for k, n, q in grid]
        # criterion 7: planted corners
        ops += [Op("planted", k, (k, 4, 36, 7)) for k in ("symmetric", "alternating")]
        # criterion 8: hitting zero
        ops += [Op("hit_zero", f"m{m0}-s{s}-q{q}", (m0, s, q))
                for q in (5, 7, 11) for m0 in (1, 2, 4) for s in (8, 10, 12)]
        # criterion 9: most likely positive path against exhaustive enumeration
        for kind, q in (("symmetric", 2), ("symmetric", 3), ("alternating", 3)):
            grid = [(x0, s) for x0 in (1, 2, 3, 4) for s in (3, 6, 9)] + [(4, 12)]
            ops += [Op("path", f"{kind}-x{x0}-s{s}-q{q}", (kind, x0, s, q))
                    for x0, s in grid]
        # criterion 11: structure inequalities on instances drawn from the seed
        ops += [self._unconc_instance(rnd, i) for i in range(200)]
        ops += [self._decoupling_instance(rnd, i) for i in range(100)]
        ops.append(Op("threshold", "qmax101", (101,), rnd.getrandbits(62)))
        # criterion 12: zero-diagonal counting identity
        ops += [Op("zero_diag", f"n{n}-q{q}", (n, q))
                for n, q in ((2, 2), (3, 2), (4, 2), (3, 3))]
        # spread each criterion's ops over the round, so that no percentile
        # rests on one short stretch of the host's speed
        rnd.shuffle(ops)
        return ops

    def _unconc_instance(self, rnd, i):
        q = rnd.choice([2, 3, 4, 5])
        n = rnd.randrange(2, 6)
        d = rnd.randrange(1, 3)
        dists = [_random_dist(rnd, q) for _ in range(n)]
        while True:
            basis = [[rnd.randrange(q) for _ in range(n)] for _ in range(n - d)]
            if not basis or FqMatrix.from_rows(self.fields[q], basis).rank() == n - d:
                break
        fixed = {}
        if rnd.random() < 0.3:
            fixed[rnd.randrange(n)] = rnd.randrange(q)
        return Op("unconc", f"unconc-{i}", (basis, dists, fixed))

    def _decoupling_instance(self, rnd, i):
        q = rnd.choice([2, 3])
        m = rnd.randrange(2, 5)
        dists = [_random_dist(rnd, q) for _ in range(m)]
        A = [[rnd.randrange(q) for _ in range(m)] for _ in range(m)]
        b = [rnd.randrange(q) for _ in range(m)]
        I = rnd.sample(range(m), rnd.randrange(1, m))
        return Op("decoupling", f"decoupling-{i}", (A, b, dists, I))

    def run_evolve(self, op, tr):
        kind, n, q = op.args
        f = self.fields[q]
        spec = chain.ChainSpec(kind, f, n=n if kind == "iid-column" else None)
        evolved = tr.call("chain.evolve", chain.evolve, spec, chain.delta_pmf(0), n)
        closed = tr.call("distributions.uniform_pmf", closed_form, kind, n, 0, f)
        return {"closed": closed.as_dict(), "enum": evolved.as_dict()}

    def run_sandwich(self, op, tr):
        kind, n, q = op.args
        rep = tr.call("harness.fg_sandwich_check", harness.fg_sandwich_check,
                      kind, n, self.fields[q])
        return {"passed": rep.passed}

    def run_planted(self, op, tr):
        kind, x0, added, q = op.args
        f, n = self.fields[q], x0 + added
        tol = Fraction(1, 10**30)
        planted = tr.call("chain.planted_pmf", chain.planted_pmf, kind, x0, added, f)
        if kind == "symmetric":
            limit = tr.call("distributions.limit_pmf", dist.limit_sym_pmf, f, tol)
        else:
            limit = tr.call("distributions.limit_pmf", dist.limit_alt_pmf, f,
                            "even" if n % 2 == 0 else "odd", tol)
        tv, err = tr.call("distributions.tv_distance", dist.tv_distance, planted, limit)
        return {"tv_upper": tv + err, "bound": Fraction(3 ** (n // 2), q ** (n // 2 - x0))}

    def run_hit_zero(self, op, tr):
        m0, s, q = op.args
        f = self.fields[q]
        prob = tr.call("chain.hit_zero_prob", chain.hit_zero_prob,
                       chain.ChainSpec("symmetric", f), m0, s)
        return {"prob": prob, "bound": 1 - Fraction(3**s, q ** (s - m0))}

    def run_path(self, op, tr):
        kind, x0, steps, q = op.args
        spec = chain.ChainSpec(kind, self.fields[q])
        _, claimed = tr.call("chain.most_likely_positive_path",
                             chain.most_likely_positive_path, spec, x0, steps)
        paths = tr.call("chain.enumerate_positive_paths",
                        chain.enumerate_positive_paths, spec, x0, steps)
        return {"claimed": claimed, "best": max(p for _, p in paths),
                "paths": len(paths)}

    def run_unconc(self, op, tr):
        _, _, ok = tr.call("structure.check_unconc_implies_uniform",
                           check_unconc_implies_uniform, *op.args)
        return {"passed": ok}

    def run_decoupling(self, op, tr):
        _, _, ok = tr.call("structure.check_decoupling", check_decoupling, *op.args)
        return {"passed": ok}

    def run_threshold(self, op, tr):
        rep = tr.call("harness.threshold_parseval_check",
                      harness.threshold_parseval_check, op.args[0], op.seed)
        return {"passed": rep.passed}

    def run_zero_diag(self, op, tr):
        n, q = op.args
        rep = tr.call("harness.zero_diag_count_check", harness.zero_diag_count_check,
                      n, self.fields[q])
        return {"passed": rep.passed}


class ExtField(Workload):
    """The only workload on extension fields: field tables and FqMatrix
    elimination, which prime fields bypass."""

    name = "ext-field"
    field_qs = (4, 9, 256, 6561, 1 << 16)
    probe = "python"
    trace_rounds = 10
    parallel_trials = 400
    MC_TRIALS = {"q4-iid-square": 40, "q9-symmetric": 50,
                 "q256-iid-square": 30, "q6561-alternating": 2}

    def mc_specs(self):
        F = self.fields
        return {
            "q4-iid-square": models.ModelSpec(kind="iid-square", field=F[4], n=10),
            "q9-symmetric": models.ModelSpec(kind="symmetric", field=F[9], n=10),
            "q256-iid-square": models.ModelSpec(kind="iid-square", field=F[256], n=8),
            "q6561-alternating": models.ModelSpec(kind="alternating", field=F[6561], n=9),
        }

    def round(self, rnd):
        ops = self.mc_ops(rnd, self.MC_TRIALS) + self.mc_ops(rnd, self.MC_TRIALS)
        f = self.fields[4]
        for kind, n, m in (("symmetric", 3, 0), ("iid-rect", 2, 1), ("iid-square", 2, 0)):
            spec = models.ModelSpec(kind=kind, field=f, n=n, m=m)
            ops.append(Op("formula", f"{kind}-n{n}-m{m}-q4", (spec,)))
        return ops


WORKLOADS = {w.name: w for w in (NearUniform, Invertible, ExactOracles, ExtField)}
