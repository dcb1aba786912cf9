"""Correctness checks.  They run after the timed phase and decide which ops
failed; a failing pooled check fails every op it pools.

Draws are never pinned to expected values: the Monte Carlo checks accept any
correct sampler (counts are replayed with the same seeds, a subset of trials
is re-ranked by an independent oracle, and the pooled laws are compared with
tolerances loose enough for sampling noise).
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import product

from fqrank import harness, models
from fqrank import distributions as dist
from fqrank.matrix import FqMatrix

from spans import NullTracer
from workloads import ExtField, free_entries, rank_updates, replay_counts

TV_SYSTEMATIC = 0.02  # the gate's property-level TV tolerance
CHI2_P_MIN = 1e-3
REPLAY_EVERY = 6      # an untraced run replays every 6th op of each spec
ORACLE_PER_SPEC = 4   # trials per spec re-ranked by the oracle
AXIOM_SAMPLES = 200   # random triples per field


class Verdict:
    """Per check name: how often it ran and failed; the set of failed ops."""

    def __init__(self):
        self.summary: dict[str, list[int]] = {}
        self.failed_ops: set[int] = set()

    def check(self, name: str, ok: bool, ops) -> None:
        runs = self.summary.setdefault(name, [0, 0])
        runs[0] += 1
        if not ok:
            runs[1] += 1
            self.failed_ops.update(ops)


def check_run(wl, ops, outputs, seed: int) -> Verdict:
    v = Verdict()
    by_key: dict[tuple[str, str], list[int]] = defaultdict(list)
    for i, op in enumerate(ops):
        by_key[op.kind, op.key].append(i)
    for (kind, key), idx in by_key.items():
        if kind == "mc":
            _mc_checks(v, wl.cases[key], ops, outputs, idx)
    gl2 = [i for i, op in enumerate(ops) if op.kind == "gl2"]
    if gl2:
        _gl2_check(v, wl, ops, outputs, gl2)
    _exact_checks(v, ops, outputs)
    if isinstance(wl, ExtField):
        rnd = random.Random(f"axioms:{seed}")
        for f in wl.fields.values():
            v.check("field-axioms", field_axioms(f, rnd), range(len(ops)))
    return v


def _mc_checks(v: Verdict, case, ops, outputs, idx: list[int]) -> None:
    spec = case.spec
    pooled: Counter = Counter()
    oracle_left = ORACLE_PER_SPEC
    for j, i in enumerate(idx):
        op, out = ops[i], outputs[i]
        counts = out["counts"]
        pooled.update(counts)
        v.check("mc-trials", sum(counts.values()) == op.size, [i])
        if spec.kind == "alternating":
            v.check("odd-support", all(k % 2 == spec.n % 2 for k in counts), [i])
        if spec.kind == "uniform-gl":
            v.check("gl-corank-0", set(counts) == {0}, [i])
        replay = out.get("replay")
        if replay is None and j % REPLAY_EVERY == 0:
            replay = replay_counts(spec, op.size, op.seed, NullTracer())
        if replay is None:
            continue
        v.check("replay-counts", replay["counts"] == counts, [i])
        if oracle_left:
            oracle_left -= 1
            v.check("rank-oracle", _oracle_agrees(spec, op.seed, op.seed % op.size), [i])
    if case.ref is not None:
        trials = sum(pooled.values())
        res = harness.MCResult.from_counts(pooled, trials, 0)
        tv, _ = dist.tv_distance(res.empirical, case.ref)
        v.check("pooled-tv", float(tv) <= TV_SYSTEMATIC + 2 * res.noise_floor(), idx)


def _oracle_agrees(spec, seed: int, trial: int) -> bool:
    """corank_of_sample against FqMatrix elimination of the same draw (prime
    fields), or against the pivots of its RREF (extension fields, whose fast
    path already is FqMatrix.rank)."""
    M = models.sample(spec, seed, trial)
    rank = M.rank() if spec.field.k == 1 else len(M.rref()[1])
    return models.corank_of_sample(spec, seed, trial) == M.rows - rank


def _gl2_check(v: Verdict, wl, ops, outputs, idx: list[int]) -> None:
    """One chi-square test of all n=2 draws against the uniform law on
    GL_2(F_q), pooled over q; every draw must be invertible."""
    from scipy.stats import chi2  # slow to import; only this check needs it

    pooled: dict[int, Counter] = defaultdict(Counter)
    for i in idx:
        pooled[ops[i].args[0]].update(outputs[i]["cells"])
    stat, dof, invertible = 0.0, 0, True
    for q, cells in pooled.items():
        f = wl.fields[q]
        gl = [e for e in product(range(q), repeat=4) if FqMatrix(f, 2, 2, e).rank() == 2]
        invertible &= set(cells) <= set(gl)
        expected = sum(cells.values()) / len(gl)
        stat += sum((cells[e] - expected) ** 2 / expected for e in gl)
        dof += len(gl) - 1
    v.check("gl2-chi-square", invertible and chi2.sf(stat, dof) > CHI2_P_MIN, idx)


def _exact_checks(v: Verdict, ops, outputs) -> None:
    hit_zero = []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if op.kind in ("formula", "evolve"):
            v.check("exact-equal", out["closed"] == out["enum"], [i])
        elif op.kind == "planted":
            v.check("planted-bound", out["tv_upper"] <= out["bound"], [i])
        elif op.kind == "hit_zero":
            hit_zero.append(i)
            v.check("hit-zero-bound", out["prob"] >= out["bound"], [i])
        elif op.kind == "path":
            v.check("path-claim", out["claimed"] == out["best"], [i])
        elif "passed" in out:
            v.check(op.kind + "-passed", out["passed"] is True, [i])
    if hit_zero:
        v.check("hit-zero-nonvacuous",
                any(outputs[i]["bound"] > 0 for i in hit_zero), hit_zero)


def field_axioms(f, rnd: random.Random) -> bool:
    """Spot checks of the field axioms and of a^q = a on random elements."""
    for _ in range(AXIOM_SAMPLES):
        a, b, c = (rnd.randrange(f.q) for _ in range(3))
        add, mul = f.add, f.mul
        if not (add(add(a, b), c) == add(a, add(b, c)) and add(a, b) == add(b, a)
                and mul(mul(a, b), c) == mul(a, mul(b, c)) and mul(a, b) == mul(b, a)
                and mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
                and add(a, f.neg(a)) == 0 and mul(a, 1) == a
                and (a == 0 or mul(a, f.inv(a)) == 1) and f.pow(a, f.q) == a):
            return False
    return True


def op_counters(wl, ops, outputs) -> dict[str, int]:
    """Computed work counts; with the same seed they repeat exactly.

    updates is derived from the replayed rank_mod_p calls when the run
    replayed them, otherwise from mc_corank's counts and the matrix shape."""
    c: Counter = Counter()
    for op, out in zip(ops, outputs):
        if op.kind == "mc":
            spec = wl.cases[op.key].spec
            c["trials"] += op.size
            if spec.field.k == 1:
                if "replay" in out:
                    c["updates"] += out["replay"]["updates"]
                else:
                    rows, cols = spec.shape
                    c["updates"] += sum(n * rank_updates(rows, cols, rows - k)
                                        for k, n in out["counts"].items())
        elif op.kind == "gl2":
            c["draws"] += op.size
        elif op.kind == "formula":
            spec = op.args[0]
            c["assignments"] += spec.field.q ** free_entries(spec.kind, spec.n, spec.m)
        elif op.kind == "path":
            c["paths"] += out["paths"]
    return dict(c)


def digest(out: dict) -> str:
    """Fingerprint of an op's output, the replay excluded."""
    def norm(x):
        if isinstance(x, dict):
            return sorted((repr(k), norm(val)) for k, val in x.items())
        return str(x) if isinstance(x, Fraction) else repr(x)
    body = {k: val for k, val in out.items() if k != "replay"}
    return hashlib.sha256(repr(norm(body)).encode()).hexdigest()[:16]
