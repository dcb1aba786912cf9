"""Command-line front end.

Subcommands:

* ``dist``      exact finite-n or limiting corank PMFs
* ``sample``    one seeded draw from a model spec (JSON file)
* ``mc``        Monte Carlo corank estimation against a reference law
* ``verify``    run a named verification suite (or ``all``)
* ``chain``     exact corank-chain computations
* ``structure`` structure measure of a vector under a model's entry laws

All output is JSON on stdout (``verify --jsonl``: one line per check as it
finishes, then a summary line); ``--csv`` additionally writes a PMF table
with columns corank, mass_num, mass_den.  The exit code is 0 iff every
verification requested in the invocation passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from ._fast import rank_mod_p
from .distributions import LAW_KINDS, CorankPMF, int_str, limit_pmf, uniform_pmf
from .errors import FqRankError, InvalidArgument
from .field import field_new
from .matrix import dumps_matrix
from .models import (GL_KINDS, EntryDist, ModelSpec, _as_matrix, derive_rng, sample_array,
                     validate_conditions)
from . import chain as chain_mod
from . import harness

SUITES = tuple(dict.fromkeys(g.suite for g in harness.CHECKS.values()))


def _open_csv(path: str | None):
    """The --csv file, opened to append so that a run refused before
    _write_csv keeps its content; a null context without one."""
    if not path:
        return nullcontext()
    try:
        return open(path, "a", newline="")
    except OSError as exc:
        raise InvalidArgument(f"cannot write --csv file: {exc}") from None


def _write_csv(fh, pmf: CorankPMF) -> None:
    if fh is None:
        return
    try:
        fh.truncate(0)
        w = csv.writer(fh)
        w.writerow(["corank", "mass_num", "mass_den"])
        for k, mass in pmf.support:
            w.writerow([k, int_str(mass.numerator), int_str(mass.denominator)])
        fh.flush()
    except OSError as exc:
        raise InvalidArgument(f"cannot write --csv file: {exc}") from None


def _fraction_str(x: Fraction) -> str:
    """str(x) at any length (see int_str)."""
    num = int_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{int_str(x.denominator)}"


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def _load_spec(path: str) -> ModelSpec:
    try:
        text = Path(path).read_bytes()
    except OSError as exc:
        raise InvalidArgument(f"cannot read spec file: {exc}") from None
    return ModelSpec.from_json(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_dist(args) -> int:
    if args.m != 0 and args.kind != "rect":
        raise InvalidArgument("--m is read only by rect")
    if args.limit and args.n is not None:
        raise InvalidArgument("--limit takes no --n: a limit law has no size")
    if args.tol is not None and not args.limit:
        raise InvalidArgument("--tol is read only with --limit")
    if args.parity is not None and not (args.limit and args.kind == "alternating"):
        raise InvalidArgument("--parity is read only by the alternating limit law")
    parity = args.parity or "even"
    f = field_new(args.q)
    tol = Fraction(1, 10**30) if args.tol is None else args.tol
    if args.limit:
        pmf = limit_pmf(args.kind, f, args.m, parity, tol)
    elif args.n is None:
        raise InvalidArgument("--n is required without --limit")
    else:
        pmf = uniform_pmf(args.kind, args.n, f, args.m)
    with _open_csv(args.csv) as fh:
        _write_csv(fh, pmf)
    params = {"kind": args.kind, "n": args.n, "m": args.m, "parity": parity,
              "limit": args.limit, "tol": float(tol)}
    _emit(json.loads(pmf.to_json(f.q, params)))
    return 0


def cmd_sample(args) -> int:
    if not math.isfinite(args.alpha):
        raise InvalidArgument("--alpha must be finite")
    spec = _load_spec(args.spec)
    arr = sample_array(spec, derive_rng(args.seed, args.trial))
    out = {
        "matrix": dumps_matrix(_as_matrix(spec.field, arr)),
        "corank": arr.shape[0] - rank_mod_p(arr, spec.field.q),
        "conditions": validate_conditions(spec, args.alpha),
    }
    _emit(out)
    return 0


def cmd_mc(args) -> int:
    if args.threshold is not None and not args.ref:
        raise InvalidArgument("--threshold needs --ref: there is no law to compare against")
    if args.threshold is not None and not math.isfinite(args.threshold):
        raise InvalidArgument("--threshold must be finite")
    spec = _load_spec(args.spec)
    # a bad --ref or --csv is refused before the first trial
    ref = None
    if args.ref:
        parity = "even" if spec.shape[0] % 2 == 0 else "odd"
        ref = limit_pmf(args.ref, spec.field, spec.m, parity, Fraction(1, 10**30))
    with _open_csv(args.csv) as fh:
        result = harness.mc_corank(spec, args.trials, args.seed)
        _write_csv(fh, result.empirical)
    out = {
        "trials": result.trials,
        "seed": result.seed,
        "counts": {str(k): v for k, v in sorted(result.counts.items())},
        "empirical": json.loads(result.empirical.to_json(
            spec.field.q, {"trials": args.trials, "seed": args.seed})),
        "ci_half_widths": {str(k): v for k, v in sorted(result.ci_half_widths.items())},
        "noise_floor": result.noise_floor(),
    }
    ok = True
    if ref is not None:
        report = harness.tv_report(result, ref, threshold=args.threshold,
                                   claim_id=f"mc-vs-limit-{args.ref}")
        out["report"] = report.to_dict()
        ok = report.passed
    _emit(out)
    return 0 if ok else 1


def cmd_chain(args) -> int:
    if args.csv and (args.hit_zero or args.path):
        raise InvalidArgument("--csv writes a PMF, which --hit-zero and --path do not give")
    f = field_new(args.q)
    spec = chain_mod.ChainSpec(args.kind, f, n=args.n)
    if args.hit_zero:
        prob = chain_mod.hit_zero_prob(spec, args.x0, args.steps)
        _emit({"hit_zero_prob": _fraction_str(prob), "hit_zero_prob_float": float(prob)})
    elif args.path:
        path, prob = chain_mod.most_likely_positive_path(spec, args.x0, args.steps)
        _emit({"path": list(path), "probability": _fraction_str(prob),
               "probability_float": float(prob)})
    else:
        pmf = chain_mod.evolve(spec, chain_mod.delta_pmf(args.x0), args.steps)
        with _open_csv(args.csv) as fh:
            _write_csv(fh, pmf)
        params = {"kind": args.kind, "n": args.n, "x0": args.x0, "steps": args.steps}
        _emit(json.loads(pmf.to_json(f.q, params)))
    return 0


def cmd_structure(args) -> int:
    from .structure import rho

    if args.M is not None and args.K is None:
        raise InvalidArgument("--M needs --K: there are no threshold sets to count against")
    spec = _load_spec(args.spec)
    try:
        a = tuple(int(x) for x in args.vector.split(","))
    except ValueError:
        raise InvalidArgument("--vector must be comma-separated integers") from None
    if spec.kind in GL_KINDS or spec.kind.startswith("planted"):
        raise InvalidArgument(f"{spec.kind} entries have no per-entry laws")
    # a mirrored (i, 0) has the source of (0, i); a negated draw keeps every |f|
    col0 = [spec.cell_sources.get((i, 0), spec.default_dist()) for i in range(spec.shape[0])]
    F = {i for i, s in enumerate(col0) if not isinstance(s, EntryDist)}
    dists = [spec.default_dist() if i in F else s for i, s in enumerate(col0)]
    if len(a) != len(dists):
        raise InvalidArgument(f"--vector has {len(a)} coordinates; the spec's "
                              f"columns have {len(dists)}")
    report = rho(a, dists, F=F, K=args.K)
    out = {
        "rho": report.rho,
        "per_t_products": list(report.per_t_products),
        "a": list(report.a),
        "F": sorted(report.F),
        "K": report.K,
        "q": report.q,
    }
    if report.T_sets is not None:
        out["T_sets"] = [sorted(T) for T in report.T_sets]
        if args.M is not None:
            out["meets_unstructured_condition"] = \
                report.meets_unstructured_condition(args.M)
    _emit(out)
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for g in harness.CHECKS.values():
        if g.suite in names:
            for r in g.run():
                reports.append(r)
                if args.jsonl:
                    print(json.dumps(r.to_dict(), default=str), flush=True)
    ok = all(r.passed for r in reports)
    summary = {
        "suites": names,
        "passed": ok,
        "n_checks": len(reports),
        "n_failed": sum(not r.passed for r in reports),
    }
    if args.jsonl:
        print(json.dumps(summary))
    else:
        _emit({**summary, "reports": [r.to_dict() for r in reports]})
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fqrank",
                                description="finite-field random-matrix laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dist", help="exact corank PMFs")
    d.add_argument("kind", choices=LAW_KINDS)
    d.add_argument("--n", type=int)
    d.add_argument("--q", type=int, required=True)
    d.add_argument("--m", type=int, default=0, help="extra columns (rect)")
    d.add_argument("--parity", choices=("even", "odd"),
                   help="parity of the alternating limit law (default even)")
    d.add_argument("--limit", action="store_true", help="limiting law instead of finite n")
    d.add_argument("--tol", type=float, default=None, help="limit truncation tolerance")
    d.add_argument("--csv")
    d.set_defaults(func=cmd_dist)

    s = sub.add_parser("sample", help="one seeded draw from a model spec")
    s.add_argument("spec", help="path to a ModelSpec JSON file")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--trial", type=int, default=0)
    s.add_argument("--alpha", type=float, default=0.05)
    s.set_defaults(func=cmd_sample)

    m = sub.add_parser("mc", help="Monte Carlo corank estimation")
    m.add_argument("spec", help="path to a ModelSpec JSON file")
    m.add_argument("--trials", type=int, required=True)
    m.add_argument("--seed", type=int, required=True)
    m.add_argument("--ref", choices=LAW_KINDS, default=None,
                   help="limiting law to compare against")
    m.add_argument("--threshold", type=float, default=None,
                   help="TV pass threshold for the comparison")
    m.add_argument("--csv")
    m.set_defaults(func=cmd_mc)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(SUITES) + ["all"])
    v.add_argument("--jsonl", action="store_true",
                   help="one JSON line per check as it finishes, then a summary line")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("chain", help="exact corank-chain computations")
    c.add_argument("kind", choices=chain_mod.CHAIN_KINDS)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--x0", type=int, default=0)
    c.add_argument("--steps", type=int, required=True)
    c.add_argument("--n", type=int, help="ambient dimension (iid-column)")
    g = c.add_mutually_exclusive_group()
    g.add_argument("--hit-zero", action="store_true")
    g.add_argument("--path", action="store_true")
    c.add_argument("--csv")
    c.set_defaults(func=cmd_chain)

    st = sub.add_parser("structure", help="structure measure of a vector")
    st.add_argument("spec", help="path to a ModelSpec JSON file")
    st.add_argument("--vector", required=True, help="comma-separated coordinates")
    st.add_argument("--K", type=float, default=None, help="threshold-set parameter")
    st.add_argument("--M", type=int, default=None,
                    help="required unstructured coordinates per t")
    st.set_defaults(func=cmd_structure)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FqRankError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
