"""Run one workload in this (fresh) process and print a JSON report.

    python3 bench/worker.py --workload NAME --seed N --mode setup
    python3 bench/worker.py --workload NAME --seed N --mode run [--seconds S] [--traced]

"setup" times import and set-up only.  "run" then executes rounds of ops
(for S seconds, or else the workload's fixed trace_rounds) and checks their
outputs afterwards.  --traced records spans and replays every Monte Carlo op
layer by layer.  run.py starts this script with src/ on PYTHONPATH.
"""

from time import perf_counter

from host import Probes

# set-up is import and pure Python, so the Fraction kernel probes the host's
# speed before and after it; set-up time counts from T0, before fqrank loads
SETUP_PROBES = Probes("python")
for _ in range(3):
    SETUP_PROBES.take()
T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from importlib.metadata import version  # noqa: E402
from itertools import accumulate  # noqa: E402
from pathlib import Path  # noqa: E402

import fqrank  # noqa: E402
from fqrank import harness  # noqa: E402
from fqrank._fast import rank_mod_p  # noqa: E402

from spans import NullTracer, Tracer, layer_times, top_level_seconds  # noqa: E402
from workloads import WORKLOADS, traced_rank_mod_p  # noqa: E402

MIN_OPS = 100       # so that op_p90_ms has at least ten samples beyond it
MAX_WORKERS = 8     # cap on the threads=nproc repeat
OUT = Path(__file__).resolve().parent / "out"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def execute(wl, rounds, tr, stop):
    """Run rounds of ops in a closed loop until stop(rounds_done, ops_done,
    elapsed) holds after a round, probing the host's speed between ops.
    Returns the ops, their outputs, their host-corrected times, each round's
    op count and wall time, and the probes."""
    ops, outputs, spans, round_sizes, round_walls = [], [], [], [], []
    probes = Probes(wl.probe)
    probes.take()
    t_start = perf_counter()
    for batch in rounds:
        r0 = perf_counter()
        for op in batch:
            probes.maybe()
            tr.op = len(ops)
            t = perf_counter()
            outputs.append(tr.call("bench.op", wl.run, op, tr))
            spans.append((t, perf_counter()))
            ops.append(op)
        round_walls.append(perf_counter() - r0)
        round_sizes.append(len(batch))
        if stop(len(round_walls), len(ops), perf_counter() - t_start):
            break
    probes.take()
    times = [(b - a) / probes.slowdown(a, b) for a, b in spans]
    return ops, outputs, times, round_sizes, round_walls, probes


def end_to_end(ops, times, round_sizes, counters) -> dict:
    """Timed-run metrics from host-corrected op times.  trials_per_s counts
    Monte Carlo trials where the workload has them, else enumerated
    assignments and paths."""
    kinds = ("mc",) if any(op.kind == "mc" for op in ops) else ("formula", "path")
    busy = sum(t for op, t in zip(ops, times) if op.kind in kinds)
    work = counters.get("trials", 0) if kinds == ("mc",) else \
        counters.get("assignments", 0) + counters.get("paths", 0)
    ends = list(accumulate(round_sizes))
    return {
        "wall_s": statistics.median(sum(times[b - n:b]) for n, b in zip(round_sizes, ends)),
        "trials_per_s": work / busy,
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def parallel_repeat(wl, op) -> dict:
    """mc_corank of one op's spec and seed, serially and with threads=nproc;
    the counts must be identical."""
    spec, trials, threads = wl.cases[op.key].spec, wl.parallel_trials, min(nproc(), MAX_WORKERS)
    t = perf_counter()
    serial = harness.mc_corank(spec, trials, op.seed, threads=1)
    t_serial = perf_counter() - t
    t = perf_counter()
    par = harness.mc_corank(spec, trials, op.seed, threads=threads)
    t_par = perf_counter() - t
    return {"threads": threads, "identical": serial.counts == par.counts,
            "speedup": t_serial / t_par}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]()
    tr = Tracer() if args.traced else NullTracer()
    t = perf_counter()
    tr.call("bench.setup", wl.setup, tr)
    setup_wall = perf_counter() - t
    setup_raw = perf_counter() - T0
    for _ in range(3):
        SETUP_PROBES.take()
    host = statistics.median(SETUP_PROBES.took) / SETUP_PROBES.ref
    report = {"setup_s": setup_raw / host, "setup_raw_s": setup_raw,
              "versions": {"fqrank": fqrank.__version__, "python": platform.python_version(),
                           "numpy": version("numpy"), "scipy": version("scipy")}}
    if args.mode == "setup":
        print(json.dumps(report))
        return
    # imported only now: scipy.stats alone takes longer to import than fqrank
    from checks import check_run, digest, op_counters

    rnd = random.Random(f"{wl.name}:{args.seed}")
    never = lambda *_: False  # noqa: E731
    if args.seconds is None:
        rounds, stop = [wl.round(rnd) for _ in range(wl.trace_rounds)], never
    elif wl.repeats > 1:
        rounds, stop = [wl.round(rnd)] * wl.repeats, never
    else:
        rounds = iter(lambda: wl.round(rnd), None)
        stop = lambda done, n_ops, elapsed: elapsed >= args.seconds and n_ops >= MIN_OPS  # noqa: E731
    if args.traced:
        harness.rank_mod_p = traced_rank_mod_p(tr)
    t = perf_counter()
    try:
        ops, outputs, times, round_sizes, round_walls, probes = execute(wl, rounds, tr, stop)
    finally:
        harness.rank_mod_p = rank_mod_p
    traced_wall = setup_wall + perf_counter() - t

    counters = op_counters(wl, ops, outputs)
    if args.seconds is not None and wl.repeats > 1:
        n = round_sizes[0]  # time each op of the repeated round by its fastest run
        times = [min(times[i::n]) for i in range(n)]
        report["metrics"] = end_to_end(ops[:n], times, [n],
                                       op_counters(wl, ops[:n], outputs[:n]))
    else:
        report["metrics"] = end_to_end(ops, times, round_sizes, counters)
    verdict = check_run(wl, ops, outputs, args.seed)
    report.update({
        "attempted": len(ops),
        "failed_ops": sorted(verdict.failed_ops),
        "checks": verdict.summary,
        "counters": counters,
        "digests": [digest(out) for out in outputs],
        "ops_wall_s": sum(round_walls),
        "host_slowdown": statistics.median(probes.took) / probes.ref,
    })
    if args.traced:
        OUT.mkdir(exist_ok=True)
        tr.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
        mc = [op for op in ops if op.kind == "mc"]
        report["trace"] = {
            "layers": layer_times(tr.spans),
            "updates": tr.counters["fast.rank_mod_p.updates"],
            "replay_s": sum(out["replay"]["seconds"] for out in outputs if "replay" in out),
            "wall_s": traced_wall,
            "top_level_s": top_level_seconds(tr.spans),
            "spans": len(tr.names),
            "parallel": parallel_repeat(wl, mc[0]) if mc and wl.parallel_trials else None,
        }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
