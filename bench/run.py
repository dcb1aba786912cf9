"""fqrank benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository.  Each workload runs in fresh Python
processes (bench/worker.py) against the sources in src/; nothing is
installed.  Every output is checked.  The command prints every metric by name
with its unit, then, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0: the end-to-end metrics of BENCHMARK.json.  setup_s is the median
  over SETUP_RUNS fresh processes; the other metrics come from a closed loop
  of ops lasting S seconds.
--trace 1: the per-layer metrics.  The same fixed list of ops runs twice, in
  two fresh processes: untraced, then traced with a span around every call
  into fqrank.  Both runs' outputs and computed counters must agree exactly.

See bench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

START = time.monotonic()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 3
DEADLINE_S = 175  # a run must end within 180 s
REPEATED_COUNTERS = ("trials", "updates", "draws", "assignments", "paths")


def worker(workload: str, seed: int, *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, DEADLINE_S - (time.monotonic() - START)))
    except subprocess.TimeoutExpired:
        sys.exit(f"bench: worker timed out: {' '.join(cmd[1:])}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench: worker failed: {' '.join(cmd[1:])}")
    return json.loads(proc.stdout.splitlines()[-1])


def timed(args) -> tuple[dict, dict, set[int]]:
    setups = [worker(args.workload, args.seed, "--mode", "setup")
              for _ in range(SETUP_RUNS - 1)]
    run = worker(args.workload, args.seed, "--mode", "run", "--seconds", str(args.seconds))
    setups.append(run)
    metrics = dict(run["metrics"], setup_s=statistics.median(s["setup_s"] for s in setups))
    run["raw"] = {"setup_s": statistics.median(s["setup_raw_s"] for s in setups),
                  "host_slowdown": run["host_slowdown"]}
    return metrics, run, set(run["failed_ops"])


def traced(args) -> tuple[dict, dict, set[int]]:
    plain = worker(args.workload, args.seed, "--mode", "run")
    run = worker(args.workload, args.seed, "--mode", "run", "--traced")
    failed = set(plain["failed_ops"]) | set(run["failed_ops"])
    # the same ops in two processes: identical outputs and computed counters
    failed |= {i for i, (a, b) in enumerate(zip(plain["digests"], run["digests"])) if a != b}
    repeated = all(plain["counters"].get(k) == run["counters"].get(k)
                   for k in REPEATED_COUNTERS)
    tr = run["trace"]
    par = tr["parallel"]
    if not repeated or (par and not par["identical"]):
        failed |= set(range(run["attempted"]))
    run["checks"]["counters-repeat"] = [1, int(not repeated)]
    if par:
        run["checks"]["parallel-identical"] = [1, int(not par["identical"])]

    layers = tr["layers"]

    def total(name: str) -> float:
        return layers.get(name, {}).get("total_s", 0.0)

    def rate(count: int, name: str) -> float:
        return count / total(name) if total(name) else 0.0

    c = run["counters"]
    metrics = {
        "fast.rank_mod_p.updates": tr["updates"],
        "fast.rank_mod_p.updates_per_s": rate(tr["updates"], "fast.rank_mod_p"),
        "harness.mc_corank.trials": c.get("trials", 0),
        "harness.mc_corank.overhead_s": total("harness.mc_corank") - tr["replay_s"],
        "harness.mc_corank.parallel_speedup": par["speedup"] if par else 0.0,
        "harness.brute_force_pmf.assignments": c.get("assignments", 0),
        "harness.brute_force_pmf.assignments_per_s":
            rate(c.get("assignments", 0), "harness.brute_force_pmf"),
        "chain.enumerate_positive_paths.paths": c.get("paths", 0),
        "chain.enumerate_positive_paths.paths_per_s":
            rate(c.get("paths", 0), "chain.enumerate_positive_paths"),
        "trace.wall_s": tr["wall_s"],
        "trace.untraced_wall_s": plain["ops_wall_s"],
        # the replay is deliberate extra work, not tracing cost
        "trace.overhead_s": run["ops_wall_s"] - tr["replay_s"] - plain["ops_wall_s"],
        "trace.coverage": tr["top_level_s"] / tr["wall_s"],
        "trace.spans": tr["spans"],
    }
    return metrics, run, failed


def provenance(args, run: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    with open(ROOT / "pyproject.toml", "rb") as fh:
        pyproject_version = tomllib.load(fh)["project"]["version"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"fqrank_version": run["versions"]["fqrank"],
            "pyproject_version": pyproject_version,
            **{k: run["versions"][k] for k in ("python", "numpy", "scipy")},
            "nproc": len(os.sched_getaffinity(0)), "workload": args.workload,
            "seed": args.seed, "git_commit": commit, "src_lines": src_lines}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="fqrank benchmark")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fqrank" / "__init__.py").is_file():
        sys.exit(f"bench: no fqrank sources under {ROOT / 'src'}")

    if args.trace:
        metrics, run, failed = traced(args)
        wanted = spec["per_layer"]
        layers = run["trace"]["layers"]
        for m in wanted:
            layer, _, stat = m["name"].rpartition(".")
            if stat in ("calls", "self_s"):
                metrics[m["name"]] = layers.get(layer, {}).get(stat, 0)
    else:
        metrics, run, failed = timed(args)
        wanted = spec["end_to_end"]
    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        sys.exit(f"bench: metrics differ from BENCHMARK.json: {sorted(mismatch)}")

    attempted = run["attempted"]
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, v in out.items():
        print(f"{name:48s} {v['value']:>16.6g} {v['unit']}")
    print(f"{'failed_ops_frac':48s} {len(failed) / attempted:>16.6g} frac")
    for name, value in run.get("raw", {}).items():
        print(f"{'uncorrected ' + name:48s} {value:>16.6g}")
    for name, (runs, fails) in sorted(run["checks"].items()):
        print(f"check {name:42s} {runs - fails}/{runs} passed")
    prov = provenance(args, run)
    print("provenance " + json.dumps(prov))
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": out}
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, provenance=prov, checks=run["checks"],
                        counters=run["counters"]), indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
