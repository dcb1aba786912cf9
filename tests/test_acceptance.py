"""Acceptance gate: twelve end-to-end criteria, one test each.

Every test runs one group of the check registry (fqrank.harness.CHECKS),
which holds its grids, seeds, trial counts and thresholds, prints a single
PASS/FAIL line (visible with pytest -s or in the captured output of a
failing run) and asserts that every check of the group passed.
"""
import time

from fqrank.harness import CHECKS

THREADS = 4


def _run(group: str) -> list:
    return list(CHECKS[group].run())


def _report(num: int, name: str, passed: bool, t0: float, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"criterion {num:02d} {name}: {status} ({time.time() - t0:.1f}s){extra}")
    assert passed, f"criterion {num} ({name}) failed{extra}"


def _tv(rep) -> str:
    return f"{float(rep.computed['tv']):.4f}"


def test_criterion_01_formula_enumeration_exactness():
    t0 = time.time()
    ok = all(r.passed for r in _run("formula-enumeration"))
    _report(1, "formula-enumeration exactness", ok, t0)


def test_criterion_02_chain_formula_consistency():
    t0 = time.time()
    ok = all(r.passed for r in _run("chain-consistency"))
    _report(2, "chain-formula consistency", ok, t0)


def test_criterion_03_rank_distance_sandwiches():
    t0 = time.time()
    ok = all(r.passed for r in _run("fg-sandwich"))
    _report(3, "rank-distance sandwich bounds", ok, t0)


def test_criterion_04_gl_sampler_uniformity():
    t0 = time.time()
    reports = _run("gl-uniformity")
    _report(4, "GL sampler uniformity", all(r.passed for r in reports), t0,
            "p=" + ",".join(f"{r.computed['p_value']:.3g}" for r in reports))


def test_criterion_05_gl_minus_identity_universality(monkeypatch):
    t0 = time.time()
    monkeypatch.setenv("FQRANK_THREADS", str(THREADS))
    (rep,) = _run("gl-minus-identity")
    _report(5, "invertible-minus-identity corank law", rep.passed, t0,
            f"tv={_tv(rep)} (property-level, noise-dominated)")


def test_criterion_06_gl_corner_universality(monkeypatch):
    t0 = time.time()
    monkeypatch.setenv("FQRANK_THREADS", str(THREADS))
    (rep,) = _run("gl-corner")
    _report(6, "invertible-corner corank law", rep.passed, t0,
            f"tv={_tv(rep)}, exact bound={float(rep.bounds['exact_tv_bound']):.3g}")


def test_criterion_07_planted_corner_convergence():
    t0 = time.time()
    sym, alt = _run("planted-corner")
    _report(7, "planted-corner convergence", sym.passed and alt.passed, t0,
            f"sym tv={float(sym.computed['tv']):.3g} <= "
            f"{float(sym.bounds['upper']):.3g}")


def test_criterion_08_hitting_zero_bound():
    t0 = time.time()
    reports = _run("hit-zero")
    checked = sum(r.bounds["lower"] > 0 for r in reports)
    _report(8, "hitting-zero lower bound",
            all(r.passed for r in reports) and checked > 0, t0,
            f"{checked} non-vacuous grid points")


def test_criterion_09_most_likely_path():
    t0 = time.time()
    ok = all(r.passed for r in _run("most-likely-path"))
    _report(9, "most-likely positive path", ok, t0)


def test_criterion_10_near_uniform_universality(monkeypatch):
    t0 = time.time()
    monkeypatch.setenv("FQRANK_THREADS", str(THREADS))
    reports = _run("near-uniform")
    _report(10, "near-uniform universality (property-level)",
            all(r.passed for r in reports), t0,
            "tv " + " ".join(f"{r.claim_id}:{_tv(r)}" for r in reports))


def test_criterion_11_structure_inequality_suites():
    t0 = time.time()
    ok = all(r.passed for r in _run("structure-inequalities"))
    _report(11, "structure inequality suites", ok, t0)


def test_criterion_12_zero_diagonal_counting():
    t0 = time.time()
    ok = all(r.passed for r in _run("zero-diag-count"))
    _report(12, "zero-diagonal counting identity", ok, t0)
