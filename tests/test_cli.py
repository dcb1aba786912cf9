import json
from decimal import Decimal
from fractions import Fraction

import pytest

from fqrank import models
from fqrank.cli import main
from fqrank.matrix import FqMatrix, loads_matrix


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_dist_finite(capsys):
    code, obj = run(capsys, "dist", "square", "--n", "2", "--q", "2")
    assert code == 0
    assert obj["support"] == [[0, "3/8"], [1, "9/16"], [2, "1/16"]]
    assert obj["q"] == 2
    assert obj["params"] == {"kind": "square", "n": 2, "m": 0, "parity": "even",
                             "limit": False, "tol": 1e-30}


def test_dist_limit_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "pmf.csv"
    code, obj = run(capsys, "dist", "symmetric", "--q", "3", "--limit",
                    "--csv", str(csv_path))
    assert code == 0
    assert obj["kind"] == "truncated-limit"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "corank,mass_num,mass_den"
    assert len(lines) > 2


def test_dist_alternating_parity(capsys):
    code, obj = run(capsys, "dist", "alternating", "--q", "3", "--limit",
                    "--parity", "odd", "--tol", "1e-20")
    assert code == 0
    assert all(k % 2 == 1 for k, _ in obj["support"])
    assert obj["q"] == 3
    assert obj["params"] == {"kind": "alternating", "n": None, "m": 0, "parity": "odd",
                             "limit": True, "tol": 1e-20}


def test_dist_prints_masses_of_any_length(tmp_path, capsys):
    # at this tol the q=2 masses pass the 4,300 digits that str() of an int allows
    csv_path = tmp_path / "pmf.csv"
    code, obj = run(capsys, "dist", "square", "--q", "2", "--limit", "--tol", "1e-31",
                    "--csv", str(csv_path))
    assert code == 0

    def exact(num, den):
        return Fraction(int(Decimal(num)), int(Decimal(den)))

    masses = [exact(*m.split("/")) for _, m in obj["support"]]
    assert max(len(m) for _, m in obj["support"]) > 4300
    assert sum(masses) + exact(*obj["tail_bound"].split("/")) == 1
    rows = csv_path.read_text().strip().splitlines()[1:]
    assert [exact(*r.split(",")[1:]) for r in rows] == masses


def test_sample_subcommand(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "symmetric", "q": 3, "n": 3}))
    code, obj = run(capsys, "sample", str(spec), "--seed", "7")
    assert code == 0
    assert obj["matrix"].startswith("3 3 3")
    assert obj["conditions"]["all_ok"]


def test_sample_corank_comes_from_the_stack_kernel(tmp_path, capsys, monkeypatch):
    # the scalar FqMatrix elimination checks each corank, then is made to
    # raise: fqrank sample must not call it, and prints the same output
    path = tmp_path / "spec.json"
    specs = [{"kind": "symmetric", "q": 3, "n": 5},
             {"kind": "iid-rect", "q": 5, "n": 3, "m": 2},
             {"kind": "alternating", "q": 9, "n": 4, "F": [[1]], "F_values": [[2]]},
             {"kind": "gl-corner", "q": 4, "n": 4, "n_prime": 2},
             {"kind": "planted-symmetric", "q": 2, "n": 3, "planted": "2 2 2 1 1 1 0"}]
    argvs = [["sample", str(path), "--seed", str(seed), "--trial", str(trial)]
             for seed, trial in ((1, 0), (7, 3))]

    def outputs():
        out = []
        for spec in specs:
            path.write_text(json.dumps(spec))
            for argv in argvs:
                assert main(argv) == 0
                out.append(capsys.readouterr().out)
        return out

    before = outputs()
    for out in before:
        obj = json.loads(out)
        assert obj["corank"] == loads_matrix(obj["matrix"]).corank()

    def scalar_rank(self):
        raise AssertionError("fqrank sample ranked with FqMatrix")

    monkeypatch.setattr(FqMatrix, "rank", scalar_rank)
    monkeypatch.setattr(FqMatrix, "corank", scalar_rank)
    assert outputs() == before


@pytest.mark.parametrize("spec", [
    {"kind": "symmetric", "q": 3, "n": 4},
    {"kind": "uniform-gl", "q": 2, "n": 3},
    {"kind": "gl-corner", "q": 5, "n": 4, "n_prime": 2},
])
def test_sample_draws_its_matrix_once(tmp_path, capsys, monkeypatch, spec):
    # the printed matrix and its corank come from one draw, GL rejection included
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    calls = []
    draw = models.sample_stack
    monkeypatch.setattr(models, "sample_stack",
                        lambda *args: calls.append(1) or draw(*args))
    code, obj = run(capsys, "sample", str(path), "--seed", "3", "--trial", "2")
    assert code == 0 and len(calls) == 1
    assert obj["corank"] == loads_matrix(obj["matrix"]).corank()


def test_mc_subcommand_with_reference(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "iid-square", "q": 2, "n": 8}))
    code, obj = run(capsys, "mc", str(spec), "--trials", "2000", "--seed", "1",
                    "--ref", "square", "--threshold", "0.05")
    assert code == 0
    assert obj["trials"] == 2000
    assert obj["report"]["passed"]
    assert obj["empirical"]["q"] == 2
    assert obj["empirical"]["params"] == {"trials": 2000, "seed": 1}


def test_chain_evolve_and_flags(capsys):
    code, obj = run(capsys, "chain", "symmetric", "--q", "2", "--x0", "0",
                    "--steps", "2")
    assert code == 0
    assert obj["support"] == [[0, "1/2"], [1, "3/8"], [2, "1/8"]]
    assert obj["q"] == 2
    assert obj["params"] == {"kind": "symmetric", "n": None, "x0": 0, "steps": 2}

    code, obj = run(capsys, "chain", "symmetric", "--q", "3", "--x0", "2",
                    "--steps", "6", "--hit-zero")
    assert code == 0
    assert 0 < obj["hit_zero_prob_float"] < 1

    code, obj = run(capsys, "chain", "alternating", "--q", "3", "--x0", "3",
                    "--steps", "5", "--path")
    assert code == 0
    assert len(obj["path"]) == 6


def test_chain_prints_the_planted_corner_law(capsys):
    from fqrank.chain import planted_pmf
    from fqrank.field import field_new

    # planted_pmf is evolve from delta(x0), so --x0 and --steps give it and
    # there is no --planted flag
    code, obj = run(capsys, "chain", "symmetric", "--q", "3", "--x0", "2", "--steps", "4")
    assert code == 0
    law = planted_pmf("symmetric", 2, 4, field_new(3))
    assert obj["support"] == [[k, str(p)] for k, p in law.support]
    with pytest.raises(SystemExit) as exc:
        main(["chain", "symmetric", "--q", "3", "--x0", "2", "--steps", "4", "--planted"])
    assert exc.value.code == 2


def test_structure_reads_column0_laws(tmp_path, capsys):
    from fqrank.models import EntryDist
    from fqrank.structure import rho

    half = EntryDist((Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    point = EntryDist((Fraction(0), Fraction(1), Fraction(0)))
    spec = tmp_path / "spec.json"
    # iid-square: only the override of (1, 0) is in column 0.  symmetric:
    # (0, 2) is mirrored to (2, 0), and F's (0, 1) to the fixed row 1.
    for obj, laws, F in (
        ({"kind": "iid-square", "q": 3, "n": 3,
          "entries": {"default": ["1/2", "1/2", "0"],
                      "overrides": [[1, 0, ["0", "1", "0"]], [0, 1, ["1", "0", "0"]]]}},
         [half, point, half], ()),
        ({"kind": "symmetric", "q": 3, "n": 3, "F": [[], [0]],
          "entries": {"default": ["1/2", "1/2", "0"],
                      "overrides": [[0, 2, ["0", "1", "0"]]]}},
         [half, half, point], (1,)),
    ):
        spec.write_text(json.dumps(obj))
        code, out = run(capsys, "structure", str(spec), "--vector", "1,2,1")
        assert code == 0
        assert out["rho"] == rho((1, 2, 1), laws, F=F).rho
        assert out["F"] == list(F)
        assert out["rho"] != rho((1, 2, 1), [half] * 3).rho


def test_structure_subcommand(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "kind": "iid-square", "q": 3, "n": 2,
        "entries": {"default": ["1/2", "1/2", "0"], "overrides": []},
    }))
    code, obj = run(capsys, "structure", str(spec), "--vector", "1,1",
                    "--K", "1", "--M", "0")
    assert code == 0
    assert abs(obj["rho"] - 1 / 6) < 1e-9
    assert obj["meets_unstructured_condition"] is True


def test_verify_counting_suite(capsys):
    code, obj = run(capsys, "verify", "counting")
    assert code == 0
    assert obj["passed"] and obj["n_failed"] == 0


def test_verify_jsonl_streams_each_report(monkeypatch, capsys):
    from fqrank import harness

    seen = []

    def group():
        yield harness.VerificationReport("first", {}, {}, True, runtime=0.5)
        seen.append(capsys.readouterr().out)  # printed before the next check runs
        yield harness.VerificationReport("second", {}, {}, False, runtime=0.25)

    monkeypatch.setattr(harness, "CHECKS", {"g": harness.CheckGroup("counting", group)})
    code = main(["verify", "counting", "--jsonl"])
    first = json.loads(seen[0])
    assert (first["claim_id"], first["passed"], first["runtime"]) == ("first", True, 0.5)
    second, summary = map(json.loads, capsys.readouterr().out.splitlines())
    assert (second["claim_id"], second["runtime"]) == ("second", 0.25)
    assert summary == {"suites": ["counting"], "passed": False, "n_checks": 2,
                       "n_failed": 1}
    assert code == 1


def test_error_exit_code(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "iid-square", "q": 6, "n": 2}))
    code = main(["sample", str(spec), "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "NotPrimePower" in captured.err


_BIG_DENOMINATOR = {"kind": "iid-square", "q": 3, "n": 3, "entries": {"default": [
    "1/999999999989", "1/999999999961", "999999999948000000000479/999999999950000000000429"]}}


@pytest.mark.parametrize("spec, argv, error", [
    ({"kind": "iid-square", "n": 2}, ["sample", "SPEC", "--seed", "1"], "InvalidSpec"),
    ({"kind": "planted-symmetric", "q": 3, "n": 3, "planted": "3 2"},
     ["sample", "SPEC", "--seed", "1"], "DimensionMismatch"),
    (None, ["dist", "square", "--n", "0", "--q", "3"], "InvalidArgument"),
    (None, ["chain", "symmetric", "--q", "3", "--x0", "-1", "--steps", "2"],
     "InvalidArgument"),
    (None, ["dist", "square", "--q", "3", "--limit", "--tol", "nan"], "InvalidArgument"),
    (None, ["dist", "square", "--q", "3", "--limit", "--tol", "inf"], "InvalidArgument"),
    (None, ["dist", "square", "--q", "3", "--limit", "--tol", "0"], "InvalidArgument"),
    (None, ["sample", "SPEC", "--seed", "1"], "InvalidArgument"),  # no such file
    ({"kind": "iid-square", "q": 2, "n": 10**12}, ["sample", "SPEC", "--seed", "1"],
     "TooLarge"),
    # spec parts that sampling would ignore or contradict
    ({"kind": "uniform-gl", "q": 3, "n": 2, "entries": {"default": ["1/2", "1/2", "0"]}},
     ["sample", "SPEC", "--seed", "1"], "InvalidSpec"),
    ({"kind": "gl-minus-identity", "q": 3, "n": 2,
      "entries": {"overrides": [[0, 1, ["0", "1", "0"]]]}},
     ["sample", "SPEC", "--seed", "1"], "InvalidSpec"),
    ({"kind": "gl-corner", "q": 3, "n": 3, "n_prime": 2, "F": [[1]]},
     ["sample", "SPEC", "--seed", "1"], "InvalidSpec"),
    ({"kind": "planted-symmetric", "q": 3, "n": 3, "planted": "3 2 2 1 2 2 1",
      "entries": {"default": ["1/2", "1/2", "0"]}}, ["sample", "SPEC", "--seed", "1"],
     "InvalidSpec"),
    ({"kind": "planted-symmetric", "q": 3, "n": 3, "planted": "3 2 2 1 2 2 1", "F": [[1]]},
     ["sample", "SPEC", "--seed", "1"], "InvalidSpec"),
    ({"kind": "planted-symmetric", "q": 3, "n": 3, "planted": "3 2 2 1 2 2 1",
      "entries": {"overrides": [[0, 1, ["0", "1", "0"]]]}},
     ["mc", "SPEC", "--trials", "10", "--seed", "1"], "InvalidSpec"),
    # coordinates outside [0, q)
    ({"kind": "iid-square", "q": 4, "n": 2}, ["structure", "SPEC", "--vector", "1,7"],
     "InvalidArgument"),
    ({"kind": "iid-square", "q": 4, "n": 2}, ["structure", "SPEC", "--vector=-1,1"],
     "InvalidArgument"),
    # a vector that is not a column of the spec, and kinds without per-entry laws
    ({"kind": "iid-square", "q": 3, "n": 3,
      "entries": {"overrides": [[1, 0, ["0", "1", "0"]]]}},
     ["structure", "SPEC", "--vector", "1,1,1,1,1"], "InvalidArgument"),
    ({"kind": "uniform-gl", "q": 3, "n": 2}, ["structure", "SPEC", "--vector", "1,1"],
     "InvalidArgument"),
    ({"kind": "planted-symmetric", "q": 3, "n": 3, "planted": "3 1 1 1"},
     ["structure", "SPEC", "--vector", "1,1,1"], "InvalidArgument"),
    # entry laws whose common denominator exceeds the int64 draws, from
    # strings and from floats given to limit_denominator(10**12)
    (_BIG_DENOMINATOR, ["sample", "SPEC", "--seed", "1"], "TooLarge"),
    (_BIG_DENOMINATOR, ["mc", "SPEC", "--trials", "10", "--seed", "1"], "TooLarge"),
    ({"kind": "iid-square", "q": 3, "n": 3, "entries": {"default": [
        1 / 999999999989, 1 / 999999999961, _BIG_DENOMINATOR["entries"]["default"][2]]}},
     ["mc", "SPEC", "--trials", "10", "--seed", "1"], "TooLarge"),
    # spec parts that only other kinds read
    ({"kind": "iid-square", "q": 3, "n": 3, "planted": "3 1 1\n1\n"},
     ["sample", "SPEC", "--seed", "1"], "InvalidSpec"),
    ({"kind": "uniform-gl", "q": 3, "n": 3, "n_prime": 2},
     ["sample", "SPEC", "--seed", "1"], "InvalidSpec"),
    ({"kind": "symmetric", "q": 3, "n": 3, "m": 2},
     ["mc", "SPEC", "--trials", "10", "--seed", "1", "--ref", "rect"], "InvalidSpec"),
    # sizes that are not JSON integers
    ({"kind": "iid-square", "q": 3, "n": 2.7}, ["sample", "SPEC", "--seed", "1"],
     "InvalidSpec"),
    ({"kind": "iid-square", "q": 3, "n": True}, ["sample", "SPEC", "--seed", "1"],
     "InvalidSpec"),
    # a pass threshold with no law to compare against
    ({"kind": "iid-square", "q": 3, "n": 3},
     ["mc", "SPEC", "--trials", "10", "--seed", "1", "--threshold", "0.0"],
     "InvalidArgument"),
    # seeds and trials outside signed 64-bit
    ({"kind": "iid-square", "q": 3, "n": 2}, ["sample", "SPEC", "--seed", str(2**64)],
     "InvalidArgument"),
    ({"kind": "iid-square", "q": 3, "n": 2}, ["sample", "SPEC", "--seed", str(-2**63 - 1)],
     "InvalidArgument"),
    ({"kind": "iid-square", "q": 3, "n": 2},
     ["sample", "SPEC", "--seed", "1", "--trial", str(-2**63 - 1)], "InvalidArgument"),
    ({"kind": "iid-square", "q": 3, "n": 2},
     ["mc", "SPEC", "--trials", "10", "--seed", str(2**64)], "InvalidArgument"),
    # probability strings Fraction divides by zero on, or would spend minutes on
    ({"kind": "iid-square", "q": 2, "n": 2, "entries": {"default": ["1/0", "1/2"]}},
     ["sample", "SPEC", "--seed", "1"], "InvalidSpec"),
    ({"kind": "iid-square", "q": 2, "n": 2, "entries": {"default": ["0/0", "1"]}},
     ["sample", "SPEC", "--seed", "1"], "InvalidSpec"),
    ({"kind": "iid-square", "q": 2, "n": 2, "entries": {"default": ["1e-99999999", "1"]}},
     ["sample", "SPEC", "--seed", "1"], "InvalidSpec"),
    # negative step counts and extra columns
    (None, ["chain", "symmetric", "--q", "3", "--x0", "1", "--steps", "-1", "--path"],
     "InvalidArgument"),
    (None, ["chain", "symmetric", "--q", "3", "--x0", "1", "--steps", "-2", "--hit-zero"],
     "InvalidArgument"),
    (None, ["dist", "rect", "--limit", "--q", "3", "--m", "-2"], "InvalidArgument"),
    (None, ["dist", "rect", "--limit", "--q", "3", "--m", "-1"], "InvalidArgument"),
    # a float tol that rounds to 0, and floats that are not finite
    (None, ["dist", "alternating", "--q", "3", "--limit", "--parity", "odd",
            "--tol", "1e-300"], "InvalidArgument"),
    ({"kind": "iid-square", "q": 3, "n": 3},
     ["structure", "SPEC", "--vector", "1,2,2", "--K", "nan"], "InvalidArgument"),
    ({"kind": "iid-square", "q": 3, "n": 3},
     ["structure", "SPEC", "--vector", "1,2,2", "--K", "inf"], "InvalidArgument"),
    ({"kind": "iid-square", "q": 3, "n": 2}, ["sample", "SPEC", "--seed", "1", "--alpha", "nan"],
     "InvalidArgument"),
    ({"kind": "iid-square", "q": 3, "n": 2}, ["sample", "SPEC", "--seed", "1", "--alpha", "inf"],
     "InvalidArgument"),
    ({"kind": "iid-square", "q": 3, "n": 3},
     ["mc", "SPEC", "--trials", "10", "--seed", "1", "--ref", "square", "--threshold", "nan"],
     "InvalidArgument"),
    ({"kind": "iid-square", "q": 3, "n": 3},
     ["mc", "SPEC", "--trials", "10", "--seed", "1", "--ref", "square", "--threshold", "inf"],
     "InvalidArgument"),
    # negative coranks
    (None, ["chain", "symmetric", "--q", "2", "--x0", "-1", "--steps", "0"], "InvalidArgument"),
    (None, ["chain", "iid-column", "--q", "2", "--n", "3", "--x0", "-1", "--steps", "3"],
     "InvalidArgument"),
    # --M without the threshold sets --K builds, and a negative --M
    ({"kind": "iid-square", "q": 3, "n": 3},
     ["structure", "SPEC", "--vector", "1,1,1", "--M", "2"], "InvalidArgument"),
    ({"kind": "iid-square", "q": 3, "n": 3},
     ["structure", "SPEC", "--vector", "1,1,1", "--K", "1.0", "--M", "-1"], "InvalidArgument"),
    # options that the subcommand would ignore
    (None, ["chain", "symmetric", "--q", "2", "--steps", "2", "--n", "5"], "InvalidArgument"),
    (None, ["dist", "square", "--q", "2", "--n", "2", "--m", "3"], "InvalidArgument"),
    (None, ["dist", "square", "--q", "2", "--n", "2", "--tol", "1e-20"], "InvalidArgument"),
    (None, ["dist", "square", "--q", "2", "--limit", "--n", "5"], "InvalidArgument"),
    (None, ["chain", "symmetric", "--q", "2", "--x0", "1", "--steps", "3", "--hit-zero",
            "--csv", "out.csv"], "InvalidArgument"),
    # a finite law with no size, and a parity that only the alternating limit reads
    (None, ["dist", "square", "--q", "3"], "InvalidArgument"),
    (None, ["dist", "square", "--q", "3", "--n", "2", "--parity", "odd"], "InvalidArgument"),
    (None, ["dist", "alternating", "--q", "3", "--n", "3", "--parity", "odd"],
     "InvalidArgument"),
    (None, ["dist", "symmetric", "--q", "3", "--limit", "--parity", "even"], "InvalidArgument"),
    # an iid-column codimension above n, and a cell fixed with its mirror to two values
    (None, ["chain", "iid-column", "--q", "3", "--n", "3", "--x0", "5", "--steps", "10",
            "--hit-zero"], "InvalidArgument"),
    ({"kind": "symmetric", "q": 5, "n": 3, "F": [[1], [0]], "F_values": [[2], [3]]},
     ["sample", "SPEC", "--seed", "1"], "InvalidSpec"),
    # keys outside the schema, which would be read as absent
    ({"kind": "iid-square", "q": 3, "n": 2, "entires": {"default": ["1", "0", "0"]}},
     ["sample", "SPEC", "--seed", "1"], "InvalidSpec"),
    ({"kind": "iid-square", "q": 3, "n": 2, "F": [[1]], "F_vals": [[2]]},
     ["sample", "SPEC", "--seed", "1"], "InvalidSpec"),
    ({"kind": "iid-square", "q": 3, "n": 2, "overrides": [[0, 0, ["1", "0", "0"]]]},
     ["mc", "SPEC", "--trials", "10", "--seed", "1"], "InvalidSpec"),
    ({"kind": "iid-square", "q": 3, "n": 2, "entries": {"defaults": ["1", "0", "0"]}},
     ["sample", "SPEC", "--seed", "1"], "InvalidSpec"),
    # a cell with two sources: an override of an F cell, two laws for one cell,
    # and two laws for a cell and its mirror
    ({"kind": "iid-square", "q": 3, "n": 2, "F": [[0]], "F_values": [[2]],
      "entries": {"overrides": [[0, 0, ["1", "0", "0"]]]}},
     ["sample", "SPEC", "--seed", "1"], "InvalidSpec"),
    ({"kind": "iid-square", "q": 3, "n": 2,
      "entries": {"overrides": [[0, 1, ["1", "0", "0"]], [0, 1, ["0", "1", "0"]]]}},
     ["mc", "SPEC", "--trials", "10", "--seed", "1"], "InvalidSpec"),
    ({"kind": "symmetric", "q": 3, "n": 3,
      "entries": {"overrides": [[0, 1, ["1", "0", "0"]], [1, 0, ["0", "1", "0"]]]}},
     ["structure", "SPEC", "--vector", "1,1,1"], "InvalidSpec"),
    # a GL draw of n x n entries above the cap, though its corner is 3 x 3,
    # and fixed values with no F cells to hold them
    ({"kind": "gl-corner", "q": 2, "n": 4194304, "n_prime": 3},
     ["sample", "SPEC", "--seed", "1"], "TooLarge"),
    ({"kind": "iid-square", "q": 3, "n": 2, "F_values": [[2]]},
     ["sample", "SPEC", "--seed", "1"], "InvalidSpec"),
])
def test_malformed_input_exits_2(tmp_path, capsys, spec, argv, error):
    path = tmp_path / "spec.json"
    if spec is not None:
        path.write_text(json.dumps(spec))
    code = main([str(path) if a == "SPEC" else a for a in argv])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == error


@pytest.mark.parametrize("argv", [
    ["dist", "square", "--n", "2", "--q", "2", "--csv", "MISSING"],
    ["mc", "SPEC", "--trials", "10", "--seed", "1", "--csv", "MISSING"],
    ["chain", "symmetric", "--q", "3", "--x0", "1", "--steps", "2", "--csv", "DIR"],
])
def test_unwritable_csv_exits_2(tmp_path, capsys, argv):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "iid-square", "q": 3, "n": 2}))
    paths = {"SPEC": str(spec), "MISSING": str(tmp_path / "no" / "dir" / "x.csv"),
             "DIR": str(tmp_path)}
    assert main([paths.get(a, a) for a in argv]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"


@pytest.mark.parametrize("spec, opts, error", [
    ({"kind": "iid-square", "q": 4, "n": 4}, ["--ref", "alternating"], "EvenCharacteristic"),
    ({"kind": "iid-square", "q": 3, "n": 4}, ["--csv", "MISSING"], "InvalidArgument"),
])
def test_mc_refuses_bad_ref_and_csv_before_the_run(tmp_path, capsys, monkeypatch, spec,
                                                   opts, error):
    from fqrank import harness

    def no_run(*args, **kwargs):
        raise AssertionError("mc_corank ran before the input was refused")

    monkeypatch.setattr(harness, "mc_corank", no_run)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    missing = str(tmp_path / "no" / "dir" / "x.csv")
    argv = ["mc", str(path), "--trials", "4000", "--seed", "1"]
    assert main(argv + [missing if a == "MISSING" else a for a in opts]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == error


def test_refused_mc_run_keeps_the_csv_file(tmp_path, capsys):
    # --csv is opened before the run, but written only after it
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "iid-square", "q": 3, "n": 2}))
    out = tmp_path / "pmf.csv"
    out.write_text("kept\n")
    assert main(["mc", str(spec), "--trials", "0", "--seed", "1", "--csv", str(out)]) == 2
    assert out.read_text() == "kept\n"
    assert main(["mc", str(spec), "--trials", "10", "--seed", "1", "--csv", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "corank,mass_num,mass_den"


def test_deeply_nested_spec_exits_2(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["sample", str(path), "--seed", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidSpec"


def test_bad_thread_count_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "iid-square", "q": 3, "n": 2}))
    monkeypatch.setenv("FQRANK_THREADS", "abc")
    assert main(["mc", str(path), "--trials", "10", "--seed", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"


def test_version_matches_pyproject():
    # read without tomllib, which Python 3.10 lacks
    import re
    from pathlib import Path

    import fqrank

    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = pyproject.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    version = re.search(r'^version\s*=\s*"([^"]*)"', project, re.M).group(1)
    assert fqrank.__version__ == version


def test_import_loads_neither_numpy_random_nor_scipy():
    # numpy.random loads on the first draw and scipy only where a check needs
    # a p-value, so a bare import of the package pays for neither
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fqrank

    src = str(Path(fqrank.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, fqrank; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
