"""Property tests: malformed input ends in a typed FqRankError (exit code 2
from the CLI), never in another exception, and the stack rank kernel agrees
with the scalar FqMatrix oracle on random shapes."""
import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fqrank._fast import rank_stack
from fqrank.chain import CHAIN_KINDS
from fqrank.cli import main
from fqrank.distributions import LAW_KINDS
from fqrank.errors import FqRankError
from fqrank.field import field_new
from fqrank.matrix import FqMatrix, loads_matrix
from fqrank.models import KINDS, ModelSpec

FUZZ = settings(max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


def _or_any(strategy):
    return strategy | json_values


# Spec-shaped objects reach past the first missing key.  Sizes (n, m) are
# either small or beyond the ModelSpec cap of 2^22 entries for every n >= 1
# (on GL kinds, a cap on the whole n x n draw, whatever n_prime is): a valid
# spec of a few thousand rows would only make the CLI slow.
small = st.integers(-2, 6)
size = small | st.integers(min_value=2**22, max_value=2**70) | st.just(float("inf"))
prob = (st.sampled_from(["1/2", "1/3", "0", "1", "-1/2", "x", "1/0", "0/0", "1e-3",
                         "1e-99999999"])
        | st.integers(-1, 2) | st.floats())
dist = st.lists(prob, max_size=5)
spec_like = st.fixed_dictionaries(
    {"kind": _or_any(st.sampled_from(KINDS)),
     "q": _or_any(st.sampled_from([2, 3, 4, 5, 6, 9, 1, 0, 2**17])),
     "n": _or_any(size)},
    optional={
        "m": _or_any(size),
        "n_prime": _or_any(small),
        "entries": _or_any(st.fixed_dictionaries(
            {"default": _or_any(dist)},
            optional={"overrides": st.lists(st.tuples(small, small, dist), max_size=3)})),
        "F": _or_any(st.lists(st.lists(small, max_size=3), max_size=4)),
        "F_values": _or_any(st.lists(st.lists(small, max_size=3), max_size=4)),
        "planted": _or_any(st.sampled_from(["3 2 2 0 1 1 0", "3 1 1 0", "3 2 2 1",
                                            "2 2 2 0 1 1 0", "3 2 2 0 1 2 0"])),
    })


@FUZZ
@given(obj=json_values | spec_like)
@example(obj={"kind": "iid-square", "q": 2, "n": float("inf")})
@example(obj={"kind": "iid-square", "q": 2, "n": 2, "entries": {"default": [float("inf"), 0]}})
@example(obj={"kind": "iid-square", "q": 2, "n": 2, "entries": {"default": ["1/0", "1"]}})
@example(obj={"kind": "iid-square", "q": 2, "n": 2, "entries": {"default": ["1e-99999999", "1"]}})
def test_model_spec_from_json_fuzz(obj):
    for text in (obj, json.dumps(obj)):
        try:
            ModelSpec.from_json(text)
        except FqRankError:
            pass


@FUZZ
@given(text=st.text(max_size=40) | st.lists(st.integers(-3, 12), max_size=12).map(
    lambda xs: " ".join(map(str, xs))))
def test_loads_matrix_fuzz(text):
    try:
        loads_matrix(text)
    except FqRankError:
        pass


@FUZZ
@given(contents=st.binary(max_size=40) | st.text(max_size=40).map(str.encode)
       | (json_values | spec_like).map(lambda o: json.dumps(o).encode()))
@example(contents=b"\x80")
@example(contents=b'{"kind": "iid-square", "q": 2, "n": 4294967296}')
@example(contents=b'{"kind": "gl-corner", "q": 2, "n": 4194304, "n_prime": 3}')
@example(contents=json.dumps(  # an entry law whose common denominator exceeds 2^63 - 1
    {"kind": "iid-square", "q": 3, "n": 3, "entries": {"default": [
        "1/999999999989", "1/999999999961",
        "999999999948000000000479/999999999950000000000429"]}}).encode())
def test_cli_sample_fuzz(tmp_path, capsys, contents):
    path = tmp_path / "spec.json"
    path.write_bytes(contents)
    assert main(["sample", str(path), "--seed", "0"]) in (0, 2)
    capsys.readouterr()


@FUZZ
@given(q=st.sampled_from([2, 3, 4, 9]),
       vector=st.lists(st.integers(-12, 12) | st.integers(), min_size=1, max_size=5).map(
           lambda xs: ",".join(map(str, xs))) | st.text(max_size=12),
       K=st.none() | st.floats(allow_nan=False, allow_infinity=False, width=32),
       M=st.none() | st.integers(-2, 6))
@example(q=4, vector="1,7", K=None, M=None)
@example(q=4, vector="-1,1", K=1.0, M=1)
def test_cli_structure_vector_fuzz(tmp_path, capsys, q, vector, K, M):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "iid-square", "q": q, "n": 2}))
    argv = ["structure", str(path), f"--vector={vector}"]
    argv += [] if K is None else [f"--K={K}"]
    argv += [] if M is None else [f"--M={M}"]
    assert main(argv) in (0, 2)
    capsys.readouterr()


@FUZZ
@given(seed=st.integers(), trial=st.integers())
@example(seed=2**64, trial=0)
@example(seed=-2**63 - 1, trial=0)
@example(seed=0, trial=-2**63 - 1)
@example(seed=2**63 - 1, trial=-2**63)
def test_cli_seed_trial_fuzz(tmp_path, capsys, seed, trial):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "iid-square", "q": 3, "n": 2}))
    in_range = all(-2**63 <= x < 2**63 for x in (seed, trial))
    argv = ["sample", str(path), f"--seed={seed}", f"--trial={trial}"]
    assert main(argv) == (0 if in_range else 2)
    assert main(["mc", str(path), "--trials", "3", f"--seed={seed}"]) == \
        (0 if -2**63 <= seed < 2**63 else 2)
    capsys.readouterr()


qs = st.sampled_from([2, 3, 4, 5, 9, 0, 1, 6])
counts = st.integers(-3, 12)


@FUZZ
@given(kind=st.sampled_from(LAW_KINDS), q=qs, n=st.none() | counts, m=st.integers(-3, 5),
       parity=st.none() | st.sampled_from(["even", "odd"]), limit=st.booleans())
@example(kind="rect", q=3, n=None, m=-2, parity=None, limit=True)
@example(kind="rect", q=3, n=None, m=-1, parity=None, limit=True)
def test_cli_dist_fuzz(capsys, kind, q, n, m, parity, limit):
    argv = ["dist", kind, f"--q={q}", f"--m={m}"]
    argv += [] if parity is None else [f"--parity={parity}"]
    argv += [] if n is None else [f"--n={n}"]
    argv += ["--limit"] if limit else []
    assert main(argv) in (0, 2)
    capsys.readouterr()


@FUZZ
@given(kind=st.sampled_from(CHAIN_KINDS), q=qs, x0=counts, steps=st.integers(-20, 20),
       n=st.none() | counts, mode=st.sampled_from([None, "--hit-zero", "--path"]))
@example(kind="symmetric", q=3, x0=1, steps=-1, n=None, mode="--path")
@example(kind="symmetric", q=3, x0=1, steps=-2, n=None, mode="--hit-zero")
def test_cli_chain_fuzz(capsys, kind, q, x0, steps, n, mode):
    argv = ["chain", kind, f"--q={q}", f"--x0={x0}", f"--steps={steps}"]
    argv += [] if n is None else [f"--n={n}"]
    argv += [] if mode is None else [mode]
    assert main(argv) in (0, 2)
    capsys.readouterr()


@settings(max_examples=100, deadline=None, database=None)
@given(q=st.sampled_from([2, 4, 9, 101]), shape=st.tuples(
    st.integers(1, 4), st.integers(0, 6), st.integers(0, 6)),
    seed=st.integers(0, 2**32 - 1), zeros=st.floats(0, 1))
def test_rank_stack_matches_fqmatrix_rank(q, shape, seed, zeros):
    f = field_new(q)
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, q, size=shape)
    stack[rng.random(shape) < zeros] = 0
    B, R, C = shape
    expected = [FqMatrix(f, R, C, tuple(m.ravel().tolist())).rank() for m in stack]
    assert rank_stack(stack, q).tolist() == expected
