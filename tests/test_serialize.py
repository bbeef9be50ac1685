"""Parsed problems are shared within a process, and results are written in
one canonical text.

``serialize.load_problem`` parses a file content once and hands the same
read-only ``ProblemFile`` to every later load of it; ``cli`` normalizes each
generators object of a parsed problem once.  These tests check that the
sharing never shows: a rewritten file gives its new answer, errors carry the
caller's own path and are raised on every call, a memoized normalization
still warns, and a second identical call does no parsing or normalizing.

``serialize.dump_canonical`` writes its own text; the oracle it must match
byte for byte is ``json.dumps(doc, sort_keys=True, indent=2)`` and a newline.
"""

import json
import os
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polydiv import cli, divisors, serialize as ser

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

# t*chi^1 on P1: the degree polyhedron [0, oo) holds the origin, so the
# normalization is not proper
NOT_PROPER_P1 = {"version": "1", "curve": "P1", "lattice_rank": 1, "objects": {
    "gens": {"type": "generators", "elements": [
        {"function": {"constant": 1, "factors": [{"poly": [0, 1], "exp": 1}]},
         "degree": [1]}]}}}


def a1_divisor(vertex: int) -> dict:
    """Rank 1 on A1: the divisor [vertex, oo) * t."""
    return {"version": "1", "curve": "A1", "lattice_rank": 1, "objects": {
        "divisor": {"type": "divisor", "tail": {"rays": [[1]]},
                    "coefficients": [{"point": {"poly": [0, 1]}, "vertices": [[vertex]]}]}}}


def write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, *argv) -> dict:
    assert cli.main(list(argv) + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)["result"]


def test_objects_are_read_only():
    problem = ser.parse_problem(a1_divisor(1))
    with pytest.raises(TypeError):
        problem.objects["divisor"] = ("divisor", None)
    assert problem.get("divisor", "divisor").coefficients


def test_rewritten_file_gives_the_new_answer(capsys, tmp_path):
    path = tmp_path / "problem.json"
    values = []
    for vertex in (1, 3):
        write(path, a1_divisor(vertex))
        result = run_json(capsys, "eval", "--input", str(path), "--object", "divisor", "--m", "2")
        values.append(result["evaluation"]["coefficients"][0]["value"])
    assert values == [2, 6]


def test_malformed_json_names_each_callers_path(tmp_path):
    paths = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        path.write_text('{"version": "1",\n  "curve": }')
        paths.append(str(path))
    for _ in range(2):
        for path in paths:
            with pytest.raises(ser.SchemaError) as err:
                ser.load_problem(path)
            assert err.value.path == f"{path}:2:12"


def test_schema_errors_are_raised_on_every_call(tmp_path):
    path = write(tmp_path / "bad.json", dict(a1_divisor(1), version="2"))
    for _ in range(2):
        with pytest.raises(ser.SchemaError) as err:
            ser.load_problem(path)
        assert err.value.path == "$.version"


def test_normalization_depends_on_the_curve(capsys, tmp_path):
    """One generators object under A1 and under P1: only P1 has a place at
    infinity, so the two normalizations differ."""
    supports = {}
    for curve in ("A1", "P1"):
        path = write(tmp_path / f"{curve}.json", dict(NOT_PROPER_P1, curve=curve))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", divisors.ProperWarning)
            result = run_json(capsys, "normalize", "--input", path, "--object", "gens")
        supports[curve] = [c["point"] for c in result["divisor"]["coefficients"]]
    assert supports == {"A1": [{"poly": [0, 1]}], "P1": [{"poly": [0, 1]}, "infinity"]}


def test_a_shared_normalization_warns_on_every_call(capsys, tmp_path):
    path = write(tmp_path / "p1.json", NOT_PROPER_P1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):
            run_json(capsys, "degree", "--input", path, "--object", "gens")
    proper = [w for w in caught if issubclass(w.category, divisors.ProperWarning)]
    assert len(proper) == 2
    assert all("origin lies in the degree polyhedron" in str(w.message) for w in proper)


def test_a_repeated_call_parses_and_normalizes_nothing(capsys, monkeypatch, tmp_path):
    counts = {"parse": 0, "normalize": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ser, "parse_problem", counted("parse", ser.parse_problem))
    monkeypatch.setattr(cli, "divisor_from_generators",
                        counted("normalize", cli.divisor_from_generators))
    # ex345 with one trailing space: a content no other test loads, so that
    # the first call parses and normalizes whatever ran before in the process
    with open(os.path.join(FIXTURES, "ex345.json")) as fh:
        path = tmp_path / "ex345.json"
        path.write_text(fh.read() + " ")
    argv = ["degree", "--input", str(path), "--object", "gens"]
    first = run_json(capsys, *argv)
    assert counts == {"parse": 1, "normalize": 1}
    assert run_json(capsys, *argv) == first
    assert counts == {"parse": 1, "normalize": 1}


def dumps_oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# strings with non-ASCII, astral and control characters, quotes and backslashes
TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\\x00\x1f\x7f\u2028/'))
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=2 ** 64 - 2, max_value=2 ** 200) | st.just(-2 ** 64) | TEXT)
DOCUMENTS = st.recursive(SCALARS, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4)), max_leaves=30)


@given(DOCUMENTS)
def test_canonical_text_is_sorted_indented_json(doc):
    assert ser.dump_canonical(doc) == dumps_oracle(doc)


def test_canonical_text_of_empty_containers():
    doc = {"a": [], "b": {}, "c": (), "d": [[], {}, [()]]}
    assert ser.dump_canonical(doc) == dumps_oracle(doc)


@pytest.mark.parametrize("doc", [1.5, {"x": [0.0]}, [Fraction(1, 2)], {1: "a"}, {None: 1},
                                 {"a": 1, 2: "b"}, {"s": {1, 2}}],
                         ids=["float", "nested float", "Fraction", "int key", "None key",
                              "mixed keys", "set"])
def test_canonical_text_refuses_other_types(doc):
    with pytest.raises(TypeError):
        ser.dump_canonical(doc)
