"""Mutated fixture documents parse or fail as a SchemaError, nothing else.

Each draw takes a fixture problem document and applies one to three
mutations at random places in its tree: a value replaced by a value of
another shape (null, booleans, numbers, strings, short arrays and objects)
or by a copy of another subtree of the same document, or a key or array
entry deleted.  ``serialize.parse_problem`` must either succeed or raise a
``SchemaError``; any other exception is a hole in the parser.
"""

import copy
import glob
import json
import os
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polydiv import serialize

ROOT = os.path.join(os.path.dirname(__file__), "..")
DOCS = []
for path in sorted(glob.glob(os.path.join(ROOT, "fixtures", "*.json"))):
    with open(path) as fh:
        DOCS.append(json.load(fh))

# no fixture writes a Spec Z function with prime factors; this one does
SPEC_Z_FACTORS = {
    "version": "1", "curve": "SpecZ", "lattice_rank": 2, "objects": {"gens": {
        "type": "generators", "elements": [
            {"degree": [1, 2], "function": {"constant": "2/3", "factors": [
                {"prime": 5, "exp": 1}, {"prime": 3, "exp": -2}]}},
            {"degree": [1, 0], "function": {"constant": "1/9", "factors": [
                {"prime": 2, "exp": 0}]}},
            {"degree": [2, 1], "function": {"constant": "4/3"}}]}}}
DOCS.append(SPEC_Z_FACTORS)

# the proven bound of the deterministic primality test, itself no prime
BEYOND_PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981

VALUES = [None, True, False, 0, 1, -1, 2, 7, 1.5, "x", "1/0", "1/2", "infinity",
          [], {}, [0], [[1]], [1, 2], [[1, 0], [0, 1]], ["1/2", 3], {"a": 1}]


def places(node, prefix=()):
    """Every path into a JSON tree, the root first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from places(child, prefix + (key,))


def at(node, path):
    for key in path:
        node = node[key]
    return node


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(places(doc))[1:]
        path = draw(st.sampled_from(paths))
        parent, key = at(doc, path[:-1]), path[-1]
        action = draw(st.sampled_from(["replace", "replace", "copy", "delete"]))
        if action == "delete":
            del parent[key]
        elif action == "copy":
            parent[key] = copy.deepcopy(at(doc, draw(st.sampled_from(paths))))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    return doc


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_documents())
def test_mutated_document_parses_or_is_a_schema_error(doc):
    try:
        serialize.parse_problem(doc)
    except serialize.SchemaError:
        pass


def test_precondition_failure_is_a_schema_error_at_the_object():
    """A tail with a line is a divisor the parser cannot build; the error
    names the object's path and the failed precondition."""
    doc = copy.deepcopy(next(d for d in DOCS if "divisor" in d["objects"]
                             and d["objects"]["divisor"]["type"] == "divisor"))
    line = [1] + [0] * (doc["lattice_rank"] - 1)
    doc["objects"]["divisor"]["tail"]["rays"] = [line, [-a for a in line]]
    with pytest.raises(serialize.SchemaError) as err:
        serialize.parse_problem(doc)
    assert str(err.value) == "$.objects.divisor: UnboundedLineality: tail cone must be pointed"


def test_spec_z_prime_factors_parse():
    gens = serialize.parse_problem(SPEC_Z_FACTORS).get("gens", "generators")
    assert [g.function.constant for g in gens] == [
        Fraction(10, 27), Fraction(1, 9), Fraction(4, 3)]


@pytest.mark.parametrize("factor, field", [
    ({"prime": 5, "exp": 0.5}, "exp"), ({"prime": 5, "exp": "1/2"}, "exp"),
    ({"prime": 5, "exp": True}, "exp"), ({"prime": "x", "exp": 1}, "prime"),
    ({"prime": 9, "exp": 1}, "prime"), ({"prime": True, "exp": 1}, "prime"),
    ({"prime": BEYOND_PRIMALITY_BOUND, "exp": 1}, "prime"),
    ({"prime": 2, "exp": 10 ** 12}, "exp")])  # a value past SPEC_Z_BITS
def test_spec_z_factor_is_checked(factor, field):
    doc = copy.deepcopy(SPEC_Z_FACTORS)
    doc["objects"]["gens"]["elements"][0]["function"]["factors"][0] = factor
    with pytest.raises(serialize.SchemaError) as err:
        serialize.parse_problem(doc)
    assert err.value.path == f"$.objects.gens.elements[0].function.factors[0].{field}"


@pytest.mark.parametrize("prime, message", [
    (6, "6 is not prime"), (BEYOND_PRIMALITY_BOUND, "proven range")])
def test_spec_z_point_is_checked(prime, message):
    doc = {"version": "1", "curve": "SpecZ", "lattice_rank": 1, "objects": {"d": {
        "type": "divisor", "tail": {"rays": [[1]]},
        "coefficients": [{"point": {"prime": prime}, "vertices": [[1]]}]}}}
    with pytest.raises(serialize.SchemaError, match=message) as err:
        serialize.parse_problem(doc)
    assert err.value.path == "$.objects.d.coefficients[0].point.prime"


def test_spec_z_element_is_its_value():
    f = serialize.parse_problem(SPEC_Z_FACTORS).get("gens", "generators")[0].function
    assert f.factors == () and f.constant == Fraction(10, 27)
    assert serialize.function_doc(f) == {"constant": "10/27"}
