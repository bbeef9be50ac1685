"""Every fixture problem file is valid against ``docs/problem-schema.json``,
and the parser rejects what the schema rejects."""

import copy
import glob
import json
import os

import jsonschema
import pytest

from polydiv import serialize

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIXTURES = sorted(glob.glob(os.path.join(ROOT, "fixtures", "*.json")))

with open(os.path.join(ROOT, "docs", "problem-schema.json")) as fh:
    SCHEMA = json.load(fh)


def validator() -> jsonschema.Draft202012Validator:
    jsonschema.Draft202012Validator.check_schema(SCHEMA)
    return jsonschema.Draft202012Validator(SCHEMA)


@pytest.mark.parametrize("path", FIXTURES, ids=os.path.basename)
def test_fixture_matches_schema(path):
    with open(path) as fh:
        validator().validate(json.load(fh))


def test_schema_rejects_a_wrong_version():
    with open(FIXTURES[0]) as fh:
        doc = json.load(fh)
    with pytest.raises(jsonschema.ValidationError):
        validator().validate({**doc, "version": "2"})


def boolean_substitutions():
    """A document with true where the schema wants an integer, and the path
    of that value: the lattice rank of every fixture, and the exponents s
    and the characteristic p of every assemblage."""
    for path in FIXTURES:
        with open(path) as fh:
            doc = json.load(fh)
        name = os.path.basename(path)
        yield pytest.param({**doc, "lattice_rank": True}, "$.lattice_rank",
                           id=f"{name}-lattice_rank")
        for key, obj in doc["objects"].items():
            if obj["type"] == "assemblage":
                for field, value, at in (("s", [True], "s[0]"), ("p", True, "p")):
                    bad = copy.deepcopy(doc)
                    bad["objects"][key][field] = value
                    yield pytest.param(bad, f"$.objects.{key}.{at}", id=f"{name}-{key}.{at}")


@pytest.mark.parametrize("doc, path", boolean_substitutions())
def test_boolean_for_an_integer_is_rejected(doc, path):
    with pytest.raises(jsonschema.ValidationError):
        validator().validate(doc)
    with pytest.raises(serialize.SchemaError) as err:
        serialize.parse_problem(doc)
    assert err.value.path == path


@pytest.mark.parametrize("s", [[-1], [-2, 0]])
def test_negative_exponent_is_rejected(s):
    """The exponents s_i of an assemblage are nonnegative: p^(-1) is no integer."""
    with open(os.path.join(ROOT, "fixtures", "hnorm_a1.json")) as fh:
        doc = json.load(fh)
    doc["objects"]["assemblage"]["s"] = s
    with pytest.raises(jsonschema.ValidationError):
        validator().validate(doc)
    with pytest.raises(serialize.SchemaError, match="nonnegative") as err:
        serialize.parse_problem(doc)
    assert err.value.path == "$.objects.assemblage"
