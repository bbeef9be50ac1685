"""Every fixture problem file is valid against ``docs/problem-schema.json``."""

import glob
import json
import os

import jsonschema
import pytest

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
