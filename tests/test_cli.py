import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from polydiv import serialize as ser
from polydiv.cli import main
from polydiv.curves import PROJECTIVE_LINE, SPEC_Z

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


def run_capture(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def fixture(name):
    return os.path.join(FIXTURES, name)


class TestParsing:
    def test_rational_roundtrip(self):
        assert ser.parse_rational("1/2") == F(1, 2)
        assert ser.parse_rational(3) == 3
        assert ser.rational_str(F(1, 2)) == "1/2"
        assert ser.rational_str(F(4, 2)) == 2

    def test_malformed_rational(self):
        with pytest.raises(ser.SchemaError):
            ser.parse_rational("1/0")
        with pytest.raises(ser.SchemaError):
            ser.parse_rational("a/b")

    def test_unknown_field_rejected(self):
        doc = {"version": "1", "curve": "A1", "lattice_rank": 2,
               "objects": {}, "extra": 1}
        with pytest.raises(ser.SchemaError) as err:
            ser.parse_problem(doc)
        assert "extra" in str(err.value)

    def test_unknown_object_type(self):
        doc = {"version": "1", "curve": "A1", "lattice_rank": 2,
               "objects": {"x": {"type": "gizmo"}}}
        with pytest.raises(ser.SchemaError):
            ser.parse_problem(doc)

    def test_error_paths_carry_context(self):
        doc = {"version": "1", "curve": "A1", "lattice_rank": 2,
               "objects": {"g": {"type": "generators", "elements": [
                   {"function": {"constant": "1/0"}, "degree": [1, 0]}]}}}
        with pytest.raises(ser.SchemaError) as err:
            ser.parse_problem(doc)
        assert "elements[0].function.constant" in str(err.value)

    def test_fixture_roundtrip(self):
        for name in sorted(os.listdir(FIXTURES)):
            with open(fixture(name)) as fh:
                text = fh.read()
            doc = json.loads(text)
            ser.parse_problem(doc)
            assert ser.dump_canonical(doc) == text, f"{name} not canonical"

    def test_divisor_document_roundtrip(self):
        problem = ser.load_problem(fixture("ex345.json"))
        d = problem.get("divisor", "divisor")
        doc = ser.divisor_doc(d)
        reparsed = ser.parse_divisor(doc, PROJECTIVE_LINE, 2, "$")
        assert reparsed == d


class TestSubcommands:
    def test_normalize_matches_stored_divisor(self, capsys):
        code, out, _ = run_capture(
            capsys, "normalize", "--input", fixture("ex345.json"),
            "--object", "gens", "--json")
        assert code == 0
        doc = json.loads(out)
        problem = ser.load_problem(fixture("ex345.json"))
        stored = problem.get("divisor", "divisor")
        got = ser.parse_divisor(doc["result"]["divisor"], PROJECTIVE_LINE, 2, "$")
        assert got == stored

    def test_eval_closed_formula(self, capsys):
        code, out, _ = run_capture(
            capsys, "eval", "--input", fixture("ex445.json"),
            "--object", "gens", "--m", "1,2", "--json")
        assert code == 0
        doc = json.loads(out)
        coeffs = {tuple(sorted(c["point"].items()))[0][1]: c["value"]
                  for c in doc["result"]["evaluation"]["coefficients"]}
        assert coeffs == {2: -1, 3: 1}

    def test_mono_closure(self, capsys):
        code, out, _ = run_capture(
            capsys, "mono-closure", "--input", fixture("i33.json"),
            "--object", "ideal", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["closure_generators"] == [
            [0, 3], [1, 2], [2, 1], [3, 0]]

    def test_mono_normal_witness(self, capsys):
        code, out, _ = run_capture(
            capsys, "mono-normal", "--input", fixture("rem357.json"),
            "--object", "ideal", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["normal"] is False
        assert doc["result"]["witness"]["exponent"] == 2
        assert doc["result"]["witness"]["point"] == [1, 2, 6]

    def test_eval_zero_weight(self, capsys):
        code, out, _ = run_capture(
            capsys, "eval", "--input", fixture("ex345.json"),
            "--object", "divisor", "--m", "0,0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["evaluation"]["coefficients"] == []

    def test_assemblage_check(self, capsys):
        code, out, _ = run_capture(
            capsys, "assemblage-check", "--input", fixture("ex5617.json"),
            "--object", "assemblage", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["all_pass"] is True
        assert doc["result"]["kernel_weight_cone"]["rays"] == [[0, 1], [1, 1]]

    def test_kernel(self, capsys):
        code, out, _ = run_capture(
            capsys, "kernel", "--input", fixture("ex5617.json"),
            "--object", "assemblage", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["sublattice_basis"] == [[2, 0], [0, 1]]

    def test_fixture_dir_override(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYDIV_FIXTURES", FIXTURES)
        code, out, _ = run_capture(
            capsys, "proper", "--input", "rem3314.json",
            "--object", "divisor", "--json")
        assert code == 0


class TestExitCodes:
    def test_schema_error_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": "1", "curve": "A1"}')
        code, _, err = run_capture(capsys, "proper", "--input", str(bad),
                                   "--object", "divisor")
        assert code == 1
        assert "missing fields" in err

    def test_math_error_is_two(self, capsys):
        code, _, err = run_capture(
            capsys, "eval", "--input", fixture("ex345.json"),
            "--object", "divisor", "--m=-1,0")
        assert code == 2
        assert "OutsideWeightCone" in err

    def test_success_is_zero(self, capsys):
        code, _, _ = run_capture(
            capsys, "proper", "--input", fixture("ex345.json"),
            "--object", "divisor")
        assert code == 0


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_capture(
                capsys, "normalize", "--input", fixture("ex345.json"),
                "--object", "gens", "--json")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_console_script_entry(self):
        # the child finds the package where this process found it
        src = os.path.dirname(os.path.dirname(os.path.abspath(ser.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "polydiv.cli", "root-check",
             "--input", fixture("ex345.json"), "--object", "divisor",
             "--e=-1,0", "--json"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["result"]["is_root"] is True
        assert doc["result"]["distinguished_ray"] == [1, 0]
