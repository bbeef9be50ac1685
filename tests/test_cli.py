import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from polydiv import cli, gaactions, serialize as ser
from polydiv.cli import main
from polydiv.curves import PROJECTIVE_LINE

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


P80, Q80 = 2 ** 80 + 13, 2 ** 80 - 65  # primes, each far past what Pollard's rho splits in 2^18 steps


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


def run_capture(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def fixture(name):
    return os.path.join(FIXTURES, name)


# argvs that end in a usage error, by the argument at fault
USAGE_ERRORS = {
    "e": ["closure-piece", "--input", "ex345.json", "--object", "ideal", "--m", "2,2",
          "--e", "x"],
    "dmax": ["oracle", "--input", "i33.json", "--object", "ideal", "--m", "1,1", "--dmax=1.5"],
    "samples": ["axiom-check", "--input", "ex345.json", "--object", "divisor", "--samples=x"],
    "seed": ["axiom-check", "--input", "ex345.json", "--object", "divisor", "--seed=1/2"],
    "box": ["horizontal-check", "--input", "ex5617.json", "--exhaustive-box="],
    "missing": ["eval", "--input", "ex345.json", "--object", "divisor"],
    "command": ["no-such-command"],
    "no-command": [],
    "unknown-option": ["eval", "--input", "ex345.json", "--object", "divisor", "--m", "1,1",
                       "--bogus"],
    "stray": ["eval", "--input", "ex345.json", "stray", "--object", "divisor", "--m", "1,1"],
}
HELP = [["--help"], ["toric-exp", "--help"], ["eval", "-h"]]


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

    @pytest.mark.parametrize("m, dmax, found", [
        ("2,1", "2", False),
        ("2,1", "3", True),
        ("-1,4", "12", False),  # <(1, 0), m> < 0
    ], ids=["short", "witnessed", "negative"])
    def test_oracle(self, capsys, m, dmax, found):
        code, out, _ = run_capture(
            capsys, "oracle", "--input", fixture("i33.json"), "--object", "ideal",
            f"--m={m}", "--dmax", dmax, "--json")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["integral_over_ideal"] is found
        assert result["m"] == [int(a) for a in m.split(",")]
        assert result["note"] == ("" if found else f"no witness up to d_max = {dmax}")

    def test_mono_normal_witness(self, capsys):
        code, out, _ = run_capture(
            capsys, "mono-normal", "--input", fixture("rem357.json"),
            "--object", "ideal", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["normal"] is False
        assert doc["result"]["witness"]["exponent"] == 2
        assert doc["result"]["witness"]["point"] == [1, 2, 6]

    @pytest.mark.parametrize("factors", [
        [{"poly": [0, -1, 1], "exp": 1}],
        [{"poly": [0, 1], "exp": 1}, {"poly": [-1, 1], "exp": 1}]])
    def test_member_does_not_depend_on_how_factors_are_grouped(self, capsys, factors):
        # t^2 - t and t * (t - 1) are one function, a member at degree 1
        element = {"function": {"constant": 1, "factors": factors}, "degree": [1]}
        code, out, _ = run_capture(
            capsys, "member", "--input", fixture("hnorm_a1.json"),
            "--object", "divisor", "--element", json.dumps(element), "--json")
        assert code == 0
        assert json.loads(out)["result"]["member"] is True

    def run_on_overlapping_keys(self, capsys, tmp_path, command, obj):
        """``command`` on A1, rank 1, with the generators (t^2 - t)^-1 and
        t^-2 of degree 1 and, for ideals, the divisor [2, oo)*t + [1, oo)*(t-1)."""
        elements = [{"function": {"constant": 1, "factors": [{"poly": poly, "exp": e}]},
                     "degree": [1]} for poly, e in (([0, -1, 1], -1), ([0, 1], -2))]
        coefficients = [{"point": {"poly": poly}, "vertices": [[v]]}
                        for poly, v in (([0, 1], 2), ([-1, 1], 1))]
        doc = {"version": "1", "curve": "A1", "lattice_rank": 1, "objects": {
            "gens": {"type": "generators", "elements": elements},
            "divisor": {"type": "divisor", "tail": {"rays": [[1]]},
                        "coefficients": coefficients},
            "ideal": {"type": "ideal", "ambient": "divisor", "generators": elements}}}
        path = tmp_path / "keys.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_capture(capsys, command, "--input", str(path),
                                   "--object", obj, "--json")
        assert code == 0
        return {tuple(c["point"]["poly"]): c.get("value", c.get("vertices"))
                for c in json.loads(out)["result"][
                    "rees_divisor" if command == "rees" else "divisor"]["coefficients"]}

    # t^2 - t is no place: its key is split against t, so t - 1 is one
    def test_normalize_splits_a_key_another_key_meets(self, capsys, tmp_path):
        got = self.run_on_overlapping_keys(capsys, tmp_path, "normalize", "gens")
        assert got == {(0, 1): [[2]], (-1, 1): [[1]]}

    def test_dpd_splits_a_key_another_key_meets(self, capsys, tmp_path):
        got = self.run_on_overlapping_keys(capsys, tmp_path, "dpd", "gens")
        assert got == {(0, 1): 2, (-1, 1): 1}

    def test_rees_splits_a_key_another_key_meets(self, capsys, tmp_path):
        got = self.run_on_overlapping_keys(capsys, tmp_path, "rees", "ideal")
        assert got == {(0, 1): [[2, 0]], (-1, 1): [[1, 0]]}

    # a Spec Z element keeps no factors: written-out primes are found again in
    # its value, a power past the proven bound of is_prime, two primes near 10^12
    @pytest.mark.parametrize("factors", [
        [{"prime": 43, "exp": 16}],
        [{"prime": 999999999989, "exp": 1}, {"prime": 1000000000039, "exp": -1}]])
    def test_normalize_finds_written_primes_again(self, capsys, tmp_path, factors):
        with open(fixture("ex445.json")) as fh:
            doc = json.load(fh)
        doc["objects"]["gens"]["elements"][0]["function"] = {"constant": 1, "factors": factors}
        path = tmp_path / "primes.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_capture(capsys, "normalize", "--input", str(path),
                                   "--object", "gens", "--json")
        assert code == 0
        coefficients = json.loads(out)["result"]["divisor"]["coefficients"]
        assert [c["point"]["prime"] for c in coefficients] == \
            [3] + [f["prime"] for f in factors]

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


# (fixture, command, object, path of the error, change to the object table)
SHAPE_CASES = [
    ("hnorm_a1.json", "proper", "divisor", "$.objects.divisor.tail.rays[0]",
     lambda o: o["divisor"]["tail"].update(rays=[[1, 0]])),
    ("hnorm_a1.json", "proper", "divisor", "$.objects.divisor.coefficients[0].vertices[0]",
     lambda o: o["divisor"]["coefficients"][0].update(vertices=[["-1/2", 0]])),
    ("hnorm_a1.json", "proper", "divisor", "$.objects.divisor.coefficients[0].point",
     lambda o: o["divisor"]["coefficients"][0].update(point={"prime": 2})),
    ("ex5617.json", "proper", "divisor", "$.objects.divisor.coefficients[1].point",
     lambda o: o["divisor"]["coefficients"][1].update(point={"poly": [0, 1]})),
    ("hnorm_a1.json", "coloring-check", "coloring", "$.objects.coloring.colors[0].vertex",
     lambda o: o["coloring"]["colors"][0].update(vertex=["-1/2", 1])),
    ("hnorm_a1.json", "coloring-check", "coloring", "$.objects.coloring.base_point",
     lambda o: o["coloring"].update(base_point="infinity")),
    ("hnorm_a1.json", "assemblage-check", "assemblage", "$.objects.assemblage.e",
     lambda o: o["assemblage"].update(e=[1, 0])),
    ("ex345.json", "normalize", "gens", "$.objects.gens.elements[0].degree",
     lambda o: o["gens"]["elements"][0].update(degree=[1])),
    ("i33.json", "mono-normal", "ideal", "$.objects.ideal.exponents[0]",
     lambda o: o["ideal"]["exponents"].__setitem__(0, [1, 2, 3])),
]

ARGUMENT_CASES = [
    (["eval", "--input", "ex345.json", "--object", "divisor", "--m", "1,1,1"], "$.m"),
    (["eval", "--input", "ex345.json", "--object", "divisor", "--m", "x,1"], "$.m[0]"),
    (["sections", "--input", "ex345.json", "--object", "divisor", "--m", "1"], "$.m"),
    (["oracle", "--input", "i33.json", "--object", "ideal", "--m", "2"], "$.m"),
    (["roots", "--input", "ex345.json", "--object", "divisor", "--ray", "1,0",
      "--box=-2:2"], "$.box"),
    (["roots", "--input", "ex345.json", "--object", "divisor", "--ray", "1",
      "--box=-2:2,-2:2"], "$.ray"),
    (["generators", "--input", "ex345.json", "--object", "divisor", "--box=0:2"], "$.box"),
    (["generators", "--input", "ex345.json", "--object", "divisor", "--box=0:2,a:1"],
     "$.box[1][0]"),
    (["generators", "--input", "ex345.json", "--object", "divisor", "--box=0:2,1"],
     "$.box[1]"),
    (["root-check", "--input", "ex345.json", "--object", "divisor", "--e=1,2,3"], "$.e"),
    (["root-check", "--input", "ex345.json", "--object", "divisor"], "$.e"),
    (["toric-exp", "--input", "ex345.json", "--object", "divisor", "--e=-1,0",
      "--m", "1,1", "--scalar", "q"], "$.scalar"),
    (["vertical-exists", "--input", "ex345.json", "--object", "divisor", "--ray", "1,0,0"],
     "$.ray"),
    (["member", "--input", "ex345.json", "--object", "divisor", "--element",
      '{"function": {"constant": 1}, "degree": [1]}'], "$.element.degree"),
]


with open(os.path.join(os.path.dirname(__file__), "..", "bench", "golden", "fixtures.json")) as fh:
    GOLDEN_ARGVS = [record["argv"] + ["--json"] for record in json.load(fh)]


def parse_outcome(parse, argv):
    """The Namespace ``parse(argv)`` returns, or its exit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as stop:
            result = stop.code
    return result, out.getvalue(), err.getvalue()


class TestDispatch:
    """``main`` parses an argv with the named command's parser alone; the
    answer must be the top-level parser's, on every argv."""

    EDGES = [["--json", "eval", "--input", "ex345.json"], ["eval", "--", "x"],
             ["eval", "--input", "x", "--", "--m", "1"], ["--"], ["-x"], ["ev"],
             ["generators", "--input", "x", "-h", "--bogus"],
             ["eval", "--inp=x", "--m", "1,2", "--m", "3", "a", "b"]]

    @pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()) + HELP + EDGES + GOLDEN_ARGVS,
                             ids=lambda argv: " ".join(argv) or "(empty)")
    def test_same_as_the_top_level_parser(self, argv):
        assert parse_outcome(cli._parse, argv) == \
            parse_outcome(cli._build_parser().parse_args, argv)

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        """The console script calls ``main()`` with no argv."""
        argv = ["eval", "--input", "ex345.json", "--object", "divisor", "--m", "1,1", "--json"]
        expected = run_capture(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["polydiv"] + argv)
        assert main() == 0
        assert (0,) + capsys.readouterr() == expected


class TestExitCodes:
    def test_schema_error_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": "1", "curve": "A1"}')
        code, _, err = run_capture(capsys, "proper", "--input", str(bad),
                                   "--object", "divisor")
        assert code == 1
        assert "missing fields" in err

    @pytest.mark.parametrize("value", [5, {}, "ab", None])
    def test_non_list_coefficients_is_a_schema_error(self, capsys, tmp_path, value):
        doc = {"version": "1", "curve": "A1", "lattice_rank": 1, "objects": {
            "d": {"type": "divisor", "tail": {"rays": [[1]]}, "coefficients": value}}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_capture(capsys, "proper", "--input", str(bad), "--object", "d")
        assert code == 1
        assert err.startswith("schema error: $.objects.d.coefficients: ")

    def schema_error(self, capsys, tmp_path, doc, command, obj):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_capture(capsys, command, "--input", str(bad), "--object", obj)
        assert code == 1
        return err

    @pytest.mark.parametrize("value", [[], {}])
    def test_unhashable_curve_is_a_schema_error(self, capsys, tmp_path, value):
        doc = {"version": "1", "curve": value, "lattice_rank": 1, "objects": {}}
        err = self.schema_error(capsys, tmp_path, doc, "proper", "d")
        assert err.startswith("schema error: $.curve: ")

    def test_non_list_elements_is_a_schema_error(self, capsys, tmp_path):
        doc = {"version": "1", "curve": "P1", "lattice_rank": 1, "objects": {
            "g": {"type": "generators", "elements": 3}}}
        err = self.schema_error(capsys, tmp_path, doc, "normalize", "g")
        assert err.startswith("schema error: $.objects.g.elements: ")

    def test_non_list_exponents_is_a_schema_error(self, capsys, tmp_path):
        doc = {"version": "1", "curve": "A1", "lattice_rank": 1, "objects": {
            "i": {"type": "monomial_ideal", "weight_cone": {"rays": [[1]]}, "exponents": 3}}}
        err = self.schema_error(capsys, tmp_path, doc, "mono-normal", "i")
        assert err.startswith("schema error: $.objects.i.exponents: ")

    @pytest.mark.parametrize("name, factor, path", [
        ("ex445.json", {"prime": 2, "exp": 0.5}, "exp"),
        ("ex445.json", {"prime": "x", "exp": 1}, "prime"),
        ("ex345.json", {"poly": [0, 1], "exp": True}, "exp")])
    def test_bad_factor_is_a_schema_error(self, capsys, tmp_path, name, factor, path):
        """The parser's factor checks end at their JSON path with exit 1; the
        other bad factors are in test_parse_fuzz."""
        with open(fixture(name)) as fh:
            doc = json.load(fh)
        doc["objects"]["gens"]["elements"][0]["function"]["factors"] = [factor]
        err = self.schema_error(capsys, tmp_path, doc, "normalize", "gens")
        assert err.startswith(
            f"schema error: $.objects.gens.elements[0].function.factors[0].{path}: ")

    def test_long_spec_z_constant_is_a_schema_error(self, capsys, tmp_path):
        with open(fixture("ex445.json")) as fh:
            doc = json.load(fh)
        doc["objects"]["gens"]["elements"][0]["function"]["constant"] = 3 ** 400
        err = self.schema_error(capsys, tmp_path, doc, "normalize", "gens")
        assert err.startswith("schema error: $.objects.gens.elements[0].function.constant: ")

    @pytest.mark.parametrize("function", [
        {"constant": P80 * Q80},
        {"constant": 1, "factors": [{"prime": P80, "exp": 1}, {"prime": Q80, "exp": -1}]}],
        ids=["constant", "factors"])
    def test_unsplittable_spec_z_value_is_a_curve_error(self, capsys, tmp_path, function):
        """A value whose least prime is far past the bounded Pollard walk ends
        as a math error, not in a factoring run of about 2^40 steps."""
        with open(fixture("ex445.json")) as fh:
            doc = json.load(fh)
        doc["objects"]["gens"]["elements"][0]["function"] = function
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        code, out, err = run_capture(capsys, "normalize", "--input", str(big), "--object", "gens")
        assert (code, out) == (2, "")
        assert err.startswith(f"CurveError: no factor of {P80 * Q80} found in ")

    @pytest.mark.parametrize("name, command, obj, path, mutate", SHAPE_CASES,
                             ids=[case[3] for case in SHAPE_CASES])
    def test_shape_is_a_schema_error(self, capsys, tmp_path, name, command, obj, path, mutate):
        """Vectors of the wrong length and points off the curve end at their
        JSON path, not in a traceback, a math error or a truncated answer."""
        with open(fixture(name)) as fh:
            doc = json.load(fh)
        mutate(doc["objects"])
        err = self.schema_error(capsys, tmp_path, doc, command, obj)
        assert err.startswith(f"schema error: {path}: ")

    @pytest.mark.parametrize("argv, path", ARGUMENT_CASES,
                             ids=[f"{argv[0]}-{path}" for argv, path in ARGUMENT_CASES])
    def test_malformed_argument_is_a_schema_error(self, capsys, argv, path):
        code, _, err = run_capture(capsys, *argv)
        assert code == 1
        assert err.startswith(f"schema error: {path}: ")

    @pytest.mark.parametrize("argv, path", [
        (["horizontal-check", "--input", "ex5617.json", "--object", "assemblage",
          "--exhaustive-box=-1"], "$.exhaustive_box"),
        (["axiom-check", "--input", "ex345.json", "--object", "divisor", "--e=0,-1",
          "--samples=0"], "$.samples"),
        (["axiom-check", "--input", "hnorm_a1.json", "--object", "assemblage",
          "--samples=-3"], "$.samples")], ids=["box-1", "samples0", "samples-3"])
    def test_an_empty_sample_is_a_schema_error(self, capsys, argv, path):
        """A checker run on no sample would pass whatever the object."""
        code, out, err = run_capture(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"schema error: {path}: must be at least ")

    def test_exhaustive_box_zero_checks_the_origin(self, capsys):
        code, out, _ = run_capture(capsys, "horizontal-check", "--input", "ex5617.json",
                                   "--object", "assemblage", "--exhaustive-box=0", "--json")
        assert code == 0 and json.loads(out)["result"]["all_pass"]

    @pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
    def test_usage_error_is_one(self, capsys, argv):
        code, out, err = run_capture(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: polydiv") and "error: " in err

    @pytest.mark.parametrize("argv", HELP)
    def test_help_is_zero(self, capsys, argv):
        code, out, err = run_capture(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: polydiv")

    @pytest.mark.parametrize("command, obj", [("coloring-check", "coloring"),
                                              ("assemblage-check", "assemblage"),
                                              ("axiom-check", "assemblage")])
    def test_spec_z_coloring_is_a_schema_error(self, capsys, tmp_path, command, obj):
        """Colored divisors live over A1 and P1: a Spec Z coloring ends at its
        path, not in a report that passes it as an affine base."""
        point = {"prime": 2}
        doc = {"version": "1", "curve": "SpecZ", "lattice_rank": 1, "objects": {
            "divisor": {"type": "divisor", "tail": {"rays": [[1]]},
                        "coefficients": [{"point": point, "vertices": [["-1/2"]]}]},
            "coloring": {"type": "coloring", "divisor": "divisor", "base_point": point,
                         "colors": [{"point": point, "vertex": ["-1/2"]}]},
            "assemblage": {"type": "assemblage", "coloring": "coloring", "e": [1],
                           "s": [0], "lambda": [1]}}}
        err = self.schema_error(capsys, tmp_path, doc, command, obj)
        assert err.startswith("schema error: $.objects.coloring: WrongCurve: ")

    def test_degree_on_an_affine_base_is_wrong_curve(self, capsys):
        code, out, err = run_capture(capsys, "degree", "--input", fixture("hnorm_a1.json"),
                                     "--object", "divisor")
        assert (code, out) == (2, "")
        assert err.startswith("WrongCurve: the degree polyhedron needs a projective base")

    @pytest.mark.parametrize("name, ray, text", [
        ("hnorm_a1.json", "-1", "(-1,)"), ("trivial_a1.json", "5,7", "(5, 7)")])
    def test_vertical_exists_refuses_a_vector_that_is_not_a_ray(self, capsys, name, ray, text):
        """An affine base admits a vertical action for every ray of the tail,
        and for nothing else."""
        code, out, err = run_capture(capsys, "vertical-exists", "--input", fixture(name),
                                     "--object", "divisor", "--ray", ray)
        assert (code, out) == (2, "")
        assert err == f"RayNotInCone: {text} is not an extreme ray of the tail cone\n"

    def test_math_error_is_two(self, capsys):
        code, _, err = run_capture(
            capsys, "eval", "--input", fixture("ex345.json"),
            "--object", "divisor", "--m=-1,0")
        assert code == 2
        assert "OutsideWeightCone" in err

    def test_a_place_with_a_large_constant_is_zero(self, capsys, tmp_path):
        """The place t^2 + 10^18 is decided by its discriminant, at once."""
        doc = {"version": "1", "curve": "A1", "lattice_rank": 1, "objects": {"d": {
            "type": "divisor", "tail": {"rays": [[1]]},
            "coefficients": [{"point": {"poly": [10 ** 18, 0, 1]}, "vertices": [["1/2"]]}]}}}
        path = tmp_path / "place.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_capture(capsys, "eval", "--input", str(path), "--object", "d",
                                   "--m", "2", "--json")
        assert code == 0
        assert json.loads(out)["result"]["evaluation"]["coefficients"] == [
            {"point": {"poly": [10 ** 18, 0, 1]}, "value": 1}]

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


class TestAxiomCheckWork:
    def test_assemblage_is_checked_once(self, capsys, monkeypatch):
        calls = []
        real = gaactions.assemblage_check
        monkeypatch.setattr(gaactions, "assemblage_check",
                            lambda ca: calls.append(ca) or real(ca))
        code, out, _ = run_capture(capsys, "axiom-check", "--input", fixture("hnorm_a1.json"),
                                   "--object", "assemblage", "--json")
        assert code == 0 and json.loads(out)["result"]["all_pass"]
        assert len(calls) == 1


PLACES_GOLDEN = os.path.join(os.path.dirname(__file__), "places_golden.json")


def places_problem(curve: str) -> dict:
    """Rank 2, orthant tail, with places entered non-monic or with
    non-integral roots: 2t + 1 (printed t + 1/2) next to t + 1, 2t^2 + 1,
    and factors 2t + 4 and t + 1/3; on P1 a coefficient at infinity too."""
    places = [([1, 2], [["-1/2", 0]]), ([1, 1], [["1/2", 0]]), ([1, 0, 2], [[0, "1/4"]])]
    if curve == "P1":
        places.append(("infinity", [["1/2", 0], [0, "1/2"]]))
    coefficients = [{"point": p if p == "infinity" else {"poly": p}, "vertices": v}
                    for p, v in places]

    def element(degree, constant, factors):
        return {"degree": degree, "function": {"constant": constant, "factors": [
            {"poly": p, "exp": e} for p, e in factors]}}

    elements = [element([2, 0], 1, [([1, 2], 1), ([1, 1], -1)]),
                element([0, 1], "3/2", [([1, 0, 2], 1)]),
                element([2, 2], 1, [([2, 4], 1)]),
                element([3, 2], 1, [([1, 2], 2), (["1/3", 1], -1)])]
    return {"version": "1", "curve": curve, "lattice_rank": 2, "objects": {
        "divisor": {"type": "divisor", "tail": {"rays": [[1, 0], [0, 1]]},
                    "coefficients": coefficients},
        "gens": {"type": "generators", "elements": elements}}}


PLACES_MEMBER = json.dumps({"function": {"constant": "-2/3", "factors": [
    {"poly": [1, 2], "exp": 1}, {"poly": ["1/2", 0, 1], "exp": -1}]}, "degree": [1, 1]})


class TestNonMonicPlaces:
    """Places and factors print and sort in their monic form: t + 1/2
    before t + 1, t^2 + 1/2 before t + 1/2.  The recorded stdout pins the
    text and order of places other than the fixtures' t and t - 1."""

    @pytest.mark.parametrize("curve", ["A1", "P1"])
    @pytest.mark.parametrize("argv", [
        ["eval", "--object", "divisor", "--m", "1,1"],
        ["sections", "--object", "divisor", "--m", "2,2"],
        ["member", "--object", "divisor", "--element", PLACES_MEMBER],
        ["normalize", "--object", "gens"],
        ["generators", "--object", "divisor"]], ids=lambda argv: argv[0])
    def test_recorded_stdout(self, capsys, tmp_path, curve, argv):
        path = tmp_path / "places.json"
        path.write_text(json.dumps(places_problem(curve)))
        code, out, _ = run_capture(capsys, argv[0], "--input", str(path), *argv[1:], "--json")
        with open(PLACES_GOLDEN) as fh:
            assert (code, out) == (0, json.load(fh)[f"{curve} {argv[0]}"])


# A1, orthant tail, (-3,-3) + tail at t, base point t colored (-3,-3): the
# algebra is k[t, x, y] with x = t^3 chi^(1,0), y = t^3 chi^(0,1)
NO_ACTION_OF_DEGREE = {"version": "1", "curve": "A1", "lattice_rank": 2, "objects": {
    "divisor": {"type": "divisor", "tail": {"rays": [[1, 0], [0, 1]]},
                "coefficients": [{"point": {"poly": [0, 1]}, "vertices": [[-3, -3]]}]},
    "coloring": {"type": "coloring", "divisor": "divisor", "base_point": {"poly": [0, 1]},
                 "colors": [{"point": {"poly": [0, 1]}, "vertex": [-3, -3]}]},
    "assemblage": {"type": "assemblage", "coloring": "coloring", "e": [-2, -3],
                   "s": [0], "lambda": [1]}}}


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="horizontal-check has no root condition and passes an "
                          "assemblage that admits no action (ROADMAP item 11)")
def test_horizontal_check_agrees_with_assemblage_check(capsys, tmp_path):
    """A derivation of degree (-2, -3) sends t into the piece of that degree,
    which is 0, so no horizontal action of that degree exists: both checks
    must fail the assemblage."""
    path = tmp_path / "no_action.json"
    path.write_text(json.dumps(NO_ACTION_OF_DEGREE))
    verdicts = {}
    for command in ("assemblage-check", "horizontal-check"):
        code, out, _ = run_capture(capsys, command, "--input", str(path),
                                   "--object", "assemblage", "--json")
        assert code == 0
        verdicts[command] = json.loads(out)["result"]["all_pass"]
    assert verdicts == {"assemblage-check": False, "horizontal-check": False}
