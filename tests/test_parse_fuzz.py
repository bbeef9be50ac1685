"""Mutated fixture documents parse or fail as a SchemaError, nothing else.

Each draw takes a fixture problem document and applies one to three
mutations at random places in its tree: a value replaced by a value of
another shape (null, booleans, numbers, strings, short arrays and objects)
or by a copy of another subtree of the same document, or a key or array
entry deleted.  ``serialize.parse_problem`` must either succeed or raise a
``SchemaError``; any other exception is a hole in the parser.

The same mutations of the ``--element`` and ``--phi`` documents of the
recorded ``member`` and ``vertical-exp`` command lines must end ``cli.main``
with exit 0, 1 or 2, never with an exception; so must the recorded
``generators``, ``sections`` and ``eval`` command lines with a drawn ``--box``
or ``--m``: wrong lengths, non-integers, lo > hi and coordinates of absolute
value at most 8, which keeps every run short.  The other recorded command
lines that take arguments get one or two of their arguments drawn the same
way, integer options small or not integers at all; a non-integer value of
an integer option is a usage error, exit 1.  The recorded ``vertical-exists``
lines also get a drawn integer ``--ray``: exit 0 when its primitive vector is
a ray of the object's tail, exit 2 otherwise, on every base.
"""

import contextlib
import copy
import glob
import io
import json
import os
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from polydiv import cli, serialize
from polydiv.divisors import divisor_from_generators
from polydiv.linalg import primitive

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


def mutate(draw, doc, values=VALUES):
    """One to three mutations of a copy of ``doc``; the root is kept."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(places(doc))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent, key = at(doc, path[:-1]), path[-1]
        action = draw(st.sampled_from(["replace", "replace", "copy", "delete"]))
        if action == "delete":
            del parent[key]
        elif action == "copy":
            parent[key] = copy.deepcopy(at(doc, draw(st.sampled_from(paths))))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(values)))
    return doc


@st.composite
def mutated_documents(draw):
    return mutate(draw, draw(st.sampled_from(DOCS)))


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


@pytest.mark.parametrize("constant", [3 ** 400, f"1/{3 ** 400}"], ids=["n", "1/n"])
def test_spec_z_constant_is_checked(constant):
    """A bare constant past SPEC_Z_BITS (3^400 has 634 bits) ends at its path."""
    doc = copy.deepcopy(SPEC_Z_FACTORS)
    doc["objects"]["gens"]["elements"][2]["function"]["constant"] = constant
    with pytest.raises(serialize.SchemaError) as err:
        serialize.parse_problem(doc)
    assert err.value.path == "$.objects.gens.elements[2].function.constant"


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


GOLDEN = os.path.join(ROOT, "bench", "golden", "fixtures.json")
with open(GOLDEN) as fh:
    RECORDS = json.load(fh)
RECORDED = [r["argv"] for r in RECORDS]
# every fixture with a divisor or generators object; i33 and rem357 hold
# monomial ideals only
COMMANDS = [argv for argv in RECORDED if argv[0] in ("member", "vertical-exp")]
VECTOR_COMMANDS = [argv for argv in RECORDED if argv[0] in ("generators", "sections", "eval")]

# values a function or an element may take: places, products of places, keys
# off the support, primes and a large exponent
FUNCTION_VALUES = VALUES + [
    {"poly": [0, -1, 1], "exp": -1}, {"poly": [1, 0, 1], "exp": -2}, {"poly": [2, 1], "exp": 3},
    {"prime": 3, "exp": -2}, {"prime": 7, "exp": 1}, {"poly": [0, 1], "exp": 40}, "-4/9"]


def test_commands_cover_every_divisor_fixture():
    assert {argv[2] for argv in COMMANDS} == {
        "ex345.json", "ex346.json", "ex445.json", "ex5617.json", "hnorm_a1.json",
        "rem3314.json", "trivial_a1.json"}


@st.composite
def mutated_command_lines(draw):
    argv = list(draw(st.sampled_from(COMMANDS)))
    flags = [i for i, a in enumerate(argv) if a in ("--element", "--phi")]
    i = draw(st.sampled_from(flags)) + 1
    argv[i] = json.dumps(mutate(draw, json.loads(argv[i]), FUNCTION_VALUES))
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_command_lines())
def test_mutated_element_or_phi_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--json"])
    assert code in (0, 1, 2), err.getvalue()


def rank_of(argv) -> int:
    with open(os.path.join(ROOT, "fixtures", argv[argv.index("--input") + 1])) as fh:
        return json.load(fh)["lattice_rank"]


NON_INTEGERS = ["", "x", "1.5", "1/2", "-1/2", "1e1", "(1", "inf"]
# an integer three times in four
ENTRIES = st.one_of(*[st.integers(-8, 8).map(str)] * 3, st.sampled_from(NON_INTEGERS))


@st.composite
def joined(draw, entries, counts, sep):
    count = draw(st.sampled_from(counts))
    return sep.join(draw(st.lists(entries, min_size=count, max_size=count)))


@st.composite
def mutated_box_or_m(draw):
    """A recorded command line with a drawn ``--m``, or ``--box`` for
    ``generators``: rank entries, or one more or one fewer; a range is lo:hi
    around 0 half the time, else drawn entries (lo > hi about half the
    time) in one to three parts."""
    argv = list(draw(st.sampled_from(VECTOR_COMMANDS)))
    rank = rank_of(argv)
    counts = [rank] * 4 + [rank - 1, rank + 1]
    if argv[0] == "generators":
        around_zero = st.tuples(st.integers(-8, 0), st.integers(1, 8)).map("{0[0]}:{0[1]}".format)
        ranges = st.one_of(around_zero, joined(ENTRIES, [2] * 4 + [1, 3], ":"))
        return argv + ["--box=" + draw(joined(ranges, counts, ","))]
    i = argv.index("--m")
    return argv[:i] + ["--m=" + draw(joined(ENTRIES, counts, ","))] + argv[i + 2:]


def test_vector_commands_cover_every_divisor_fixture():
    assert {argv[2] for argv in VECTOR_COMMANDS} == {
        "ex345.json", "ex346.json", "ex445.json", "ex5617.json", "hnorm_a1.json",
        "rem3314.json", "trivial_a1.json"}
    assert {argv[0] for argv in VECTOR_COMMANDS} == {"generators", "sections", "eval"}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_box_or_m())
def test_mutated_box_or_m_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--json"])
    assert code in (0, 1, 2), err.getvalue()


# every other recorded command line that takes arguments, and what each of
# its flags may be drawn as: a lattice vector, a box, a scalar, an element,
# or an integer in a range (a non-integer one time in four).  Small ranges
# keep each run short: d_max <= 3 integral-dependence rounds, at most 3
# sampled pairs, an exhaustive box of half-width <= 2.
OTHER_FLAGS = {
    "closure-piece": {"--m": "vector", "--e": (-1, 3)},
    "oracle": {"--m": "vector", "--dmax": (-1, 3)},
    "roots": {"--ray": "vector", "--box": "box"},
    "root-check": {"--e": "vector"},
    "toric-exp": {"--m": "vector", "--e": "vector", "--scalar": "scalar"},
    "vertical-exists": {"--ray": "vector"},
    "horizontal-check": {"--exhaustive-box": (-1, 2)},
    "horizontal-exp": {"--element": "element"},
    "axiom-check": {"--e": "vector", "--scalar": "scalar", "--samples": (-1, 3),
                    "--seed": (0, 5)},
}
# a recorded traceback is pinned by its own xfail test below, not fuzzed
OTHER_COMMANDS = [r["argv"] for r in RECORDS
                  if r["argv"][0] in OTHER_FLAGS and r["outcome"]["exit"] is not None]
AXIOM_CHECK_INDEX_ERROR = ["axiom-check", "--input", "ex5617.json", "--object", "assemblage"]
SCALARS = ["0", "1", "-2", "1/2", "x", "1/0", ""]


def test_other_commands_cover_the_recorded_lines():
    assert {argv[0] for argv in OTHER_COMMANDS} == set(OTHER_FLAGS)
    assert {argv[2] for argv in OTHER_COMMANDS} == {
        "ex345.json", "ex346.json", "ex445.json", "ex5617.json", "hnorm_a1.json",
        "i33.json", "rem3314.json", "rem357.json", "trivial_a1.json"}
    assert [r["argv"] for r in RECORDS if r["outcome"]["exit"] is None] == \
        [AXIOM_CHECK_INDEX_ERROR]


@st.composite
def mutated_other_command_lines(draw):
    """A recorded command line with one or two of its flags drawn; a drawn
    value is appended as --flag=value, which overrides a recorded one."""
    argv = list(draw(st.sampled_from(OTHER_COMMANDS)))
    rank = rank_of(argv)
    counts = [rank] * 4 + [rank - 1, rank + 1]
    kinds = OTHER_FLAGS[argv[0]]
    for flag in draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=2,
                              unique=True)):
        kind = kinds[flag]
        if kind == "element":
            value = json.dumps(mutate(draw, json.loads(argv[argv.index(flag) + 1]),
                                      FUNCTION_VALUES))
        elif kind == "scalar":
            value = draw(st.sampled_from(SCALARS))
        elif kind == "box":
            around_zero = st.tuples(st.integers(-3, 0), st.integers(0, 3)).map(
                "{0[0]}:{0[1]}".format)
            ranges = st.one_of(around_zero, joined(ENTRIES, [2, 2, 1, 3], ":"))
            value = draw(joined(ranges, counts, ","))
        elif kind == "vector":
            value = draw(joined(ENTRIES, counts, ","))
        else:
            value = draw(st.one_of(*[st.integers(*kind).map(str)] * 3,
                                   st.sampled_from(NON_INTEGERS)))
        argv.append(f"{flag}={value}")
    return argv


def is_usage_error(argv) -> bool:
    """Does a drawn --flag=value of an integer option hold a non-integer?"""
    kinds = OTHER_FLAGS[argv[0]]
    for arg in argv:
        flag, drawn, value = arg.partition("=")
        if drawn and isinstance(kinds.get(flag), tuple):
            try:
                int(value)
            except ValueError:
                return True
    return False


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_other_command_lines())
def test_mutated_other_command_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--json"])
    assert code in ((1,) if is_usage_error(argv) else (0, 1, 2)), err.getvalue()


def tail_rays(argv) -> tuple:
    """The rays of the tail of the divisor the command line names."""
    with open(os.path.join(ROOT, "fixtures", argv[argv.index("--input") + 1])) as fh:
        problem = serialize.parse_problem(json.load(fh))
    kind, obj = problem.objects[argv[argv.index("--object") + 1]]
    d = obj if kind == "divisor" else divisor_from_generators(list(obj), problem.curve)[1]
    return d.tail.rays


VERTICAL_EXISTS = [(argv, tail_rays(argv)) for argv in RECORDED if argv[0] == "vertical-exists"]


@st.composite
def vertical_exists_rays(draw):
    """A recorded vertical-exists line with a drawn ``--ray``, and whether
    that is a ray of the tail: a positive multiple of a tail ray half the
    time, else any small integer vector, zero included."""
    argv, rays = draw(st.sampled_from(VERTICAL_EXISTS))
    if draw(st.booleans()):
        ray = tuple(draw(st.integers(1, 4)) * a for a in draw(st.sampled_from(rays)))
    else:
        rank = len(rays[0])
        ray = tuple(draw(st.lists(st.integers(-8, 8), min_size=rank, max_size=rank)))
    return argv + ["--ray=" + ",".join(map(str, ray))], primitive(ray) in rays


def test_vertical_exists_lines_cover_every_divisor_fixture():
    assert {argv[2] for argv, _ in VERTICAL_EXISTS} == {
        "ex345.json", "ex346.json", "ex445.json", "ex5617.json", "hnorm_a1.json",
        "rem3314.json", "trivial_a1.json"}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(vertical_exists_rays())
def test_vertical_exists_refuses_a_vector_that_is_not_a_ray(case):
    argv, is_ray = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--json"])
    assert code == (0 if is_ray else 2), err.getvalue()
    assert is_ray or err.getvalue().startswith("RayNotInCone: ")


@pytest.mark.xfail(raises=IndexError, strict=True,
                   reason="axiom-check samples a degree whose piece is zero (ROADMAP 5(f))")
def test_recorded_axiom_check_on_ex5617_assemblage_exits_cleanly():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(AXIOM_CHECK_INDEX_ERROR + ["--json"])
    assert code in (0, 1, 2), err.getvalue()


# the toric axiom-check records that end in OutsideWeightCone (ROADMAP item 6)
AXIOM_CHECK_OUTSIDE = [
    ["axiom-check", "--input", "ex346.json", "--object", "gens", "--e=-1,1"],
    ["axiom-check", "--input", "ex445.json", "--object", "gens", "--e=0,-1"]]


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="axiom-check draws a coefficient per coordinate, not per "
                          "Hilbert-basis element, so a degree can leave the weight cone")
@pytest.mark.parametrize("argv", AXIOM_CHECK_OUTSIDE, ids=["ex346", "ex445"])
def test_recorded_toric_axiom_check_samples_inside_the_weight_cone(argv):
    assert argv in RECORDED
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--json"])
    assert code == 0, err.getvalue()
    assert json.loads(out.getvalue())["result"]["all_pass"]
