"""Command-line front end: problem files in, canonical JSON or tables out.

Exit codes: 0 success, 1 schema/usage error or invalid problem file, 2 failed
mathematical precondition of a command (the error class name is reported).

An argv that starts with a command name is parsed by that command's parser
alone, exactly as the top-level parser would parse it (:func:`_parse`); the
top-level parser runs only for help and for a missing or unknown command.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import warnings
from gettext import gettext

from . import serialize as ser
from .convex import hilbert_basis
from .curves import PROJECTIVE_LINE, RationalFunction, WrongCurve
from .divisors import (
    HomogeneousElement,
    bounded_generators,
    degree_polyhedron,
    divisor_from_generators,
    dpd_presentation,
    evaluate,
    graded_piece,
    is_proper,
    member,
)
from .gaactions import (
    ActionError,
    ExponentialExpansion,
    Monomial,
    assemblage_check,
    associated_cones,
    axiom_check,
    horizontal_conditions,
    horizontal_expander,
    horizontal_kernel,
    is_demazure_root,
    roots_with_ray,
    toric_exponential,
    validate_coloring,
    vertical_exists,
    vertical_exponential,
)
from .ideals import (
    closure_member_oracle,
    closure_power_piece,
    monomial_closure_generators,
    monomial_is_normal,
    newton_polyhedron,
    normality_sufficient,
    pair_conditions,
    rees_pair,
)


def _vector(args, name: str, problem) -> tuple[int, ...]:
    """The lattice vector argument ``--name``, e.g. 1,2 or (1,2), of the
    problem's rank."""
    text = getattr(args, name)
    if text is None:
        raise ser.SchemaError(f"$.{name}", "missing lattice vector")
    entries = text.replace("(", "").replace(")", "").split(",")
    return ser.parse_integer_vector(entries, f"$.{name}", problem.rank)


def _box(args, problem) -> list[tuple[int, int]]:
    """The ``--box`` argument lo:hi,lo:hi, one range per coordinate."""
    parts = args.box.split(",")
    if len(parts) != problem.rank:
        raise ser.SchemaError("$.box", f"expected {problem.rank} comma-separated ranges "
                                       f"lo:hi, got {len(parts)}")
    return [ser.parse_integer_vector(part.split(":"), f"$.box[{i}]", 2)
            for i, part in enumerate(parts)]


def _at_least(args, name: str, low: int) -> int | None:
    """The integer option ``--name``, which must be at least ``low``."""
    value = getattr(args, name)
    if value is not None and value < low:
        raise ser.SchemaError(f"$.{name}", f"must be at least {low}, got {value}")
    return value


def _report_doc(report) -> dict:
    return {"all_pass": report.all_pass,
            "conditions": [{"name": n, "pass": ok, "note": note}
                           for n, ok, note in report.results]}


def _expansion_doc(exp: ExponentialExpansion) -> dict:
    return {"terms": [{"x_power": i, "element": ser.element_doc(
        el.element() if isinstance(el, Monomial) else el)} for i, el in exp.terms]}


def _fixture_path(name: str) -> str:
    root = os.environ.get("POLYDIV_FIXTURES",
                          os.path.join(os.path.dirname(__file__), "..", "..",
                                       "fixtures"))
    return os.path.join(root, name)


def _load(args) -> ser.ProblemFile:
    path = args.input
    if not os.path.exists(path) and not os.path.isabs(path):
        candidate = _fixture_path(path)
        if os.path.exists(candidate):
            path = candidate
    return ser.load_problem(path)


def _element_arg(args, problem) -> HomogeneousElement:
    doc = json.loads(args.element)
    return ser.parse_element(doc, problem.curve, problem.rank, "$.element")


@functools.lru_cache(maxsize=32)
def _normalized(problem: ser.ProblemFile, name: str):
    """Weight cone and divisor of the generators object ``name``, and the
    messages its normalization warned (a ProperWarning carries the
    properness certificate), per parsed problem; a call that raises is not kept."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        normalized = divisor_from_generators(list(problem.get(name, "generators")),
                                             problem.curve)
    return normalized, tuple(w.message for w in caught)


def _normalization(problem, name: str):
    """:func:`_normalized`, warning its messages again on every call."""
    normalized, messages = _normalized(problem, name)
    for message in messages:
        warnings.warn(message)
    return normalized


def cmd_normalize(args, problem):
    weight_cone, divisor = _normalization(problem, args.object)
    return {"weight_cone": ser.cone_doc(weight_cone),
            "divisor": ser.divisor_doc(divisor)}


def _divisor_arg(args, problem):
    kind, obj = problem.objects.get(args.object, (None, None))
    if kind == "divisor":
        return obj
    if kind == "generators":
        return _normalization(problem, args.object)[1]
    raise ser.SchemaError(f"$.objects.{args.object}", "expected a divisor")


def cmd_eval(args, problem):
    d = _divisor_arg(args, problem)
    m = _vector(args, "m", problem)
    return {"m": list(m), "evaluation": ser.weil_divisor_doc(evaluate(d, m))}


def cmd_degree(args, problem):
    d = _divisor_arg(args, problem)
    if d.curve is not PROJECTIVE_LINE:
        raise WrongCurve("the degree polyhedron needs a projective base")
    return {"degree_polyhedron": ser.polyhedron_doc(degree_polyhedron(d))}


def cmd_proper(args, problem):
    d = _divisor_arg(args, problem)
    ok, certificate = is_proper(d)
    return {"proper": ok, "certificate": certificate}


def cmd_sections(args, problem):
    d = _divisor_arg(args, problem)
    piece = graded_piece(d, _vector(args, "m", problem))
    return {"m": list(piece.degree), "module": ser.module_doc(piece.module)}


def cmd_member(args, problem):
    d = _divisor_arg(args, problem)
    el = _element_arg(args, problem)
    return {"element": ser.element_doc(el), "member": member(el, d)}


def cmd_generators(args, problem):
    d = _divisor_arg(args, problem)
    box = _box(args, problem) if args.box else None
    report = bounded_generators(d, box)
    return {
        "generators": [ser.element_doc(g) for g in report.generators],
        "box": [list(b) for b in report.box],
        "saturated_in_doubled_box": report.saturated_in_doubled_box,
        "unsaturated_degrees": [list(m) for m in report.unsaturated_degrees],
    }


def cmd_dpd(args, problem):
    gens = problem.get(args.object, "generators")
    return {"divisor": ser.weil_divisor_doc(dpd_presentation(list(gens), problem.curve))}


def cmd_mono_closure(args, problem):
    ideal = problem.get(args.object, "monomial_ideal")
    gens = monomial_closure_generators(ideal)
    return {"newton_polyhedron": ser.polyhedron_doc(newton_polyhedron(ideal)),
            "closure_generators": [list(m) for m in gens]}


def cmd_mono_normal(args, problem):
    ideal = problem.get(args.object, "monomial_ideal")
    ok, witness = monomial_is_normal(ideal)
    doc = {"normal": ok}
    if witness:
        doc["witness"] = {"exponent": witness["exponent"],
                          "point": list(witness["point"])}
    return doc


def cmd_rees(args, problem):
    pres = problem.get(args.object, "ideal")
    pair = rees_pair(pres)
    return {"newton_polyhedron": ser.polyhedron_doc(pair.newton),
            "rees_divisor": ser.divisor_doc(pair.rees_divisor)}


def cmd_closure_piece(args, problem):
    pair = rees_pair(problem.get(args.object, "ideal"))
    piece = closure_power_piece(pair, _vector(args, "m", problem), args.e)
    return {"m": list(piece.degree), "e": args.e,
            "module": ser.module_doc(piece.module)}


def cmd_pair_check(args, problem):
    pair = rees_pair(problem.get(args.object, "ideal"))
    return _report_doc(pair_conditions(pair))


def cmd_normal_sufficient(args, problem):
    pair = rees_pair(problem.get(args.object, "ideal"))
    ok, witness = normality_sufficient(pair)
    doc = {"normal_sufficient": ok}
    if witness:
        doc["witness"] = {"point": str(witness["point"]),
                          "exponent": witness["exponent"],
                          "lattice_point": list(witness["witness"])}
    return doc


def cmd_oracle(args, problem):
    ideal = problem.get(args.object, "monomial_ideal")
    m = _vector(args, "m", problem)
    found = closure_member_oracle(m, ideal, args.dmax)
    return {"m": list(m), "d_max": args.dmax,
            "integral_over_ideal": found,
            "note": "" if found else f"no witness up to d_max = {args.dmax}"}


def cmd_roots(args, problem):
    d = _divisor_arg(args, problem)
    ray = _vector(args, "ray", problem)
    roots = roots_with_ray(d.tail, ray, _box(args, problem))
    return {"ray": list(ray),
            "roots": [list(r.vector) for r in roots]}


def _root_arg(args, d, problem):
    root = is_demazure_root(d.tail, _vector(args, "e", problem))
    if root is None:
        raise ActionError(f"{args.e} is not a Demazure root of the tail cone")
    return root


def cmd_root_check(args, problem):
    d = _divisor_arg(args, problem)
    e = _vector(args, "e", problem)
    root = is_demazure_root(d.tail, e)
    doc = {"e": list(e), "is_root": root is not None}
    if root:
        doc["distinguished_ray"] = list(root.distinguished_ray)
    return doc


def cmd_toric_exp(args, problem):
    d = _divisor_arg(args, problem)
    root = _root_arg(args, d, problem)
    lam = ser.parse_rational(args.scalar, "$.scalar")
    el = Monomial(1, 0, _vector(args, "m", problem))
    return _expansion_doc(toric_exponential(d.tail, root, lam, el))


def cmd_vertical_exists(args, problem):
    d = _divisor_arg(args, problem)
    ray = _vector(args, "ray", problem)
    return {"ray": list(ray), "exists": vertical_exists(d, ray)}


def cmd_vertical_exp(args, problem):
    d = _divisor_arg(args, problem)
    root = _root_arg(args, d, problem)
    phi = ser.parse_function(json.loads(args.phi), problem.curve, "$.phi")
    exp = vertical_exponential(d, root, phi, _element_arg(args, problem))
    return _expansion_doc(exp)


def cmd_coloring_check(args, problem):
    colored = problem.get(args.object, "coloring")
    doc = _report_doc(validate_coloring(colored))
    doc["color_denominator"] = colored.color_denominator
    doc["degree_vertex"] = [ser.rational_str(a) for a in colored.degree_vertex()]
    return doc


def cmd_assemblage_check(args, problem):
    ca = problem.get(args.object, "assemblage")
    doc = _report_doc(assemblage_check(ca))
    omega, augmented = associated_cones(ca.colored)
    doc["kernel_weight_cone"] = ser.cone_doc(omega)
    doc["augmented_cone"] = ser.cone_doc(augmented)
    return doc


def cmd_horizontal_check(args, problem):
    ca = problem.get(args.object, "assemblage")
    omega, _ = associated_cones(ca.colored)
    report = horizontal_conditions(
        ca.colored.divisor, omega, ca.degree, ca.char_exponent, ca.exponents[0],
        base_point=ca.colored.base_point,
        infinity_point=ca.colored.infinity_point,
        exhaustive_box=_at_least(args, "exhaustive_box", 0))
    return _report_doc(report)


def cmd_horizontal_exp(args, problem):
    ca = problem.get(args.object, "assemblage")
    exp = horizontal_expander(ca)(_element_arg(args, problem))
    return _expansion_doc(exp)


def cmd_kernel(args, problem):
    ca = problem.get(args.object, "assemblage")
    kd = horizontal_kernel(ca)
    return {
        "sublattice_basis": [list(b) for b in kd.sublattice_basis],
        "monoid_generators": [list(m) for m in kd.monoid_generators],
        "functions": [{"degree": list(m), "function": ser.function_doc(f)}
                      for m, f in kd.functions],
    }


def cmd_axiom_check(args, problem):
    """Samples t^k times a section generator on an assemblage's divisor, or a
    constant on a divisor's; degrees are random Hilbert-basis sums."""
    count = _at_least(args, "samples", 1)
    rng = random.Random(args.seed)
    kind, ca = problem.objects.get(args.object, (None, None))
    if kind == "assemblage":
        d = ca.colored.divisor

        def element(m):
            gen = graded_piece(d, m).module.generators[0]
            return HomogeneousElement(gen * RationalFunction.variable(rng.randint(0, 2)), m)

        # built on the first expansion, so that sampling errors come first
        expander = functools.cache(lambda: horizontal_expander(ca))

        def expand(el):
            return expander()(el)
    else:
        d = _divisor_arg(args, problem)
        root = _root_arg(args, d, problem)
        lam = ser.parse_rational(args.scalar, "$.scalar")

        def element(m):
            return Monomial(rng.randint(1, 3), 0, m)

        expand = functools.partial(toric_exponential, d.tail, root, lam)
    basis = hilbert_basis(d.weight_cone)

    def sample() -> HomogeneousElement | Monomial:
        return element(tuple(sum(rng.randint(0, 2) * b[j] for b in basis)
                             for j in range(d.rank)))

    samples = [(sample(), sample()) for _ in range(count)]
    return _report_doc(axiom_check(expand, samples))


COMMANDS = {
    "normalize": (cmd_normalize, "divisor of the normalization from generators"),
    "eval": (cmd_eval, "evaluate a polyhedral divisor at a weight vector"),
    "degree": (cmd_degree, "degree polyhedron over a projective base"),
    "proper": (cmd_proper, "properness with certificate"),
    "sections": (cmd_sections, "graded piece (sections of the floored evaluation)"),
    "member": (cmd_member, "membership of a homogeneous element"),
    "generators": (cmd_generators, "box-certified generator extraction"),
    "dpd": (cmd_dpd, "rank-one presentation divisor"),
    "mono-closure": (cmd_mono_closure, "integral closure of a monomial ideal"),
    "mono-normal": (cmd_mono_normal, "normality of a monomial ideal"),
    "rees": (cmd_rees, "Newton polyhedron and Rees divisor of a homogeneous ideal"),
    "closure-piece": (cmd_closure_piece, "graded piece of a closed ideal power"),
    "pair-check": (cmd_pair_check, "Rees-pair axioms with witnesses"),
    "normal-sufficient": (cmd_normal_sufficient, "sufficient normality criterion"),
    "oracle": (cmd_oracle, "brute-force integral dependence for monomials"),
    "roots": (cmd_roots, "Demazure roots with a given distinguished ray in a box"),
    "root-check": (cmd_root_check, "test a vector for being a Demazure root"),
    "toric-exp": (cmd_toric_exp, "toric exponential expansion"),
    "vertical-exists": (cmd_vertical_exists, "existence of a vertical action"),
    "vertical-exp": (cmd_vertical_exp, "vertical exponential expansion"),
    "coloring-check": (cmd_coloring_check, "colored-divisor axioms"),
    "assemblage-check": (cmd_assemblage_check, "coherent-assemblage axioms"),
    "horizontal-check": (cmd_horizontal_check, "horizontal existence conditions"),
    "horizontal-exp": (cmd_horizontal_exp, "characteristic-zero horizontal expansion"),
    "kernel": (cmd_kernel, "kernel of a horizontal action"),
    "axiom-check": (cmd_axiom_check, "iterative higher-derivation axioms on samples"),
}


COMMON = (
    ("--input", dict(required=True, help="problem file (JSON)")),
    ("--object", dict(default=None, help="object name in the problem file")),
    ("--json", dict(action="store_true", help="machine-readable output")),
)
M = ("--m", dict(required=True, help="lattice vector, e.g. 1,2"))
ROOT = ("--e", dict(default=None, help="lattice vector, e.g. -1,0"))
SCALAR = ("--scalar", dict(default="1", help="rational scalar"))
RAY = ("--ray", dict(required=True))
ELEMENT = ("--element", dict(required=True, help="homogeneous element as inline JSON"))

# extra arguments of each subcommand, after COMMON, in --help order
ARGUMENTS = {
    "eval": (M,),
    "sections": (M,),
    "member": (ELEMENT,),
    "generators": (("--box", dict(default=None, help="box lo:hi,lo:hi")),),
    "closure-piece": (M, ("--e", dict(type=int, required=True, help="ideal power"))),
    "oracle": (M, ("--dmax", dict(type=int, default=12))),
    "roots": (RAY, ("--box", dict(required=True, help="box lo:hi,lo:hi"))),
    "root-check": (ROOT,),
    "toric-exp": (M, ROOT, SCALAR),
    "vertical-exists": (RAY,),
    "vertical-exp": (ROOT, SCALAR, ELEMENT,
                     ("--phi", dict(required=True, help="multiplier as inline JSON"))),
    "horizontal-check": (("--exhaustive-box", dict(type=int, default=None)),),
    "horizontal-exp": (ELEMENT,),
    "axiom-check": (ROOT, SCALAR, ("--samples", dict(type=int, default=20)),
                    ("--seed", dict(type=int, default=0))),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser, each subcommand's parser in ``commands``; built
    once, it depends only on the constant tables COMMANDS, COMMON and ARGUMENTS."""
    parser = argparse.ArgumentParser(
        prog="polydiv",
        description="exact computations with polyhedral divisors")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in COMMON + ARGUMENTS.get(name, ()):
            p.add_argument(flag, **spec)
    parser.commands = sub.choices
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, the same Namespace, output and exit,
    from the named command's parser; the top-level one reports what it leaves."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extra))
    return args


def _is_flat(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(x, (dict, list)) for x in value)


def _print_human(doc, indent=0):
    pad = "  " * indent
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, dict) or (isinstance(value, list) and not _is_flat(value)):
                print(f"{pad}{key}:")
                _print_human(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(doc, list):
        for item in doc:
            if isinstance(item, dict) or (isinstance(item, list) and not _is_flat(item)):
                _print_human(item, indent)
            else:
                print(f"{pad}- {item}")
    else:
        print(f"{pad}{doc}")


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as stop:  # argparse exits 0 after --help, 2 on a usage error
        return 1 if stop.code else 0
    handler, _ = COMMANDS[args.command]
    try:
        problem = _load(args)
        result = handler(args, problem)
    except ser.SchemaError as err:
        print(f"schema error: {err}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 1
    except ser.MATH_ERRORS as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    document = {"command": args.command,
                "object": args.object,
                "result": result}
    if args.json:
        sys.stdout.write(ser.dump_canonical(document))
    else:
        _print_human(document)
    return 0


if __name__ == "__main__":
    sys.exit(main())
