"""Canonical JSON serialization for problem files and results.

Rationals travel as "p/q" strings, polynomials as ascending coefficient
arrays, points as {"poly": [...]}, "infinity" or {"prime": p}.  Parsing is
strict: unknown fields are rejected, and every error carries the path of
the offending field.  Serialization is deterministic, so fixtures can be
compared byte for byte: the canonical text is ``json.dumps(doc,
sort_keys=True, indent=2)`` and a newline, written in one recursive pass
(strings escaped by ``json.encoder.encode_basestring_ascii``, ints by
``int.__repr__``, rationals as canonical strings).  It writes only dicts
with str keys, lists, tuples, strs, ints, bools and None, by exact type;
any other value (a float, a ``Fraction``, a subclass) raises ``TypeError``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import MappingProxyType
from typing import Any, Mapping

from .convex import Cone, GeometryError, Polyhedron
from .curves import (
    AFFINE_LINE,
    PROJECTIVE_LINE,
    SPEC_Z,
    BaseCurve,
    BasePoint,
    CurveError,
    Divisor,
    RationalFunction,
    SectionModule,
    monic,
)
from .divisors import DivisorError, HomogeneousElement, PolyhedralDivisor
from .gaactions import ActionError, CoherentAssemblage, ColoredDivisor
from .ideals import GradedIdealPresentation, IdealError, MonomialIdeal

# failed preconditions: a SchemaError in a problem file, exit 2 in a command
MATH_ERRORS = (GeometryError, CurveError, DivisorError, IdealError, ActionError)


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def parse_rational(value, path: str = "$") -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(path, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as err:
            raise SchemaError(path, f"malformed rational {value!r}: {err}") from None
    raise SchemaError(path, f"expected a rational, got {type(value).__name__}")


def parse_integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    return value


def rational_str(value) -> str | int:
    f = Fraction(value)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _expect_keys(obj: Mapping, path: str, required: set[str], optional: set[str] = set()):
    if not isinstance(obj, Mapping):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    missing = required - set(obj)
    if missing:
        raise SchemaError(path, f"missing fields {sorted(missing)}")
    unknown = set(obj) - required - optional
    if unknown:
        raise SchemaError(path, f"unknown fields {sorted(unknown)}")


def _array(obj: Mapping, key: str, path: str) -> list[tuple[str, object]]:
    """(path, entry) for each entry of the array obj[key]."""
    if not isinstance(obj[key], list):
        raise SchemaError(f"{path}.{key}", "expected an array")
    return [(f"{path}.{key}[{i}]", item) for i, item in enumerate(obj[key])]


def parse_vector(value, path: str, rank: int | None = None) -> tuple[Fraction, ...]:
    """An array of rationals; of length ``rank`` when one is given."""
    if not isinstance(value, list):
        raise SchemaError(path, "expected an array of rationals")
    if rank is not None and len(value) != rank:
        raise SchemaError(path, f"expected {rank} entries, got {len(value)}")
    return tuple(parse_rational(a, f"{path}[{i}]") for i, a in enumerate(value))


def parse_integer_vector(value, path: str, rank: int) -> tuple[int, ...]:
    vec = parse_vector(value, path, rank)
    for i, a in enumerate(vec):
        if a.denominator != 1:
            raise SchemaError(f"{path}[{i}]", f"expected an integer, got {a}")
    return tuple(int(a) for a in vec)


def parse_curve(value, path: str = "$.curve") -> BaseCurve:
    names = {"A1": AFFINE_LINE, "P1": PROJECTIVE_LINE, "SpecZ": SPEC_Z}
    if not isinstance(value, str) or value not in names:
        raise SchemaError(path, f"curve must be one of {sorted(names)}")
    return names[value]


def parse_prime(value, path: str) -> BasePoint:
    try:
        return BasePoint.of_prime(parse_integer(value, path))
    except CurveError as err:
        raise SchemaError(path, str(err)) from None


def parse_point(value, curve: BaseCurve, path: str) -> BasePoint:
    if value == "infinity":
        z = BasePoint.infinity()
    else:
        _expect_keys(value, path, set(), {"poly", "prime"})
        if "poly" in value and "prime" in value:
            raise SchemaError(path, "point has both poly and prime")
        if "prime" in value:
            z = parse_prime(value["prime"], f"{path}.prime")
        elif "poly" in value:
            z = BasePoint.finite(parse_vector(value["poly"], f"{path}.poly"))
        else:
            raise SchemaError(path, "point needs poly, prime or \"infinity\"")
    if not z.on_curve(curve):
        raise SchemaError(path, f"point {z} does not lie on {curve.value}")
    return z


def point_doc(z: BasePoint):
    if z.kind == "infinity":
        return "infinity"
    if z.kind == "prime":
        return {"prime": z.prime}
    return {"poly": [rational_str(a) for a in monic(z.poly)]}


SPEC_Z_BITS = 512  # a Spec Z element is its value, factored wherever its divisor is read


def parse_function(value, curve: BaseCurve, path: str) -> RationalFunction:
    _expect_keys(value, path, {"constant"}, {"factors"})
    const = parse_rational(value["constant"], f"{path}.constant")
    if curve is SPEC_Z and (const.numerator * const.denominator).bit_length() > SPEC_Z_BITS:
        raise SchemaError(f"{path}.constant", f"value past {SPEC_Z_BITS} bits")
    base = "prime" if curve is SPEC_Z else "poly"
    fmap: dict = {}
    for fpath, fac in _array(value, "factors", path) if "factors" in value else ():
        _expect_keys(fac, fpath, {base, "exp"})
        exp = parse_integer(fac["exp"], f"{fpath}.exp")
        if curve is SPEC_Z:
            p = parse_prime(fac["prime"], f"{fpath}.prime").prime
            bits = abs(exp) * p.bit_length() + (const.numerator * const.denominator).bit_length()
            if bits > SPEC_Z_BITS:
                raise SchemaError(f"{fpath}.exp", f"value past {SPEC_Z_BITS} bits at {p}^{exp}")
            const *= Fraction(p) ** exp
        else:
            key = parse_vector(fac["poly"], f"{fpath}.poly")
            fmap[key] = fmap.get(key, 0) + exp
    if curve is SPEC_Z:
        return RationalFunction.rational_number(const)
    return RationalFunction.from_factored(const, fmap)


def function_doc(f: RationalFunction):
    doc = {"constant": rational_str(f.constant)}
    if f.curve_kind == "function_field":
        doc["factors"] = [{"poly": [rational_str(a) for a in monic(b)], "exp": e}
                          for b, e in f.factors]
    return doc


def parse_element(value, curve: BaseCurve, rank: int, path: str) -> HomogeneousElement:
    _expect_keys(value, path, {"function", "degree"})
    return HomogeneousElement(
        parse_function(value["function"], curve, f"{path}.function"),
        parse_integer_vector(value["degree"], f"{path}.degree", rank))


def element_doc(el: HomogeneousElement):
    return {"function": function_doc(el.function), "degree": list(el.degree)}


def parse_cone(value, rank: int, path: str) -> Cone:
    _expect_keys(value, path, {"rays"})
    rays = [parse_vector(r, ipath, rank) for ipath, r in _array(value, "rays", path)]
    return Cone.from_rays(rays, rank)


def cone_doc(c: Cone):
    return {"rays": [list(r) for r in c.rays]}


def polyhedron_doc(p: Polyhedron):
    return {
        "vertices": [[rational_str(a) for a in v] for v in p.vertices],
        "tail_rays": [list(r) for r in p.tail.rays],
    }


def parse_divisor(value, curve: BaseCurve, rank: int, path: str) -> PolyhedralDivisor:
    _expect_keys(value, path, {"tail", "coefficients"}, {"type", "curve"})
    if "curve" in value and value["curve"] != curve.value:
        raise SchemaError(f"{path}.curve",
                          f"divisor curve {value['curve']!r} differs from the "
                          f"problem curve {curve.value!r}")
    tail = parse_cone(value["tail"], rank, f"{path}.tail")
    coeffs = []
    for ipath, item in _array(value, "coefficients", path):
        _expect_keys(item, ipath, {"point", "vertices"}, {"tail_rays"})
        z = parse_point(item["point"], curve, f"{ipath}.point")
        if any(z == other for other, _ in coeffs):
            raise SchemaError(f"{ipath}.point", f"point {z} already has a coefficient")
        verts = [parse_vector(v, vpath, rank) for vpath, v in _array(item, "vertices", ipath)]
        coeffs.append((z, Polyhedron.from_vertices_and_tail(verts, tail)))
    return PolyhedralDivisor.of(curve, tail, coeffs)


def divisor_doc(d: PolyhedralDivisor):
    return {
        "type": "divisor",
        "curve": d.curve.value,
        "tail": cone_doc(d.tail),
        "coefficients": [
            {"point": point_doc(z), **polyhedron_doc(p)}
            for z, p in d.coefficients
        ],
    }


def weil_divisor_doc(d: Divisor):
    return {
        "curve": d.curve.value,
        "coefficients": [{"point": point_doc(z), "value": rational_str(a)}
                         for z, a in d.coefficients],
    }


def module_doc(mod: SectionModule):
    return {"kind": mod.kind,
            "generators": [function_doc(f) for f in mod.generators]}


@dataclass(frozen=True, eq=False)
class ProblemFile:
    """Parsed problem file: curve, lattice rank and a named object table.

    Parsed problems are shared within a process: :func:`load_problem` hands
    the same ProblemFile to every load of the same file content, so it is
    read-only.  Equality is identity, so a cache may key on a parsed problem."""

    curve: BaseCurve
    rank: int
    objects: Mapping[str, tuple[str, Any]]

    def get(self, name: str, expected_type: str):
        if name not in self.objects:
            raise SchemaError(f"$.objects.{name}", "no such object")
        kind, obj = self.objects[name]
        if kind != expected_type:
            raise SchemaError(f"$.objects.{name}",
                              f"expected a {expected_type}, found a {kind}")
        return obj


def parse_problem(doc) -> ProblemFile:
    _expect_keys(doc, "$", {"version", "curve", "lattice_rank", "objects"})
    if doc["version"] != "1":
        raise SchemaError("$.version", f"unsupported version {doc['version']!r}")
    curve = parse_curve(doc["curve"])
    rank = parse_integer(doc["lattice_rank"], "$.lattice_rank")
    if not 1 <= rank <= 6:
        raise SchemaError("$.lattice_rank", "expected an integer between 1 and 6")
    raw = doc["objects"]
    if not isinstance(raw, Mapping):
        raise SchemaError("$.objects", "expected an object table")
    objects: dict[str, tuple[str, Any]] = {}
    # two passes: divisors and ideals may reference earlier objects by name
    pending = dict(raw)
    progress = True
    while pending and progress:
        progress = False
        for name in list(pending):
            value = pending[name]
            path = f"$.objects.{name}"
            try:
                parsed = _parse_object(value, curve, rank, objects, path)
            except _Unresolved:
                continue
            except MATH_ERRORS as err:
                raise SchemaError(path, f"{type(err).__name__}: {err}") from None
            objects[name] = parsed
            del pending[name]
            progress = True
    if pending:
        raise SchemaError(f"$.objects.{sorted(pending)[0]}",
                          "unresolved reference cycle or missing target")
    return ProblemFile(curve, rank, MappingProxyType(objects))


class _Unresolved(Exception):
    pass


def _deref(objects: Mapping, name, expected: str, path: str):
    if not isinstance(name, str):
        raise SchemaError(path, "expected an object name")
    if name not in objects:
        raise _Unresolved()
    kind, obj = objects[name]
    if kind != expected:
        raise SchemaError(path, f"expected a {expected}, found a {kind}")
    return obj


def _parse_object(value, curve: BaseCurve, rank: int, objects: Mapping, path: str):
    if not isinstance(value, Mapping) or "type" not in value:
        raise SchemaError(path, "object needs a type field")
    kind = value["type"]
    if kind == "divisor":
        return ("divisor", parse_divisor(value, curve, rank, path))
    if kind == "generators":
        _expect_keys(value, path, {"type", "elements"})
        els = [parse_element(e, curve, rank, ipath)
               for ipath, e in _array(value, "elements", path)]
        return ("generators", tuple(els))
    if kind == "monomial_ideal":
        _expect_keys(value, path, {"type", "weight_cone", "exponents"})
        cone = parse_cone(value["weight_cone"], rank, f"{path}.weight_cone")
        exps = [parse_integer_vector(m, ipath, rank)
                for ipath, m in _array(value, "exponents", path)]
        return ("monomial_ideal", MonomialIdeal.of(cone, exps))
    if kind == "ideal":
        _expect_keys(value, path, {"type", "ambient", "generators"})
        divisor = _deref(objects, value["ambient"], "divisor", f"{path}.ambient")
        els = [parse_element(e, curve, rank, ipath)
               for ipath, e in _array(value, "generators", path)]
        pres = GradedIdealPresentation.of(divisor.weight_cone, divisor, els)
        return ("ideal", pres)
    if kind == "coloring":
        _expect_keys(value, path, {"type", "divisor", "base_point", "colors"},
                     {"infinity_point"})
        divisor = _deref(objects, value["divisor"], "divisor", f"{path}.divisor")
        base = parse_point(value["base_point"], curve, f"{path}.base_point")
        infinity = None
        if "infinity_point" in value:
            infinity = parse_point(value["infinity_point"], curve,
                                   f"{path}.infinity_point")
        colors = []
        for ipath, item in _array(value, "colors", path):
            _expect_keys(item, ipath, {"point", "vertex"})
            colors.append((parse_point(item["point"], curve, f"{ipath}.point"),
                           parse_vector(item["vertex"], f"{ipath}.vertex", rank)))
        return ("coloring", ColoredDivisor.of(divisor, base, colors, infinity))
    if kind == "assemblage":
        _expect_keys(value, path, {"type", "coloring", "e", "s", "lambda"}, {"p"})
        colored = _deref(objects, value["coloring"], "coloring", f"{path}.coloring")
        e = parse_integer_vector(value["e"], f"{path}.e", rank)
        s = [parse_integer(x, ipath) for ipath, x in _array(value, "s", path)]
        lams = [parse_rational(x, ipath) for ipath, x in _array(value, "lambda", path)]
        p = parse_integer(value.get("p", 1), f"{path}.p")
        return ("assemblage",
                CoherentAssemblage.of(colored, e, s, lams, p))
    raise SchemaError(f"{path}.type", f"unknown object type {kind!r}")


def load_problem(path: str) -> ProblemFile:
    """The problem file at ``path``.  The file is read on every call, but a
    content already parsed in this process is not parsed again: calls with
    the same bytes, at any path, share one read-only ProblemFile."""
    with open(path) as fh:
        text = fh.read()
    try:
        return _parse_text(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}:{err.lineno}:{err.colno}", err.msg) from None


@functools.lru_cache(maxsize=32)
def _parse_text(text: str) -> ProblemFile:
    """Keyed by the content, so an edited file is parsed afresh; a call that
    raises leaves no entry, so errors are raised again on every call."""
    return parse_problem(json.loads(text))


def dump_canonical(doc) -> str:
    """The canonical text of ``doc`` (see the module docstring)."""
    return _encode(doc, "\n") + "\n"


def _encode(value, pad: str) -> str:
    """``value`` as canonical JSON; ``pad`` is a newline and the enclosing indent."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    inner = pad + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        return f"[{inner}{(',' + inner).join([_encode(v, inner) for v in value])}{pad}]"
    if kind is dict:
        if not value:
            return "{}"
        # a key that is not a str fails in sorted or in encode_basestring_ascii
        items = [f"{encode_basestring_ascii(k)}: {_encode(value[k], inner)}" for k in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"{kind.__name__} has no canonical JSON form")
