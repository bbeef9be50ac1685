"""Polyhedral divisors and their multigraded section algebras.

A polyhedral divisor assigns to finitely many points of the base curve a
polyhedron with a fixed pointed tail cone; its evaluation at a weight
vector is a rational Weil divisor, and the graded pieces are the section
modules of the floors.  This module implements evaluation, degree
polyhedra, properness, the generators -> divisor normalization map, the
rank-one presentation, membership, graded pieces and box-certified
generator extraction.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import polynomials as up
from .convex import (
    Cone,
    GeometryError,
    Polyhedron,
    box_points,
    dilate,
    hilbert_basis,
    minkowski_sum,
    support_value,
)
from .curves import (
    AFFINE_LINE,
    PROJECTIVE_LINE,
    BaseCurve,
    BasePoint,
    Divisor,
    RationalFunction,
    SectionModule,
    WrongCurve,
    principal_divisor,
    sections,
)
from .linalg import IVec, denominator_lcm, dot, primitive, rank, spans_lattice, vadd


class DivisorError(ValueError):
    pass


class OutsideWeightCone(DivisorError):
    pass


class DegreesDoNotSpan(DivisorError):
    pass


class NonPointedDual(DivisorError):
    pass


class NonPositiveDegree(DivisorError):
    pass


class NotProper(DivisorError):
    pass


class BoxTooSmall(DivisorError):
    pass


class ProperWarning(UserWarning):
    pass


@dataclass(frozen=True)
class HomogeneousElement:
    """A homogeneous element f*chi^m: rational function plus lattice degree."""

    function: RationalFunction
    degree: IVec

    def __mul__(self, other: "HomogeneousElement") -> "HomogeneousElement":
        return HomogeneousElement(self.function * other.function,
                                  vadd(self.degree, other.degree))

    def __pow__(self, n: int) -> "HomogeneousElement":
        return HomogeneousElement(self.function ** n,
                                  tuple(n * a for a in self.degree))

    def scaled(self, c) -> "HomogeneousElement":
        return HomogeneousElement(self.function.scaled(c), self.degree)

    def same_as(self, other: "HomogeneousElement") -> bool:
        return self.degree == other.degree and self.function.same_as(other.function)

    def __repr__(self) -> str:
        return f"({self.function})*chi^{list(self.degree)}"


@dataclass(frozen=True)
class PolyhedralDivisor:
    """Finite formal sum of tailed polyhedra over points of the base curve.

    Coefficients equal to the tail cone are never stored, so the stored key
    set is exactly the support and equality is structural.
    """

    curve: BaseCurve
    tail: Cone
    coefficients: tuple[tuple[BasePoint, Polyhedron], ...]

    @staticmethod
    def of(curve: BaseCurve, tail: Cone,
           coeffs: Mapping[BasePoint, Polyhedron] | Iterable) -> "PolyhedralDivisor":
        if not tail.is_pointed:
            raise GeometryError("tail cone must be pointed")
        items = coeffs.items() if isinstance(coeffs, Mapping) else list(coeffs)
        trivial = Polyhedron.cone_as_polyhedron(tail)
        stored = []
        for z, poly in items:
            if not z.on_curve(curve):
                raise WrongCurve(f"{z} does not lie on {curve.value}")
            if poly.tail != tail:
                raise GeometryError(f"coefficient at {z} has tail {poly.tail}, expected {tail}")
            if poly != trivial:
                stored.append((z, poly))
        return PolyhedralDivisor(curve, tail, tuple(sorted(stored)))

    @property
    def rank(self) -> int:
        return self.tail.ambient_rank

    @property
    def support(self) -> tuple[BasePoint, ...]:
        return tuple(z for z, _ in self.coefficients)

    def coefficient(self, z: BasePoint) -> Polyhedron:
        for zz, poly in self.coefficients:
            if zz == z:
                return poly
        return Polyhedron.cone_as_polyhedron(self.tail)

    @property
    def weight_cone(self) -> Cone:
        return self.tail.dual()

    def in_weight_cone(self, m: Sequence) -> bool:
        return self.tail.rays == () or all(dot(m, r) >= 0 for r in self.tail.rays)

    def restrict(self, excluded: Iterable[BasePoint]) -> "PolyhedralDivisor":
        cut = set(excluded)
        return PolyhedralDivisor(self.curve, self.tail,
                                 tuple((z, p) for z, p in self.coefficients
                                       if z not in cut))

    def denominator(self) -> int:
        """Least d > 0 with all coefficient vertices in (1/d) * N."""
        return denominator_lcm(a for _, poly in self.coefficients
                               for v in poly.vertices for a in v)

    def __repr__(self) -> str:
        parts = [f"{poly}*{z}" for z, poly in self.coefficients]
        return " + ".join(parts) if parts else f"0 (tail {list(self.tail.rays)})"


def evaluate(d: PolyhedralDivisor, m: Sequence) -> Divisor:
    """The rational Weil divisor sum of coefficient support values at m."""
    if not d.in_weight_cone(m):
        raise OutsideWeightCone(f"{m} is outside the weight cone")
    return Divisor.of(d.curve, [(z, support_value(poly, m))
                                for z, poly in d.coefficients])


def degree_sum(d: PolyhedralDivisor) -> Polyhedron:
    """Residue-degree weighted Minkowski sum of the coefficients, on any base."""
    total = Polyhedron.cone_as_polyhedron(d.tail)
    for z, poly in d.coefficients:
        total = minkowski_sum(total, dilate(poly, z.degree))
    return total


def degree_polyhedron(d: PolyhedralDivisor) -> Polyhedron:
    """Residue-degree weighted Minkowski sum of the coefficients (projective base)."""
    if d.curve is not PROJECTIVE_LINE:
        raise WrongCurve("the degree polyhedron needs a projective base")
    return degree_sum(d)


def is_proper(d: PolyhedralDivisor) -> tuple[bool, str]:
    """Properness with a human-readable certificate.

    Affine bases are always proper.  On the projective line the criterion
    is strict containment of the degree polyhedron in the tail cone, which
    on a genus-zero base already covers the boundary principality clause;
    strictness is equivalent to the origin not lying in the degree
    polyhedron.
    """
    if d.curve.is_affine:
        return True, "affine base"
    deg = degree_polyhedron(d)
    for v in deg.vertices:
        if not d.tail.contains(v):
            return False, f"degree polyhedron vertex {tuple(map(str, v))} outside the tail cone"
    origin = tuple(Fraction(0) for _ in range(d.rank))
    if deg.contains(origin):
        return False, "origin lies in the degree polyhedron (containment not strict)"
    return True, "origin separates: deg strictly contained in the tail cone"


def divisor_from_generators(gens: Sequence[HomogeneousElement], curve: BaseCurve,
                            ) -> tuple[Cone, PolyhedralDivisor]:
    """Weight cone dual and polyhedral divisor of the normalization.

    The coefficient at z is cut out by <m_i, .> >= -ord_z(f_i) over the
    homogeneous generators f_i chi^{m_i}; degrees must generate the full
    lattice.  On the projective line the result is checked for properness
    and a warning is emitted otherwise.
    """
    if not gens:
        raise DegreesDoNotSpan("no generators")
    n = len(gens[0].degree)
    degrees = [g.degree for g in gens]
    if not spans_lattice([tuple(m) for m in degrees], n):
        raise DegreesDoNotSpan(f"degrees {degrees} do not generate the lattice")
    weight_cone = Cone.from_rays(degrees, n)
    tail = weight_cone.dual()
    if not tail.is_pointed:
        raise NonPointedDual("dual of the weight cone is not pointed")
    points: set[BasePoint] = set()
    for g in gens:
        points.update(principal_divisor(g.function, curve).support)
    coeffs = []
    for z in sorted(points):
        ineqs = [(g.degree, -g.function.ord_at(z)) for g in gens]
        coeffs.append((z, Polyhedron.from_halfspaces(ineqs, n, tail_hint=tail)))
    div = PolyhedralDivisor.of(curve, tail, coeffs)
    if curve is PROJECTIVE_LINE:
        ok, cert = is_proper(div)
        if not ok:
            warnings.warn(f"normalized divisor is not proper: {cert}", ProperWarning)
    return weight_cone, div


def dpd_presentation(gens: Sequence[HomogeneousElement], curve: BaseCurve) -> Divisor:
    """Rank-one Weil divisor -min_i div(f_i)/m_i (positive degrees only)."""
    for g in gens:
        if len(g.degree) != 1 or g.degree[0] <= 0:
            raise NonPositiveDegree(f"degree {g.degree} is not a positive integer")
    divisors = [principal_divisor(g.function, curve).scaled(Fraction(-1, g.degree[0]))
                for g in gens]
    points: set[BasePoint] = set()
    for d in divisors:
        points.update(d.support)
    return Divisor.of(curve, [(z, max(d.coefficient(z) for d in divisors))
                              for z in sorted(points)])


def member(el: HomogeneousElement, d: PolyhedralDivisor) -> bool:
    """Is f*chi^m a member of the section algebra of d?"""
    if not d.in_weight_cone(el.degree):
        return False
    total = principal_divisor(el.function, d.curve) + evaluate(d, el.degree).floor()
    return total.is_effective


@dataclass(frozen=True)
class GradedPiece:
    degree: IVec
    module: SectionModule


def graded_piece(d: PolyhedralDivisor, m: Sequence) -> GradedPiece:
    if not d.in_weight_cone(m):
        raise OutsideWeightCone(f"{m} is outside the weight cone")
    return GradedPiece(tuple(m), sections(evaluate(d, m)))


def quasifan(d: PolyhedralDivisor) -> tuple[Cone, ...]:
    """Maximal cones of the coarsest subdivision on which evaluation is linear.

    One candidate cone per choice of a vertex in each coefficient: the
    weight vectors where that vertex is support-minimizing.  Candidates of
    full dimension are the maximal cones.
    """
    n = d.rank
    weight = d.weight_cone
    if not d.coefficients:
        return (weight,)
    choices = [poly.vertices for _, poly in d.coefficients]
    cones = set()
    for pick in itertools.product(*choices):
        normals = list(weight.halfspaces)
        for chosen, (_, poly) in zip(pick, d.coefficients):
            for other in poly.vertices:
                if other != chosen:
                    normals.append(primitive(tuple(o - c for c, o in zip(chosen, other))))
        cone = Cone.from_halfspaces(normals, n)
        if cone.dim == n:
            cones.add(cone)
    return tuple(sorted(cones, key=lambda c: c.rays))


def _interior_weight(cone: Cone) -> IVec:
    total = tuple(sum(col) for col in zip(*cone.rays))
    return primitive(total)


def _piece_generated(d: PolyhedralDivisor, m: IVec,
                     products: list[RationalFunction]) -> bool:
    """Do the given degree-m products span the graded piece at m (projective line)?

    Exact linear algebra on coefficient vectors over the first basis element.
    """
    target = sections(evaluate(d, m))
    if target.is_zero:
        return True
    if not products:
        return False
    basis = target.generators
    gen0 = basis[0]
    dim = len(basis)
    rows = []
    for f in products:
        quot = f / gen0
        num, den = quot.as_quotient()
        if up.degree(den) != 0:
            return False  # not even in the ambient space
        coeffs = [num[i] / den[0] if i < len(num) else Fraction(0) for i in range(dim)]
        if up.degree(num) >= dim:
            return False
        rows.append(tuple(coeffs))
    return rank(rows) == dim


@dataclass(frozen=True)
class GeneratorReport:
    generators: tuple[HomogeneousElement, ...]
    box: tuple[tuple[int, int], ...]
    saturated_in_doubled_box: bool
    unsaturated_degrees: tuple[IVec, ...]


def _degree_zero_generators(curve: BaseCurve, n: int) -> list[HomogeneousElement]:
    if curve is AFFINE_LINE:
        return [HomogeneousElement(RationalFunction.variable(1), tuple(0 for _ in range(n)))]
    return []


def probe_degrees(d: PolyhedralDivisor, denom: int) -> set[IVec]:
    """Hilbert basis of the weight cone plus the quasifan rays scaled by ``denom``."""
    probes = set(hilbert_basis(d.weight_cone))
    for cone in quasifan(d):
        probes.update(tuple(denom * a for a in r) for r in cone.rays)
    return probes


def default_box(d: PolyhedralDivisor) -> tuple[tuple[int, int], ...]:
    """Box containing the Hilbert basis of the weight cone and the quasifan
    breakpoints scaled by the divisor denominator."""
    return _box_around(probe_degrees(d, d.denominator()), d.rank)


def _box_around(probes: set[IVec], n: int) -> tuple[tuple[int, int], ...]:
    lo = [min(0, min(p[j] for p in probes)) for j in range(n)]
    hi = [max(1, max(p[j] for p in probes)) for j in range(n)]
    return tuple(zip(lo, hi))


def bounded_generators(d: PolyhedralDivisor,
                       box: Sequence[tuple[int, int]] | None = None,
                       ) -> GeneratorReport:
    """Homogeneous elements generating every graded piece with degree in the box.

    Degrees are processed in increasing interior-weight order; whenever the
    products of the current set fail to generate a piece, the canonical
    module/basis generators of that piece are added.  Completeness is
    certified inside the box only; the report also probes the doubled box
    as a saturation signal.
    """
    ok, cert = is_proper(d)
    if not ok:
        raise NotProper(cert)
    n = d.rank
    probes = probe_degrees(d, d.denominator())
    if box is None:
        box = _box_around(probes, n)
    box = tuple((int(a), int(b)) for a, b in box)
    for p in probes:
        if not all(lo <= a <= hi for a, (lo, hi) in zip(p, box)):
            raise BoxTooSmall(f"box must contain {p}")

    weight = _interior_weight(d.weight_cone)
    gens = _degree_zero_generators(d.curve, n)
    runner = _run_affine if d.curve.is_affine else _run_projective
    runner(d, box, gens, weight, extend=True)
    doubled = tuple((2 * lo, 2 * hi) for lo, hi in box)
    missing = runner(d, doubled, list(gens), weight, extend=False)
    return GeneratorReport(
        generators=tuple(gens),
        box=box,
        saturated_in_doubled_box=not missing,
        unsaturated_degrees=tuple(missing),
    )


def _box_degrees(d: PolyhedralDivisor, box_bounds, weight) -> list[IVec]:
    degrees = [m for m in box_points(box_bounds) if d.in_weight_cone(m) and any(m)]
    degrees.sort(key=lambda m: (dot(m, weight), m))
    return degrees


def _run_affine(d: PolyhedralDivisor, box_bounds, generators, weight, extend):
    """Generation check over a PID base: the module reachable by products at a
    degree is controlled by the pointwise minimum of their principal divisors,
    which satisfies a clean dynamic program over degrees."""
    degrees = _box_degrees(d, box_bounds, weight)
    zero_div = Divisor.zero(d.curve)

    def gen_divisor(g: HomogeneousElement) -> Divisor:
        return principal_divisor(g.function, d.curve)

    reachable: dict[IVec, Divisor] = {tuple(0 for _ in range(d.rank)): zero_div}
    failures = []
    for m in degrees:
        best: Divisor | None = None
        for g in generators:
            if not any(g.degree):
                continue
            rest = tuple(a - b for a, b in zip(m, g.degree))
            if rest not in reachable:
                continue
            cand = gen_divisor(g) + reachable[rest]
            if best is None:
                best = cand
            else:
                points = set(best.support) | set(cand.support)
                best = Divisor.of(d.curve, [
                    (z, min(best.coefficient(z), cand.coefficient(z))) for z in points])
        target = -evaluate(d, m).floor()
        if best != target:
            if not extend:
                failures.append(tuple(m))
                continue
            mod = sections(evaluate(d, m))
            generators.append(HomogeneousElement(mod.generator, tuple(m)))
            best = target
        if best is not None:
            reachable[tuple(m)] = best
    return failures


def _run_projective(d: PolyhedralDivisor, box_bounds, generators, weight, extend):
    degrees = _box_degrees(d, box_bounds, weight)
    products: dict[IVec, list[RationalFunction]] = {}
    failures = []
    for m in degrees:
        prods: list[RationalFunction] = []
        for g in generators:
            if not any(g.degree):
                continue
            rest = tuple(a - b for a, b in zip(m, g.degree))
            if not d.in_weight_cone(rest):
                continue
            if not any(rest):
                prods.append(g.function)
            elif rest in products:
                prods.extend(g.function * f for f in products[rest])
        prods = _dedupe_functions(prods)
        if not _piece_generated(d, tuple(m), prods):
            if not extend:
                failures.append(tuple(m))
                products[tuple(m)] = prods
                continue
            mod = sections(evaluate(d, tuple(m)))
            for f in mod.generators:
                if not any(f.same_as(p) for p in prods):
                    generators.append(HomogeneousElement(f, tuple(m)))
                    prods.append(f)
        products[tuple(m)] = prods
    return failures


def _dedupe_functions(funcs: list[RationalFunction]) -> list[RationalFunction]:
    out: list[RationalFunction] = []
    for f in funcs:
        if not any(f.same_as(g) for g in out):
            out.append(f)
    return out
