"""Polyhedral divisors and their multigraded section algebras.

A polyhedral divisor assigns to finitely many points of the base curve a
polyhedron with a fixed pointed tail cone; its evaluation at a weight
vector m is a rational Weil divisor D(m).  Graded pieces, membership and
generator frames read its floor through one integer map,
:meth:`PolyhedralDivisor.floors`; :func:`evaluate` gives the rational D(m)
where that value is itself the answer.  This module implements
evaluation, degree polyhedra, properness, the generators -> divisor
normalization map, the rank-one presentation, membership, graded pieces
and box-certified generator extraction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul, sub
from typing import Iterable, Mapping, Sequence

from . import polynomials as up
from .convex import (
    Cone,
    GeometryError,
    Polyhedron,
    floored_support,
    hilbert_basis,
    lattice_points,
    normal_cone,
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
    in_sections,
    principal_divisors,
    sections,
)
from .linalg import (
    IVec,
    dot,
    independent_rows,
    primitive,
    spans_lattice,
    vadd,
    vsub,
)


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
        return self.tail.dual_contains(m)

    def floors(self, m: Sequence) -> tuple[int, ...]:
        """The floor of the least <m, v> over the vertices v at each place of
        ``support``, in its order: the floors :func:`curves.sections` reads,
        floor(D(m)) for m in the weight cone, the floored vertex minimum off it."""
        return tuple(floored_support(poly, m) for _, poly in self.coefficients)

    def restrict(self, excluded: Iterable[BasePoint]) -> "PolyhedralDivisor":
        cut = set(excluded)
        return PolyhedralDivisor(self.curve, self.tail,
                                 tuple((z, p) for z, p in self.coefficients
                                       if z not in cut))

    def denominator(self) -> int:
        """Least d > 0 with all coefficient vertices in (1/d) * N."""
        return lcm(*(k for _, poly in self.coefficients for _, k in poly.vertex_rays))

    def __repr__(self) -> str:
        parts = [f"{poly}*{z}" for z, poly in self.coefficients]
        return " + ".join(parts) if parts else f"0 (tail {list(self.tail.rays)})"


def evaluate(d: PolyhedralDivisor, m: Sequence) -> Divisor:
    """The rational Weil divisor sum of coefficient support values at m."""
    if not d.in_weight_cone(m):
        raise OutsideWeightCone(f"{m} is outside the weight cone")
    return Divisor.of(d.curve, [(z, support_value(poly, m))
                                for z, poly in d.coefficients])


def degree_polyhedron(d: PolyhedralDivisor) -> Polyhedron:
    """Residue-degree weighted Minkowski sum of the coefficients, on any base,
    on vertex rays in integers: (a, k) + deg z * (b, l) = (l*a + deg z * k*b, k*l),
    each place's sums pruned to the vertices by one conversion."""
    total = Polyhedron.cone_as_polyhedron(d.tail)
    tail = [r + (0,) for r in d.tail.rays]
    for z, poly in d.coefficients:  # every coefficient has the tail d.tail
        sums = [tuple(l * x + z.degree * k * y for x, y in zip(a, b)) + (k * l,)
                for a, k in total.vertex_rays for b, l in poly.vertex_rays]
        total = Polyhedron(Cone.from_rays(sums + tail, d.rank + 1), d.tail)
    return total


def is_proper(d: PolyhedralDivisor) -> tuple[bool, str]:
    """Properness with a human-readable certificate.

    Affine bases are always proper.  On the projective line the criterion
    is strict containment of the degree polyhedron in the tail cone, which
    on a genus-zero base already covers the boundary principality clause;
    strictness is equivalent to the origin not lying in the degree
    polyhedron.  Both read integers: the vertex rays and the rows.
    """
    if d.curve.is_affine:
        return True, "affine base"
    deg = degree_polyhedron(d)
    outside = [(kv, k) for kv, k in deg.vertex_rays if not d.tail.contains(kv)]
    if outside:
        v = min(tuple(Fraction(a, k) for a in kv) for kv, k in outside)
        return False, f"degree polyhedron vertex {tuple(map(str, v))} outside the tail cone"
    if deg.contains((0,) * d.rank):
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
    divs = principal_divisors([g.function for g in gens], curve)
    coeffs = []
    for z in sorted({z for div in divs for z in div.support}):
        ineqs = [(g.degree, -div.coefficient(z)) for g, div in zip(gens, divs)]
        coeffs.append((z, Polyhedron.from_halfspaces(ineqs, n)))
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
    divisors = [div.scaled(Fraction(-1, g.degree[0])) for g, div in
                zip(gens, principal_divisors([g.function for g in gens], curve))]
    return Divisor.of(curve, [(z, max(d.coefficient(z) for d in divisors))
                              for z in {z for d in divisors for z in d.support}])


def member(el: HomogeneousElement, d: PolyhedralDivisor) -> bool:
    """Is f*chi^m a member of the section algebra of d?"""
    return d.in_weight_cone(el.degree) and \
        in_sections(el.function, d.curve, d.support, d.floors(el.degree))


@dataclass(frozen=True)
class GradedPiece:
    degree: IVec
    module: SectionModule


def graded_piece(d: PolyhedralDivisor, m: Sequence) -> GradedPiece:
    if not d.in_weight_cone(m):
        raise OutsideWeightCone(f"{m} is outside the weight cone")
    return GradedPiece(tuple(m), sections(d.curve, d.support, d.floors(m)))


def quasifan(d: PolyhedralDivisor) -> tuple[Cone, ...]:
    """Maximal cones of the coarsest subdivision on which evaluation is linear.

    It is the common refinement of the coefficients' normal fans, the normal
    fan of their Minkowski sum (Altmann & Hausen, Math. Ann. 2006), and a
    positive place degree does not change a normal fan: one cone per vertex
    of the degree polyhedron, its normal cone there.  With no coefficient
    that is the weight cone.
    """
    deg = degree_polyhedron(d)
    return tuple(sorted((normal_cone(deg, v) for v in deg.vertices), key=lambda c: c.rays))


def _interior_weight(cone: Cone) -> IVec:
    total = tuple(sum(col) for col in zip(*cone.rays))
    return primitive(total)


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


def _box_around(probes: set[IVec], n: int) -> tuple[tuple[int, int], ...]:
    lo = [min(0, min(p[j] for p in probes)) for j in range(n)]
    hi = [max(1, max(p[j] for p in probes)) for j in range(n)]
    return tuple(zip(lo, hi))


def bounded_generators(d: PolyhedralDivisor,
                       box: Sequence[tuple[int, int]] | None = None,
                       ) -> GeneratorReport:
    """Homogeneous elements generating every graded piece with degree in the box.

    Degrees are processed in increasing interior-weight order; whenever the
    products of the current set fail to generate a piece, the basis or
    module generators of that piece not already among the products are
    added.  Completeness is certified inside the box only (by default the
    box around the weight cone's Hilbert basis and the scaled quasifan
    rays); a second pass over the hull of the box and its double, adding
    nothing, reports the degrees it misses as a saturation signal.

    Both passes compute on one integer frame per degree (:func:`_frames`),
    built once for the degrees of that hull and 0, and packed once
    (:func:`_packed`): a degree is one int, and so are its floors a(m), a
    signed slot per finite place, so the cofactor of a product is a few int
    subtractions and its sign one mask.  Over A1 and Spec Z a degree keeps
    one mask of the places where some product has exponent 0
    (:func:`_run_affine`).  On the projective line (:func:`_run_projective`)
    a product is the exponent vector of gen_m * t^J * prod_z z^e, and a
    piece is certified by the degree intervals its product families cover
    before any rank test.
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
    # the hull of the box and its double: a box without 0 is not inside its
    # double, whose pass alone would miss the degrees the box pass reached
    hull = tuple((min(lo, 2 * lo), max(hi, 2 * hi)) for lo, hi in box)
    degrees = _box_degrees(d, hull, weight)
    box_degrees = [m for m in degrees if all(lo <= a <= hi for a, (lo, hi) in zip(m, box))]
    frames = _frames(d, degrees + [(0,) * n])
    if d.curve.is_affine:
        gens, packing = _degree_zero_generators(d.curve, n), _packed(frames)
        _run_affine(d, frames, packing, box_degrees, gens, extend=True)
        missing = _run_affine(d, frames, packing, degrees, list(gens), extend=False)
    else:
        gens, missing = _run_projective(d, frames, box_degrees, degrees)
    return GeneratorReport(
        generators=tuple(gens),
        box=box,
        saturated_in_doubled_box=not missing,
        unsaturated_degrees=tuple(missing),
    )


def _box_degrees(d: PolyhedralDivisor, box_bounds, weight) -> list[IVec]:
    """The nonzero weight-cone degrees of the box, by weight, then lexicographically."""
    rows = [(h, 0) for h in d.weight_cone.halfspaces]
    degrees = [m for m in lattice_points(rows, *zip(*box_bounds)) if any(m)]
    degrees.sort(key=lambda m: (dot(m, weight), m))
    return degrees


def _frames(d: PolyhedralDivisor, degrees) -> dict[IVec, tuple[IVec, int]]:
    """m -> (a(m), deg floor(D(m))) with a(m) the entries of ``d.floors(m)``
    at every place but infinity.  The piece at m lives over
    gen_m = prod_z z^(-a_z(m)), the element :func:`curves.sections` builds
    its generators on."""
    finite = [i for i, z in enumerate(d.support) if z.kind != "infinity"]
    place_degrees = [z.degree for z in d.support]
    frames = {}
    for m in degrees:
        floors = d.floors(m)
        frames[m] = (tuple(floors[i] for i in finite), sum(map(mul, place_degrees, floors)))
    return frames


def _packed(frames) -> tuple[dict[IVec, int], dict[int, int], int, int]:
    """(key, A, guard, ones): the degrees of ``frames`` and their a(m) as ints.

    A vector packs into one int with a signed slot per coordinate.  key(m)
    has slots wide enough for 2 max |m_i| plus a sign bit, so it is linear
    and key(m) - key(m_g) is key(m - m_g), which no other difference of two
    frame degrees shares.  A(key(m)) packs a(m) with slots wide enough for
    |a(m) - a(m_g) - a(r)| <= 3 max |a| plus a guard bit; ``ones`` holds 1
    and ``guard`` the top bit in every slot.  So x = A(m) + guard - A(m_g) - A(r)
    borrows across no slot, holds each cofactor exponent plus the guard in
    its slot, and keeps every guard bit iff each exponent is >= 0.
    """
    def pack(vectors, spread):
        width = (spread * max(map(abs, chain.from_iterable(vectors)), default=0)).bit_length() + 1
        slots = [1 << width * i for i in range(len(vectors[0]))]
        return [sum(map(mul, v, slots)) for v in vectors], sum(slots), width

    keys, _, _ = pack(list(frames), 2)
    floors, ones, width = pack([a for a, _ in frames.values()], 3)
    return dict(zip(frames, keys)), dict(zip(keys, floors)), ones << width - 1, ones


def _cofactor_exponents(frames, m: IVec, m_g: IVec, rest: IVec) -> IVec:
    """a(m) - a(m_g) - a(rest) for m = m_g + rest: the product of
    gen_{m_g} and gen_rest is gen_m times each place z to this exponent.
    The floored support function is superadditive, so these are >= 0; a
    negative one raises DivisorError."""
    exps = tuple(map(sub, map(sub, frames[m][0], frames[m_g][0]), frames[rest][0]))
    if min(exps, default=0) < 0:
        raise DivisorError(f"floored evaluation is not superadditive: {exps}")
    return exps


def _run_affine(d: PolyhedralDivisor, frames, packing, degrees, gens, extend):
    """One pass of :func:`bounded_generators` over a PID base (A1, Spec Z).

    The piece at m is the free module gen_m * Q[t] (gen_m * Z), and every
    generator is its gen_m.  A product of generators at m is gen_m times the
    places to an exponent vector e >= 0; the products generate the piece iff
    their gcd does, that is iff the least e over them, place by place, is 0.
    Zero-slot masks: only full degrees r are kept, and their least vector
    is 0; a product of g at m_g with one at r = m - m_g has e the cofactor
    exponents (:func:`_cofactor_exponents` at (m, m_g, r)) plus that
    product's own vector.  Entries are >= 0, so a minimum is 0 iff one term
    is and a sum is 0 iff both summands are: m is full iff each place has a
    zero cofactor exponent over some g with r full.  On the packed frame
    (:func:`_packed`) a slot of x - ones keeps its guard bit iff its
    exponent is >= 1, so guard & ~(x - ones) marks the zero slots.  A degree
    ORs these masks, plus one bit above the slots that says some product
    reaches m, so that with no finite place an unreached degree is not full;
    m is full iff every bit is set.  The degree-zero generator t of A1
    never finds its own degree reached, so it is skipped.  A degree that
    fails in the doubled pass is not reused.
    """
    key, packed, guard, ones = packing
    reached = 1 << guard.bit_length()  # above the slots; 1 with no finite place
    full = {0}  # keys of the full degrees
    lifts = [(g.degree, key[g.degree], packed[key[g.degree]]) for g in gens]
    failures = []
    for m in degrees:
        k = key[m]
        top, mask = packed[k] + guard, 0
        for m_g, k_g, a_g in lifts:
            if (rest := k - k_g) in full:
                x = top - a_g - packed[rest]
                if x & guard != guard:
                    _cofactor_exponents(frames, m, m_g, vsub(m, m_g))
                mask |= reached | guard & ~(x - ones)
        if mask != reached | guard:
            if not extend:
                failures.append(m)
                continue
            gens.append(HomogeneousElement(
                sections(d.curve, d.support, d.floors(m)).generator, m))
            lifts.append((m, k, packed[k]))
        full.add(k)
    return failures


# Modulus of the rank certificate, the Mersenne prime 2^61 - 1.
_PRIME = 2 ** 61 - 1


def _run_projective(d: PolyhedralDivisor, frames, box_degrees, degrees):
    """Both passes of :func:`bounded_generators` on the projective line.

    Exponent vectors: the piece at m is gen_m * {p(t) : deg p < dim_m} with
    dim_m = deg floor(D(m)) + 1 (or 0), and every product of generators at
    m is gen_m * t^J * prod_z z^e, kept as the vector of J and the e over
    the finite places (t is one coordinate, also when it is a place).  The
    product of g at m_g with a product v at r = m - m_g is g's vector plus
    :func:`_cofactor_exponents` at (m, m_g, r) plus v.  The basis element
    gen_m * t^j is the unit vector j at t.  A vector becomes an integer
    polynomial, the product of the places' polynomials, only for a rank test.

    Interval certificate: a degree is full once its products are known to
    span its piece, and a full degree's products are spanned by the unit
    vectors 0 .. dim - 1.  If g's vector plus the cofactor is b and r is
    full, the products g * A_r are gen_m * P_b * Q[t]_{<dim_r}, with
    P_b = prod t^b_t z^b_z of degree <b, place degrees>.  By division with
    remainder, a span holding Q[t]_{<A} and such a family with deg P_b <= A
    holds Q[t]_{<deg P_b + dim_r}; so when the intervals
    [deg P_b, deg P_b + dim_r), swept in order, cover [0, dim_m), m is full
    without a rank test.  Only a degree they leave uncovered has its
    products reduced mod ``_PRIME``; the modular rank is at most the rank
    over Q, so reaching dim_m proves the span, and only a shortfall goes to
    the exact rank, :func:`linalg.independent_rows`.

    The box pass leaves every degree full: where the products fall short
    it adds the basis elements gen_m * t^j that are not among them.  A
    product is t^j only if g's term and the product at r are powers of t,
    so the pass tracks, per degree, which powers of t occur.  The doubled
    pass takes the box degrees as full and tests the others; a degree that
    fails keeps its exactly independent products.

    Packed frame: a generator is gen_{m_g} * t^j, and a degree m brings, once
    per pass, its packed floors A(m) (:func:`_packed`), P(m) = <a(m), place
    degrees>, the sum N(m) of the entries of a(m) off t, and a_t(m).  The
    cofactor is linear in a, so per product the guard bits of
    A(m) + guard - A(m_g) - A(r) give its sign, deg P_b is
    j + P(m) - P(m_g) - P(r) and b_t is j + a_t(m) - a_t(m_g) - a_t(r); with
    entries >= 0, b is a power of t iff N(m) = N(m_g) + N(r).  The vector b
    is built only for a degree the intervals leave uncovered.
    """
    finite = [z.poly for z in d.support if z.kind == "finite"]
    places = finite if (0, 1) in finite else finite + [(0, 1)]  # t is one coordinate
    t, pad = places.index((0, 1)), (0,) * (len(places) - len(finite))
    place_degrees = [len(p) - 1 for p in places]
    one = (0,) * len(places)
    units = [one[:t] + (j,) + one[t + 1:] for j in range(max(f[1] for f in frames.values()) + 1)]
    key, packed, guard, _ = _packed(frames)
    box = {key[m] for m in box_degrees}
    values = {}  # key(m) -> (A(m), P(m), N(m), a_t(m))
    for m, (a, _) in frames.items():
        a_t = a[t] if t < len(finite) else 0
        values[key[m]] = (packed[key[m]], sum(map(mul, a, place_degrees)), sum(a) - a_t, a_t)

    @cache
    def poly(v: IVec) -> tuple:
        p = (0,) * v[t] + (1,)
        for i, e in enumerate(v):
            if i != t:
                for _ in range(e):
                    p = up.mul(p, places[i])
        return p

    def independent(rows: list[IVec], dim: int) -> list[IVec]:
        """Independent rows, dim of them if the rows span the piece."""
        echelon: dict[int, list[int]] = {}
        kept = []
        for v in rows:
            if _raises_rank(echelon, poly(v)):
                kept.append(v)
                if len(kept) == dim:
                    return kept
        return [rows[i] for i in independent_rows(
            [p + (0,) * (dim - len(p)) for p in map(poly, rows)], dim)]

    def run(degrees, gens, extend):
        spans = {0: [one]}  # vectors spanning the products; dim_m of them if full
        powers = {0: {0}}  # box pass: the j with t^j among the products
        failed = set()
        lifts = [(g.degree, key[g.degree], j) + values[key[g.degree]] for g, j in gens]
        for m in degrees:
            dim, k = max(frames[m][1] + 1, 0), key[m]
            if extend or k not in box:
                top, p_m, n_m, t_m = values[k]
                top += guard
                terms = []  # (m_g, j, key(r), b a power of t, b_t)
                intervals = []  # [deg P_b, deg P_b + dim_r) for r not failed
                for m_g, k_g, j, a_g, p_g, n_g, t_g in lifts:
                    if (r := k - k_g) in spans:
                        a_r, p_r, n_r, t_r = values[r]
                        if top - a_g - a_r & guard != guard:
                            _cofactor_exponents(frames, m, m_g, vsub(m, m_g))
                        terms.append((m_g, j, r, n_m == n_g + n_r, j + t_m - t_g - t_r))
                        if r not in failed:
                            low = j + p_m - p_g - p_r
                            intervals.append((low, low + len(spans[r])))
                if extend:
                    powers[k] = {b_t + i for *_, r, power, b_t in terms if power
                                 for i in powers[r]}
                if not _covers(intervals, dim):
                    rows = {}
                    for m_g, j, r, *_ in terms:
                        b = vadd(units[j], _cofactor_exponents(frames, m, m_g, vsub(m, m_g)) + pad)
                        rows.update(dict.fromkeys(vadd(b, v) for v in spans[r]))
                    kept = independent(list(rows), dim)
                    if len(kept) < dim and not extend:
                        failed.add(k)
                        spans[k] = kept
                        continue
                    if len(kept) < dim:
                        basis = sections(d.curve, d.support, d.floors(m)).generators
                        new = [(HomogeneousElement(basis[j], m), j)
                               for j in range(dim) if j not in powers[k]]
                        gens.extend(new)
                        lifts.extend((m, k, j) + values[k] for _, j in new)
                        powers[k] = set(range(dim))
            spans[k] = units[:dim]
        return [m for m in degrees if key[m] in failed]

    gens: list[tuple[HomogeneousElement, int]] = []  # (gen_m * t^j, j)
    run(box_degrees, gens, extend=True)
    return [g for g, _ in gens], run(degrees, list(gens), extend=False)


def _covers(intervals: list[tuple[int, int]], dim: int) -> bool:
    """Do the half-open intervals cover [0, dim)?"""
    reach = 0
    for lo, hi in sorted(intervals):
        if lo > reach:
            break
        reach = max(reach, hi)
    return reach >= dim


def _raises_rank(echelon: dict[int, list[int]], p: tuple) -> bool:
    """Reduce p mod ``_PRIME`` against the echelon rows, keyed by their
    leading index with leading entry 1; keep it if it is independent."""
    row = [a % _PRIME for a in p]
    for c in range(len(row) - 1, -1, -1):
        if x := row[c]:
            pivot = echelon.get(c)
            if pivot is None:
                inv = pow(x, -1, _PRIME)
                echelon[c] = [a * inv % _PRIME for a in row[:c + 1]]
                return True
            for i in range(c):
                row[i] = (row[i] - x * pivot[i]) % _PRIME
    return False
