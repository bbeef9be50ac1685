"""Normalized additive-group actions on complexity-one torus varieties.

Demazure roots index the normalized actions on affine toric varieties; on
a complexity-one section algebra the actions split into vertical type
(fixing the invariant function field; a root plus an admissible section)
and horizontal type (classified by colored divisors and coherent
assemblages).  All exponential evaluation is characteristic zero; a prime
exponent characteristic enters the horizontal classification only through
integer arithmetic in the admissibility conditions.

Every action of degree e expands f chi^m by one binomial series
(:func:`_series`): term i is binom(h, i) g^i f chi^(m + i e), i = 0..h, where
toric h = <m, rho>, g = lambda; vertical h = <m, rho>, g = phi; horizontal
h = d (h(m) + l), g = lambda t^u.

Toric and horizontal terms are :class:`Monomial` triples (c, l, m) for
c t^l chi^m: their input and multiplier are of that form, so products,
sums and comparisons are integer and scalar arithmetic, and membership of
a term is a few integer comparisons on the floors of D(m).  The scalar
lambda and the input's c enter the series as ints when they are integral
and as Fractions otherwise, so every coefficient of a series with integral
lambda and c is an int; an int equals and hashes like the same Fraction,
and :meth:`Monomial.element` reads c as a Fraction.  The toric
action takes a triple; the horizontal one takes an element and reads it as
a triple once, and each horizontal expander reads the floors of a degree
once.  Vertical terms stay :class:`HomogeneousElement`s, because
phi and f there are arbitrary sections, which a triple cannot carry.
Colored divisors, and so the horizontal actions, live over A1 and P1.
The horizontal conditions read a rational base point t - c in place: the
shift t -> t - c only renames places, and the report only records it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import comb, floor
from typing import Callable, Sequence

from . import polynomials as up
from .convex import (
    Cone,
    GeometryError,
    Polyhedron,
    hilbert_basis,
    lattice_points,
    normal_cone,
    support_value,
)
from .curves import (
    AFFINE_LINE,
    PROJECTIVE_LINE,
    BasePoint,
    CurveError,
    RationalFunction,
    SectionModule,
    WrongCurve,
    in_sections,
    is_prime,
    p_power_part,
    sections,
)
from .divisors import (
    HomogeneousElement,
    OutsideWeightCone,
    PolyhedralDivisor,
    degree_polyhedron,
    evaluate,
    is_proper,
    member,
    probe_degrees,
    quasifan,
)
from .ideals import ConditionReport
from .linalg import (IVec, denominator_lcm, dot, hnf, integer_kernel_basis, primitive, vadd,
                     vscale, vsub)


class ActionError(ValueError):
    pass


class RayNotInCone(ActionError):
    pass


class PhiNotAdmissible(ActionError):
    pass


class NonMember(ActionError):
    pass


class ConditionsFail(ActionError):
    pass


@dataclass(frozen=True)
class DemazureRoot:
    """Lattice vector pairing to -1 with one ray of the cone, >= 0 elsewhere."""

    vector: IVec
    distinguished_ray: IVec


def is_demazure_root(cone: Cone, e: Sequence) -> DemazureRoot | None:
    if not cone.is_pointed or not cone.rays:
        raise GeometryError("roots are defined for nonzero pointed cones")
    e = tuple(int(a) for a in e)
    distinguished = None
    for ray in cone.rays:
        pairing = dot(e, ray)
        if pairing == -1:
            if distinguished is not None:
                return None
            distinguished = ray
        elif pairing < 0:
            return None
    if distinguished is None:
        return None
    return DemazureRoot(vector=e, distinguished_ray=distinguished)


def roots_with_ray(cone: Cone, ray: Sequence, box: Sequence[tuple[int, int]]
                   ) -> tuple[DemazureRoot, ...]:
    """The roots with distinguished ray ``ray`` in the box, in lexicographic
    order: the lattice points e of the box with <e, ray> = -1 and
    <e, r> >= 0 for every other ray r (Demazure 1970)."""
    ray = primitive(ray)
    if ray not in cone.rays:
        raise RayNotInCone(f"{ray} is not an extreme ray of the cone")
    if not cone.is_pointed:
        raise GeometryError("roots are defined for nonzero pointed cones")
    rows = [(ray, -1), (vscale(-1, ray), 1)] + [(r, 0) for r in cone.rays if r != ray]
    lo, hi = zip(*box)
    return tuple(DemazureRoot(vector=e, distinguished_ray=ray)
                 for e in lattice_points(rows, lo, hi))


@dataclass(frozen=True, slots=True)
class Monomial:
    """The element c t^ell chi^degree, a term of a toric or horizontal expansion."""

    c: int | Fraction
    ell: int
    degree: IVec

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.c * other.c, self.ell + other.ell, vadd(self.degree, other.degree))

    def scaled(self, k) -> "Monomial":
        return Monomial(self.c * k, self.ell, self.degree)

    def same_as(self, other: "Term") -> bool:
        return self == _monomial(other)

    def element(self) -> HomogeneousElement:
        """The same element with its function in factored form."""
        return HomogeneousElement(RationalFunction.variable(self.ell).scaled(self.c),
                                  self.degree)

    def __repr__(self) -> str:
        return repr(self.element())


Term = Monomial | HomogeneousElement


def _coefficient(c) -> int | Fraction:
    """The rational number c as an int when it is integral, else a Fraction."""
    if isinstance(c, int):
        return c
    c = c if isinstance(c, Fraction) else Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _monomial(el: Term) -> Monomial | None:
    """``el`` as a monomial: a monomial itself, an element c t^l chi^m as
    (c, l, m), anything else None.  Factor keys are pairwise coprime, so f is
    c t^l exactly when t is its only key."""
    if isinstance(el, Monomial):
        return el
    f = el.function
    if any(b != up.X for b, _ in f.factors):
        return None
    return Monomial(f.constant, sum(e for _, e in f.factors), el.degree)


@dataclass(frozen=True)
class ExponentialExpansion:
    """Finite expansion sum_i term_i x^i of e^{x d} applied to one element;
    the terms are all monomials or all elements, in index order."""

    terms: tuple[tuple[int, Term], ...]

    def term(self, i: int) -> Term | None:
        for j, el in self.terms:
            if j == i:
                return el
        return None

    def __mul__(self, other: "ExponentialExpansion") -> "ExponentialExpansion":
        """The product series.  Monomials add their coefficients per index
        and t^l chi^m, so unlike terms of one index stay apart; elements add
        their functions per index."""
        products = [(i + j, a * b) for i, a in self.terms for j, b in other.terms]
        if products and isinstance(products[0][1], Monomial):
            coeffs: dict[tuple, int | Fraction] = {}
            for k, t in products:
                key = (k, t.ell, t.degree)
                coeffs[key] = coeffs.get(key, 0) + t.c
            return ExponentialExpansion(tuple((k, Monomial(c, ell, m))
                                              for (k, ell, m), c in sorted(coeffs.items()) if c))
        acc: dict[int, HomogeneousElement] = {}
        for k, prod in products:
            if k in acc:
                summed = acc[k].function.add(prod.function)
                if summed is None:
                    del acc[k]
                else:
                    acc[k] = HomogeneousElement(summed, prod.degree)
            else:
                acc[k] = prod
        return ExponentialExpansion(tuple(sorted(acc.items())))

    def same_as(self, other: "ExponentialExpansion") -> bool:
        return len(self.terms) == len(other.terms) and all(
            i == j and a.same_as(b) for (i, a), (j, b) in zip(self.terms, other.terms))

    def __repr__(self) -> str:
        return " + ".join(f"({el})x^{i}" if i else f"{el}" for i, el in self.terms)


def _series(el: Term, height: int, step: Term, inside: Callable[[Term], bool]
            ) -> ExponentialExpansion:
    """Terms binom(height, i) el step^i, i = 0..height; a term that fails
    ``inside``, the action's membership test, raises ``NonMember``.

    ``el`` and ``step`` are of one kind: monomials (toric and horizontal,
    step = lambda t^u chi^e) or elements (vertical, step = phi chi^e).
    step^i is one multiplication on from step^(i-1).
    """
    terms, term, power = [], el, step
    for i in range(height + 1):
        if i:
            if i > 1:
                power = power * step
            term = el.scaled(comb(height, i)) * power
        if not inside(term):
            raise NonMember(f"term {term} left the section algebra")
        terms.append((i, term))
    return ExponentialExpansion(tuple(terms))


def _monomial_membership(d: PolyhedralDivisor) -> Callable[[Monomial], bool]:
    """:func:`divisors.member` of c t^l chi^m over A1 or P1: m in the weight
    cone, and on the floors of D(m) the floor at t plus l, every other finite
    floor and, on P1, the floor at infinity minus l all >= 0.  The floors of
    a degree are read once, into the row (floor at t, floor at infinity, m in
    the weight cone with every other finite floor >= 0)."""
    @cache
    def row(m: IVec) -> tuple[int, int, bool]:
        at_t = at_infinity = 0  # the floors are 0 off the support
        inside = d.in_weight_cone(m)
        for z, a in zip(d.support, d.floors(m)) if inside else ():
            if z.poly == up.X:
                at_t += a
            elif z.kind == "infinity":
                at_infinity += a
            else:
                inside = inside and a >= 0
        return at_t, at_infinity, inside

    def is_member(term: Monomial) -> bool:
        at_t, at_infinity, inside = row(term.degree)
        return inside and at_t + term.ell >= 0 and \
            (d.curve is AFFINE_LINE or at_infinity - term.ell >= 0)

    return is_member


def toric_exponential(cone: Cone, root: DemazureRoot, lam, el: Monomial
                      ) -> ExponentialExpansion:
    """Exponential of the homogeneous derivation of a Demazure root on c chi^m
    (c t^l chi^m carries t^l along); the terms are monomials."""
    lam = _coefficient(lam)
    if not lam:
        raise CurveError("the scalar lambda must be nonzero")
    if not cone.dual_contains(el.degree):
        raise OutsideWeightCone(f"{el.degree} is outside the weight cone")
    el = Monomial(_coefficient(el.c), el.ell, el.degree)
    return _series(el, dot(el.degree, root.distinguished_ray), Monomial(lam, 0, root.vector),
                   lambda term: cone.dual_contains(term.degree))


def vertical_phi(d: PolyhedralDivisor, root: DemazureRoot) -> SectionModule:
    """Admissible multiplier sections for the vertical action of a root."""
    ok, cert = is_proper(d)
    if not ok:
        raise ActionError(f"divisor is not proper: {cert}")
    return sections(d.curve, d.support, d.floors(root.vector))  # e may leave the weight cone


def vertical_exists(d: PolyhedralDivisor, ray: Sequence) -> bool:
    """Is there a vertical action with the given distinguished ray?

    The ray must be a ray of the tail on every base.  Affine bases always
    admit one; on the projective line the criterion is that the ray R misses
    the degree polyhedron deg, read off its vertices.  Properness gives
    deg in the tail and 0 not in deg.  R is an extreme ray of the pointed
    tail, the face {u = 0} of some u >= 0 on the tail, so u >= 0 on deg and
    deg meets R in {x in deg : u(x) = 0}, a face of deg.  A nonempty face of
    a pointed polyhedron holds a vertex, and a vertex (kv, k), kv != 0 as
    0 is not in deg, lies on R iff ``primitive(kv) == ray``.
    """
    ok, cert = is_proper(d)
    if not ok:
        raise ActionError(f"divisor is not proper: {cert}")
    ray = primitive(ray)
    if ray not in d.tail.rays:
        raise RayNotInCone(f"{ray} is not an extreme ray of the tail cone")
    return d.curve.is_affine or all(primitive(kv) != ray
                                    for kv, _ in degree_polyhedron(d).vertex_rays)


def vertical_exponential(d: PolyhedralDivisor, root: DemazureRoot,
                         phi: RationalFunction,
                         el: HomogeneousElement) -> ExponentialExpansion:
    """Expansion of the vertical action phi * root-derivation on a member."""
    # e may leave the weight cone
    if not in_sections(phi, d.curve, d.support, d.floors(root.vector)):
        raise PhiNotAdmissible(f"{phi} is not a section of the multiplier module")
    if not member(el, d):
        raise NonMember(f"{el} is not in the section algebra")
    return _series(el, dot(el.degree, root.distinguished_ray),
                   HomogeneousElement(phi, root.vector), partial(member, d=d))


@dataclass(frozen=True)
class ColoredDivisor:
    """Proper divisor over A1 or P1 with a chosen vertex per coefficient, a
    rational base point carrying the only possibly non-integral color and, on
    a projective base, a rational point at infinity."""

    divisor: PolyhedralDivisor
    base_point: BasePoint
    infinity_point: BasePoint | None
    colors: tuple[tuple[BasePoint, tuple[Fraction, ...]], ...]

    @staticmethod
    def of(divisor: PolyhedralDivisor, base_point: BasePoint,
           colors, infinity_point: BasePoint | None = None) -> "ColoredDivisor":
        if not divisor.curve.function_field_is_rational:
            raise WrongCurve("colored divisors live over the affine or projective line")
        items = colors.items() if hasattr(colors, "items") else colors
        canon = tuple(sorted((z, tuple(Fraction(a) for a in v)) for z, v in items))
        return ColoredDivisor(divisor, base_point, infinity_point, canon)

    def color(self, z: BasePoint) -> tuple[Fraction, ...]:
        for zz, v in self.colors:
            if zz == z:
                return v
        return tuple(Fraction(0) for _ in range(self.divisor.rank))

    @property
    def marked_points(self) -> tuple[BasePoint, ...]:
        pts = set(self.divisor.support) | {z for z, _ in self.colors}
        if self.infinity_point is not None:
            pts.discard(self.infinity_point)
        return tuple(sorted(pts))

    @property
    def color_denominator(self) -> int:
        return denominator_lcm(self.color(self.base_point))

    def degree_vertex(self) -> tuple[Fraction, ...]:
        total = tuple(Fraction(0) for _ in range(self.divisor.rank))
        for z in self.marked_points:
            total = vadd(total, tuple(z.degree * a for a in self.color(z)))
        return total

    def restricted_degree_polyhedron(self) -> Polyhedron:
        """Degree sum of the divisor, away from the point at infinity on P1."""
        d = self.divisor
        if d.curve is PROJECTIVE_LINE:
            d = d.restrict([self.infinity_point])
        return degree_polyhedron(d)


def validate_coloring(cd: ColoredDivisor) -> ConditionReport:
    """Checks the colored-divisor axioms; reports the color denominator."""
    results = []
    d = cd.divisor
    ok, cert = is_proper(d)
    note = cert
    if d.curve is PROJECTIVE_LINE:
        if cd.infinity_point is None:
            ok, note = False, "projective base needs a point at infinity"
        elif not cd.infinity_point.is_rational:
            ok, note = False, "point at infinity must be rational"
    elif cd.infinity_point is not None:
        ok, note = False, "affine base has no point at infinity"
    if ok and not cd.base_point.is_rational:
        ok, note = False, "base point must be rational"
    results.append(("divisor_and_points", ok, note))

    ok, note = True, "every color is a vertex of its coefficient"
    for z in cd.marked_points:
        poly = d.coefficient(z)
        if cd.color(z) not in poly.vertices:
            ok, note = False, f"color {cd.color(z)} at {z} is not a vertex"
            break
    results.append(("colors_are_vertices", ok, note))

    vdeg = cd.degree_vertex()
    degp = cd.restricted_degree_polyhedron()
    ok = vdeg in degp.vertices
    results.append(("degree_vertex", ok,
                    f"v_deg = ({', '.join(map(str, vdeg))})"))

    ok, note = True, f"color denominator d = {cd.color_denominator}"
    for z in cd.marked_points:
        if z == cd.base_point:
            continue
        if any(a.denominator != 1 for a in cd.color(z)):
            ok, note = False, f"non-integral color away from the base point at {z}"
            break
    results.append(("integrality_away_from_base", ok, note))
    return ConditionReport(tuple(results))


def associated_cones(cd: ColoredDivisor) -> tuple[Cone, Cone]:
    """(kernel weight cone omega, augmented cone in one rank higher).

    omega is the normal cone of the restricted degree polyhedron at its
    chosen vertex; the augmented cone is spanned by omega's dual at level 0,
    the base color at level 1 and, on a projective base, the polyhedron
    at infinity shifted by the degree-vertex defect at level -1.
    """
    report = validate_coloring(cd)
    if not report.all_pass:
        raise ActionError(f"invalid coloring:\n{report}")
    d = cd.divisor
    n = d.rank
    vdeg = cd.degree_vertex()
    degp = cd.restricted_degree_polyhedron()
    omega = normal_cone(degp, vdeg)
    v0 = cd.color(cd.base_point)
    aug = [tuple(r) + (0,) for r in omega.halfspaces] + [tuple(v0) + (Fraction(1),)]
    if d.curve is PROJECTIVE_LINE:
        dinf = d.coefficient(cd.infinity_point)
        shift = vsub(vdeg, v0)
        for w in dinf.vertices:
            aug.append(tuple(vadd(w, shift)) + (Fraction(-1),))
    augmented = Cone.from_rays(aug, n + 1)
    return omega, augmented


@dataclass(frozen=True)
class CoherentAssemblage:
    """Colored divisor with a degree vector, exponent sequence and scalars.

    ``char_exponent`` is 1 in characteristic zero, otherwise the prime p;
    the exponent sequence feeds pure integer arithmetic only.
    """

    colored: ColoredDivisor
    degree: IVec
    exponents: tuple[int, ...]
    scalars: tuple[Fraction, ...]
    char_exponent: int

    @staticmethod
    def of(colored: ColoredDivisor, degree: Sequence, exponents: Sequence[int],
           scalars: Sequence, char_exponent: int = 1) -> "CoherentAssemblage":
        exps = tuple(int(s) for s in exponents)
        if list(exps) != sorted(set(exps)) or min(exps, default=0) < 0:
            raise ActionError("exponent sequence must be nonnegative and strictly increasing")
        lams = tuple(Fraction(l) for l in scalars)
        if len(lams) != len(exps) or not lams or any(l == 0 for l in lams):
            raise ActionError("scalars must be nonzero, one per exponent")
        p = int(char_exponent)
        if p != 1 and not is_prime(p):
            raise ActionError("characteristic exponent must be 1 or a prime")
        if p == 1 and len(exps) != 1:
            raise ActionError("characteristic zero admits a single exponent")
        return CoherentAssemblage(colored, tuple(int(a) for a in degree),
                                  exps, lams, p)


def assemblage_check(ca: CoherentAssemblage) -> ConditionReport:
    """The coherence axioms: root condition on the augmented cone, and the
    floor inequalities at colored points, the base point and infinity."""
    results = []
    cd = ca.colored
    d = cd.divisor
    p = ca.char_exponent
    dd = cd.color_denominator
    pk = p ** p_power_part(dd, p)
    v0 = cd.color(cd.base_point)
    try:
        omega, augmented = associated_cones(cd)
    except ActionError as err:
        return ConditionReport((("coloring", False, str(err)),))

    rho_tilde = primitive(tuple(dd * a for a in v0) + (dd,))
    ok, note = True, ""
    details = []
    for s_i in ca.exponents:
        scaled_e = tuple(p ** s_i * a for a in ca.degree)
        u_i = -Fraction(1, dd) - dot(scaled_e, v0)
        if u_i.denominator != 1:
            ok, note = False, f"u_{s_i} = {u_i} is not an integer"
            break
        root = is_demazure_root(augmented, scaled_e + (int(u_i),))
        if root is None or root.distinguished_ray != rho_tilde:
            ok = False
            note = f"({scaled_e}, {u_i}) is not a root with distinguished ray {rho_tilde}"
            break
        details.append(f"u = {u_i}")
    if ok:
        note = f"rho~ = {rho_tilde}, " + ", ".join(details)
    results.append(("root_condition", ok, note))

    s1 = ca.exponents[0]
    e1 = tuple(p ** s1 * a for a in ca.degree)
    results.append(_vertex_inequalities(
        "uncolored_vertices", "no uncolored vertices away from the base point",
        ((f"at {z}", v, pk * dot(e1, v), 1 + pk * dot(e1, cd.color(z)))
         for z in cd.marked_points if z != cd.base_point
         for v in d.coefficient(z).vertices if v != cd.color(z))))
    results.append(_vertex_inequalities(
        "base_point_vertices", "no other vertices at the base point",
        (("", v, dd * dot(e1, v), 1 + dd * dot(e1, v0))
         for v in d.coefficient(cd.base_point).vertices if v != v0)))
    if d.curve is PROJECTIVE_LINE:
        rhs = -1 - dd * dot(e1, cd.degree_vertex())
        results.append(_vertex_inequalities(
            "infinity_vertices", "",
            (("", v, dd * dot(e1, v), rhs) for v in d.coefficient(cd.infinity_point).vertices)))
    return ConditionReport(tuple(results))


def _vertex_inequalities(name: str, note: str, checks) -> tuple[str, bool, str]:
    """The report row ``name`` of lhs >= rhs for each (where, vertex, lhs,
    rhs) of ``checks``: it fails at the first violation, naming where and the
    vertex; it passes with the last comparison as its note, or ``note`` when
    there is none."""
    for where, v, lhs, rhs in checks:
        if lhs < rhs:
            return name, False, f"{where + ', ' if where else ''}vertex {v}: {lhs} < {rhs}"
        note = f"{where + ': ' if where else ''}{lhs} >= {rhs}"
    return name, True, note


def _base_shift(d: PolyhedralDivisor, z0: BasePoint, zinf: BasePoint | None) -> Fraction:
    """The c of the base point z0 = t - c, which the shift t -> t - c moves
    to 0.  The point at infinity, if any, must be the place at infinity of P1."""
    if zinf is not None and d.curve is AFFINE_LINE:
        raise ActionError("affine base has no point at infinity")
    if zinf is not None and zinf != BasePoint.infinity():
        raise ActionError("only shifts are implemented: the point at infinity "
                          "must already be the place at infinity")
    if z0.kind != "finite" or not z0.is_rational:
        raise ActionError("base point must be a finite rational point")
    return Fraction(-z0.poly[0], z0.poly[1])


def horizontal_conditions(d: PolyhedralDivisor, omega: Cone, e: Sequence,
                          char_exponent: int, s1: int,
                          base_point: BasePoint | None = None,
                          infinity_point: BasePoint | None = None,
                          exhaustive_box: int | None = None) -> ConditionReport:
    """Existence conditions for a horizontal action with the given data.

    Structural parts: admissible curve, the kernel cone maximal in the
    quasi-fan (restricted away from infinity on a projective base), the
    support function integral on it away from one rational point.  The
    floor inequalities are verified on the finite surrogate sample
    (:func:`probe_degrees`: the Hilbert basis of the weight cone and the
    rays of the quasi-fan cones scaled by the divisor denominator, plus
    pairwise sums), or exhaustively on a lattice box when
    ``exhaustive_box`` is given.

    The base point (t by default) is read in place: the shift t -> t - c
    that would move it to 0 only renames places, so the notes name places
    as ``d`` has them and the ``normalization`` row only records the shift.
    The point at infinity must be the place at infinity.
    """
    results = []
    e = tuple(int(a) for a in e)
    p = int(char_exponent)
    if exhaustive_box is not None and exhaustive_box < 0:
        raise ActionError(f"exhaustive box half-width must be at least 0, got {exhaustive_box}")
    if not d.curve.function_field_is_rational:
        raise WrongCurve("horizontal actions live over the affine or projective line")
    ok, cert = is_proper(d)
    if not ok:
        return ConditionReport((("proper", False, cert),))
    results.append(("curve", True, d.curve.value))

    z0 = base_point if base_point is not None else BasePoint.rational(0)
    shift = _base_shift(d, z0, infinity_point)
    zinf = BasePoint.infinity()
    restricted = d if d.curve is AFFINE_LINE else d.restrict([zinf])
    note = "already normalized" if shift == 0 else \
        f"recorded parameter change t -> t - ({shift})"
    results.append(("normalization", True, note))

    fan = quasifan(restricted)
    ok = omega in fan
    results.append(("kernel_cone_maximal", ok,
                    "omega is a maximal quasi-fan cone" if ok else
                    f"omega not among {len(fan)} maximal cones"))
    if not ok:
        return ConditionReport(tuple(results))

    # support function on omega is linear, given by the minimizing vertex
    def omega_vertex(z: BasePoint):
        poly = d.coefficient(z)
        interior = tuple(sum(col) for col in zip(*omega.rays))
        best = min(poly.vertices, key=lambda v: dot(interior, v))
        assert all(dot(m, best) == support_value(poly, m) for m in omega.rays)
        return best

    ok, note = True, "support functions integral away from the base point"
    for z, poly in restricted.coefficients:
        if z == z0:
            continue
        vz = omega_vertex(z)
        if any(Fraction(a).denominator != 1 for a in vz):
            ok, note = False, f"support function at {z} is not integral on omega"
            break
    results.append(("integral_away_from_base", ok, note))
    if not ok:
        return ConditionReport(tuple(results))

    v0 = omega_vertex(z0)
    dd = denominator_lcm(v0)
    pk = p ** p_power_part(dd, p)

    e1 = tuple(p ** s1 * a for a in e)
    u = -Fraction(1, dd) - dot(e1, v0)
    ok = u.denominator == 1
    results.append(("degree_integrality", ok, f"u = {u}, d = {dd}"))
    if not ok:
        return ConditionReport(tuple(results))

    weight = d.tail.dual()
    if exhaustive_box is not None:
        sample = lattice_points([(h, 0) for h in weight.halfspaces],
                                [-exhaustive_box] * d.rank, [exhaustive_box] * d.rank)
    else:
        probes = probe_degrees(restricted, d.denominator())
        sample = set(probes)
        sample.update(vadd(a, b) for a in probes for b in probes)
        sample = sorted(sample)

    def h_at(z, m):
        return support_value(d.coefficient(z), m)

    cond3, w3 = True, "vanishing-order inequality holds on the sample"
    cond4, w4 = True, "base-point inequality holds on the sample"
    cond5, w5 = True, "infinity inequality holds on the sample"
    for m in sample:
        shifted = vadd(m, e1)
        if not weight.contains(shifted):
            continue
        for z, poly in restricted.coefficients:
            if z == z0:
                continue
            if h_at(z, shifted) != 0:
                lhs = floor(pk * h_at(z, shifted)) - floor(pk * h_at(z, m))
                if lhs < 1:
                    cond3, w3 = False, f"at {z}, m = {m}: {lhs} < 1"
        if h_at(z0, shifted) != dot(shifted, v0):
            lhs = floor(dd * h_at(z0, shifted)) - floor(dd * h_at(z0, m))
            rhs = 1 - dd * dot(e1, v0)
            if lhs < rhs:
                cond4, w4 = False, f"m = {m}: {lhs} < {rhs}"
        if d.curve is PROJECTIVE_LINE:
            lhs = floor(dd * h_at(zinf, shifted)) - floor(dd * h_at(zinf, m))
            rhs = -1 - dd * dot(e1, v0)
            if lhs < rhs:
                cond5, w5 = False, f"m = {m}: {lhs} < {rhs}"
    results.append(("order_jump_away_from_base", cond3, w3))
    results.append(("base_point_floor_inequality", cond4, w4))
    if d.curve is PROJECTIVE_LINE:
        results.append(("infinity_floor_inequality", cond5, w5))
    return ConditionReport(tuple(results))


@dataclass(frozen=True)
class KernelDescription:
    sublattice_basis: tuple[IVec, ...]
    monoid_generators: tuple[IVec, ...]
    functions: tuple[tuple[IVec, RationalFunction], ...]


def horizontal_kernel(ca: CoherentAssemblage) -> KernelDescription:
    """Kernel of the horizontal action: the sublattice where the base color
    pairs integrally, the monoid generators of the kernel cone inside it,
    and the kernel functions (vanishing prescribed by the evaluation away
    from infinity)."""
    cd = ca.colored
    d = cd.divisor
    n = d.rank
    v0 = cd.color(cd.base_point)
    dd = cd.color_denominator
    omega, _ = associated_cones(cd)
    # L = {m : <m, v0> in Z} = kernel of m -> d*<m, v0> mod d
    row = tuple(int(dd * a) for a in v0)
    lattice = _pairing_kernel_basis(row, dd, n)
    # Hilbert basis of omega within the sublattice
    base_change = list(lattice)
    cone_in_l = Cone.from_halfspaces(
        [[sum(h[j] * b[j] for j in range(n)) for b in base_change]
         for h in omega.halfspaces], n)
    gens_in_l = hilbert_basis(cone_in_l)
    monoid = tuple(sorted(
        tuple(sum(c * b[j] for c, b in zip(g, base_change)) for j in range(n))
        for g in gens_in_l))
    exclude = [cd.infinity_point] if cd.infinity_point is not None else []
    funcs = []
    for m in monoid:
        ev = evaluate(d, m).restrict(exclude)
        assert ev.is_integral, (m, ev)
        funcs.append((m, RationalFunction.monic_product(
            1, ((z.poly, -int(a)) for z, a in ev.coefficients if z.kind == "finite"))))
    return KernelDescription(tuple(lattice), monoid, tuple(funcs))


def _pairing_kernel_basis(row: IVec, modulus: int, n: int) -> tuple[IVec, ...]:
    """Canonical basis of {m in Z^n : <m, row> = 0 mod modulus}, the
    projection of the kernel lattice of (row | -modulus) in Z^{n+1}."""
    kernel = integer_kernel_basis([row + (-modulus,)], n + 1)
    return tuple(hnf([v[:n] for v in kernel]))


def horizontal_expander(ca: CoherentAssemblage) -> Callable[[Term], ExponentialExpansion]:
    """Characteristic-zero expansion of the horizontal action on c t^l chi^m.

    Works in the degree-d root cover of the parameter: term i is
    binom(d(h(m) + l), i) lambda^i c t^{l + i u} chi^{m + i e}, a monomial,
    and must stay in the section algebra.  The characteristic and the
    coherence axioms (:func:`assemblage_check`) depend on ``ca`` only and
    raise here; the returned function raises, per input, ``NonMember`` (by
    :func:`divisors.member` for an element not of the form c t^l chi^m), then
    marked points that are not normalized, then the form.
    """
    cd = ca.colored
    d = cd.divisor
    if ca.char_exponent != 1:
        raise ActionError("exponential evaluation is characteristic zero only")
    report = assemblage_check(ca)
    if not report.all_pass:
        raise ConditionsFail(f"assemblage is not coherent:\n{report}")
    try:
        points_error = "exponentials expect normalized marked points" \
            if _base_shift(d, cd.base_point, cd.infinity_point) else ""
    except ActionError as err:
        points_error = str(err)
    v0 = cd.color(cd.base_point)
    dd = cd.color_denominator
    u = -Fraction(1, dd) - dot(ca.degree, v0)
    assert u.denominator == 1
    step = Monomial(_coefficient(ca.scalars[0]), int(u), ca.degree)
    row = tuple(int(dd * a) for a in v0)  # d v0 is integral
    is_member = _monomial_membership(d)

    def expand(el: Term) -> ExponentialExpansion:
        start = _monomial(el)
        if not (member(el, d) if start is None else is_member(start)):
            raise NonMember(f"{el} is not in the section algebra")
        if points_error:
            raise ActionError(points_error)
        if start is None:
            raise ActionError("exponentials expect elements of the form c * t^l chi^m")
        a = dot(start.degree, row) + dd * start.ell
        assert a >= 0, a
        return _series(Monomial(_coefficient(start.c), start.ell, start.degree), a, step,
                       is_member)

    return expand


def axiom_check(expansion_of: Callable[[Term], ExponentialExpansion],
                samples: Sequence[tuple[Term, Term]]) -> ConditionReport:
    """Iterative higher-derivation axioms on sample pairs.

    Checks the identity term, local finiteness (the indices of each
    expansion of x strictly increase from 0 and term i has degree
    deg(x) + i*delta, for one lattice vector delta, the degree of the
    derivation), the Leibniz rule via multiplicativity of exponentials,
    and iterativity binom(i+j, i) * term_{i+j} = expansion-of-term_i at j.
    An empty sample raises, since no axiom can fail on it.
    """
    if not samples:
        raise ActionError("the axioms need at least one sample pair")
    identity_ok, id_note = True, "zeroth term is the input"
    finite_ok, finite_note = True, "every expansion is a finite sum"
    delta = None  # set by the first term of positive index
    leibniz_ok, leib_note = True, "exponential is multiplicative on all samples"
    iter_ok, iter_note = True, "iterative rule holds on all samples"
    for a, b in samples:
        ea, eb = expansion_of(a), expansion_of(b)
        for x, ex in ((a, ea), (b, eb)):
            if ex.terms[0][0] != 0 or not ex.terms[0][1].same_as(x):
                identity_ok, id_note = False, f"zeroth term mismatch for {x}"
        ab = a * b
        eab = expansion_of(ab)
        for x, ex in ((a, ea), (b, eb), (ab, eab)):
            indices = [i for i, _ in ex.terms]
            if indices[0] or indices != sorted(set(indices)):
                finite_ok, finite_note = False, f"{x}: indices {indices} not increasing from 0"
            for i, term in ex.terms:
                shift = vsub(term.degree, x.degree)
                if delta is None and i:
                    delta = tuple(c // i for c in shift)
                # delta is unset only at index 0, where the shift must be 0
                if shift != tuple(i * c for c in delta or shift):
                    finite_ok, finite_note = False, f"{x}: term {i} not of degree deg + {i}*delta"
        if not eab.same_as(ea * eb):
            leibniz_ok, leib_note = False, f"e(ab) != e(a)e(b) for {a}, {b}"
        for i, term in ea.terms:
            if i > 3:
                break
            sub = expansion_of(term)
            for j, got in sub.terms:
                if j > 3:
                    break
                expected = ea.term(i + j)
                if expected is None:
                    iter_ok = False
                    iter_note = f"term ({i},{j}) of {a} should vanish"
                elif not got.same_as(expected.scaled(comb(i + j, i))):
                    iter_ok = False
                    iter_note = f"iterativity fails at ({i},{j}) on {a}"
    return ConditionReport((
        ("identity", identity_ok, id_note),
        ("local_finiteness", finite_ok, finite_note),
        ("leibniz_multiplicativity", leibniz_ok, leib_note),
        ("iterativity", iter_ok, iter_note),
    ))
