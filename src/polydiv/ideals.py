"""Integral closure and normality of invariant ideals.

Monomial ideals are governed by their Newton polyhedron; homogeneous
ideals on a complexity-one section algebra are encoded by a Rees pair: the
Newton polyhedron of the degrees together with an augmented polyhedral
divisor in one rank higher whose level-e pieces are the closures of the
ideal powers.  A brute-force integral-dependence oracle covers the
monomial layer independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .convex import (
    Cone,
    GeometryError,
    Polyhedron,
    is_polyhedron_normal,
    lattice_points,
    minimal_lattice_points,
    project_out_last,
)
from .curves import (
    PROJECTIVE_LINE,
    BasePoint,
    WrongCurve,
    principal_divisors,
)
from .divisors import (
    GradedPiece,
    HomogeneousElement,
    PolyhedralDivisor,
    graded_piece,
    member,
)
from .linalg import IVec, dot, vsub


class IdealError(ValueError):
    pass


class NonMemberGenerator(IdealError):
    pass


class DegreeOutsideDilate(IdealError):
    pass


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal of the monoid algebra of a full-dimensional weight cone."""

    weight_cone: Cone
    exponents: tuple[IVec, ...]

    @staticmethod
    def of(weight_cone: Cone, exponents: Iterable[Sequence]) -> "MonomialIdeal":
        if not weight_cone.is_full_dimensional or not weight_cone.is_pointed:
            raise GeometryError("weight cone must be full-dimensional and pointed")
        exps = tuple(sorted({tuple(int(a) for a in m) for m in exponents}))
        if not exps:
            raise IdealError("a monomial ideal needs at least one exponent")
        for m in exps:
            if not weight_cone.contains(m):
                raise IdealError(f"exponent {m} outside the weight cone")
        return MonomialIdeal(weight_cone, exps)

    @property
    def rank(self) -> int:
        return self.weight_cone.ambient_rank


def newton_polyhedron(ideal: MonomialIdeal) -> Polyhedron:
    return Polyhedron.from_vertices_and_tail(ideal.exponents, ideal.weight_cone)


def monomial_closure_generators(ideal: MonomialIdeal) -> tuple[IVec, ...]:
    """Minimal monomial generating set of the integral closure."""
    return minimal_lattice_points(newton_polyhedron(ideal))


def monomial_is_normal(ideal: MonomialIdeal) -> tuple[bool, dict | None]:
    """Normality of the (closure of the) ideal; witness on failure.

    Checks e-fold splitting of the Newton polyhedron for e up to rank - 1,
    which suffices in the orthant case and for every polyhedron in rank 2;
    on non-orthant rank-3 cones it is tested against splitting up to rank + 1.
    """
    p = newton_polyhedron(ideal)
    for e in range(1, ideal.rank):
        ok, witness = is_polyhedron_normal(p, e)
        if not ok:
            return False, {"exponent": e, "point": witness}
    return True, None


def closure_member_oracle(m: Sequence, ideal: MonomialIdeal, d_max: int = 12) -> bool:
    """Brute-force integral dependence: chi^m integral over the ideal iff some
    d-fold exponent sum s has d*m - s in the weight cone, d <= d_max.

    One-sided: False only means "no witness found up to d_max".
    """
    if d_max < 1:
        raise IdealError("d_max must be >= 1")
    m = tuple(int(a) for a in m)
    cone = ideal.weight_cone
    for d in range(1, d_max + 1):
        target = tuple(d * a for a in m)
        for combo in itertools.combinations_with_replacement(ideal.exponents, d):
            s = tuple(map(sum, zip(*combo)))
            if cone.contains(vsub(target, s)):
                return True
    return False


@dataclass(frozen=True)
class GradedIdealPresentation:
    """Homogeneous ideal generators inside a fixed ambient section algebra."""

    weight_cone: Cone
    divisor: PolyhedralDivisor
    generators: tuple[HomogeneousElement, ...]

    @staticmethod
    def of(weight_cone: Cone, divisor: PolyhedralDivisor,
           generators: Iterable[HomogeneousElement]) -> "GradedIdealPresentation":
        gens = tuple(generators)
        if not gens:
            raise IdealError("an ideal presentation needs generators")
        for g in gens:
            if not member(g, divisor):
                raise NonMemberGenerator(f"{g} is not in the ambient algebra")
        return GradedIdealPresentation(weight_cone, divisor, gens)


@dataclass(frozen=True)
class ReesPair:
    """Newton polyhedron plus the augmented divisor of the Rees normalization."""

    presentation: GradedIdealPresentation
    newton: Polyhedron          # in M_Q, tail the weight cone
    rees_divisor: PolyhedralDivisor  # rank n+1, tail the augmented cone

    @property
    def weight_cone_augmented(self) -> Cone:
        """The cone with level-e slices e * Newton polyhedron."""
        return self.rees_divisor.tail.dual()


def rees_pair(pres: GradedIdealPresentation) -> ReesPair:
    """Augmented divisor with coefficients cut out by <m_i, v> + p >= -ord_z f_i
    inside coefficient x Q, computed in ambient rank n + 1."""
    d = pres.divisor
    n = d.rank
    weight_cone = d.tail.dual()
    newton = Polyhedron.from_vertices_and_tail(
        [g.degree for g in pres.generators], weight_cone)
    augmented_tail = newton.cone.dual()  # dual of the cone over (Newton polyhedron, level 1)
    gens = pres.generators
    divs = principal_divisors([g.function for g in gens], d.curve, d.support)
    coeffs = []
    for z in sorted({z for div in divs for z in div.support} | set(d.support)):
        ineqs = [(tuple(g.degree) + (1,), -div.coefficient(z)) for g, div in zip(gens, divs)]
        for normal, offset in d.coefficient(z).halfspaces:
            ineqs.append((tuple(normal) + (0,), offset))
        coeffs.append((z, Polyhedron.from_halfspaces(ineqs, n + 1)))
    rd = PolyhedralDivisor.of(d.curve, augmented_tail, coeffs)
    pair = ReesPair(pres, newton, rd)
    _check_rees_invariants(pair)
    return pair


def _check_rees_invariants(pair: ReesPair) -> None:
    d = pair.presentation.divisor
    for z, poly in pair.rees_divisor.coefficients:
        if project_out_last(poly) != d.coefficient(z):
            raise IdealError(f"projection of the augmented coefficient at {z} "
                             "does not recover the ambient coefficient")
        if any(v[-1] > 0 for v in poly.vertices):
            raise IdealError(f"augmented coefficient at {z} has a vertex above level 0")


def closure_power_piece(pair: ReesPair, m: Sequence, e: int) -> GradedPiece:
    """Graded piece of the closure of the e-th ideal power at degree m."""
    if e < 0:
        raise DegreeOutsideDilate("power must be >= 0")
    if not all(dot(a, m) >= e * c for a, c in pair.newton.halfspaces):
        raise DegreeOutsideDilate(f"{tuple(m)} is not in the {e}-fold Newton polyhedron")
    return GradedPiece(tuple(m), graded_piece(pair.rees_divisor, tuple(m) + (e,)).module)


@dataclass(frozen=True)
class ConditionReport:
    results: tuple[tuple[str, bool, str], ...]

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def __repr__(self) -> str:
        return "\n".join(f"[{'PASS' if ok else 'FAIL'}] {n}: {note}"
                         for n, ok, note in self.results)


SLICE_BOX_HALFWIDTH = 6  # check (ii) samples the box [-6, 6]^n
MAX_LEVEL = 4  # at the levels 0..4


def pair_conditions(pair: ReesPair) -> ConditionReport:
    """Check the Rees-pair axioms with witnesses.

    (i)  Newton polyhedron has integral vertices inside the weight cone;
    (ii) the augmented weight cone slices to the dilated Newton polyhedra
         (sampled levels, lattice points in a box);
    (iii) projecting out the level recovers the coefficients and all
         augmented vertices sit at level <= 0;
    (iv) every level-carrying facet is of the form <m, v> + p >= e with
         m an integral point of the Newton polyhedron; on a projective
         base the sections of the level-1 evaluation must attain the
         facet's order at the point.
    """
    results = []
    d = pair.presentation.divisor
    wc = d.tail.dual()

    ok = pair.newton.has_integral_vertices and \
        all(wc.contains(v) for v in pair.newton.vertices)
    results.append(("newton_in_weight_monoid", ok,
                    f"vertices {_fmt_vertices(pair.newton)}"))

    n = d.rank
    lo, hi = [-SLICE_BOX_HALFWIDTH] * n, [SLICE_BOX_HALFWIDTH] * n
    augmented = pair.weight_cone_augmented.halfspaces
    slice_ok, note = True, "levels 0..%d agree on the sampled box" % MAX_LEVEL
    for e in range(MAX_LEVEL + 1):
        # e * Newton is <a, m> >= e c; the slice at level e is <h, (m, e)> >= 0
        want = set(lattice_points([(a, e * c) for a, c in pair.newton.halfspaces], lo, hi))
        got = set(lattice_points([(h[:n], -e * h[n]) for h in augmented], lo, hi))
        if want != got:
            slice_ok = False
            diff = (want - got) | (got - want)
            note = f"level {e} mismatch at {sorted(diff)[:3]}"
            break
    results.append(("augmented_cone_slices", slice_ok, note))

    proj_ok, note = True, "projection and vertex levels verified"
    try:
        _check_rees_invariants(pair)
    except IdealError as err:
        proj_ok, note = False, str(err)
    results.append(("projection_and_vertex_levels", proj_ok, note))

    facet_ok, note = True, "all level-facets carried by Newton lattice points"
    for z, poly in pair.rees_divisor.coefficients:
        for normal, offset in poly.halfspaces:
            level = normal[-1]
            if level == 0:
                continue
            if level < 0:
                facet_ok, note = False, f"facet {normal} at {z} has negative level"
                break
            if any(a % level for a in normal) or offset % level:
                facet_ok, note = False, f"facet {normal} at {z} not integral after scaling"
                break
            mvec = tuple(a // level for a in normal[:-1])
            if not pair.newton.contains(mvec):
                facet_ok = False
                note = f"facet direction {mvec} at {z} outside the Newton polyhedron"
                break
            if d.curve is PROJECTIVE_LINE:
                if not _sections_attain_order(pair, mvec, z):
                    facet_ok = False
                    note = f"sections of the level-1 sheaf do not generate at {z}"
                    break
        if not facet_ok:
            break
    results.append(("facets_from_newton_points", facet_ok, note))
    return ConditionReport(tuple(results))


def _sections_attain_order(pair: ReesPair, mvec: IVec, z: BasePoint) -> bool:
    """Do the sections at (mvec, 1) attain the floor at z, a place of the Rees divisor?"""
    d, m = pair.rees_divisor, tuple(mvec) + (1,)
    mod = graded_piece(d, m).module
    return not mod.is_zero and \
        min(f.ord_at(z) for f in mod.generators) == -d.floors(m)[d.support.index(z)]


def _fmt_vertices(p: Polyhedron) -> str:
    return "[" + ", ".join("(" + ",".join(map(str, v)) + ")" for v in p.vertices) + "]"


def ptilde(pair: ReesPair, z: BasePoint) -> Polyhedron:
    """Integral polyhedron of lattice pairs (m, i) with h_z(m, 1) >= -i:
    the Newton polyhedron lifted by the orders at z, conv(m_j, ord_z f_j) +
    {(w, k) : w in the weight cone, k >= -h_z(w, 0)}, over the generators
    f_j chi^(m_j) of the ideal.

    h_z, the support function of the Rees coefficient at z, is linear on
    each cone of the coefficient's normal fan, so the rational pairs form a
    polyhedron whose vertices lie over the rays of that fan at level 1.
    These are the normals (m_j, 1) of its facets, where h_z(m_j, 1) =
    -ord_z f_j: each vertex is a lift (m_j, ord_z f_j), a lattice point, and
    each lift is a pair, since the row of f_j holds on the coefficient.
    h_z(w, 0) is the support function of Delta_z, onto which the
    coefficient projects.
    """
    if pair.presentation.divisor.curve is PROJECTIVE_LINE:
        raise WrongCurve("the lifted Newton polyhedron is an affine-base construction")
    wc = pair.newton.tail
    tail = Cone.from_halfspaces(
        [tuple(h) + (0,) for h in wc.halfspaces] +
        [tuple(v) + (1,) for v in pair.presentation.divisor.coefficient(z).vertices],
        wc.ambient_rank + 1)
    return Polyhedron.from_vertices_and_tail(
        [tuple(g.degree) + (g.function.ord_at(z),) for g in pair.presentation.generators], tail)


def normality_sufficient(pair: ReesPair) -> tuple[bool, dict | None]:
    """Sufficient normality criterion: all lifted Newton polyhedra over the
    support split e-fold for e up to the base lattice rank."""
    d = pair.presentation.divisor
    if d.curve is PROJECTIVE_LINE:
        raise WrongCurve("normality criterion needs an affine base")
    n = d.rank
    for z in pair.rees_divisor.support:
        p = ptilde(pair, z)
        for e in range(1, n + 1):
            ok, wit = is_polyhedron_normal(p, e)
            if not ok:
                return False, {"point": z, "exponent": e, "witness": wit}
    return True, None
