import itertools
import os
import random
from fractions import Fraction as F
from functools import partial
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polydiv import serialize
from polydiv.convex import Cone, GeometryError, Polyhedron
from polydiv.curves import (
    AFFINE_LINE,
    PROJECTIVE_LINE,
    SPEC_Z,
    BasePoint,
    CurveError,
    RationalFunction,
    WrongCurve,
    is_prime,
)
from polydiv.divisors import (
    DivisorError,
    HomogeneousElement,
    PolyhedralDivisor,
    divisor_from_generators,
    graded_piece,
    member,
)
from polydiv.gaactions import (
    ActionError,
    CoherentAssemblage,
    ColoredDivisor,
    ConditionsFail,
    ExponentialExpansion,
    Monomial,
    NonMember,
    PhiNotAdmissible,
    RayNotInCone,
    _monomial_membership,
    _pairing_kernel_basis,
    assemblage_check,
    associated_cones,
    axiom_check,
    horizontal_conditions,
    horizontal_expander,
    horizontal_kernel,
    is_demazure_root,
    p_power_part,
    roots_with_ray,
    toric_exponential,
    validate_coloring,
    vertical_exists,
    vertical_exponential,
    vertical_phi,
)
from polydiv.linalg import bareiss_det, dot
from oracles import (
    box_points,
    divisor_sum,
    horizontal_by_terms,
    monomial_member_by_floors,
    nonnegative_orthant,
    one,
    outcome,
    roots_by_filter,
    toric_by_terms,
    vertical_by_terms,
)

SIGMA = nonnegative_orthant(2)
Z0 = BasePoint.rational(0)
Z1 = BasePoint.rational(1)
INF = BasePoint.infinity()


def example_345_divisor():
    t1 = HomogeneousElement(RationalFunction.from_factored(1, {(0, 1): 1, (-1, 1): -1}), (2, 0))
    t2 = HomogeneousElement(RationalFunction.from_factored(1), (0, 1))
    t3 = HomogeneousElement(RationalFunction.from_factored(1, {(0, 1): 1}), (2, 2))
    t4 = HomogeneousElement(RationalFunction.from_factored(1, {(0, 1): 2, (-1, 1): -1}), (3, 2))
    return divisor_from_generators([t1, t2, t3, t4], PROJECTIVE_LINE)[1]


def example_5617(base_vertices=((F(1, 2), 0),)):
    d = PolyhedralDivisor.of(PROJECTIVE_LINE, SIGMA, {
        Z0: Polyhedron.from_vertices_and_tail(base_vertices, SIGMA),
        Z1: Polyhedron.from_vertices_and_tail([(0, 0), (F(-1, 2), F(1, 2))], SIGMA),
        INF: Polyhedron.from_vertices_and_tail([(F(1, 2), 0)], SIGMA)})
    cd = ColoredDivisor.of(d, base_point=Z0,
                           colors={Z0: (F(1, 2), 0), Z1: (0, 0)},
                           infinity_point=INF)
    return d, cd


class TestDemazureRoots:
    def test_simple_root(self):
        r = is_demazure_root(SIGMA, (-1, 0))
        assert r is not None and r.distinguished_ray == (1, 0)

    def test_two_negative_pairings(self):
        assert is_demazure_root(SIGMA, (-1, -1)) is None

    def test_swapped_root(self):
        r = is_demazure_root(SIGMA, (3, -1))
        assert r is not None and r.distinguished_ray == (0, 1)

    def test_enumeration(self):
        roots = roots_with_ray(SIGMA, (1, 0), [(-3, 3), (-3, 3)])
        assert {r.vector for r in roots} == {(-1, b) for b in range(4)}

    def test_enumeration_skew(self):
        sigma6 = Cone.from_rays([(1, 0), (1, 6)], 2)
        roots = roots_with_ray(sigma6, (1, 0), [(-2, 2), (-2, 2)])
        for r in roots:
            assert dot(r.vector, (1, 0)) == -1
            assert dot(r.vector, (1, 6)) >= 0
        assert roots

    def test_empty_box(self):
        assert roots_with_ray(SIGMA, (1, 0), [(5, 4), (0, 0)]) == ()

    def test_ray_not_in_cone(self):
        with pytest.raises(RayNotInCone):
            roots_with_ray(SIGMA, (1, 1), [(-1, 1), (-1, 1)])

    @pytest.mark.parametrize("box", [[(5, 4), (0, 0)], [(-2, 2), (-2, 2)]],
                             ids=["empty-box", "box"])
    def test_cone_with_a_line_is_refused(self, box):
        """The half-plane y >= 0 has the rays (1, 0), (-1, 0) and (0, 1) and
        is not pointed: no roots, even in a box with no points."""
        half_plane = Cone.from_rays([(1, 0), (-1, 0), (0, 1)], 2)
        assert (1, 0) in half_plane.rays and not half_plane.is_pointed
        with pytest.raises(GeometryError):
            roots_with_ray(half_plane, (1, 0), box)


@st.composite
def pointed_cones_with_ray(draw):
    """A nonzero pointed cone of rank 1..4, full-dimensional or not, and one
    of its rays."""
    n = draw(st.integers(1, 4))
    vectors = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=n + 2))
    cone = Cone.from_rays(vectors, n)
    assume(cone.rays and cone.is_pointed)
    return cone, draw(st.sampled_from(cone.rays))


@settings(max_examples=200, deadline=None)
@given(pointed_cones_with_ray(), st.data())
def test_roots_with_ray_match_box_filter(cone_ray, data):
    """The roots, in order, are the box's points that ``is_demazure_root``
    gives the ray; some boxes have coordinates with hi < lo, so no points."""
    cone, ray = cone_ray
    lo = data.draw(st.lists(st.integers(-3, 1), min_size=cone.ambient_rank,
                            max_size=cone.ambient_rank))
    box = [(a, a + data.draw(st.integers(-1, 4))) for a in lo]
    assert roots_with_ray(cone, ray, box) == roots_by_filter(cone, ray, box)


def chi(m, c=1) -> Monomial:
    """The monomial c chi^m."""
    return Monomial(F(c), 0, tuple(m))


class TestToricExponential:
    def test_kernel_face(self):
        root = is_demazure_root(SIGMA, (-1, 1))
        exp = toric_exponential(SIGMA, root, 5, chi((0, 2)))
        assert len(exp.terms) == 1

    def test_height_one(self):
        root = is_demazure_root(SIGMA, (-1, 1))
        exp = toric_exponential(SIGMA, root, F(1, 2), chi((1, 0)))
        assert [i for i, _ in exp.terms] == [0, 1]
        assert exp.terms[1][1] == Monomial(F(1, 2), 0, (0, 1))

    def test_binomial_row(self):
        root = is_demazure_root(SIGMA, (-1, 1))
        exp = toric_exponential(SIGMA, root, 1, chi((3, 0)))
        assert [el.c for _, el in exp.terms] == [1, 3, 3, 1]

    def test_degree_shift(self):
        root = is_demazure_root(SIGMA, (-1, 2))
        exp = toric_exponential(SIGMA, root, 1, chi((2, 1)))
        for i, el in exp.terms:
            assert el.degree == (2 - i, 1 + 2 * i)

    def test_termination_at_pairing(self):
        # the x-degree of the expansion recovers <m, rho>
        root = is_demazure_root(SIGMA, (-1, 0))
        for m in ((1, 0), (2, 3), (4, 1)):
            exp = toric_exponential(SIGMA, root, 1, chi(m))
            assert exp.terms[-1][0] == dot(m, root.distinguished_ray)
            assert exp.terms[-1][1].c == 1

    def test_root_of_another_cone_leaves_the_algebra(self):
        """(-1, 0) is a root of the orthant, not of cone((1, 0), (1, 1)), so on
        chi^(2, -1) the second term chi^(0, -1) leaves the weight cone; the
        series' membership hook refuses it."""
        cone = Cone.from_rays([(1, 0), (1, 1)], 2)
        root = is_demazure_root(SIGMA, (-1, 0))
        with pytest.raises(NonMember, match=r"term .*\[0, -1\] left the section algebra"):
            toric_exponential(cone, root, 1, chi((2, -1)))


class TestVertical:
    def test_phi_zero_when_ray_meets_degree(self):
        d = example_345_divisor()
        root = is_demazure_root(SIGMA, (-1, 0))
        assert vertical_phi(d, root).is_zero

    def test_min_divisor_values(self):
        d = example_345_divisor()
        assert dict(zip(d.support, d.floors((-1, 0)))) == {Z0: 0, Z1: -1, INF: -1}

    def test_phi_on_shifted_cone(self):
        d = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {
            Z0: Polyhedron.from_vertices_and_tail([(1, 0)], SIGMA)})
        root = is_demazure_root(SIGMA, (-1, 0))
        mod = vertical_phi(d, root)
        assert mod.kind == "free"
        assert mod.generator.same_as(RationalFunction.variable(1))

    def test_trivial_divisor_phi(self):
        d = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {})
        root = is_demazure_root(SIGMA, (-1, 0))
        mod = vertical_phi(d, root)
        assert mod.kind == "free" and mod.generator.is_one()

    def test_exists(self):
        d = example_345_divisor()
        assert not vertical_exists(d, (1, 0))
        assert not vertical_exists(d, (0, 1))
        daff = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {})
        assert vertical_exists(daff, (1, 0))

    @pytest.mark.parametrize("d", [PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {}),
                                   PolyhedralDivisor.of(SPEC_Z, SIGMA, {}),
                                   example_345_divisor()], ids=["A1", "SpecZ", "P1"])
    def test_exists_refuses_a_vector_that_is_not_a_ray(self, d):
        """Every base; a positive multiple of a ray is that ray."""
        for ray in ((-1, 0), (1, 1), (0, 0)):
            with pytest.raises(RayNotInCone):
                vertical_exists(d, ray)
        assert vertical_exists(d, (3, 0)) == vertical_exists(d, (1, 0))

    def test_exists_when_ray_clears_degree(self):
        # degree polyhedron strictly inside: one ray misses it
        d = PolyhedralDivisor.of(PROJECTIVE_LINE, SIGMA, {
            Z0: Polyhedron.from_vertices_and_tail([(F(1, 2), F(1, 2))], SIGMA),
            Z1: Polyhedron.from_vertices_and_tail([(0, 0), (F(-1, 4), 0)], SIGMA)})
        assert vertical_exists(d, (1, 0))
        assert vertical_exists(d, (0, 1))

    def test_exponential_membership(self):
        d = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {
            Z0: Polyhedron.from_vertices_and_tail([(1, 0)], SIGMA)})
        root = is_demazure_root(SIGMA, (-1, 0))
        el = HomogeneousElement(one(AFFINE_LINE), (1, 1))
        exp = vertical_exponential(d, root, RationalFunction.variable(1), el)
        assert len(exp.terms) == 2
        assert exp.terms[1][1].degree == (0, 1)
        assert exp.terms[1][1].function.same_as(RationalFunction.variable(1))

    def test_kernel_element_single_term(self):
        d = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {
            Z0: Polyhedron.from_vertices_and_tail([(1, 0)], SIGMA)})
        root = is_demazure_root(SIGMA, (-1, 0))
        el = HomogeneousElement(one(AFFINE_LINE), (0, 2))
        exp = vertical_exponential(d, root, RationalFunction.variable(1), el)
        assert len(exp.terms) == 1

    def test_inadmissible_phi(self):
        d = example_345_divisor()
        root = is_demazure_root(SIGMA, (-1, 0))
        el = HomogeneousElement(RationalFunction.from_factored(1), (0, 1))
        with pytest.raises(PhiNotAdmissible):
            vertical_exponential(d, root, RationalFunction.from_factored(1), el)

    @pytest.mark.parametrize("phi, admissible", [
        ({(0, 1): -1}, True),  # the pole at t is absorbed by floor(1) = 1
        ({(0, 1): -2}, False),  # a double pole at t is not
        ({(-1, 1): -1}, False),  # a pole at t - 1, off the support
        ({(0, -1, 1): -1}, False)])  # t^2 - t: the t - 1 half is off the support
    def test_phi_admissibility(self, phi, admissible):
        """The vertex minimum of (-1, 0) over the vertex (-1, 0) at t is 1."""
        d = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {
            Z0: Polyhedron.from_vertices_and_tail([(-1, 0)], SIGMA)})
        root = is_demazure_root(SIGMA, (-1, 0))
        phi = RationalFunction.from_factored(1, phi)
        el = HomogeneousElement(RationalFunction.variable(1), (1, 0))
        if not admissible:
            with pytest.raises(PhiNotAdmissible):
                vertical_exponential(d, root, phi, el)
            return
        exp = vertical_exponential(d, root, phi, el)
        assert [(i, term.degree) for i, term in exp.terms] == [(0, (1, 0)), (1, (0, 0))]
        assert exp.terms[1][1].function.is_one()


class TestColoring:
    def test_example_5617(self):
        _, cd = example_5617()
        rep = validate_coloring(cd)
        assert rep.all_pass, rep
        assert cd.color_denominator == 2
        assert cd.degree_vertex() == (F(1, 2), F(0))

    def test_non_vertex_color_rejected(self):
        d, _ = example_5617()
        bad = ColoredDivisor.of(d, base_point=Z0,
                                colors={Z0: (0, 0), Z1: (0, 0)},
                                infinity_point=INF)
        rep = validate_coloring(bad)
        ok, note = outcome(rep, "colors_are_vertices")
        assert not ok

    def test_all_integral_colors(self):
        d = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {
            Z0: Polyhedron.from_vertices_and_tail([(1, 2)], SIGMA)})
        cd = ColoredDivisor.of(d, base_point=Z0, colors={Z0: (1, 2)})
        rep = validate_coloring(cd)
        assert rep.all_pass
        assert cd.color_denominator == 1

    def test_spec_z_is_refused(self):
        """Colored divisors live over A1 and P1: over Spec Z there is no
        coloring to check, expand or take the kernel of."""
        p2 = BasePoint.of_prime(2)
        d = PolyhedralDivisor.of(SPEC_Z, SIG1, {p2: Polyhedron.from_vertices_and_tail(
            [(F(-1, 2),)], SIG1)})
        with pytest.raises(WrongCurve, match="affine or projective line"):
            ColoredDivisor.of(d, base_point=p2, colors={p2: (F(-1, 2),)})


class TestAssociatedCones:
    def test_example_5617(self):
        _, cd = example_5617()
        omega, augmented = associated_cones(cd)
        assert omega == Cone.from_rays([(1, 1), (0, 1)], 2)
        assert omega.dual() == Cone.from_rays([(-1, 1), (1, 0)], 2)
        assert set(augmented.rays) == {(-1, 1, 0), (1, 0, 2), (1, 0, -2)}

    def test_single_point_divisor(self):
        d = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {
            Z0: Polyhedron.from_vertices_and_tail([(1, 2)], SIGMA)})
        cd = ColoredDivisor.of(d, base_point=Z0, colors={Z0: (1, 2)})
        omega, augmented = associated_cones(cd)
        assert omega.dual() == SIGMA
        assert omega == SIGMA.dual()
        for r in SIGMA.rays:
            assert augmented.contains(tuple(r) + (0,))
        assert augmented.contains((1, 2, 1))


class TestAssemblage:
    def test_example_5617_coherent(self):
        _, cd = example_5617()
        ca = CoherentAssemblage.of(cd, degree=(1, 2), exponents=[1],
                                   scalars=[1], char_exponent=3)
        rep = assemblage_check(ca)
        assert rep.all_pass, rep
        ok, note = outcome(rep, "root_condition")
        assert "u = -2" in note and "(1, 0, 2)" in note

    def test_paper_triple_own_convention(self):
        # the printed sign-flipped triple pairs to -1 under its own convention
        assert dot((3, 6, 1), (-1, 0, 2)) == -1
        assert dot((3, 6, -2), (1, 0, 2)) == -1

    def test_char0_normal_form(self):
        sig1 = Cone.from_rays([(1,)], 1)
        d = PolyhedralDivisor.of(AFFINE_LINE, sig1, {
            Z0: Polyhedron.from_vertices_and_tail([(F(-1, 2),)], sig1)})
        cd = ColoredDivisor.of(d, base_point=Z0, colors={Z0: (F(-1, 2),)})
        good = CoherentAssemblage.of(cd, degree=(1,), exponents=[0], scalars=[1])
        assert assemblage_check(good).all_pass
        bad = CoherentAssemblage.of(cd, degree=(2,), exponents=[0], scalars=[1])
        rep = assemblage_check(bad)
        ok, note = outcome(rep, "root_condition")
        assert not ok  # u = -1/2 - (-1) = 1/2 not an integer

    def test_violated_uncolored_vertex(self):
        # same shape as the worked example, but the uncolored vertex of the
        # coefficient at 1 is pushed low enough to break the inequality
        d = PolyhedralDivisor.of(PROJECTIVE_LINE, SIGMA, {
            Z0: Polyhedron.from_vertices_and_tail([(F(1, 2), 0)], SIGMA),
            Z1: Polyhedron.from_vertices_and_tail([(0, 0), (F(-1, 2), F(1, 3))], SIGMA),
            INF: Polyhedron.from_vertices_and_tail([(F(1, 2), 0)], SIGMA)})
        cd = ColoredDivisor.of(d, base_point=Z0,
                               colors={Z0: (F(1, 2), 0), Z1: (0, 0)},
                               infinity_point=INF)
        assert validate_coloring(cd).all_pass
        ca = CoherentAssemblage.of(cd, degree=(1, 2), exponents=[1],
                                   scalars=[1], char_exponent=3)
        rep = assemblage_check(ca)
        ok, note = outcome(rep, "uncolored_vertices")
        assert not ok and "t - 1" in note

    # (base-point vertices, e, p, s, row, passed, note); a second vertex
    # (0, 1/2) at the base point gives base_point_vertices something to compare
    @pytest.mark.parametrize("base, e, p, s, row, ok, note", [
        ("one", (1, 3), 1, 0, "uncolored_vertices", True, "at [t - 1]: 1 >= 1"),
        ("one", (1, 1), 3, 1, "uncolored_vertices", False,
         "at [t - 1], vertex (Fraction(-1, 2), Fraction(1, 2)): 0 < 1"),
        ("one", (1, 2), 3, 1, "base_point_vertices", True,
         "no other vertices at the base point"),
        ("two", (0, 1), 1, 0, "base_point_vertices", True, "1 >= 1"),
        ("two", (1, 1), 3, 1, "base_point_vertices", False,
         "vertex (Fraction(0, 1), Fraction(1, 2)): 3 < 4"),
        ("one", (1, 2), 3, 1, "infinity_vertices", True, "3 >= -4"),
        ("one", (-1, 1), 3, 1, "infinity_vertices", False,
         "vertex (Fraction(1, 2), Fraction(0, 1)): -3 < 2"),
    ], ids=["uncolored-pass", "uncolored-fail", "base-default", "base-pass", "base-fail",
            "infinity-pass", "infinity-fail"])
    def test_vertex_inequality_notes(self, base, e, p, s, row, ok, note):
        """A pass reads the last comparison, a failure the first violation."""
        vertices = [(F(1, 2), 0)] + ([(0, F(1, 2))] if base == "two" else [])
        _, cd = example_5617(vertices)
        assert validate_coloring(cd).all_pass
        ca = CoherentAssemblage.of(cd, degree=e, exponents=[s], scalars=[1], char_exponent=p)
        assert outcome(assemblage_check(ca), row) == (ok, note)

    def test_no_uncolored_vertices_note(self):
        cd = ColoredDivisor.of(PolyhedralDivisor.of(AFFINE_LINE, SIG1, {
            Z0: Polyhedron.from_vertices_and_tail([(F(-1, 2),)], SIG1)}),
            base_point=Z0, colors={Z0: (F(-1, 2),)})
        ca = CoherentAssemblage.of(cd, degree=(1,), exponents=[0], scalars=[1])
        assert outcome(assemblage_check(ca), "uncolored_vertices") == (
            True, "no uncolored vertices away from the base point")


class TestHorizontalConditions:
    def test_example_5617(self):
        d, cd = example_5617()
        omega, _ = associated_cones(cd)
        rep = horizontal_conditions(d, omega, (1, 2), 3, 1)
        assert rep.all_pass, rep

    def test_normal_form_trivially_passes(self):
        sig1 = Cone.from_rays([(1,)], 1)
        d = PolyhedralDivisor.of(AFFINE_LINE, sig1, {
            Z0: Polyhedron.from_vertices_and_tail([(F(-1, 2),)], sig1)})
        omega = sig1.dual()
        rep = horizontal_conditions(d, omega, (1,), 1, 0)
        assert rep.all_pass, rep

    @pytest.mark.parametrize("c, shift", [(1, "1"), (F(-2, 3), "-2/3")])
    @pytest.mark.parametrize("e, p, s1", [((1,), 1, 0), ((1,), 2, 1), ((2,), 1, 0),
                                          ((3,), 3, 1)])
    def test_base_point_is_read_in_place(self, c, shift, e, p, s1):
        """The t^(-1/2) data at t - c reports as at t; the normalization row
        records the shift t -> t - c."""
        def rows(z):
            d = PolyhedralDivisor.of(AFFINE_LINE, SIG1, {
                z: Polyhedron.from_vertices_and_tail([(F(-1, 2),)], SIG1)})
            return list(horizontal_conditions(d, SIG1.dual(), e, p, s1, base_point=z).results)
        at_t = rows(Z0)
        assert ("normalization", True, "already normalized") in at_t
        recorded = ("normalization", True, f"recorded parameter change t -> t - ({shift})")
        assert rows(BasePoint.rational(c)) == [
            recorded if row[0] == "normalization" else row for row in at_t]

    def test_base_point_of_degree_two_raises(self):
        z = BasePoint.finite([1, 0, 1])  # t^2 + 1
        d = PolyhedralDivisor.of(AFFINE_LINE, SIG1, {
            z: Polyhedron.from_vertices_and_tail([(F(-1, 2),)], SIG1)})
        with pytest.raises(ActionError, match="finite rational point"):
            horizontal_conditions(d, SIG1.dual(), (1,), 1, 0, base_point=z)

    def test_finite_point_at_infinity_raises(self):
        d, cd = example_5617()
        omega, _ = associated_cones(cd)
        with pytest.raises(ActionError, match="only shifts"):
            horizontal_conditions(d, omega, (1, 2), 3, 1, infinity_point=BasePoint.rational(5))

    def test_point_at_infinity_on_a1_raises(self):
        """The coloring check refuses a point at infinity on A1, and so do
        the conditions, rather than pass on the t^(-1/2) data."""
        d = PolyhedralDivisor.of(AFFINE_LINE, SIG1, {
            Z0: Polyhedron.from_vertices_and_tail([(F(-1, 2),)], SIG1)})
        cd = ColoredDivisor.of(d, Z0, {Z0: (F(-1, 2),)}, infinity_point=INF)
        assert not validate_coloring(cd).all_pass
        with pytest.raises(ActionError, match="affine base has no point at infinity"):
            horizontal_conditions(d, SIG1.dual(), (1,), 1, 0, infinity_point=INF)

    def test_non_maximal_omega_fails(self):
        d, cd = example_5617()
        wrong = Cone.from_rays([(1, 1), (1, 2)], 2)
        rep = horizontal_conditions(d, wrong, (1, 2), 3, 1)
        ok, _ = outcome(rep, "kernel_cone_maximal")
        assert not ok

    def test_exhaustive_box_agrees(self):
        d, cd = example_5617()
        omega, _ = associated_cones(cd)
        a = horizontal_conditions(d, omega, (1, 2), 3, 1)
        b = horizontal_conditions(d, omega, (1, 2), 3, 1, exhaustive_box=6)
        assert a.all_pass == b.all_pass

    def test_negative_exhaustive_box_raises(self):
        """A box of half-width -1 holds no degree, so nothing would be checked."""
        d, cd = example_5617()
        omega, _ = associated_cones(cd)
        with pytest.raises(ActionError, match="at least 0"):
            horizontal_conditions(d, omega, (1, 2), 3, 1, exhaustive_box=-1)

    def test_matches_assemblage_check(self):
        d, cd = example_5617()
        omega, _ = associated_cones(cd)
        for e, p, s1 in (((1, 2), 3, 1), ((1, 1), 3, 1), ((1, 2), 3, 0)):
            ca = CoherentAssemblage.of(cd, degree=e, exponents=[s1],
                                       scalars=[1], char_exponent=p)
            a = assemblage_check(ca).all_pass
            b = horizontal_conditions(d, omega, e, p, s1).all_pass
            assert a == b, (e, p, s1)


class TestHorizontalKernel:
    def test_example_5617(self):
        _, cd = example_5617()
        ca = CoherentAssemblage.of(cd, degree=(1, 2), exponents=[1],
                                   scalars=[1], char_exponent=3)
        kd = horizontal_kernel(ca)
        assert kd.sublattice_basis == ((2, 0), (0, 1))
        fmap = dict(kd.functions)
        assert (2, 2) in fmap
        assert fmap[(2, 2)].same_as(RationalFunction.variable(-1))

    def test_integral_coloring_full_lattice(self):
        d = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {
            Z0: Polyhedron.from_vertices_and_tail([(1, 2)], SIGMA)})
        cd = ColoredDivisor.of(d, base_point=Z0, colors={Z0: (1, 2)})
        ca = CoherentAssemblage.of(cd, degree=(0, -1), exponents=[0], scalars=[1])
        kd = horizontal_kernel(ca)
        assert kd.sublattice_basis == ((1, 0), (0, 1))

    def test_kernel_functions_cancel_evaluation(self):
        from polydiv.curves import principal_divisor
        from polydiv.divisors import evaluate
        _, cd = example_5617()
        ca = CoherentAssemblage.of(cd, degree=(1, 2), exponents=[1],
                                   scalars=[1], char_exponent=3)
        kd = horizontal_kernel(ca)
        for m, f in kd.functions:
            total = divisor_sum(principal_divisor(f, PROJECTIVE_LINE), evaluate(cd.divisor, m))
            assert total.restrict([INF]) == total.restrict([INF]).scaled(0)

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.tuples(*[st.integers(-12, 12)] * n), st.integers(1, 12))))
    def test_pairing_kernel_is_the_congruence_lattice(self, problem):
        """The basis lies in L = {m : <m, row> = 0 mod modulus}, and its index
        in Z^n is that of L, modulus / gcd(modulus, row); a sublattice of L
        with the index of L is L."""
        row, modulus = problem
        basis = _pairing_kernel_basis(row, modulus, len(row))
        assert all(dot(b, row) % modulus == 0 for b in basis)
        assert len(basis) == len(row)
        assert abs(bareiss_det(basis)) == modulus // gcd(modulus, *row)


class TestHorizontalExponential:
    def setup_method(self):
        sig1 = Cone.from_rays([(1,)], 1)
        self.d = PolyhedralDivisor.of(AFFINE_LINE, sig1, {
            Z0: Polyhedron.from_vertices_and_tail([(F(-1, 2),)], sig1)})
        cd = ColoredDivisor.of(self.d, base_point=Z0, colors={Z0: (F(-1, 2),)})
        self.ca = CoherentAssemblage.of(cd, degree=(1,), exponents=[0], scalars=[1])

    def test_normal_form_derivative_of_t(self):
        el = HomogeneousElement(RationalFunction.variable(1), (0,))
        exp = horizontal_expander(self.ca)(el)
        # a = d(h(0) + 1) = 2, u = 0: terms t, 2t chi, t chi^2
        assert [i for i, _ in exp.terms] == [0, 1, 2]
        assert exp.terms[1][1] == Monomial(2, 1, (1,))

    def test_kernel_element(self):
        el = HomogeneousElement(RationalFunction.variable(1), (2,))
        exp = horizontal_expander(self.ca)(el)
        assert len(exp.terms) == 1

    def test_all_terms_members(self):
        rng = random.Random(0)
        for _ in range(10):
            m = rng.randint(0, 4)
            l = rng.randint((m + 1) // 2, 4)
            f = RationalFunction.variable(l) if l else one(AFFINE_LINE)
            exp = horizontal_expander(self.ca)(HomogeneousElement(f, (m,)))
            for _, term in exp.terms:
                assert member(term.element(), self.d)

    def test_stability_failure_detected(self):
        # corrupting the divisor by an extra point makes terms leave the algebra
        sig1 = Cone.from_rays([(1,)], 1)
        bad = PolyhedralDivisor.of(AFFINE_LINE, sig1, {
            Z0: Polyhedron.from_vertices_and_tail([(F(-1, 2),)], sig1),
            Z1: Polyhedron.from_vertices_and_tail([(F(1, 3),)], sig1)})
        cd = ColoredDivisor.of(bad, base_point=Z0,
                               colors={Z0: (F(-1, 2),), Z1: (F(1, 3),)})
        with pytest.raises((ConditionsFail, Exception)):
            ca = CoherentAssemblage.of(cd, degree=(1,), exponents=[0], scalars=[1])
            horizontal_expander(ca)(HomogeneousElement(RationalFunction.variable(1), (0,)))


SIG1 = Cone.from_rays([(1,)], 1)


def half_assemblage(z, extra=None, char_exponent=1):
    """The coherent t^(-1/2) assemblage at z; an extra colored point at
    ``extra`` breaks coherence."""
    coeffs, colors = {z: [(F(-1, 2),)]}, {z: (F(-1, 2),)}
    if extra is not None:
        coeffs[extra], colors[extra] = [(F(1, 3),)], (F(1, 3),)
    d = PolyhedralDivisor.of(AFFINE_LINE, SIG1, {
        p: Polyhedron.from_vertices_and_tail(v, SIG1) for p, v in coeffs.items()})
    cd = ColoredDivisor.of(d, base_point=z, colors=colors)
    if char_exponent == 1:
        return CoherentAssemblage.of(cd, degree=(1,), exponents=[0], scalars=[1])
    return CoherentAssemblage.of(cd, degree=(1,), exponents=[0, 1], scalars=[1, 1],
                                 char_exponent=char_exponent)


T_CHI0 = HomogeneousElement(RationalFunction.variable(1), (0,))
OUTSIDE = HomogeneousElement(RationalFunction.variable(-3), (0,))


class TestHorizontalErrorOrder:
    """Per element: characteristic, coherence, membership, marked points."""

    @pytest.mark.parametrize("ca, el, error, text", [
        (half_assemblage(Z0, Z1, char_exponent=3), OUTSIDE, ActionError,
         "characteristic zero"),
        (half_assemblage(Z0, Z1), OUTSIDE, ConditionsFail, "not coherent"),
        (half_assemblage(Z0), OUTSIDE, NonMember, "not in the section algebra"),
        (half_assemblage(Z1), OUTSIDE, NonMember, "not in the section algebra"),
        (half_assemblage(Z1), T_CHI0, ActionError, "normalized marked points"),
    ], ids=["char-before-coherence", "coherence-before-member",
            "member", "member-before-points", "points"])
    def test_first_failing_check_raises(self, ca, el, error, text):
        with pytest.raises(ActionError) as err:
            horizontal_expander(ca)(el)
        assert type(err.value) is error and text in str(err.value)

    def test_one_expander_serves_many_elements(self):
        ca = half_assemblage(Z0)
        expand = horizontal_expander(ca)
        for el in (T_CHI0, HomogeneousElement(RationalFunction.variable(2), (3,))):
            assert expand(el) == horizontal_expander(ca)(el)
        with pytest.raises(NonMember):
            expand(OUTSIDE)


def terms_or_error(route, *args):
    """Every term of an expansion exactly as it serializes, or the error."""
    try:
        exp = route(*args)
    except (ActionError, CurveError, DivisorError) as err:
        return type(err).__name__, str(err)
    terms = [(i, t.element() if isinstance(t, Monomial) else t) for i, t in exp.terms]
    return [(i, t.function.curve_kind, t.function.constant, t.function.factors, t.degree)
            for i, t in terms]


SCALARS = st.sampled_from([1, 2, -1, F(1, 2), F(-2, 3), F(5, 4)])
SMALL_CONES = [SIGMA, Cone.from_rays([(1, 0), (1, 3)], 2),
               Cone.from_rays([(1, 0), (1, 1), (0, 1), (-1, 2)], 2)]


# p, q, w, at_inf, e, lam of :func:`rank_one_assemblage`
RANK_ONE_ASSEMBLAGE = (st.integers(-7, 7), st.integers(1, 4), st.sampled_from([None, -1, 0, 2]),
                       st.one_of(st.none(), st.integers(-3, 3)), st.integers(0, 3), SCALARS)


def rank_one_assemblage(p, q, w, at_inf, e, lam) -> CoherentAssemblage:
    """A rank-one characteristic-zero assemblage of degree e, base point t
    colored p/q, perhaps a place t - 1 colored w, over A1 or, with a vertex
    ``at_inf`` at infinity, over P1; not checked for coherence."""
    coeffs, colors = {Z0: [(F(p, q),)]}, {Z0: (F(p, q),)}
    if w is not None:
        coeffs[Z1], colors[Z1] = [(w,)], (w,)
    curve, zinf = AFFINE_LINE, None
    if at_inf is not None:
        curve, zinf, coeffs[INF] = PROJECTIVE_LINE, INF, [(at_inf,)]
    d = PolyhedralDivisor.of(curve, SIG1, {
        z: Polyhedron.from_vertices_and_tail(v, SIG1) for z, v in coeffs.items()})
    return CoherentAssemblage.of(
        ColoredDivisor.of(d, base_point=Z0, colors=colors, infinity_point=zinf),
        degree=(e,), exponents=[0], scalars=[lam])


def series_keeps_the_box(ca: CoherentAssemblage) -> bool:
    """Does the series route act: is u an integer (``horizontal_by_terms``
    would truncate it), and does every monomial t^l chi^m of the algebra
    with (l, m) in the box [-5, 5]^2 expand inside it?"""
    cd = ca.colored
    if (F(-1, cd.color_denominator) - dot(ca.degree, cd.color(cd.base_point))).denominator != 1:
        return False
    for ell, m in itertools.product(range(-5, 6), repeat=2):
        el = HomogeneousElement(RationalFunction.from_factored(1, {(0, 1): ell}), (m,))
        if member(el, cd.divisor):
            try:
                horizontal_by_terms(ca, el)
            except NonMember:
                return False
    return True


class TestOneSeries:
    """The three actions share ``gaactions._series``; the loops each built
    before are the oracles, compared term by term and error by error."""

    @given(st.sampled_from(SMALL_CONES), st.data(), SCALARS, SCALARS,
           st.tuples(st.integers(-1, 5), st.integers(-1, 5)))
    def test_toric_matches_its_loop(self, cone, data, lam, c, m):
        ray = data.draw(st.sampled_from(cone.rays))
        root = data.draw(st.sampled_from(roots_with_ray(cone, ray, [(-3, 3), (-3, 3)])))
        el = chi(m, c)
        assert terms_or_error(toric_exponential, cone, root, lam, el) == \
            terms_or_error(toric_by_terms, cone, root, lam, el)

    @given(st.tuples(st.integers(-3, 3), st.integers(1, 3)),
           st.tuples(st.integers(-3, 3), st.integers(1, 3)), st.booleans(),
           st.sampled_from([(-1, 0), (-1, 2), (1, -1), (0, -1)]),
           st.tuples(st.integers(0, 3), st.integers(0, 3)),
           st.integers(-1, 2), st.integers(-1, 2), SCALARS, SCALARS)
    def test_vertical_matches_its_loop(self, a, b, second, e, m, k, j, c, g):
        """phi is the multiplier generator times g t^k and the element the
        piece's generator times c t^j; k or j = -1 may leave the algebra."""
        coeffs = {Z0: Polyhedron.from_vertices_and_tail([(F(*a), F(*b))], SIGMA)}
        if second:
            coeffs[Z1] = Polyhedron.from_vertices_and_tail([(F(*b), F(*a))], SIGMA)
        d = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, coeffs)
        root = is_demazure_root(SIGMA, e)
        phi = vertical_phi(d, root).generator * RationalFunction.variable(k).scaled(g)
        el = HomogeneousElement(graded_piece(d, m).module.generator *
                                RationalFunction.variable(j).scaled(c), m)
        assert terms_or_error(vertical_exponential, d, root, phi, el) == \
            terms_or_error(vertical_by_terms, d, root, phi, el)

    @given(*RANK_ONE_ASSEMBLAGE, st.integers(0, 4), st.integers(-3, 4), st.booleans(), SCALARS)
    def test_horizontal_matches_its_loop(self, p, q, w, at_inf, e, lam, m, ell, off_zero, c):
        """c t^l chi^m on coherent rank-one assemblages; a factor t - 1
        breaks the element's shape."""
        ca = rank_one_assemblage(p, q, w, at_inf, e, lam)
        assume(assemblage_check(ca).all_pass)
        f = RationalFunction.from_factored(c, {(0, 1): ell, (-1, 1): int(off_zero)})
        el = HomogeneousElement(f, (m,))
        assert terms_or_error(horizontal_expander(ca), el) == \
            terms_or_error(horizontal_by_terms, ca, el)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "assemblage_check passes on A1 when t - 1 is colored -1 and e >= 1, and the "
        "series (horizontal_expander too) sends t out of the algebra; on P1 it fails "
        "a divisor that is not proper, where the series acts on too few monomials"))
    @given(*RANK_ONE_ASSEMBLAGE)
    @example(0, 1, -1, None, 1, 1)  # passes: t -> t + chi, and chi is not in the algebra
    @example(-7, 1, None, -3, 0, 1)  # fails its coloring: the degree polyhedron is (-10)
    def test_assemblage_check_matches_the_series(self, p, q, w, at_inf, e, lam):
        """ROADMAP item 11, step 1: the coherence axioms pass exactly when
        the action's own series keeps the monomials of the box in the
        algebra (char 0 and one finite place, where monomials span)."""
        ca = rank_one_assemblage(p, q, w, at_inf, e, lam)
        assert assemblage_check(ca).all_pass == series_keeps_the_box(ca)

    @pytest.mark.parametrize("m", [(0, 2), (1, 0), (3, 1)], ids=["height-0", "height-1",
                                                                   "height-3"])
    def test_zero_scalar_raises_at_every_height(self, m):
        root = is_demazure_root(SIGMA, (-1, 1))
        with pytest.raises(CurveError, match="nonzero"):
            toric_exponential(SIGMA, root, 0, chi(m))


MONOMIAL_TAILS = [SIG1, SIGMA, Cone.from_rays([(1, 0), (1, 2)], 2)]
MONOMIAL_PLACES = {AFFINE_LINE: [Z0, Z1, BasePoint.finite((1, 0, 1))],
                   PROJECTIVE_LINE: [Z0, Z1, BasePoint.finite((1, 0, 1)), INF]}


@st.composite
def monomial_problems(draw):
    """c t^l chi^m with l in [-3, 3] and a divisor on A1 or P1; the degree is
    drawn from a box around the weight cone, so it may lie outside."""
    curve = draw(st.sampled_from(list(MONOMIAL_PLACES)))
    tail = draw(st.sampled_from(MONOMIAL_TAILS))
    rank = tail.ambient_rank
    coordinate = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    d = PolyhedralDivisor.of(curve, tail, {z: Polyhedron.from_vertices_and_tail(
        draw(st.lists(st.tuples(*[coordinate] * rank), min_size=1, max_size=2)), tail)
        for z in draw(st.lists(st.sampled_from(MONOMIAL_PLACES[curve]), max_size=3,
                               unique=True))})
    term = Monomial(draw(st.sampled_from([1, -2, F(1, 3)])), draw(st.integers(-3, 3)),
                    draw(st.tuples(*[st.integers(-2, 4)] * rank)))
    return term, d


class TestMonomialMember:
    """Membership of c t^l chi^m on a table of integer floors agrees with the
    general ``divisors.member`` on the same element in factored form."""

    @settings(max_examples=300, deadline=None)
    @given(monomial_problems())
    def test_same_verdict_as_member(self, problem):
        term, d = problem
        assert _monomial_membership(d)(term) == member(term.element(), d)

    @pytest.mark.parametrize("ell, inside", [(-4, False), (-3, True), (-1, True), (0, False)])
    def test_power_of_t_between_the_floors_at_t_and_infinity(self, ell, inside):
        """On P1 with D(1) = 3[t] - [infinity], t^l chi^1 is a section iff -3 <= l <= -1."""
        d = PolyhedralDivisor.of(PROJECTIVE_LINE, SIG1, {
            Z0: Polyhedron.from_vertices_and_tail([(3,)], SIG1),
            INF: Polyhedron.from_vertices_and_tail([(-1,)], SIG1)})
        term = Monomial(1, ell, (1,))
        assert _monomial_membership(d)(term) is inside is member(term.element(), d)

    @pytest.mark.parametrize("name", ["hnorm_a1.json", "ex5617.json"])
    def test_table_agrees_with_floors_of_every_term(self, name):
        """On the recorded assemblages' divisors, every term of a box is
        decided as on floors read afresh, twice, and the floors of each
        degree in the weight cone are read once."""
        path = os.path.join(os.path.dirname(__file__), "..", "fixtures", name)
        d = serialize.load_problem(path).get("assemblage", "assemblage").colored.divisor
        terms = [Monomial(1, ell, m) for m in box_points([(-3, 3)] * d.rank)
                 for ell in range(-4, 5)]
        is_member = _monomial_membership(d)
        with mock.patch.object(PolyhedralDivisor, "floors", autospec=True,
                               side_effect=PolyhedralDivisor.floors) as floors:
            verdicts = [is_member(term) for term in terms + terms]
        assert verdicts == [monomial_member_by_floors(d, term) for term in terms + terms]
        assert True in verdicts and False in verdicts
        assert floors.call_count == sum(map(d.in_weight_cone, box_points([(-3, 3)] * d.rank)))



class TestMonomialType:
    def test_no_tuple_arithmetic(self):
        term = Monomial(F(2), 1, (1, 0))
        with pytest.raises(TypeError):
            2 * term
        with pytest.raises(TypeError):
            term + term
        assert term != (F(2), 1, (1, 0))

    def test_same_as_either_way(self):
        """A monomial compares with its term written either way, as a monomial
        or as an element; elements compare with elements only."""
        term = Monomial(F(2), 1, (1, 0))
        el = HomogeneousElement(RationalFunction.from_factored(2, {(0, 1): 1}), (1, 0))
        assert term.same_as(el) and term.same_as(term) and el.same_as(term.element())
        assert not term.scaled(3).same_as(el) and not term.scaled(3).same_as(term)


class TestAxioms:
    def test_toric_axioms(self):
        rng = random.Random(1)
        root = is_demazure_root(SIGMA, (-1, 1))
        fn = partial(toric_exponential, SIGMA, root, F(1, 2))
        samples = []
        for _ in range(20):
            a = chi((rng.randint(0, 3), rng.randint(0, 3)), rng.choice((1, 2, F(1, 3))))
            b = chi((rng.randint(0, 3), rng.randint(0, 3)))
            samples.append((a, b))
        assert axiom_check(fn, samples).all_pass

    def test_vertical_axioms(self):
        rng = random.Random(2)
        d = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {
            Z0: Polyhedron.from_vertices_and_tail([(1, 0)], SIGMA)})
        root = is_demazure_root(SIGMA, (-1, 0))
        phi = RationalFunction.variable(1)

        def fn(el):
            return vertical_exponential(d, root, phi, el)
        samples = []
        while len(samples) < 12:
            m = (rng.randint(0, 3), rng.randint(0, 3))
            a = HomogeneousElement(RationalFunction.variable(rng.randint(m[0], 4)), m)
            m2 = (rng.randint(0, 2), rng.randint(0, 2))
            b = HomogeneousElement(RationalFunction.variable(rng.randint(m2[0], 3)), m2)
            if member(a, d) and member(b, d):
                samples.append((a, b))
        assert axiom_check(fn, samples).all_pass

    def test_horizontal_axioms(self):
        rng = random.Random(3)
        sig1 = Cone.from_rays([(1,)], 1)
        d = PolyhedralDivisor.of(AFFINE_LINE, sig1, {
            Z0: Polyhedron.from_vertices_and_tail([(F(-1, 2),)], sig1)})
        cd = ColoredDivisor.of(d, base_point=Z0, colors={Z0: (F(-1, 2),)})
        ca = CoherentAssemblage.of(cd, degree=(1,), exponents=[0], scalars=[F(1, 3)])

        fn = horizontal_expander(ca)
        samples = []
        for _ in range(12):
            m = rng.randint(0, 4)
            l = rng.randint((m + 1) // 2, 4)
            f = RationalFunction.variable(l) if l else one(AFFINE_LINE)
            m2 = rng.randint(0, 3)
            l2 = rng.randint((m2 + 1) // 2, 3)
            g = RationalFunction.variable(l2) if l2 else one(AFFINE_LINE)
            samples.append((HomogeneousElement(f, (m,)), HomogeneousElement(g, (m2,))))
        assert axiom_check(fn, samples).all_pass

    @pytest.mark.parametrize("route", ["toric", "horizontal"])
    def test_empty_sample_raises(self, route):
        """No axiom can fail on no sample, so an empty one is refused."""
        root = is_demazure_root(SIGMA, (-1, 1))
        expand = partial(toric_exponential, SIGMA, root, 1) if route == "toric" \
            else horizontal_expander(half_assemblage(Z0))
        with pytest.raises(ActionError, match="at least one sample"):
            axiom_check(expand, [])

    def test_corrupted_coefficient_detected(self):
        root = is_demazure_root(SIGMA, (-1, 1))
        good = partial(toric_exponential, SIGMA, root, 1)

        def corrupted(el):
            exp = good(el)
            terms = list(exp.terms)
            if len(terms) > 1:
                i, t = terms[1]
                terms[1] = (i, t.scaled(7))
            return ExponentialExpansion(tuple(terms))
        samples = [(chi((2, 0)), chi((1, 0)))]
        rep = axiom_check(corrupted, samples)
        assert not rep.all_pass

    def test_scaled_zeroth_term_fails_identity(self):
        root = is_demazure_root(SIGMA, (-1, 1))
        good = partial(toric_exponential, SIGMA, root, 1)

        def scaled(el):
            (i, t), *rest = good(el).terms
            return ExponentialExpansion(((i, t.scaled(5)), *rest))
        samples = [(chi((2, 0)), chi((1, 1), 2))]
        assert outcome(axiom_check(good, samples), "identity")[0]
        assert not outcome(axiom_check(scaled, samples), "identity")[0]

    @pytest.mark.parametrize("fault, note", [
        ("repeated index", "not increasing from 0"),
        ("shifted degree", "not of degree deg + 2*delta"),
    ])
    def test_broken_expansion_fails_local_finiteness(self, fault, note):
        root = is_demazure_root(SIGMA, (-1, 1))
        good = partial(toric_exponential, SIGMA, root, 1)

        def broken(el):
            terms = list(good(el).terms)
            i, t = terms[-1]
            if fault == "repeated index":
                terms.append((i, t))
            elif i == 2:
                terms[-1] = (i, Monomial(t.c, t.ell, (t.degree[0], t.degree[1] + 1)))
            return ExponentialExpansion(tuple(terms))
        samples = [(chi((2, 0)), chi((1, 0)))]
        assert outcome(axiom_check(good, samples), "local_finiteness") == \
            (True, "every expansion is a finite sum")
        ok, got = outcome(axiom_check(broken, samples), "local_finiteness")
        assert not ok and got.endswith(note)


class TestIntegerHelpers:
    def test_p_power_part_brute_force(self):
        for p in (1, 2, 3, 5, 7):
            for d in range(1, 400):
                k = max((k for k in range(10) if d % p ** k == 0), default=0) if p > 1 else 0
                assert p_power_part(d, p) == k, (d, p)

    def test_prime_checks_agree(self):
        _, cd = example_5617()
        for p in range(-3, 60):
            if p == 1:  # the characteristic exponent of characteristic zero
                continue
            try:
                BasePoint.of_prime(p)
                point_ok = True
            except CurveError:
                point_ok = False
            try:
                CoherentAssemblage.of(cd, (1, 0), [0, 1], [1, 1], p)
                char_ok = True
            except ActionError:
                char_ok = False
            assert point_ok == char_ok == is_prime(p), p
