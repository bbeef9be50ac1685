import collections
import itertools
import math
import os
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from polydiv import curves, divisors, polynomials as up, serialize
from polydiv.convex import Cone, Polyhedron, support_value
from polydiv.curves import (
    AFFINE_LINE,
    PROJECTIVE_LINE,
    SPEC_Z,
    BasePoint,
    RationalFunction,
    WrongCurve,
)
from polydiv.divisors import (
    DegreesDoNotSpan,
    HomogeneousElement,
    NonPositiveDegree,
    OutsideWeightCone,
    PolyhedralDivisor,
    bounded_generators,
    degree_polyhedron,
    divisor_from_generators,
    dpd_presentation,
    evaluate,
    graded_piece,
    is_proper,
    member,
    quasifan,
)
from polydiv.gaactions import ActionError, roots_with_ray, vertical_phi
from polydiv.linalg import vadd
import oracles
from oracles import default_box, nonnegative_orthant

SIGMA = nonnegative_orthant(2)
Z0 = BasePoint.rational(0)
Z1 = BasePoint.rational(1)
INF = BasePoint.infinity()
P2 = BasePoint.of_prime(2)
P3 = BasePoint.of_prime(3)


def ff(constant=1, **factors):
    fac = {}
    for key, e in factors.items():
        fac[{"t": (0, 1), "t1": (-1, 1)}[key]] = e
    return RationalFunction.from_factored(constant, fac)


def example_345_generators():
    t1 = HomogeneousElement(ff(t=1, t1=-1), (2, 0))
    t2 = HomogeneousElement(ff(), (0, 1))
    t3 = HomogeneousElement(ff(t=1), (2, 2))
    t4 = HomogeneousElement(ff(t=2, t1=-1), (3, 2))
    return [t1, t2, t3, t4]


def example_345_divisor():
    return divisor_from_generators(example_345_generators(), PROJECTIVE_LINE)[1]


def hnorm_a1_divisor():
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "hnorm_a1.json")
    return serialize.load_problem(path).get("divisor", "divisor")


def example_346_generators():
    u = HomogeneousElement(ff(), (0, 1))
    v = HomogeneousElement(RationalFunction.from_factored(1, {(1, -1): 3, (0, 1): -5}), (6, -1))
    x = HomogeneousElement(RationalFunction.from_factored(1, {(1, -1): 1, (0, 1): -2}), (2, 0))
    y = HomogeneousElement(RationalFunction.from_factored(1, {(1, -1): 2, (0, 1): -3}), (3, 0))
    return [u, v, x, y]


def example_445_generators():
    return [
        HomogeneousElement(RationalFunction.rational_number(F(2, 3)), (1, 2)),
        HomogeneousElement(RationalFunction.rational_number(F(1, 9)), (1, 0)),
        HomogeneousElement(RationalFunction.rational_number(F(4, 3)), (2, 1)),
    ]


def example_445_divisor():
    return divisor_from_generators(example_445_generators(), SPEC_Z)[1]


class TestNormalization:
    def test_example_345(self):
        wc, d = divisor_from_generators(example_345_generators(), PROJECTIVE_LINE)
        assert wc == SIGMA and d.tail == SIGMA
        assert d.coefficient(Z0) == Polyhedron.from_vertices_and_tail([(F(-1, 2), 0)], SIGMA)
        assert d.coefficient(Z1) == Polyhedron.from_vertices_and_tail([(F(1, 2), 0)], SIGMA)
        assert d.coefficient(INF) == Polyhedron.from_vertices_and_tail(
            [(F(1, 2), 0), (0, F(1, 2))], SIGMA)
        assert set(d.support) == {Z0, Z1, INF}

    def test_example_346(self):
        wc, d = divisor_from_generators(example_346_generators(), PROJECTIVE_LINE)
        sigma6 = Cone.from_rays([(1, 0), (1, 6)], 2)
        assert d.tail == sigma6
        assert d.coefficient(Z0) == Polyhedron.from_vertices_and_tail([(1, 0), (1, 1)], sigma6)
        assert d.coefficient(Z1) == Polyhedron.from_vertices_and_tail([(F(-1, 2), 0)], sigma6)
        assert d.coefficient(INF) == Polyhedron.from_vertices_and_tail([(F(-1, 3), 0)], sigma6)

    def test_example_445_over_z(self):
        wc, d = divisor_from_generators(example_445_generators(), SPEC_Z)
        assert wc == Cone.from_rays([(1, 2), (1, 0)], 2)
        assert d.coefficient(P2).vertices == ((F(0), F(-1, 2)),)
        assert d.coefficient(P3).vertices == ((F(2), F(-1, 2)),)
        assert set(d.coefficient(P2).tail.rays) == {(0, 1), (2, -1)}

    def test_degrees_must_span(self):
        bad = [HomogeneousElement(ff(), (2, 0)), HomogeneousElement(ff(), (0, 2))]
        with pytest.raises(DegreesDoNotSpan):
            divisor_from_generators(bad, AFFINE_LINE)

    def test_relation_in_function_field(self):
        t1, t2, t3, t4 = example_345_generators()
        a = (t4 * t4).function
        b = (t1 * t1 * t2 * t2 * t3).function
        c = (t1 * t3 * t3).function
        assert (t4 * t4).degree == (6, 4)
        partial = a.add(b.scaled(-1))
        assert partial is not None
        assert partial.add(c.scaled(-1)) is None


class TestEvaluate:
    def test_closed_formula_over_z(self):
        d = example_445_divisor()
        for m1, m2 in itertools.product(range(9), repeat=2):
            if d.in_weight_cone((m1, m2)):
                ev = evaluate(d, (m1, m2))
                assert ev.coefficient(P2) == F(-m2, 2)
                assert ev.coefficient(P3) == 2 * m1 - F(m2, 2)

    def test_vertex_pairings(self):
        ev = evaluate(example_345_divisor(), (2, 0))
        assert ev.coefficient(Z0) == -1
        assert ev.coefficient(Z1) == 1
        assert ev.coefficient(INF) == 0

    def test_zero_weight(self):
        assert evaluate(example_345_divisor(), (0, 0)) == oracles.zero_divisor(PROJECTIVE_LINE)

    def test_outside_weight_cone(self):
        with pytest.raises(OutsideWeightCone):
            evaluate(example_345_divisor(), (-1, 0))

    def test_superadditive(self):
        d = example_345_divisor()
        rng = random.Random(3)
        for _ in range(25):
            m1 = (rng.randint(0, 4), rng.randint(0, 4))
            m2 = (rng.randint(0, 4), rng.randint(0, 4))
            a, b, c = evaluate(d, m1), evaluate(d, m2), evaluate(d, vadd(m1, m2))
            for z in set(a.support) | set(b.support) | set(c.support):
                assert a.coefficient(z) + b.coefficient(z) <= c.coefficient(z)

    def test_linear_on_quasifan_cones(self):
        d = example_345_divisor()
        for cone in quasifan(d):
            for m1 in cone.rays:
                for m2 in cone.rays:
                    s = evaluate(d, vadd(m1, m2))
                    assert s == oracles.divisor_sum(evaluate(d, m1), evaluate(d, m2))

    def test_degree_polyhedron_support_compatibility(self):
        d = example_345_divisor()
        deg = degree_polyhedron(d)
        for m in itertools.product(range(4), repeat=2):
            assert support_value(deg, m) == oracles.divisor_degree(evaluate(d, m))


# places of degree 1, 2 and 3: t, t^2 + 1 and t^3 + 2
QUASIFAN_FINITE = [BasePoint.rational(0), BasePoint.finite((1, 0, 1)),
                   BasePoint.finite((2, 0, 0, 1))]
QUASIFAN_PLACES = {AFFINE_LINE: QUASIFAN_FINITE, PROJECTIVE_LINE: QUASIFAN_FINITE + [INF],
                   SPEC_Z: [P2, P3, BasePoint.of_prime(5)]}


@st.composite
def quasifan_problems(draw):
    """Divisors of rank 1-3 on A1, P1 and Spec Z with up to three places
    and three vertices each; the tail is pointed and may be
    lower-dimensional or zero, so the weight cone may hold lines."""
    curve = draw(st.sampled_from(list(QUASIFAN_PLACES)))
    n = draw(st.integers(1, 3))
    rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=n + 1))
    tail = Cone.from_rays(rays, n)
    if not tail.is_pointed:
        tail = Cone.from_rays([tuple(map(abs, r)) for r in rays], n)
    coordinate = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    return PolyhedralDivisor.of(curve, tail, {z: Polyhedron.from_vertices_and_tail(
        draw(st.lists(st.tuples(*[coordinate] * n), min_size=1, max_size=3)), tail)
        for z in draw(st.lists(st.sampled_from(QUASIFAN_PLACES[curve]), max_size=3,
                               unique=True))})


class TestQuasifanAgainstVertexChoices:
    """``quasifan`` takes the normal cones of the degree polyhedron at its
    vertices; the full-dimensional cones of the choices of one vertex per
    coefficient are the same fan, cone for cone."""

    @settings(max_examples=150, deadline=None)
    @given(quasifan_problems())
    def test_same_cones(self, d):
        assert quasifan(d) == oracles.quasifan_by_vertex_choices(d)

    def test_example_345(self):
        d = example_345_divisor()
        assert len(d.coefficients) > 1
        assert quasifan(d) == oracles.quasifan_by_vertex_choices(d)


# t, t - 1, t^2 + 1, t^2 + 2 and, on P1, infinity
DEGREE_PLACES = [BasePoint.rational(0), BasePoint.rational(1), BasePoint.finite((1, 0, 1)),
                 BasePoint.finite((2, 0, 1))]


def random_divisor(rng):
    """A divisor of rank 1-3 over A1 or P1 with 0-4 places of degree 1 or 2,
    each with 1-3 rational vertices; its pointed tail has 0-4 rays and may
    be lower-dimensional."""
    curve = rng.choice([AFFINE_LINE, PROJECTIVE_LINE])
    n = rng.randint(1, 3)
    rays = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 4))]
    tail = Cone.from_rays(rays, n)
    if not tail.is_pointed:
        tail = Cone.from_rays([tuple(map(abs, r)) for r in rays], n)
    places = DEGREE_PLACES + ([INF] if curve is PROJECTIVE_LINE else [])
    return PolyhedralDivisor.of(curve, tail, {z: Polyhedron.from_vertices_and_tail(
        [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
         for _ in range(rng.randint(1, 3))], tail)
        for z in rng.sample(places, rng.randint(0, min(4, len(places))))})


# t, t^2 + 1 and t^3 + 2; on P1 also infinity, and the primes 2, 3, 5 on Spec Z
RESIDUE_PLACES = [BasePoint.rational(0), BasePoint.finite((1, 0, 1)),
                  BasePoint.finite((2, 0, 0, 1))]


def random_divisor_with_residue_degrees(rng):
    """A divisor of rank 1-3 over A1, P1 or Spec Z with 0-3 places, each with
    1-3 rational vertices; the tail is pointed and may be lower-dimensional."""
    curve = rng.choice([AFFINE_LINE, PROJECTIVE_LINE, SPEC_Z])
    n = rng.randint(1, 3)
    rays = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 4))]
    tail = Cone.from_rays(rays, n)
    if not tail.is_pointed:
        tail = Cone.from_rays([tuple(map(abs, r)) for r in rays], n)
    places = {AFFINE_LINE: RESIDUE_PLACES, PROJECTIVE_LINE: RESIDUE_PLACES + [INF],
              SPEC_Z: [P2, P3, BasePoint.of_prime(5)]}[curve]
    return PolyhedralDivisor.of(curve, tail, {z: Polyhedron.from_vertices_and_tail(
        [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
         for _ in range(rng.randint(1, 3))], tail)
        for z in rng.sample(places, rng.randint(0, 3))})


class TestDegreeAndProper:
    def test_degree_polyhedron_345(self):
        deg = degree_polyhedron(example_345_divisor())
        assert deg == Polyhedron.from_vertices_and_tail([(F(1, 2), 0), (0, F(1, 2))], SIGMA)

    def test_degree_polyhedron_346(self):
        _, d = divisor_from_generators(example_346_generators(), PROJECTIVE_LINE)
        sigma6 = Cone.from_rays([(1, 0), (1, 6)], 2)
        assert degree_polyhedron(d) == Polyhedron.from_vertices_and_tail(
            [(F(1, 6), 0), (F(1, 6), 1)], sigma6)

    def test_degree_polyhedron_matches_dilates(self):
        """One loop over the coefficients' vertices, each scaled by its
        place's degree, gives the Minkowski sum of the dilates."""
        rng = random.Random(11)
        degree_two = 0
        for _ in range(400):
            d = random_divisor(rng)
            assert degree_polyhedron(d) == oracles.degree_polyhedron_by_dilates(d), d
            degree_two += any(z.degree == 2 and p != Polyhedron.cone_as_polyhedron(d.tail)
                              for z, p in d.coefficients)
        assert degree_two > 100

    def test_integer_sums_match_fractions_on_places_of_degree_two_and_three(self):
        """Vertex rays summed in integers give the polyhedron and the
        properness certificate of the Fraction route, on A1, P1 and Spec Z,
        with t^2 + 1 and t^3 + 2 among the places."""
        rng = random.Random(35)
        seen = collections.Counter()
        for _ in range(300):
            d = random_divisor_with_residue_degrees(rng)
            assert degree_polyhedron(d) == oracles.degree_polyhedron_by_fractions(d), d
            ok, cert = is_proper(d)
            assert (ok, cert) == oracles.is_proper_by_fractions(d), d
            seen[d.curve, ok, cert[:6]] += 1
            seen["degree", max((z.degree for z, _ in d.coefficients), default=0)] += 1
        assert all(seen[key] >= 5 for key in [
            (AFFINE_LINE, True, "affine"), (SPEC_Z, True, "affine"),
            (PROJECTIVE_LINE, False, "degree"), (PROJECTIVE_LINE, False, "origin"),
            (PROJECTIVE_LINE, True, "origin"), ("degree", 2), ("degree", 3)]), seen

    def test_zero_divisor_degree_is_tail(self):
        d = PolyhedralDivisor.of(PROJECTIVE_LINE, SIGMA, {})
        assert degree_polyhedron(d) == Polyhedron.cone_as_polyhedron(SIGMA)

    def test_proper_345(self):
        assert is_proper(example_345_divisor())[0]

    def test_zero_divisor_not_proper_on_p1(self):
        d = PolyhedralDivisor.of(PROJECTIVE_LINE, SIGMA, {})
        ok, cert = is_proper(d)
        assert not ok and "origin" in cert

    def test_affine_always_proper(self):
        d = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {
            Z0: Polyhedron.from_vertices_and_tail([(5, 5)], SIGMA)})
        assert is_proper(d)[0]

    def test_degree_polyhedron_on_any_base(self):
        """The weighted Minkowski sum needs no projective base; the CLI's
        ``degree`` command is what refuses an affine one."""
        d = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {
            Z0: Polyhedron.from_vertices_and_tail([(1, 0), (0, 1)], SIGMA),
            BasePoint.finite((1, 0, 1)): Polyhedron.from_vertices_and_tail([(F(1, 2), 0)], SIGMA)})
        assert degree_polyhedron(d) == Polyhedron.from_vertices_and_tail([(2, 0), (1, 1)], SIGMA)


class TestDpd:
    def test_single_generator(self):
        g = HomogeneousElement(ff(t=1, t1=-2), (2,))
        d = dpd_presentation([g], AFFINE_LINE)
        assert d.coefficient(Z0) == F(-1, 2)
        assert d.coefficient(Z1) == 1

    def test_pointwise_minimum(self):
        # k[t][t*chi, (t-1)*chi] contains chi = t*chi - (t-1)*chi, so its
        # normalization is k[t][chi] and the presenting divisor vanishes
        gens = [HomogeneousElement(ff(t=1), (1,)), HomogeneousElement(ff(t1=1), (1,))]
        d = dpd_presentation(gens, AFFINE_LINE)
        assert d == oracles.zero_divisor(AFFINE_LINE)
        # mixed vanishing orders at a common point: the minimum wins
        gens = [HomogeneousElement(ff(t=2), (1,)), HomogeneousElement(ff(t=1, t1=1), (1,))]
        d = dpd_presentation(gens, AFFINE_LINE)
        assert d.coefficient(Z0) == -1 and d.coefficient(Z1) == 0

    def test_over_spec_z(self):
        g = HomogeneousElement(RationalFunction.rational_number(F(2, 3)), (1,))
        d = dpd_presentation([g], SPEC_Z)
        assert d.coefficient(P2) == -1 and d.coefficient(P3) == 1

    def test_nonpositive_degree_rejected(self):
        with pytest.raises(NonPositiveDegree):
            dpd_presentation([HomogeneousElement(ff(), (0,))], AFFINE_LINE)


class TestMember:
    def test_printed_generators_are_members(self):
        d = example_345_divisor()
        assert all(member(g, d) for g in example_345_generators())

    def test_unit_at_interior_degree(self):
        d = example_345_divisor()
        assert member(HomogeneousElement(ff(), (0, 1)), d)

    def test_outside_weight_cone_false(self):
        d = example_345_divisor()
        assert not member(HomogeneousElement(ff(), (-1, 0)), d)

    def test_multiplicative_closure(self):
        d = example_345_divisor()
        rng = random.Random(5)
        members = example_345_generators()
        for _ in range(30):
            a, b = rng.choice(members), rng.choice(members)
            assert member(a * b, d)
            members.append(a * b)

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.sampled_from([(0, 1), (-1, 1), (1, 1), (1, 0, 1)]),
                           st.integers(-2, 2), min_size=1),
           st.sampled_from([1, 2, F(-1, 3)]))
    def test_merged_keys_do_not_change_the_answer(self, fac, c):
        """f and the same function with the keys of one exponent multiplied
        into one key are one element: t * (t - 1) against t^2 - t."""
        merged: dict = {}
        for p, e in fac.items():
            merged[e] = up.mul(merged.get(e, up.ONE), up.poly(p))
        f = RationalFunction.from_factored(c, fac)
        g = RationalFunction.from_factored(c, {p: e for e, p in merged.items()})
        assert f.same_as(g)
        for d, degrees in ((example_345_divisor(), itertools.product(range(4), repeat=2)),
                           (hnorm_a1_divisor(), [(k,) for k in range(4)])):
            for m in degrees:
                assert member(HomogeneousElement(f, m), d) == \
                    member(HomogeneousElement(g, m), d), (d, m)


LINE = Cone.from_rays([(1,)], 1)
QUAD = BasePoint.finite((1, 0, 1))  # t^2 + 1, an irreducible quadratic place
MEMBER_TAILS = [LINE, SIGMA, Cone.from_rays([(1, 0), (1, 2)], 2)]
MEMBER_PLACES = {AFFINE_LINE: [Z0, Z1, QUAD], PROJECTIVE_LINE: [Z0, Z1, QUAD, INF],
                 SPEC_Z: [P2, P3, BasePoint.of_prime(5)]}
# places, products of places (t^2 - t, (t - 1)(t^2 + 1)) and keys off every
# support (t + 2, t^2 + 2)
MEMBER_KEYS = [(0, 1), (-1, 1), (1, 0, 1), (0, -1, 1), (-1, 1, -1, 1), (2, 1), (2, 0, 1)]


@st.composite
def member_problems(draw):
    """An element and a divisor on A1, P1 or Spec Z; the degree is drawn
    from a box around the weight cone, so it may lie outside."""
    curve = draw(st.sampled_from(list(MEMBER_PLACES)))
    tail = draw(st.sampled_from(MEMBER_TAILS))
    rank = tail.ambient_rank
    coordinate = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    d = PolyhedralDivisor.of(curve, tail, {z: Polyhedron.from_vertices_and_tail(
        draw(st.lists(st.tuples(*[coordinate] * rank), min_size=1, max_size=2)), tail)
        for z in draw(st.lists(st.sampled_from(MEMBER_PLACES[curve]), max_size=3,
                               unique=True))})
    sign = draw(st.sampled_from([1, -1]))
    if curve is SPEC_Z:
        f = RationalFunction.rational_number(sign * math.prod(
            F(p) ** draw(st.integers(-3, 3)) for p in (2, 3, 5, 7)))
    else:
        f = RationalFunction.from_factored(sign * draw(st.sampled_from([1, 2, F(1, 3)])),
                                           draw(st.dictionaries(st.sampled_from(MEMBER_KEYS),
                                                                st.integers(-3, 3), max_size=3)))
    return HomogeneousElement(f, draw(st.tuples(*[st.integers(-2, 4)] * rank))), d


HALF_AT_T = PolyhedralDivisor.of(AFFINE_LINE, LINE, {
    Z0: Polyhedron.from_vertices_and_tail([(F(1, 2),)], LINE)})


class TestMemberAgainstDivisorRoute:
    """``member`` reads integer floors place by place; the route through
    principal divisors and floored evaluations must give the same verdict."""

    @settings(max_examples=300, deadline=None)
    @given(member_problems())
    def test_same_verdict(self, problem):
        el, d = problem
        assert member(el, d) == oracles.member_by_divisors(el, d)

    def test_mixing_curve_kinds_raises(self):
        with pytest.raises(WrongCurve):  # a Spec Z element on P1
            member(HomogeneousElement(RationalFunction.rational_number(F(2, 3)), (1, 1)),
                   example_345_divisor())
        with pytest.raises(WrongCurve):  # a function of Q(t) over Spec Z
            member(HomogeneousElement(ff(t=1), (1, 1)), example_445_divisor())

    # one non-member per clause of the test, next to a member the clause lets in

    def test_outside_the_weight_cone(self):
        """The element meets every floor, but <(-1, 0), (1, 0)> < 0."""
        trivial = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {})
        assert member(HomogeneousElement(ff(), (0, 0)), trivial)
        assert not member(HomogeneousElement(ff(), (-1, 0)), trivial)

    def test_pole_beyond_the_floor(self):
        """floor(2 * 1/2) = 1 at t absorbs a simple pole there, not a double one."""
        assert member(HomogeneousElement(ff(t=-1), (2,)), HALF_AT_T)
        assert not member(HomogeneousElement(ff(t=-2), (2,)), HALF_AT_T)

    def test_pole_off_the_support(self):
        """t^2 - t: the t half sits on the support, the t - 1 half is off it."""
        f = RationalFunction.from_factored(1, {(0, -1, 1): 1})
        assert member(HomogeneousElement(f, (2,)), HALF_AT_T)
        assert not member(HomogeneousElement(f.inverse(), (2,)), HALF_AT_T)

    def test_order_at_infinity(self):
        """floor(2 * 1) = 2 at infinity: t^2 has order -2 there, t^3 order -3."""
        d = PolyhedralDivisor.of(PROJECTIVE_LINE, LINE, {
            INF: Polyhedron.from_vertices_and_tail([(1,)], LINE)})
        assert member(HomogeneousElement(ff(t=2), (2,)), d)
        assert not member(HomogeneousElement(ff(t=3), (2,)), d)

    @pytest.mark.parametrize("value, verdict", [
        (F(1, 2), True), (3, True), (F(1, 4), False), (F(1, 3), False)])
    def test_spec_z_denominator_off_the_support(self, value, verdict):
        """floor(1) = 1 at 2: 1/2 and 3 are members, 1/4 has a pole beyond
        the floor and 1/3 the prime 3, off the support, in its denominator."""
        d = PolyhedralDivisor.of(SPEC_Z, LINE, {
            P2: Polyhedron.from_vertices_and_tail([(1,)], LINE)})
        el = HomogeneousElement(RationalFunction.rational_number(value), (1,))
        assert member(el, d) == verdict == oracles.member_by_divisors(el, d)

    @settings(max_examples=60, deadline=None)
    @given(st.tuples(*[st.integers(-4, 4)] * 4), st.tuples(st.integers(0, 4), st.integers(0, 4)))
    def test_spec_z_never_factors(self, exps, m):
        """The verdict over Spec Z reads p-adic orders at the support primes
        only, so it holds with factoring switched off, 7 and 1000003 included."""
        el = HomogeneousElement(RationalFunction.rational_number(math.prod(
            F(p) ** e for p, e in zip((2, 3, 7, 1000003), exps))), m)
        d = example_445_divisor()
        expected = oracles.member_by_divisors(el, d)

        def refuse(n):
            raise AssertionError(f"factored {n}")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(curves, "_factor_integer", refuse)
            assert member(el, d) == expected


class TestGradedPieces:
    def test_pieces_over_z(self):
        d = example_445_divisor()
        for m1, r in ((1, 1), (2, 1), (3, 2)):
            gp = graded_piece(d, (m1, 2 * r))
            assert gp.module.kind == "free"
            assert gp.module.generator.constant == F(2 ** r, 3 ** (2 * m1 - r))

    def test_zero_pieces(self):
        d = PolyhedralDivisor.of(PROJECTIVE_LINE, SIGMA, {
            Z0: Polyhedron.from_vertices_and_tail([(F(1, 2), 0)], SIGMA),
            Z1: Polyhedron.from_vertices_and_tail([(F(-1, 2), 0)], SIGMA),
            INF: Polyhedron.from_vertices_and_tail([(1, 0), (0, 1)], SIGMA)})
        for r in range(6):
            assert graded_piece(d, (2 * r + 1, 0)).module.is_zero

    def test_degree_zero_piece_on_affine_line(self):
        d = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {})
        gp = graded_piece(d, (0, 0))
        assert gp.module.kind == "free" and gp.module.generator.is_one()

    def test_weight_monoid_free_rank_one(self):
        d = example_445_divisor()
        for m in itertools.product(range(5), repeat=2):
            if d.in_weight_cone(m):
                assert graded_piece(d, m).module.kind == "free"


def same_module(a, b) -> bool:
    return a.kind == b.kind and len(a.generators) == len(b.generators) and \
        all(f.same_as(g) for f, g in zip(a.generators, b.generators))


class TestPiecesAgainstDivisorRoute:
    """``graded_piece`` and ``vertical_phi`` read the integer floor map
    ``PolyhedralDivisor.floors``; flooring the rational evaluation, or the
    vertex minimum off the weight cone, as a Divisor gives the same module."""

    @settings(max_examples=200, deadline=None)
    @given(member_problems())
    def test_same_module(self, problem):
        el, d = problem
        m = el.degree
        if d.in_weight_cone(m):
            assert same_module(graded_piece(d, m).module,
                               oracles.sections_of_divisor(evaluate(d, m)))
        else:
            for route in (graded_piece, evaluate):
                with pytest.raises(OutsideWeightCone):
                    route(d, m)
        proper = is_proper(d)[0]
        for ray in d.tail.rays:
            for root in roots_with_ray(d.tail, ray, [(-2, 2)] * d.rank):
                assert not d.in_weight_cone(root.vector)
                if not proper:
                    with pytest.raises(ActionError):
                        vertical_phi(d, root)
                    continue
                assert same_module(vertical_phi(d, root), oracles.sections_of_divisor(
                    oracles.vertex_minimum_divisor(d, root.vector)))


class TestBoundedGenerators:
    def test_eq_41_generators(self):
        rep = bounded_generators(example_445_divisor(), box=[(0, 8), (0, 8)])
        got = sorted((g.degree, g.function.constant) for g in rep.generators)
        assert got == [((1, 0), F(1, 9)), ((1, 1), F(2, 3)), ((1, 2), F(2, 3))]
        assert rep.saturated_in_doubled_box

    def test_trivial_divisor_on_affine_line(self):
        d = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {})
        rep = bounded_generators(d, box=[(0, 3), (0, 3)])
        degs = sorted(g.degree for g in rep.generators)
        assert degs == [(0, 0), (0, 1), (1, 0)]
        by_deg = {g.degree: g.function for g in rep.generators}
        assert by_deg[(0, 0)].same_as(RationalFunction.variable(1))
        assert by_deg[(0, 1)].is_one() and by_deg[(1, 0)].is_one()

    def test_345_pieces_regenerate(self):
        d = example_345_divisor()
        rep = bounded_generators(d, box=[(0, 6), (0, 6)])
        assert rep.saturated_in_doubled_box
        for g in rep.generators:
            if any(g.degree):
                assert member(g, d)

    def test_roundtrip_random_affine(self):
        rng = random.Random(42)
        tails = [nonnegative_orthant(2), Cone.from_rays([(1, 0), (1, 2)], 2),
                 Cone.from_rays([(0, 1), (2, -1)], 2)]
        for trial in range(50):
            curve = rng.choice([AFFINE_LINE, SPEC_Z])
            tail = rng.choice(tails)
            pts = [Z0, Z1] if curve is AFFINE_LINE else [P2, P3]
            coeffs = {}
            for z in pts[:rng.randint(1, 2)]:
                verts = [tuple(F(rng.randint(-2, 2), rng.choice((1, 2)))
                               for _ in range(2)) for _ in range(rng.randint(1, 2))]
                coeffs[z] = Polyhedron.from_vertices_and_tail(verts, tail)
            d = PolyhedralDivisor.of(curve, tail, coeffs)
            rep = bounded_generators(d)
            wc, d2 = divisor_from_generators(list(rep.generators), curve)
            assert (wc, d2) == (d.weight_cone, d), f"trial {trial}"

    def test_default_box_contains_hilbert_basis(self):
        from polydiv.convex import hilbert_basis
        d = example_445_divisor()
        box = default_box(d)
        for h in hilbert_basis(d.weight_cone):
            assert all(lo <= a <= hi for a, (lo, hi) in zip(h, box))

    def test_default_box_probes_the_quasifan_once(self, monkeypatch):
        d = hnorm_a1_divisor()
        calls = []
        real = divisors.quasifan
        monkeypatch.setattr(divisors, "quasifan", lambda q: calls.append(q) or real(q))
        bounded_generators(d)
        assert calls == [d]


def dedupe_pairwise(funcs):
    """The first of each class of equal functions, by pairwise division."""
    out = []
    for f in funcs:
        if not any(f.same_as(g) for g in out):
            out.append(f)
    return out


# overlapping bases: t^2 - t against t and t - 1, t^2 - 1 against t - 1 and t + 1
OVERLAPPING = [(0, 1), (-1, 1), (1, 1), (0, -1, 1), (-1, 0, 1), (0, 1, 1), (1, 0, 1)]


class TestDedupeByKey:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from([1, -1, 2, F(1, 2)]),
        st.dictionaries(st.sampled_from(OVERLAPPING), st.integers(-2, 2), max_size=3)),
        max_size=8))
    def test_matches_pairwise_division(self, specs):
        funcs = [RationalFunction.from_factored(c, fac) for c, fac in specs]
        t = RationalFunction.variable(1)
        # the same functions again, refined against t: (t^2 - t) * t / t = t (t - 1)
        funcs += [(f * t) / t for f in funcs[:3]]
        funcs += [f * RationalFunction.from_factored(1, {(0, 1): 1, (-1, 1): -1})
                  for f in funcs[:2]]
        got = oracles.dedupe_functions(funcs)
        want = dedupe_pairwise(funcs)
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))

    def test_coarse_and_fine_bases_are_one_function(self):
        coarse = RationalFunction.from_factored(1, {(0, -1, 1): 1})
        fine = RationalFunction.from_factored(1, {(0, 1): 1, (-1, 1): 1})
        assert coarse.factors != fine.factors
        assert oracles.dedupe_functions([coarse, fine, fine.scaled(2)]) == \
            [coarse, fine.scaled(2)]

    def test_spec_z_functions(self):
        funcs = [RationalFunction.rational_number(a) for a in (2, F(1, 2), 2, -2, 6)]
        assert oracles.dedupe_functions(funcs) == dedupe_pairwise(funcs)


# -- generators on P1: coefficient vectors against the function route ---------

# t, t - 1, t - 1/2, t - 1/3, t^2 + 1, t^2 + 1/3, t^3 - 2
P1_PLACES = [BasePoint.rational(a) for a in (0, 1, F(1, 2), F(1, 3))] + \
    [BasePoint.finite(c) for c in ((1, 0, 1), (F(1, 3), 0, 1), (-2, 0, 0, 1))]
# The last tail has the weight cone cone((1, 0), (1, 1)), whose tight box
# around the probes has a lower bound 1 > 0 and so is not inside its double.
P1_TAILS = [nonnegative_orthant(2), Cone.from_rays([(1, 0), (1, 1)], 2),
            Cone.from_rays([(0, 1), (1, 1)], 2), Cone.from_rays([(0, 1), (1, -1)], 2)]


def proper_on_p1(tail, coeffs, margins):
    """Add the coefficient w + tail at infinity with <h, w> chosen so that the
    degree polyhedron lies in <h, .> >= margin for both facet normals h of
    the (unimodular) tail: strictly inside the tail, so the divisor is proper."""
    (h1, h2), b = tail.halfspaces, []
    for h, margin in zip(tail.halfspaces, margins):
        b.append(margin - sum(z.degree * support_value(p, h) for z, p in coeffs.items()))
    det = h1[0] * h2[1] - h1[1] * h2[0]
    w = (F(b[0] * h2[1] - b[1] * h1[1], det), F(h1[0] * b[1] - h2[0] * b[0], det))
    coeffs = {**coeffs, INF: Polyhedron.from_vertices_and_tail([w], tail)}
    return PolyhedralDivisor.of(PROJECTIVE_LINE, tail, coeffs)


@st.composite
def small_p1_problems(draw):
    tail = draw(st.sampled_from(P1_TAILS))
    coordinate = st.sampled_from([F(-1), F(0), F(1), F(1, 2)])
    places = draw(st.lists(st.sampled_from(P1_PLACES), min_size=1, max_size=2, unique=True))
    coeffs = {z: Polyhedron.from_vertices_and_tail(
        draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=2)), tail)
        for z in places}
    d = proper_on_p1(tail, coeffs, draw(st.tuples(st.integers(1, 2), st.integers(1, 2))))
    box = draw(st.sampled_from([default_box(d), probe_box(d)]))
    return d, tuple((lo, hi + draw(st.integers(0, 1))) for lo, hi in box)


def probe_box(d):
    """The least box containing the probes; unlike the default box it need
    not contain 0."""
    probes = divisors.probe_degrees(d, d.denominator())
    return tuple((min(p[j] for p in probes), max(p[j] for p in probes)) for j in range(d.rank))


def unsaturated_example():
    tail = nonnegative_orthant(2)
    coeffs = {BasePoint.finite((-2, 0, 0, 1)): [(F(1, 2), 0)], BasePoint.finite((1, 0, 1)): [(1, 0)],
              INF: [(F(-5, 2), 1)]}
    d = PolyhedralDivisor.of(PROJECTIVE_LINE, tail, {
        z: Polyhedron.from_vertices_and_tail(v, tail) for z, v in coeffs.items()})
    return d, default_box(d)


class TestGeneratorsAgainstFunctionRoute:
    """The coefficient-vector route of ``bounded_generators`` on P1 gives the
    same report as the rational-function route it replaced."""

    @settings(max_examples=20, deadline=None)
    @given(small_p1_problems())
    def test_same_report(self, problem):
        d, box = problem
        assume((box[0][1] - box[0][0] + 1) * (box[1][1] - box[1][0] + 1) <= 9)
        assert bounded_generators(d, box) == oracles.bounded_generators(d, box)

    def test_same_report_when_unsaturated(self):
        d, box = unsaturated_example()
        report = bounded_generators(d, box)
        assert report.unsaturated_degrees == ((3, 0),)
        assert report == oracles.bounded_generators(d, box)

    def test_same_report_on_a_box_without_zero(self):
        """Degrees (1, 0) and (1, 1) lie in the box 1:2,0:2 but not in its
        double 2:4,0:4; the box pass must still reach them."""
        tail = P1_TAILS[3]
        d = proper_on_p1(tail, {BasePoint.rational(F(1, 2)): Polyhedron.from_vertices_and_tail(
            [(F(-1), 0)], tail)}, (1, 1))
        box = ((1, 2), (0, 2))
        assert probe_box(d) == ((1, 1), (0, 1))
        report = bounded_generators(d, box)
        assert {(1, 0), (1, 1)} <= {g.degree for g in report.generators}
        assert report == oracles.bounded_generators(d, box)

    def test_exact_rank_decides_a_modular_shortfall(self, monkeypatch):
        """Modulo 3 the place t - 1/3, kept as 3t - 1, is a constant, so some
        spanning product sets lose rank there and only the exact rank over Q
        can tell that they still span.  The product families of this divisor
        leave gaps that the interval certificate cannot close, so its pieces
        reach the rank tests."""
        tail = P1_TAILS[0]
        d = proper_on_p1(tail, {
            BasePoint.rational(F(1, 3)): Polyhedron.from_vertices_and_tail([(-2, 0), (-1, -1)], tail),
            Z0: Polyhedron.from_vertices_and_tail([(0, F(1, 2))], tail)}, (2, 2))
        box = default_box(d)
        calls = []
        real = divisors.independent_rows
        monkeypatch.setattr(divisors, "independent_rows",
                            lambda rows, count: calls.append(rows) or real(rows, count))
        report = bounded_generators(d, box)
        at_large_prime = len(calls)
        monkeypatch.setattr(divisors, "_PRIME", 3)
        assert bounded_generators(d, box) == report == oracles.bounded_generators(d, box)
        assert len(calls) - at_large_prime > at_large_prime


def example_346_divisor():
    return divisor_from_generators(example_346_generators(), PROJECTIVE_LINE)[1]


def with_default_box(d):
    return d, default_box(d)


def gap_example():
    """1/2 [t - 1] + 1/3 [inf] on P1, rank 1: the piece at m is
    (t - 1)^-floor(m/2) Q[t]_{<dim m}, dim m = floor(m/2) + floor(m/3) + 1."""
    tail = Cone.from_rays([(1,)], 1)
    return with_default_box(PolyhedralDivisor.of(PROJECTIVE_LINE, tail, {
        z: Polyhedron.from_vertices_and_tail([(a,)], tail) for z, a in ((Z1, F(1, 2)), (INF, F(1, 3)))}))


def one_third_example():
    tail = P1_TAILS[2]
    coeffs = {BasePoint.rational(F(1, 3)): Polyhedron.from_vertices_and_tail(
        [(F(-1, 2), 0), (0, 0)], tail)}
    return with_default_box(proper_on_p1(tail, coeffs, (1, 1)))


def obtuse_example():
    """Weight cone cone((1, 0), (-3, 1)), so degree (1, 0) has weight -2 and
    comes after (2, 0) in the processing order: a rest can be processed
    after its degree, and only rests processed so far may count."""
    return with_default_box(proper_on_p1(Cone.from_rays([(1, 0), (-3, 1)], 2).dual(), {}, (1, 1)))


def two_place_example(curve):
    """Two finite places over A1 or Spec Z on the orthant: the second one's
    floors take the highest slot of the packed frame."""
    first, second = {AFFINE_LINE: (Z0, Z1), SPEC_Z: (P2, P3)}[curve]
    return with_default_box(PolyhedralDivisor.of(curve, SIGMA, {
        first: Polyhedron.from_vertices_and_tail([(F(1, 2), 0), (0, F(1, 3))], SIGMA),
        second: Polyhedron.from_vertices_and_tail([(F(-1, 2), F(1, 2))], SIGMA)}))


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(divisors, name)
    monkeypatch.setattr(divisors, name, lambda *args: calls.append(args) or real(*args))
    return calls


class TestGeneratorsAgainstProductRoute:
    """Exponent vectors and the interval certificate give the same report as
    the route that multiplied every product out and rank-tested every piece."""

    @settings(max_examples=40, deadline=None)
    @given(small_p1_problems())
    def test_same_report(self, problem):
        d, box = problem
        assume((box[0][1] - box[0][0] + 1) * (box[1][1] - box[1][0] + 1) <= 49)
        assert bounded_generators(d, box) == oracles.generators_by_products(d, box)

    @pytest.mark.parametrize("example", [
        lambda: with_default_box(example_345_divisor()),
        lambda: with_default_box(example_346_divisor()),
        unsaturated_example, one_third_example, gap_example, obtuse_example],
        ids=["ex345", "ex346", "unsaturated", "t-1/3", "gap", "obtuse"])
    def test_same_report_on_examples(self, example):
        d, box = example()
        assert bounded_generators(d, box) == oracles.generators_by_products(d, box)

    def test_a_failed_rest_gives_no_interval(self):
        """1/3 [t - 1] - 3/2 [t] + 4/3 [inf], rank 1, with a box pass over
        the degrees 1 .. 4 only: the generators sit at 3 and 4, and the
        piece at 6 (dim 2) gets only the square of the one at 3,
        gen_6 * t, so 6 fails.  At 10 the generator at 4 times the piece at
        6 and the one at 3 times the piece at 7 give gen_10 * t again, so 10
        fails too; reading the failed 6 as if its one product were
        gen_6 * t^0 would cover it."""
        tail = Cone.from_rays([(1,)], 1)
        d = PolyhedralDivisor.of(PROJECTIVE_LINE, tail, {
            z: Polyhedron.from_vertices_and_tail([(a,)], tail)
            for z, a in ((Z1, F(1, 3)), (Z0, F(-3, 2)), (INF, F(4, 3)))})
        degrees = divisors._box_degrees(d, ((0, 10),), (1,))
        frames = divisors._frames(d, degrees + [(0,)])
        gens, failures = divisors._run_projective(d, frames, degrees[:4], degrees)
        assert failures == [(6,), (9,), (10,)]
        assert (gens, failures) == oracles.run_projective_by_products(d, frames, degrees[:4], degrees)

    def test_a_place_of_degree_two_counts_twice(self):
        """A family gen_m * P_b * Q[t]_{<dim_r} spans from deg P_b up, and
        t^2 + 1 has degree 2.  The floors at t and t^2 + 1 are this divisor's;
        the degrees of floor D(m) are set by hand, 0 on the layer m_1 = 1 and
        2 at (2, 4).  The products at (2, 4) through (1, 2) + (1, 2),
        (1, 1) + (1, 3) and (1, 0) + (1, 4) are gen_(2, 4) times 1, t^2 + 1
        and t^2: they miss t, so (2, 4) fails.  Reading t^2 + 1 as if of
        degree 1, as the interval [1, 2), would close the gap."""
        tail = Cone.from_rays([(1, 0), (1, 4)], 2).dual()
        d = PolyhedralDivisor.of(PROJECTIVE_LINE, tail, {
            Z0: Polyhedron.from_vertices_and_tail([(0, 0), (-1, 1), (3, -1)], tail),
            BasePoint.finite((1, 0, 1)): Polyhedron.from_vertices_and_tail([(0, F(1, 2))], tail),
            INF: Polyhedron.from_vertices_and_tail([(1, 0)], tail)})
        layer, m = [(1, j) for j in range(5)], (2, 4)
        frames = {k: (a, 2 if k == m else 0)
                  for k, (a, _) in divisors._frames(d, layer + [m, (0, 0)]).items()}
        gens, failures = divisors._run_projective(d, frames, layer, layer + [m])
        assert failures == [m]
        assert (gens, failures) == oracles.run_projective_by_products(d, frames, layer, layer + [m])

    def test_ex346_doubled_pass_makes_no_rank_test(self, monkeypatch):
        """Every degree of ex346's doubled pass is spanned by intervals of
        powers of t, so none is reduced modulo the prime, and every product
        is read off the packed frame: no cofactor vector is built."""
        d, box = with_default_box(example_346_divisor())
        weight = divisors._interior_weight(d.weight_cone)
        box_degrees = divisors._box_degrees(d, box, weight)
        hull = tuple((min(lo, 2 * lo), max(hi, 2 * hi)) for lo, hi in box)
        degrees = divisors._box_degrees(d, hull, weight)
        frames = divisors._frames(d, degrees + [(0, 0)])
        calls = count_calls(monkeypatch, "_raises_rank")
        cofactors = count_calls(monkeypatch, "_cofactor_exponents")
        divisors._run_projective(d, frames, box_degrees, [])
        box_pass = len(calls), len(cofactors)
        del calls[:], cofactors[:]  # the box pass runs again below
        assert divisors._run_projective(d, frames, box_degrees, degrees)[1] == []
        assert len(degrees) > 1000 and (len(calls), len(cofactors)) == box_pass

    def test_echelon_fills_a_gap_the_intervals_leave(self, monkeypatch):
        """At m = 4 of :func:`gap_example` (dim 4) the two generators at 2
        times the piece at 2 give the powers t^0 .. t^2 only; the products
        through 1 and 3 carry the cofactor t - 1, and only the echelon sees
        (t - 1) t^2 reach t^3.  So no generator is added at 4."""
        d, box = gap_example()
        calls = count_calls(monkeypatch, "_raises_rank")
        report = bounded_generators(d, box)
        assert calls
        assert [g.degree for g in report.generators] == [(1,), (2,), (2,), (3,)]
        assert report == oracles.generators_by_products(d, box)

    @pytest.mark.parametrize("example, m, place", [
        # ex346's places are t - 1 and t; (37, 0) lies in the doubled box
        # only and is spanned by intervals
        (lambda: with_default_box(example_346_divisor()), (37, 0), 1),
        # the piece at 4 is decided by the echelon
        (gap_example, (4,), 0),
        # (1, 1) = (1, 0) + (0, 1) in the box pass; the negative entry sits
        # in the highest of the two slots
        (lambda: two_place_example(AFFINE_LINE), (1, 1), 1),
        (lambda: two_place_example(SPEC_Z), (1, 1), 1)],
        ids=["interval", "echelon", "A1", "Spec Z"])
    def test_non_superadditive_frame_raises(self, monkeypatch, example, m, place):
        d, box = example()
        real = divisors._frames

        def frames(d, degrees):
            out = real(d, degrees)
            a, deg = out[m]
            out[m] = (a[:place] + (a[place] - 50,) + a[place + 1:], deg)
            return out

        monkeypatch.setattr(divisors, "_frames", frames)
        with pytest.raises(divisors.DivisorError, match="superadditive"):
            bounded_generators(d, box)


# -- generators over A1 and Spec Z: exponent vectors against the divisor route --

AFFINE_PLACES = {AFFINE_LINE: [Z0, Z1, BasePoint.rational(F(1, 2)), BasePoint.finite((1, 0, 1))],
                 SPEC_Z: [P2, P3, BasePoint.of_prime(5)]}


@st.composite
def small_affine_problems(draw):
    """A1 and Spec Z divisors on the P1 tails.  The probe box of the last
    tail lacks 0."""
    curve = draw(st.sampled_from([AFFINE_LINE, SPEC_Z]))
    tail = draw(st.sampled_from(P1_TAILS))
    coordinate = st.sampled_from([F(-1), F(0), F(1), F(1, 2), F(1, 3)])
    places = draw(st.lists(st.sampled_from(AFFINE_PLACES[curve]), min_size=1, max_size=2,
                           unique=True))
    d = PolyhedralDivisor.of(curve, tail, {z: Polyhedron.from_vertices_and_tail(
        draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=2)), tail)
        for z in places})
    box = draw(st.sampled_from([default_box(d), probe_box(d)]))
    return d, tuple((lo, hi + draw(st.integers(0, 1))) for lo, hi in box)


class TestAffineGeneratorsAgainstDivisorRoute:
    """The exponent-vector route of ``bounded_generators`` over A1 and Spec Z
    gives the same report as the divisor route it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(small_affine_problems())
    def test_same_report(self, problem):
        d, box = problem
        assume((box[0][1] - box[0][0] + 1) * (box[1][1] - box[1][0] + 1) <= 25)
        assert bounded_generators(d, box) == oracles.bounded_generators(d, box)

    @pytest.mark.parametrize("place", [Z0, P2])
    def test_same_report_when_unsaturated(self, place):
        """The box 1:4,0:2 lacks 0, so its double 2:8,0:4 misses the degrees
        1:1,0:1 the box pass reached.  The doubled pass runs over the hull
        1:8,0:4 of both and reaches the diagonal degrees (2,2), (3,3) and
        (4,4), which the double alone would report as unsaturated."""
        d = self.diagonal_example(place)
        box = probe_box(d)
        assert box == ((1, 4), (0, 2))
        report = bounded_generators(d, box)
        assert report.unsaturated_degrees == ()
        assert report == oracles.bounded_generators(d, box)

    @staticmethod
    def diagonal_example(place):
        tail = P1_TAILS[3]
        return PolyhedralDivisor.of(AFFINE_LINE if place == Z0 else SPEC_Z, tail, {
            place: Polyhedron.from_vertices_and_tail([(F(1, 2), 0), (1, -1)], tail)})

    @pytest.mark.parametrize("place", [Z0, P2])
    def test_doubled_pass_reports_a_missing_generator(self, place):
        """Without one generator of nonzero degree, the doubled pass fails
        first at that generator's degree: lighter degrees do not involve it,
        and no other product reaches it."""
        d = self.diagonal_example(place)
        box = probe_box(d)
        gens = bounded_generators(d, box).generators
        dropped = next(g for g in reversed(gens) if any(g.degree))
        degrees = divisors._box_degrees(d, box, divisors._interior_weight(d.weight_cone))
        frames = divisors._frames(d, degrees + [(0, 0)])
        rest = [g for g in gens if g is not dropped]
        packing = divisors._packed(frames)
        assert divisors._run_affine(d, frames, packing, degrees, list(gens), extend=False) == []
        missing = divisors._run_affine(d, frames, packing, degrees, rest, extend=False)
        assert missing[0] == dropped.degree


# -- the packed frame: slot widths, the reached bit, no finite place --------------

class TestPackedFrames:
    """Generator passes read each product off one int per degree: a slot
    per finite place, wide enough for 3 max |a| plus a guard bit."""

    @pytest.mark.parametrize("d", [hnorm_a1_divisor(), example_445_divisor()],
                             ids=["A1", "Spec Z"])
    def test_both_affine_passes_share_one_packing(self, monkeypatch, d):
        calls = []

        def counted(frames):
            calls.append(len(frames))
            return packed(frames)

        packed = divisors._packed
        expected = bounded_generators(d)
        monkeypatch.setattr(divisors, "_packed", counted)
        assert bounded_generators(d) == expected
        assert len(calls) == 1

    @staticmethod
    def rank_one(curve):
        tail = Cone.from_rays([(1,)], 1)
        return PolyhedralDivisor.of(curve, tail, {
            Z0 if curve is AFFINE_LINE else P2: Polyhedron.from_vertices_and_tail([(F(1, 2),)], tail)})

    @pytest.mark.parametrize("curve", [AFFINE_LINE, SPEC_Z], ids=["A1", "Spec Z"])
    def test_a_cofactor_at_the_slot_limit(self, curve):
        """Floors a(1) = -21 and a(2) = 21, set by hand: the product of the
        generator at 1 with itself is gen_2 times the place to
        21 + 21 + 21 = 63 = 3 max |a|, the most a 7-bit slot under its guard
        bit holds.  It is not 0, so a generator is added at 2; a slot one bit
        narrower would carry it into the guard and read it as 0."""
        d = self.rank_one(curve)
        frames = {(0,): ((0,), 0), (1,): ((-21,), 0), (2,): ((21,), 0)}
        gens = divisors._degree_zero_generators(d.curve, 1)
        packing = divisors._packed(frames)
        assert divisors._run_affine(d, frames, packing, [(1,), (2,)], gens, extend=True) == []
        assert [g.degree for g in gens if any(g.degree)] == [(1,), (2,)]

    @pytest.mark.parametrize("curve", [AFFINE_LINE, SPEC_Z], ids=["A1", "Spec Z"])
    def test_a_cofactor_of_minus_the_slot_limit_raises(self, curve):
        """Floors a(1) = 21 and a(2) = -21: the cofactor exponent of the
        generator at 1 times itself is -63, which a slot one bit narrower
        would wrap past its guard bit."""
        d = self.rank_one(curve)
        frames = {(0,): ((0,), 0), (1,): ((21,), 0), (2,): ((-21,), 0)}
        gens = divisors._degree_zero_generators(d.curve, 1)
        with pytest.raises(divisors.DivisorError, match="superadditive"):
            divisors._run_affine(d, frames, divisors._packed(frames), [(1,), (2,)], gens,
                                 extend=True)

    @pytest.mark.parametrize("curve", [AFFINE_LINE, SPEC_Z, PROJECTIVE_LINE],
                             ids=["A1", "Spec Z", "P1"])
    def test_large_vertex_coordinates(self, curve):
        """Floors in the hundreds.  Over A1 and Spec Z the segment at the
        first place gives cofactor exponents up to 187, several slots wide;
        on P1 the places are t and t^2 + 1 with floors up to 702."""
        first, second = {AFFINE_LINE: (Z0, Z1), SPEC_Z: (P2, P3),
                         PROJECTIVE_LINE: (Z0, BasePoint.finite((1, 0, 1)))}[curve]
        if curve is PROJECTIVE_LINE:
            coeffs = {first: [(-40, F(-37, 2))], second: [(F(-25, 6), 25)], INF: [(49, -30)]}
        else:
            coeffs = {first: [(F(-41, 2), F(83, 2)), (F(83, 2), F(-41, 2))],
                      second: [(F(-62, 3), F(125, 3))]}
        d = PolyhedralDivisor.of(curve, SIGMA, {
            z: Polyhedron.from_vertices_and_tail(v, SIGMA) for z, v in coeffs.items()})
        d, box = with_default_box(d)
        report = bounded_generators(d, box)
        oracle = oracles.generators_by_products if curve is PROJECTIVE_LINE \
            else oracles.bounded_generators
        assert report == oracle(d, box)
        assert len(report.generators) > 5

    @pytest.mark.parametrize("curve, coeffs", [
        (AFFINE_LINE, {}), (SPEC_Z, {}), (PROJECTIVE_LINE, {INF: [(1, 1)]})],
        ids=["A1", "Spec Z", "P1 at infinity"])
    def test_no_finite_place(self, curve, coeffs):
        """With no finite place the packed frame has no slot: only the bit
        above the slots tells a degree some product reaches from one no
        product reaches, which needs a generator of its own."""
        d = PolyhedralDivisor.of(curve, SIGMA, {
            z: Polyhedron.from_vertices_and_tail(v, SIGMA) for z, v in coeffs.items()})
        d, box = with_default_box(d)
        report = bounded_generators(d, box)
        assert report == oracles.bounded_generators(d, box)
        assert any(any(g.degree) for g in report.generators)
        if curve is PROJECTIVE_LINE:
            assert report == oracles.generators_by_products(d, box)
