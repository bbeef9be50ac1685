import itertools
import os
import random
from fractions import Fraction as F

import pytest

from polydiv import divisors, serialize
from polydiv.convex import Cone, Polyhedron, support_value
from polydiv.curves import (
    AFFINE_LINE,
    PROJECTIVE_LINE,
    SPEC_Z,
    BasePoint,
    Divisor,
    RationalFunction,
    WrongCurve,
    principal_divisor,
)
from polydiv.divisors import (
    DegreesDoNotSpan,
    HomogeneousElement,
    NonPositiveDegree,
    OutsideWeightCone,
    PolyhedralDivisor,
    bounded_generators,
    default_box,
    degree_polyhedron,
    divisor_from_generators,
    dpd_presentation,
    evaluate,
    graded_piece,
    is_proper,
    member,
    quasifan,
)
from polydiv.linalg import vadd

SIGMA = Cone.nonnegative_orthant(2)
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
        assert evaluate(example_345_divisor(), (0, 0)) == Divisor.zero(PROJECTIVE_LINE)

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
                    assert s == evaluate(d, m1) + evaluate(d, m2)

    def test_degree_polyhedron_support_compatibility(self):
        d = example_345_divisor()
        deg = degree_polyhedron(d)
        for m in itertools.product(range(4), repeat=2):
            assert support_value(deg, m) == evaluate(d, m).degree()


class TestDegreeAndProper:
    def test_degree_polyhedron_345(self):
        deg = degree_polyhedron(example_345_divisor())
        assert deg == Polyhedron.from_vertices_and_tail([(F(1, 2), 0), (0, F(1, 2))], SIGMA)

    def test_degree_polyhedron_346(self):
        _, d = divisor_from_generators(example_346_generators(), PROJECTIVE_LINE)
        sigma6 = Cone.from_rays([(1, 0), (1, 6)], 2)
        assert degree_polyhedron(d) == Polyhedron.from_vertices_and_tail(
            [(F(1, 6), 0), (F(1, 6), 1)], sigma6)

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

    def test_wrong_curve(self):
        d = PolyhedralDivisor.of(AFFINE_LINE, SIGMA, {})
        with pytest.raises(WrongCurve):
            degree_polyhedron(d)


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
        assert d == Divisor.zero(AFFINE_LINE)
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


class TestGradedPieces:
    def test_pieces_over_z(self):
        d = example_445_divisor()
        for m1, r in ((1, 1), (2, 1), (3, 2)):
            gp = graded_piece(d, (m1, 2 * r))
            assert gp.module.kind == "free"
            assert gp.module.generator.value() == F(2 ** r, 3 ** (2 * m1 - r))

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


class TestBoundedGenerators:
    def test_eq_41_generators(self):
        rep = bounded_generators(example_445_divisor(), box=[(0, 8), (0, 8)])
        got = sorted((g.degree, g.function.value()) for g in rep.generators)
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
        tails = [Cone.nonnegative_orthant(2), Cone.from_rays([(1, 0), (1, 2)], 2),
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
        path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "hnorm_a1.json")
        d = serialize.load_problem(path).get("divisor", "divisor")
        calls = []
        real = divisors.quasifan
        monkeypatch.setattr(divisors, "quasifan", lambda q: calls.append(q) or real(q))
        bounded_generators(d)
        assert calls == [d]
