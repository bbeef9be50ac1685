import itertools
import os
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from polydiv.convex import Cone, Polyhedron
from polydiv.curves import (
    AFFINE_LINE,
    PROJECTIVE_LINE,
    BasePoint,
    Divisor,
    RationalFunction,
    WrongCurve,
    principal_divisor,
)
from polydiv.divisors import (
    HomogeneousElement,
    PolyhedralDivisor,
    divisor_from_generators,
    graded_piece,
)
from polydiv.ideals import (
    MAX_LEVEL,
    SLICE_BOX_HALFWIDTH,
    DegreeOutsideDilate,
    GradedIdealPresentation,
    MonomialIdeal,
    NonMemberGenerator,
    ReesPair,
    closure_member_oracle,
    closure_power_piece,
    monomial_closure_generators,
    monomial_is_normal,
    newton_polyhedron,
    normality_sufficient,
    pair_conditions,
    ptilde,
    rees_pair,
)
from polydiv.linalg import vscale
from polydiv.serialize import load_problem
from oracles import (
    augmented_slice_points,
    box_points,
    closure_member_by_combinations,
    dilate,
    divisor_sum,
    nonnegative_orthant,
    outcome,
    ptilde_by_doubling,
)

ORTHANT2 = nonnegative_orthant(2)
ORTHANT3 = nonnegative_orthant(3)
Z0 = BasePoint.rational(0)
Z1 = BasePoint.rational(1)
INF = BasePoint.infinity()


def one():
    return RationalFunction.from_factored(1)


def tpow(k):
    return RationalFunction.variable(k)


def example_345_setup():
    t1 = HomogeneousElement(RationalFunction.from_factored(1, {(0, 1): 1, (-1, 1): -1}), (2, 0))
    t2 = HomogeneousElement(RationalFunction.from_factored(1), (0, 1))
    t3 = HomogeneousElement(RationalFunction.from_factored(1, {(0, 1): 1}), (2, 2))
    t4 = HomogeneousElement(RationalFunction.from_factored(1, {(0, 1): 2, (-1, 1): -1}), (3, 2))
    wc, d = divisor_from_generators([t1, t2, t3, t4], PROJECTIVE_LINE)
    return wc, d, (t1, t2, t3, t4)


class TestNewtonPolyhedron:
    def test_two_exponents(self):
        I = MonomialIdeal.of(ORTHANT2, [(3, 0), (0, 3)])
        assert newton_polyhedron(I) == Polyhedron.from_vertices_and_tail(
            [(3, 0), (0, 3)], ORTHANT2)

    def test_principal(self):
        I = MonomialIdeal.of(ORTHANT2, [(2, 5)])
        assert newton_polyhedron(I) == Polyhedron.from_vertices_and_tail([(2, 5)], ORTHANT2)

    def test_rank3(self):
        I = MonomialIdeal.of(ORTHANT3, [(2, 0, 0), (0, 3, 0), (0, 0, 7)])
        p = newton_polyhedron(I)
        assert set(map(tuple, p.vertices)) == {(2, 0, 0), (0, 3, 0), (0, 0, 7)}


class TestMonomialClosure:
    def test_cusp_ideal(self):
        I = MonomialIdeal.of(ORTHANT2, [(3, 0), (0, 3)])
        assert set(monomial_closure_generators(I)) == {(3, 0), (2, 1), (1, 2), (0, 3)}

    def test_principal_fixed(self):
        I = MonomialIdeal.of(ORTHANT2, [(4, 1)])
        assert monomial_closure_generators(I) == ((4, 1),)

    def test_idempotent(self):
        I = MonomialIdeal.of(ORTHANT2, [(3, 0), (0, 3)])
        gens = monomial_closure_generators(I)
        I2 = MonomialIdeal.of(ORTHANT2, gens)
        assert monomial_closure_generators(I2) == gens

    def test_rank3_closure_computed(self):
        I = MonomialIdeal.of(ORTHANT3, [(2, 0, 0), (0, 3, 0), (0, 0, 7)])
        gens = monomial_closure_generators(I)
        p = newton_polyhedron(I)
        assert all(p.contains(g) for g in gens)
        assert {(2, 0, 0), (0, 3, 0), (0, 0, 7)} <= set(gens)


class TestMonomialNormality:
    def test_rank2_always_normal(self):
        rng = random.Random(9)
        for _ in range(25):
            exps = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(1, 3))]
            I = MonomialIdeal.of(ORTHANT2, monomial_closure_generators(
                MonomialIdeal.of(ORTHANT2, exps)))
            ok, _ = monomial_is_normal(I)
            assert ok, exps

    def test_remark_witness(self):
        I = MonomialIdeal.of(ORTHANT3, [(2, 0, 0), (0, 3, 0), (0, 0, 7)])
        ok, wit = monomial_is_normal(I)
        assert not ok
        assert wit["exponent"] == 2 and wit["point"] == (1, 2, 6)

    def test_unit_ideal(self):
        I = MonomialIdeal.of(ORTHANT2, [(0, 0)])
        assert monomial_is_normal(I)[0]


class TestClosureOracle:
    def test_witnessed_at_three(self):
        I = MonomialIdeal.of(ORTHANT2, [(3, 0), (0, 3)])
        assert closure_member_oracle((2, 1), I, 3)

    def test_generator_at_one(self):
        I = MonomialIdeal.of(ORTHANT2, [(3, 0), (0, 3)])
        assert closure_member_oracle((3, 0), I, 1)

    def test_not_witnessed(self):
        I = MonomialIdeal.of(ORTHANT2, [(3, 0), (0, 3)])
        assert not closure_member_oracle((1, 0), I, 12)

    def test_oracle_matches_newton_membership(self):
        rng = random.Random(17)
        for _ in range(8):
            rank = rng.choice((2, 3))
            cone = nonnegative_orthant(rank)
            exps = [tuple(rng.randint(0, 3) for _ in range(rank))
                    for _ in range(rng.randint(1, 3))]
            I = MonomialIdeal.of(cone, exps)
            p = newton_polyhedron(I)
            for m in itertools.product(range(5), repeat=rank):
                assert closure_member_oracle(m, I, 12) == p.contains(m), (exps, m)

    @staticmethod
    def random_cone(rng, rank):
        """The orthant, or a pointed full-dimensional cone on rank to rank + 2
        random rays."""
        if rank == 1 or rng.random() < 0.3:
            return nonnegative_orthant(rank)
        while True:
            rays = [tuple(rng.randint(-3, 3) for _ in range(rank))
                    for _ in range(rng.randint(rank, rank + 2))]
            if not all(any(r) for r in rays):
                continue
            cone = Cone.from_rays(rays, rank)
            if cone.is_full_dimensional and cone.is_pointed:
                return cone

    def test_matches_combinations(self):
        rng = random.Random(1311)
        outcomes = []
        for _ in range(1000):
            rank = rng.randint(1, 4)
            cone = self.random_cone(rng, rank)
            scale = rng.choice((1, 10, 10 ** 12))
            exps = [tuple(map(sum, zip(*[vscale(rng.randint(0, scale), r) for r in cone.rays])))
                    for _ in range(rng.randint(1, 3))]
            outside = rng.random() < 0.3
            if outside:
                exps[0] = tuple(rng.randint(-scale, scale) for _ in range(rank))
            ideal = MonomialIdeal(cone, tuple(sorted(set(exps))))
            d0 = rng.randint(1, 4)
            mean = [sum(col) // d0 for col in zip(*rng.choices(exps, k=d0))]
            m = tuple(a + rng.randint(-2, 2) * rng.choice((1, scale)) for a in mean)
            d_max = rng.randint(1, 8)
            found = closure_member_oracle(m, ideal, d_max)
            assert found == closure_member_by_combinations(m, ideal, d_max), (cone, exps, m, d_max)
            outcomes.append((found, outside, cone.contains(m)))
        assert {(found, outside) for found, outside, _ in outcomes} == {
            (False, False), (False, True), (True, False), (True, True)}
        assert {inside for _, _, inside in outcomes} == {False, True}

    @pytest.mark.parametrize("exponent, m, d_max, found", [
        ((2,), (-1,), 1, False),          # 1 * (-1) - 2 = -3 = -1 * (1 + 2)
        ((-4,), (3,), 1, True),           # 1 * 3 + 4 = 7 = 1 * (3 + 4)
        ((3,), (-4,), 4, False),          # 4 * (-4) - 12 = -28 = -4 * (4 + 3)
        ((3, 0), (-4, 5), 4, False),      # the first slot as above, beside a second one at 20
    ])
    def test_slot_width_boundary(self, exponent, m, d_max, found):
        """|d*<h, m> - <h, s>| reaches d_max * (|<h, m>| + |<h, e>|), the
        largest value one slot must hold, on both sides of 0."""
        ideal = MonomialIdeal(nonnegative_orthant(len(m)), (exponent,))
        assert closure_member_oracle(m, ideal, d_max) is found
        assert closure_member_by_combinations(m, ideal, d_max) is found

    def test_power_compatibility(self):
        I = MonomialIdeal.of(ORTHANT2, [(2, 0), (0, 2), (1, 1)])
        p = newton_polyhedron(I)
        for e in (2, 3):
            sums = {tuple(map(sum, zip(*c)))
                    for c in itertools.combinations_with_replacement(I.exponents, e)}
            Ie = MonomialIdeal.of(ORTHANT2, sums)
            assert newton_polyhedron(Ie) == dilate(p, e)


class TestReesPair:
    def test_example_363(self):
        wc, d, (t1, t2, t3, t4) = example_345_setup()
        pair = rees_pair(GradedIdealPresentation.of(wc, d, [t2, t3, t4]))
        assert pair.newton == Polyhedron.from_vertices_and_tail([(0, 1)], ORTHANT2)
        tail = pair.rees_divisor.tail
        assert set(tail.rays) == {(1, 0, 0), (0, 0, 1), (0, 1, -1)}
        assert pair.rees_divisor.coefficient(Z0) == Polyhedron.from_vertices_and_tail(
            [(F(-1, 2), 0, 0)], tail)
        assert pair.rees_divisor.coefficient(Z1) == Polyhedron.from_vertices_and_tail(
            [(F(1, 2), 0, 0)], tail)
        assert pair.rees_divisor.coefficient(INF) == Polyhedron.from_vertices_and_tail(
            [(0, 1, -1), (F(1, 2), 0, 0), (0, F(1, 2), 0)], tail)

    def test_unit_ideal(self):
        wc, d, _ = example_345_setup()
        unit = HomogeneousElement(RationalFunction.from_factored(1), (0, 0))
        pair = rees_pair(GradedIdealPresentation.of(wc, d, [unit]))
        assert pair.newton == Polyhedron.cone_as_polyhedron(ORTHANT2)
        for z, poly in pair.rees_divisor.coefficients:
            base = d.coefficient(z)
            expected_normals = {tuple(nrm) + (0,) for nrm, _ in base.halfspaces}
            expected_normals.add((0, 0, 1))
            assert {nrm for nrm, _ in poly.halfspaces} == expected_normals

    def test_monomial_reduction(self):
        trivial = PolyhedralDivisor.of(AFFINE_LINE, ORTHANT2, {})
        gens = [HomogeneousElement(one(), (3, 0)), HomogeneousElement(one(), (0, 3))]
        pair = rees_pair(GradedIdealPresentation.of(ORTHANT2.dual(), trivial, gens))
        assert pair.newton == Polyhedron.from_vertices_and_tail([(3, 0), (0, 3)], ORTHANT2)
        assert pair.rees_divisor.coefficients == ()

    def test_non_member_rejected(self):
        wc, d, _ = example_345_setup()
        bad = HomogeneousElement(RationalFunction.variable(-5), (0, 1))
        with pytest.raises(NonMemberGenerator):
            GradedIdealPresentation.of(wc, d, [bad])


class TestClosurePowerPiece:
    def test_level_zero_is_ambient(self):
        wc, d, (t1, t2, t3, t4) = example_345_setup()
        pair = rees_pair(GradedIdealPresentation.of(wc, d, [t2, t3, t4]))
        for m in ((2, 0), (0, 1), (2, 2)):
            got = closure_power_piece(pair, m, 0).module
            want = graded_piece(d, m).module
            assert got.kind == want.kind
            assert all(a.same_as(b) for a, b in zip(got.generators, want.generators))

    def test_contains_generator(self):
        wc, d, (t1, t2, t3, t4) = example_345_setup()
        pair = rees_pair(GradedIdealPresentation.of(wc, d, [t2, t3, t4]))
        piece = closure_power_piece(pair, (0, 1), 1).module
        dv = principal_divisor(t2.function, PROJECTIVE_LINE)
        assert any(f.same_as(t2.function) for f in piece.generators) or \
            not piece.is_zero

    def test_outside_dilate(self):
        wc, d, (t1, t2, t3, t4) = example_345_setup()
        pair = rees_pair(GradedIdealPresentation.of(wc, d, [t2, t3, t4]))
        with pytest.raises(DegreeOutsideDilate):
            closure_power_piece(pair, (0, 0), 1)

    def test_monomial_specialization(self):
        trivial = PolyhedralDivisor.of(AFFINE_LINE, ORTHANT2, {})
        gens = [HomogeneousElement(one(), (3, 0)), HomogeneousElement(one(), (0, 3))]
        pair = rees_pair(GradedIdealPresentation.of(ORTHANT2.dual(), trivial, gens))
        p = newton_polyhedron(MonomialIdeal.of(ORTHANT2, [(3, 0), (0, 3)]))
        for m in itertools.product(range(7), repeat=2):
            inside = dilate(p, 2).contains(m)
            if inside:
                assert not closure_power_piece(pair, m, 2).module.is_zero
            else:
                with pytest.raises(DegreeOutsideDilate):
                    closure_power_piece(pair, m, 2)


class TestPairConditions:
    def test_valid_pair_passes(self):
        wc, d, (t1, t2, t3, t4) = example_345_setup()
        pair = rees_pair(GradedIdealPresentation.of(wc, d, [t2, t3, t4]))
        report = pair_conditions(pair)
        assert report.all_pass, report

    def test_slices_match_dilates(self):
        # Lemma-level identity: augmented cone slices = dilated Newton polyhedra
        wc, d, (t1, t2, t3, t4) = example_345_setup()
        pair = rees_pair(GradedIdealPresentation.of(wc, d, [t2, t3, t4]))
        cone = pair.weight_cone_augmented
        for e in range(5):
            scaled = dilate(pair.newton, e)
            for m in itertools.product(range(-2, 6), repeat=2):
                assert cone.contains(tuple(m) + (e,)) == scaled.contains(m)

    def test_vertex_level_violation_detected(self):
        wc, d, (t1, t2, t3, t4) = example_345_setup()
        pair = rees_pair(GradedIdealPresentation.of(wc, d, [t2, t3, t4]))
        tail = pair.rees_divisor.tail
        bad_coeff = Polyhedron.from_vertices_and_tail([(0, 1, 1)], tail)
        broken = ReesPair(
            pair.presentation, pair.newton,
            PolyhedralDivisor.of(PROJECTIVE_LINE, tail, {Z0: bad_coeff}))
        report = pair_conditions(broken)
        ok, note = outcome(report, "projection_and_vertex_levels")
        assert not ok

    def test_slice_mismatch_detected(self):
        """On trivial_a1, a hand-built pair whose augmented tail is the
        orthant, not the dual of the Newton cone: its level-1 slice holds
        (0, 0) and (0, 1), which Conv((1, 0), (0, 2)) + orthant does not.
        Only check (ii) fails."""
        pair = rees_pair(load_problem(TRIVIAL_A1).get("ideal", "ideal"))
        broken = ReesPair(pair.presentation, pair.newton,
                          PolyhedralDivisor.of(AFFINE_LINE, ORTHANT3, {}))
        report = pair_conditions(broken)
        assert outcome(report, "augmented_cone_slices") == \
            (False, "level 1 mismatch at [(0, 0), (0, 1)]")
        assert [name for name, ok, _ in report.results if not ok] == ["augmented_cone_slices"]

    def test_negative_level_facet_detected(self):
        """A coefficient whose tail has the inner normal (0, 0, -1) has a
        facet of level -1."""
        wc, d, (t1, t2, t3, t4) = example_345_setup()
        pair = rees_pair(GradedIdealPresentation.of(wc, d, [t2, t3, t4]))
        tail = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, -1)], 3)
        coeff = Polyhedron.from_vertices_and_tail([(1, 0, 0)], tail)
        assert ((0, 0, -1), 0) in coeff.halfspaces
        broken = ReesPair(pair.presentation, pair.newton,
                          PolyhedralDivisor.of(PROJECTIVE_LINE, tail, {Z0: coeff}))
        ok, note = outcome(pair_conditions(broken), "facets_from_newton_points")
        assert not ok and note == f"facet (0, 0, -1) at {Z0} has negative level"

    @pytest.mark.parametrize("vertices, row", [
        ([(-1, -1, 2), (-1, 1, -1)], ((0, 3, 2), 1)),
        ([(-2, -1, 2), (0, -1, 1)], ((1, 2, 2), 0)),
        ([(0, 0, F(1, 2))], ((0, 2, 2), 1)),
    ], ids=["offset-and-normal", "normal-only", "offset-only"])
    def test_facet_not_integral_after_scaling_detected(self, vertices, row):
        """A coefficient row of level 2 whose normal, offset or both are
        not divisible by 2.  Rows are primitive, so an even normal needs an
        odd offset, which only a vertex off the lattice gives."""
        wc, d, (t1, t2, t3, t4) = example_345_setup()
        pair = rees_pair(GradedIdealPresentation.of(wc, d, [t2, t3, t4]))
        tail = pair.rees_divisor.tail
        coeff = Polyhedron.from_vertices_and_tail(vertices, tail)
        assert row in coeff.halfspaces
        broken = ReesPair(pair.presentation, pair.newton,
                          PolyhedralDivisor.of(PROJECTIVE_LINE, tail, {Z0: coeff}))
        ok, note = outcome(pair_conditions(broken), "facets_from_newton_points")
        assert not ok and note == f"facet {row[0]} at {Z0} not integral after scaling"


def slice_check_by_filter(pair: ReesPair) -> tuple[bool, str]:
    """Check (ii) of :func:`pair_conditions` with every point of its box
    tested on its own: in the dilated Newton polyhedron, and at its level in
    the augmented weight cone."""
    box = [(-SLICE_BOX_HALFWIDTH, SLICE_BOX_HALFWIDTH)] * pair.presentation.divisor.rank
    for e in range(MAX_LEVEL + 1):
        scaled = dilate(pair.newton, e)
        want = {m for m in box_points(box) if scaled.contains(m)}
        got = augmented_slice_points(pair, e, box)
        if want != got:
            return False, f"level {e} mismatch at {sorted((want - got) | (got - want))[:3]}"
    return True, f"levels 0..{MAX_LEVEL} agree on the sampled box"


def with_augmented_tail(tail: Cone) -> ReesPair:
    """The trivial_a1 pair with its augmented tail replaced by ``tail``."""
    pair = rees_pair(load_problem(TRIVIAL_A1).get("ideal", "ideal"))
    return ReesPair(pair.presentation, pair.newton, PolyhedralDivisor.of(AFFINE_LINE, tail, {}))


class TestSliceCheckAgainstBoxFilter:
    def test_zero_normal_row(self):
        """The tail ray (0, 0, -1) is the augmented weight cone's halfspace
        level <= 0: every slice above level 0 is empty, a row with no
        coordinate of m in it."""
        broken = with_augmented_tail(Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, -1)], 3))
        assert (0, 0, -1) in broken.weight_cone_augmented.halfspaces
        ok, note = outcome(pair_conditions(broken), "augmented_cone_slices")
        assert (ok, note) == slice_check_by_filter(broken)
        assert not ok and note.startswith("level 1 mismatch")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=5))
    def test_drawn_tails(self, vectors):
        """Pointed augmented tails of dimension 1 to 3."""
        tail = Cone.from_rays(vectors, 3)
        assume(tail.is_pointed)
        broken = with_augmented_tail(tail)
        assert outcome(pair_conditions(broken), "augmented_cone_slices") == \
            slice_check_by_filter(broken)


class TestPtildeAndNormality:
    def test_trivial_support_shape(self):
        trivial = PolyhedralDivisor.of(AFFINE_LINE, ORTHANT2, {})
        gens = [HomogeneousElement(one(), (1, 0)), HomogeneousElement(one(), (0, 1))]
        pair = rees_pair(GradedIdealPresentation.of(ORTHANT2.dual(), trivial, gens))
        p = ptilde(pair, Z0)
        # {(m, i): m in P, i >= 0}
        assert p.contains((1, 0, 0)) and p.contains((1, 0, 3))
        assert not p.contains((1, 0, -1)) and not p.contains((0, 0, 0))

    def test_monomial_cross_check(self):
        trivial = PolyhedralDivisor.of(AFFINE_LINE, ORTHANT2, {})
        for exps in ([(3, 0), (0, 3)], [(2, 1), (1, 2)], [(2, 0), (0, 1)]):
            gens = [HomogeneousElement(one(), m) for m in exps]
            pair = rees_pair(GradedIdealPresentation.of(ORTHANT2.dual(), trivial, gens))
            closed = monomial_closure_generators(MonomialIdeal.of(ORTHANT2, exps))
            I = MonomialIdeal.of(ORTHANT2, closed)
            assert normality_sufficient(pair)[0] == monomial_is_normal(I)[0], exps

    def test_wrong_curve(self):
        wc, d, (t1, t2, t3, t4) = example_345_setup()
        pair = rees_pair(GradedIdealPresentation.of(wc, d, [t2, t3, t4]))
        with pytest.raises(WrongCurve):
            normality_sufficient(pair)


TRIVIAL_A1 = os.path.join(os.path.dirname(__file__), "..", "fixtures", "trivial_a1.json")
PLACE_KEYS = {Z0: (0, 1), Z1: (-1, 1)}


@st.composite
def a1_rank2_rees_pairs(draw):
    """Rees pairs over A1 in rank 2: up to two places with one or two
    vertices in [-2, 2] of denominator at most 2, and up to three generators
    of degree a small sum of weight-cone rays, each of least order at a
    place or up to two above it."""
    tail = Cone.from_rays(draw(st.sampled_from([((1, 0), (0, 1)), ((1, 0), (1, 2)),
                                                ((1, 1), (-1, 2))])), 2)
    vertex = st.tuples(*[st.fractions(-2, 2, max_denominator=2)] * 2)
    places = draw(st.lists(st.sampled_from([Z0, Z1]), unique=True, max_size=2))
    d = PolyhedralDivisor.of(AFFINE_LINE, tail, {
        z: Polyhedron.from_vertices_and_tail(draw(st.lists(vertex, min_size=1, max_size=2)), tail)
        for z in places})
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        m = tuple(map(sum, zip(*[vscale(draw(st.integers(0, 2)), r) for r in d.weight_cone.rays])))
        floors = dict(zip(d.support, d.floors(m)))
        orders = {key: -floors.get(z, 0) + draw(st.integers(0, 2)) for z, key in PLACE_KEYS.items()}
        gens.append(HomogeneousElement(
            RationalFunction.from_factored(1, {key: e for key, e in orders.items() if e}), m))
    return rees_pair(GradedIdealPresentation.of(d.weight_cone, d, gens))


class TestPtildeAgainstDoubledBoxes:
    """``ptilde``, the generators lifted by their orders, against the boxes
    doubled until stable."""

    def test_trivial_a1(self):
        pair = rees_pair(load_problem(TRIVIAL_A1).get("ideal", "ideal"))
        for z in pair.rees_divisor.support:
            assert ptilde(pair, z) == ptilde_by_doubling(pair, z)

    def test_vertex_past_the_hilbert_box(self):
        """I = (t^5, chi^10, t chi) on k[t, chi]: h_t(m, 1) = min(0, (m - 10)/9,
        4m - 5), so the Rees denominator is 9 and the Newton box stretched by
        9 times the Hilbert basis is [0, 9]; the lift (10, 0) of the
        generator chi^10, no Newton vertex, is a vertex past it."""
        tail = Cone.from_rays([(1,)], 1)
        d = PolyhedralDivisor.of(AFFINE_LINE, tail, {})
        gens = [HomogeneousElement(tpow(5), (0,)), HomogeneousElement(one(), (10,)),
                HomogeneousElement(tpow(1), (1,))]
        pair = rees_pair(GradedIdealPresentation.of(tail.dual(), d, gens))
        assert pair.rees_divisor.denominator() == 9
        p = ptilde(pair, Z0)
        assert p.vertices == ((0, 5), (1, 1), (10, 0))
        assert p == ptilde_by_doubling(pair, Z0)

    @settings(max_examples=100, deadline=None)
    @given(a1_rank2_rees_pairs())
    def test_generated_a1_rank2(self, pair):
        for z in pair.rees_divisor.support or (Z0,):
            assert ptilde(pair, z) == ptilde_by_doubling(pair, z)


def closed_powers_closed(pair, e, box=5):
    """Independent oracle: the e-th power of the CLOSED ideal is integrally
    closed iff the pointwise-min divisor over e-fold products of closure
    pieces matches the closure piece at every degree in the box."""
    P = pair.newton
    pts = [tuple(m) for m in itertools.product(range(box + 1), repeat=2) if P.contains(m)]
    piece_div = {m: principal_divisor(closure_power_piece(pair, m, 1).module.generator,
                                      AFFINE_LINE) for m in pts}
    scaled = dilate(P, e)
    for m in itertools.product(range(box + 1), repeat=2):
        if not scaled.contains(m):
            continue
        best = None
        for combo in itertools.combinations_with_replacement(pts, e):
            s = tuple(map(sum, zip(*combo)))
            if any(a - b < 0 for a, b in zip(m, s)):
                continue
            dv = divisor_sum(*(piece_div[q] for q in combo))
            best = dv if best is None else Divisor.of(AFFINE_LINE, [
                (z, min(best.coefficient(z), dv.coefficient(z)))
                for z in set(best.support) | set(dv.support)])
        target = principal_divisor(closure_power_piece(pair, m, e).module.generator,
                                   AFFINE_LINE)
        if best is None or best != target:
            return False
    return True


class TestPolynomialRingCriterion:
    def test_sufficient_criterion_matches_powers_closed(self):
        # k[x0, x1, x2] with its rank-2 grading over the affine line
        trivial = PolyhedralDivisor.of(AFFINE_LINE, ORTHANT2, {})
        wc = ORTHANT2.dual()
        rng = random.Random(11)
        fpolys = [None, {(0, 1): 1}, {(-1, 1): 1}, {(0, 1): 2}, {(0, 1): 1, (-1, 1): 1}]
        for trial in range(10):
            gens = []
            for _ in range(rng.randint(2, 3)):
                fac = rng.choice(fpolys)
                f = one() if fac is None else RationalFunction.from_factored(1, fac)
                gens.append(HomogeneousElement(f, (rng.randint(0, 2), rng.randint(0, 2))))
            pair = rees_pair(GradedIdealPresentation.of(wc, trivial, gens))
            suff, _ = normality_sufficient(pair)
            closed = all(closed_powers_closed(pair, e) for e in (1, 2))
            assert suff == closed, [str(g) for g in gens]
