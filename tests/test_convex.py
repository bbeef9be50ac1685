import gc
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from polydiv import convex
from polydiv.convex import (
    Cone,
    EmptyPolyhedron,
    NotPointed,
    Polyhedron,
    Unbounded,
    UnboundedLineality,
    hilbert_basis,
    is_polyhedron_normal,
    lattice_points_in_box,
    minimal_lattice_points,
    support_value,
)
from polydiv.linalg import denominator_lcm, dot, vadd, vsub
from oracles import (dilate, full_cone, minkowski_sum, nonnegative_orthant,
                     support_value_hilbert_oracle, zero_cone)

ORTHANT2 = nonnegative_orthant(2)


def brute_dual_rays_2d(rays, box=6):
    """Rank-2 dual oracle: scan a grid for the dual region, keep boundary rays."""
    inside = [v for v in itertools.product(range(-box, box + 1), repeat=2)
              if v != (0, 0) and all(dot(v, r) >= 0 for r in rays)]
    from polydiv.linalg import primitive
    prim = sorted({primitive(v) for v in inside})
    # extreme = not a positive combination of two others
    out = []
    for v in prim:
        others = [w for w in prim if w != v]
        if not any(dot((v[1], -v[0]), a) * dot((v[1], -v[0]), b) < 0
                   and all(dot(v, r) >= 0 for r in rays)
                   and _between(v, a, b) for a in others for b in others):
            out.append(v)
    return out


def _between(v, a, b):
    # v in the cone spanned by a, b (2d)
    det_ab = a[0] * b[1] - a[1] * b[0]
    if det_ab == 0:
        return False
    s = F(v[0] * b[1] - v[1] * b[0], det_ab)
    t = F(a[0] * v[1] - a[1] * v[0], det_ab)
    return s > 0 and t > 0


class TestConeDual:
    def test_first_quadrant_self_dual(self):
        assert ORTHANT2.dual() == ORTHANT2

    def test_skew_cone(self):
        c = Cone.from_rays([(1, 2), (1, 0)], 2)
        d = c.dual()
        assert set(d.rays) == {(0, 1), (2, -1)}
        assert d.dual() == c

    def test_skew_cone_against_grid_oracle(self):
        for rays in ([(1, 2), (1, 0)], [(2, 1), (-1, 3)], [(1, 0), (1, 6)]):
            c = Cone.from_rays(rays, 2)
            expected = [v for v in brute_dual_rays_2d(rays)
                        if v in c.dual().rays]
            assert set(c.dual().rays) <= set(brute_dual_rays_2d(rays))
            assert set(expected) == set(c.dual().rays)

    def test_zero_cone_full_space(self):
        z = zero_cone(2)
        f = z.dual()
        assert f.halfspaces == ()
        assert f.dual() == z

    def test_containment_and_membership(self):
        c = Cone.from_rays([(1, 0), (1, 6)], 2)
        assert c.contains((1, 3))
        assert not c.contains((0, 1))
        assert c.is_pointed and c.is_full_dimensional


@st.composite
def pointed_cones(draw, rank):
    nrays = draw(st.integers(min_value=rank, max_value=rank + 2))
    rays = [tuple(draw(st.integers(-3, 3)) for _ in range(rank))
            for _ in range(nrays)]
    c = Cone.from_rays(rays, rank)
    if not (c.is_pointed and c.is_full_dimensional):
        # fold into the orthant to force pointedness, keep full dimension
        rays = [tuple(abs(a) for a in r) for r in rays] + \
               [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        c = Cone.from_rays(rays, rank)
    return c


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda r: pointed_cones(r)))
def test_dual_involution(c):
    assert c.dual().dual() == c


class TestHilbertBasis:
    def test_orthant(self):
        assert set(hilbert_basis(ORTHANT2)) == {(1, 0), (0, 1)}

    def test_width_two(self):
        c = Cone.from_rays([(1, 0), (1, 2)], 2)
        assert set(hilbert_basis(c)) == {(1, 0), (1, 1), (1, 2)}

    def test_width_six(self):
        c = Cone.from_rays([(1, 0), (1, 6)], 2)
        assert set(hilbert_basis(c)) == {(1, k) for k in range(7)}

    def test_not_pointed_rejected(self):
        with pytest.raises(NotPointed):
            hilbert_basis(full_cone(2))

    def test_against_enumeration_oracle(self):
        # oracle: all lattice points in a box, greedy minimality, then check
        # every cone point in the box is an N-combination of the basis
        cones = [Cone.from_rays([(1, 0), (1, 2)], 2),
                 Cone.from_rays([(1, 0), (2, 3)], 2),
                 Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3)]
        for c in cones:
            basis = set(hilbert_basis(c))
            n = c.ambient_rank
            box = list(itertools.product(range(0, 5), repeat=n))
            pts = [p for p in box if c.contains(p) and any(p)]
            for x in pts:
                reachable = {tuple(0 for _ in range(n))}
                frontier = [tuple(0 for _ in range(n))]
                while frontier:
                    cur = frontier.pop()
                    for b in basis:
                        nxt = vadd(cur, b)
                        if all(a <= xi for a, xi in zip(nxt, x)) or c.contains(vsub(x, nxt)):
                            if nxt == x:
                                reachable.add(x)
                                frontier = []
                                break
                            if nxt not in reachable and all(abs(a) <= 20 for a in nxt):
                                if c.contains(vsub(x, nxt)):
                                    reachable.add(nxt)
                                    frontier.append(nxt)
                assert x in reachable, (c, x)
            for b in basis:
                rest = basis - {b}
                assert not any(c.contains(vsub(b, o)) and any(vsub(b, o)) for o in basis
                               if o != b), f"{b} decomposable"


class TestPolyhedronFromHalfspaces:
    def test_shifted_cone_with_redundancy(self):
        p = Polyhedron.from_halfspaces([((1, 2), -1), ((1, 0), 0), ((2, 1), -2)], 2)
        assert p.vertices == ((F(0), F(-1, 2)),)
        assert set(p.tail.rays) == {(0, 1), (2, -1)}
        assert len(p.halfspaces) == 2

    def test_second_shifted_cone(self):
        p = Polyhedron.from_halfspaces([((1, 2), 1), ((1, 0), 2), ((2, 1), 1)], 2)
        assert p.vertices == ((F(2), F(-1, 2)),)
        assert set(p.tail.rays) == {(0, 1), (2, -1)}

    def test_orthant(self):
        p = Polyhedron.from_halfspaces([((1, 0), 0), ((0, 1), 0)], 2)
        assert p.vertices == ((F(0), F(0)),)
        assert p.tail == ORTHANT2

    def test_empty(self):
        with pytest.raises(EmptyPolyhedron):
            Polyhedron.from_halfspaces([((1, 0), 0), ((-1, 0), 1)], 2)

    def test_lineality_rejected(self):
        with pytest.raises(UnboundedLineality):
            Polyhedron.from_halfspaces([((1, 0), 0)], 2)

    def test_vh_roundtrip(self):
        p = Polyhedron.from_halfspaces([((1, 2), -1), ((1, 0), 0)], 2)
        q = Polyhedron.from_halfspaces(p.halfspaces, 2)
        assert p == q

    def test_lower_dimensional_rows_are_irredundant(self):
        """x = 1, y >= 0: the equation as two rows and y >= 0; the face at
        infinity, x >= -1 here, is not a row."""
        p = Polyhedron.from_halfspaces([((1, 0), 1), ((-1, 0), -1), ((0, 1), 0)], 2)
        assert sorted(p.halfspaces) == [((-1, 0), -1), ((0, 1), 0), ((1, 0), 1)]

    def test_rows_are_integral(self):
        """x >= 1/2 is the row 2x >= 1; the vertex ray is (1, 2)."""
        p = Polyhedron.from_halfspaces([((1,), F(1, 2))], 1)
        assert p.halfspaces == (((2,), 1),)
        assert p.vertex_rays == (((1,), 2),)
        assert p.vertices == ((F(1, 2),),) and not p.has_integral_vertices
        assert p.contains((1,)) and p.contains((F(1, 2),)) and not p.contains((0,))


@st.composite
def sigma_polyhedra(draw, rank=2):
    tail = draw(st.sampled_from([
        nonnegative_orthant(rank),
        Cone.from_rays([(1, 0), (1, 2)], rank),
        Cone.from_rays([(1, 0), (1, 6)], rank),
        Cone.from_rays([(0, 1), (2, -1)], rank),
    ]))
    npts = draw(st.integers(1, 3))
    pts = [tuple(F(draw(st.integers(-4, 4)), draw(st.integers(1, 2)))
                 for _ in range(rank)) for _ in range(npts)]
    return Polyhedron.from_vertices_and_tail(pts, tail)


@settings(max_examples=50, deadline=None)
@given(sigma_polyhedra())
def test_vh_roundtrip_random(p):
    assert Polyhedron.from_halfspaces(p.halfspaces, 2) == p


@settings(max_examples=40, deadline=None)
@given(sigma_polyhedra(), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
def test_support_superadditive(p, a, b, c, d):
    dual = p.tail.dual()
    m1 = vadd(tuple(a * r for r in dual.rays[0]), tuple(b * r for r in dual.rays[-1]))
    m2 = vadd(tuple(c * r for r in dual.rays[0]), tuple(d * r for r in dual.rays[-1]))
    assert support_value(p, m1) + support_value(p, m2) <= support_value(p, vadd(m1, m2))


@settings(max_examples=40, deadline=None)
@given(sigma_polyhedra(), sigma_polyhedra())
def test_minkowski_support_additive(p, q):
    if p.tail != q.tail:
        return
    s = minkowski_sum(p, q)
    for m in p.tail.dual().rays + (vadd(p.tail.dual().rays[0], p.tail.dual().rays[-1]),):
        assert support_value(s, m) == support_value(p, m) + support_value(q, m)
    assert set(s.vertices) <= {vadd(a, b) for a in p.vertices for b in q.vertices}


def test_minkowski_neutral_element():
    c = Cone.from_rays([(1, 0), (1, 2)], 2)
    p = Polyhedron.from_vertices_and_tail([(F(1, 2), 0), (0, 1)], c)
    assert minkowski_sum(p, Polyhedron.cone_as_polyhedron(c)) == p


class TestSupportValue:
    def test_single_vertex(self):
        p = Polyhedron.from_vertices_and_tail([(F(1, 2), 0)], ORTHANT2)
        assert support_value(p, (2, 0)) == 1

    def test_two_vertices(self):
        p = Polyhedron.from_vertices_and_tail([(F(1, 2), 0), (0, F(1, 2))], ORTHANT2)
        assert support_value(p, (1, 1)) == F(1, 2)

    def test_tail_only(self):
        p = Polyhedron.cone_as_polyhedron(ORTHANT2)
        assert support_value(p, (3, 7)) == 0

    def test_unbounded_direction(self):
        p = Polyhedron.cone_as_polyhedron(ORTHANT2)
        with pytest.raises(Unbounded):
            support_value(p, (-1, 0))


class TestDilate:
    def test_identity(self):
        p = Polyhedron.from_vertices_and_tail([(1, 0), (0, 1)], ORTHANT2)
        assert dilate(p, 1) == p

    def test_homothety(self):
        p = Polyhedron.from_vertices_and_tail([(3, 0), (0, 3)], ORTHANT2)
        assert dilate(p, 2) == Polyhedron.from_vertices_and_tail([(6, 0), (0, 6)], ORTHANT2)

    def test_zero_gives_tail(self):
        p = Polyhedron.from_vertices_and_tail([(3, 0), (0, 3)], ORTHANT2)
        assert dilate(p, 0) == Polyhedron.cone_as_polyhedron(ORTHANT2)


def brute_normal(p, e, box=30):
    """Oracle: full enumeration over a generous box (valid for small data)."""
    scaled = dilate(p, e)
    n = p.ambient_rank
    lo = [int(min(v[j] for v in scaled.vertices)) - 1 for j in range(n)]
    hi = [box] * n
    pts_p = set(lattice_points_in_box(p, lo, hi))
    sums = set()
    for combo in itertools.combinations_with_replacement(pts_p, e):
        s = combo[0]
        for q in combo[1:]:
            s = vadd(s, q)
        sums.add(s)
    for x in lattice_points_in_box(scaled, lo, [h - e for h in hi]):
        if x not in sums:
            return False, x
    return True, None


class TestNormality:
    def test_rank2_always_normal(self):
        p = Polyhedron.from_vertices_and_tail([(3, 0), (0, 3)], ORTHANT2)
        for e in (1, 2, 3):
            assert is_polyhedron_normal(p, e)[0]

    def test_non_normal_witness(self):
        p = Polyhedron.from_vertices_and_tail(
            [(2, 0, 0), (0, 3, 0), (0, 0, 7)], nonnegative_orthant(3))
        ok1, _ = is_polyhedron_normal(p, 1)
        ok2, wit = is_polyhedron_normal(p, 2)
        assert ok1 and not ok2
        assert wit == (1, 2, 6)

    def test_tail_itself_normal(self):
        p = Polyhedron.cone_as_polyhedron(Cone.from_rays([(1, 0), (1, 3)], 2))
        for e in (1, 2):
            assert is_polyhedron_normal(p, e)[0]

    def test_box_reduction_matches_full_enumeration(self):
        cases = [
            Polyhedron.from_vertices_and_tail([(2, 1), (0, 3)], ORTHANT2),
            Polyhedron.from_vertices_and_tail([(1, 0), (0, 2)],
                                              Cone.from_rays([(1, 0), (1, 2)], 2)),
            Polyhedron.from_vertices_and_tail(
                [(2, 0, 0), (0, 3, 0), (0, 0, 7)], nonnegative_orthant(3)),
        ]
        for p in cases:
            for e in (1, 2):
                box = 12 if p.ambient_rank == 2 else 9
                assert is_polyhedron_normal(p, e)[0] == brute_normal(p, e, box=box)[0]

    def test_minimal_lattice_points(self):
        p = Polyhedron.from_vertices_and_tail([(3, 0), (0, 3)], ORTHANT2)
        assert minimal_lattice_points(p) == ((0, 3), (1, 2), (2, 1), (3, 0))

    def test_minimal_lattice_points_without_the_box_enumerator(self, monkeypatch):
        """Minimal points cut the tail's translates out of each run of the
        enumeration; they are not every point of the box, filtered."""
        p = Polyhedron.from_vertices_and_tail([(2, 0, 0), (0, 3, 0), (0, 0, 7)],
                                              nonnegative_orthant(3))
        want = minimal_lattice_points(p)
        monkeypatch.setattr(convex, "lattice_points_in_box", None)
        assert minimal_lattice_points(p) == want

    @pytest.mark.parametrize("c, want", [(1, []), (-1, [(0, 1), (1, 1)])])
    def test_zero_normal_row_is_decided_up_front(self, c, want):
        """A row ((0, 0), c) holds everywhere or nowhere: 0 >= c."""
        assert convex.lattice_points([((0, 0), c)], [0, 1], [1, 1]) == want

    def test_e1_is_normal_without_enumeration(self, monkeypatch):
        p = Polyhedron.from_vertices_and_tail([(2, 0, 0), (0, 3, 0), (0, 0, 7)],
                                              nonnegative_orthant(3))
        for name in ("hilbert_basis", "lattice_points_in_box", "lattice_points",
                     "minimal_lattice_points"):
            monkeypatch.setattr(convex, name, None)
        assert is_polyhedron_normal(p, 1) == (True, None)

    def test_no_reference_cycles_left_behind(self):
        """The split search keeps its memo and point lists in no cycle, so
        they are freed on return, not by a later gc pass."""
        skew = Cone.from_rays([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 2)], 4)
        p = Polyhedron.from_vertices_and_tail(
            [(2, 2, 2, 2), (2, 3, 3, 2), (3, 2, 1, 2)], skew)
        is_polyhedron_normal(p, 2)  # fill the conversion caches first
        gc.collect()
        gc.disable()
        try:
            lattice_points_in_box(p, [0] * 4, [6] * 4)
            for e in (1, 2, 3):
                assert is_polyhedron_normal(p, e) == (True, None)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestHilbertOracle:
    def test_example_over_z_first(self):
        v = support_value_hilbert_oracle([((1, 2), 1), ((1, 0), 0), ((2, 1), 2)], (1, 2))
        assert v == -1

    def test_example_over_z_second(self):
        v = support_value_hilbert_oracle([((1, 2), -1), ((1, 0), -2), ((2, 1), -1)], (1, 0))
        assert v == 2

    def test_single_halfspace(self):
        assert support_value_hilbert_oracle([((1, 1), 0)], (1, 1)) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 3), st.data())
    def test_matches_direct_support_value(self, rank, data):
        nh = data.draw(st.integers(rank, rank + 1))
        normals, offsets = [], []
        for _ in range(nh):
            normals.append(tuple(data.draw(st.integers(0, 3)) for _ in range(rank)))
        # make sure the normals span a full-dimensional cone: add unit vectors
        normals += [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        offsets = [data.draw(st.integers(-2, 2)) for _ in normals]
        hs = [(n, o) for n, o in zip(normals, offsets) if any(n)]
        weight_cone = Cone.from_rays([n for n, _ in hs], rank)
        p = Polyhedron.from_halfspaces([(n, -o) for n, o in hs], rank)
        for m in weight_cone.rays + (vadd(weight_cone.rays[0], weight_cone.rays[-1]),):
            from polydiv.linalg import primitive
            mm = primitive(m)
            assert support_value_hilbert_oracle(hs, mm) == support_value(p, mm)


class TestEqualityFromSupportValues:
    def test_support_determines_polyhedron(self):
        # structural equality => support equality; support equality on the
        # Hilbert basis, both facet normal sets and an interior point =>
        # structural equality
        import random
        rng = random.Random(7)
        tail = ORTHANT2
        dualc = tail.dual()
        for _ in range(30):
            ps = []
            for _ in range(2):
                pts = [(F(rng.randint(-3, 3), rng.choice((1, 2))),
                        F(rng.randint(-3, 3), rng.choice((1, 2))))
                       for _ in range(rng.randint(1, 3))]
                ps.append(Polyhedron.from_vertices_and_tail(pts, tail))
            a, b = ps
            probes = set(hilbert_basis(dualc))
            probes.add(vadd(dualc.rays[0], dualc.rays[-1]))
            probes.update(n for n, _ in a.halfspaces)
            probes.update(n for n, _ in b.halfspaces)
            same_on_probes = all(support_value(a, m) == support_value(b, m) for m in probes)
            assert same_on_probes == (a == b)


class TestDenominatorLcm:
    def test_empty_is_one(self):
        assert denominator_lcm([]) == 1

    def test_mixed_ints_and_fractions(self):
        assert denominator_lcm([3, F(1, 4), F(5, 6)]) == 12
