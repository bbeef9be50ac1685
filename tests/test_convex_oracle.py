"""Differential tests of the V/H conversion, Hilbert-basis and lattice core.

The oracles are the earlier, slower routines: extreme rays by enumerating
every rank-(d-1) subset of constraints, both sides of a cone by two
conversions (``oracles.two_pass_cone``), a triangulation that rebuilds each
facet as a cone (``oracles.facet_triangulation``), fundamental
parallelepiped points by one rational solve per candidate, the all-pairs
decomposability filter, the Hilbert basis of the product loop and the
facet-by-facet degree filter (``oracles.hilbert_basis_by_graded_filter``),
and lattice points by testing every point of the box against the
homogenized cone.  Minimal lattice points come from the
definition: the box filter over the larger Hilbert-basis box, less every
point from which a Hilbert-basis element of the tail can be taken.
e-fold splitting of those minimal points is checked against a search
taken straight from the definition, so both sides report the same
witness, the first minimal point that does not split.  They are
references for the double description and its incidence, the
triangulation on ray bitmasks, the parallelepiped walk, the reductions per
simplex and up to half the degree, the pruned integer enumeration, the
ray box and interval cuts of the minimal points and the slab search in
``polydiv.convex``.
"""

import functools
import itertools
import random
from fractions import Fraction as F
from math import ceil, floor
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polydiv import convex
from polydiv.convex import (
    Cone,
    EmptyPolyhedron,
    Polyhedron,
    UnboundedLineality,
    dilate,
    hilbert_basis,
    is_polyhedron_normal,
    lattice_points_in_box,
    minimal_lattice_points,
    reachability_box,
)
from polydiv.ideals import MonomialIdeal, monomial_is_normal, newton_polyhedron
from polydiv.linalg import (
    adjugate,
    bareiss_det,
    dot,
    hnf,
    independent_rows,
    integer_kernel_basis,
    is_zero_vector,
    primitive,
    saturated_span_basis,
    vadd,
    vscale,
    vsub,
)
from oracles import (
    box_points,
    dual_generators,
    facet_triangulation,
    hilbert_basis_by_graded_filter,
    nonnegative_orthant,
    rank,
    rref,
    two_pass_cone,
    zero_cone,
)


def extreme_rays_by_subsets(constraints, dim):
    """Extreme rays of the pointed cone {c : M c >= 0} by subset enumeration.

    Every extreme ray is the kernel of a rank-(dim-1) subset of active
    constraints; the kernel vector comes from the maximal minors.
    """
    rows = sorted({primitive(r) for r in constraints if not is_zero_vector(r)})
    rays = set()
    if dim == 1:
        for cand in ((1,), (-1,)):
            if all(dot(r, cand) >= 0 for r in rows):
                rays.add(cand)
        if len(rays) == 2:
            rays = set()
        return sorted(rays)
    for subset in itertools.combinations(rows, dim - 1):
        v = tuple((-1) ** j * bareiss_det([r[:j] + r[j + 1:] for r in subset])
                  for j in range(dim))
        if is_zero_vector(v):
            continue
        v = primitive(v)
        for cand in (v, tuple(-a for a in v)):
            if cand not in rays and all(dot(r, cand) >= 0 for r in rows):
                rays.add(cand)
    out = []
    for v in rays:
        active = [r for r in rows if dot(r, v) == 0]
        if active and rank(active) == dim - 1:
            out.append(v)
    return sorted(out)


def solve(rows, rhs):
    """One exact rational solution of A x = b (free variables 0), or None."""
    ncols = len(rows[0]) if rows else 0
    x = [F(0)] * ncols
    for row in rref([list(r) + [b] for r, b in zip(rows, rhs)]):
        pc = next(c for c in range(ncols + 1) if row[c] != 0)
        if pc == ncols:
            return None
        x[pc] = row[ncols]
    return tuple(x)


def parallelepiped_points_by_solve(rays):
    """Fundamental parallelepiped points, one rational solve per candidate."""
    n = len(rays[0])
    sbasis = saturated_span_basis(rays, n)
    s = len(sbasis)
    coord_rows = [tuple(r) for r in zip(*sbasis)]
    ray_coords = [tuple(int(a) for a in solve(coord_rows, r)) for r in rays]
    diag = [next(a for a in row if a != 0) for row in hnf(ray_coords)]
    rmat_rows = [tuple(rc[j] for rc in ray_coords) for j in range(s)]
    points = []
    for cand in itertools.product(*[range(d) for d in diag]):
        lam = solve(rmat_rows, cand)
        frac = tuple(a - floor(a) for a in lam)
        span_pt = tuple(sum(f * rc[j] for f, rc in zip(frac, ray_coords)) for j in range(s))
        points.append(tuple(sum(int(c) * b[j] for c, b in zip(span_pt, sbasis))
                            for j in range(n)))
    return sorted(set(points))


def hilbert_basis_all_pairs(c):
    """Hilbert basis by the all-pairs filter over the candidates of the
    facet-rebuilding triangulation."""
    candidates = set(c.rays)
    for piece in facet_triangulation(c):
        candidates.update(p for p in parallelepiped_points_by_solve(piece) if any(p))
    return tuple(sorted(x for x in candidates
                        if not any(y != x and c.contains(vsub(x, y)) for y in candidates)))


def oracle_cone(vectors, n):
    """Cone.from_rays by two conversions with the subset-enumeration routine."""
    return two_pass_cone(vectors, n, extreme_rays_by_subsets)


@st.composite
def vector_sets(draw, min_rank=1, max_rank=5, lo=-3, hi=3):
    """Integer vectors with zero, duplicate, parallel and opposite members.

    The set may span a proper subspace (lower-dimensional cones) and may
    contain lines (non-pointed cones).
    """
    n = draw(st.integers(min_rank, max_rank))
    count = draw(st.integers(0, n + 3))
    vecs = [tuple(draw(st.integers(lo, hi)) for _ in range(n)) for _ in range(count)]
    if vecs:
        extra = draw(st.lists(st.tuples(st.integers(0, len(vecs) - 1),
                                        st.sampled_from([1, 2, -1, 0])), max_size=3))
        vecs += [tuple(k * a for a in vecs[i]) for i, k in extra]
    if draw(st.booleans()):
        # confine to the hyperplane x_0 = x_1 (or x_0 = 0 in rank 1)
        vecs = [(v[1],) + v[1:] if n > 1 else (0,) for v in vecs]
    return n, vecs


@st.composite
def lined_vector_sets(draw):
    """Vectors of rank 2..5 whose cone holds a line or a plane: +/- one or
    two lineality vectors are added, and the set may be confined to the
    subspace x_0 = x_1 = x_2, so the lines need not be coordinate axes and
    the cone need not be full-dimensional."""
    n, vecs = draw(vector_sets(min_rank=2))
    lines = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=2))
    vecs = vecs + lines + [vscale(-1, v) for v in lines]
    if n > 2 and draw(st.booleans()):
        vecs = [(v[2], v[2]) + v[2:] for v in vecs]
    return n, vecs


LINED = [
    (3, [(1, 0, 0), (-1, 0, 0), (1, 1, 0)]),
    (3, [(1, 1, 0), (-1, -1, 0), (0, 1, 1), (2, 0, 1)]),
    (4, [(1, 1, 1, 0), (-1, -1, -1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, -1, -1, 0)]),
    (2, [(1, 2), (-1, -2), (3, 1)]),
]


# Rank 6, which the strategies above stop short of: a cone of dimension 4
# (x_0 = x_1, x_5 = 0) and a full-dimensional one with a plane of lines.
RANK6_LOWER = (6, [(1, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 0), (1, 1, 1, 1, 0, 0),
                   (-1, -1, 0, 1, 1, 0), (0, 0, 1, -1, 1, 0), (2, 2, -1, 0, 1, 0)])
RANK6_LINED = (6, [(1, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0),
                   (0, -1, -1, 0, 0, 0), (0, 0, 1, 1, 0, 1), (1, 0, 0, 1, 1, 0),
                   (0, 1, 0, 0, 1, 1), (0, 0, 0, 1, 0, 0), (2, 1, 0, -1, 1, 1)])


@st.composite
def full_rank_rows(draw, max_dim=5):
    """Constraint matrices of full column rank, with repeats and +/- pairs."""
    dim = draw(st.integers(1, max_dim))
    rows = [tuple(draw(st.integers(-3, 3)) for _ in range(dim))
            for _ in range(draw(st.integers(dim, dim + 5)))]
    extra = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                    st.sampled_from([1, 3, -1, 0])), max_size=3))
    rows += [tuple(k * a for a in rows[i]) for i, k in extra]
    assume(rank(rows) == dim)
    return rows, dim


@settings(max_examples=150, deadline=None)
@given(full_rank_rows())
def test_extreme_rays_match_subset_enumeration(data):
    """On the distinct primitive rows, seeded by their first independent
    ones, the rays match, and each zero set holds exactly the rows, in
    input order, that the ray is tight on."""
    rows, dim = data
    distinct = list(dict.fromkeys(primitive(r) for r in rows if not is_zero_vector(r)))
    out = convex._extreme_rays_pointed(distinct, dim, independent_rows(distinct, dim))
    assert [v for v, _ in out] == extreme_rays_by_subsets(rows, dim)
    for v, zeros in out:
        assert zeros == sum(1 << i for i, r in enumerate(distinct) if dot(r, v) == 0)


def fresh_cone(vecs, n, halfspaces=False):
    """Cone.from_rays (or from_halfspaces) past the memo, so the conversion
    runs."""
    with mock.patch.object(convex, "_convert", convex._convert.__wrapped__):
        return Cone.from_halfspaces(vecs, n) if halfspaces else Cone.from_rays(vecs, n)


@settings(max_examples=100, deadline=None)
@given(st.one_of(vector_sets(), lined_vector_sets()))
@example(LINED[0])
@example(LINED[1])
@example(LINED[2])
@example(LINED[3])
@example(RANK6_LOWER)
@example(RANK6_LINED)
def test_from_rays_matches_oracle(data):
    n, vecs = data
    assert fresh_cone(vecs, n) == oracle_cone(vecs, n)


@settings(max_examples=80, deadline=None)
@given(st.one_of(vector_sets(), lined_vector_sets()))
@example(LINED[0])
@example(LINED[2])
@example(RANK6_LOWER)
@example(RANK6_LINED)
def test_from_halfspaces_matches_oracle(data):
    n, normals = data
    assert fresh_cone(normals, n, halfspaces=True) == oracle_cone(normals, n).dual()


@pytest.mark.parametrize("n", range(1, 7))
def test_zero_cone_and_whole_space_are_closed_forms(n):
    """With a fresh memo, the zero cone has no rays and the halfspaces
    +/- e_i, and its dual Q^n the rays +/- e_i and no halfspaces, from
    either side: no input, or +/- e_i."""
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    both = units + [vscale(-1, e) for e in units]
    zero = Cone(rays=(), halfspaces=tuple(sorted(both)), ambient_rank=n)
    assert fresh_cone([], n) == zero
    assert fresh_cone([], n, halfspaces=True) == zero.dual()
    assert fresh_cone(both, n) == zero.dual()
    assert fresh_cone(both, n, halfspaces=True) == zero


@pytest.mark.parametrize("n, vecs", LINED)
def test_cone_with_lines_rays_are_projected(n, vecs):
    """A cone with lineality L has rays +/- the HNF basis of L ∩ Z^n and
    extreme rays orthogonal to L: not an input that only differs from one
    by a vector of L."""
    c = fresh_cone(vecs, n)
    assert not c.is_pointed
    lines = integer_kernel_basis(c.halfspaces, n)
    assert set(lines) | {vscale(-1, b) for b in lines} <= set(c.rays)
    for r in c.rays:
        if vscale(-1, r) not in c.rays:
            assert all(dot(r, b) == 0 for b in lines)


@st.composite
def pointed_cones(draw):
    """Pointed cones of rank 1..5, possibly lower-dimensional."""
    n, vecs = draw(vector_sets(max_rank=5, lo=-2, hi=2))
    if n == 5:
        vecs = [tuple(min(abs(a), 1) for a in v) for v in vecs]
    c = Cone.from_rays(vecs, n)
    if not c.is_pointed:
        c = Cone.from_rays([tuple(abs(a) for a in v) for v in vecs], n)
    return c


# A rank-6 cone, found by search, on which recursing on every proper F ∩ G,
# not only on the inclusion-maximal ones, gives pieces of rank 5.  In lower
# ranks the non-maximal sets have too few rays to pass for a simplex.
RANK6 = Cone.from_rays([(1, 1, -1, -1, -1, 0), (1, 0, 1, 0, 1, 0), (1, 0, -1, 1, 1, 0),
                        (1, 0, -1, 0, -1, -1), (1, 0, 1, 1, 0, -1), (1, 0, 0, 1, 1, -1),
                        (1, 0, 1, 0, 0, -1), (1, -1, 1, -1, 1, 1), (1, 0, 0, -1, 1, -1)], 6)

# The seeded 12-ray rank-6 cone of the benchmark's cone ladder: 569 basis
# elements out of 4,830 parallelepiped points in 35 simplices.
R6N12 = Cone.from_rays([(1, 2, 1, -1, 2, -2), (2, 2, 2, -1, 0, 1), (2, 2, 1, -2, 0, -1),
                        (2, -2, 2, 0, 0, 2), (1, -1, 1, 1, -1, 2), (2, 0, -2, -1, -2, 0),
                        (2, 1, 0, 0, 2, 2), (1, -2, -2, 1, 0, 0), (2, 0, 1, 2, -2, 2),
                        (1, 2, 2, 1, 1, -2), (2, -1, 0, 0, -2, 2), (1, 2, 0, 2, -1, 0)], 6)


@st.composite
def spanning_sets(draw):
    """Vectors of rank 2..5 that span Q^n, up to 2n + 2 of them; their cone
    may hold lines."""
    n = draw(st.integers(2, 5))
    vecs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=n, max_size=2 * n + 2))
    assume(rank(vecs) == n)
    return n, vecs


def lifted(c):
    """C × {0} in rank n + 1: its rays and facets get a 0 appended, and
    +/- e_(n+1) are the normals of its lineality."""
    e = (0,) * c.ambient_rank + (1,)
    return Cone(rays=tuple(r + (0,) for r in c.rays),
                halfspaces=tuple(sorted([h + (0,) for h in c.halfspaces] + [e, vscale(-1, e)])),
                ambient_rank=c.ambient_rank + 1)


@settings(max_examples=100, deadline=None)
@given(spanning_sets())
def test_lattice_change_route_matches_direct_route(data):
    """C spans Q^n, so its double description runs on its generators
    alone; C × {0} does not, so its double description runs on the rows
    +/- e_(n+1) first, which confine it to the span.  The two agree up to
    the lift."""
    n, vecs = data
    assert fresh_cone([v + (0,) for v in vecs], n + 1) == lifted(fresh_cone(vecs, n))


def dd_extreme_rays(rows, dim):
    """The double description of ``polydiv.convex`` as the ``extreme_rays``
    of :func:`oracles.two_pass_cone`: any rows, seeded here."""
    rows =list(dict.fromkeys(primitive(r) for r in rows if not is_zero_vector(r)))
    return [v for v, _ in convex._extreme_rays_pointed(rows, dim, independent_rows(rows, dim))]


def test_rank6_routes_match_two_conversions():
    """The 12 rays of R6N12 lifted to C × {0}, a lower-dimensional input
    of rank 7, against two conversions and against R6N12 converted in rank
    6; the facets of C × {0} also against subset enumeration."""
    rays = [r + (0,) for r in R6N12.rays]
    c = fresh_cone(rays, 7)
    assert c == two_pass_cone(rays, 7, dd_extreme_rays) == lifted(fresh_cone(R6N12.rays, 6))
    assert c.halfspaces == dual_generators(tuple(rays), 7, extreme_rays_by_subsets)


@settings(max_examples=80, deadline=None)
@given(pointed_cones())
@example(RANK6)
def test_hilbert_basis_matches_all_pairs_filter(c):
    assert hilbert_basis(c) == hilbert_basis_all_pairs(c)


@settings(max_examples=80, deadline=None)
@given(pointed_cones())
@example(R6N12)
def test_hilbert_basis_matches_graded_filter(c):
    assert hilbert_basis(c) == hilbert_basis_by_graded_filter(c)


@settings(max_examples=80, deadline=None)
@given(pointed_cones())
@example(RANK6)
def test_pieces_are_full_dimensional_simplices(c):
    d = c.dim
    for piece in convex._simplicial_pieces(c):
        assert len(piece) == d == rank(piece)
        assert set(piece) <= set(c.rays)


def unpacked(packed, volume, width, count):
    """The numerators of a point packed as ``convex._parallelepiped`` packs
    them: slot i of ``width`` bits at bit width * i, biased by
    2^(width-1) - volume, nothing above the last slot."""
    assert packed >> width * count == 0
    slot, bias = (1 << width) - 1, (1 << width - 1) - volume
    return [(packed >> width * i & slot) - bias for i in range(count)]


@settings(max_examples=60, deadline=None)
@given(pointed_cones())
@example(RANK6)
def test_parallelepiped_points_match_rational_solve(c):
    """Every walked point, not only the survivors of the reduction, is
    unpacked and lifted; there are |det| of them, as the rational solve
    finds, each numerator in [0, |det|) and the degree their sum."""
    for piece in convex._simplicial_pieces(c):
        volume, width, walked = convex._parallelepiped(piece)
        points = convex._lift(piece, volume, width, [p for _, p in walked])
        assert sorted(points) == parallelepiped_points_by_solve(piece)
        assert len(walked) == volume
        # the numerators are the coefficients on the rays times the volume
        for (degree, packed), p in zip(walked, points):
            num = unpacked(packed, volume, width, len(piece))
            assert 0 <= min(num) and max(num) < volume
            assert degree == sum(num)
            assert vscale(volume, p) == tuple(sum(map(mul, num, col)) for col in zip(*piece))


@pytest.mark.parametrize("height", [7, 8, 15, 16, 31, 32])
def test_slot_width_edges_in_rank_two(height):
    """cone((1,0),(1,N)) is one simplex of volume N, a slot of
    N.bit_length() + 1 bits: the width grows from 7 to 8, 15 to 16 and 31
    to 32, and a power of two fills all but the top bit of its slot."""
    c = Cone.from_rays([(1, 0), (1, height)], 2)
    volume, width, walked = convex._parallelepiped(c.rays)
    assert volume == len(walked) == height
    assert hilbert_basis(c) == tuple((1, k) for k in range(height + 1))


@pytest.mark.parametrize("rays", [[(1, 0, 0), (0, 1, 0), (1, 1, 16)],
                                  [(4, 0, 1), (0, 4, 1), (0, 0, 1)],
                                  [(1, -2, 0), (1, 6, 0), (1, -2, 2)]],
                         ids=["cyclic", "two-generators", "index-below-order"])
def test_rank3_simplex_of_volume_16(rays):
    """Z^3 modulo the rays is Z/16 in the first simplex, one walked basis
    vector of index 16, and Z/4 x Z/4 in the second, two of index 4.  In
    the third it is Z/8 x Z/2 with e_1, e_2, e_3 at (2, 0), (1, 0), (0, 1):
    e_2 has order 8 but index 2 over the 4 points of e_1, and e_3 is still
    to come, so e_2's walk must stop at a point already walked, not at the
    origin or at the bound."""
    c = Cone.from_rays(rays, 3)
    volume, width, walked = convex._parallelepiped(c.rays)
    assert volume == len(walked) == 16
    points = convex._lift(c.rays, volume, width, [p for _, p in walked])
    assert sorted(points) == parallelepiped_points_by_solve(c.rays)
    assert hilbert_basis(c) == hilbert_basis_all_pairs(c) == hilbert_basis_by_graded_filter(c)


def test_zero_cone_and_single_ray():
    assert hilbert_basis(Cone.from_rays([], 2)) == ()
    assert hilbert_basis(Cone.from_rays([(5,)], 1)) == ((1,),)
    assert hilbert_basis(Cone.from_rays([(2, 4, -6)], 3)) == ((1, 2, -3),)


def test_rank6_lower_dimensional_hilbert_basis():
    """R6N12 embedded in rank 7 by x -> (x, x_1 + x_2), not C × {0}: each
    simplex is walked on the saturated span basis of its rays, and the
    embedding maps the monoid C ∩ Z^6 onto the cone's monoid."""
    def embed(x):
        return x + (x[0] + x[1],)
    c = Cone.from_rays([embed(r) for r in R6N12.rays], 7)
    assert hilbert_basis(c) == tuple(sorted(embed(x) for x in hilbert_basis(R6N12)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_adjugate_times_matrix_is_determinant(rows):
    """Every draw is checked: a singular one must raise."""
    n = len(rows)
    det = bareiss_det(rows)
    if det == 0:
        with pytest.raises(ValueError):
            adjugate(rows)
        return
    adj = adjugate(rows)
    for i in range(n):
        for j in range(n):
            assert dot(rows[i], [adj[k][j] for k in range(n)]) == det * (i == j)


def test_independent_rows_of_a_dense_matrix():
    """Cross-multiplication alone doubles the entries' length with every kept
    row, so 30 dense rows would not finish; the dependent row 20 is skipped."""
    rng = random.Random(7)
    rows = [tuple(rng.randint(-3, 3) for _ in range(30)) for _ in range(30)]
    assert rank(rows) == 30
    dependent = vadd(vscale(2, rows[3]), rows[17])
    assert independent_rows(rows[:20] + [dependent] + rows[20:], 30) == \
        list(range(20)) + list(range(21, 31))


def test_equal_inputs_share_one_conversion():
    """Inputs equal up to order, scaling, repeats and zeros are one memo
    entry: each build after the first is one hit and runs no conversion."""
    rng = random.Random(3)
    rays = [(1, 0, 0, 2), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 5), (2, 1, 0, 3)]
    first = Cone.from_rays(rays, 4)
    for _ in range(5):
        shuffled = rng.sample(rays, len(rays))
        scaled = [tuple(k * a for a in r) for k, r in
                  zip((rng.randint(1, 4) for _ in shuffled), shuffled)]
        before = convex._convert.cache_info()
        again = Cone.from_rays(scaled + shuffled[:2] + [(0, 0, 0, 0)], 4)
        after = convex._convert.cache_info()
        assert again == first
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert Cone.from_halfspaces(first.halfspaces[::-1], 4) == first


def test_memo_is_bounded():
    size = convex._convert.cache_info().maxsize
    memo = functools.lru_cache(maxsize=size)(convex._convert.__wrapped__)
    with mock.patch.object(convex, "_convert", memo):
        for k in range(size + 5):
            Cone.from_rays([(1, k)], 2)
        assert memo.cache_info().currsize == size


def test_fraction_inputs_are_canonicalised():
    assert Cone.from_rays([(F(1, 2), F(1, 3)), (2, 0)], 2) == \
        Cone.from_rays([(3, 2), (1, 0)], 2)
    assert primitive((F(4, 3), F(2, 3), F(0))) == (2, 1, 0)


def test_float_inputs_are_refused():
    """0.1 is not the rational 1/10: as a Fraction it would be the vertex
    3602879701896397/36028797018963968."""
    with pytest.raises(TypeError):
        Polyhedron.from_vertices_and_tail([(0.1,)], Cone.from_rays([(1,)], 1))
    with pytest.raises(TypeError):
        primitive((0.5, 1))


def lattice_points_by_box_filter(p, lo, hi):
    """Every point of the box, kept when (x, 1) lies in p's homogenization.

    Membership comes from the cone's own normals, not from the rows of p
    that :func:`lattice_points_in_box` reads."""
    return [x for x in box_points(zip(lo, hi)) if p.cone.contains(x + (1,))]


def minimal_points_by_filter(p):
    """Lattice points x of p with x - h outside p for every Hilbert-basis
    element h of the tail, by the box filter over the box around conv(V) +
    zonotope(Hilbert basis), which holds every such x."""
    hb = hilbert_basis(p.tail)
    lo, hi = reachability_box(p, hb)
    return [x for x in lattice_points_by_box_filter(p, lo, hi)
            if not any(p.contains(vsub(x, h)) for h in hb)]


def normal_by_brute_force(p, e):
    """(verdict, first non-splitting target), e = 1 included.

    The targets are the minimal lattice points of e*p, found by
    :func:`minimal_points_by_filter`.  From the definition alone: if a
    target x = m_1 + ... + m_e with every m_i a lattice point of p, then
    x - m_i is in (e-1)*p, so each m_i lies in p ∩ (B - (e-1)*p) for the
    box B of the targets.  That region is a polytope (the tail is pointed);
    its lattice points, found by the box filter over its vertex box, are
    every possible summand, and a search over them decides each target.
    """
    targets = minimal_points_by_filter(dilate(p, e))
    lo = [min(col) for col in zip(*targets)]
    hi = [max(col) for col in zip(*targets)]
    n = p.ambient_rank
    corners = itertools.product(*zip(lo, hi))
    reach = Polyhedron.from_vertices_and_tail(
        [vsub(c, vscale(e - 1, v)) for c in corners for v in p.vertices],
        Cone.from_rays([vscale(-1, r) for r in p.tail.rays], n))
    try:
        region = Polyhedron.from_halfspaces(p.halfspaces + reach.halfspaces, n)
    except EmptyPolyhedron:
        summands = []
    else:
        slo = [floor(min(v[j] for v in region.vertices)) for j in range(n)]
        shi = [ceil(max(v[j] for v in region.vertices)) for j in range(n)]
        summands = lattice_points_by_box_filter(region, slo, shi)
    summand_set = set(summands)
    dilates = {k: dilate(p, k) for k in range(1, e)}
    memo = {}
    for x in targets:
        if not splits_by_search(x, e, summands, summand_set, dilates, memo):
            return False, x
    return True, None


def splits_by_search(x, k, summands, summand_set, dilates, memo):
    """Is x a sum of k of the summands, lex-sorted lattice points of p?

    Some summand of a k-fold sum has its first coordinate at most x_0 / k,
    so the first summand is tried in that range only, and the remainder
    must lie in dilates[k-1] = (k-1)*p.
    """
    if k == 1:
        return x in summand_set
    if (x, k) not in memo:
        first = itertools.takewhile(lambda m: not m or k * m[0] <= x[0], summands)
        memo[x, k] = any(
            dilates[k - 1].contains(y)
            and splits_by_search(y, k - 1, summands, summand_set, dilates, memo)
            for y in (vsub(x, m) for m in first))
    return memo[x, k]


@st.composite
def polyhedra(draw, min_rank=0, max_rank=4, integral=True):
    """Polyhedra of rank min_rank..max_rank with a pointed tail, possibly skew.

    Tail rays lie in the open halfspace where x_0 + sum(x) > 0, so the
    tail is pointed without being an orthant.  About a third of the tails
    drawn are one ray, the shape on which the light bound of
    :func:`is_polyhedron_normal` is tight.  Confining everything to the
    hyperplane x_0 = x_1 gives lower-dimensional polyhedra, whose
    descriptions hold equalities.  Unless ``integral``, vertices have
    denominators 2 and 3.
    """
    n = draw(st.integers(min_rank, max_rank))
    bound = 3 if n < 3 else 2 if n < 4 else 1
    if integral:
        coord = st.integers(-bound, bound)
    else:
        coord = st.builds(F, st.integers(-2 * bound, 2 * bound), st.sampled_from([1, 2, 3]))
    verts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=4))
    rays = draw(st.lists(st.tuples(*[st.integers(-1, 2)] * n), max_size=3))
    if n > 1 and draw(st.booleans()):
        verts = [(v[1],) + v[1:] for v in verts]
        rays = [(r[1],) + r[1:] for r in rays]
    rays = [r for r in rays if n and r[0] + sum(r) > 0]
    return Polyhedron.from_vertices_and_tail(verts, Cone.from_rays(rays, n))


@st.composite
def sparse_simplices(draw):
    """Rank-3 simplices with few lattice points, where splitting fails often.

    Either conv(0, e1, e2, (a, b, c)), Reeve-like, as a polytope, or the
    Newton polyhedron conv(a e1, b e2, c e3) + orthant of a monomial ideal;
    each moved by a lattice translation.
    """
    a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    c = draw(st.integers(1, 5))
    shift = draw(st.tuples(*[st.integers(-2, 2)] * 3))
    if draw(st.booleans()):
        verts, tail = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (a, b, c)], zero_cone(3)
    else:
        verts, tail = [(a + 1, 0, 0), (0, b + 1, 0), (0, 0, c)], nonnegative_orthant(3)
    return Polyhedron.from_vertices_and_tail([vadd(v, shift) for v in verts], tail)


@st.composite
def boxes(draw, n):
    """Boxes of rank n: empty (some hi < lo), one-point, or a few wide."""
    lo = draw(st.lists(st.integers(-4, 3), min_size=n, max_size=n))
    width = draw(st.sampled_from([-1, 0, 1, 2, 5]))
    widths = draw(st.lists(st.integers(0, width), min_size=n, max_size=n)) \
        if width > 0 else [width] * n
    return lo, [a + w for a, w in zip(lo, widths)]


@settings(max_examples=200, deadline=None)
@given(st.data(), polyhedra(integral=False))
def test_lattice_points_match_box_filter(data, p):
    lo, hi = data.draw(boxes(p.ambient_rank))
    want = lattice_points_by_box_filter(p, lo, hi)
    assert lattice_points_in_box(p, lo, hi) == want


REEVE = Polyhedron.from_vertices_and_tail(
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 3)], zero_cone(3))
# a tail with the lex-negative Hilbert-basis element (-1, 2, 1)
LEX_NEGATIVE = Polyhedron.from_vertices_and_tail(
    [(2, 0, 0), (0, 3, 0), (0, 0, 7)], Cone.from_rays([(0, 1, 0), (0, 0, 1), (-1, 2, 1)], 3))


@settings(max_examples=150, deadline=None)
@given(polyhedra(integral=False))
@example(Polyhedron.from_vertices_and_tail([(F(1, 2), 0), (2, F(5, 3)), (-1, 1)], zero_cone(2)))
@example(Polyhedron.from_vertices_and_tail([(0, 0), (0, 1)], Cone.from_rays([(2, 1)], 2)))
@example(Polyhedron.from_vertices_and_tail([()], zero_cone(0)))
@example(REEVE)
@example(Polyhedron.from_vertices_and_tail([(2, 0, 0), (0, 3, 0), (0, 0, 7)],
                                           nonnegative_orthant(3)))
@example(LEX_NEGATIVE)
@example(Polyhedron.from_vertices_and_tail([(0, 1, 0), (0, 1, 10), (1, 0, 5)],
                                           Cone.from_rays([(1, 0, 0), (0, 1, 0)], 3)))
def test_minimal_lattice_points_match_filter(p):
    """The second example's minimal point (1, 1) is outside the box of the
    vertices: a box without the rays' zonotope misses it.  The rank-0
    point has no coordinate to cut runs of; REEVE is a polytope, whose runs
    are kept whole; the orthant Newton polyhedron has rows without the last
    coordinate, which hold or fail for a whole run; LEX_NEGATIVE's Hilbert
    basis holds (-1, 2, 1).  In the last example, on the run x = (1, 1, t),
    the t with x - e_1 in p, only 5, lie inside those with x - e_0 in p,
    0..10: the cuts are nested."""
    assert minimal_lattice_points(p) == tuple(minimal_points_by_filter(p))


@settings(max_examples=60, deadline=None)
@given(sparse_simplices(), st.sampled_from([2, 3]))
def test_minimal_points_of_dilates_match_filter(p, e):
    """The targets :func:`is_polyhedron_normal` splits are the minimal
    points of e*p."""
    q = dilate(p, e)
    assert minimal_lattice_points(q) == tuple(minimal_points_by_filter(q))


@settings(max_examples=150, deadline=None)
@given(polyhedra(integral=False))
def test_rows_are_an_irredundant_description(p):
    """The rows rebuild p, and each is needed: without it the polyhedron
    grows, or its recession cone holds a line."""
    n, rows = p.ambient_rank, p.halfspaces
    assert Polyhedron.from_halfspaces(rows, n) == p
    for i in range(len(rows)):
        try:
            assert Polyhedron.from_halfspaces(rows[:i] + rows[i + 1:], n) != p
        except UnboundedLineality:
            pass


@settings(max_examples=80, deadline=None)
@given(st.one_of(polyhedra(max_rank=3), sparse_simplices()), st.integers(1, 3))
@example(REEVE, 2)
@example(Polyhedron.from_vertices_and_tail(
    [(2, 0, 0), (0, 3, 0), (0, 0, 7)], nonnegative_orthant(3)), 2)
@example(Polyhedron.from_vertices_and_tail(
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], Cone.from_rays([(1, 1, 2)], 3)), 3)
@example(Polyhedron.from_vertices_and_tail([(2, 1), (-2, -1)], Cone.from_rays([(1, 0)], 2)), 2)
@example(LEX_NEGATIVE, 2)
def test_normality_matches_brute_force_splitting(p, e):
    assert is_polyhedron_normal(p, e) == normal_by_brute_force(p, e)


SKEW4 = Cone.from_rays([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 2)], 4)


@settings(max_examples=25, deadline=None)
@given(polyhedra(min_rank=4), st.integers(1, 2))
@example(Polyhedron.from_vertices_and_tail([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], SKEW4), 3)
@example(Polyhedron.from_vertices_and_tail([(1, 0, 0, 1), (0, 1, 1, 0)], SKEW4), 3)
@example(Polyhedron.from_vertices_and_tail(
    [(2, 0, 2, 3), (1, 1, 2, 0), (2, 2, 0, 2)], SKEW4), 3)
def test_rank4_normality_matches_brute_force_splitting(p, e):
    """Drawn cases stop at e = 2, where the oracle is fast; the examples
    search three summands on the skew tail of the ideal-normality workload,
    and the last is not normal (witness (5, 3, 5, 3))."""
    assert is_polyhedron_normal(p, e) == normal_by_brute_force(p, e)


def test_brute_force_oracle_can_fail():
    assert not normal_by_brute_force(REEVE, 2)[0]
    assert is_polyhedron_normal(REEVE, 2) == normal_by_brute_force(REEVE, 2)
    assert normal_by_brute_force(LEX_NEGATIVE, 2) == (False, (1, 2, 6))


@st.composite
def skew_ideals(draw):
    """Monomial ideals on full-dimensional, pointed, non-orthant rank-3 cones.

    Exponents are small combinations of the rays, or one multiple of each
    ray; the second kind is often not normal.
    """
    rays = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=3, max_size=4))
    cone = Cone.from_rays(rays, 3)
    assume(cone.is_full_dimensional and cone != nonnegative_orthant(3))
    if draw(st.booleans()):
        exps = [vscale(draw(st.integers(1, 3)), r) for r in cone.rays]
    else:
        coeffs = draw(st.lists(st.lists(st.integers(0, 2), min_size=len(cone.rays),
                                        max_size=len(cone.rays)), min_size=1, max_size=3))
        exps = [tuple(sum(k * r[j] for k, r in zip(c, cone.rays)) for j in range(3))
                for c in coeffs]
    return MonomialIdeal.of(cone, exps)


SKEW3 = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3)


@settings(max_examples=15, deadline=None)
@given(skew_ideals())
@example(MonomialIdeal.of(SKEW3, [(1, 0, 0), (0, 2, 0), (3, 3, 6)]))
@example(MonomialIdeal.of(Cone.from_rays([(0, 1, 1), (1, 0, 1), (1, 1, 0)], 3),
                          [(0, 1, 1), (2, 0, 2), (3, 3, 0)]))
def test_normality_bound_holds_on_skew_rank3_cones(ideal):
    """monomial_is_normal checks e <= rank - 1; brute force goes to rank + 1."""
    p = newton_polyhedron(ideal)
    assert monomial_is_normal(ideal)[0] == \
        all(normal_by_brute_force(p, e)[0] for e in range(1, ideal.rank + 2))
