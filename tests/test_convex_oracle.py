"""Differential tests of the V/H conversion and Hilbert-basis core.

The oracles are the earlier, slower routines: extreme rays by enumerating
every rank-(d-1) subset of constraints, fundamental parallelepiped points by
one rational solve per candidate, and the all-pairs decomposability filter.
They live here only, as references for the double description, the
adjugate reduction and the degree-sorted filter in ``polydiv.convex``.
"""

import itertools
import random
from fractions import Fraction as F
from math import floor
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from polydiv import convex
from polydiv.convex import Cone, hilbert_basis
from polydiv.linalg import (
    adjugate,
    bareiss_det,
    dot,
    hnf,
    is_zero_vector,
    primitive,
    rank,
    saturated_span_basis,
    solve,
    vsub,
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
    """Hilbert basis by the all-pairs filter over the same candidates."""
    candidates = set(c.rays)
    for piece in convex._simplicial_pieces(c):
        candidates.update(p for p in parallelepiped_points_by_solve(piece) if any(p))
    return tuple(sorted(x for x in candidates
                        if not any(y != x and c.contains(vsub(x, y)) for y in candidates)))


def oracle_cone(vectors, n):
    """Cone.from_rays with the subset-enumeration routine and no memo."""
    gens = tuple(sorted({primitive(v) for v in vectors} - {(0,) * n}))
    with mock.patch.object(convex, "_extreme_rays_pointed", extreme_rays_by_subsets):
        dual = convex._dual_generators.__wrapped__
        hs = dual(gens, n)
        return Cone(rays=dual(hs, n), halfspaces=hs, ambient_rank=n)


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
    rows, dim = data
    assert convex._extreme_rays_pointed(rows, dim) == extreme_rays_by_subsets(rows, dim)


@settings(max_examples=100, deadline=None)
@given(vector_sets())
def test_from_rays_matches_oracle(data):
    n, vecs = data
    assert Cone.from_rays(vecs, n) == oracle_cone(vecs, n)


@settings(max_examples=60, deadline=None)
@given(vector_sets())
def test_from_halfspaces_matches_oracle(data):
    n, normals = data
    assert Cone.from_halfspaces(normals, n) == oracle_cone(normals, n).dual()


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


@settings(max_examples=80, deadline=None)
@given(pointed_cones())
def test_hilbert_basis_matches_all_pairs_filter(c):
    assert hilbert_basis(c) == hilbert_basis_all_pairs(c)


@settings(max_examples=60, deadline=None)
@given(pointed_cones())
def test_parallelepiped_points_match_rational_solve(c):
    for piece in convex._simplicial_pieces(c):
        assert sorted(convex._parallelepiped_points(piece)) == \
            parallelepiped_points_by_solve(piece)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_adjugate_times_matrix_is_determinant(rows):
    n = len(rows)
    adj = adjugate(rows)
    det = bareiss_det(rows)
    for i in range(n):
        for j in range(n):
            assert dot(rows[i], [adj[k][j] for k in range(n)]) == det * (i == j)


def test_equal_inputs_share_one_conversion():
    rng = random.Random(3)
    rays = [(1, 0, 0, 2), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 1, 5), (2, 1, 0, 3)]
    first = Cone.from_rays(rays, 4)
    for _ in range(5):
        shuffled = rng.sample(rays, len(rays))
        scaled = [tuple(k * a for a in r) for k, r in
                  zip((rng.randint(1, 4) for _ in shuffled), shuffled)]
        before = convex._dual_generators.cache_info()
        again = Cone.from_rays(scaled + shuffled[:2] + [(0, 0, 0, 0)], 4)
        after = convex._dual_generators.cache_info()
        assert again == first
        assert after.hits == before.hits + 2 and after.misses == before.misses
    assert Cone.from_halfspaces(first.halfspaces[::-1], 4) == first


def test_fraction_inputs_are_canonicalised():
    assert Cone.from_rays([(F(1, 2), F(1, 3)), (2, 0)], 2) == \
        Cone.from_rays([(3, 2), (1, 0)], 2)
