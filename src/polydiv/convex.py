"""Cones and polyhedra with exact rational arithmetic.

A :class:`Cone` keeps both a minimal generating set ("rays") and a minimal
set of inner halfspace normals; both are canonical (primitive, lex-sorted),
so equality of cones is structural equality.  A :class:`Polyhedron` is a
Minkowski sum Conv(vertices) + tail cone, again stored in canonical form
together with its irredundant inequality description.

All conversions go through one deterministic double-description routine
based on enumerating rank-(d-1) subsets of constraints, which is entirely
adequate at the intended scale (ambient rank <= 6).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Iterable, Iterator, Sequence

from .linalg import (
    IVec,
    Vec,
    bareiss_det,
    dot,
    hnf,
    integer_kernel_basis,
    is_zero_vector,
    primitive,
    rank,
    saturated_span_basis,
    solve,
    to_fraction_vector,
    vadd,
    vscale,
    vsub,
)


class GeometryError(ValueError):
    """Base class for geometric precondition failures."""


class NotPointed(GeometryError):
    pass


class EmptyPolyhedron(GeometryError):
    pass


class UnboundedLineality(GeometryError):
    pass


class TailMismatch(GeometryError):
    pass


class NonIntegralVertices(GeometryError):
    pass


class Unbounded(GeometryError):
    pass


def _dual_generators(generators: Sequence[IVec], ambient: int) -> tuple[IVec, ...]:
    """Minimal generating set of {y : <g, y> >= 0 for all g}.

    Deterministic and canonical: the lineality part (orthogonal complement
    of span(generators)) contributes +/- the HNF basis of its lattice, the
    pointed part contributes its primitive extreme rays.
    """
    gens = [g for g in generators if not is_zero_vector(g)]
    out: list[IVec] = []
    lin = integer_kernel_basis(gens, ambient) if gens else [
        tuple(int(i == j) for j in range(ambient)) for i in range(ambient)]
    for b in lin:
        out.append(tuple(b))
        out.append(tuple(-a for a in b))
    if not gens:
        return tuple(sorted(set(out)))
    # pointed part lives in S = span(generators); work in coordinates of S
    sbasis = saturated_span_basis(gens, ambient)
    s = len(sbasis)
    if s == 0:
        return tuple(sorted(set(out)))
    # constraint matrix in S-coordinates: row per generator
    mat = [tuple(dot(g, b) for b in sbasis) for g in gens]
    for c in _extreme_rays_pointed(mat, s):
        y = tuple(sum(ci * bi for ci, bi in zip(c, col)) for col in zip(*sbasis))
        out.append(primitive(y))
    return tuple(sorted(set(out)))


def _extreme_rays_pointed(constraints: Sequence[Sequence], dim: int) -> list[IVec]:
    """Extreme rays of the pointed cone {c in Q^dim : M c >= 0}.

    Every extreme ray of a pointed cone is the kernel of a rank-(dim-1)
    subset of active constraints, so subset enumeration is exhaustive.
    The kernel vector of a (dim-1) x dim integer matrix is computed from
    its maximal minors (fraction-free).
    """
    rows = sorted({primitive(r) for r in constraints if not is_zero_vector(r)})
    rays: set[IVec] = set()
    if dim == 1:
        for cand in ((1,), (-1,)):
            if all(dot(r, cand) >= 0 for r in rows):
                rays.add(cand)
        if len(rays) == 2:  # would be a line: cone not pointed here
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
    # drop non-extreme candidates: r is extreme iff its active set has rank dim-1
    out = []
    for v in rays:
        active = [r for r in rows if dot(r, v) == 0]
        if active and rank(active) == dim - 1:
            out.append(v)
    return sorted(out)


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone, canonical dual pair of descriptions.

    ``rays`` is a minimal generating set (the extreme rays when the cone is
    pointed), ``halfspaces`` a minimal set of inner normals; each list is
    the canonical generating set of the other's dual cone.
    """

    rays: tuple[IVec, ...]
    halfspaces: tuple[IVec, ...]
    ambient_rank: int

    @staticmethod
    def from_rays(vectors: Iterable[Sequence], ambient_rank: int) -> "Cone":
        vecs = [primitive(v) for v in vectors]
        vecs = [v for v in vecs if not is_zero_vector(v)]
        for v in vecs:
            if len(v) != ambient_rank:
                raise GeometryError("ray of wrong length")
        hs = _dual_generators(vecs, ambient_rank)
        rays = _dual_generators(hs, ambient_rank)
        return Cone(rays=rays, halfspaces=hs, ambient_rank=ambient_rank)

    @staticmethod
    def from_halfspaces(normals: Iterable[Sequence], ambient_rank: int) -> "Cone":
        return Cone.from_rays(normals, ambient_rank).dual()

    @staticmethod
    def zero(ambient_rank: int) -> "Cone":
        return Cone.from_rays([], ambient_rank)

    @staticmethod
    def full(ambient_rank: int) -> "Cone":
        return Cone.from_halfspaces([], ambient_rank)

    @staticmethod
    def nonnegative_orthant(ambient_rank: int) -> "Cone":
        eye = [tuple(int(i == j) for j in range(ambient_rank)) for i in range(ambient_rank)]
        return Cone.from_rays(eye, ambient_rank)

    def contains(self, v: Sequence) -> bool:
        return all(dot(h, v) >= 0 for h in self.halfspaces)

    @property
    def is_pointed(self) -> bool:
        return all(tuple(-a for a in r) not in set(self.rays) for r in self.rays)

    @property
    def dim(self) -> int:
        return rank(self.rays) if self.rays else 0

    @property
    def is_full_dimensional(self) -> bool:
        return self.dim == self.ambient_rank

    def dual(self) -> "Cone":
        return Cone(rays=self.halfspaces, halfspaces=self.rays,
                    ambient_rank=self.ambient_rank)

    def facet_ray_sets(self) -> list[tuple[IVec, tuple[IVec, ...]]]:
        """(normal, rays on the facet) for each proper facet."""
        out = []
        for h in self.halfspaces:
            tight = tuple(r for r in self.rays if dot(h, r) == 0)
            if len(tight) < len(self.rays):
                out.append((h, tight))
        return out

    def __repr__(self) -> str:
        return f"Cone(rays={list(self.rays)})"


def _simplicial_pieces(c: Cone) -> list[tuple[IVec, ...]]:
    """Star triangulation of a pointed cone into simplicial subcones."""
    d = c.dim
    rays = c.rays
    if len(rays) <= d:
        return [rays] if rays else []
    apex = rays[0]
    pieces = []
    for normal, tight in c.facet_ray_sets():
        if dot(normal, apex) == 0:
            continue
        facet = Cone.from_rays(tight, c.ambient_rank)
        for simplex in _simplicial_pieces(facet):
            piece = (apex,) + simplex
            if rank(piece) == d:
                pieces.append(piece)
    return pieces


def box_points(box: Iterable[tuple[int, int]]) -> Iterator[IVec]:
    """Lattice points of the box given by one (lo, hi) pair per coordinate."""
    return itertools.product(*[range(lo, hi + 1) for lo, hi in box])


def _parallelepiped_points(rays: Sequence[IVec]) -> list[IVec]:
    """Lattice points of {sum l_i r_i : 0 <= l_i < 1} for independent rays.

    Enumerates one representative per class of (Z^n ∩ span) / Z-span(rays):
    candidates run over the box cut out by the HNF pivots, each is reduced
    into the half-open parallelepiped by taking fractional coordinates.
    """
    n = len(rays[0])
    sbasis = saturated_span_basis(rays, n)
    s = len(sbasis)
    # rays in coordinates of the saturated span lattice (integral by saturation)
    coord_rows = [tuple(r) for r in zip(*sbasis)]  # j-th row: j-th coords of basis
    ray_coords = []
    for r in rays:
        lam = solve(coord_rows, r)
        ray_coords.append(tuple(int(a) for a in lam))
    h = hnf(ray_coords)
    diag = []
    for row in h:
        pc = next(c for c in range(s) if row[c] != 0)
        diag.append(row[pc])
    rmat_rows = [tuple(rc[j] for rc in ray_coords) for j in range(s)]
    points = []
    for cand in itertools.product(*[range(d) for d in diag]):
        lam = solve(rmat_rows, cand)
        frac = tuple(l - floor(l) for l in lam)
        span_pt = tuple(sum(f * rc[j] for f, rc in zip(frac, ray_coords))
                        for j in range(s))
        ambient = tuple(sum(int(c) * b[j] for c, b in zip(span_pt, sbasis))
                        for j in range(n))
        points.append(ambient)
    return sorted(set(points))


def hilbert_basis(c: Cone) -> tuple[IVec, ...]:
    """Unique minimal generating set of the monoid c ∩ Z^n.

    Triangulates into simplicial subcones, collects fundamental
    parallelepiped points and ray generators, then filters out
    decomposable elements (the monoid is saturated, so membership in the
    cone decides membership in the monoid).
    """
    if not c.is_pointed:
        raise NotPointed("Hilbert basis requires a pointed cone")
    candidates: set[IVec] = set(c.rays)
    for piece in _simplicial_pieces(c):
        for p in _parallelepiped_points(piece):
            if not is_zero_vector(p):
                candidates.add(p)
    basis = []
    for x in candidates:
        decomposable = any(
            y != x and not is_zero_vector(vsub(x, y)) and c.contains(vsub(x, y))
            for y in candidates)
        if not decomposable:
            basis.append(x)
    return tuple(sorted(basis))


Halfspace = tuple[IVec, Fraction]  # inequality <normal, x> >= offset


def _canonical_halfspace(normal: Sequence, offset) -> Halfspace:
    p = primitive(normal)
    f = next(Fraction(b) / a for a, b in zip(p, normal) if a != 0)
    # f is the positive scale with normal = f * p
    return p, Fraction(offset) / f


@dataclass(frozen=True)
class Polyhedron:
    """Conv(vertices) + tail, tail a pointed cone; canonical and irredundant."""

    vertices: tuple[Vec, ...]
    tail: Cone
    halfspaces: tuple[Halfspace, ...]

    @staticmethod
    def from_vertices_and_tail(points: Iterable[Sequence], tail: Cone) -> "Polyhedron":
        pts = [to_fraction_vector(p) for p in points]
        if not pts:
            raise EmptyPolyhedron("a polyhedron needs at least one point")
        if not tail.is_pointed:
            raise UnboundedLineality("tail cone must be pointed")
        n = tail.ambient_rank
        homog = [p + (Fraction(1),) for p in pts] + \
                [to_fraction_vector(r) + (Fraction(0),) for r in tail.rays]
        cone = Cone.from_rays(homog, n + 1)
        return Polyhedron._from_homogenized(cone, n, tail_hint=tail)

    @staticmethod
    def from_halfspaces(inequalities: Iterable[tuple[Sequence, object]],
                        ambient_rank: int,
                        tail_hint: Cone | None = None) -> "Polyhedron":
        """Polyhedron {x : <n_i, x> >= c_i}; must be nonempty with pointed recession."""
        ineqs = [(to_fraction_vector(nrm), Fraction(c)) for nrm, c in inequalities]
        homog_normals = [nrm + (-c,) for nrm, c in ineqs]
        homog_normals.append(tuple([Fraction(0)] * ambient_rank + [Fraction(1)]))
        cone = Cone.from_halfspaces(homog_normals, ambient_rank + 1)
        return Polyhedron._from_homogenized(cone, ambient_rank, tail_hint=tail_hint)

    @staticmethod
    def _from_homogenized(cone: Cone, n: int, tail_hint: Cone | None) -> "Polyhedron":
        verts = []
        tail_rays = []
        for r in cone.rays:
            if r[n] > 0:
                verts.append(tuple(Fraction(a, r[n]) for a in r[:n]))
            elif r[n] == 0:
                tail_rays.append(r[:n])
            else:  # r[n] < 0 cannot occur: t >= 0 is one of the constraints
                raise GeometryError("negative homogenizing coordinate")
        if not verts:
            raise EmptyPolyhedron("inequality system has no solutions")
        if not cone.is_pointed:
            raise UnboundedLineality("polyhedron contains a line")
        tail = Cone.from_rays(tail_rays, n)
        if tail_hint is not None and tail != tail_hint:
            raise TailMismatch(f"recession cone {tail} differs from expected {tail_hint}")
        hs = []
        for h in cone.halfspaces:
            if is_zero_vector(h[:n]):
                continue  # the homogenizing constraint t >= 0
            hs.append(_canonical_halfspace(h[:n], -Fraction(h[n])))
        return Polyhedron(vertices=tuple(sorted(verts)), tail=tail,
                          halfspaces=tuple(sorted(hs)))

    @staticmethod
    def cone_as_polyhedron(tail: Cone) -> "Polyhedron":
        zero = tuple(Fraction(0) for _ in range(tail.ambient_rank))
        return Polyhedron.from_vertices_and_tail([zero], tail)

    @property
    def ambient_rank(self) -> int:
        return self.tail.ambient_rank

    def contains(self, x: Sequence) -> bool:
        return all(dot(nrm, x) >= c for nrm, c in self.halfspaces)

    @property
    def has_integral_vertices(self) -> bool:
        return all(a.denominator == 1 for v in self.vertices for a in v)

    def __repr__(self) -> str:
        vs = [tuple(str(a) for a in v) for v in self.vertices]
        return f"Polyhedron(vertices={vs}, tail={list(self.tail.rays)})"


def minkowski_sum(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    if p.ambient_rank != q.ambient_rank:
        raise GeometryError("ambient rank mismatch")
    tail = Cone.from_rays(p.tail.rays + q.tail.rays, p.ambient_rank)
    if not tail.is_pointed:
        raise UnboundedLineality("sum of tails is not pointed")
    sums = [vadd(a, b) for a in p.vertices for b in q.vertices]
    return Polyhedron.from_vertices_and_tail(sums, tail)


def support_value(p: Polyhedron, m: Sequence) -> Fraction:
    """min over p of <m, x>; finite exactly when m lies in the dual of the tail."""
    if not all(dot(m, r) >= 0 for r in p.tail.rays):
        raise Unbounded(f"direction {m} is unbounded below on the polyhedron")
    return min(dot(m, v) for v in p.vertices)


def dilate(p: Polyhedron, e: int) -> Polyhedron:
    """Minkowski sum of e copies of p (homothety); e = 0 gives the tail cone."""
    if e < 0:
        raise GeometryError("dilation factor must be >= 0")
    if e == 0:
        return Polyhedron.cone_as_polyhedron(p.tail)
    if e == 1:
        return p
    return Polyhedron.from_vertices_and_tail(
        [vscale(e, v) for v in p.vertices], p.tail)


def lattice_points_in_box(p: Polyhedron, lo: Sequence[int], hi: Sequence[int]) -> list[IVec]:
    return [x for x in box_points(zip(lo, hi)) if p.contains(x)]


def reachability_box(p: Polyhedron, hilbert: Sequence[IVec]) -> tuple[list[int], list[int]]:
    """Coordinate box containing conv(vertices) + zonotope(hilbert).

    Every minimal lattice point of p (one with no Hilbert-basis element of
    the tail splittable off) lies in this region.
    """
    n = p.ambient_rank
    lo, hi = [], []
    for j in range(n):
        vj = [v[j] for v in p.vertices]
        lo.append(floor(min(vj) + sum(min(0, h[j]) for h in hilbert)))
        hi.append(ceil(max(vj) + sum(max(0, h[j]) for h in hilbert)))
    return lo, hi


def minimal_lattice_points(p: Polyhedron) -> tuple[IVec, ...]:
    """Lattice points of p not of the form q + s with q in p, s nonzero in the tail monoid."""
    hb = hilbert_basis(p.tail)
    lo, hi = reachability_box(p, hb)
    out = []
    for x in lattice_points_in_box(p, lo, hi):
        if not any(p.contains(vsub(x, h)) for h in hb):
            out.append(x)
    return tuple(sorted(out))


def is_polyhedron_normal(p: Polyhedron, e: int) -> tuple[bool, IVec | None]:
    """Does every lattice point of e*p split into e lattice points of p?

    Enumeration is restricted to conv(e*vertices) + zonotope(Hilbert basis
    of the tail): any lattice point of e*p outside that region splits off a
    Hilbert-basis element h with x - h still in e*p, and both membership in
    e*p and e-fold decomposability are stable under adding h back.  The
    summands of any such point lie in a slab of p cut by a weight strictly
    positive on the tail, so one sumset computation settles all points.
    Returns (verdict, witness point) where the witness is a non-splitting
    lattice point when the verdict is False.
    """
    if not p.has_integral_vertices:
        raise NonIntegralVertices("normality is defined for lattice polyhedra")
    if e < 1:
        raise GeometryError("dilation exponent must be >= 1")
    n = p.ambient_rank
    scaled = dilate(p, e)
    hb = hilbert_basis(p.tail)
    lo, hi = reachability_box(scaled, hb)
    targets = lattice_points_in_box(scaled, lo, hi)
    if e == 1:
        return True, None  # targets are lattice points of p by construction
    if not targets:
        return True, None
    weight = tuple(sum(col) for col in zip(*p.tail.dual().rays))
    wmin = min(dot(weight, v) for v in p.vertices)
    wmax = max(dot(weight, x) for x in targets)
    bound = wmax - (e - 1) * wmin
    # lattice points of p in the slab <weight, .> <= bound hold every possible summand
    try:
        slab = Polyhedron.from_halfspaces(
            list(p.halfspaces) + [(vscale(-1, weight), -bound)], n)
    except EmptyPolyhedron:
        return False, targets[0]
    slo = [floor(min(v[j] for v in slab.vertices)) for j in range(n)]
    shi = [ceil(max(v[j] for v in slab.vertices)) for j in range(n)]
    summands = lattice_points_in_box(slab, slo, shi)
    summands.sort(key=lambda m: dot(weight, m))
    memo: dict = {}

    def splits(x: IVec, k: int) -> bool:
        if k == 1:
            return p.contains(x)
        key = (x, k)
        if key in memo:
            return memo[key]
        cap = dot(weight, x) - (k - 1) * wmin
        ok = False
        for m in summands:
            if dot(weight, m) > cap:
                break
            if splits(vsub(x, m), k - 1):
                ok = True
                break
        memo[key] = ok
        return ok

    for x in targets:
        if not splits(x, e):
            return False, x
    return True, None


def support_value_hilbert_oracle(halfspace_data: Sequence[tuple[IVec, object]],
                                 m: IVec) -> Fraction:
    """Support value of {v : <m_i, v> >= -e_i} at primitive m, via Hilbert bases.

    Lifts the ray L = Q>=0*m to the cone {s in Q^r_{>=0} : sum s_i m_i in L},
    takes its Hilbert basis H_L, keeps the elements with sum s_i m_i != 0,
    and returns -min of (sum s_i e_i) / lambda(s) where sum s_i m_i =
    lambda(s) * m.  Independent route to the same value as
    :func:`support_value` on the polyhedron built from the same data.
    """
    normals = [tuple(v) for v, _ in halfspace_data]
    offsets = [Fraction(e) for _, e in halfspace_data]
    r = len(normals)
    n = len(m)
    ineqs: list[tuple[int, ...]] = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    # sum s_i m_i parallel to m: all 2x2 minors with m vanish
    for j in range(n):
        for k in range(j + 1, n):
            row = tuple(normals[i][j] * m[k] - normals[i][k] * m[j] for i in range(r))
            if not is_zero_vector(row):
                ineqs.append(row)
                ineqs.append(tuple(-a for a in row))
    # orientation: <sum s_i m_i, m> >= 0
    ineqs.append(tuple(sum(normals[i][j] * m[j] for j in range(n)) for i in range(r)))
    cone = Cone.from_halfspaces(ineqs, r)
    values = []
    for s in hilbert_basis(cone):
        image = tuple(sum(s[i] * normals[i][j] for i in range(r)) for j in range(n))
        if is_zero_vector(image):
            continue
        lam = next(Fraction(image[j], m[j]) for j in range(n) if m[j] != 0)
        values.append(sum(Fraction(s[i]) * offsets[i] for i in range(r)) / lam)
    if not values:
        raise Unbounded(f"direction {m} not in the cone spanned by the normals")
    return -min(values)


def project_out_last(p: Polyhedron) -> Polyhedron:
    """Orthogonal projection of p along the last coordinate axis."""
    n = p.ambient_rank - 1
    verts = [v[:n] for v in p.vertices]
    tail = Cone.from_rays([r[:n] for r in p.tail.rays], n)
    return Polyhedron.from_vertices_and_tail(verts, tail)
