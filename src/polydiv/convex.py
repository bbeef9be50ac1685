"""Cones and polyhedra with exact rational arithmetic.

A :class:`Cone` keeps both a minimal generating set ("rays") and a minimal
set of inner halfspace normals; both are canonical (primitive, lex-sorted),
so equality of cones is structural equality.  A :class:`Polyhedron`,
Conv(vertices) + tail cone, is stored as one such cone, its homogenization;
its vertices, tail rays and integer inequalities (irredundant in every
dimension) are read off that cone's two descriptions.

All conversions go through one routine, :func:`_dual_generators`: it splits
off the lineality space with an integer kernel basis and finds the extreme
rays of the pointed part by incremental double description with the
combinatorial adjacency test (Fukuda & Prodon, "Double description method
revisited", 1996), fraction-free.  Its result depends only on the set of
primitive generators, so it is memoised on that canonical input.  Hilbert
bases come from a triangulation and the fundamental parallelepipeds of its
simplices, reduced in order of a positive grading as in the primal
algorithm of Normaliz (Bruns & Ichim, J. Algebra 2010).
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd
from operator import mul, sub
from typing import Iterable, Iterator, Sequence

from .linalg import (
    IVec,
    Vec,
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


# Distinct conversion inputs kept: one pass over the paper's fixtures has
# about a hundred, and every entry holds only small integer tuples.
_DUAL_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=_DUAL_CACHE_SIZE)
def _dual_generators(generators: tuple[IVec, ...], ambient: int) -> tuple[IVec, ...]:
    """Minimal generating set of {y : <g, y> >= 0 for all g}.

    ``generators`` is the canonical input: a sorted tuple of distinct
    nonzero primitive vectors.  The output is canonical in the same sense,
    so it can be fed back in.  The lineality part (orthogonal complement of
    span(generators)) contributes +/- the HNF basis of its lattice, the
    pointed part contributes its primitive extreme rays.
    """
    out: list[IVec] = []
    lin = integer_kernel_basis(generators, ambient) if generators else [
        tuple(int(i == j) for j in range(ambient)) for i in range(ambient)]
    for b in lin:
        out.append(tuple(b))
        out.append(tuple(-a for a in b))
    if not generators:
        return tuple(sorted(set(out)))
    # pointed part lives in S = span(generators); work in coordinates of the
    # lattice S ∩ Z^n, the integer kernel of the lineality basis
    sbasis = integer_kernel_basis(lin, ambient)
    # constraint matrix in S-coordinates: row per generator, of rank dim S
    mat = [tuple(dot(g, b) for b in sbasis) for g in generators]
    for c in _extreme_rays_pointed(mat, len(sbasis)):
        y = tuple(sum(ci * bi for ci, bi in zip(c, col)) for col in zip(*sbasis))
        out.append(primitive(y))
    return tuple(sorted(set(out)))


def _extreme_rays_pointed(constraints: Sequence[Sequence], dim: int) -> list[IVec]:
    """Extreme rays of the pointed cone {c in Q^dim : M c >= 0}, M of rank dim.

    Incremental double description, fraction-free.  The first ``dim``
    independent rows cut out a simplicial cone whose rays are the columns
    of their integer adjugate (ray i is tight on every seed row but row i).
    Each further row a keeps the rays with <a, r> >= 0 and joins every
    adjacent pair p (<a, p> > 0), n (<a, n> < 0) by the ray
    <a, p> n - <a, n> p on its hyperplane.  Each ray carries its zero set
    (the rows it is tight on) as a bitmask; p and n are adjacent iff they
    share at least dim-2 tight rows and no third ray is tight on all of
    them, which is exact because the rays kept are the extreme rays of a
    pointed cone.
    """
    rows = sorted({primitive(r) for r in constraints if not is_zero_vector(r)})
    seed = independent_rows(rows, dim)
    seed_mask = sum(1 << i for i in seed)
    adj = adjugate([rows[i] for i in seed])
    rays: list[tuple[IVec, int]] = []  # (primitive ray, zero set over processed rows)
    for k, i in enumerate(seed):
        v = tuple(row[k] for row in adj)
        g = gcd(*v) if dot(rows[i], v) > 0 else -gcd(*v)
        rays.append((tuple(a // g for a in v), seed_mask & ~(1 << i)))
    for i, a in enumerate(rows):
        if seed_mask >> i & 1:
            continue
        bit = 1 << i
        values = [dot(a, v) for v, _ in rays]
        kept = [(v, z | bit if val == 0 else z)
                for (v, z), val in zip(rays, values) if val >= 0]
        if len(kept) < len(rays):
            zsets = [z for _, z in rays]
            neg = [(v, z, val) for (v, z), val in zip(rays, values) if val < 0]
            for (p, zp), vp in zip(rays, values):
                if vp <= 0:
                    continue
                for n, zn, vn in neg:
                    common = zp & zn
                    if common.bit_count() < dim - 2 or \
                            sum(1 for z in zsets if z & common == common) > 2:
                        continue
                    w = tuple(vp * x - vn * y for x, y in zip(n, p))
                    g = gcd(*w)
                    kept.append((tuple(x // g for x in w), common | bit))
        rays = kept
    return sorted(v for v, _ in rays)


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
        vecs = {primitive(v) for v in vectors}
        vecs = tuple(sorted(v for v in vecs if not is_zero_vector(v)))
        for v in vecs:
            if len(v) != ambient_rank:
                raise GeometryError("ray of wrong length")
        hs = _dual_generators(vecs, ambient_rank)
        rays = _dual_generators(hs, ambient_rank)
        return Cone(rays=rays, halfspaces=hs, ambient_rank=ambient_rank)

    @staticmethod
    def from_halfspaces(normals: Iterable[Sequence], ambient_rank: int) -> "Cone":
        return Cone.from_rays(normals, ambient_rank).dual()

    def contains(self, v: Sequence) -> bool:
        return all(dot(h, v) >= 0 for h in self.halfspaces)

    @property
    def is_pointed(self) -> bool:
        rays = set(self.rays)
        return all(tuple(-a for a in r) not in rays for r in self.rays)

    @property
    def dim(self) -> int:
        return len(independent_rows(self.rays, self.ambient_rank))

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
            if len(independent_rows(piece, d)) == d:
                pieces.append(piece)
    return pieces


def box_points(box: Iterable[tuple[int, int]]) -> Iterator[IVec]:
    """Lattice points of the box given by one (lo, hi) pair per coordinate."""
    return itertools.product(*[range(lo, hi + 1) for lo, hi in box])


def _parallelepiped_points(rays: Sequence[IVec]) -> list[IVec]:
    """Lattice points of {sum l_i r_i : 0 <= l_i < 1} for independent rays.

    Enumerates one representative per class of (Z^n ∩ span) / Z-span(rays):
    candidates c run over the box cut out by the HNF pivots of R, the rays
    in coordinates of the saturated span lattice.  The coefficients of c
    on the rays are c adj(R) / det(R), so reducing the integer numerators
    mod |det R| moves c into the half-open parallelepiped; the adjugate
    and the determinant are computed once per simplex.
    """
    n = len(rays[0])
    sbasis = saturated_span_basis(rays, n)
    ray_coords = [_echelon_coordinates(sbasis, r) for r in rays]
    diag = [next(a for a in row if a != 0) for row in hnf(ray_coords)]
    det = bareiss_det(ray_coords)
    sign, volume = (1, det) if det > 0 else (-1, -det)
    columns = list(zip(*adjugate(ray_coords)))
    points = []
    for cand in itertools.product(*[range(d) for d in diag]):
        num = [sign * dot(cand, col) % volume for col in columns]
        points.append(tuple(sum(k * r[j] for k, r in zip(num, rays)) // volume
                            for j in range(n)))
    return points


def _echelon_coordinates(basis: Sequence[IVec], v: Sequence[int]) -> IVec:
    """Integer coordinates of v on an HNF basis of a lattice containing it.

    Each row is zero before its pivot and the pivots increase, so once the
    earlier rows are taken off v, only the next row is nonzero at its own
    pivot: its coordinate is v's entry there over the pivot, an exact
    integer division.
    """
    v = list(v)
    coords = []
    for row in basis:
        p = next(j for j, a in enumerate(row) if a)
        c = v[p] // row[p]
        coords.append(c)
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return tuple(coords)


def hilbert_basis(c: Cone) -> tuple[IVec, ...]:
    """Unique minimal generating set of the monoid c ∩ Z^n.

    Triangulates into simplicial subcones and collects ray generators and
    fundamental parallelepiped points; every irreducible element is among
    them.  Candidates are then taken in increasing degree, the sum of the
    inner normals' values, which is positive on the cone minus the origin.
    A candidate x is kept unless an already-kept y of smaller degree has
    x - y in the cone, i.e. no normal is smaller on x than on y (the monoid
    is saturated, so membership in the cone decides membership in the
    monoid).  Comparing with kept elements suffices: a reducible x has an
    irreducible summand y with x - y in the monoid, and y was kept earlier.
    """
    if not c.is_pointed:
        raise NotPointed("Hilbert basis requires a pointed cone")
    candidates: set[IVec] = set(c.rays)
    for piece in _simplicial_pieces(c):
        for p in _parallelepiped_points(piece):
            if not is_zero_vector(p):
                candidates.add(p)
    graded = []
    for x in candidates:
        values = tuple(dot(h, x) for h in c.halfspaces)
        graded.append((sum(values), x, values))
    graded.sort()
    kept: list[tuple[int, IVec, IVec]] = []
    for deg, x, values in graded:
        if not any(dy < deg and all(a >= b for a, b in zip(values, vy))
                   for dy, _, vy in kept):
            kept.append((deg, x, values))
    return tuple(sorted(x for _, x, _ in kept))


@dataclass(frozen=True)
class Polyhedron:
    """Conv(vertices) + tail, tail a pointed cone, stored as its homogenization.

    ``cone`` is the canonical pointed cone over P x {1} in rank n + 1: a ray
    (k*v, k) with k > 0 is a vertex v, k the least integer making k*v
    integral, and a ray (r, 0) is a ray r of the tail.  Every other view is
    read off it and cached.  The integer rows <a, x> >= c are the facets
    (a, -c) of ``cone`` but the face at infinity, so they are irredundant in
    every dimension.
    """

    cone: Cone
    tail: Cone

    @staticmethod
    def from_vertices_and_tail(points: Iterable[Sequence], tail: Cone) -> "Polyhedron":
        homog = [tuple(p) + (1,) for p in points]
        if not homog:
            raise EmptyPolyhedron("a polyhedron needs at least one point")
        if not tail.is_pointed:
            raise UnboundedLineality("tail cone must be pointed")
        n = tail.ambient_rank
        cone = Cone.from_rays(homog + [r + (0,) for r in tail.rays], n + 1)
        return Polyhedron._from_homogenized(cone, n, tail_hint=tail)

    @staticmethod
    def from_halfspaces(inequalities: Iterable[tuple[Sequence, object]],
                        ambient_rank: int,
                        tail_hint: Cone | None = None) -> "Polyhedron":
        """Polyhedron {x : <n_i, x> >= c_i}; must be nonempty with pointed recession."""
        homog_normals = [tuple(nrm) + (-c,) for nrm, c in inequalities]
        homog_normals.append((0,) * ambient_rank + (1,))
        cone = Cone.from_halfspaces(homog_normals, ambient_rank + 1)
        return Polyhedron._from_homogenized(cone, ambient_rank, tail_hint=tail_hint)

    @staticmethod
    def _from_homogenized(cone: Cone, n: int, tail_hint: Cone | None) -> "Polyhedron":
        if any(r[n] < 0 for r in cone.rays):
            # cannot occur: t >= 0 is one of the constraints
            raise GeometryError("negative homogenizing coordinate")
        if all(r[n] == 0 for r in cone.rays):
            raise EmptyPolyhedron("inequality system has no solutions")
        if not cone.is_pointed:
            raise UnboundedLineality("polyhedron contains a line")
        # extreme rays of a pointed cone, so already the tail's canonical rays
        tail_rays = tuple(r[:n] for r in cone.rays if r[n] == 0)
        if tail_hint is not None and tail_hint.ambient_rank == n \
                and tail_hint.rays == tail_rays:
            return Polyhedron(cone=cone, tail=tail_hint)
        tail = Cone.from_rays(tail_rays, n)
        if tail_hint is not None and tail != tail_hint:
            raise TailMismatch(f"recession cone {tail} differs from expected {tail_hint}")
        return Polyhedron(cone=cone, tail=tail)

    @staticmethod
    def cone_as_polyhedron(tail: Cone) -> "Polyhedron":
        return Polyhedron.from_vertices_and_tail([(0,) * tail.ambient_rank], tail)

    @property
    def ambient_rank(self) -> int:
        return self.tail.ambient_rank

    @functools.cached_property
    def vertex_rays(self) -> tuple[tuple[IVec, int], ...]:
        """(k*v, k) for each vertex v, k > 0 the least integer with k*v integral."""
        n = self.ambient_rank
        return tuple((r[:n], r[n]) for r in self.cone.rays if r[n] > 0)

    @functools.cached_property
    def vertices(self) -> tuple[Vec, ...]:
        return tuple(sorted(tuple(Fraction(a, k) for a in kv) for kv, k in self.vertex_rays))

    @functools.cached_property
    def halfspaces(self) -> tuple[tuple[IVec, int], ...]:
        """Integer rows (a, c), meaning <a, x> >= c: the facets of ``cone``
        but the face at infinity, the one tight on no vertex ray."""
        n = self.ambient_rank
        finite = [r for r in self.cone.rays if r[n] > 0]
        return tuple((h[:n], -h[n]) for h in self.cone.halfspaces
                     if any(dot(h, r) == 0 for r in finite))

    @property
    def has_integral_vertices(self) -> bool:
        return all(k == 1 for _, k in self.vertex_rays)

    def contains(self, x: Sequence) -> bool:
        return all(sum(map(mul, a, x)) >= c for a, c in self.halfspaces)

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
    return min(Fraction(sum(map(mul, m, kv)), k) for kv, k in p.vertex_rays)


def floored_support(p: Polyhedron, m: IVec) -> int:
    """floor of :func:`support_value` for an integer m in the dual of the
    tail, in integer arithmetic."""
    return min(sum(map(mul, m, kv)) // k for kv, k in p.vertex_rays)


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
    """Lattice points x of p with lo <= x <= hi, in lexicographic order.

    Works on the integer rows <n, x> >= c of p, so no point is compared in
    rational arithmetic.  Coordinates are fixed one at a time, first to
    last.  For a prefix x_0..x_{k-1}, each row bounds x_k by asking that
    the row still be met when every later coordinate takes its most
    favourable value in the box; so the range of x_k is an interval, and a
    prefix is dropped as soon as that interval is empty.
    At the last coordinate the bound is exact and the interval is the set
    of completions.  The output is the box's points that lie in p, in the
    order a full scan of the box would find them.
    """
    n = len(lo)
    if n == 0:
        return [()]  # a rank-0 polyhedron is the point () and has no rows
    rows = p.halfspaces
    # per coordinate k: (row i, n_ik, largest sum_{j > k} n_ij x_j over the box)
    levels = []
    reach = [0] * len(rows)
    for k in reversed(range(n)):
        levels.append([(i, nrm[k], r) for i, ((nrm, _), r) in enumerate(zip(rows, reach))
                       if nrm[k]])
        reach = [r + max(nrm[k] * lo[k], nrm[k] * hi[k]) for r, (nrm, _) in zip(reach, rows)]
    levels.reverse()
    out: list[IVec] = []
    _extend_prefix((), [c for _, c in rows], levels, lo, hi, out)
    return out


def _extend_prefix(prefix: IVec, need: list[int], levels, lo: Sequence[int],
                   hi: Sequence[int], out: list[IVec]) -> None:
    """Append the points of :func:`lattice_points_in_box` that start with prefix.

    ``need[i]`` is what row i still asks of the coordinates from
    ``len(prefix)`` on.  A row is checked at each coordinate it involves,
    and exactly at the last of them, so rows that do not involve the next
    coordinate need no check there.
    """
    k = len(prefix)
    t0, t1 = lo[k], hi[k]
    for i, a, r in levels[k]:
        q = need[i] - r  # a * t >= q
        if a > 0:
            q = -(-q // a)
            if q > t0:
                t0 = q
        else:
            q = q // a
            if q < t1:
                t1 = q
    if k == len(levels) - 1:
        out.extend([prefix + (t,) for t in range(t0, t1 + 1)])
        return
    for t in range(t0, t1 + 1):
        rest = need[:]
        for i, a, _ in levels[k]:
            rest[i] -= a * t
        _extend_prefix(prefix + (t,), rest, levels, lo, hi, out)


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

    Returns (verdict, witness), the witness being the first non-splitting
    lattice point of e*p in lexicographic order when the verdict is False.
    Every lattice point of p is trivially a 1-fold sum, so e = 1 is True
    without enumeration.

    Targets are restricted to conv(e*vertices) + zonotope(Hilbert basis of
    the tail): a lattice point of e*p outside that region splits off a
    Hilbert-basis element h with x - h still in e*p, and both membership in
    e*p and e-fold decomposability are stable under adding h back.

    Let w be the sum of the tail's inner normals, positive on the tail
    minus the origin, and wmin its least value on p.  A summand of a target
    x has weight at most w(x) - (e-1)*wmin <= bound, the same bound over
    all targets, so every summand lies in the slab of p where w <= bound;
    its lattice points are enumerated once, with their weights as ints.
    A k-fold sum is searched with its lightest summand first, whose weight
    is at most w(x) // k.  Every remainder also has weight <= bound, so
    the last one (k = 1) is in p exactly when it is a slab point, which is
    a set lookup.
    """
    if not p.has_integral_vertices:
        raise NonIntegralVertices("normality is defined for lattice polyhedra")
    if e < 1:
        raise GeometryError("dilation exponent must be >= 1")
    if e == 1:
        return True, None
    n = p.ambient_rank
    scaled = dilate(p, e)
    hb = hilbert_basis(p.tail)
    lo, hi = reachability_box(scaled, hb)
    targets = lattice_points_in_box(scaled, lo, hi)
    if not targets:
        return True, None
    weight = tuple(map(sum, zip(*p.tail.halfspaces)))
    wmin = min(dot(weight, v) for v in p.vertices)
    target_weights = [sum(map(mul, weight, x)) for x in targets]
    bound = max(target_weights) - (e - 1) * wmin
    # lattice points of p in the slab <weight, .> <= bound hold every possible summand
    try:
        slab = Polyhedron.from_halfspaces(
            list(p.halfspaces) + [(vscale(-1, weight), -bound)], n)
    except EmptyPolyhedron:
        return False, targets[0]
    slo = [floor(min(v[j] for v in slab.vertices)) for j in range(n)]
    shi = [ceil(max(v[j] for v in slab.vertices)) for j in range(n)]
    summands = lattice_points_in_box(slab, slo, shi)
    slab_points = set(summands)
    summands.sort(key=lambda m: sum(map(mul, weight, m)))
    weights = [sum(map(mul, weight, m)) for m in summands]
    memo: dict[tuple[IVec, int], bool] = {}
    for x, wx in zip(targets, target_weights):
        if not _splits(x, wx, e, summands, weights, slab_points, memo):
            return False, x
    return True, None


def _splits(x: IVec, wx: int, k: int, summands: list[IVec], weights: list[int],
            slab_points: set[IVec], memo: dict[tuple[IVec, int], bool]) -> bool:
    """Is x, of weight wx, a sum of k >= 2 slab points?

    ``summands`` are the slab points sorted by weight, ``weights`` theirs,
    ``slab_points`` the same points as a set; ``memo`` holds the verdicts of
    remainders.  See :func:`is_polyhedron_normal`.  Module level, not a
    closure: a recursive closure refers to itself, and its memo would wait
    for the cycle collector.
    """
    cut = bisect_right(weights, wx // k)
    for m, wm in zip(summands[:cut], weights):
        rest = tuple(map(sub, x, m))
        if k == 2:
            if rest in slab_points:
                return True
            continue
        key = (rest, k - 1)
        ok = memo.get(key)
        if ok is None:
            ok = memo[key] = _splits(rest, wx - wm, k - 1, summands, weights, slab_points, memo)
        if ok:
            return True
    return False


def project_out_last(p: Polyhedron) -> Polyhedron:
    """Orthogonal projection of p along the last coordinate axis."""
    n = p.ambient_rank - 1
    verts = [v[:n] for v in p.vertices]
    tail = Cone.from_rays([r[:n] for r in p.tail.rays], n)
    return Polyhedron.from_vertices_and_tail(verts, tail)
