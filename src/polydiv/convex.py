"""Cones and polyhedra with exact rational arithmetic.

A :class:`Cone` keeps both a minimal generating set ("rays") and a minimal
set of inner halfspace normals; both are canonical (primitive, lex-sorted),
so equality of cones is structural equality.  A :class:`Polyhedron`,
Conv(vertices) + tail cone, is stored as one such cone, its homogenization;
its vertices, tail rays and integer inequalities (irredundant in every
dimension) are read off that cone's two descriptions.

Every cone comes from one routine, :func:`_convert`: one incremental double
description, fraction-free, with the combinatorial adjacency test (Fukuda &
Prodon, "Double description method revisited", 1996) finds the facets, and
the minimal generators are read off the facets' incidence with the inputs.
It always runs on the generators themselves, in Z^n; for a
lower-dimensional input, rows +/- a lattice basis of the span's orthogonal
complement come first and confine it to the span.  The rays of a cone with
lines are the facets of its dual, found by the same routine.
Its result depends only on the set of primitive generators, so it is
memoised on that canonical input.  Hilbert
bases follow the primal algorithm of Normaliz (Bruns & Ichim, J. Algebra
2010): a triangulation on the ray-facet incidence, the fundamental
parallelepiped of each simplex walked as a group in ints packed by the one
codec, :func:`linalg.slots`, one addition a step, with no HNF; a reduction
inside each simplex on its numerators, then one over the whole cone on its
support forms, both one guard test, in which an element is compared only
with the kept ones of at most half its degree.  Normality of
a lattice polyhedron P (every lattice point of e*P a sum of e of P's) is
split-tested on the minimal lattice points of e*P, as Normaliz does; they
are enumerated on P's own integer rows read as (a, e*c), in a box of integer
floors and ceilings of P's vertex rays, so e*P is never converted.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import and_, itemgetter, le, mul, sub
from typing import Iterable, Sequence

from .linalg import (
    IVec,
    Vec,
    adjugate,
    bareiss_det,
    dot,
    independent_rows,
    integer_kernel_basis,
    is_zero_vector,
    primitive,
    saturated_span_basis,
    slots,
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


class NonIntegralVertices(GeometryError):
    pass


class Unbounded(GeometryError):
    pass


# Keyed by the canonical input (sorted distinct nonzero primitive generators,
# ambient rank).  One pass over the paper's fixtures makes 67 distinct
# conversions, and every entry holds only small integer tuples.
@functools.lru_cache(maxsize=1024)
def _convert(generators: tuple[IVec, ...], ambient: int) -> "Cone":
    """The cone generated by a canonical input, from one double description.

    The halfspaces, and the tight mask of each facet over the inputs, come
    from :func:`_facets`.  The cone has lines iff some input lies on every
    facet (a cone with a line has an input in its lineality space, and an
    input on every facet is one).  Then, as C = (C^∨)^∨, its rays are the
    halfspaces of the cone its halfspaces generate: +/- the HNF basis of
    the lattice of the lineality space and the extreme rays orthogonal to
    it.  Otherwise an input is extreme iff the AND of the tight masks of
    the facets it lies on is its own bit: no other input lies on them all.
    """
    hs, masks = _facets(generators, ambient)
    everyone = (1 << len(generators)) - 1
    if functools.reduce(and_, masks, everyone):
        rays = _facets(hs, ambient)[0]
    else:
        rays = tuple(g for i, g in enumerate(generators)
                     if functools.reduce(and_, [z for z in masks if z >> i & 1], everyone)
                     == 1 << i)
    return Cone(rays=rays, halfspaces=hs, ambient_rank=ambient)


def _facets(generators: tuple[IVec, ...], ambient: int) -> tuple[tuple[IVec, ...], list[int]]:
    """Canonical halfspaces of the cone generated by distinct nonzero
    primitive vectors, and the tight mask of each facet (bit i: input i).

    The halfspaces are +/- the HNF basis l of the lattice of
    span(generators)^perp (none when the generators span Q^n) and the
    extreme rays of the pointed cone {c : <l, c> = 0, <g, c> >= 0 for every
    generator g}.  Its double description runs on the rows +/-l and then
    the generators, a matrix of rank n, seeded by the l and the first
    independent generators, so the -l rows cut it down to the span before
    the first generator row.
    """
    seed = independent_rows(generators, ambient)
    lin = integer_kernel_basis(generators, ambient) if len(seed) < ambient else []
    rows = [v for b in lin for v in (b, vscale(-1, b))] + list(generators)
    shift = 2 * len(lin)
    facets = _extreme_rays_pointed(rows, ambient,
                                   list(range(0, shift, 2)) + [shift + i for i in seed])
    return (tuple(sorted(rows[:shift] + [c for c, _ in facets])),
            [tight >> shift for _, tight in facets])


def _extreme_rays_pointed(rows: Sequence[IVec], dim: int,
                          seed: Sequence[int]) -> list[tuple[IVec, int]]:
    """Extreme rays of the pointed cone {c in Q^dim : M c >= 0}, M of rank dim.

    ``rows`` are the distinct nonzero primitive rows of M and ``seed`` the
    indices of ``dim`` independent ones.  Returns (primitive ray, zero set)
    pairs sorted by ray; bit i of a zero set is row i.
    Incremental double description, fraction-free.  The seed rows cut out
    a simplicial cone whose rays are the columns of their integer adjugate
    (ray i is tight on every seed row but row i).  Each further row a keeps
    the rays with <a, r> >= 0 and joins every adjacent pair p (<a, p> > 0),
    n (<a, n> < 0) by the ray <a, p> n - <a, n> p on its hyperplane.  Each
    ray carries its zero set (the rows it is tight on) as a bitmask; p and
    n are adjacent iff no third ray is tight on all of their common rows,
    which is exact because the rays kept are the extreme rays of a pointed
    cone; fewer than dim-2 common rows rule adjacency out at once.
    """
    seed_mask = sum(1 << i for i in seed)
    adj = adjugate([rows[i] for i in seed])
    rays: list[tuple[IVec, int]] = []  # (primitive ray, zero set over processed rows)
    for k, i in enumerate(seed):
        v = tuple(row[k] for row in adj)
        g = gcd(*v) if sum(map(mul, rows[i], v)) > 0 else -gcd(*v)
        rays.append((tuple(a // g for a in v), seed_mask & ~(1 << i)))
    for i, a in enumerate(rows):
        if seed_mask >> i & 1:
            continue
        bit = 1 << i
        kept, pos, neg = [], [], []
        for v, z in rays:
            val = sum(map(mul, a, v))
            if val > 0:
                kept.append((v, z))
                pos.append((v, z, val))
            elif val:
                neg.append((v, z, val))
            else:
                kept.append((v, z | bit))
        zsets = [z for _, z in rays]
        for p, zp, vp in pos:
            for n, zn, vn in neg:
                common = zp & zn  # adjacent: no ray but p and n is tight on all of it
                if common.bit_count() >= dim - 2 and next(itertools.islice(
                        (z for z in zsets if z & common == common), 2, None), None) is None:
                    w = tuple(vp * x - vn * y for x, y in zip(n, p))
                    g = gcd(*w)
                    kept.append((tuple(x // g for x in w), common | bit))
        rays = kept
    return sorted(rays)


@dataclass(frozen=True, slots=True)
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
        return _convert(vecs, ambient_rank)

    @staticmethod
    def from_halfspaces(normals: Iterable[Sequence], ambient_rank: int) -> "Cone":
        return Cone.from_rays(normals, ambient_rank).dual()

    def contains(self, v: Sequence) -> bool:
        return all(dot(h, v) >= 0 for h in self.halfspaces)

    def dual_contains(self, m: Sequence) -> bool:
        """Is m in the dual cone, <m, r> >= 0 for every ray r?"""
        return all(dot(m, r) >= 0 for r in self.rays)

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

    def __repr__(self) -> str:
        return f"Cone(rays={list(self.rays)})"


def _simplicial_pieces(c: Cone) -> list[tuple[IVec, ...]]:
    """Pulling triangulation of a pointed cone into simplicial subcones.

    Reads only the ray-facet incidence; a face is the bitmask of its rays,
    and the facets of a face F are the inclusion-maximal proper sets F ∩ G,
    G a facet of c.  A face with as many rays as its dimension is a simplex;
    any other is pulled from its first ray a: a joined to the pieces of each
    facet of F not holding a."""
    rays = c.rays
    facets = [sum(1 << i for i, r in enumerate(rays) if not sum(map(mul, h, r)))
              for h in c.halfspaces]
    pieces = _pulled((1 << len(rays)) - 1, c.dim, facets) if rays else []
    return [tuple(rays[i] for i in piece) for piece in pieces]


def _pulled(face: int, dim: int, facets: list[int]) -> list[list[int]]:
    """Ray indices of the pieces of :func:`_simplicial_pieces` on a face."""
    if face.bit_count() == dim:
        return [[i for i in range(face.bit_length()) if face >> i & 1]]
    apex = face & -face
    subs = dict.fromkeys(face & g for g in facets if face & g != face)
    return [[apex.bit_length() - 1] + piece for f in subs
            if not f & apex and not any(f != g and f & g == f for g in subs)
            for piece in _pulled(f, dim - 1, facets)]


def _parallelepiped(rays: Sequence[IVec]) -> tuple[int, IVec, int, list[tuple[int, int]]]:
    """(|det R|, units, guard, [(degree, packed)]) for the lattice points of
    {sum l_i r_i : 0 <= l_i < 1}, rays independent (see :func:`hilbert_basis`).

    Numerators a_i = l_i |det R| are packed by :func:`linalg.slots` with
    bound |det R|, less |det R| in each slot, whose guard bit is then set iff
    a_i reaches |det R|; the degree is sum a_i.  Basis vector b_j of the
    saturated span lattice adds the packed row j of adj(R) / det R, mod 1:
    each wrapped slot, and the degree for each, then loses |det R|.  The
    index search stops after |det R| over the number of points walked, so
    that a broken invariant gives a wrong count, not a hang."""
    n, k = len(rays[0]), len(rays)
    if k == n:  # full-dimensional: the saturated span lattice is Z^n
        ray_coords = rays
    else:
        basis = saturated_span_basis(rays, n)
        ray_coords = [_echelon_coordinates(basis, r) for r in rays]
    det = bareiss_det(ray_coords)
    volume = abs(det)
    width, units, guard = slots(volume, k)
    top = width - 1
    origin = guard - volume * sum(units)
    points = [(0, origin)]
    if volume == 1:
        return volume, units, guard, points
    seen: set[int] = set()  # the points walked before this basis vector
    for row in adjugate(ray_coords):
        walked = len(points)
        if walked == volume:
            break
        seen.update(x for _, x in points[len(seen):])
        steps = [a % volume if det > 0 else -a % volume for a in row]
        step, rise = sum(map(mul, steps, units)), sum(steps)
        p = origin
        for index in range(1, volume // walked + 1):
            p += step
            p -= ((p & guard) >> top) * volume
            if p in seen:
                break
        block = points
        for _ in range(index - 1):
            block = [(d + rise - volume * m.bit_count(), q - (m >> top) * volume)
                     for d, x in block for q in [x + step] for m in [q & guard]]
            points += block
    return volume, units, guard, points


def _lift(rays: Sequence[IVec], volume: int, units: IVec, guard: int,
          packed: Iterable[int]) -> list[IVec]:
    """The lattice points sum a_i r_i / volume for the numerators a_i, the
    digits of p + volume * ones - guard (:func:`_parallelepiped`)."""
    offset = volume * sum(units) - guard
    columns = list(zip(*rays))
    points = []
    for p in packed:
        q, num = p + offset, [0] * len(units)
        for i in reversed(range(len(units))):
            num[i], q = divmod(q, units[i])
        points.append(tuple([sum(map(mul, num, col)) // volume for col in columns]))
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

    Every irreducible element is a ray or a point of the fundamental
    parallelepiped of a simplex σ of a triangulation.  Its points form the
    group (span ∩ Z^n) / ZR, R the rays of σ, of order |det R|, walked over a
    lattice basis as packed numerators and a degree (:func:`_parallelepiped`),
    each basis vector up to its index over the points so far: the number of
    steps from the origin to one of them.  Inside σ, x goes when some y has
    numerators at most x's, so x - y lies in σ; only the survivors are lifted
    to Z^n.  They are graded by the sum of the inner normals, positive off the
    origin, and x goes when x - y lies in c for a kept y (the monoid is
    saturated): no normal is smaller on x than on y, their values packed a slot
    per normal with bound max <h, sum of the rays>.  Both reductions are
    :func:`_irreducibles`.
    """
    if not c.is_pointed:
        raise NotPointed("Hilbert basis requires a pointed cone")
    candidates: set[IVec] = set(c.rays)
    for piece in _simplicial_pieces(c):
        volume, units, guard, points = _parallelepiped(piece)
        survivors = _irreducibles(((d, p, p) for d, p in points if d), guard)
        candidates.update(_lift(piece, volume, units, guard, survivors))
    normals, ray_sum = c.halfspaces, tuple(map(sum, zip(*c.rays)))
    _, units, guard = slots(max((sum(map(mul, h, ray_sum)) for h in normals), default=0),
                            len(normals))
    packed = [sum(map(mul, col, units)) for col in zip(*normals)]
    grading = tuple(map(sum, zip(*normals)))
    return tuple(sorted(_irreducibles(
        ((sum(map(mul, grading, x)), sum(map(mul, packed, x)), x) for x in candidates), guard)))


def _irreducibles(graded: Iterable[tuple[int, int, object]], guard: int) -> list:
    """The x of the (degree, key, x) triples that no kept y reduces: no slot
    of y's key exceeds x's (:func:`linalg.slots`).  A reducible x has an
    irreducible summand of at most half its degree: only the kept y up to
    deg(x) // 2 are compared."""
    degrees, keys, kept = [], [], []
    for deg, key, x in sorted(graded, key=itemgetter(0)):
        high = key + guard
        for y in keys[:bisect_right(degrees, deg // 2)]:
            if high - y & guard == guard:
                break
        else:
            degrees.append(deg)
            keys.append(key)
            kept.append(x)
    return kept


@dataclass(frozen=True)
class Polyhedron:
    """Conv(vertices) + tail, tail a pointed cone, stored as its homogenization.

    ``cone`` is the canonical pointed cone over P x {1} in rank n + 1: a ray
    (k*v, k) with k > 0 is a vertex v, k the least integer making k*v
    integral, and a ray (r, 0) is a ray r of the tail.  Every other view is
    read off it and cached.  The integer rows <a, x> >= c are the facets
    (a, -c) of ``cone`` but the face at infinity, so they are irredundant in
    every dimension.  Each constructor converts once: from vertices, the
    given pointed tail is kept, its extreme rays being the level-0 rays of
    ``cone``; from halfspaces, the tail is the cone of those rays.
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
        return Polyhedron(Cone.from_rays(homog + [r + (0,) for r in tail.rays], n + 1), tail)

    @staticmethod
    def from_halfspaces(inequalities: Iterable[tuple[Sequence, object]],
                        ambient_rank: int) -> "Polyhedron":
        """Polyhedron {x : <n_i, x> >= c_i}; must be nonempty with pointed recession.
        The tail is read off the homogenization, whose level-0 rays are the
        extreme rays of the tail (the row t >= 0 keeps every ray at t >= 0)."""
        n = ambient_rank
        cone = Cone.from_halfspaces([tuple(nrm) + (-c,) for nrm, c in inequalities]
                                    + [(0,) * n + (1,)], n + 1)
        if all(r[n] == 0 for r in cone.rays):
            raise EmptyPolyhedron("inequality system has no solutions")
        if not cone.is_pointed:
            raise UnboundedLineality("polyhedron contains a line")
        return Polyhedron(cone, Cone.from_rays([r[:n] for r in cone.rays if r[n] == 0], n))

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


def normal_cone(p: Polyhedron, v: Sequence) -> Cone:
    """The weights m whose minimum over p is taken at v: the dual of the
    cone that p - v generates, spanned by the vertices less v and the tail."""
    return Cone.from_rays([vsub(w, v) for w in p.vertices] + list(p.tail.rays),
                          p.ambient_rank).dual()


def support_value(p: Polyhedron, m: Sequence) -> Fraction:
    """min over p of <m, x>; finite exactly when m lies in the dual of the tail."""
    if not p.tail.dual_contains(m):
        raise Unbounded(f"direction {m} is unbounded below on the polyhedron")
    return min(Fraction(sum(map(mul, m, kv)), k) for kv, k in p.vertex_rays)


def floored_support(p: Polyhedron, m: IVec) -> int:
    """floor of the least <m, v> over the vertices v of p, for an integer m, in
    integer arithmetic: floor of :func:`support_value` for m in the dual of the tail."""
    return min(sum(map(mul, m, kv)) // k for kv, k in p.vertex_rays)


def lattice_points_in_box(p: Polyhedron, lo: Sequence[int], hi: Sequence[int]) -> list[IVec]:
    """Lattice points x of p with lo <= x <= hi, in lexicographic order."""
    # kept by name and signature: bench/tracer.py counts the boxes of this function
    return lattice_points(p.halfspaces, lo, hi)


def lattice_points(rows: Sequence[tuple[IVec, int]], lo: Sequence[int], hi: Sequence[int],
                   shifts=()) -> list[IVec]:
    """Lattice points x with lo <= x <= hi and <a, x> >= c on every integer
    row (a, c), in lexicographic order, less the translates of ``shifts``
    (see :func:`_extend_prefix`).

    No point is compared in rational arithmetic.  Coordinates are fixed one
    at a time, first to last.  For a prefix x_0..x_{k-1}, each row bounds
    x_k by asking that the row still be met when every later coordinate
    takes its most favourable value in the box; so the range of x_k is an
    interval, and a prefix is dropped as soon as that interval is empty.
    At the last coordinate the bound is exact and the interval is the set
    of completions.  The output is the box's points that meet every row, in
    the order a full scan of the box would find them.  A row with a zero
    normal involves no coordinate, so it is decided up front: 0 >= c.
    """
    if any(c > 0 for a, c in rows if not any(a)):
        return []
    n = len(lo)
    if n == 0:
        return [()]  # rank 0: the point (), whose rows all have zero normals
    # per coordinate k: (row i, n_ik, largest sum_{j > k} n_ij x_j over the box)
    levels = []
    reach = [0] * len(rows)
    for k in reversed(range(n)):
        levels.append([(i, nrm[k], r) for i, ((nrm, _), r) in enumerate(zip(rows, reach))
                       if nrm[k]])
        reach = [r + max(nrm[k] * lo[k], nrm[k] * hi[k]) for r, (nrm, _) in zip(reach, rows)]
    levels.reverse()
    out: list[IVec] = []
    _extend_prefix((), [c for _, c in rows], levels, lo, hi, out, shifts)
    return out


def _extend_prefix(prefix: IVec, need: list[int], levels, lo: Sequence[int],
                   hi: Sequence[int], out: list[IVec], shifts) -> None:
    """Append the points of :func:`lattice_points` that start with prefix
    and lie in no translate p + h, p the set the rows cut out and h one of
    ``shifts``.

    ``need[i]`` is what row i still asks of the coordinates from
    ``len(prefix)`` on.  A row is checked at each coordinate it involves,
    and exactly at the last of them, so rows that do not involve the next
    coordinate need no check there.

    Each entry of ``shifts`` stands for one h and lists (i, a, <n_i, h>)
    for every row i, a being its last coefficient.  Once every coordinate
    but the last, t, is fixed, x - h is in p iff a * t >= need[i] + <n_i, h>
    on every row.  A row with a > 0 bounds t below and one with a < 0
    bounds it above; a row with a = 0 does not involve t, so it is a
    constant of the prefix, met by every t of the run or by none.  So the
    t with x in p + h form one interval, found with one division per row,
    and the points kept are the run less the union of those intervals: the
    cost is per run, not per point, and only the points kept are built.
    Plain enumeration passes no shifts and keeps the whole run.
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
    if k < len(levels) - 1:
        for t in range(t0, t1 + 1):
            rest = need[:]
            for i, a, _ in levels[k]:
                rest[i] -= a * t
            _extend_prefix(prefix + (t,), rest, levels, lo, hi, out, shifts)
        return
    if t0 > t1:
        return
    cuts = []
    for shift in shifts:
        u0, u1 = t0, t1
        for i, a, s in shift:
            q = need[i] + s  # a * t >= q
            if a > 0:
                q = -(-q // a)
                if q > u0:
                    u0 = q
            elif a:
                q = q // a
                if q < u1:
                    u1 = q
            elif q > 0:
                break
        else:
            if u0 <= u1:
                cuts.append((u0, u1))
    for u0, u1 in sorted(cuts):
        out.extend([prefix + (t,) for t in range(t0, u0)])
        t0 = max(t0, u1 + 1)
    out.extend([prefix + (t,) for t in range(t0, t1 + 1)])


def reachability_box(p: Polyhedron, generators: Sequence[IVec],
                     e: int = 1) -> tuple[list[int], list[int]]:
    """The coordinate box around e*conv(vertices of p) + zonotope(generators),
    the zonotope being the sums of the generators with coefficients in [0, 1]:
    integer floors and ceilings of e*k*v_j / k on the vertex rays (k*v, k)."""
    rays = p.vertex_rays
    lo = [min(e * kv[j] // k for kv, k in rays) + sum(min(0, g[j]) for g in generators)
          for j in range(p.ambient_rank)]
    hi = [-min(-e * kv[j] // k for kv, k in rays) + sum(max(0, g[j]) for g in generators)
          for j in range(p.ambient_rank)]
    return lo, hi


def minimal_lattice_points(p: Polyhedron, e: int = 1) -> tuple[IVec, ...]:
    """Lattice points x of e*p, in lexicographic order, with x - h outside
    e*p for every Hilbert-basis element h of the tail: not q + s with q in
    e*p and s nonzero in the tail monoid.  e*p is read off p, never built:
    its integer rows are p's rows (a, c) as (a, e*c), its tail is p's.

    By Caratheodory, x = v + sum l_i r_i with v in e*conv(V) and r_i
    linearly independent extreme rays, which are in the Hilbert basis;
    l_i >= 1 puts x - r_i in e*p.  So minimal points lie in the box around
    e*conv(V) + zonotope(extreme rays).  On the rows, x - h is in e*p iff
    <a, x> >= <a, h> + e*c on every row.  With every coordinate but the
    last fixed, each such condition bounds the last coordinate on one side,
    or holds or fails whatever it is, so the x of a run of e*p that lie in
    e*p + h form one interval; :func:`_extend_prefix` cuts those intervals
    out of each run instead of testing every point.
    """
    rows = [(a, e * c) for a, c in p.halfspaces]
    shifts = [tuple((i, a[-1], sum(map(mul, a, h))) for i, (a, _) in enumerate(rows))
              for h in hilbert_basis(p.tail)]
    return tuple(lattice_points(rows, *reachability_box(p, p.tail.rays, e), shifts))


def is_polyhedron_normal(p: Polyhedron, e: int) -> tuple[bool, IVec | None]:
    """Does every lattice point of e*p split into e lattice points of p?

    Returns (verdict, witness), the witness being the lexicographically
    first minimal lattice point of e*p (see :func:`minimal_lattice_points`)
    that does not split, when the verdict is False.  Every lattice point of
    p is trivially a 1-fold sum, so e = 1 is True without enumeration.  No
    polyhedron e*p is built: its points are read on p's rows as (a, e*c),
    in a box of integer floors and ceilings of p's vertex rays times e.

    Only the minimal points of e*p are searched, as in the Normaliz primal
    algorithm (Bruns & Ichim, J. Algebra 2010).  A lattice point of e*p
    that is not minimal is x = q + h with q in e*p and h a Hilbert-basis
    element of the tail; if q splits, adding h to one summand splits x.
    Such steps down end at a minimal point, since the weight w below falls
    by w(h) > 0 at each.  So e*p splits iff its minimal points do.

    Let w be the sum of the tail's inner normals, positive on the tail
    minus the origin, wmin its least value on p and W the largest weight
    of a target.  A k-fold sum is searched with its lightest summand
    first, whose weight is at most w(x) // k; the e - k summands already
    taken weigh at least wmin each, so at level k that is at most
    (W - (e-k)*wmin) // k, which is largest at k = 2.  Only the lattice
    points of p with w <= (W - (e-2)*wmin) // 2 are enumerated, once, with
    their weights and their values on the integer rows <a, .> >= c of p.
    The last remainder x - m is in p exactly when every row value of m is
    at most the slack <a, x> - c of x, so it needs no enumeration.
    """
    if not p.has_integral_vertices:
        raise NonIntegralVertices("normality is defined for lattice polyhedra")
    if e < 1:
        raise GeometryError("dilation exponent must be >= 1")
    if e == 1:
        return True, None
    # not empty: e*p has integral vertices, and a descent from one ends at a minimal point
    targets = minimal_lattice_points(p, e)
    weight = tuple(map(sum, zip(*p.tail.halfspaces)))
    wmin = min(sum(map(mul, weight, v)) for v, _ in p.vertex_rays)
    target_weights = [sum(map(mul, weight, x)) for x in targets]
    bound = (max(target_weights) - (e - 2) * wmin) // 2
    # not empty: W >= e*wmin, so the vertex of weight wmin is in the slab
    slab = Polyhedron.from_halfspaces(list(p.halfspaces) + [(vscale(-1, weight), -bound)],
                                      p.ambient_rank)
    light = sorted([(sum(map(mul, weight, m)), m)
                    for m in lattice_points_in_box(slab, *reachability_box(slab, ()))],
                   key=itemgetter(0))
    weights = [w for w, _ in light]
    summands = [m for _, m in light]
    rows = p.halfspaces
    values = [tuple(sum(map(mul, a, m)) for a, _ in rows) for m in summands]

    @functools.cache
    def splits(x: IVec, wx: int, k: int) -> bool:
        """Is x, of weight wx, a sum of k >= 2 lattice points of p?"""
        cut = bisect_right(weights, wx // k)
        if k == 2:
            slack = [sum(map(mul, a, x)) - c for a, c in rows]
            for v in values[:cut]:
                if all(map(le, v, slack)):
                    return True
            return False
        for m, wm in zip(summands[:cut], weights):
            if splits(tuple(map(sub, x, m)), wx - wm, k - 1):
                return True
        return False

    try:
        for x, wx in zip(targets, target_weights):
            if not splits(x, wx, e):
                return False, x
        return True, None
    finally:
        splits = None  # the closure refers to itself: break the cycle, so its memo is freed now


def project_out_last(p: Polyhedron) -> Polyhedron:
    """Orthogonal projection of p along the last coordinate axis."""
    n = p.ambient_rank - 1
    verts = [v[:n] for v in p.vertices]
    tail = Cone.from_rays([r[:n] for r in p.tail.rays], n)
    return Polyhedron.from_vertices_and_tail(verts, tail)
