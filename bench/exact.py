"""Exact checks of synthetic outputs, written without polydiv.

Everything here uses ``fractions.Fraction`` and plain integers so that a bug
in ``polydiv.linalg`` or ``polydiv.convex`` cannot hide itself by also
breaking the check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _rref(rows, ncols: int):
    """Reduced row echelon form over Q: (rows, pivot columns)."""
    mat = [[Fraction(a) for a in r] for r in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [a / mat[r][c] for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat, pivots


def rank(rows) -> int:
    rows = list(rows)
    return len(_rref(rows, len(rows[0]))[1]) if rows else 0


def primitive(v) -> tuple[int, ...]:
    g = 0
    for a in v:
        g = gcd(g, a)
    return tuple(a // g for a in v) if g else tuple(v)


def kernel_vector(rows, ncols: int):
    """The primitive integer vector spanning the kernel of ``rows`` when that
    kernel is a line, else None."""
    mat, pivots = _rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    if len(free) != 1:
        return None
    v = [Fraction(0)] * ncols
    v[free[0]] = Fraction(1)
    for i, c in enumerate(pivots):
        v[c] = -mat[i][free[0]]
    den = 1
    for a in v:
        den = den * a.denominator // gcd(den, a.denominator)
    return primitive([int(a * den) for a in v])


def check_cone(inputs, rays, halfspaces, dim: int) -> list[str]:
    """Problems with the V/H pair of the full-dimensional pointed cone spanned
    by ``inputs``; an empty list means the pair passed every check."""
    problems = []
    for v in list(inputs) + list(rays):
        if any(dot(h, v) < 0 for h in halfspaces):
            problems.append(f"vector {v} violates a halfspace")
    for r in rays:
        tight = [h for h in halfspaces if dot(h, r) == 0]
        if rank(tight) != dim - 1:
            problems.append(f"ray {r} has a tight set of rank {rank(tight)}")
    for h in halfspaces:
        tight = [r for r in rays if dot(h, r) == 0]
        if rank(tight) != dim - 1:
            problems.append(f"halfspace {h} has a tight set of rank {rank(tight)}")
    primitive_inputs = {primitive(v) for v in inputs}
    for r in rays:
        if tuple(r) not in primitive_inputs:
            problems.append(f"ray {r} is not the primitive form of an input")
    return problems


def check_hilbert(rays, halfspaces, basis) -> list[str]:
    """Problems with ``basis`` as the Hilbert basis of the cone (rays, halfspaces).

    Membership uses the halfspaces, which :func:`check_cone` has verified.  An
    element is reducible exactly when some other basis element can be split
    off it inside the cone, which is a componentwise comparison of the
    values of the facet functionals.
    """
    problems = []
    values = [tuple(dot(h, x) for h in halfspaces) for x in basis]
    for x, vx in zip(basis, values):
        if not any(x) or min(vx) < 0:
            problems.append(f"basis element {x} is not a nonzero cone point")
    for i, (x, vx) in enumerate(zip(basis, values)):
        for j, vy in enumerate(values):
            if i != j and vy != vx and all(b <= a for a, b in zip(vx, vy)):
                problems.append(f"basis element {x} is reducible by {basis[j]}")
                break
    have = {tuple(x) for x in basis}
    for r in rays:
        if tuple(r) not in have:
            problems.append(f"primitive ray {r} is missing from the basis")
    return problems


def polyhedron_facets(points, rays):
    """Inequalities (normal, offset) with <normal, x> >= offset describing
    conv(points) + cone(rays), by brute force over the homogenized cone."""
    n = len(points[0])
    gens = [tuple(p) + (1,) for p in points] + [tuple(r) + (0,) for r in rays]
    facets = set()
    for subset in combinations(gens, n):
        normal = kernel_vector(subset, n + 1)
        if normal is None:
            continue
        for cand in (normal, tuple(-a for a in normal)):
            if all(dot(cand, g) >= 0 for g in gens):
                facets.add(cand)
    return [(f[:n], -f[n]) for f in facets]


def in_dilate(x, e: int, facets) -> bool:
    """Is x in e * P for P = {y : <normal, y> >= offset}?"""
    return all(dot(normal, x) >= e * offset for normal, offset in facets)
