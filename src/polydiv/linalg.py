"""Exact rational linear algebra on small dense matrices.

Vectors are tuples of ints (lattice vectors) or Fractions; matrices are
lists of row tuples.  Everything is computed with exact arithmetic, no
floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
IVec = tuple[int, ...]


def dot(u: Sequence, v: Sequence):
    """Exact inner product; stays in int when both vectors are integral."""
    assert len(u) == len(v), "dimension mismatch"
    return sum(a * b for a, b in zip(u, v))


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def adjugate(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer adjugate of a square integer matrix: A adj(A) = det(A) I.

    Entry (i, j) is the cofactor of A at (j, i), one Bareiss minor each.
    """
    n = len(rows)
    return [[(-1) ** (i + j) * bareiss_det([r[:i] + r[i + 1:]
                                            for k, r in enumerate(rows) if k != j])
             for j in range(n)] for i in range(n)]


def vadd(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u: Sequence) -> tuple:
    return tuple(c * a for a in u)


def is_zero_vector(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def to_fraction_vector(u: Sequence) -> Vec:
    return tuple(Fraction(a) for a in u)


def denominator_lcm(values: Iterable) -> int:
    """Least d > 0 with d * a integral for every rational a; 1 when empty."""
    return lcm(*(a.denominator for a in values))


def primitive(u: Sequence) -> IVec:
    """Smallest integer vector on the ray spanned by ``u`` (same direction).

    The zero vector maps to itself.
    """
    if all(type(a) is int for a in u):
        g = gcd(*u)
        return tuple(a // g for a in u) if g else tuple(u)
    fracs = [Fraction(a) for a in u]
    if all(f == 0 for f in fracs):
        return tuple(0 for _ in fracs)
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for a in ints:
        g = gcd(g, a)
    return tuple(a // g for a in ints)


def rref(rows: Iterable[Sequence]) -> list[Vec]:
    """Reduced row echelon form over Q; zero rows dropped."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [a / pv for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]]


def rank(rows: Iterable[Sequence]) -> int:
    return len(rref(rows))


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Vec | None:
    """One exact solution of A x = b, or None if inconsistent.

    When the system is underdetermined the free variables are set to 0.
    """
    m = [list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    ech = rref(m)
    x = [Fraction(0)] * ncols
    for row in ech:
        pc = next(c for c in range(ncols + 1) if row[c] != 0)
        if pc == ncols:
            return None
        x[pc] = row[ncols] - sum(row[c] * x[c] for c in range(pc + 1, ncols))
    # back-substitute properly: rows of rref have zeros above/below pivots,
    # so the pivot value is rhs minus free-variable contributions (all zero).
    return tuple(x)


def hnf(rows: Sequence[IVec]) -> list[IVec]:
    """Row Hermite normal form of an integer matrix; zero rows dropped.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    The output is the canonical basis of the row lattice.
    """
    m = [list(r) for r in rows if not is_zero_vector(r)]
    if not m:
        return []
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        # clear column c below row r by gcd steps
        while True:
            nz = [i for i in range(r, len(m)) if m[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(m[i][c]))
            m[r], m[i0] = m[i0], m[r]
            if all(m[i][c] % m[r][c] == 0 for i in range(r + 1, len(m))):
                for i in range(r + 1, len(m)):
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                break
            for i in range(r + 1, len(m)):
                q = m[i][c] // m[r][c]
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        if r < len(m) and m[r][c] != 0:
            if m[r][c] < 0:
                m[r] = [-a for a in m[r]]
            for i in range(r):
                q = m[i][c] // m[r][c]
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
            r += 1
            if r == len(m):
                break
    out = [tuple(row) for row in m[:r] if not is_zero_vector(row)]
    return out


def _clear_row_denominators(row: Sequence) -> list[int]:
    d = denominator_lcm(row)
    return [int(a * d) for a in row]


def integer_kernel_basis(rows: Sequence[Sequence], ncols: int) -> list[IVec]:
    """Canonical basis of the kernel lattice {x in Z^n : A x = 0}.

    Integer column elimination keeps the lattice exact (the kernel of an
    integer matrix is saturated); the basis is canonicalized by HNF.
    """
    int_rows = [_clear_row_denominators(r) for r in rows if not is_zero_vector(r)]
    if not int_rows:
        return hnf([tuple(int(i == j) for j in range(ncols)) for i in range(ncols)])
    a_cols = [[r[j] for r in int_rows] for j in range(ncols)]
    u_cols = [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    is_pivot = [False] * ncols
    for i in range(len(int_rows)):
        while True:
            live = [j for j in range(ncols) if not is_pivot[j] and a_cols[j][i] != 0]
            if len(live) <= 1:
                if live:
                    is_pivot[live[0]] = True
                break
            jmin = min(live, key=lambda j: abs(a_cols[j][i]))
            for j in live:
                if j == jmin:
                    continue
                q = a_cols[j][i] // a_cols[jmin][i]
                a_cols[j] = [x - q * y for x, y in zip(a_cols[j], a_cols[jmin])]
                u_cols[j] = [x - q * y for x, y in zip(u_cols[j], u_cols[jmin])]
    free = [tuple(u_cols[j]) for j in range(ncols) if not is_pivot[j]]
    return hnf(free)


def saturated_span_basis(vectors: Sequence[Sequence], ncols: int) -> list[IVec]:
    """Canonical basis of span_Q(vectors) ∩ Z^n (a saturated lattice).

    It is the kernel lattice of a basis of the orthogonal complement.
    """
    return integer_kernel_basis(integer_kernel_basis(vectors, ncols), ncols)


def spans_lattice(vectors: Sequence[IVec], n: int) -> bool:
    """True iff the integer vectors generate Z^n as a lattice."""
    h = hnf(list(vectors))
    if len(h) < n:
        return False
    prod = 1
    for i, row in enumerate(h):
        pc = next(c for c in range(n) if row[c] != 0)
        prod *= row[pc]
    return prod == 1
