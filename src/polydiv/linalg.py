"""Exact integer linear algebra on small dense matrices.

Vectors are tuples of ints (lattice vectors) or Fractions; matrices are
lists of row tuples.  Every elimination is fraction-free: determinants by
Bareiss, adjugates by Gauss-Jordan in Bareiss's form, independent rows by
integer cross-multiplication, Hermite normal forms by integer row
operations, and kernel lattices read off the HNF of [A^T | I].  The kernel
routines clear rational rows of their denominators first; no floating
point anywhere.  :func:`slots` is the one packed-slot codec.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
IVec = tuple[int, ...]


def dot(u: Sequence, v: Sequence):
    """Exact inner product; stays in int when both vectors are integral."""
    assert len(u) == len(v), "dimension mismatch"
    return sum(map(mul, u, v))


def slots(bound: int, count: int) -> tuple[int, IVec, int]:
    """(width w, units, guard) of ``count`` slots for differences up to
    ``bound``: pack(u) = sum u_i * units_i, units (1, 2^w, 2^2w, ...), is
    linear; guard is 2^(w-1) in every slot.  w is one bit more than the
    bound's, so when every |u_i - v_i| <= bound, slot i of
    pack(u) - pack(v) + guard holds u_i - v_i + 2^(w-1), in [1, 2^w): no
    slot borrows, and (pack(u) - pack(v) + guard) & guard == guard iff
    u >= v slot by slot.  Callers run that test inline."""
    width = bound.bit_length() + 1
    units = tuple(1 << width * i for i in range(count))
    return width, units, sum(units) << width - 1


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
    """Integer adjugate of a nonsingular square integer matrix: A adj(A) = det(A) I.

    One fraction-free Gauss-Jordan elimination on [A | I] (Bareiss): every
    entry is an integer minor, every division exact.  It ends at [D I | D A^-1]
    with D = +/- det(A) the last pivot, so the right block times the sign of
    the row swaps is adj(A).  A singular A raises ``ValueError``.
    """
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    sign = prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            raise ValueError("singular matrix")
        if p != k:
            m[k], m[p], sign = m[p], m[k], -sign
        pivot, a = m[k], m[k][k]
        m = [row if i == k else [(a * x - row[k] * y) // prev for x, y in zip(row, pivot)]
             for i, row in enumerate(m)]
        prev = a
    return [[sign * x for x in row[n:]] for row in m]


def vadd(u: Sequence, v: Sequence) -> tuple:
    return tuple(map(add, u, v))


def vsub(u: Sequence, v: Sequence) -> tuple:
    return tuple(map(sub, u, v))


def vscale(c, u: Sequence) -> tuple:
    return tuple(c * a for a in u)


def is_zero_vector(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def denominator_lcm(values: Iterable) -> int:
    """Least d > 0 with d * a integral for every rational a; 1 when empty."""
    return lcm(*(a.denominator for a in values))


def primitive(u: Sequence) -> IVec:
    """Smallest integer vector on the ray spanned by ``u`` (same direction).

    The zero vector maps to itself.  Rational entries are cleared in
    integers, by the lcm d of their denominators; a float raises TypeError.
    """
    if all(type(a) is int for a in u):
        g = gcd(*u)
        return tuple(a // g for a in u) if g else tuple(u)
    try:
        d = lcm(*(a.denominator for a in u))
    except AttributeError:
        raise TypeError(f"not a vector of rationals: {tuple(u)!r}") from None
    return primitive([a.numerator * (d // a.denominator) for a in u])


def independent_rows(rows: Sequence[IVec], count: int) -> list[int]:
    """Indices of the first ``count`` linearly independent integer rows, in order.

    Fraction-free elimination: each row is reduced against the kept ones by
    integer cross-multiplication, so no rational number is formed, and a
    kept row is divided by the gcd of its entries, without which their
    length would double with every kept row.
    """
    chosen: list[int] = []
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, reduced row)
    for i, r in enumerate(rows):
        v = list(r)
        for pc, b in echelon:
            if v[pc]:
                v = [b[pc] * x - v[pc] * y for x, y in zip(v, b)]
        pc = next((j for j, x in enumerate(v) if x), None)
        if pc is not None:
            g = gcd(*v)
            echelon.append((pc, [x // g for x in v]))
            chosen.append(i)
            if len(chosen) == count:
                break
    return chosen


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
    return [tuple(row) for row in m[:r] if not is_zero_vector(row)]


def _clear_row_denominators(row: Sequence) -> list[int]:
    d = denominator_lcm(row)
    return [int(a * d) for a in row]


def integer_kernel_basis(rows: Sequence[Sequence], ncols: int) -> list[IVec]:
    """Canonical basis of the kernel lattice {x in Z^n : A x = 0}.

    The rows of [A^T | I] span the lattice of the (A x, x), x in Z^n.  Its
    HNF lists the rows whose A^T part is zero last, and their I part is
    then the HNF of the lattice of the x with A x = 0.
    """
    int_rows = [_clear_row_denominators(r) for r in rows if not is_zero_vector(r)]
    m = len(int_rows)
    h = hnf([tuple(r[j] for r in int_rows) + tuple(int(i == j) for i in range(ncols))
             for j in range(ncols)])
    return [row[m:] for row in h if not any(row[:m])]


def saturated_span_basis(vectors: Sequence[Sequence], ncols: int) -> list[IVec]:
    """Canonical basis of span_Q(vectors) ∩ Z^n (a saturated lattice).

    It is the kernel lattice of a basis of the orthogonal complement.
    """
    return integer_kernel_basis(integer_kernel_basis(vectors, ncols), ncols)


def spans_lattice(vectors: Sequence[IVec], n: int) -> bool:
    """True iff the integer vectors generate Z^n as a lattice."""
    h = hnf(list(vectors))
    return len(h) == n and all(next(a for a in row if a) == 1 for row in h)
