"""Univariate polynomials as primitive integer tuples.

A polynomial is a tuple of integers, lowest degree first, that is
primitive (its coefficients have gcd 1) and has a positive leading
coefficient; () is zero.  Every nonzero polynomial over Q is a rational
multiple of exactly one such tuple, so the tuple names a polynomial up to
scaling, which is all a place or a factor key needs.  By Gauss's lemma a
product of primitive polynomials is primitive, and a primitive divisor of
an integer polynomial leaves an integer quotient, so products, exact
division, gcd and squarefree (Yun) decomposition all run over Z.  The
monic form over Q is only printed (:func:`to_string`).
"""

from __future__ import annotations

from math import gcd as igcd, lcm
from typing import Sequence

Poly = tuple[int, ...]

ONE: Poly = (1,)
X: Poly = (0, 1)


def poly(coeffs: Sequence) -> Poly:
    """The polynomial of rational coefficients ``coeffs``, lowest degree
    first: their primitive integer multiple with positive leading coefficient."""
    den = lcm(*(a.denominator for a in coeffs))
    c = [a.numerator * (den // a.denominator) for a in coeffs]
    while c and not c[-1]:
        c.pop()
    if not c:
        return ()
    g = igcd(*c) if c[-1] > 0 else -igcd(*c)
    return tuple(a // g for a in c)


def degree(p: Poly) -> int:
    return len(p) - 1 if p else -1


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q, i):
                out[j] += a * b
    return tuple(out)


def divide(p: Poly, q: Poly) -> Poly | None:
    """p / q if q divides p, else None.  q is primitive, so the quotient is
    integral and every step of the long division divides exactly."""
    rem, n, lead = list(p), len(q), q[-1]
    quo = [0] * max(0, len(p) - n + 1)
    for k in reversed(range(len(quo))):
        c, r = divmod(rem[k + n - 1], lead)
        if r:
            return None
        quo[k] = c
        for i, b in enumerate(q, k):
            rem[i] -= c * b
    return None if any(rem) else tuple(quo)


def gcd(p: Poly, q: Poly) -> Poly:
    """The greatest common divisor, by primitive pseudo-remainders: each
    step replaces p by lead(q)^k * p mod q, which stays integral."""
    while q:
        rem, n = list(p), len(q)
        while len(rem) >= n:
            c, k = rem.pop(), len(rem) - n + 1
            rem = [q[-1] * a for a in rem]
            for i, b in enumerate(q[:-1], k):
                rem[i] -= c * b
        p, q = q, poly(rem)
    return poly(p)


def derivative(p: Poly) -> Poly:
    return poly([i * a for i, a in enumerate(p)][1:])


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = c * prod q_i^i with the q_i squarefree and coprime."""
    if degree(p) <= 0:
        return []
    if degree(p) == 1:
        return [(p, 1)]
    out = []
    g = gcd(p, derivative(p))
    w = divide(p, g)
    i = 1
    while degree(w) > 0:
        y = gcd(w, g)
        factor = divide(w, y)
        if degree(factor) > 0:
            out.append((factor, i))
        w, g = y, divide(g, y)
        i += 1
    return out


def to_string(p: Poly, var: str = "t") -> str:
    """The monic form of p, such as t^2 - 1/2*t + 3."""
    parts = []
    for i, a in enumerate(p):
        if a == 0:
            continue
        g = igcd(a, p[-1])
        c = str(a // g) if g == p[-1] else f"{a // g}/{p[-1] // g}"
        if i == 0:
            parts.append(c)
        else:
            coef = "" if c == "1" else ("-" if c == "-1" else f"{c}*")
            parts.append(f"{coef}{var}" + (f"^{i}" if i > 1 else ""))
    return " + ".join(reversed(parts)).replace("+ -", "- ")
