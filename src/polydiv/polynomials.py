"""Univariate polynomials over Q as ascending coefficient tuples.

Only what the curve layer needs: exact division, monic gcd and squarefree
(Yun) decomposition.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Poly = tuple[Fraction, ...]


def poly(coeffs: Sequence) -> Poly:
    c = [Fraction(a) for a in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


ZERO: Poly = ()
ONE: Poly = (Fraction(1),)
X: Poly = (Fraction(0), Fraction(1))


def degree(p: Poly) -> int:
    return len(p) - 1 if p else -1


def is_zero(p: Poly) -> bool:
    return not p


def leading(p: Poly) -> Fraction:
    return p[-1]


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return poly([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                 for i in range(n)])


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def scale(c, p: Poly) -> Poly:
    return poly([Fraction(c) * a for a in p])


def divmod_poly(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if is_zero(q):
        raise ZeroDivisionError("polynomial division by zero")
    if len(p) < len(q):
        return ZERO, p
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(rem) >= len(q) and rem:
        f = rem[-1] / q[-1]
        k = len(rem) - len(q)
        quo[k] = f
        for i, b in enumerate(q):
            rem[k + i] -= f * b
        while rem and rem[-1] == 0:
            rem.pop()
    return poly(quo), poly(rem)


def exact_div(p: Poly, q: Poly) -> Poly:
    quo, rem = divmod_poly(p, q)
    if not is_zero(rem):
        raise ValueError("inexact polynomial division")
    return quo


def monic(p: Poly) -> Poly:
    if is_zero(p):
        return p
    return scale(1 / leading(p), p)


def gcd(p: Poly, q: Poly) -> Poly:
    a, b = p, q
    while not is_zero(b):
        a, b = b, divmod_poly(a, b)[1]
    return monic(a)


def derivative(p: Poly) -> Poly:
    return poly([i * a for i, a in enumerate(p)][1:])


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = c * prod q_i^i with the q_i squarefree, coprime, monic."""
    p = monic(p)
    if degree(p) <= 0:
        return []
    if degree(p) == 1:
        return [(p, 1)]
    out = []
    g = gcd(p, derivative(p))
    w = exact_div(p, g)
    i = 1
    while degree(w) > 0:
        y = gcd(w, g)
        factor = exact_div(w, y)
        if degree(factor) > 0:
            out.append((monic(factor), i))
        w, g = y, exact_div(g, y)
        i += 1
    return out


def evaluate(p: Poly, x) -> Fraction:
    acc = Fraction(0)
    for a in reversed(p):
        acc = acc * Fraction(x) + a
    return acc


def to_string(p: Poly, var: str = "t") -> str:
    if is_zero(p):
        return "0"
    parts = []
    for i, a in enumerate(p):
        if a == 0:
            continue
        if i == 0:
            parts.append(str(a))
        else:
            coef = "" if a == 1 else ("-" if a == -1 else f"{a}*")
            parts.append(f"{coef}{var}" + (f"^{i}" if i > 1 else ""))
    return " + ".join(reversed(parts)).replace("+ -", "- ")
