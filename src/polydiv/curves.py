"""One-dimensional bases: the affine and projective lines over Q, and Spec Z.

A finite place and a factor key are both a polynomial of :mod:`polynomials`,
a primitive integer tuple, so they are equal exactly when they are the same
polynomial.  The monic form over Q (:func:`monic`) is only written and
sorted by: t + 1/2 comes before t + 1.  Rational functions are kept in
factored form over a gcd-free basis of squarefree polynomials, and over
Spec Z as their rational value.  Every algorithm downstream consumes only
vanishing orders and residue degrees.  The keys of a factor map are the
coarsest pairwise-coprime base of every factor the function was built
from, so two maps of one function can differ (t^2 - t against
t * (t - 1)); equality is :meth:`RationalFunction.same_as`.

Precondition: a finite place must be an irreducible polynomial.
:meth:`BasePoint.finite` rejects rational roots only in degrees 2 and 3, so
a reducible place of higher degree is accepted, and orders there are wrong:
the order of t^2+1 at the place t^4+3t^2+2 = (t^2+1)(t^2+2) comes out as 0.
Membership (:func:`in_sections`) relies on it too: it reads the order at a
place by dividing each key once.

Sections and membership read D = sum a_z * z as places z and an aligned
tuple of integer floors a_z, as ``PolyhedralDivisor.floors`` gives them:
zero entries change nothing, and the entry at infinity is read only on P1.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, prod
from typing import Iterable, Mapping, Sequence

from . import polynomials as up
from .polynomials import Poly


class CurveError(ValueError):
    pass


class WrongCurve(CurveError):
    pass


class BaseCurve(enum.Enum):
    AFFINE_LINE = "A1"
    PROJECTIVE_LINE = "P1"
    SPEC_Z = "SpecZ"

    @property
    def is_affine(self) -> bool:
        return self is not BaseCurve.PROJECTIVE_LINE

    @property
    def function_field_is_rational(self) -> bool:
        return self is not BaseCurve.SPEC_Z


AFFINE_LINE = BaseCurve.AFFINE_LINE
PROJECTIVE_LINE = BaseCurve.PROJECTIVE_LINE
SPEC_Z = BaseCurve.SPEC_Z


def monic(p: Poly) -> tuple:
    """p scaled to leading coefficient 1: the form places and keys are written and sorted in."""
    return p if not p or p[-1] == 1 else tuple(Fraction(a, p[-1]) for a in p)


@dataclass(frozen=True)
class BasePoint:
    """A closed point: a place given by its polynomial, the place at
    infinity, or a prime.  Points sort by kind, then monic polynomial."""

    kind: str  # "finite" | "infinity" | "prime"
    poly: Poly = ()
    prime: int = 0

    @functools.cached_property
    def _order(self) -> tuple:
        return self.kind, monic(self.poly), self.prime

    def __lt__(self, other: "BasePoint") -> bool:
        return self._order < other._order

    @staticmethod
    def finite(coeffs: Iterable) -> "BasePoint":
        p = up.poly(tuple(coeffs))
        if up.degree(p) < 1:
            raise CurveError("a finite place needs a nonconstant polynomial")
        if up.degree(up.gcd(p, up.derivative(p))) > 0:
            raise CurveError(f"place polynomial {up.to_string(p)} is not squarefree")
        if 2 <= up.degree(p) <= 3 and _has_rational_root(p):
            raise CurveError(f"place polynomial {up.to_string(p)} splits over Q")
        return BasePoint(kind="finite", poly=p)

    @staticmethod
    def rational(value) -> "BasePoint":
        return BasePoint.finite([-Fraction(value), 1])

    @staticmethod
    def infinity() -> "BasePoint":
        return BasePoint(kind="infinity")

    @staticmethod
    def of_prime(p: int) -> "BasePoint":
        if not is_prime(p):
            raise CurveError(f"{p} is not prime")
        return BasePoint(kind="prime", prime=p)

    @property
    def degree(self) -> int:
        if self.kind == "finite":
            return up.degree(self.poly)
        return 1

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    def on_curve(self, curve: BaseCurve) -> bool:
        if self.kind == "prime":
            return curve is SPEC_Z
        if self.kind == "infinity":
            return curve is PROJECTIVE_LINE
        return curve is not SPEC_Z

    def __repr__(self) -> str:
        if self.kind == "infinity":
            return "[inf]"
        if self.kind == "prime":
            return f"({self.prime})"
        return f"[{up.to_string(self.poly)}]"


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)  # the first 13 primes
_MR_BOUND = 3_317_044_064_679_887_385_961_981  # proven for them: Sorenson & Webster 2017


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n past the proven bound with no witness raises."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 2 ** i, n) != n - 1 for i in range(s)):
            return False
    if n >= _MR_BOUND:
        raise CurveError(f"{n} is beyond the proven range of the primality test")
    return True


def p_power_part(d: int, p: int) -> int:
    """k with d = l * p^k, gcd(l, p) = 1; 0 when p is 1 (characteristic zero)."""
    k = 0
    while p != 1 and d % p == 0:
        d, k = d // p, k + 1
    return k


def _has_rational_root(p: Poly) -> bool:
    """Exact rational-root test in degree 2 or 3, in O(log) steps at any size.
    A quadratic has one iff its discriminant is a square; a cubic iff the
    monic q(z) = a3^2 p(z / a3) has an integer root, inside Cauchy's bound.
    q is monotone on the integers cut at the floors of its critical points
    (-a2 -/+ sqrt(E)) / 3 when E = a2^2 - 3 a1 a3 > 0, so bisection decides."""
    if p[0] == 0:
        return True
    if len(p) == 3:
        disc = p[1] ** 2 - 4 * p[0] * p[2]
        return disc >= 0 and isqrt(disc) ** 2 == disc
    a0, a1, a2, a3 = p

    def q(z: int) -> int:
        return ((z + a2) * z + a1 * a3) * z + a0 * a3 * a3

    e, bound = a2 * a2 - 3 * a1 * a3, 1 + max(abs(a2), abs(a1 * a3), abs(a0 * a3 * a3))
    r = isqrt(max(e, 0))
    k1, k2 = (-a2 - r - (r * r != e)) // 3, (-a2 + r) // 3
    pieces = [(-bound, bound, 1)] if e <= 0 else \
        [(-bound, k1, 1), (k1 + 1, k2, -1), (k2 + 1, bound, 1)]
    for lo, hi, sign in pieces:
        while lo < hi:  # the least z in [lo, hi] with sign * q(z) >= 0
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if sign * q(mid) < 0 else (lo, mid)
        if lo == hi and q(lo) == 0:
            return True
    return False


def _factor_integer(n: int) -> dict[int, int]:
    """Prime powers of n >= 1: one prime p at a time, its whole power at once."""
    out: dict[int, int] = {}
    while n > 1:
        p = n
        while not is_prime(p):
            p = _split(p)
        out[p] = p_power_part(n, p)
        n //= p ** out[p]
    return out


_RHO_STEPS = 1 << 20  # least primes up to about 2^40; a 160-bit n fails in 2 s on a Xeon core


def _split(n: int) -> int:
    """A proper factor of the composite n: a base of is_prime that divides it, else
    Pollard's rho with Floyd's cycle search, about sqrt(p) steps for n's least prime p.
    A batch of 128 steps takes one gcd, of the product of its differences; a batch
    whose gcd is n is walked again one step at a time.  Past ``_RHO_STEPS`` it raises."""
    c, g, steps = 0, next((a for a in _MR_BASES if n % a == 0), n), 0
    while g == n:  # no base divides n, or the cycle closed mod n at once: next c
        c, x, y, g, batch = c + 1, 2, 2, 1, 128
        while g == 1:
            if steps >= _RHO_STEPS:
                raise CurveError(f"no factor of {n} found in {_RHO_STEPS} steps of Pollard's rho")
            steps, start, q = steps + batch, (x, y), 1
            for _ in range(batch):
                x = (x * x + c) % n
                y = (y * y + c) % n
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            if g == n and batch > 1:
                (x, y), g, batch = start, 1, 1
    return g


def _refine(exps: dict[Poly, int], f: Poly, e: int) -> None:
    """Multiply the factor map ``exps`` by f^e, f squarefree.

    The keys stay the coarsest pairwise-coprime base of every factor the map
    has seen, zero exponents included: a key b that meets f in a nonconstant
    d = gcd(f, b) splits into d, with exponent e_b + e, and b/d, with e_b,
    and f/d goes on (factor refinement; Bach, Driscoll & Shallit 1993).
    """
    queue = [f]
    while queue:
        g = queue.pop()
        if g in exps:
            exps[g] += e
            continue
        for b in exps:
            d = up.gcd(g, b)
            if up.degree(d) > 0:
                break
        else:
            exps[g] = e
            continue
        eb = exps.pop(b)
        exps[d] = eb + e
        if d != b:
            exps[up.divide(b, d)] = eb
        if d != g:
            queue.append(up.divide(g, d))


@dataclass(frozen=True)
class RationalFunction:
    """Nonzero element of Q(t) in factored form, or of Q* over Spec Z.

    ``factors`` maps squarefree pairwise-coprime polynomials to nonzero
    integer exponents: the coarsest coprime base of every factor the
    function was built from, so it depends on how the function was built
    and equality is :meth:`same_as`.  ``constant`` is the coefficient in
    front of the product of the keys' monic forms.  A Spec Z element is its
    value: ``constant`` holds it and ``factors`` is empty.
    """

    curve_kind: str  # "function_field" | "spec_z"
    constant: Fraction
    factors: tuple[tuple, ...]  # ((poly, exponent), ...) in monic order

    @staticmethod
    def from_factored(constant, factored: Mapping | None = None) -> "RationalFunction":
        """constant * prod f^e over rational coefficient tuples f."""
        c, pairs = Fraction(constant), []
        if c == 0:
            raise CurveError("rational functions are nonzero")
        for f, e in (factored or {}).items():
            p = up.poly(f)
            if up.degree(p) < 1:
                raise CurveError("factors must be nonconstant")
            c *= Fraction(f[len(p) - 1]) ** e  # f's leading coefficient
            pairs.append((p, e))
        return RationalFunction.monic_product(c, pairs)

    @staticmethod
    def monic_product(constant, factored: Iterable[tuple[Poly, int]]) -> "RationalFunction":
        """constant * prod monic(p)^e over polynomials p, constant nonzero."""
        exps: dict[Poly, int] = {}
        for p, e in factored:
            for sf, mult in up.squarefree_decomposition(p):
                _refine(exps, sf, mult * e)
        return RationalFunction._build("function_field", Fraction(constant), exps)

    @staticmethod
    def rational_number(value) -> "RationalFunction":
        v = Fraction(value)
        if v == 0:
            raise CurveError("rational functions are nonzero")
        return RationalFunction("spec_z", v, ())

    @staticmethod
    def variable(exponent: int = 1) -> "RationalFunction":
        """t^exponent, whose factor map {t: exponent} is already canonical."""
        return RationalFunction._build("function_field", Fraction(1), {up.X: exponent})

    @staticmethod
    def _build(kind: str, constant: Fraction, factors: Mapping) -> "RationalFunction":
        # trusted constructor: factors already canonical for this kind
        items = sorted(((b, e) for b, e in factors.items() if e), key=lambda be: monic(be[0]))
        return RationalFunction(kind, constant, tuple(items))

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if self.curve_kind != other.curve_kind:
            raise CurveError("cannot mix function fields")
        exps = dict(self.factors)
        for b, e in other.factors:
            _refine(exps, b, e)
        return RationalFunction._build(self.curve_kind,
                                       self.constant * other.constant, exps)

    def inverse(self) -> "RationalFunction":
        return RationalFunction._build(
            self.curve_kind, 1 / self.constant, {b: -e for b, e in self.factors})

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        return self * other.inverse()

    def scaled(self, c) -> "RationalFunction":
        c = Fraction(c)
        if c == 0:
            raise CurveError("rational functions are nonzero")
        return RationalFunction(self.curve_kind, self.constant * c, self.factors)

    def as_quotient(self) -> tuple[Fraction, Poly, Poly]:
        """(c, num, den) with self = c * num / den, exact; num and den are
        the products of the keys of positive and negative exponent."""
        if self.curve_kind != "function_field":
            raise CurveError("as_quotient() is for function-field elements")
        c, num, den = self.constant, up.ONE, up.ONE
        for b, e in self.factors:
            c /= Fraction(b[-1]) ** e
            for _ in range(abs(e)):
                num, den = (up.mul(num, b), den) if e > 0 else (num, up.mul(den, b))
        return c, num, den

    def add(self, other: "RationalFunction") -> "RationalFunction | None":
        """Exact sum; None encodes zero (which is not a RationalFunction).

        Two elements with equal ``factors`` are c1*F and c2*F for one
        canonical F (F = 1 over Spec Z), so their sum is (c1 + c2)*F with the
        factor map kept as it is.
        """
        if self.curve_kind != other.curve_kind:
            raise CurveError("cannot mix function fields")
        if self.factors == other.factors:
            c = self.constant + other.constant
            return None if c == 0 else RationalFunction(
                self.curve_kind, c, self.factors)
        (c1, n1, d1), (c2, n2, d2) = self.as_quotient(), other.as_quotient()
        num = [c1 * a + c2 * b for a, b in
               zip_longest(up.mul(n1, d2), up.mul(n2, d1), fillvalue=0)]
        p = up.poly(num)
        if not p:
            return None
        den = up.mul(d1, d2)
        return RationalFunction.monic_product(num[len(p) - 1] / den[-1], ((p, 1), (den, -1)))

    def ord_at(self, z: BasePoint) -> int:
        if (z.kind == "prime") != (self.curve_kind == "spec_z"):
            raise WrongCurve(f"{z} is no place of a {self.curve_kind} element")
        if z.kind == "prime":  # the p-adic valuation
            c = self.constant
            return p_power_part(c.numerator, z.prime) - p_power_part(c.denominator, z.prime)
        if z.kind == "infinity":
            return -sum(e * up.degree(b) for b, e in self.factors)
        # keys are squarefree, so the place divides a key at most once
        return sum(e for b, e in self.factors if up.divide(b, z.poly) is not None)

    def is_one(self) -> bool:
        return self.constant == 1 and not self.factors

    def same_as(self, other: "RationalFunction") -> bool:
        """Semantic equality: division refines both onto a common basis."""
        if self.curve_kind == other.curve_kind and self.factors == other.factors:
            return self.constant == other.constant
        return (self / other).is_one()

    def __repr__(self) -> str:
        parts = [] if self.constant == 1 and self.factors else [str(self.constant)]
        for b, e in self.factors:
            s = f"({up.to_string(b)})"
            parts.append(s if e == 1 else f"{s}^{e}")
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class Divisor:
    """Rational Weil divisor: finite map point -> coefficient, no zeros stored."""

    curve: BaseCurve
    coefficients: tuple[tuple[BasePoint, Fraction], ...]

    @staticmethod
    def of(curve: BaseCurve, coeffs: Mapping[BasePoint, object] | Iterable) -> "Divisor":
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[BasePoint, Fraction] = {}
        for z, a in items:
            if not z.on_curve(curve):
                raise WrongCurve(f"{z} does not lie on {curve.value}")
            acc[z] = acc.get(z, Fraction(0)) + Fraction(a)
        return Divisor(curve, tuple(sorted((z, a) for z, a in acc.items() if a != 0)))

    def coefficient(self, z: BasePoint) -> Fraction:
        return dict(self.coefficients).get(z, Fraction(0))

    @property
    def support(self) -> tuple[BasePoint, ...]:
        return tuple(z for z, _ in self.coefficients)

    def scaled(self, c) -> "Divisor":
        return Divisor.of(self.curve, [(z, Fraction(c) * a) for z, a in self.coefficients])

    @property
    def is_integral(self) -> bool:
        return all(a.denominator == 1 for _, a in self.coefficients)

    def restrict(self, excluded: Iterable[BasePoint]) -> "Divisor":
        cut = set(excluded)
        return Divisor(self.curve, tuple((z, a) for z, a in self.coefficients
                                         if z not in cut))

    def __repr__(self) -> str:
        if not self.coefficients:
            return "0"
        return " + ".join(f"{a}*{z}" for z, a in self.coefficients)


def principal_divisor(f: RationalFunction, curve: BaseCurve,
                      places: Iterable[BasePoint] = ()) -> Divisor:
    """div(f), one point per key of f's factor map refined against the finite
    ``places``: t^2 - t counts at the place t itself when t is among them.
    Over Spec Z the points are the primes of the value's factorization."""
    if curve is SPEC_Z:
        primes = _factor_integer(abs(f.constant.numerator) * f.constant.denominator)
        return Divisor.of(curve, [(z, f.ord_at(z)) for z in
                                  (BasePoint(kind="prime", prime=p) for p in primes)])
    exps = dict(f.factors)
    for z in places:
        if z.kind == "finite":
            _refine(exps, z.poly, 0)
    coeffs = [(BasePoint(kind="finite", poly=b), e) for b, e in exps.items()]
    if curve is PROJECTIVE_LINE:
        coeffs.append((BasePoint.infinity(), f.ord_at(BasePoint.infinity())))
    return Divisor.of(curve, coeffs)


def principal_divisors(fs: Sequence[RationalFunction], curve: BaseCurve,
                       places: Iterable[BasePoint] = ()) -> list[Divisor]:
    """div(f) for each f, refined against the keys of all of them and the finite
    ``places``; a key that no other key meets stays one point, reducible or not."""
    keys = [BasePoint(kind="finite", poly=b) for f in fs for b, _ in f.factors] + list(places)
    return [principal_divisor(f, curve, keys) for f in fs]


def in_sections(f: RationalFunction, curve: BaseCurve, places: Sequence[BasePoint],
                floors: Sequence[int]) -> bool:
    """Is f in H^0(O(D)) for D = sum floors[i] * places[i], that is
    ord_z(f) + a_z >= 0 at every place z?  One walk over f's factor map
    divides each key by each support place that divides it; a pole left in a
    key is off the support.  Over Spec Z the denominator may have no prime but
    the support's, so nothing is factored."""
    if (curve is SPEC_Z) != (f.curve_kind == "spec_z"):
        raise WrongCurve(f"{f} is no function on {curve.value}")
    if curve is SPEC_Z:
        den = f.constant.denominator
        for z, a in zip(places, floors):
            if f.ord_at(z) + a < 0:
                return False
            den //= z.prime ** p_power_part(den, z.prime)
        return den == 1
    finite = [z.poly for z in places if z.kind == "finite"]
    left = [a for z, a in zip(places, floors) if z.kind == "finite"]
    at_infinity = sum(a for z, a in zip(places, floors) if z.kind == "infinity")
    for b, e in f.factors:
        at_infinity -= e * up.degree(b)
        for i, p in enumerate(finite):
            q = up.ONE if b == p else up.divide(b, p)
            if q is not None:  # keys are squarefree: p divides b at most once
                b, left[i] = q, left[i] + e
        if e < 0 and up.degree(b) > 0:
            return False
    return min(left, default=0) >= 0 and (curve.is_affine or at_infinity >= 0)


@dataclass(frozen=True)
class SectionModule:
    """Global sections of O(floor(D)) in one of three shapes.

    kind "free": rank-1 free module with the stored generator;
    kind "space": finite-dimensional Q-vector space with the stored basis;
    kind "zero": the zero module.
    """

    kind: str
    generators: tuple[RationalFunction, ...]

    @staticmethod
    def free(gen: RationalFunction) -> "SectionModule":
        return SectionModule("free", (gen,))

    @staticmethod
    def space(basis: Iterable[RationalFunction]) -> "SectionModule":
        basis = tuple(basis)
        return SectionModule("space", basis) if basis else SectionModule.zero()

    @staticmethod
    def zero() -> "SectionModule":
        return SectionModule("zero", ())

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def generator(self) -> RationalFunction:
        assert self.kind == "free"
        return self.generators[0]

    def __repr__(self) -> str:
        if self.kind == "zero":
            return "0"
        if self.kind == "free":
            return f"<{self.generators[0]}> (free rank 1)"
        return "span{" + ", ".join(map(str, self.generators)) + "}"


def sections(curve: BaseCurve, places: Sequence[BasePoint],
             floors: Sequence[int]) -> SectionModule:
    """H^0(O(D)) for D = sum floors[i] * places[i]: free over Q[t] or Z on
    affine bases, a Q-space of dimension deg D + 1 (or 0) on P1."""
    if curve is SPEC_Z:
        return SectionModule.free(RationalFunction.rational_number(
            prod(Fraction(z.prime) ** -a for z, a in zip(places, floors))))
    gen = RationalFunction.monic_product(
        1, ((z.poly, -a) for z, a in zip(places, floors) if z.kind == "finite" and a))
    if curve is AFFINE_LINE:
        return SectionModule.free(gen)
    deg = sum(z.degree * a for z, a in zip(places, floors))
    if deg < 0:
        return SectionModule.zero()
    return SectionModule.space(
        gen * RationalFunction.variable(j) if j else gen for j in range(deg + 1))
