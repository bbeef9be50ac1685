import functools
import itertools
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from polydiv import curves, polynomials as up, serialize
from polydiv.curves import (
    AFFINE_LINE,
    PROJECTIVE_LINE,
    SPEC_Z,
    BasePoint,
    CurveError,
    Divisor,
    RationalFunction,
    WrongCurve,
    _has_rational_root,
    in_sections,
    is_prime,
    principal_divisor,
    sections,
)
from oracles import (
    dimension,
    divisor_degree,
    divisor_floor,
    divisor_sum,
    is_effective,
    is_principal,
    two_pass_factor_map,
    two_pass_product,
    zero_divisor,
)

Z0 = BasePoint.rational(0)
Z1 = BasePoint.rational(1)
INF = BasePoint.infinity()


def z_over_z_minus_1():
    # z/(z-1), entered in factored form
    return RationalFunction.from_factored(1, {(0, 1): 1, (-1, 1): -1})


class TestOrdAt:
    def test_z_over_z_minus_one(self):
        f = z_over_z_minus_1()
        assert f.ord_at(Z0) == 1
        assert f.ord_at(Z1) == -1
        assert f.ord_at(INF) == 0

    def test_rational_number_over_spec_z(self):
        f = RationalFunction.rational_number(F(4, 3))
        assert f.ord_at(BasePoint.of_prime(2)) == 2
        assert f.ord_at(BasePoint.of_prime(3)) == -1
        assert f.ord_at(BasePoint.of_prime(5)) == 0

    def test_constant_function(self):
        f = RationalFunction.from_factored(F(7, 5))
        assert f.ord_at(Z0) == 0
        assert f.ord_at(INF) == 0

    def test_degenerate_places_rejected(self):
        with pytest.raises(Exception):
            BasePoint.finite((0, 0, 1))  # t^2: not squarefree
        with pytest.raises(Exception):
            BasePoint.finite((-1, 0, 1))  # t^2 - 1: splits over Q
        BasePoint.finite((1, 0, 1))  # t^2 + 1 is a genuine degree-2 place

    @pytest.mark.xfail(strict=True, reason="a reducible place of degree 4 or more is "
                       "accepted until places are proved irreducible (ROADMAP item 2)")
    def test_reducible_quartic_place_is_rejected(self):
        with pytest.raises(CurveError):  # t^4 + 3t^2 + 2 = (t^2 + 1)(t^2 + 2)
            BasePoint.finite([2, 0, 3, 0, 1])

    def test_order_at_coarse_place(self):
        f = RationalFunction.from_factored(1, {(1, 0, 1): 2})
        assert f.ord_at(BasePoint.finite((1, 0, 1))) == 2
        assert f.ord_at(Z0) == 0


class TestRefinement:
    def test_common_factor_split(self):
        # (t^2 - 1) and (t - 1) must refine to coprime squarefree factors
        f = RationalFunction.from_factored(1, {(-1, 0, 1): 1, (-1, 1): 1})
        polys = [b for b, _ in f.factors]
        for i, p in enumerate(polys):
            assert up.gcd(p, up.derivative(p)) == up.ONE
            for q in polys[i + 1:]:
                assert up.gcd(p, q) == up.ONE
        assert f.ord_at(Z1) == 2
        assert f.ord_at(BasePoint.rational(-1)) == 1

    def test_squarefree_refinement(self):
        f = RationalFunction.from_factored(1, {(0, 0, 1): 1})  # t^2
        assert f.ord_at(Z0) == 2
        assert all(up.gcd(b, up.derivative(b)) == up.ONE for b, _ in f.factors)

    def test_semantic_equality_across_granularity(self):
        coarse = RationalFunction.from_factored(1, {(-1, 0, 1): 1})
        fine = RationalFunction.from_factored(1, {(-1, 1): 1}) * \
            RationalFunction.from_factored(1, {(1, 1): 1})
        assert coarse.same_as(fine)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([(0, 1), (-1, 1), (1, 1), (1, 0, 1), (-2, 1)]),
                    min_size=1, max_size=4),
           st.lists(st.integers(-2, 2), min_size=1, max_size=4))
    def test_ord_additive_under_multiplication(self, polys, exps):
        fac = {}
        for p, e in zip(polys, exps):
            fac[p] = fac.get(p, 0) + e
        f = RationalFunction.from_factored(2, fac)
        g = RationalFunction.from_factored(F(1, 3), {(0, 1): 1})
        for z in (Z0, Z1, BasePoint.rational(-2), INF):
            assert (f * g).ord_at(z) == f.ord_at(z) + g.ord_at(z)


class TestPrincipalDivisor:
    def test_on_projective_line(self):
        d = principal_divisor(z_over_z_minus_1(), PROJECTIVE_LINE)
        assert d.coefficient(Z0) == 1
        assert d.coefficient(Z1) == -1
        assert d.coefficient(INF) == 0
        assert divisor_degree(d) == 0

    def test_over_spec_z(self):
        d = principal_divisor(RationalFunction.rational_number(F(2, 3)), SPEC_Z)
        assert d.coefficient(BasePoint.of_prime(2)) == 1
        assert d.coefficient(BasePoint.of_prime(3)) == -1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-10 ** 9, 10 ** 9).filter(bool), st.integers(1, 10 ** 9))
    @example(43 ** 16, 1)  # past the proven bound of is_prime, 43 no base of it
    @example(999999999989 * 1000000000039, 7)  # two primes of about 10^12
    def test_spec_z_orders_match_sympy(self, num, den):
        sympy = pytest.importorskip("sympy")
        f = RationalFunction.rational_number(F(num, den))
        v = f.constant
        want = sympy.factorint(v.numerator)
        for p, e in sympy.factorint(v.denominator).items():
            want[p] = -e
        want.pop(-1, None)
        d = principal_divisor(f, SPEC_Z)
        assert {z.prime: a for z, a in d.coefficients} == want
        for p in set(want) | {2, 3, 5}:
            assert f.ord_at(BasePoint.of_prime(p)) == want.get(p, 0)

    def test_constant_on_affine_line(self):
        d = principal_divisor(RationalFunction.from_factored(F(5, 9)), AFFINE_LINE)
        assert d == zero_divisor(AFFINE_LINE)

    @settings(max_examples=30, deadline=None)
    @given(st.dictionaries(st.sampled_from([(0, 1), (-1, 1), (1, 0, 1)]),
                           st.integers(-3, 3), min_size=1))
    def test_degree_zero_on_projective_line(self, fac):
        f = RationalFunction.from_factored(F(3, 7), fac)
        assert divisor_degree(principal_divisor(f, PROJECTIVE_LINE)) == 0


class TestFloorsAndDegrees:
    """The floor and degree of a rational Divisor, as the sections oracle reads them."""

    def test_floor(self):
        d = Divisor.of(PROJECTIVE_LINE, {Z0: F(-1, 2), Z1: F(3, 2)})
        assert divisor_floor(d) == Divisor.of(PROJECTIVE_LINE, {Z0: -1, Z1: 1})
        assert divisor_floor(Divisor.of(PROJECTIVE_LINE, {Z0: F(1, 2)})) == \
            zero_divisor(PROJECTIVE_LINE)

    def test_floor_fixes_integral(self):
        d = Divisor.of(AFFINE_LINE, {Z0: 2, Z1: -3})
        assert divisor_floor(d) == d

    def test_degree_weights_residue_degree(self):
        quad = BasePoint.finite((1, 0, 1))  # t^2 + 1, degree 2
        d = Divisor.of(PROJECTIVE_LINE, {quad: F(1, 2)})
        assert divisor_degree(d) == 1

    def test_zero_divisor_degree(self):
        assert divisor_degree(zero_divisor(PROJECTIVE_LINE)) == 0


def aligned(floors: dict) -> tuple[tuple, tuple]:
    """The places of a floor map and their floors, aligned."""
    return tuple(floors), tuple(floors.values())


class TestSections:
    """``sections`` reads places and their integer floors: zero entries
    allowed, the entry at infinity read only on P1."""

    def test_spec_z_fractional_ideal(self):
        mod = sections(SPEC_Z, (BasePoint.of_prime(2), BasePoint.of_prime(3)), (-1, 1))
        assert mod.kind == "free"
        assert mod.generator.constant == F(2, 3)

    def test_projective_zero_space(self):
        for r in range(6):
            assert sections(PROJECTIVE_LINE, (Z0, Z1), (r, -(r + 1))).is_zero

    def test_affine_generator(self):
        mod = sections(AFFINE_LINE, (Z0,), (1,))
        assert mod.kind == "free"
        assert mod.generator.same_as(RationalFunction.variable(-1))

    def test_projective_dimension_formula(self):
        quad = BasePoint.finite((1, 0, 1))
        for floors in ({Z0: 2}, {Z0: 2, Z1: -1}, {quad: 1}, {INF: 3, Z0: -1}, {INF: -1}):
            expected = sum(z.degree * a for z, a in floors.items()) + 1
            mod = sections(PROJECTIVE_LINE, *aligned(floors))
            assert dimension(mod) == max(0, expected)
            # membership check: every basis element is a section
            for f in mod.generators:
                dv = divisor_sum(principal_divisor(f, PROJECTIVE_LINE),
                                 Divisor.of(PROJECTIVE_LINE, floors))
                assert is_effective(dv)
                assert in_sections(f, PROJECTIVE_LINE, *aligned(floors))

    @pytest.mark.parametrize("curve, floors", [
        (AFFINE_LINE, {Z0: 1, Z1: -2}), (PROJECTIVE_LINE, {Z0: 1, INF: 2}),
        (SPEC_Z, {BasePoint.of_prime(2): -1, BasePoint.of_prime(5): 2})])
    def test_zero_entries_change_nothing(self, curve, floors):
        extra = BasePoint.of_prime(3) if curve is SPEC_Z else BasePoint.finite((1, 0, 1))
        assert sections(curve, *aligned({**floors, extra: 0})) == \
            sections(curve, *aligned(floors))

    def test_infinity_is_read_only_on_p1(self):
        assert sections(AFFINE_LINE, (Z0, INF), (1, -5)) == sections(AFFINE_LINE, (Z0,), (1,))
        assert sections(PROJECTIVE_LINE, (Z0, INF), (1, -5)).is_zero

    def test_multiplicativity_into_sum(self):
        d1 = Divisor.of(AFFINE_LINE, {Z0: F(1, 2)})
        d2 = Divisor.of(AFFINE_LINE, {Z0: F(1, 2), Z1: 1})
        g1, g2, g12 = (sections(AFFINE_LINE, *aligned(dict(divisor_floor(d).coefficients))
                                ).generator
                       for d in (d1, d2, divisor_sum(divisor_floor(d1), divisor_floor(d2))))
        dv = divisor_sum(principal_divisor(g1 * g2, AFFINE_LINE),
                         divisor_floor(divisor_sum(d1, d2)))
        assert is_effective(dv)
        # surjectivity onto generators over the affine line
        assert (g1 * g2).same_as(g12) or \
            principal_divisor(g1 * g2, AFFINE_LINE) != principal_divisor(g12, AFFINE_LINE)


class TestIsPrincipal:
    def test_principal(self):
        assert is_principal(Divisor.of(PROJECTIVE_LINE, {Z0: 1, Z1: -1}))

    def test_rational_multiple(self):
        assert is_principal(Divisor.of(PROJECTIVE_LINE, {Z0: F(1, 2), Z1: F(-1, 2)}))

    def test_nonzero_degree(self):
        assert not is_principal(Divisor.of(PROJECTIVE_LINE, {Z0: 1}))

    def test_wrong_curve(self):
        with pytest.raises(WrongCurve):
            is_principal(Divisor.of(AFFINE_LINE, {Z0: 1}))


# fresh points on every draw, so that no order key is already cached:
# 2t + 1, 3t - 2, t^2 + 1, 2t^2 + 3, t - 1/2, t, infinity and three primes
POINT_MAKERS = [lambda: BasePoint.finite((1, 2)), lambda: BasePoint.finite((-2, 3)),
                lambda: BasePoint.finite((1, 0, 1)), lambda: BasePoint.finite((3, 0, 2)),
                lambda: BasePoint.rational(F(1, 2)), lambda: BasePoint.rational(0),
                BasePoint.infinity, lambda: BasePoint.of_prime(2),
                lambda: BasePoint.of_prime(3), lambda: BasePoint.of_prime(7)]
POINTS = st.lists(st.sampled_from(POINT_MAKERS).map(lambda make: make()), max_size=12)


class TestPointOrder:
    @given(POINTS)
    def test_points_sort_by_kind_then_monic_polynomial_then_prime(self, points):
        """Sorting compares keys computed once per point, so ``sorted`` of N
        points calls ``monic`` at most N times."""
        calls, monic = [], curves.monic

        def counted(p):
            calls.append(p)
            return monic(p)

        with mock.patch.object(curves, "monic", counted):
            ordered = sorted(points)
        assert len(calls) <= len(points)
        assert ordered == sorted(points, key=lambda z: (z.kind, curves.monic(z.poly), z.prime))


class TestPointValidation:
    def test_infinity_only_on_projective_line(self):
        with pytest.raises(WrongCurve):
            Divisor.of(AFFINE_LINE, {INF: 1})

    def test_primes_only_on_spec_z(self):
        with pytest.raises(WrongCurve):
            Divisor.of(AFFINE_LINE, {BasePoint.of_prime(2): 1})

    def test_non_prime_rejected(self):
        with pytest.raises(Exception):
            BasePoint.of_prime(6)

    def test_is_prime_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        assert [n for n in range(5001) if is_prime(n)] == \
            [n for n in range(5001) if sympy.isprime(n)]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-10, 10 ** 6))
    @example(561)  # Carmichael
    @example(2047)  # strong pseudoprime to base 2
    @example(3215031751)  # strong pseudoprime to bases 2, 3, 5 and 7
    def test_miller_rabin_matches_sympy(self, n):
        sympy = pytest.importorskip("sympy")
        assert is_prime(n) == sympy.isprime(n)

    def test_large_prime_is_decided_at_once(self):
        assert BasePoint.of_prime(10 ** 18 + 3).prime == 10 ** 18 + 3
        assert not is_prime(2 ** 200)  # a base divides it: decided at any size
        assert not is_prime(43 ** 16)  # a witness proves it composite past the bound

    def test_beyond_the_proven_bound_is_rejected(self):
        with pytest.raises(CurveError, match="proven range"):
            is_prime(3_317_044_064_679_887_385_961_981)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 3), st.booleans(), st.data())
    def test_rational_root_matches_sympy(self, deg, split, data):
        """Quadratics and cubics with coefficients up to 10^18, half of them
        a linear factor times a random polynomial."""
        sympy = pytest.importorskip("sympy")
        if split:
            small = st.integers(-10 ** 9, 10 ** 9)
            linear = data.draw(st.tuples(small, st.integers(1, 10 ** 9)))
            rest = data.draw(st.lists(small, min_size=deg - 1, max_size=deg - 1))
            coeffs = up.mul(linear, tuple(rest) + (data.draw(st.integers(1, 10 ** 9)),))
        else:
            big = st.integers(-10 ** 18, 10 ** 18)
            coeffs = tuple(data.draw(st.lists(big, min_size=deg, max_size=deg))) + \
                (data.draw(big.filter(bool)),)
        factors = sympy.Poly(coeffs[::-1], sympy.Symbol("t")).factor_list()[1]
        assert _has_rational_root(coeffs) == any(f.degree() == 1 for f, _ in factors)

    def test_places_with_large_coefficients_are_decided_at_once(self):
        """Decided by the discriminant and by bisection: a walk over the
        divisors of both end coefficients would try 2 * 6720^2 candidates
        on the cubic."""
        assert BasePoint.finite([100000007, 0, 1]).degree == 2
        assert BasePoint.finite([10 ** 18, 0, 1]).degree == 2
        assert BasePoint.finite([963761198400, 1, 0, 963761198400]).degree == 3
        with pytest.raises(CurveError, match="splits over Q"):  # (10^9 t - 1)(t^2 + 1)
            BasePoint.finite([-1, 10 ** 9, -1, 10 ** 9])


def rational_mul(p, q) -> list:
    """The product of two rational coefficient lists."""
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def rational_quotient(f) -> tuple[list, list]:
    """(num, den) over Q with f = num / den: the constant times the monic keys."""
    num, den = [f.constant], [F(1)]
    for b, e in f.factors:
        for _ in range(abs(e)):
            if e > 0:
                num = rational_mul(num, [F(a, b[-1]) for a in b])
            else:
                den = rational_mul(den, [F(a, b[-1]) for a in b])
    return num, den


def add_by_quotient(f, g):
    """The sum through rational numerator and denominator polynomials,
    refactored by ``from_factored``."""
    (n1, d1), (n2, d2) = rational_quotient(f), rational_quotient(g)
    num = [a + b for a, b in itertools.zip_longest(
        rational_mul(n1, d2), rational_mul(n2, d1), fillvalue=0)]
    while num and num[-1] == 0:
        num.pop()
    if not num:
        return None
    constant, fac = F(1), {}
    for p, e in ((tuple(num), 1), (tuple(rational_mul(d1, d2)), -1)):
        if len(p) > 1:
            fac[p] = fac.get(p, 0) + e
        else:
            constant *= p[0] ** e
    return RationalFunction.from_factored(constant, fac)


def yun(p):
    """Yun's squarefree decomposition with no shortcut for low degrees."""
    if up.degree(p) <= 0:
        return []
    out = []
    g = up.gcd(p, up.derivative(p))
    w = up.divide(p, g)
    i = 1
    while up.degree(w) > 0:
        y = up.gcd(w, g)
        factor = up.divide(w, y)
        if up.degree(factor) > 0:
            out.append((factor, i))
        w, g = y, up.divide(g, y)
        i += 1
    return out


POLYS = [(0, 1), (-1, 1), (1, 1), (1, 0, 1), (0, -1, 1), (-1, 0, 1), (0, 1, 1)]
FACTOR_MAPS = st.dictionaries(st.sampled_from(POLYS), st.integers(-2, 2), max_size=3)
CONSTANTS = st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool)


class TestFastPaths:
    def test_variable_is_the_canonical_power_of_t(self):
        for k in range(-6, 7):
            fast, slow = RationalFunction.variable(k), \
                RationalFunction.from_factored(1, {up.X: k})
            assert fast == slow
            assert type(fast.constant) is F
            assert fast.curve_kind == slow.curve_kind

    @settings(max_examples=60, deadline=None)
    @given(st.fractions(-50, 50, max_denominator=6).filter(bool),
           st.fractions(-50, 50, max_denominator=6))
    def test_linear_squarefree_decomposition_is_yuns(self, lead, root):
        p = up.poly((-root * lead, lead))
        assert up.squarefree_decomposition(p) == yun(p)

    @settings(max_examples=80, deadline=None)
    @given(FACTOR_MAPS, FACTOR_MAPS, CONSTANTS, CONSTANTS, st.booleans())
    def test_add_matches_the_quotient_route(self, fa, fb, ca, cb, same):
        f = RationalFunction.from_factored(ca, fa)
        g = RationalFunction.from_factored(cb, fa if same else fb)
        for x, y in ((f, g), (f, f.scaled(-1)), (f, f.scaled(cb))):
            got, want = x.add(y), add_by_quotient(x, y)
            if want is None:
                assert got is None
            else:
                assert got.same_as(want) and got.constant == want.constant

    def test_equal_factors_keep_their_factor_map(self):
        # (t^2 - t) stays one base; the quotient route would refine it too
        f = RationalFunction.from_factored(2, {(0, -1, 1): 1, (1, 1): -1})
        s = f.add(f.scaled(F(1, 2)))
        assert s == RationalFunction("function_field", F(3), f.factors)
        assert f.add(f.scaled(-1)) is None

    @settings(max_examples=60, deadline=None)
    @given(st.fractions(-50, 50, max_denominator=12).filter(bool),
           st.fractions(-50, 50, max_denominator=12).filter(bool))
    def test_spec_z_addition_goes_through_the_value(self, a, b):
        s = RationalFunction.rational_number(a).add(RationalFunction.rational_number(b))
        if a + b == 0:
            assert s is None
        else:
            assert s == RationalFunction.rational_number(a + b)
            assert s.constant == a + b and s.factors == ()

    def test_spec_z_equal_factors_stay_a_sign(self):
        two = RationalFunction.rational_number(2)
        s = two.add(two)
        assert s.constant == 4 and s.factors == ()


# t, t - 1, t + 1, t + 2, t^2 + 1, t^2 - 2: a drawn factor multiplies one to
# three of them, repeats allowed, so factors overlap and need not be squarefree
SMALL = [(0, 1), (-1, 1), (1, 1), (2, 1), (1, 0, 1), (-2, 0, 1)]
PRODUCTS = st.lists(st.sampled_from(SMALL), min_size=1, max_size=3).map(
    lambda ps: functools.reduce(up.mul, map(up.poly, ps)))
PRODUCT_MAPS = st.dictionaries(PRODUCTS, st.integers(-3, 3), max_size=4)


class TestOnePassRefinement:
    @settings(max_examples=150, deadline=None)
    @given(PRODUCT_MAPS)
    def test_from_factored_matches_the_two_pass_route(self, fac):
        assert RationalFunction.from_factored(1, fac).factors == two_pass_factor_map(fac)

    @settings(max_examples=150, deadline=None)
    @given(PRODUCT_MAPS, PRODUCT_MAPS)
    def test_product_matches_the_two_pass_route(self, fa, fb):
        f, g = RationalFunction.from_factored(2, fa), RationalFunction.from_factored(3, fb)
        product = f * g
        assert product.factors == two_pass_product(f, g)
        assert product.constant == 6

    def test_zero_sum_factor_still_splits(self):
        # t^0 cancels, but t still splits t^2 + t into t and t + 1
        for fac in ({(0, 1, 1): 1, (0, 1): 0}, {(0, 1): 0, (0, 1, 1): 1}):
            f = RationalFunction.from_factored(1, fac)
            assert f.factors == ((up.X, 1), (up.poly((1, 1)), 1))

    def test_leading_coefficient_goes_into_the_constant(self):
        one_minus_t = serialize.parse_function(
            {"constant": 1, "factors": [{"poly": [1, -1], "exp": 1}]}, AFFINE_LINE, "$")
        assert one_minus_t.as_quotient() == (-1, up.poly((-1, 1)), up.ONE)
        two_t_cubed = RationalFunction.from_factored(1, {(0, 2): 3})
        assert two_t_cubed.constant == 8 and two_t_cubed.factors == ((up.X, 3),)
        assert RationalFunction.from_factored(1, {(0, 0, 3): -1}).constant == F(1, 3)

    def test_order_at_a_place_inside_a_coarse_key(self):
        f = RationalFunction.from_factored(1, {(0, -1, 1): 2, (1, 0, 1): -1})
        assert [f.ord_at(z) for z in (Z0, Z1, BasePoint.finite((1, 0, 1)), INF)] == \
            [2, 2, -1, -2]

    def test_principal_divisor_refines_against_places(self):
        f = RationalFunction.from_factored(1, {(0, -1, 1): 1})  # t^2 - t
        coarse = principal_divisor(f, AFFINE_LINE)
        assert coarse.coefficient(Z0) == 0
        fine = principal_divisor(f, AFFINE_LINE, (Z0, BasePoint.rational(5)))
        assert fine == Divisor.of(AFFINE_LINE, {Z0: 1, Z1: 1})


def accepted_place(coeffs) -> bool:
    try:
        BasePoint.finite(coeffs)
    except CurveError:
        return False
    return True


# places of degree 1 to 3: squarefree, and with no rational root irreducible
PLACES = st.lists(st.integers(-6, 6), min_size=2, max_size=4).filter(
    lambda c: c[-1] != 0 and accepted_place(c)).map(tuple)
SCALARS = st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool)


def sympy_order(sympy, coeffs, factored, constant) -> int:
    """The order at the place ``coeffs`` of constant * prod f^e, by sympy."""
    t = sympy.Symbol("t")

    def expr(c):
        return sum(sympy.Rational(a.numerator, a.denominator) * t ** i
                   for i, a in enumerate(map(F, c)))
    f = sympy.Rational(constant.numerator, constant.denominator) * \
        sympy.Mul(*(expr(g) ** e for g, e in factored.items()))
    num, den = sympy.fraction(sympy.cancel(sympy.together(f)))
    place = sympy.Poly(expr(coeffs), t)

    def multiplicity(p):
        p, k = sympy.Poly(p, t), 0
        while (qr := p.div(place))[1].is_zero:
            p, k = qr[0], k + 1
        return k
    return multiplicity(num) - multiplicity(den)


class TestScalingInvariance:
    """A place is its polynomial up to a rational factor: k * p and p name
    one place, print alike and give one factor key, whatever the sign of k."""

    @settings(max_examples=80, deadline=None)
    @given(PLACES, SCALARS, SCALARS, st.integers(-3, 3).filter(bool),
           st.lists(st.integers(-4, 4), min_size=2, max_size=3).filter(lambda c: c[-1]),
           st.integers(-2, 2))
    @example((1, 2), F(-3, 2), F(1), 1, [0, 1], 0)
    def test_scaled_place_is_the_place(self, p, k, c, e, g, eg):
        kp = tuple(k * a for a in p)
        z = BasePoint.finite(p)
        assert BasePoint.finite(kp) == z
        assert hash(BasePoint.finite(kp)) == hash(z)
        assert serialize.point_doc(BasePoint.finite(kp)) == serialize.point_doc(z)
        assert RationalFunction.from_factored(c, {kp: e}) == \
            RationalFunction.from_factored(c * k ** e, {p: e})

        factored = {kp: e}
        factored[tuple(g)] = factored.get(tuple(g), 0) + eg
        f = RationalFunction.from_factored(c, factored)
        doc = {"constant": serialize.rational_str(c), "factors": [
            {"poly": [serialize.rational_str(a) for a in b], "exp": x}
            for b, x in factored.items()]}
        parsed = serialize.parse_function(doc, AFFINE_LINE, "$")
        assert parsed == f
        again = serialize.parse_function(serialize.function_doc(parsed), AFFINE_LINE, "$")
        assert again == parsed
        assert serialize.function_doc(again) == serialize.function_doc(parsed)
        sympy = pytest.importorskip("sympy")
        assert f.ord_at(z) == sympy_order(sympy, p, factored, c)
