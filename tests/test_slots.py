"""The packed-slot codec ``linalg.slots`` and the four sites that use it.

The codec is checked on its own (packing is linear; the guard test is
u >= v slot by slot whenever every |u_i - v_i| is within the bound), then
through a mutant kept as a test: a codec one bit narrower must change the
answer at each site's slot-limit case.  Last, the width rule and any
hand-built guard live in ``linalg`` alone.
"""

import glob
import os
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from polydiv import convex, divisors, ideals
from polydiv.convex import Cone, Polyhedron, hilbert_basis
from polydiv.curves import AFFINE_LINE, SPEC_Z, BasePoint
from polydiv.divisors import DivisorError, PolyhedralDivisor
from polydiv.ideals import MonomialIdeal, closure_member_oracle
from polydiv.linalg import slots
from oracles import nonnegative_orthant

ROOT = os.path.join(os.path.dirname(__file__), "..")
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "polydiv", "*.py")))

bounds = st.one_of(
    st.integers(0, 40).flatmap(lambda k: st.sampled_from([2 ** k - 1, 2 ** k, 2 ** k + 1])),
    st.integers(0, 10 ** 6))


@st.composite
def close_pairs(draw):
    """(bound, u, v): up to 5 coordinates with |u_i - v_i| <= bound."""
    bound, count = draw(bounds), draw(st.integers(0, 5))
    u = draw(st.lists(st.integers(-3 * bound - 3, 3 * bound + 3), min_size=count, max_size=count))
    v = [a - draw(st.integers(-bound, bound)) for a in u]
    return bound, u, v


def pack(vector, units):
    return sum(a * unit for a, unit in zip(vector, units, strict=True))


@settings(max_examples=300, deadline=None)
@given(close_pairs())
def test_guard_test_is_slotwise_comparison(pair):
    bound, u, v = pair
    width, units, guard = slots(bound, len(u))
    assert units == tuple(2 ** (width * i) for i in range(len(u)))
    assert pack([a + b for a, b in zip(u, v)], units) == pack(u, units) + pack(v, units)
    assert pack([3 * a for a in u], units) == 3 * pack(u, units)
    x = pack(u, units) - pack(v, units) + guard
    # no slot borrows: slot i holds u_i - v_i plus its guard bit, in [1, 2^width)
    half = 2 ** (width - 1)
    assert all(0 < a - b + half < 2 * half for a, b in zip(u, v))
    assert x == sum((a - b + half) * unit for a, b, unit in zip(u, v, units))
    assert (x & guard == guard) == all(a >= b for a, b in zip(u, v))


@pytest.mark.parametrize("bound", [0, 1, 7, 8, 63, 2 ** 70])
def test_no_slots_no_guard(bound):
    """The packed frame with no finite place has no slot, and no guard."""
    width, units, guard = slots(bound, 0)
    assert (units, guard) == ((), 0)
    assert width >= 1


def narrower(bound, count):
    """The codec with slots one bit narrower, at least 1 bit wide."""
    width = max(bound.bit_length(), 1)
    units = tuple(2 ** (width * i) for i in range(count))
    return width, units, sum(units) * 2 ** (width - 1)


def outcome(run):
    """What ``run`` returns, or the type of what it raises."""
    try:
        return run()
    except Exception as e:
        return type(e)


def rank_two_hilbert_basis(height):
    return hilbert_basis(Cone.from_rays([(1, 0), (1, height)], 2))


def closure(exponent, m, d_max):
    return closure_member_oracle(m, MonomialIdeal(nonnegative_orthant(len(m)), (exponent,)), d_max)


def cofactor_generators(curve, floors):
    """The generator degrees of a rank-one divisor whose frames at 1 and 2
    have the given floors (see ``TestPackedFrames``)."""
    tail = Cone.from_rays([(1,)], 1)
    place = BasePoint.rational(0) if curve is AFFINE_LINE else BasePoint.of_prime(2)
    d = PolyhedralDivisor.of(curve, tail, {
        place: Polyhedron.from_vertices_and_tail([(F(1, 2),)], tail)})
    frames = {(0,): ((0,), 0), (1,): ((floors[0],), 0), (2,): ((floors[1],), 0)}
    gens = divisors._degree_zero_generators(d.curve, 1)
    divisors._run_affine(d, frames, divisors._packed(frames), [(1,), (2,)], gens, extend=True)
    return [g.degree for g in gens if any(g.degree)]


# (site, thunk, answer): every site's slot-limit case.  The rank-two cones
# of test_convex_oracle's width edges at 8, 16 and 32 are not among them:
# at volume V = 2^k a numerator plus a step, less V, lies in [-V, V - 2],
# which k + 1 bits still hold, so there the narrower codec answers right.
SLOT_LIMITS = [
    *[(f"parallelepiped-{h}", lambda h=h: rank_two_hilbert_basis(h),
       tuple((1, k) for k in range(h + 1))) for h in (7, 15, 31)],
    ("whole-cone", lambda: hilbert_basis(Cone.from_rays(
        [(-2, 2, 1), (-1, -2, 1), (0, 1, 0), (1, 2, 0)], 3)),
     ((-2, 2, 1), (-1, -2, 1), (0, 1, 0), (1, 2, 0))),
    *[(f"closure-{i}", lambda args=args: closure(*args), found)
      for i, (*args, found) in enumerate([((2,), (-1,), 1, False), ((-4,), (3,), 1, True),
                                          ((3,), (-4,), 4, False),
                                          ((3, 0), (-4, 5), 4, False)])],
    *[(f"cofactor+63-{name}", lambda curve=curve: cofactor_generators(curve, (-21, 21)),
       [(1,), (2,)]) for name, curve in (("A1", AFFINE_LINE), ("Spec Z", SPEC_Z))],
    *[(f"cofactor-63-{name}", lambda curve=curve: cofactor_generators(curve, (21, -21)),
       DivisorError) for name, curve in (("A1", AFFINE_LINE), ("Spec Z", SPEC_Z))],
]


@pytest.mark.parametrize("run, answer", [case[1:] for case in SLOT_LIMITS],
                         ids=[case[0] for case in SLOT_LIMITS])
def test_narrower_slots_fail_at_each_slot_limit(monkeypatch, run, answer):
    assert outcome(run) == answer
    for module in (convex, ideals, divisors):
        monkeypatch.setattr(module, "slots", narrower)
    assert outcome(run) != answer


def test_one_width_rule():
    """The width rule and every hand-built guard (a shift by a slot width)
    occur in ``linalg`` alone, the width rule once."""
    found = {}
    for path in SOURCES:
        with open(path) as fh:
            text = fh.read()
        for pattern in (r"bit_length\(\) \+ 1", r"<< *width"):
            if hits := len(re.findall(pattern, text)):
                found[os.path.basename(path), pattern] = hits
    assert found == {("linalg.py", r"bit_length\(\) \+ 1"): 1, ("linalg.py", r"<< *width"): 2}
