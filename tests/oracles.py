"""Test-only definitions: second routes to values polydiv computes, and small
constructors that only tests need.

The cone oracles are the routes ``convex`` took before it read a cone's rays
off the incidence of one conversion: :func:`two_pass_cone` converts rays to
halfspaces and back, and :func:`facet_triangulation` rebuilds every facet of
a cone as a :class:`Cone` and pulls from its first ray.

The Hilbert-basis oracle :func:`hilbert_basis_by_graded_filter` is the route
``convex.hilbert_basis`` took before it walked each parallelepiped: every
point of the candidate box is mapped into the parallelepiped by two dense
products with the adjugate, and every candidate, with no reduction inside
its simplex, is compared on every facet with every kept element of smaller
degree.

The generator oracle is the route ``divisors.bounded_generators`` took before
it moved to integer frames.  On the projective line every product is a
:class:`RationalFunction`, products are deduped by canonical keys and a piece
is generated when the exact rank of the products over its first basis
element equals its dimension.  Over A1 and Spec Z a degree keeps the
pointwise minimum of the principal divisors of its products, a
:class:`Divisor`, and the piece is generated when that minimum is minus the
floor of the evaluation.

The product oracle :func:`run_projective_by_products` is the route
``divisors._run_projective`` took before it kept exponent vectors and
certified pieces by intervals of powers of t: every product is multiplied
out as an integer polynomial, the box pass keeps every distinct one, and
every piece is decided by a modular rank test with the exact rank as
fallback.  :func:`generators_by_products` runs ``bounded_generators`` on it.

The membership oracle :func:`member_by_divisors` is the route
``divisors.member`` took before it read integer floors place by place: the
principal divisor of f refined against the support, plus the floor of the
evaluation as a :class:`Divisor`, is effective.

The sections oracle :func:`sections_of_divisor` is the route
``curves.sections`` took before it read the integer floor map
``PolyhedralDivisor.floors``: it floors a rational :class:`Divisor`, such
as the evaluation ``divisors.evaluate(d, m)``, and reads the degree of the
floor off it.  The older oracles above reach graded pieces through it.

The factor-map oracle is the route ``RationalFunction.from_factored`` took
before factor refinement ran in one pass: :func:`two_pass_factor_map` grows a
gcd-free basis factor by factor, then re-expresses every exponent over the
final basis by repeated division.

The membership oracle :func:`monomial_member_by_floors` is the route the
horizontal expansion took before it kept a table of floors by degree: it
reads the floors of D(m) afresh for every term.

The quasifan oracle :func:`quasifan_by_vertex_choices` is the route
``divisors.quasifan`` took before it read the normal fan of the degree
polyhedron: one candidate cone per choice of a vertex in each coefficient,
the weights where every chosen vertex is support-minimizing, kept when it
is full-dimensional.

The box oracles are the routes that filtered every point of a box
(:func:`box_points`) before every box scan went through
``convex.lattice_points`` on integer rows: :func:`roots_by_filter` is the
route of ``gaactions.roots_with_ray``, which ran each point through
``is_demazure_root``, and :func:`augmented_slice_points` the augmented-cone
slice of check (ii) of ``ideals.pair_conditions``, which tested (m, e) for
membership in the augmented weight cone.

The lifted-Newton oracle :func:`ptilde_by_doubling` is the route
``ideals.ptilde`` took before it lifted the generators by their orders: the
hull of the lifts (m, -floor h_z(m, 1)) of the lattice points m of the
Newton box stretched by s times the Rees denominator times the Hilbert basis
of the weight cone, for s = 1, 2, 4, ..., until every lift of the box
stretched twice as far lies in it.

The expansion oracles :func:`toric_by_terms`, :func:`vertical_by_terms` and
:func:`horizontal_by_terms` are the routes the three additive-group actions
took before they shared ``gaactions._series``: each builds the coefficient of
its i-th term on its own, the toric one from binom(h, i) lambda^i alone and
rescaled by the element's constant afterwards, the horizontal one as
c binom(a, i) lambda^i t^(l + i u).
"""

from fractions import Fraction
from itertools import product
from math import comb, floor, prod
from operator import ge, mul
from unittest import mock

from polydiv import divisors, polynomials as up
from polydiv.convex import (
    Cone,
    Polyhedron,
    Unbounded,
    _echelon_coordinates,
    _simplicial_pieces,
    floored_support,
    hilbert_basis,
    lattice_points_in_box,
    reachability_box,
)
from polydiv.curves import (
    AFFINE_LINE,
    PROJECTIVE_LINE,
    SPEC_Z,
    BaseCurve,
    BasePoint,
    Divisor,
    RationalFunction,
    SectionModule,
    WrongCurve,
    _refine,
    in_sections,
    monic,
    principal_divisor,
)
from polydiv.divisors import (
    GeneratorReport,
    HomogeneousElement,
    OutsideWeightCone,
    PolyhedralDivisor,
    _cofactor_exponents,
    _raises_rank,
    evaluate,
    member,
)
from polydiv.gaactions import (
    ActionError,
    CoherentAssemblage,
    DemazureRoot,
    ExponentialExpansion,
    Monomial,
    NonMember,
    PhiNotAdmissible,
    RayNotInCone,
    is_demazure_root,
)
from polydiv.linalg import (
    IVec,
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


def box_points(box):
    """Lattice points of the box given by one (lo, hi) pair per coordinate,
    in lexicographic order."""
    return product(*[range(lo, hi + 1) for lo, hi in box])


def roots_by_filter(cone: Cone, ray, box) -> tuple[DemazureRoot, ...]:
    """The roots with distinguished ray ``ray``: every point of the box
    through ``is_demazure_root``, in box order."""
    ray = primitive(ray)
    if ray not in cone.rays:
        raise RayNotInCone(f"{ray} is not an extreme ray of the cone")
    out = []
    for e in box_points(box):
        root = is_demazure_root(cone, e)
        if root is not None and root.distinguished_ray == ray:
            out.append(root)
    return tuple(out)


def augmented_slice_points(pair, e: int, box) -> set[IVec]:
    """The m of the box with (m, e) in the pair's augmented weight cone."""
    cone = pair.weight_cone_augmented
    return {tuple(m) for m in box_points(box) if cone.contains(tuple(m) + (e,))}


def zero_divisor(curve: BaseCurve) -> Divisor:
    return Divisor(curve, ())


def zero_cone(ambient_rank: int) -> Cone:
    return Cone.from_rays([], ambient_rank)


def full_cone(ambient_rank: int) -> Cone:
    return Cone.from_halfspaces([], ambient_rank)


def dual_generators(generators, ambient: int, extreme_rays) -> tuple[IVec, ...]:
    """Minimal generating set of {y : <g, y> >= 0 for all g}, canonical.

    ``generators`` is a sorted tuple of distinct nonzero primitive vectors.
    The lineality part, the orthogonal complement of their span, gives +/-
    its HNF lattice basis; the pointed part gives the primitive extreme rays
    that ``extreme_rays(M, dim)`` finds for {c : M c >= 0} in coordinates of
    the span's lattice.
    """
    out: list[IVec] = []
    lin = integer_kernel_basis(generators, ambient) if generators else [
        tuple(int(i == j) for j in range(ambient)) for i in range(ambient)]
    for b in lin:
        out += [tuple(b), tuple(-a for a in b)]
    if generators:
        sbasis = integer_kernel_basis(lin, ambient)
        mat = [tuple(dot(g, b) for b in sbasis) for g in generators]
        for c in extreme_rays(mat, len(sbasis)):
            out.append(primitive(tuple(sum(ci * bi for ci, bi in zip(c, col))
                                       for col in zip(*sbasis))))
    return tuple(sorted(set(out)))


def two_pass_cone(vectors, ambient: int, extreme_rays) -> Cone:
    """``Cone.from_rays`` by two conversions, rays -> halfspaces -> rays,
    without a memo."""
    gens = tuple(sorted({primitive(v) for v in vectors} - {(0,) * ambient}))
    hs = dual_generators(gens, ambient, extreme_rays)
    return Cone(rays=dual_generators(hs, ambient, extreme_rays), halfspaces=hs,
                ambient_rank=ambient)


def facet_triangulation(c: Cone) -> list[tuple[IVec, ...]]:
    """Star triangulation of a pointed cone: every facet not holding the
    first ray is rebuilt as a cone and triangulated, and the first ray is
    joined to its pieces."""
    rays = c.rays
    if len(rays) <= c.dim:
        return [rays] if rays else []
    pieces = []
    for h in c.halfspaces:
        tight = tuple(r for r in rays if dot(h, r) == 0)
        if len(tight) < len(rays) and dot(h, rays[0]) != 0:
            facet = Cone.from_rays(tight, c.ambient_rank)
            pieces += [(rays[0],) + simplex for simplex in facet_triangulation(facet)]
    return pieces


def hilbert_basis_by_graded_filter(c: Cone) -> tuple[IVec, ...]:
    """Hilbert basis of a pointed cone: parallelepiped points by a product
    loop over the HNF box, then a scan of every kept element on every facet."""
    candidates = set(c.rays)
    for rays in _simplicial_pieces(c):
        n = len(rays[0])
        if len(rays) == n:
            ray_coords = rays
        else:
            sbasis = saturated_span_basis(rays, n)
            ray_coords = [_echelon_coordinates(sbasis, r) for r in rays]
        diag = [next(a for a in row if a != 0) for row in hnf(ray_coords)]
        det = bareiss_det(ray_coords)
        sign, volume = (1, det) if det > 0 else (-1, -det)
        columns = list(zip(*adjugate(ray_coords)))
        for cand in product(*[range(d) for d in diag]):
            num = [sign * sum(map(mul, cand, col)) % volume for col in columns]
            candidates.add(tuple(sum(map(mul, num, col)) // volume for col in zip(*rays)))
    candidates.discard((0,) * c.ambient_rank)
    graded = []
    for x in candidates:
        values = tuple(dot(h, x) for h in c.halfspaces)
        graded.append((sum(values), x, values))
    kept: list[tuple[int, IVec, IVec]] = []
    for deg, x, values in sorted(graded):
        if not any(dy < deg and all(map(ge, values, vy)) for dy, _, vy in kept):
            kept.append((deg, x, values))
    return tuple(sorted(x for _, x, _ in kept))


def outcome(report, name: str) -> tuple[bool, str]:
    """(passed, note) of the named condition of a ``ConditionReport``."""
    for n, ok, note in report.results:
        if n == name:
            return ok, note
    raise KeyError(name)


def rref(rows) -> list[tuple]:
    """Reduced row echelon form over Q; zero rows dropped."""
    m = [list(map(Fraction, r)) for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [a / m[r][c] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]]


def rank(rows) -> int:
    """Rank over Q by Fraction elimination."""
    return len(rref(rows))


def nonnegative_orthant(ambient_rank: int) -> Cone:
    eye = [tuple(int(i == j) for j in range(ambient_rank)) for i in range(ambient_rank)]
    return Cone.from_rays(eye, ambient_rank)


def one(curve: BaseCurve) -> RationalFunction:
    if curve is SPEC_Z:
        return RationalFunction.rational_number(1)
    return RationalFunction.from_factored(1)


def is_effective(d: Divisor) -> bool:
    return all(a >= 0 for _, a in d.coefficients)


def divisor_sum(first: Divisor, *rest: Divisor) -> Divisor:
    """The sum of Weil divisors on one curve."""
    if any(d.curve != first.curve for d in rest):
        raise WrongCurve("divisors on different curves")
    return Divisor.of(first.curve, [c for d in (first, *rest) for c in d.coefficients])


def divisor_floor(d: Divisor) -> Divisor:
    """The integral Weil divisor floor(D), coefficient by coefficient."""
    return Divisor.of(d.curve, [(z, floor(a)) for z, a in d.coefficients])


def divisor_degree(d: Divisor) -> Fraction:
    """sum deg z * a_z over the coefficients, infinity included."""
    return sum((Fraction(z.degree) * a for z, a in d.coefficients), Fraction(0))


def sections_of_divisor(d: Divisor) -> SectionModule:
    """``curves.sections`` of a rational Divisor: H^0 of O(floor(D))."""
    dd = divisor_floor(d)
    if d.curve is SPEC_Z:
        return SectionModule.free(RationalFunction.rational_number(
            prod(Fraction(z.prime) ** -int(a) for z, a in dd.coefficients)))
    gen = RationalFunction.monic_product(
        1, [(z.poly, -int(a)) for z, a in dd.coefficients if z.kind == "finite"])
    if d.curve is AFFINE_LINE:
        return SectionModule.free(gen)
    deg = int(divisor_degree(dd))
    if deg < 0:
        return SectionModule.zero()
    return SectionModule.space(
        gen * RationalFunction.variable(j) if j else gen for j in range(deg + 1))


def vertex_minimum_divisor(d: PolyhedralDivisor, e) -> Divisor:
    """The least <e, v> over the vertices v at each place, a rational Divisor
    defined off the weight cone too: ``gaactions.vertical_phi`` took the
    sections of its floor before it read ``d.floors(e)``."""
    return Divisor.of(d.curve, [(z, min(dot(e, v) for v in poly.vertices))
                                for z, poly in d.coefficients])


def member_by_divisors(el: HomogeneousElement, d) -> bool:
    """``divisors.member`` through Divisors: div(f) + floor(D(m)) >= 0."""
    if not d.in_weight_cone(el.degree):
        return False
    return is_effective(divisor_sum(principal_divisor(el.function, d.curve, d.support),
                                    divisor_floor(evaluate(d, el.degree))))


def is_principal(d: Divisor) -> bool:
    if d.curve is not PROJECTIVE_LINE:
        raise WrongCurve("principality test is for the projective line")
    return divisor_degree(d) == 0


def dimension(module: SectionModule) -> int | None:
    """Q-dimension for vector spaces, None for free modules."""
    if module.kind == "zero":
        return 0
    if module.kind == "space":
        return len(module.generators)
    return None


def default_box(d) -> tuple[tuple[int, int], ...]:
    """The box ``bounded_generators`` uses when none is given."""
    return divisors._box_around(divisors.probe_degrees(d, d.denominator()), d.rank)


def support_value_hilbert_oracle(halfspace_data, m: IVec) -> Fraction:
    """Support value of {v : <m_i, v> >= -e_i} at primitive m, via Hilbert bases.

    Lifts the ray L = Q>=0*m to the cone {s in Q^r_{>=0} : sum s_i m_i in L},
    takes its Hilbert basis H_L, keeps the elements with sum s_i m_i != 0,
    and returns -min of (sum s_i e_i) / lambda(s) where sum s_i m_i =
    lambda(s) * m.  Independent route to the same value as
    :func:`convex.support_value` on the polyhedron built from the same data.
    """
    normals = [tuple(v) for v, _ in halfspace_data]
    offsets = [Fraction(e) for _, e in halfspace_data]
    r = len(normals)
    n = len(m)
    ineqs: list[tuple[int, ...]] = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    # sum s_i m_i parallel to m: all 2x2 minors with m vanish
    for j in range(n):
        for k in range(j + 1, n):
            row = tuple(normals[i][j] * m[k] - normals[i][k] * m[j] for i in range(r))
            if not is_zero_vector(row):
                ineqs.append(row)
                ineqs.append(tuple(-a for a in row))
    # orientation: <sum s_i m_i, m> >= 0
    ineqs.append(tuple(sum(normals[i][j] * m[j] for j in range(n)) for i in range(r)))
    cone = Cone.from_halfspaces(ineqs, r)
    values = []
    for s in hilbert_basis(cone):
        image = tuple(sum(s[i] * normals[i][j] for i in range(r)) for j in range(n))
        if is_zero_vector(image):
            continue
        lam = next(Fraction(image[j], m[j]) for j in range(n) if m[j] != 0)
        values.append(sum(Fraction(s[i]) * offsets[i] for i in range(r)) / lam)
    if not values:
        raise Unbounded(f"direction {m} not in the cone spanned by the normals")
    return -min(values)


# -- factor maps in two passes --------------------------------------------------

def multiplicity(p, q) -> int:
    """Largest k with q^k dividing p (q nonconstant, p nonzero)."""
    k = 0
    while (p := up.divide(p, q)) is not None:
        k += 1
    return k


def refine_factor(basis: list, f) -> dict:
    """Express the squarefree f over a growing pairwise-coprime basis."""
    exps: dict = {}
    queue = [f]
    while queue:
        g = queue.pop()
        if up.degree(g) < 1:
            continue
        for b in list(basis):
            d = up.gcd(g, b)
            if up.degree(d) < 1:
                continue
            if d == b:
                exps[b] = exps.get(b, 0) + 1
                queue.append(up.divide(g, b))
                break
            # split the basis element itself
            basis.remove(b)
            basis.append(d)
            basis.append(up.divide(b, d))
            queue.append(g)
            break
        else:
            basis.append(g)
            exps[g] = exps.get(g, 0) + 1
    return exps


def two_pass_factor_map(factored) -> tuple:
    """The sorted factor map of prod f^e: refine every squarefree part of
    every f (zero exponents too) into one basis, then re-express each
    exponent over the final basis."""
    basis: list = []
    exps: dict = {}
    for f, e in factored.items():
        for sf, mult in up.squarefree_decomposition(up.poly(f)):
            for b, k in refine_factor(basis, sf).items():
                exps[b] = exps.get(b, 0) + k * mult * e
    final: dict = {}
    for b, e in exps.items():
        if e == 0:
            continue
        rem = b
        for bb in basis:
            m = multiplicity(rem, bb)
            if m:
                final[bb] = final.get(bb, 0) + m * e
                for _ in range(m):
                    rem = up.divide(rem, bb)
    return tuple(sorted(((b, e) for b, e in final.items() if e != 0),
                        key=lambda item: monic(item[0])))


def two_pass_product(f, g) -> tuple:
    """The sorted factor map of f*g: both maps merged, then two passes."""
    merged: dict = {}
    for b, e in f.factors + g.factors:
        merged[b] = merged.get(b, 0) + e
    return two_pass_factor_map(merged)


# -- generators on the projective line as rational functions -------------------

def function_keys(funcs) -> list[tuple]:
    """One hashable key per function, equal exactly when the functions are.

    The key is (curve_kind, constant, exponents).  Function-field exponents
    are taken over one gcd-free refinement of all bases in ``funcs``: each
    base is squarefree, so it is the product of the refined bases that
    divide it, and the exponents over pairwise coprime bases are unique.  A Spec Z element has no factors: its constant is its value.
    """
    bases = sorted({b for f in funcs if f.curve_kind == "function_field"
                    for b, _ in f.factors})
    refined: dict = {}
    for b in bases:
        _refine(refined, b, 0)
    parts = {b: [r for r in refined if multiplicity(b, r)] for b in bases}
    keys = []
    for f in funcs:
        exps: dict = {}
        for b, e in f.factors:
            for r in parts.get(b, (b,)):
                exps[r] = exps.get(r, 0) + e
        keys.append((f.curve_kind, f.constant, tuple(sorted(exps.items()))))
    return keys


def dedupe_functions(funcs: list) -> list:
    """The first of each class of equal functions, in order."""
    seen: set = set()
    out = []
    for f, key in zip(funcs, function_keys(funcs)):
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out


def piece_generated(d, m: IVec, products: list) -> bool:
    """Do the given degree-m products span the graded piece at m?

    Exact linear algebra on coefficient vectors over the first basis element.
    """
    target = sections_of_divisor(evaluate(d, m))
    if target.is_zero:
        return True
    if not products:
        return False
    basis = target.generators
    gen0 = basis[0]
    dim = len(basis)
    rows = []
    for f in products:
        c, num, den = (f / gen0).as_quotient()
        if up.degree(den) != 0 or up.degree(num) >= dim:
            return False
        rows.append(tuple(c * num[i] if i < len(num) else Fraction(0) for i in range(dim)))
    return rank(rows) == dim


def _run_projective(d, box_bounds, generators, weight, extend):
    degrees = divisors._box_degrees(d, box_bounds, weight)
    products: dict = {}
    failures = []
    for m in degrees:
        prods = []
        for g in generators:
            rest = tuple(a - b for a, b in zip(m, g.degree))
            if not d.in_weight_cone(rest):
                continue
            if not any(rest):
                prods.append(g.function)
            elif rest in products:
                prods.extend(g.function * f for f in products[rest])
        prods = dedupe_functions(prods)
        if not piece_generated(d, m, prods):
            if not extend:
                failures.append(m)
                products[m] = prods
                continue
            merged = dedupe_functions(prods + list(sections_of_divisor(evaluate(d, m)).generators))
            generators.extend(HomogeneousElement(f, m) for f in merged[len(prods):])
            prods = merged
        products[m] = prods
    return failures


def _run_affine(d, box_bounds, generators, weight, extend):
    degrees = divisors._box_degrees(d, box_bounds, weight)
    reachable = {tuple(0 for _ in range(d.rank)): zero_divisor(d.curve)}
    failures = []
    for m in degrees:
        best = None
        for g in generators:
            rest = tuple(a - b for a, b in zip(m, g.degree))
            if not any(g.degree) or rest not in reachable:
                continue
            cand = divisor_sum(principal_divisor(g.function, d.curve), reachable[rest])
            if best is None:
                best = cand
            else:
                points = set(best.support) | set(cand.support)
                best = Divisor.of(d.curve, [
                    (z, min(best.coefficient(z), cand.coefficient(z))) for z in points])
        target = divisor_floor(evaluate(d, m)).scaled(-1)
        if best != target:
            if not extend:
                failures.append(m)
                continue
            generators.append(HomogeneousElement(sections_of_divisor(evaluate(d, m)).generator, m))
            best = target
        reachable[m] = best
    return failures


def bounded_generators(d, box) -> GeneratorReport:
    """``divisors.bounded_generators`` by the function and divisor routes."""
    ok, cert = divisors.is_proper(d)
    if not ok:
        raise divisors.NotProper(cert)
    box = tuple((int(a), int(b)) for a, b in box)
    weight = divisors._interior_weight(d.weight_cone)
    run = _run_affine if d.curve.is_affine else _run_projective
    gens = divisors._degree_zero_generators(d.curve, d.rank)
    run(d, box, gens, weight, extend=True)
    hull = tuple((min(lo, 2 * lo), max(hi, 2 * hi)) for lo, hi in box)
    missing = run(d, hull, list(gens), weight, extend=False)
    return GeneratorReport(tuple(gens), box, not missing, tuple(missing))


def run_projective_by_products(d: PolyhedralDivisor, frames, box_degrees, degrees):
    """Both passes of :func:`bounded_generators` on the projective line.

    Vector invariant: the piece at m is gen_m * {p(t) : deg p < dim_m} with
    dim_m = deg floor(D(m)) + 1 (or 0).  The product g * f of degrees m_g
    and r = m - m_g is gen_m * p_g * p_f * c with c the product of the
    places to :func:`_cofactor_exponents`.  Each place enters c as its
    primitive integer polynomial, so a kept p is a trimmed int tuple equal
    to the exact one up to a nonzero rational factor, which no span sees.
    In the box pass every kept p is t^J times place polynomials, so by
    unique factorization p fixes the function: tuple equality dedupes, and
    p = t^j exactly for the basis element gen_m * t^j.

    Rank certificate, one-sided: the rank mod ``_PRIME`` is at most the rank
    over Q, so a modular rank of dim_m proves the products span the piece;
    only a shortfall goes to the fraction-free exact rank,
    :func:`linalg.independent_rows`.  The box pass keeps every distinct
    product, since which t^j become new generators depends on which occur
    among them.  The doubled pass needs spans only: it keeps the products
    that raised the modular rank, stops at dim_m, and on a shortfall keeps
    the exactly independent ones among all its candidates.
    """
    places = [z.poly for z in d.support if z.kind == "finite"]
    cofactors: dict[IVec, tuple] = {}

    def cofactor(exps: IVec) -> tuple:
        if exps not in cofactors:
            c = (1,)
            for poly, e in zip(places, exps):
                for _ in range(e):
                    c = up.mul(c, poly)
            cofactors[exps] = c
        return cofactors[exps]

    def products_at(m: IVec, gens, products):
        for g, p_g in gens:
            rest = vsub(m, g.degree)
            if rest in products:
                p_gc = up.mul(p_g, cofactor(_cofactor_exponents(frames, m, g.degree, rest)))
                for p in products[rest]:
                    yield up.mul(p_gc, p)

    def run(degrees, gens, extend):
        products: dict[IVec, list[tuple]] = {(0,) * d.rank: [(1,)]}
        failures = []
        for m in degrees:
            dim = max(frames[m][1] + 1, 0)
            echelon: dict[int, list[int]] = {}
            independent: list[tuple] = []
            seen: dict[tuple, None] = {}  # every distinct product, in order
            for p in products_at(m, gens, products):
                if p not in seen:
                    seen[p] = None
                    if len(independent) < dim and _raises_rank(echelon, p):
                        independent.append(p)
                        if len(independent) == dim and not extend:
                            break
            if len(independent) < dim:
                rows = list(seen)
                independent = [rows[i] for i in independent_rows(
                    [p + (0,) * (dim - len(p)) for p in rows], dim)]
                if len(independent) < dim and not extend:
                    failures.append(m)
                elif len(independent) < dim:
                    basis = sections_of_divisor(evaluate(d, m)).generators
                    for j in range(dim):
                        if (unit := (0,) * j + (1,)) not in seen:
                            gens.append((HomogeneousElement(basis[j], m), unit))
                            seen[unit] = None
            products[m] = list(seen) if extend else independent
        return failures

    gens: list[tuple[HomogeneousElement, tuple]] = []
    run(box_degrees, gens, extend=True)
    return [g for g, _ in gens], run(degrees, list(gens), extend=False)


def generators_by_products(d, box) -> GeneratorReport:
    """``divisors.bounded_generators`` with :func:`run_projective_by_products`
    for its passes on the projective line."""
    with mock.patch.object(divisors, "_run_projective", run_projective_by_products):
        return divisors.bounded_generators(d, box)


def quasifan_by_vertex_choices(d: PolyhedralDivisor) -> tuple[Cone, ...]:
    """Maximal cones of the quasifan: the full-dimensional cones among those
    cut out by the weight cone and, for each choice of one vertex per
    coefficient, <m, other - chosen> >= 0 for the other vertices."""
    n = d.rank
    weight = d.weight_cone
    if not d.coefficients:
        return (weight,)
    cones = set()
    for pick in product(*[poly.vertices for _, poly in d.coefficients]):
        normals = list(weight.halfspaces)
        for chosen, (_, poly) in zip(pick, d.coefficients):
            normals += [primitive(vsub(other, chosen)) for other in poly.vertices
                        if other != chosen]
        cone = Cone.from_halfspaces(normals, n)
        if cone.dim == n:
            cones.add(cone)
    return tuple(sorted(cones, key=lambda c: c.rays))


def ptilde_by_doubling(pair, z: BasePoint) -> Polyhedron:
    """The lifted Newton polyhedron at z by boxes doubled until a box twice
    as wide adds no lift outside the hull.  Each hull is taken of the last
    one's vertices and the new lifts outside it, not of every lift."""
    poly = pair.rees_divisor.coefficient(z)
    newton = pair.newton
    n = newton.ambient_rank
    amb = pair.presentation.divisor.coefficient(z)
    tail = Cone.from_halfspaces([tuple(h) + (0,) for h in newton.tail.halfspaces]
                                + [tuple(v) + (1,) for v in amb.vertices], n + 1)

    def lift(m):
        return tuple(m) + (-floored_support(poly, tuple(m) + (1,)),)

    def lifts(scale):
        hb = [vscale(scale * pair.rees_divisor.denominator(), h)
              for h in hilbert_basis(newton.tail)]
        return [lift(m) for m in lattice_points_in_box(newton, *reachability_box(newton, hb))]

    scale, out = 1, Polyhedron.from_vertices_and_tail(lifts(1), tail)
    while True:
        outside = [x for x in lifts(2 * scale) if not out.contains(x)]
        if not outside:
            return out
        out = Polyhedron.from_vertices_and_tail(list(out.vertices) + outside, tail)
        scale *= 2
        assert scale <= 16, f"lifted Newton polyhedron at {z} did not stabilize"


def monomial_member_by_floors(d: PolyhedralDivisor, term: Monomial) -> bool:
    """``divisors.member`` of c t^l chi^m over A1 or P1: m in the weight cone,
    and on the floors of D(m) the floor at t plus l, every other finite floor
    and, on P1, the floor at infinity minus l all >= 0."""
    m, ell = term.degree, term.ell
    if not d.in_weight_cone(m):
        return False
    at_t, at_infinity = ell, -ell  # the floors are 0 off the support
    for z, a in zip(d.support, d.floors(m)):
        if z.poly == up.X:
            at_t += a
        elif z.kind == "infinity":
            at_infinity += a
        elif a < 0:
            return False
    return at_t >= 0 and (d.curve is AFFINE_LINE or at_infinity >= 0)


def toric_by_terms(cone: Cone, root: DemazureRoot, lam, el: Monomial) -> ExponentialExpansion:
    """``gaactions.toric_exponential`` by its own loop on chi^m, every term
    then rescaled by the constant c of the monomial c chi^m."""
    lam = Fraction(lam)
    e, rho = root.vector, root.distinguished_ray
    weight = cone.dual()
    m = tuple(int(a) for a in el.degree)
    if not weight.contains(m):
        raise OutsideWeightCone(f"{m} is outside the weight cone")
    height = dot(m, rho)
    terms = []
    for i in range(height + 1):
        coeff = comb(height, i) * lam ** i
        deg = vadd(m, tuple(i * a for a in e))
        assert weight.contains(deg)
        terms.append((i, HomogeneousElement(
            RationalFunction.from_factored(coeff), deg).scaled(el.c)))
    return ExponentialExpansion(tuple(terms))


def vertical_by_terms(d: PolyhedralDivisor, root: DemazureRoot, phi: RationalFunction,
                      el: HomogeneousElement) -> ExponentialExpansion:
    """``gaactions.vertical_exponential`` by its own loop."""
    if not in_sections(phi, d.curve, d.support, d.floors(root.vector)):
        raise PhiNotAdmissible(f"{phi} is not a section of the multiplier module")
    if not member(el, d):
        raise NonMember(f"{el} is not in the section algebra")
    e, rho = root.vector, root.distinguished_ray
    height = dot(el.degree, rho)
    terms = []
    for i in range(height + 1):
        coeff = comb(height, i)
        func = el.function.scaled(coeff) * phi ** i if i else el.function.scaled(coeff)
        term = HomogeneousElement(func, vadd(el.degree, tuple(i * a for a in e)))
        if not member(term, d):
            raise NonMember(f"term {term} left the section algebra")
        terms.append((i, term))
    return ExponentialExpansion(tuple(terms))


def horizontal_by_terms(ca: CoherentAssemblage,
                        el: HomogeneousElement) -> ExponentialExpansion:
    """``gaactions.horizontal_expander(ca)(el)`` by its own loop, for a
    coherent characteristic-zero ``ca`` whose base point is 0 (its other
    checks are the expander's)."""
    cd = ca.colored
    d = cd.divisor
    v0 = cd.color(cd.base_point)
    dd = cd.color_denominator
    lam = ca.scalars[0]
    u = int(-Fraction(1, dd) - dot(ca.degree, v0))
    if not member(el, d):
        raise NonMember(f"{el} is not in the section algebra")
    func = el.function
    ell = func.ord_at(BasePoint.rational(0))
    quot = func / RationalFunction.variable(ell) if ell else func
    if quot.factors:
        raise ActionError("exponentials expect elements of the form c * t^l chi^m")
    scale0 = quot.constant
    a = int(dd * (dot(el.degree, v0) + ell))
    terms = []
    for i in range(a + 1):
        coeff = scale0 * comb(a, i) * lam ** i
        func_i = RationalFunction.variable(ell + i * u).scaled(coeff) \
            if ell + i * u else RationalFunction.from_factored(coeff)
        term = HomogeneousElement(func_i, vadd(el.degree, tuple(i * c for c in ca.degree)))
        if not member(term, d):
            raise NonMember(f"term {term} left the section algebra")
        terms.append((i, term))
    return ExponentialExpansion(tuple(terms))
