"""Definitional oracles for the tests, kept beside the production paths
they certify.

classify_element_pairwise is the centralizer walk classify_element_oracle
ran before it scanned the linear forms of g y - y g and tested abelianness
on generators: two full products per group element for g y == y g, and two
more for each pair of the centralizer.  It stays the reference for that
oracle.

hermitian_scales_by_scan is the scan of GF(ell^2) for the least s with
N(s) norm = 1 that _hermitian_change_of_basis ran before _hermitian_scale
solved one quadratic over GF(ell) for it.

simplicity_certificate_by_shape is the mod-ell certificate that
weil.simplicity_certificate gave before it read both certifying patterns
off the real transform h: it reads the factor-degree shape of f mod ell
(degree_shape_mod, the squarefree and distinct-degree splits with no
equal-degree split) and factors f mod ell only when the shape is two simple
factors of degree n/2.  It compares the two factors through
dual_rational, the monic polynomial with the roots q/alpha in exact
Fractions; dual_polynomial is its integer form over Z, which the tests use
to check that every factor analyze reports is self-dual.

weil_validate_by_squarefree_gcd is the root-bound check weil_validate ran
before one Sturm chain gave it both counts: it took the squarefree part
h_red of the real transform with the primitive pseudo-remainder gcd,
divided each boundary factor out of h_red once, and ran a second chain
(roots_in_open_interval) on the rest.  weil_validate must return the same
WeilPoly or raise the same exception with the same message.

mat_mul and mat_inverse are the products and the Gauss-Jordan inverse over
field elements that groups ran before every product and inverse moved onto
the natural int matrices (_imat_mul, _imat_inverse); they stay the
references of that layer.  contains_by_gram is the membership test
groups.contains ran before it tested the int trace form: ct(M) J M = lam J
over field elements, lam in GF(ell)*.  symplectic_change_of_basis_by_field_elements
is groups._symplectic_change_of_basis as it ran on field elements of
GF(p), before the same loop moved onto ints mod p; the int routine must
return the same P.

goursat_report_by_product_chain is density._goursat_report as it ran
before Goursat's lemma let the projections decide an in-hypothesis
product: one stabilizer chain on the whole product first, a chain per
factor only when a closure of several factors is proper, and
GoursatContradiction when the hypothesis holds, every projection
surjects and the closure is still proper, which the lemma rules out.
_goursat_report must return the same GoursatReport.

The rest are the definitional counts that the closed forms of groups and
density replaced, each kept here as the oracle of its closed form:
torus_element_matrices lists the matrix torus, regular_torus_count_oracle
classifies each of its elements (regular_torus_count),
normalizer_census_oracle counts the listed group elements that normalize
the torus (normalizer_census), exhaustive_classification classifies every
element of the listed group (the census count identity), and
cm_subfield_fraction_exhaustive finds the subfield degree of every unit of
GF(ell^2g) (cm_subfield_fraction).
"""

from fractions import Fraction
from math import isqrt, prod

from frobsplit.density import GoursatReport, _chain_orbits, _hypothesis_note
from frobsplit.finfield import FFElement, FieldMismatch, make_field, power, subfield_degree
from frobsplit.groups import (
    MAX_GROUP_SIZE,
    BudgetExceeded,
    DimensionMismatch,
    GroupElement,
    NormalizerCensus,
    _echelon,
    _packed_group,
    build_anisotropic_torus,
    classify_element,
    enumerate_group,
    enumerate_group_packed,
    group_order,
    identity_element,
    mat_conj_transpose,
    mat_det,
    mat_identity,
    pack_matrix,
    standard_gram,
    torus_order,
)
from frobsplit.intpoly import (
    IntPoly,
    NotMonic,
    _int_distinct_degree,
    _int_squarefree_parts,
    _monic_mod,
    factor_mod,
    int_poly_gcd,
    try_divide,
)
from frobsplit.weil import (
    Certificate,
    RootBoundViolation,
    WeilPoly,
    _check_aux_prime,
    _eval_at_2sqrtq,
    _prime_power,
    _sign_a_plus_b_sqrtq,
    _sturm_chain,
    _variations,
    real_weil_transform,
)
from modpoly_split import ZeroConstantTerm


def mat_mul(a, b):
    n = len(a)
    m = len(b[0])
    k = len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_inverse(a):
    n = len(a)
    field = a[0][0].field
    work, _, det = _echelon(
        [list(row) + [field.one() if i == j else field.zero() for j in range(n)] for i, row in enumerate(a)]
    )
    if det.is_zero():
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in work)


def contains_by_gram(desc, matrix) -> GroupElement | None:
    """Definitional membership: ct(M) J M = lam J over field elements, for
    the standard Gram matrix J and some lam in GF(ell)*; the element with
    lam as its similitude, or None."""
    n = desc.matrix_dim
    field = desc.matrix_field
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise DimensionMismatch(f"expected a {n}x{n} matrix")
    for row in matrix:
        for x in row:
            if not isinstance(x, FFElement) or x.field != field:
                raise FieldMismatch(f"entries must lie in {field}")
    gram = standard_gram(desc)
    s = mat_mul(mat_mul(mat_conj_transpose(matrix) if desc.family == "A" else tuple(zip(*matrix)), gram), matrix)
    # the standard grams have a nonzero entry in row 0
    j0 = next(j for j in range(n) if not gram[0][j].is_zero())
    lam = s[0][j0] / gram[0][j0]
    if lam.is_zero() or not lam.in_prime_field():
        return None
    for i in range(n):
        for j in range(n):
            if s[i][j] != lam * gram[i][j]:
                return None
    return GroupElement(desc, tuple(tuple(row) for row in matrix), lam.lift())


def symplectic_change_of_basis_by_field_elements(gram, field):
    """P with P^T * gram * P equal to the standard antidiagonal form, on
    field elements: each step pairs the first u of the remaining basis with
    its first w of (u, w) != 0, v = w / (u, w), and projects along <u, v>."""
    n = len(gram)
    if any(not (gram[i][j] + gram[j][i] if i != j else gram[i][i]).is_zero() for i in range(n) for j in range(i + 1)):
        raise AssertionError("the Gram matrix is not alternating")

    def dot(c, x):
        return sum((a * b for a, b in zip(c, x)), field.zero())

    remaining, pairs = list(mat_identity(field, n)), []
    while remaining:
        u = remaining[0]
        (cu,) = mat_mul((u,), gram)
        w = next((x for x in remaining[1:] if not dot(cu, x).is_zero()), None)
        if w is None:
            raise AssertionError("the Gram matrix is degenerate")
        scale = dot(cu, w).inverse()
        v = tuple(scale * c for c in w)
        (cv,) = mat_mul((v,), gram)
        pairs.append((u, v))
        # x - (x, v) u + (x, u) v, as (x, y) = -(y, x) on an alternating form
        remaining = [
            tuple(xi + a * ui - b * vi for xi, ui, vi in zip(x, u, v))
            for x in remaining[1:] if x is not w for a, b in [(dot(cv, x), dot(cu, x))]
        ]
    return tuple(zip(*([u for u, _ in pairs] + [v for _, v in reversed(pairs)])))


def classify_element_pairwise(x: GroupElement, m: int = 1) -> bool:
    """Definitional answer: enumerate the centralizer of x^m in the full
    group and test that it is abelian of the anisotropic-torus order."""
    if m < 1:
        raise ValueError("m must be at least 1")
    desc = x.desc
    elements = enumerate_group_packed(desc, "full")
    pg = _packed_group(desc)
    y = power(pack_matrix(x.matrix), m, pg.mm, pg.identity)
    target = torus_order(desc)
    mm = pg.mm
    cent = []
    for g in elements:
        if mm(g, y) == mm(y, g):
            cent.append(g)
            if len(cent) > target:
                return False
    if len(cent) != target:
        return False
    for i, a in enumerate(cent):
        for b in cent[i + 1 :]:
            if mm(a, b) != mm(b, a):
                return False
    return True


def degree_shape_mod(f, p: int):
    """The factor-degree shape of the int sequence f (ascending) mod the prime
    p: the sorted [(degree, multiplicity)], one entry per monic irreducible
    factor, as factor_mod would give it.  It is read off the squarefree and
    distinct-degree splits alone, with no equal-degree split."""
    _, g = _monic_mod(f, p)
    if len(g) < 2:
        return []
    return sorted(
        (d, mult)
        for part, mult in _int_squarefree_parts(g, p)
        for h, d in _int_distinct_degree(part, p)
        for _ in range((len(h) - 1) // d)
    )


class NonIntegralDual(ValueError):
    """The monic dual has a non-integer coefficient."""


def dual_rational(coeffs, q: int):
    """Monic polynomial with root multiset {q/alpha}; exact Fractions.

    An involution on monic polynomials with nonzero constant term.
    """
    cs = tuple(Fraction(c) for c in coeffs)
    if not cs or cs[0] == 0:
        raise ZeroConstantTerm("0 is a root; the dual is undefined")
    n = len(cs) - 1
    rev = [cs[n - j] * Fraction(q) ** (n - j) for j in range(n + 1)]
    lead = rev[-1]
    return tuple(c / lead for c in rev)


def dual_polynomial(g: IntPoly, q: int) -> IntPoly:
    """Integer dual of a monic g; raises NonIntegralDual when it is not
    integral (that never happens for factors of a Weil polynomial)."""
    if not g.is_monic():
        raise NotMonic("the dual is defined for monic polynomials")
    out = dual_rational(g.coeffs, q)
    if any(c.denominator != 1 for c in out):
        raise NonIntegralDual(f"dual of {g} over q={q} is not integral")
    return IntPoly.make(int(c) for c in out)


def simplicity_certificate_by_shape(w: WeilPoly, ell: int) -> Certificate:
    """SIMPLE when f mod ell is irreducible, or splits into two distinct
    irreducible factors of degree n/2 exchanged by the mod-ell duality, with
    n/2 even; UNKNOWN otherwise.  The shape decides every case but the
    second, which alone factors f mod ell."""
    _check_aux_prime(ell, w.q)
    n = w.f.degree
    shape = degree_shape_mod(w.f.coeffs, ell)
    if shape == [(n, 1)]:
        return Certificate.SIMPLE
    # an irreducible g1 of degree >= 2 has g1(0) a unit mod ell, and g1(0) is
    # the denominator of its rational dual, which therefore reduces mod ell
    if n % 4 == 0 and shape == [(n // 2, 1)] * 2:
        (g1, _), (g2, _) = factor_mod(w.f.coeffs, ell)[1]
        dual = tuple(c.numerator * pow(c.denominator, -1, ell) % ell for c in dual_rational(g1, w.q))
        if dual == g2:
            return Certificate.SIMPLE
    return Certificate.UNKNOWN


def roots_in_open_interval(p: IntPoly, q: int) -> int:
    """Distinct real roots of the squarefree p in (-2 sqrt q, 2 sqrt q)."""
    chain = _sturm_chain(p)
    lo = [_sign_a_plus_b_sqrtq(*_eval_at_2sqrtq(c, q, -1), q) for c in chain]
    hi = [_sign_a_plus_b_sqrtq(*_eval_at_2sqrtq(c, q, +1), q) for c in chain]
    # Sturm's theorem counts the roots in (lo, hi]; one at hi is not interior
    return _variations(lo) - _variations(hi) - (hi[0] == 0)


def weil_validate_by_squarefree_gcd(f: IntPoly, q: int) -> WeilPoly:
    """Accept f as a Weil polynomial for q or raise a diagnostic."""
    p, a = _prime_power(q)
    h = real_weil_transform(f, q)  # raises NotMonic, OddDegree or SymmetryViolation
    # work with the squarefree part; the root condition only sees root sets
    h_red = try_divide(h, int_poly_gcd(h, h.derivative()))
    assert h_red is not None
    boundary = 0
    rest = h_red
    s = isqrt(q)
    if s * s == q:
        for root in (2 * s, -2 * s):
            if rest.eval(root) == 0:
                rest = try_divide(rest, IntPoly.make([-root, 1]))
                boundary += 1
    else:
        quo = try_divide(rest, IntPoly.make([-4 * q, 0, 1]))
        if quo is not None:
            rest = quo
            boundary += 2
    interior = roots_in_open_interval(rest, q) if rest.degree >= 1 else 0
    if boundary + interior != h_red.degree:
        raise RootBoundViolation(
            f"{h_red.degree - boundary - interior} root(s) of the real transform "
            f"fall outside [-2*sqrt({q}), 2*sqrt({q})]"
        )
    return WeilPoly(f, q, p, a, h)


def hermitian_scales_by_scan(field):
    """{norm: the least-index s with N(s) norm = 1} for every norm in GF(ell)*,
    keyed by the norm as an int: the scan of GF(ell^2) that _hermitian_change_of_basis ran before
    _hermitian_scale solved for s, run once for all norms.  It takes the
    elements in index order and keeps the first s of each norm."""
    p = field.p
    scales = {}
    for s in field.elements():
        if not s.is_zero():
            scales.setdefault(pow((s.frobenius() * s).lift(), -1, p), s)
            if len(scales) == p - 1:
                return scales
    raise AssertionError("the norm map is onto GF(ell)*")


def torus_element_matrices(desc):
    """All torus elements g1^i g2^w as GroupElements, in the order of the
    exponents (i, w); a torus of more than MAX_GROUP_SIZE elements raises
    BudgetExceeded before it is built."""
    if torus_order(desc) > MAX_GROUP_SIZE:
        raise BudgetExceeded(f"listing a torus of order {torus_order(desc)} exceeds MAX_GROUP_SIZE = {MAX_GROUP_SIZE}")
    torus = build_anisotropic_torus(desc)
    q = desc.ell
    orders = (torus.order,) if len(torus.generators) == 1 else (torus.order // (q - 1), q - 1)
    out = [identity_element(desc)]
    for g, k in zip(torus.generators, orders):
        powers = []
        for x in out:
            for _ in range(k):
                powers.append(x)
                x = x * g
        out = powers
    return out


def normalizer_census_oracle(desc) -> NormalizerCensus:
    """Definitional answer: count the elements of the enumerated full group
    that conjugate every torus generator back into the torus.  A test
    oracle for normalizer_census, budget-capped like the enumeration."""
    elements = enumerate_group_packed(desc, "full")
    pg = _packed_group(desc)
    torus = build_anisotropic_torus(desc)
    tset = frozenset(pack_matrix(t.matrix) for t in torus_element_matrices(desc))
    gens = [pack_matrix(g.matrix) for g in torus.generators]
    mm, pf = pg.mm, pg.pf
    jinv = pack_matrix(mat_inverse(standard_gram(desc)))
    count = 0
    for g in elements:
        scale = pf.mul[pf.inv[pg.multiplier(g)]]
        gi = mm(mm(tuple(scale[x] for x in jinv), pg.ct(g)), pg.gram)  # g^-1 = lam^-1 J^-1 ct(g) J
        if all(mm(mm(g, t), gi) in tset for t in gens):
            count += 1
    return NormalizerCensus(count, count // torus.order)


def regular_torus_count_oracle(desc, m: int = 1, part: str = "full") -> int:
    """Definitional answer: classify every element of the matrix torus, with
    part membership read off the similitude (and, for SU, the determinant).
    A test oracle for regular_torus_count, budget-capped like the listing."""
    if part not in ("full", "derived", "unitary") or part == "unitary" and desc.family == "C":
        raise ValueError(f"unknown part {part!r}")
    one = desc.matrix_field.one()
    count = 0
    for t in torus_element_matrices(desc):
        if part != "full" and t.similitude != 1:
            continue
        if part == "derived" and desc.family == "A" and mat_det(t.matrix) != one:
            continue
        count += classify_element(t, m)
    return count


def exhaustive_classification(desc, m: int = 1, part: str = "full"):
    """(count in the regular-anisotropic class, subgroup order) by direct
    classification of every element; the independent check on the census
    count identity."""
    elements = enumerate_group(desc, part)
    return sum(classify_element(x, m) for x in elements), len(elements)


def cm_subfield_fraction_exhaustive(two_g: int, ell: int) -> Fraction:
    """cm_subfield_fraction by per-element subfield-degree counting."""
    if ell**two_g > 10**6:
        raise BudgetExceeded("field too large for exhaustive subfield counting")
    field = make_field(ell, two_g)
    hits = sum(1 for x in field.elements() if not x.is_zero() and subfield_degree(x) < two_g)
    return Fraction(hits, field.q - 1)


class GoursatContradiction(AssertionError):
    """Surjective projections generated a proper subgroup in-hypothesis;
    that contradicts distinctness of the simple quotients and means the
    implementation (not the input) is wrong."""


def goursat_report_by_product_chain(factors, tuples) -> GoursatReport:
    """The GoursatReport of tuples of natural int matrices, one per factor,
    read off one stabilizer chain on the product; only a proper closure of
    several factors runs a chain per factor to tell which projections
    surject."""
    orders = [group_order(d, "derived") for d in factors]
    product_order = prod(orders)
    closure_order = prod(_chain_orbits(factors, tuples, product_order))
    full = closure_order == product_order
    surjective = [
        full or len(factors) > 1 and prod(_chain_orbits([d], [(t[i],) for t in tuples], n)) == n
        for i, (d, n) in enumerate(zip(factors, orders))
    ]
    note = _hypothesis_note(factors)
    in_hyp = note == ""
    if in_hyp and all(surjective) and not full:
        raise GoursatContradiction(f"projections surject but the closure has order {closure_order} < {product_order}")
    return GoursatReport(
        factor_orders=tuple(orders),
        projections_surjective=tuple(surjective),
        closure_order=closure_order,
        product_order=product_order,
        full_product=full,
        in_hypothesis=in_hyp,
        note=note or "distinct nonabelian simple quotients",
    )
