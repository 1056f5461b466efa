"""Frobenius characteristic polynomial analysis.

A Weil polynomial here is a monic integer polynomial of even degree 2g whose
coefficients satisfy the functional-equation symmetry a_i = q^(g-i) a_(2g-i)
and whose roots all have absolute value sqrt(q).  The root condition is
decided exactly: the polynomial is rewritten as t^g h(t + q/t), and h must
have all of its roots real inside [-2 sqrt(q), 2 sqrt(q)].  One Sturm
chain of h, its boundary factors divided out, with exact sign evaluation at
the quadratic-irrational endpoints settles that without floating point: it
counts both the distinct roots and those inside.  All of it is integer
arithmetic: the Sturm chain is the negated primitive pseudo-remainder
sequence, whose entries are positive multiples of the Euclidean ones, and
p(+-2 sqrt(q)) is A + B sqrt(q) with integers A and B.

The splitting analysis factors the real transform h over Z, maps the
factors back to f, and takes d, with f = g^d, as the gcd of the
multiplicities; every factor is self-dual, since q/alpha is the complex
conjugate of a root alpha.  The commonest split, into elliptic factors
t^2 - a t + q, is an integer root a of h, and analyze finds those first by
evaluation: h is monic, so a rational root is an integer (Gauss's lemma),
and it lies in [-2 sqrt q, 2 sqrt q] (the Hasse bound).  Only the rest goes
to factor_over_Z.  The scan costs O(sqrt(q) g) and the Zassenhaus route
polylog(q), so it runs only while the interval holds at most 16 integers
per degree of h; past that gate all of h goes to factor_over_Z.  The
analysis resolves the isogeny-exponent constraints in the two cases where
that is possible from f and q alone (prime residue field; ordinary
reduction).  The general division-algebra invariant is out of
scope, so unresolved factors carry their constraint set explicitly.

Simplicity certificates are sound but deliberately incomplete: an
irreducible reduction mod ell, or the two-factor dual-exchange pattern of
the even-rank unitary case, certifies simplicity; anything else reports
Unknown.  Both patterns are read in closed form off the real transform h:
f mod ell shows one of them only when h mod ell is irreducible (one Ben-Or
test of degree g), and which one it shows is the square class of the norm
h(2 sqrt q) h(-2 sqrt q) (one Legendre symbol), so nothing is factored mod
ell.  A reducible f over Z has only self-dual factors, so neither pattern
can occur and analyze runs no mod-ell work for it.  The dual-exchange
certificate presumes a principally polarized source, which is the setting
the whole analysis lives in.
"""

from __future__ import annotations

import enum
from math import gcd, isqrt

from .finfield import Record, is_prime
from .intpoly import (
    IntPoly,
    NotMonic,
    factor_over_Z,
    is_irreducible_mod,
    pseudo_remainder,
    try_divide,
)


class OddDegree(ValueError):
    """Weil polynomials have even positive degree."""


class SymmetryViolation(ValueError):
    def __init__(self, index: int):
        super().__init__(f"coefficient symmetry fails at index {index}")
        self.index = index


class RootBoundViolation(ValueError):
    """Some root does not have absolute value sqrt(q)."""


class BadAuxPrime(ValueError):
    """The auxiliary prime must not divide q."""


class InconsistentSignature(ValueError):
    """Signature pairs must sum to the rank."""


def _integer_root(n: int, a: int) -> int:
    """floor(n^(1/a)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // a)
    while (y := ((a - 1) * x + n // x ** (a - 1)) // a) < x:
        x = y
    return x


def _prime_power(q: int):
    """(p, a) with q = p^a, or raise (is_prime refuses a p at or above
    IS_PRIME_LIMIT).  If q = p^a with p prime, the exact roots of q are the
    p^(a/b) with b | a, so p is the one of largest a."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for a in range(q.bit_length(), 0, -1):
        p = _integer_root(q, a)
        if p**a == q:
            break
    if not is_prime(p):
        raise ValueError("q must be a prime power")
    return p, a


class WeilPoly(Record):
    """A validated Frobenius characteristic polynomial f over GF(q) = GF(p^a),
    with its real transform h (real_weil_transform)."""

    __slots__ = ("f", "q", "p", "a", "h")

    @property
    def g(self) -> int:
        return self.f.degree // 2

    @property
    def middle_coefficient(self) -> int:
        return self.f.coeffs[self.g]


def real_weil_transform(f: IntPoly, q: int) -> IntPoly:
    """The monic degree-g integer h with f(t) = t^g * h(t + q/t).

    With y = t + q/t and P_i = t^i + (q/t)^i, t^-g f = a_g + sum_(i>=1)
    a_(g+i) P_i once a_(g-i) = q^i a_(g+i), and P_i(y) follows P_1 = y,
    P_2 = y^2 - 2q, P_(i+1) = y P_i - q P_(i-1).  Raises SymmetryViolation
    at the first index i where a_i != q^(g-i) a_(2g-i).
    """
    if not f.is_monic():
        raise NotMonic("a Weil polynomial is monic")
    if f.degree % 2 != 0 or f.degree < 2:
        raise OddDegree(f"degree {f.degree} is not even and positive")
    a = f.coeffs
    g = f.degree // 2
    qi = q**g
    for i in range(g + 1):
        if a[i] != qi * a[2 * g - i]:
            raise SymmetryViolation(i)
        qi //= q
    out = [0] * (g + 1)
    out[0] = a[g]
    prev, cur = [2], [0, 1]  # P_0 and P_1
    for i in range(1, g + 1):
        c = a[g + i]
        for j, x in enumerate(cur):
            out[j] += c * x
        # P_(i+1) = y P_i - q P_(i-1)
        nxt = [0] + cur
        for j, x in enumerate(prev):
            nxt[j] -= q * x
        prev, cur = cur, nxt
    return IntPoly.make(out)


# -- exact signs at x = c * sqrt(q) ------------------------------------------


def _eval_at_2sqrtq(p: IntPoly, q: int, sign: int):
    """p(+-2 sqrt(q)) written as (A, B) meaning A + B*sqrt(q), exactly."""
    a = b = 0
    for i, c in enumerate(p.coeffs):
        term = c * (4 * q) ** (i // 2)
        if i % 2 == 0:
            a += term
        else:
            b += 2 * sign * term
    return a, b


def _sign_a_plus_b_sqrtq(a: int, b: int, q: int) -> int:
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    # opposite signs: |a| against |b| sqrt(q)
    s = a * a - q * b * b
    return sa if s > 0 else -sa if s < 0 else 0


def _sturm_chain(p: IntPoly):
    """p, p' and the negated pseudo-remainders, each a positive multiple of
    the Euclidean Sturm sequence entry, so the sign variations agree."""
    chain = [p, p.derivative()]
    while chain[-1].degree >= 1:
        rem = pseudo_remainder(chain[-2], chain[-1])
        if rem.is_zero():
            break
        chain.append(-rem)
    return [c for c in chain if not c.is_zero()]


def _variations(signs) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for x, y in zip(nz, nz[1:]) if x * y < 0)


def weil_validate(f: IntPoly, q: int) -> WeilPoly:
    """Accept f as a Weil polynomial for q or raise a diagnostic.

    Every root of h must be real and in [-2 sqrt q, 2 sqrt q].  The boundary
    factors (y -+ 2s when q = s^2, else y^2 - 4q) are divided out of h as
    often as they divide, leaving a rest with no root at +-2 sqrt q.  Its
    one Sturm chain ends in gcd(rest, rest'), so rest has deg rest - deg gcd
    distinct roots; and dividing the chain by the gcd, which changes no sign
    variation where rest is nonzero, gives the Sturm chain of the squarefree
    part, so the variations lost from -2 sqrt q to 2 sqrt q count the
    distinct roots inside.  f is accepted iff these counts agree."""
    p, a = _prime_power(q)
    h = real_weil_transform(f, q)  # raises NotMonic, OddDegree or SymmetryViolation
    s = isqrt(q)
    rest = h
    for piece in [(-2 * s, 1), (2 * s, 1)] if s * s == q else [(-4 * q, 0, 1)]:
        while (quo := try_divide(rest, IntPoly(piece))) is not None:
            rest = quo
    chain = _sturm_chain(rest)
    lo = [_sign_a_plus_b_sqrtq(*_eval_at_2sqrtq(c, q, -1), q) for c in chain]
    hi = [_sign_a_plus_b_sqrtq(*_eval_at_2sqrtq(c, q, +1), q) for c in chain]
    outside = rest.degree - chain[-1].degree - _variations(lo) + _variations(hi)
    if outside:
        raise RootBoundViolation(f"{outside} root(s) of the real transform fall outside [-2*sqrt({q}), 2*sqrt({q})]")
    return WeilPoly(f, q, p, a, h)


def ordinary_test(w: WeilPoly) -> bool:
    """Middle coefficient coprime to the residue characteristic."""
    return gcd(w.middle_coefficient, w.p) == 1


# -- certificates ------------------------------------------------------------


class Certificate(enum.Enum):
    SIMPLE = "certified-simple"
    SELF_PRODUCT = "certified-self-product"
    UNKNOWN = "unknown"


def _check_aux_prime(ell: int, q: int) -> None:
    if not is_prime(ell):
        raise BadAuxPrime(f"{ell} is not prime")
    if q % ell == 0:
        raise BadAuxPrime(f"{ell} divides q = {q}")


def simplicity_certificate(w: WeilPoly, ell: int) -> Certificate:
    """Certify simplicity of the reduction from f mod ell, read off h mod ell.

    SIMPLE when f mod ell is irreducible, or when it splits into exactly two
    distinct irreducible factors of equal degree exchanged by the mod-ell
    duality t -> q/t (the even-rank unitary pattern, sound for principally
    polarized input).  Anything else is UNKNOWN; never a false certificate.

    Both patterns are decided without factoring.  Write f = t^g h(t + q/t)
    with h monic of degree g.  A root t of f solves t^2 - beta t + q = 0 for
    a root beta of h.  Let k be an irreducible factor of h mod ell, of degree
    m, with the root beta in GF(ell^m); then GF(ell)(t) contains beta, and
    t -> t + q/t maps the Frobenius orbit of t onto that of beta.
      * If beta^2 - 4q is a nonzero square in GF(ell^m), then t lies in
        GF(ell^m), so its orbit has m elements, one over each conjugate of
        beta, and q/t lies outside it: k gives two distinct factors of f
        of degree m, which t -> q/t exchanges.
      * If it is a nonsquare, k gives one irreducible factor of degree 2m.
      * If beta^2 = 4q, f has the repeated root beta/2.
    So f mod ell has shape (2g) or (g, g) only when h mod ell is
    irreducible (a reducible or repeated h gives more factors), and then a
    (g, g) split is the dual pair.  The pair needs even rank, so g even.
    With h irreducible, beta^2 - 4q is a square in GF(ell^g) iff its norm
    to GF(ell) is a square, and that norm is
      prod (beta_i^2 - 4q) = h(2 sqrt q) h(-2 sqrt q) = A^2 - q B^2,
    an identity in the coefficients of h, with A + B sqrt q = h(2 sqrt q).
    For ell = 2, q is odd and the equation is t^2 + beta t + 1 = 0: beta = 0
    (h_0 even) is a repeated root, and otherwise t = beta u with
    u^2 + u = 1/beta^2, solvable in GF(2^g) iff the trace
    Tr(1/beta^2) = Tr(1/beta) = h_1/h_0 is 0 (Artin-Schreier).
    Hence SIMPLE iff h mod ell is irreducible and
      * ell odd: N = A^2 - q B^2 is nonzero mod ell, and (N/ell) = -1
        (f irreducible) or g is even (the dual pair);
      * ell = 2: h_0 is odd, and h_1 is odd (f irreducible) or g is even.
    """
    _check_aux_prime(ell, w.q)
    h = w.h
    if not is_irreducible_mod(h.coeffs, ell):
        return Certificate.UNKNOWN
    even_rank = h.degree % 2 == 0
    if ell == 2:
        h0, h1 = h.coeffs[:2]
        simple = h0 % 2 == 1 and (h1 % 2 == 1 or even_rank)
    else:
        a, b = _eval_at_2sqrtq(h, w.q, +1)
        norm = (a * a - w.q * b * b) % ell
        simple = norm != 0 and (even_rank or pow(norm, (ell - 1) // 2, ell) == ell - 1)
    return Certificate.SIMPLE if simple else Certificate.UNKNOWN


# -- the full splitting report -------------------------------------------------


class FactorConstraint(Record):
    """One isogeny factor of the decomposition, with its exponent data.

    The relation e * d_Y = multiplicity * power_d always holds; e and d_Y
    are filled in only when the prime-field or ordinary shortcut applies,
    otherwise `candidates` lists the admissible (e, d_Y) pairs.
    """

    __slots__ = ("poly", "multiplicity", "e", "d_y", "resolved_by", "candidates")


class CertificateRecord(Record):
    """One certificate; ell is None for the global (factorisation-level) ones."""

    __slots__ = ("ell", "status", "detail")


class SplitReport(Record):
    """Isogeny-decomposition data for one Weil polynomial.

    root is the d-th root g with g^d = f; factors are FactorConstraints in
    canonical order; dual_pairs holds the (i, j) indices of the factors
    exchanged by duality and self_dual the indices of the self-dual ones;
    certificates holds a CertificateRecord per consulted prime plus the
    global ones.
    """

    __slots__ = (
        "weil",
        "d",
        "root",
        "factors",
        "dual_pairs",
        "self_dual",
        "certificates",
        "conclusion",
        "isogeny_shape",
        "endomorphism_note",
        "ordinary",
        "prime_field",
    )


def _from_real(k: IntPoly, q: int):
    """(F, e): the irreducible factor F of f over the irreducible factor k of
    the real transform h, with F^e = t^m k(t + q/t), m = deg k.

    A root y of k is alpha + q/alpha = alpha + conj(alpha) for a root alpha
    of f, so Q(y) is totally real.  Unless alpha is real, [Q(alpha):Q(y)] = 2
    and t^m k(t + q/t) = prod (t^2 - y t + q) is irreducible (e = 1).  A real
    alpha is +-sqrt(q): k = y -+ 2s gives (t -+ s)^2 when q = s^2, and
    k = y^2 - 4q gives (t^2 - q)^2 when q is not a square.
    """
    c = k.coeffs
    if k.degree == 1 and c[0] * c[0] == 4 * q:
        return IntPoly((c[0] // 2, 1)), 2
    if c == (-4 * q, 0, 1):
        return IntPoly((-q, 0, 1)), 2
    # Horner in y = t + q/t: F <- F (t^2 + q) + k_j t^(m - j)
    m = k.degree
    out = [0] * (2 * m + 1)
    out[0] = c[m]
    for j in range(m - 1, -1, -1):
        for i in range(2 * m, 1, -1):
            out[i] = out[i - 2] + q * out[i]
        out[1] *= q
        out[0] *= q
        out[m - j] += c[j]
    return IntPoly(tuple(out)), 1


def _integer_roots(h: IntPoly, q: int):
    """(rest, [(y - a, n)]) with h = rest * prod (y - a)^n: each integer root
    a of h in [-2 sqrt q, 2 sqrt q], found by evaluation, divided out as often
    as it divides.  Past the gate (more than 16 integers in the interval per
    degree of h) it scans nothing and returns (h, [])."""
    s = isqrt(4 * q)
    if 2 * s + 1 > 16 * h.degree:
        return h, []
    rest, out = h, []
    for a in range(-s, s + 1):
        if rest.degree < 1:
            break
        if rest.eval(a) == 0:
            lin, n = IntPoly((-a, 1)), 0
            while (quo := try_divide(rest, lin)) is not None:
                rest, n = quo, n + 1
            out.append((lin, n))
    return rest, out


def analyze(w: WeilPoly, aux_primes=()) -> SplitReport:
    """Factorisation, power structure, constraints, duality, certificates.

    w must come from weil_validate: the factors of f are read off those of
    its real transform w.h (_from_real), which holds only when every root of
    f has absolute value sqrt(q).  The linear factors y - a of h come first,
    from _integer_roots: h is monic, so by Gauss's lemma its rational roots
    are integers, and all its roots lie in [-2 sqrt q, 2 sqrt q], so
    evaluating h at the integers there finds every one.  factor_over_Z
    factors only the rest, not at all when h splits.  Factorisation over Z
    is unique and the factors are sorted canonically, so the answer is that
    of factor_over_Z on all of h; a root the scan missed, factor_over_Z
    would still find.  The scan runs only while the interval holds at most
    16 integers per degree of h.  On root-free h, where it is pure
    overhead, it took 3-16 % of factor_over_Z's time inside that gate
    (q = 31..1009, g = 2..8, CPython 3.11 on x86-64) and broke even at
    about 100 integers per degree.  d is the gcd of the multiplicities, and
    every factor is self-dual, since q/alpha is the complex conjugate of
    alpha.  A reducible f therefore reduces mod ell to a product of
    self-dual pieces, which is neither irreducible nor a dual pair, so
    simplicity_certificate runs only for an irreducible f; for any other f
    each ell is checked and recorded UNKNOWN.
    """
    rest, real_factors = _integer_roots(w.h, w.q)
    if rest.degree >= 1:
        real_factors += factor_over_Z(rest)
    mapped = []
    for k, n in real_factors:
        poly, e = _from_real(k, w.q)
        mapped.append((poly, e * n))
    mapped.sort(key=lambda gm: (gm[0].degree, gm[0].coeffs))
    d = 0
    for _, n in mapped:
        d = gcd(d, n)
    factors = tuple((poly, n // d) for poly, n in mapped)
    root = IntPoly((1,))
    for poly, n in factors:
        root = root * poly**n

    ordinary = ordinary_test(w)
    prime_field = w.a == 1

    constraints = []
    for poly, mult in factors:
        total = mult * d
        if prime_field or ordinary:
            reason = "prime-field residue" if prime_field else "ordinary reduction"
            constraints.append(FactorConstraint(poly, mult, total, 1, reason, ()))
        else:
            cands = tuple(
                (e, total // e)
                for e in range(1, total + 1)
                if total % e == 0 and (poly.degree * (total // e)) % 2 == 0
            )
            constraints.append(FactorConstraint(poly, mult, None, None, None, cands))

    irreducible = d == 1 and len(factors) == 1
    records = []
    conclusion = Certificate.UNKNOWN
    for ell in aux_primes:
        if irreducible:
            status = simplicity_certificate(w, ell)
        else:
            _check_aux_prime(ell, w.q)
            status = Certificate.UNKNOWN
        records.append(CertificateRecord(ell, status, f"f mod {ell}"))
        if status is not Certificate.UNKNOWN and conclusion is Certificate.UNKNOWN:
            conclusion = status

    if d >= 2 and len(factors) == 1 and factors[0][1] == 1 and (prime_field or ordinary):
        e = constraints[0].e
        records.append(
            CertificateRecord(
                None,
                Certificate.SELF_PRODUCT,
                f"f = g^{d} with g irreducible; resolved exponent e = {e}",
            )
        )
        if conclusion is Certificate.UNKNOWN:
            conclusion = Certificate.SELF_PRODUCT
    if (
        d == 1
        and len(constraints) == 1
        and constraints[0].multiplicity == 1
        and constraints[0].d_y == 1
    ):
        if conclusion is Certificate.UNKNOWN:
            conclusion = Certificate.SIMPLE
        records.append(
            CertificateRecord(None, Certificate.SIMPLE, "irreducible with d(Y) = 1")
        )

    shape_parts = []
    for c in constraints:
        if c.e is not None:
            shape_parts.append("Y" if c.e == 1 else f"Y^{c.e}")
        else:
            shape_parts.append(f"Y^(e|{c.multiplicity * d})")
    isogeny_shape = " x ".join(shape_parts)

    if conclusion is Certificate.SIMPLE and len(constraints) == 1:
        note = f"commutative, CM by Q[t]/({constraints[0].poly})"
    elif all(c.d_y == 1 for c in constraints):
        note = "every simple factor has commutative endomorphism algebra"
    else:
        note = "division-algebra invariants unresolved (constraints carried)"

    return SplitReport(
        weil=w,
        d=d,
        root=root,
        factors=tuple(constraints),
        dual_pairs=(),
        self_dual=tuple(range(len(constraints))),
        certificates=tuple(records),
        conclusion=conclusion,
        isogeny_shape=isogeny_shape,
        endomorphism_note=note,
        ordinary=ordinary,
        prime_field=prime_field,
    )


# -- CM signatures -------------------------------------------------------------


class CMSignature(Record):
    """Rank r with the multiset of conjugate-pair multiplicities."""

    __slots__ = ("r", "pairs")

    def __init__(self, r: int, pairs: tuple):
        if r < 1:
            raise ValueError("rank must be at least 1")
        for pair in pairs:
            a, b = pair
            if a < 0 or b < 0 or a + b != r:
                raise InconsistentSignature(f"pair {pair} does not sum to r = {r}")
        super().__init__(r, pairs)


def _is_binomial_pair(a: int, b: int) -> bool:
    """(a, b) = (C(i, j-1), C(i, j)) for some naturals i, j.  A row, walked by
    C(i, j) = C(i, j-1)(i-j+1)/j, is symmetric and unimodal: a pair past its
    peak mirrors (b, a) before it, so the walk stops past max(a, b)."""
    top = max(a, b, 1)
    for i in range(top + 2):
        c = 1
        for j in range(1, i + 2):
            prev, c = c, c * (i - j + 1) // j
            if (prev, c) == (a, b) or j <= i and (c, prev) == (a, b):
                return True
            if c > top:
                break
    return False


def non_special(sig: CMSignature):
    """The sufficient non-specialness conditions the signature satisfies.

    Returns a tuple drawn from ('i', 'ii', 'iii', 'iv'); empty means "not
    certified", never "special".
    """
    out = []
    r = sig.r
    if r == 4 or is_prime(r):
        out.append("i")
    values = sorted({v for pair in sig.pairs for v in pair})
    if 1 in values:
        out.append("ii")
    small = [v for v in values if 1 <= v and 2 * v <= r]
    if any(
        (gcd(a, r) == 1 or gcd(b, r) == 1)
        for a in small
        for b in small
        if a < b
    ):
        out.append("iii")
    for a, b in sig.pairs:
        if gcd(a, b) == 1 and (
            not _is_binomial_pair(a, b) or not _is_binomial_pair(b, a)
        ):
            out.append("iv")
            break
    return tuple(out)
