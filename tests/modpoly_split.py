"""Polynomials over any GF(p^k), on FFElement coefficients, for the tests.

The package's one polynomial type over GF(p) is finfield's int tuple, and
it factors over prime fields only, and classifies group elements on their
natural GF(ell) matrix with no characteristic polynomial.  This module keeps
the polynomial ring over GF(ell^k) that the routes classification replaced
need, as their oracles: ModPoly with its twisted dual, the complete
squarefree / distinct-degree / Cantor-Zassenhaus split on FFElement
coefficients, the Euclidean division, gcd and powers it runs on, and the two
charpoly classifications (Rabin's test on the norm of the charpoly, and the
dual-pair factorisation over GF(ell^2)).
"""

import random
from dataclasses import dataclass

from frobsplit.finfield import FFElement, FiniteField
from frobsplit.groups import mat_charpoly
from frobsplit.intpoly import ZeroPolynomial, is_irreducible_mod


class ZeroConstantTerm(ValueError):
    """The dual is undefined when 0 is a root."""


@dataclass(frozen=True)
class ModPoly:
    """Polynomial over a FiniteField; coeffs ascending FFElements, () is zero."""

    field: FiniteField
    coeffs: tuple

    @staticmethod
    def make(field: FiniteField, coeffs) -> "ModPoly":
        c = list(coeffs)
        while c and c[-1].is_zero():
            c.pop()
        return ModPoly(field, tuple(c))

    @staticmethod
    def from_ints(field: FiniteField, ints) -> "ModPoly":
        return ModPoly.make(field, [field.scalar(int(c)) for c in ints])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> FFElement:
        if self.is_zero():
            raise ZeroPolynomial("leading coefficient of zero")
        return self.coeffs[-1]

    def __add__(self, other):
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (f.zero(),) * (n - len(self.coeffs))
        b = other.coeffs + (f.zero(),) * (n - len(other.coeffs))
        return ModPoly.make(f, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return ModPoly(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        if self.is_zero() or other.is_zero():
            return ModPoly(f, ())
        out = [f.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return ModPoly.make(f, out)

    def monic(self) -> "ModPoly":
        if self.is_zero():
            return self
        inv = self.lc().inverse()
        return ModPoly.make(self.field, [inv * a for a in self.coeffs])

    def dual(self, c: FFElement) -> "ModPoly":
        """Monic polynomial with roots c/alpha over the roots alpha:
        coefficient j is g_(n-j) c^(n-j), made monic."""
        if self.is_zero() or self.coeffs[0].is_zero():
            raise ZeroConstantTerm("0 is a root; the dual is undefined")
        n = self.degree
        return ModPoly.make(self.field, [self.coeffs[n - j] * c ** (n - j) for j in range(n + 1)]).monic()


def poly_x(field: FiniteField) -> ModPoly:
    return ModPoly.make(field, [field.zero(), field.one()])


def poly_one(field: FiniteField) -> ModPoly:
    return ModPoly.make(field, [field.one()])


def poly_eval(f: ModPoly, x: FFElement) -> FFElement:
    acc = f.field.zero()
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def derivative(f: ModPoly) -> ModPoly:
    field = f.field
    return ModPoly.make(field, [field.scalar(i) * c for i, c in enumerate(f.coeffs) if i >= 1])


def frobenius_coeffs(f: ModPoly) -> ModPoly:
    """Apply x -> x^p to every coefficient."""
    return ModPoly.make(f.field, [c.frobenius() for c in f.coeffs])


def poly_divmod(a: ModPoly, b: ModPoly):
    """(quotient, remainder) of Euclidean division."""
    field = a.field
    if b.is_zero():
        raise ZeroPolynomial("polynomial division by zero")
    q = [field.zero()] * max(len(a.coeffs) - len(b.coeffs) + 1, 1)
    r = list(a.coeffs)
    inv_lc = b.lc().inverse()
    while len(r) >= len(b.coeffs):
        while r and r[-1].is_zero():
            r.pop()
        if len(r) < len(b.coeffs):
            break
        c = r[-1] * inv_lc
        d = len(r) - len(b.coeffs)
        q[d] = c
        for j, bj in enumerate(b.coeffs):
            r[d + j] = r[d + j] - c * bj
    return ModPoly.make(field, q), ModPoly.make(field, r)


def poly_mod(a: ModPoly, b: ModPoly) -> ModPoly:
    return poly_divmod(a, b)[1]


def poly_div(a: ModPoly, b: ModPoly) -> ModPoly:
    return poly_divmod(a, b)[0]


def powmod(f: ModPoly, e: int, modulus: ModPoly) -> ModPoly:
    result = poly_one(f.field)
    base = poly_mod(f, modulus)
    while e:
        if e & 1:
            result = poly_mod(result * base, modulus)
        base = poly_mod(base * base, modulus)
        e >>= 1
    return result


def mod_gcd(a: ModPoly, b: ModPoly) -> ModPoly:
    while not b.is_zero():
        a, b = b, poly_mod(a, b)
    return a.monic() if not a.is_zero() else a


def sort_key(g: ModPoly):
    """The canonical order of factors: degree, then coefficient indices."""
    return (g.degree, tuple(c.index() for c in g.coeffs))


def _pth_root(f: ModPoly) -> ModPoly:
    """Inverse of t -> t^p on polynomials all of whose exponents are p-th."""
    field = f.field
    p, k = field.p, field.k
    out = []
    for i, c in enumerate(f.coeffs):
        if i % p == 0:
            out.append(c ** (p ** (k - 1)))
        elif not c.is_zero():
            raise AssertionError("not a p-th power")
    return ModPoly.make(field, out)


def _squarefree_parts(f: ModPoly):
    """[(g_i, m_i)] with f = prod g_i^m_i, each g_i monic squarefree."""
    one = poly_one(f.field)
    out = []
    d = derivative(f)
    if d.is_zero():
        for g, m in _squarefree_parts(_pth_root(f)):
            out.append((g, m * f.field.p))
        return out
    c = mod_gcd(f, d)
    w = poly_div(f, c)
    i = 1
    while w != one:
        y = mod_gcd(w, c)
        z = poly_div(w, y)
        if z.degree >= 1:
            out.append((z.monic(), i))
        i += 1
        w, c = y, poly_div(c, y)
    if c != one:
        for g, m in _squarefree_parts(_pth_root(c)):
            out.append((g, m * f.field.p))
    return out


def _distinct_degree(f: ModPoly):
    """[(g, d)]: g the product of the irreducible factors of degree d."""
    field = f.field
    q = field.q
    out = []
    h = x = poly_x(field)
    rest = f
    d = 0
    while rest.degree >= 2 * (d + 1):
        d += 1
        h = powmod(h, q, rest)
        g = mod_gcd(h - x, rest)
        if g.degree >= 1:
            out.append((g, d))
            rest = poly_div(rest, g)
            h = poly_mod(h, rest)
    if rest.degree >= 1:
        out.append((rest, rest.degree))
    return out


def _random_poly(field: FiniteField, max_deg: int, rng: random.Random) -> ModPoly:
    coeffs = [field.from_index(rng.randrange(field.q)) for _ in range(max_deg + 1)]
    return ModPoly.make(field, coeffs)


def _equal_degree(f: ModPoly, d: int, rng: random.Random):
    """Cantor-Zassenhaus split of a squarefree product of degree-d factors."""
    field = f.field
    if f.degree == d:
        return [f]
    q = field.q
    while True:
        h = _random_poly(field, f.degree - 1, rng)
        if h.degree < 1:
            continue
        g = mod_gcd(h, f)
        if 0 < g.degree < f.degree:
            break
        if q % 2 == 1:
            g = powmod(h, (q**d - 1) // 2, f) - poly_one(field)
        else:
            # char 2: the GF(2)-trace map splits where the power map cannot
            steps = d * field.k
            acc = term = poly_mod(h, f)
            for _ in range(steps - 1):
                term = poly_mod(term * term, f)
                acc = acc + term
            g = acc
        g = mod_gcd(g, f)
        if 0 < g.degree < f.degree:
            break
    return _equal_degree(g.monic(), d, rng) + _equal_degree(poly_div(f, g).monic(), d, rng)


def factor_mod_reference(f: ModPoly, seed: int = 0):
    """Complete factorisation over any GF(q), in factor_mod's format:
    (unit, [(monic irreducible, multiplicity)]) in canonical order."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    unit = f.lc()
    f = f.monic()
    rng = random.Random(seed)
    factors = []
    if f.degree >= 1:
        for part, mult in _squarefree_parts(f):
            for g, d in _distinct_degree(part):
                for h in _equal_degree(g.monic(), d, rng):
                    factors.append((h.monic(), mult))
    factors.sort(key=lambda gm: sort_key(gm[0]))
    return unit, factors


def classify_dual_pair_reference(x, m: int = 1) -> bool:
    """classify_element on the dual-pair torus (family A, r even) by a full
    factorisation: x^m is regular anisotropic iff its charpoly over GF(ell^2)
    is two distinct degree-r/2 irreducibles that the twisted dual swaps."""
    y = x**m
    cp = ModPoly.make(x.desc.matrix_field, mat_charpoly(y.matrix))
    if mod_gcd(cp, derivative(cp)).degree != 0:
        return False
    _, factors = factor_mod_reference(cp)
    if len(factors) != 2:
        return False
    (g1, m1), (g2, m2) = factors
    s = x.desc.r // 2
    if m1 != 1 or m2 != 1 or g1.degree != s or g2.degree != s:
        return False
    lam = x.desc.matrix_field.scalar(y.similitude)
    # the dual block's eigenvalues are lam / beta^ell over g1's roots beta
    return g2 == frobenius_coeffs(g1).dual(lam) and g1 != g2


def classify_charpoly_reference(x, m: int = 1) -> bool:
    """classify_element on the norm-line tori (family C, and family A with r
    odd) by Rabin's test on the characteristic polynomial: x^m is regular
    anisotropic iff its charpoly on the natural GF(ell)-space, the norm of
    the GF(ell^2) charpoly in family A, is irreducible over GF(ell)."""
    y = x**m
    cp = ModPoly.make(x.desc.matrix_field, mat_charpoly(y.matrix))
    if x.desc.family == "A":
        cp = cp * frobenius_coeffs(cp)
    return is_irreducible_mod([c.lift() for c in cp.coeffs], x.desc.ell)
