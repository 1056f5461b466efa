"""Polynomials over Z and over finite fields.

Covers the coefficient-level machinery the rest of the package leans on:
reduction mod a prime, irreducibility over a prime field (Rabin test),
complete factorisation over a prime field GF(p) (squarefree split,
distinct-degree split, Cantor-Zassenhaus equal-degree split), factorisation
over Z by the classical mod-p / Hensel / recombination route with a
Landau-Mignotte coefficient bound, and exact d-th roots of monic integer
polynomials.  All of that work over GF(p) (the Rabin test, factor_mod, and
the prime screening, factorisation and Hensel lifting of factor_over_Z) runs
on finfield's int-tuple polynomial kernel.  Nothing factors over GF(p^k)
with k >= 2: there ModPoly offers ring arithmetic, powers and gcds, which is
all the dual-pair classification in groups needs.  Arithmetic over Z is
integer-only: exact long division, the primitive pseudo-remainder sequence
(Collins 1967; Brown 1971) for gcds, and exact division by d for d-th roots
(Gauss's lemma).
Everything is exact; randomised splitting is driven by an explicit seed and
the output ordering is canonical, so all results are reproducible.

Scale target is degree <= 20 with moderate coefficients, which is all the
Weil-polynomial work ever needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from math import gcd, isqrt

from .finfield import (
    FFElement,
    FiniteField,
    _int_divmod_monic_mod,
    _int_divmod_with_inv,
    _int_ext_gcd,
    _int_gcd,
    _int_is_irreducible,
    _int_mod,
    _int_mul_mod,
    _int_powmod,
    _int_sub_mod,
    is_prime,
    make_field,
)


class ZeroPolynomial(ValueError):
    """Operation undefined for the zero polynomial."""


class NotMonic(ValueError):
    """A monic polynomial was required."""


class DegreeNotDivisible(ValueError):
    """d does not divide the degree of the input."""


class ZeroConstantTerm(ValueError):
    """The dual is undefined when 0 is a root."""


# ---------------------------------------------------------------------------
# integer polynomials


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial; coeffs ascending, no trailing zeros, () is zero."""

    coeffs: tuple

    @staticmethod
    def make(coeffs) -> "IntPoly":
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return IntPoly(tuple(int(x) for x in c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def lc(self) -> int:
        if self.is_zero():
            raise ZeroPolynomial("leading coefficient of zero")
        return self.coeffs[-1]

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return IntPoly.make(x + y for x, y in zip(a, b))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    def scale(self, c: int) -> "IntPoly":
        return IntPoly.make(c * a for a in self.coeffs)

    def __pow__(self, e: int):
        result = IntPoly((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def derivative(self) -> "IntPoly":
        return IntPoly.make(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def eval(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self) -> "IntPoly":
        if self.is_zero():
            return self
        g = self.content()
        if self.lc() < 0:
            g = -g
        return IntPoly(tuple(c // g for c in self.coeffs))

    def __str__(self):
        return ",".join(str(c) for c in self.coeffs) if self.coeffs else "0"


def poly_from_string(s: str) -> IntPoly:
    """Parse the comma-separated ascending-coefficient text format."""
    return IntPoly.make(int(tok.strip()) for tok in s.split(","))


def try_divide(f: IntPoly, g: IntPoly):
    """f / g over Z if the division is exact, else None.  Integer long
    division, stopped at the first remainder lead lc(g) does not divide."""
    if g.is_zero():
        raise ZeroPolynomial("division by the zero polynomial")
    b, lc = g.coeffs, g.coeffs[-1]
    r = list(f.coeffs)
    q = [0] * max(len(r) - len(b) + 1, 0)
    for d in reversed(range(len(q))):
        c, rem = divmod(r[d + len(b) - 1], lc)
        if rem:
            return None
        if c:
            q[d] = c
            for j, bj in enumerate(b):
                r[d + j] -= c * bj
    if any(r[: len(b) - 1]):
        return None
    return IntPoly.make(q)


def pseudo_remainder(a: IntPoly, b: IntPoly) -> IntPoly:
    """A positive multiple of rem(a, b) over Q, divided by its content.  A
    step scales by |lc(b)| > 0 only, so Sturm chains keep their signs."""
    if b.is_zero():
        raise ZeroPolynomial("polynomial division by zero")
    b, lc = b.coeffs, b.coeffs[-1]
    s, sign = abs(lc), (1 if lc > 0 else -1)
    r = list(a.coeffs)
    while len(r) >= len(b):
        c = r.pop()
        if not c:
            continue
        k, rem = divmod(c, lc)
        if rem:
            r = [s * x for x in r]
            k = sign * c
        d = len(r) - len(b) + 1
        for j in range(len(b) - 1):
            r[d + j] -= k * b[j]
    r = IntPoly.make(r)
    g = r.content()
    return IntPoly(tuple(c // g for c in r.coeffs)) if g > 1 else r


def int_poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd over Z with positive leading coefficient, by the
    primitive pseudo-remainder sequence."""
    while not g.is_zero():
        f, g = g, pseudo_remainder(f, g)
    return f.primitive()


# ---------------------------------------------------------------------------
# polynomials over a finite field


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

    @staticmethod
    def x(field: FiniteField) -> "ModPoly":
        return ModPoly.make(field, [field.zero(), field.one()])

    @staticmethod
    def one(field: FiniteField) -> "ModPoly":
        return ModPoly.make(field, [field.one()])

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

    def scale(self, c: FFElement) -> "ModPoly":
        return ModPoly.make(self.field, [c * a for a in self.coeffs])

    def __divmod__(self, other):
        f = self.field
        if other.is_zero():
            raise ZeroPolynomial("polynomial division by zero")
        q = [f.zero()] * max(len(self.coeffs) - len(other.coeffs) + 1, 1)
        r = list(self.coeffs)
        inv_lc = other.lc().inverse()
        while len(r) >= len(other.coeffs):
            while r and r[-1].is_zero():
                r.pop()
            if len(r) < len(other.coeffs):
                break
            c = r[-1] * inv_lc
            d = len(r) - len(other.coeffs)
            q[d] = c
            for j, bj in enumerate(other.coeffs):
                r[d + j] = r[d + j] - c * bj
        return ModPoly.make(f, q), ModPoly.make(f, r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self) -> "ModPoly":
        if self.is_zero():
            return self
        return self.scale(self.lc().inverse())

    def derivative(self) -> "ModPoly":
        f = self.field
        return ModPoly.make(f, [f.scalar(i) * c for i, c in enumerate(self.coeffs) if i >= 1])

    def eval(self, x: FFElement) -> FFElement:
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def powmod(self, e: int, modulus: "ModPoly") -> "ModPoly":
        result = ModPoly.one(self.field)
        base = self % modulus
        while e:
            if e & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            e >>= 1
        return result

    def dual(self, c: FFElement) -> "ModPoly":
        """Monic polynomial with roots c/alpha over the roots alpha:
        coefficient j is g_(n-j) c^(n-j), made monic."""
        if self.is_zero() or self.coeffs[0].is_zero():
            raise ZeroConstantTerm("0 is a root; the dual is undefined")
        n = self.degree
        return ModPoly.make(self.field, [self.coeffs[n - j] * c ** (n - j) for j in range(n + 1)]).monic()

    def frobenius_coeffs(self) -> "ModPoly":
        """Apply x -> x^p to every coefficient."""
        return ModPoly.make(self.field, [c.frobenius() for c in self.coeffs])

    def __str__(self):
        if self.is_zero():
            return "0"
        return ",".join(repr(c) for c in self.coeffs)


def mod_gcd(a: ModPoly, b: ModPoly) -> ModPoly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def reduce_mod(f: IntPoly, ell: int) -> ModPoly:
    """Coefficientwise reduction into GF(ell); the degree may drop."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    field = make_field(ell, 1)
    return ModPoly.from_ints(field, f.coeffs)


# -- factorisation over GF(p) ------------------------------------------------
# squarefree, distinct-degree and equal-degree splits on monic int tuples
# (finfield's kernel)


def _int_derivative(f, p):
    return _int_mod([i * c for i, c in enumerate(f)][1:], p)


def _int_squarefree_parts(f, p):
    """[(g_i, m_i)] with the monic f = prod g_i^m_i, each g_i squarefree."""
    out = []
    d = _int_derivative(f, p)
    if not d:
        for g, m in _int_squarefree_parts(f[::p], p):
            out.append((g, m * p))
        return out
    c = _int_gcd(f, d, p)
    w = _int_divmod_monic_mod(f, c, p)[0]
    i = 1
    while w != (1,):
        y = _int_gcd(w, c, p)
        z = _int_divmod_monic_mod(w, y, p)[0]
        if len(z) >= 2:
            out.append((z, i))
        i += 1
        w, c = y, _int_divmod_monic_mod(c, y, p)[0]
    if c != (1,):
        for g, m in _int_squarefree_parts(c[::p], p):
            out.append((g, m * p))
    return out


def _int_distinct_degree(f, p):
    """[(g, d)]: g the product of the monic f's irreducible factors of degree d."""
    out = []
    x = (0, 1)
    h = x
    rest = f
    d = 0
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = _int_powmod(h, p, rest, p)
        g = _int_gcd(_int_sub_mod(h, x, p), rest, p)
        if len(g) >= 2:
            out.append((g, d))
            rest = _int_divmod_monic_mod(rest, g, p)[0]
            h = _int_divmod_monic_mod(h, rest, p)[1]
    if len(rest) >= 2:
        out.append((rest, len(rest) - 1))
    return out


def _int_equal_degree(f, d, p, rng: random.Random):
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d
    factors: the power map for odd p, the trace map for p = 2."""
    if len(f) - 1 == d:
        return [f]
    while True:
        h = _int_mod([rng.randrange(p) for _ in range(len(f) - 1)], p)
        if len(h) < 2:
            continue
        g = _int_gcd(h, f, p)
        if 2 <= len(g) < len(f):
            break
        if p % 2 == 1:
            g = _int_sub_mod(_int_powmod(h, (p**d - 1) // 2, f, p), (1,), p)
        else:
            g = term = h
            for _ in range(d - 1):
                term = _int_divmod_monic_mod(_int_mul_mod(term, term, p), f, p)[1]
                g = _int_sub_mod(g, term, p)  # = g + term in characteristic 2
        g = _int_gcd(g, f, p)
        if 2 <= len(g) < len(f):
            break
    cofactor = _int_divmod_monic_mod(f, g, p)[0]
    return _int_equal_degree(g, d, p, rng) + _int_equal_degree(cofactor, d, p, rng)


def _int_factor(f, p, seed: int = 0):
    """Complete factorisation of a monic f over GF(p): [(monic irreducible,
    multiplicity)] ordered by degree, then coefficients."""
    if len(f) < 2:
        return []
    rng = random.Random(seed)
    factors = [
        (h, mult)
        for part, mult in _int_squarefree_parts(f, p)
        for g, d in _int_distinct_degree(part, p)
        for h in _int_equal_degree(g, d, p, rng)
    ]
    factors.sort(key=lambda hm: (len(hm[0]), hm[0]))
    return factors


def _monic_ints(f: ModPoly):
    """A nonzero f over GF(p) scaled to monic, as an ascending int tuple."""
    p = f.field.p
    inv = pow(f.lc().lift(), -1, p)
    return tuple(c.lift() * inv % p for c in f.coeffs)


def factor_mod(f: ModPoly, seed: int = 0):
    """Complete factorisation over a prime field GF(p).

    Returns (unit, [(monic irreducible, multiplicity)]) with a canonical
    ordering (degree, then coefficient vectors), so the answer does not
    depend on the seed that drives the equal-degree splitting.  Only
    prime-field polynomials are accepted (ValueError otherwise).
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    field = f.field
    if field.k != 1:
        raise ValueError(f"factor_mod needs a prime field, not {field}")
    factors = _int_factor(_monic_ints(f), field.p, seed)
    return f.lc(), [(ModPoly.from_ints(field, g), m) for g, m in factors]


def is_irreducible_mod(f: ModPoly) -> bool:
    """True iff f is irreducible over its prime field GF(p), by the Rabin test.

    Only prime-field polynomials are accepted (ValueError otherwise).
    """
    if f.is_zero():
        raise ZeroPolynomial("irreducibility of the zero polynomial")
    if f.field.k != 1:
        raise ValueError(f"is_irreducible_mod needs a prime field, not {f.field}")
    if f.degree < 1:
        raise ValueError("irreducibility needs degree >= 1")
    return _int_is_irreducible(_monic_ints(f), f.field.p)


# -- factorisation over Z ----------------------------------------------------

_SMALL_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)


def _mignotte_bound(f: IntPoly) -> int:
    n = f.degree
    norm = 1 + isqrt(sum(c * c for c in f.coeffs))
    return (2**n) * norm * abs(f.lc())


def _hensel_pair(f, g, h, p, e):
    """Lift f = g*h from mod p to mod p^e (all monic, gcd(g,h)=1 mod p)."""
    _, s, t = _int_ext_gcd(g, h, p)
    modulus = p
    g, h = tuple(g), tuple(h)
    while modulus < p**e:
        target = modulus * p
        prod_ = _int_mul_mod(g, h, target)
        diff = _int_sub_mod(_int_mod(f, target), prod_, target)
        # every coefficient of diff is divisible by the current modulus
        d = tuple((c // modulus) % p for c in diff)
        while d and d[-1] == 0:
            d = d[:-1]
        if d:
            u = _int_divmod_monic_mod(_int_mul_mod(t, d, p), _int_mod(g, p), p)[1]
            num = _int_sub_mod(d, _int_mul_mod(u, _int_mod(h, p), p), p)
            v, rem = _int_divmod_with_inv(num, _int_mod(g, p), p)
            assert not rem, "hensel step: inexact division"
            g = _int_sub_mod(g, tuple(-modulus * c for c in u), target)
            h = _int_sub_mod(h, tuple(-modulus * c for c in v), target)
        modulus = target
    return _int_mod(g, p**e), _int_mod(h, p**e)


def _hensel_multi(f_star, mod_factors, p, e):
    """Lift the monic factors of f mod p to monic factors mod p^e."""
    if len(mod_factors) == 1:
        return [_int_mod(f_star, p**e)]
    mid = len(mod_factors) // 2
    left, right = mod_factors[:mid], mod_factors[mid:]
    g0 = (1,)
    for w in left:
        g0 = _int_mul_mod(g0, w, p)
    h0 = (1,)
    for w in right:
        h0 = _int_mul_mod(h0, w, p)
    g, h = _hensel_pair(f_star, g0, h0, p, e)
    return _hensel_multi(g, left, p, e) + _hensel_multi(h, right, p, e)


def _centered(coeffs, m):
    half = m // 2
    return tuple(c - m if c > half else c for c in coeffs)


def _zassenhaus(f: IntPoly, prime_offset: int = 0):
    """Irreducible factors of a squarefree primitive f with positive lc."""
    if f.degree <= 1:
        return [f]
    skipped = 0
    for p in _SMALL_PRIMES:
        if f.lc() % p == 0:  # the degree would drop mod p
            continue
        inv = pow(f.lc(), -1, p)
        fp = tuple(c * inv % p for c in f.coeffs)
        if len(_int_gcd(fp, _int_derivative(fp, p), p)) != 1:
            continue
        if skipped < prime_offset:
            skipped += 1
            continue
        break
    else:
        raise AssertionError("no usable auxiliary prime below the table limit")
    mods = [g for g, _ in _int_factor(fp, p)]
    if len(mods) == 1:
        return [f]
    bound = _mignotte_bound(f)
    e = 1
    while p**e <= 2 * bound:
        e += 1
    pe = p**e
    lc_inv = pow(f.lc() % pe, -1, pe)
    f_star = _int_mod(tuple(c * lc_inv for c in f.coeffs), pe)
    lifted = _hensel_multi(f_star, mods, p, e)

    result = []
    remaining = list(range(len(lifted)))
    current = f
    size = 1
    while size <= len(remaining) // 2:
        found = False
        for subset in combinations(remaining, size):
            cand = (current.lc() % pe,)
            for i in subset:
                cand = _int_mul_mod(cand, lifted[i], pe)
            cand_poly = IntPoly.make(_centered(cand, pe)).primitive()
            if cand_poly.degree < 1:
                continue
            quotient = try_divide(current, cand_poly)
            if quotient is not None:
                result.append(cand_poly)
                current = quotient
                remaining = [i for i in remaining if i not in subset]
                found = True
                break
        if not found:
            size += 1
    if current.degree >= 1:
        result.append(current)
    return result


def factor_over_Z(f: IntPoly, prime_offset: int = 0):
    """Factor a primitive or monic integer polynomial into irreducibles.

    Returns a canonically ordered tuple of (irreducible IntPoly, multiplicity)
    whose product reconstructs f.  prime_offset skips that many viable
    auxiliary primes (used to confirm the answer is prime-independent).
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.lc() < 0:
        raise ValueError("expected a primitive polynomial with positive leading coefficient")
    if f.primitive() != f and not f.is_monic():
        raise ValueError("expected a primitive or monic polynomial")
    if f.degree < 1:
        return ()
    sqf = try_divide(f, int_poly_gcd(f, f.derivative()))
    assert sqf is not None
    out = []
    for g in _zassenhaus(sqf.primitive(), prime_offset):
        mult = 0
        probe = f
        while True:
            nxt = try_divide(probe, g)
            if nxt is None:
                break
            probe = nxt
            mult += 1
        out.append((g, mult))
    out.sort(key=lambda gm: (gm[0].degree, gm[0].coeffs))
    return tuple(out)


# -- power structure ---------------------------------------------------------


def dth_root(f: IntPoly, d: int):
    """The monic g with g^d = f exactly, or None.

    Coefficients are solved top-down, each by an exact division by d: by
    Gauss's lemma a monic rational root of a monic integer polynomial is
    integral, so a nonzero remainder means there is no root.  The result is
    verified by a full expansion.
    """
    if f.is_zero() or not f.is_monic():
        raise NotMonic("d-th roots are extracted from monic polynomials only")
    if d < 1 or f.degree % d != 0:
        raise DegreeNotDivisible(f"{d} does not divide degree {f.degree}")
    if d == 1:
        return f
    n = f.degree
    m = n // d
    g = [0] * m + [1]
    for j in range(1, m + 1):
        # the t^(n-j) coefficient of g^d is d*g[m-j] plus terms in the
        # already-solved entries, which `partial` holds while g[m-j] is 0
        partial = IntPoly(tuple(g)) ** d
        c, rem = divmod(f.coeffs[n - j] - partial.coeffs[n - j], d)
        if rem:
            return None
        g[m - j] = c
    root = IntPoly.make(g)
    return root if root**d == f else None


def max_power_structure(f: IntPoly):
    """(g, d) with f = g^d for the largest possible d; d = 1 means no power."""
    if f.is_zero() or not f.is_monic():
        raise NotMonic("power structure is defined for monic polynomials")
    if f.degree < 1:
        raise ValueError("power structure needs degree >= 1")
    n = f.degree
    for d in sorted((e for e in range(2, n + 1) if n % e == 0), reverse=True):
        g = dth_root(f, d)
        if g is not None:
            return g, d
    return f, 1
