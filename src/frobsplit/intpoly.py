"""Polynomials over Z and over prime fields.

Covers the coefficient-level machinery the rest of the package leans on:
irreducibility over a prime field (Ben-Or test), complete factorisation over
a prime field GF(p) (squarefree split, distinct-degree split,
Cantor-Zassenhaus equal-degree split), factorisation over Z by the classical
mod-p / Hensel / recombination route with a Landau-Mignotte coefficient
bound, and exact d-th roots of monic integer polynomials.  Mod the least
odd prime p that keeps the degree and squarefreeness of f, tested on the
roots of f found by evaluation, the roots are lifted by p-adic Newton
iteration and only the root-free cofactor is split and lifted by the
quadratic Hensel tree (von zur Gathen-Gerhard, Alg. 15.10): monic coprime
lifts are unique, so a split f gets the same factors with no equal-degree
split and no Hensel step.  Recombination runs the constant-term d-test
(Abbott-Shoup-Zimmermann 2000) on every subset before it multiplies the
subset out and trial-divides over Z.

IntPoly, over Z, is the one polynomial class.  Over GF(p) a polynomial is
finfield's ascending int tuple: factor_mod and is_irreducible_mod take any
int sequence with a prime p, reduce it mod p, and return monic int tuples,
and all their work (with the prime screening, factorisation and Hensel
lifting of factor_over_Z) runs on finfield's int-tuple kernel.  Nothing
factors over GF(p^k) with k >= 2.  Arithmetic over Z is integer-only: exact
long division, the primitive pseudo-remainder sequence (Collins 1967; Brown
1971) for gcds, and exact division by d for d-th roots (Gauss's lemma).
Everything is exact; randomised splitting is driven by an explicit seed and
the output ordering is canonical, so all results are reproducible.

Scale target is degree <= 16 with moderate coefficients: weil.analyze
factors the real transform h of a Weil polynomial, of half its degree, less
the integer roots it divides out first, so the degree-32 Weil polynomials
the package analyses come here at degree 16 at most.
Recombination stays exponential in the number of factors mod p, with no
knapsack step.
"""

from __future__ import annotations

import operator
import random
from itertools import combinations, islice
from math import gcd, isqrt

from .finfield import (
    CompositeModulus,
    Record,
    _int_add_mod,
    _int_divmod_monic_mod,
    _int_ext_gcd,
    _int_gcd,
    _int_is_irreducible,
    _int_mod,
    _int_mul_mod,
    _int_powmod,
    _int_rem_monic_mod,
    _int_sub_mod,
    is_prime,
    power,
)


class ZeroPolynomial(ValueError):
    """Operation undefined for the zero polynomial."""


class NotMonic(ValueError):
    """A monic polynomial was required."""


class DegreeNotDivisible(ValueError):
    """d does not divide the degree of the input."""


# ---------------------------------------------------------------------------
# integer polynomials


class IntPoly(Record):
    """Integer polynomial; coeffs ascending, no trailing zeros, () is zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        object.__setattr__(self, "coeffs", coeffs)

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
        return power(self, e, operator.mul, IntPoly((1,)))

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
            h = _int_rem_monic_mod(h, rest, p)
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
                term = _int_rem_monic_mod(_int_mul_mod(term, term, p), f, p)
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


def _monic_mod(f, p: int):
    """(unit, monic int tuple) of the int sequence f reduced mod the prime p."""
    if not is_prime(p):
        raise CompositeModulus(f"{p} is not prime")
    g = _int_mod(f, p)
    if not g:
        raise ZeroPolynomial(f"the zero polynomial mod {p}")
    inv = pow(g[-1], -1, p)
    return g[-1], tuple(c * inv % p for c in g)


def factor_mod(f, p: int, seed: int = 0):
    """Complete factorisation of the int sequence f (ascending) mod the prime p.

    Returns (unit, [(monic irreducible, multiplicity)]): the unit an int in
    [1, p), each factor an ascending int tuple, in a canonical order (degree,
    then coefficients), so the answer does not depend on the seed that
    drives the equal-degree splitting.
    """
    unit, g = _monic_mod(f, p)
    return unit, _int_factor(g, p, seed)


def is_irreducible_mod(f, p: int) -> bool:
    """True iff the int sequence f (ascending) is irreducible mod the prime
    p, by Ben-Or's test, which stops at the least degree of an irreducible
    factor."""
    _, g = _monic_mod(f, p)
    if len(g) < 2:
        raise ValueError("irreducibility needs degree >= 1")
    return _int_is_irreducible(g, p)


# -- factorisation over Z ----------------------------------------------------

def _mignotte_bound(f: IntPoly) -> int:
    n = f.degree
    norm = 1 + isqrt(sum(c * c for c in f.coeffs))
    return (2**n) * norm * abs(f.lc())


def _hensel_pair(f, g, h, p, e):
    """Lift f = g*h from mod p to mod p^e (all monic, gcd(g,h)=1 mod p).

    Quadratic Hensel lifting (von zur Gathen-Gerhard, Modern Computer
    Algebra, Alg. 15.10): g, h and the Bezout pair s*g + t*h = 1 are lifted
    together while the modulus squares, and the last step stops at exactly
    p^e.  Monic coprime lifts are unique mod p^e, so this is the answer of a
    lift that gains one power of p per step, in O(log e) steps."""
    _, s, t = _int_ext_gcd(g, h, p)
    g, h = tuple(g), tuple(h)
    k = 1
    while k < e:
        k = min(2 * k, e)
        m = p**k
        err = _int_sub_mod(f, _int_mul_mod(g, h, m), m)
        q, r = _int_divmod_monic_mod(_int_mul_mod(s, err, m), h, m)
        g = _int_add_mod(g, _int_add_mod(_int_mul_mod(t, err, m), _int_mul_mod(q, g, m), m), m)
        h = _int_add_mod(h, r, m)
        if k < e:  # the Bezout pair only serves the next step
            b = _int_sub_mod(_int_add_mod(_int_mul_mod(s, g, m), _int_mul_mod(t, h, m), m), (1,), m)
            c, d = _int_divmod_monic_mod(_int_mul_mod(s, b, m), h, m)
            s = _int_sub_mod(s, d, m)
            t = _int_sub_mod(t, _int_add_mod(_int_mul_mod(t, b, m), _int_mul_mod(c, g, m), m), m)
    return g, h


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


def _auxiliary_primes(f: IntPoly):
    """(p, roots, mods) of _split_mod for the odd primes p, in increasing
    order, that divide neither lc(f) nor disc(f) (finitely many do)."""
    p = 1
    while True:
        p += 2
        if not is_prime(p) or f.lc() % p == 0:
            continue
        inv = pow(f.lc(), -1, p)
        split = _split_mod(tuple(c * inv % p for c in f.coeffs), p)
        if split is not None:
            yield p, *split


def _eval_mod(f, a, m):
    acc = 0
    for c in reversed(f):
        acc = (acc * a + c) % m
    return acc


def _split_mod(fp, p):
    """(roots, mods) of the monic fp over GF(p), or None if fp is not
    squarefree: its roots, by evaluation, and the irreducible factors of the
    root-free cofactor.  A root a is simple iff the cofactor left by x - a
    does not vanish at a; a root-free cofactor of degree 2 or 3 is
    irreducible, so only one of degree >= 4 needs a gcd with its derivative."""
    roots, rest = [], fp
    for a in range(p):
        if not _eval_mod(rest, a, p):
            rest = _int_divmod_monic_mod(rest, (-a % p, 1), p)[0]
            if not _eval_mod(rest, a, p):
                return None
            roots.append(a)
    if len(rest) >= 5 and len(_int_gcd(rest, _int_derivative(rest, p), p)) > 1:
        return None
    return roots, [h for g, d in _int_distinct_degree(rest, p) for h in _int_equal_degree(g, d, p, random.Random(0))]


def _lift_factors(f_star, roots, mods, p, e):
    """The monic factors mod p^e of f_star over (roots, mods) of _split_mod.
    A simple root lifts by p-adic Newton iteration a <- a - f*(a)/f*'(a)
    mod p^(2k), k doubling up to e; only the cofactor left by the x - a goes
    through the Hensel tree."""
    pe = p**e
    df = _int_derivative(f_star, pe)
    lifted, rest = [], f_star
    for a in roots:
        k = 1
        while k < e:
            k = min(2 * k, e)
            m = p**k
            a = (a - _eval_mod(f_star, a, m) * pow(_eval_mod(df, a, m), -1, m)) % m
        lifted.append((-a % pe, 1))
        rest = _int_divmod_monic_mod(rest, lifted[-1], pe)[0]
    return lifted + (_hensel_multi(rest, mods, p, e) if mods else [])


def _zassenhaus(f: IntPoly, prime_offset: int = 0):
    """Irreducible factors of a squarefree primitive f with positive lc.

    p is the (prime_offset + 1)-th of _auxiliary_primes.  Roots mod p lift by
    Newton's iteration, the rest by the Hensel tree (_lift_factors).  Monic
    coprime lifts are unique mod p^e, so these are the factors the tree lifts
    from the whole mod-p factor list."""
    if f.degree <= 1:
        return [f]
    p, roots, mods = next(islice(_auxiliary_primes(f), prime_offset, None))
    if len(roots) + len(mods) == 1:
        return [f]
    bound = _mignotte_bound(f)
    e = 1
    while p**e <= 2 * bound:
        e += 1
    pe = p**e
    lc_inv = pow(f.lc() % pe, -1, pe)
    f_star = _int_mod(tuple(c * lc_inv for c in f.coeffs), pe)
    lifted = _lift_factors(f_star, roots, mods, p, e)

    # the d-test (Abbott-Shoup-Zimmermann 2000): a true factor's candidate
    # lc(current) * prod lifted_i is (lc(current)/lc(g)) * g exactly, so its
    # constant term divides lc(current) * current(0) whenever that is nonzero
    consts = [g[0] for g in lifted]
    result = []
    remaining = list(range(len(lifted)))
    current = f
    size = 1
    while size <= len(remaining) // 2:
        found = False
        target = current.lc() * current.coeffs[0]
        for subset in combinations(remaining, size):
            if target:
                c0 = current.lc()
                for i in subset:
                    c0 = c0 * consts[i] % pe
                c0 = _centered((c0,), pe)[0]
                if not c0 or target % c0:
                    continue
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
        mult, probe = 1, f  # every multiplicity of a squarefree f is 1
        if sqf.degree < f.degree:
            mult = 0
            while (probe := try_divide(probe, g)) is not None:
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
