"""Exact arithmetic in small finite fields GF(p^k) on a polynomial basis.

Fields are determined by (p, k) alone: the defining modulus is always the
lexicographically least monic irreducible of degree k over GF(p), comparing
coefficient vectors from the constant term up.  That makes every field object
reproducible across runs without a Conway polynomial table.  No subfield
embeddings are provided; subfield questions are answered through degrees.

Field sizes are capped below 2**63 so all arithmetic stays exact machine
arithmetic.

The module also holds the package's one kernel of dense polynomials over
Z/m on int tuples (the ``_int_*`` functions).  It serves the canonical-modulus
search and all polynomial work over GF(p) in ``intpoly``: the Rabin test that
``is_irreducible_mod`` runs, ``factor_mod`` over prime fields, and the prime
screening, factorisation and Hensel lifting of ``factor_over_Z``.  Nothing
factors over GF(p^k) with k >= 2; there ``intpoly.ModPoly`` on FFElement
coefficients does the ring arithmetic, powers and gcds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

MAX_FIELD_SIZE = 2**63


class CompositeModulus(ValueError):
    """The requested characteristic is not prime."""


class Overflow(ValueError):
    """The requested field does not fit in a machine word."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero element of a field."""


class FieldMismatch(ValueError):
    """Operands belong to different fields (coercion is never attempted)."""


IS_PRIME_LIMIT = 3317044064679887385961981  # least strong pseudoprime to bases 2..41


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < IS_PRIME_LIMIT."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_divisors(n: int):
    """The distinct primes dividing n, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense polynomials over Z/m: ascending int tuples without trailing zeros,
# () is zero (see the module docstring for who uses them)


def _int_mod(coeffs, m):
    c = [x % m for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _int_mul_mod(a, b, m):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % m
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _int_sub_mod(a, b, m):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    c = [(x - y) % m for x, y in zip(a, b)]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _int_divmod_monic_mod(a, b, m):
    """Divide by a monic b with all arithmetic mod m.  a is reduced once;
    each quotient position then clears one coefficient, b's leading 1 aside."""
    r = [x % m for x in a]
    q = [0] * max(len(r) - len(b) + 1, 0)
    top = len(b) - 1
    for d in reversed(range(len(q))):
        c = r[d + top]
        if c:
            q[d] = c
            for j in range(top):
                r[d + j] = (r[d + j] - c * b[j]) % m
    del r[top:]
    while r and r[-1] == 0:
        r.pop()
    while q and q[-1] == 0:
        q.pop()
    return tuple(q), tuple(r)


def _int_divmod_with_inv(a, b, p):
    """Division over GF(p) for a not-necessarily-monic b."""
    inv = pow(b[-1], p - 2, p)
    bm = tuple(x * inv % p for x in b)
    q, r = _int_divmod_monic_mod(a, bm, p)
    q = tuple(x * inv % p for x in q)
    return q, r


def _int_ext_gcd(a, b, p):
    """Extended Euclid over GF(p): (g, s, t) with g = s*a + t*b monic."""
    r0, r1 = _int_mod(a, p), _int_mod(b, p)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = _int_divmod_with_inv(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _int_sub_mod(s0, _int_mul_mod(q, s1, p), p)
        t0, t1 = t1, _int_sub_mod(t0, _int_mul_mod(q, t1, p), p)
    inv = pow(r0[-1], p - 2, p)
    scale = lambda c: tuple(x * inv % p for x in c)  # noqa: E731
    return scale(r0), scale(s0), scale(t0)


def _int_gcd(a, b, p):
    """Monic gcd over GF(p) of reduced a and b; () when both are zero."""
    while b:
        a, b = b, _int_divmod_with_inv(a, b, p)[1]
    if not a:
        return ()
    inv = pow(a[-1], p - 2, p)
    return tuple(x * inv % p for x in a)


def _int_powmod(a, e: int, f, m):
    """a**e mod the monic f for e >= 1 (a already reduced), left to right."""
    result = a
    for bit in bin(e)[3:]:
        result = _int_divmod_monic_mod(_int_mul_mod(result, result, m), f, m)[1]
        if bit == "1":
            result = _int_divmod_monic_mod(_int_mul_mod(result, a, m), f, m)[1]
    return result


def _int_is_irreducible(f, p) -> bool:
    """Rabin test for a monic f of degree k >= 1 over GF(p): f divides
    x^(p^k) - x and is coprime to x^(p^(k/r)) - x for every prime r | k.

    The Frobenius powers x^(p^j) are built one p-th power at a time, so a
    failed coprimality check stops the test early."""
    k = len(f) - 1
    x = _int_divmod_monic_mod((0, 1), f, p)[1]
    checks = {k // r for r in prime_divisors(k)}
    h = x
    for j in range(1, k + 1):
        h = _int_powmod(h, p, f, p)
        if j in checks:
            if len(_int_gcd(f, _int_sub_mod(h, x, p), p)) != 1:
                return False
    return h == x


def _canonical_modulus(p: int, k: int):
    """Lexicographically least monic irreducible of degree k over GF(p).
    For k >= 2 a zero constant term means a factor x, so c0 starts at 1."""
    if k == 1:
        return (0, 1)
    for low in product(range(1, p), *[range(p)] * (k - 1)):
        f = low + (1,)
        if _int_is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteField:
    """GF(p^k) presented as GF(p)[t] modulo the canonical irreducible."""

    p: int
    k: int
    modulus: tuple  # length k+1, monic, ascending coefficients

    @property
    def q(self) -> int:
        return self.p**self.k

    def element(self, coeffs) -> "FFElement":
        c = [x % self.p for x in coeffs]
        if len(c) > self.k:
            raise ValueError("coefficient vector longer than extension degree")
        c += [0] * (self.k - len(c))
        return FFElement(self, tuple(c))

    def scalar(self, c: int) -> "FFElement":
        return self.element([c])

    def zero(self) -> "FFElement":
        return self.element([])

    def one(self) -> "FFElement":
        return self.element([1])

    def from_index(self, i: int) -> "FFElement":
        """Element whose coefficient vector is i written in base p."""
        c = []
        for _ in range(self.k):
            c.append(i % self.p)
            i //= self.p
        return FFElement(self, tuple(c))

    def elements(self):
        for i in range(self.q):
            yield self.from_index(i)

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


@lru_cache(maxsize=None)
def make_field(p: int, k: int = 1) -> FiniteField:
    """Build GF(p^k) with the canonical modulus; deterministic across runs."""
    if not is_prime(p):
        raise CompositeModulus(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be at least 1")
    if p**k >= MAX_FIELD_SIZE:
        raise Overflow(f"{p}^{k} exceeds the machine-word cap")
    return FiniteField(p, k, _canonical_modulus(p, k))


@dataclass(frozen=True)
class FFElement:
    """An element of a FiniteField in the polynomial basis (ascending)."""

    field: FiniteField
    coeffs: tuple

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def index(self) -> int:
        """Integer encoding c0 + c1*p + ... (inverse of from_index)."""
        i = 0
        for c in reversed(self.coeffs):
            i = i * self.field.p + c
        return i

    def in_prime_field(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def lift(self) -> int:
        """The integer representative, defined only for prime-field elements."""
        if not self.in_prime_field():
            raise ValueError(f"{self} does not lie in the prime field")
        return self.coeffs[0]

    def _check(self, other):
        if not isinstance(other, FFElement):
            raise TypeError("expected a field element")
        # make_field is cached, so operands of one field share the object
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FFElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FFElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        f, p, k = self.field.modulus, self.field.p, self.field.k
        prod_ = [0] * (2 * k - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(other.coeffs):
                    prod_[i + j] = (prod_[i + j] + ai * bj) % p
        for i in range(2 * k - 2, k - 1, -1):
            c = prod_[i]
            if c:
                prod_[i] = 0
                for j in range(k + 1):
                    prod_[i - k + j] = (prod_[i - k + j] - c * f[j]) % p
        return FFElement(self.field, tuple(prod_[:k]))

    def inverse(self) -> "FFElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def frobenius(self) -> "FFElement":
        return self ** self.field.p

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else (f"u^{i}" if c == 1 else f"{c}u^{i}").replace("u^1", "u"))
        return " + ".join(terms) if terms else "0"


def frobenius_orbit(x: FFElement):
    """[x, x^p, x^(p^2), ...] up to the first repetition."""
    orbit = [x]
    y = x.frobenius()
    while y != x:
        orbit.append(y)
        y = y.frobenius()
    return orbit


def minimal_polynomial(x: FFElement) -> tuple:
    """Monic minimal polynomial of x over GF(p), ascending int coefficients."""
    field = x.field
    # expand prod (t - sigma(x)) over the Frobenius orbit
    coeffs = [field.one()]
    for y in frobenius_orbit(x):
        nxt = [field.zero()] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * y
        coeffs = nxt
    out = []
    for c in coeffs:
        if not c.in_prime_field():
            raise AssertionError("minimal polynomial has a non-rational coefficient")
        out.append(c.lift())
    return tuple(out)


def subfield_degree(x: FFElement) -> int:
    """Smallest d | k with x in GF(p^d); equals the Frobenius orbit length."""
    return len(frobenius_orbit(x))
