"""Exact arithmetic in small finite fields GF(p^k) on a polynomial basis.

Fields are determined by (p, k) alone: the defining modulus is always the
lexicographically least monic irreducible of degree k over GF(p), comparing
coefficient vectors from the constant term up.  That makes every field object
reproducible across runs without a Conway polynomial table.  No subfield
embeddings are provided; subfield questions are answered through degrees.

Field sizes are capped below 2**63 so all arithmetic stays exact machine
arithmetic.
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


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10**24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
# dense polynomials over GF(p), used only to find the canonical modulus

def _p_trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _p_mulmod(a, b, f, p):
    n = len(f) - 1
    prod_ = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod_[i + j] = (prod_[i + j] + ai * bj) % p
    # reduce by the monic f
    for i in range(len(prod_) - 1, n - 1, -1):
        c = prod_[i]
        if c:
            prod_[i] = 0
            for j in range(n + 1):
                prod_[i - n + j] = (prod_[i - n + j] - c * f[j]) % p
    return _p_trim(tuple(prod_[:n]))


def _p_powmod_x(e: int, f, p):
    """x**e mod f over GF(p), binary exponentiation."""
    result = (1,)
    base = (0, 1) if len(f) > 2 else _p_trim(((-f[0]) % p,))
    while e:
        if e & 1:
            result = _p_mulmod(result, base, f, p)
        base = _p_mulmod(base, base, f, p)
        e >>= 1
    return result


def _p_gcd(a, b, p):
    a, b = _p_trim(a), _p_trim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        bm = tuple(c * inv % p for c in b)
        r = a
        while len(r) >= len(bm):
            c, shift = r[-1], len(r) - len(bm)
            work = list(r)
            for j, bj in enumerate(bm):
                work[shift + j] = (work[shift + j] - c * bj) % p
            r = _p_trim(tuple(work))
        a, b = b, r
    return a


def _minus_x_mod(a, p):
    """a - x with coefficients reduced mod p."""
    sub = list(a) + [0] * (2 - len(a))
    sub[1] = (sub[1] - 1) % p
    return _p_trim(tuple(c % p for c in sub))


def _is_irreducible(f, p) -> bool:
    """Rabin test for a monic f over GF(p)."""
    k = len(f) - 1
    if k < 1:
        return False
    if _minus_x_mod(_p_powmod_x(p**k, f, p), p):
        return False
    for r in prime_divisors(k):
        g = _p_gcd(_minus_x_mod(_p_powmod_x(p ** (k // r), f, p), p), f, p)
        if len(g) != 1:
            return False
    return True


def _canonical_modulus(p: int, k: int):
    """Lexicographically least monic irreducible of degree k over GF(p).
    For k >= 2 a zero constant term means a factor x, so c0 starts at 1."""
    if k == 1:
        return (0, 1)
    for low in product(range(1, p), *[range(p)] * (k - 1)):
        f = low + (1,)
        if _is_irreducible(f, p):
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
        if other.field != self.field:
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


def field_arith(x: FFElement, y: FFElement, op: str) -> FFElement:
    """Dispatch one of add|sub|mul|div|pow (pow uses y's prime-field lift)."""
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        return x / y
    if op == "pow":
        return x ** y.lift()
    raise ValueError(f"unknown operation {op!r}")


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
