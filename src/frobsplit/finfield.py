"""Exact arithmetic in small finite fields GF(p^k) on a polynomial basis.

Fields are determined by (p, k) alone: the defining modulus is always the
lexicographically least monic irreducible of degree k over GF(p), comparing
coefficient vectors from the constant term up.  That makes every field object
reproducible across runs without a Conway polynomial table.  No subfield
embeddings are provided; subfield questions are answered through degrees.
Python integers are exact at any size, so no field size is capped.

The module also holds the package's one kernel of dense polynomials over
Z/m on int tuples (the ``_int_*`` functions).  FFElement runs on it, with
the Frobenius a cached GF(p)-linear map (Berlekamp's Q-matrix), and
``power`` is the package's one exponentiation loop.  The kernel serves the
canonical-modulus search and all polynomial work over GF(p) in ``intpoly``:
the Ben-Or irreducibility test that ``is_irreducible_mod`` runs (it stops
at the least degree of an irreducible factor), ``factor_mod`` over
prime fields, and the prime screening, factorisation and Hensel lifting of
``factor_over_Z``.  Nothing factors over GF(p^k) with k >= 2.  These int
tuples are the package's one polynomial type over GF(p): ``factor_mod`` and
``is_irreducible_mod`` take and return them, with no wrapper class.  The
kernel reduces lazily: a product reduces each coefficient once, a division
reduces a coefficient when it reads it, and callers that drop the quotient
(field multiply, modular powers, gcds) take the remainder-only division.

``Record`` is the base of the package's immutable value types, here and in
the modules above: plain classes whose ``__slots__`` give ``Record`` the
fields of its constructor, equality, hash and pickling (FFElement and
IntPoly, built on every field or polynomial operation, keep a constructor
of their own).  They are not dataclasses, because importing ``dataclasses``
(which loads ``inspect``, ``ast``, ``dis`` and ``tokenize``) and running
its decorators cost every command about 30 ms of start-up.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import gcd


class CompositeModulus(ValueError):
    """The requested characteristic is not prime."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero element of a field."""


class FieldMismatch(ValueError):
    """Operands belong to different fields (coercion is never attempted)."""


class BudgetExceeded(RuntimeError):
    """An exact computation would exceed its hard cap."""


class PrimalityUndecided(ValueError):
    """is_prime cannot decide a number at or above IS_PRIME_LIMIT."""


IS_PRIME_LIMIT = 3317044064679887385961981  # least strong pseudoprime to bases 2..41


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below IS_PRIME_LIMIT; at or above
    it, where a composite passes every base, it raises PrimalityUndecided."""
    if n >= IS_PRIME_LIMIT:
        raise PrimalityUndecided(f"cannot decide whether {n} is prime: it is at or above IS_PRIME_LIMIT = {IS_PRIME_LIMIT}")
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
    """The distinct primes dividing n, ascending: trial division up to 1000,
    then is_prime proves the cofactor prime or _rho_factor splits it.  A
    cofactor at or above IS_PRIME_LIMIT raises BudgetExceeded."""
    out, d = [], 2
    while d * d <= n:
        if d > 1000:
            if n >= IS_PRIME_LIMIT:
                raise BudgetExceeded(f"cofactor {n} is at or above IS_PRIME_LIMIT = {IS_PRIME_LIMIT}, where is_prime stops being exact")
            if is_prime(n):
                break
            f = _rho_factor(n)
            return out + sorted(set(prime_divisors(f) + prime_divisors(n // f)))
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _rho_factor(n: int) -> int:
    """A proper factor of the composite n: Pollard's rho on y -> y^2 + c with
    Brent's cycle search and gcds batched over 128 steps (Brent 1980).  The
    least prime factor of an n below IS_PRIME_LIMIT is below 1.83*10^12, so
    the expected walk is at most about 1.7*10^6 steps."""
    for c in range(1, n):
        y, g, q, span = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(span):
                y = (y * y + c) % n
            for done in range(0, span, 128):
                saved = y
                for _ in range(min(128, span - done)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                if (g := gcd(q, n)) != 1:
                    break
            span *= 2
        if g == n:  # the batch overshot: step through it again, one gcd a step
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(x - saved, n)
        if g != n:
            return g
    raise AssertionError(f"{n} is prime")  # unreachable for composite n


def power(x, e: int, mul, one):
    """x**e for e >= 0 under the product mul, left to right: the package's
    one square-and-multiply loop.  e = 0 gives one."""
    if e < 0:
        raise ValueError("negative exponent")
    if e == 0:
        return one
    result = x
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


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
                out[i + j] += ai * bj
    return _int_mod(out, m)


def _int_add_mod(a, b, m):
    if len(a) < len(b):
        a, b = b, a
    return _int_mod([x + y for x, y in zip(a, b)] + list(a[len(b):]), m)


def _int_sub_mod(a, b, m):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    c = [(x - y) % m for x, y in zip(a, b)]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _int_divmod_monic_mod(a, b, m):
    """Divide by a monic b with all arithmetic mod m.  Reduction is lazy: a
    coefficient is reduced when a quotient position reads it, and the
    remainder once at the end."""
    r = list(a)
    q = [0] * max(len(r) - len(b) + 1, 0)
    top = len(b) - 1
    for d in reversed(range(len(q))):
        c = r[d + top] % m
        if c:
            q[d] = c
            for j in range(top):
                r[d + j] -= c * b[j]
    return _int_mod(q, m), _int_mod(r[:top], m)


def _int_rem_monic_mod(a, b, m):
    """The remainder of _int_divmod_monic_mod, without a quotient."""
    r = list(a)
    top = len(b) - 1
    for d in reversed(range(len(r) - top)):
        c = r[d + top] % m
        if c:
            for j in range(top):
                r[d + j] -= c * b[j]
    return _int_mod(r[:top], m)


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
        inv = pow(b[-1], p - 2, p)
        b = tuple(x * inv % p for x in b)
        a, b = b, _int_rem_monic_mod(a, b, p)
    if not a:
        return ()
    inv = pow(a[-1], p - 2, p)
    return tuple(x * inv % p for x in a)


def _int_powmod(a, e: int, f, m):
    """a**e mod the monic f for e >= 1 (a already reduced)."""
    return power(a, e, lambda u, v: _int_rem_monic_mod(_int_mul_mod(u, v, m), f, m), (1,))


def _int_is_irreducible(f, p) -> bool:
    """Ben-Or's test for a monic f of degree k >= 1 over GF(p): f is
    irreducible iff gcd(f, x^(p^j) - x) = 1 for j = 1, ..., k/2, since a
    reducible f has an irreducible factor of some degree j <= k/2, and
    x^(p^j) - x is the product of the monic irreducibles of degree dividing j.

    The Frobenius powers x^(p^j) are built one p-th power at a time, and the
    first nontrivial gcd stops the test."""
    x = _int_rem_monic_mod((0, 1), f, p)
    h = x
    for _ in range((len(f) - 1) // 2):
        h = _int_powmod(h, p, f, p)
        if len(_int_gcd(f, _int_sub_mod(h, x, p), p)) != 1:
            return False
    return True


def _canonical_modulus(p: int, k: int):
    """Lexicographically least monic irreducible of degree k over GF(p): the
    candidates c0 + c1 x + ... are counted as the base-p numbers c0 c1 ...,
    c0 the most significant digit, from c0 = 1 (for k >= 2 a zero constant
    term means a factor x)."""
    if k == 1:
        return (0, 1)
    for i in range(p ** (k - 1), p**k):
        f = (*(i // p ** (k - 1 - j) % p for j in range(k)), 1)
        if _int_is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------


class Record:
    """Base of the package's immutable value types.

    A subclass lists its fields in ``__slots__``, and the one constructor
    here takes them in that order, by position or keyword; a missing,
    unknown, repeated or surplus field raises TypeError.  A record that
    checks its fields or defaults one (ModelEntry, GaloisModel, CMSignature,
    GroupDescriptor) checks them in its own ``__init__`` and then calls this
    one.  Assigning to a field afterwards raises AttributeError.  Equality
    and hash are by value over the tuple of the fields, in slot order, and
    only against the same class, and the repr lists the fields.  FFElement
    and IntPoly, built on every field or polynomial operation, keep a faster
    hand-written ``__init__``.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            values = dict(zip(names, args))
            values.update(kwargs)
            if len(values) != len(args) + len(kwargs) or values.keys() != set(names):
                fields = f"{self.__class__.__qualname__}({', '.join(names)})"
                raise TypeError(f"{fields} got {len(args)} positional and the keywords {sorted(kwargs)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls):
        get = operator.attrgetter(*cls.__slots__)
        # the slot values as a tuple: attrgetter returns a bare value for one name
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda record: (get(record),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):  # copy and pickle through __init__, not setattr
        return self.__class__, self._values(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class FiniteField(Record):
    """GF(p^k) presented as GF(p)[t] modulo the canonical irreducible;
    modulus is the monic ascending coefficient tuple, of length k + 1."""

    __slots__ = ("p", "k", "modulus")

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
    return FiniteField(p, k, _canonical_modulus(p, k))


@lru_cache(maxsize=None)
def _frobenius_rows(field: FiniteField) -> tuple:
    """The matrix over GF(p) of the linear map x -> x^p on the basis t^j, by
    rows: column j is t^(pj), so x = sum c_j t^j goes to sum c_j t^(pj)."""
    p, f, k = field.p, field.modulus, field.k
    tp = _int_powmod(_int_rem_monic_mod((0, 1), f, p), p, f, p)
    cols, c = [], (1,)
    for _ in range(k):
        cols.append(c + (0,) * (k - len(c)))
        c = _int_rem_monic_mod(_int_mul_mod(c, tp, p), f, p)
    return tuple(zip(*cols))


class FFElement(Record):
    """An element of a FiniteField in the polynomial basis (ascending)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)

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

    def _padded(self, coeffs) -> "FFElement":
        """The element with the kernel's trimmed coefficient tuple."""
        return FFElement(self.field, coeffs + (0,) * (self.field.k - len(coeffs)))

    def __mul__(self, other):
        self._check(other)
        field = self.field
        c = _int_mul_mod(self.coeffs, other.coeffs, field.p)
        if len(c) > field.k:  # degree k or more: reduce by the modulus
            c = _int_rem_monic_mod(c, field.modulus, field.p)
        return self._padded(c)

    def inverse(self) -> "FFElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        # t * x = 1 (mod the modulus) from g = s * modulus + t * x with g = 1
        return self._padded(_int_ext_gcd(self.field.modulus, self.coeffs, self.field.p)[2])

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        base = self.inverse() if e < 0 else self
        return power(base, abs(e), operator.mul, self.field.one())

    def frobenius(self, j: int = 1) -> "FFElement":
        """x^(p^j): j steps of the field's cached GF(p)-linear map x -> x^p."""
        p, c, rows = self.field.p, self.coeffs, _frobenius_rows(self.field)
        for _ in range(j):
            c = tuple(sum(map(operator.mul, row, c)) % p for row in rows)
        return FFElement(self.field, c)

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
