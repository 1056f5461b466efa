"""Test helpers for factorisation over Z.

``hensel_pair_linear`` is the Hensel lift that gains one power of p per
step, which the quadratic lift in ``intpoly._hensel_pair`` replaced; it
stays here as the oracle that the quadratic lift must equal.  The
Swinnerton-Dyer type Weil polynomials t^g h(t + q/t), h the minimal
polynomial of a sum of square roots of primes, are irreducible over Z while
every factor modulo a prime has small degree: the worst case for
recombination.  ``random_real_factor`` draws one factor of a real
transform h for q, and ``real_cyclotomic`` is the real-cyclotomic factor it
may draw, computed from the cyclotomic polynomial by the real transform.
"""

from math import isqrt

from frobsplit.finfield import (
    _int_divmod_monic_mod,
    _int_divmod_with_inv,
    _int_ext_gcd,
    _int_mod,
    _int_mul_mod,
    _int_sub_mod,
)
from frobsplit.intpoly import IntPoly, try_divide
from frobsplit.weil import real_weil_transform

P = IntPoly.make


def hensel_pair_linear(f, g, h, p, e):
    """Lift f = g*h from mod p to mod p^e (all monic, gcd(g,h)=1 mod p), one
    power of p per step: each step solves u*h + v*g = (f - g*h)/p^k mod p."""
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


def swinnerton_dyer(primes) -> IntPoly:
    """The minimal polynomial of sum(sqrt p) over the given primes, of degree
    2^len(primes): h <- h(x - sqrt p) h(x + sqrt p), one prime at a time."""
    h = P([0, 1])
    for p in primes:
        # h(x + s) = A(x) + s B(x) with s^2 = p, so the product is A^2 - p B^2
        a, b = P([]), P([])
        shift = P([1])  # (x + s)^j as A_j + s B_j
        shift_s = P([])
        for c in h.coeffs:
            a, b = a + shift.scale(c), b + shift_s.scale(c)
            shift, shift_s = shift * P([0, 1]) + shift_s.scale(p), shift_s * P([0, 1]) + shift
        h = a * a - (b * b).scale(p)
    return h


def weil_from_real(h: IntPoly, q: int) -> IntPoly:
    """t^g h(t + q/t) for h of degree g: sum_j h_j t^(g-j) (t^2 + q)^j."""
    g = h.degree
    out = P([])
    for j, c in enumerate(h.coeffs):
        out = out + (P([0] * (g - j) + [1]) * P([q, 0, 1]) ** j).scale(c)
    return out


def cyclotomic(n: int) -> IntPoly:
    """Phi_n = (t^n - 1) / prod_(d | n, d < n) Phi_d, by exact division."""
    f = P([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            f = try_divide(f, cyclotomic(d))
    return f


def real_cyclotomic(n: int, s: int) -> IntPoly:
    """s^m Psi_n(y/s), Psi_n the minimal polynomial of 2 cos(2 pi/n), of
    degree m, for n >= 3: Phi_n(t) = t^m Psi_n(t + 1/t), the real transform
    for q = 1.  Its roots 2 s cos(2 pi k/n) lie in [-2s, 2s]."""
    c = real_weil_transform(cyclotomic(n), 1).coeffs
    return P(x * s ** (len(c) - 1 - j) for j, x in enumerate(c))


def random_real_factor(rng, q: int) -> IntPoly:
    """A factor of a real transform for q: y - a, a real quadratic, the
    boundary y -+ 2s or y^2 - 4q, or a real-cyclotomic, scaled by s when
    q = s^2 (roots outside [-2 sqrt q, 2 sqrt q] are screened later)."""
    s = isqrt(q)
    kind = rng.randrange(4)
    if kind == 0:
        return P([-rng.randint(-2 * s, 2 * s), 1])
    if kind == 1:
        return P([rng.randint(-3 * q, 3 * q), rng.randint(-2 * s, 2 * s), 1])
    if kind == 2:
        return P([rng.choice([-2 * s, 2 * s]), 1]) if s * s == q else P([-4 * q, 0, 1])
    n = rng.choice([3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 20, 24])
    return real_cyclotomic(n, s if s * s == q and rng.random() < 0.5 else 1)
