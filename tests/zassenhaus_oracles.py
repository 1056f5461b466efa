"""Test helpers for factorisation over Z.

``hensel_pair_linear`` is the Hensel lift that gains one power of p per
step, which the quadratic lift in ``intpoly._hensel_pair`` replaced; it
stays here as the oracle that the quadratic lift must equal.  The
Swinnerton-Dyer type Weil polynomials t^g h(t + q/t), h the minimal
polynomial of a sum of square roots of primes, are irreducible over Z while
every factor modulo a prime has small degree: the worst case for
recombination.
"""

from frobsplit.finfield import (
    _int_divmod_monic_mod,
    _int_divmod_with_inv,
    _int_ext_gcd,
    _int_mod,
    _int_mul_mod,
    _int_sub_mod,
)
from frobsplit.intpoly import IntPoly

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
