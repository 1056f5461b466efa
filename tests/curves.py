"""Frobenius polynomials of genus-2 curves by counting points: known answers
for the Weil analysis.

For y^2 = f(x) with f of degree 5, squarefree mod an odd prime p, the curve
has one point at infinity, so it has N_k = p^k + 1 + S_k points over GF(p^k),
where S_k sums the quadratic character of f(x) over x in GF(p^k).  The
Frobenius roots alpha_1..alpha_4 of the Jacobian have power sums
s_k = p^k + 1 - N_k = -S_k, and the characteristic polynomial of Frobenius is

    t^4 - s_1 t^3 + ((s_1^2 - s_2)/2) t^2 - p s_1 t + p^2.

GF(p^2) is GF(p)[u] with u^2 = n, n a nonsquare, and an element of GF(p^2)
is a square iff its norm c^2 - n d^2 is a square mod p.  The count is naive:
p^2 evaluations of f, which is what makes it independent of the analysis.
"""

from frobsplit.intpoly import IntPoly, factor_mod


def _quadratic_character(p):
    """chi[x] for x in [0, p): 0, 1 on the nonzero squares, -1 elsewhere."""
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, p):
        chi[x * x % p] = 1
    return chi


def is_good_prime(f, p) -> bool:
    """p is odd, and f (ascending ints of degree 5) keeps its degree and is
    squarefree mod p."""
    if p == 2 or f[-1] % p == 0:
        return False
    return all(m == 1 for _, m in factor_mod(f, p)[1])


def character_sums(f, p):
    """(S_1, S_2): the quadratic character of f(x) summed over GF(p) and over
    GF(p^2), for an odd prime p."""
    chi = _quadratic_character(p)
    n = chi.index(-1)
    top = f[::-1]
    s1 = s2 = 0
    for a in range(p):
        c = 0
        for coef in top:
            c = (c * a + coef) % p
        s1 += chi[c]
        s2 += c != 0  # every element of GF(p) is a square in GF(p^2)
        for b in range(1, p):
            # Horner in GF(p^2): (c + d u) <- (c + d u)(a + b u) + coef
            c = d = 0
            for coef in top:
                c, d = (c * a + n * d * b + coef) % p, (c * b + d * a) % p
            s2 += chi[(c * c - n * d * d) % p]
    return s1, s2


def frobenius_polynomial(f, p) -> IntPoly:
    """The characteristic polynomial of Frobenius on the Jacobian of
    y^2 = f(x) over GF(p), f ascending ints of degree 5, p a good prime."""
    s1, s2 = (-s for s in character_sums(f, p))
    return IntPoly.make([p * p, -p * s1, (s1 * s1 - s2) // 2, -s1, 1])
