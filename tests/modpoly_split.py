"""Reference factorisation over any GF(p^k), on ModPoly, for the tests.

The package factors over prime fields only.  This is the complete
squarefree / distinct-degree / Cantor-Zassenhaus split on FFElement
coefficients, kept as the oracle for the dual-pair classification over
GF(ell^2), which the package reads off Frobenius powers and gcds.
"""

import random

from frobsplit.finfield import FiniteField
from frobsplit.groups import mat_charpoly
from frobsplit.intpoly import ModPoly, ZeroPolynomial, mod_gcd


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
    one = ModPoly.one(f.field)
    out = []
    d = f.derivative()
    if d.is_zero():
        for g, m in _squarefree_parts(_pth_root(f)):
            out.append((g, m * f.field.p))
        return out
    c = mod_gcd(f, d)
    w = f // c
    i = 1
    while w != one:
        y = mod_gcd(w, c)
        z = w // y
        if z.degree >= 1:
            out.append((z.monic(), i))
        i += 1
        w, c = y, c // y
    if c != one:
        for g, m in _squarefree_parts(_pth_root(c)):
            out.append((g, m * f.field.p))
    return out


def _distinct_degree(f: ModPoly):
    """[(g, d)]: g the product of the irreducible factors of degree d."""
    field = f.field
    q = field.q
    out = []
    h = ModPoly.x(field)
    x = ModPoly.x(field)
    rest = f
    d = 0
    while rest.degree >= 2 * (d + 1):
        d += 1
        h = h.powmod(q, rest)
        g = mod_gcd(h - x, rest)
        if g.degree >= 1:
            out.append((g, d))
            rest = rest // g
            h = h % rest
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
            g = h.powmod((q**d - 1) // 2, f) - ModPoly.one(field)
        else:
            # char 2: the GF(2)-trace map splits where the power map cannot
            steps = d * field.k
            acc = h % f
            term = h % f
            for _ in range(steps - 1):
                term = (term * term) % f
                acc = acc + term
            g = acc
        g = mod_gcd(g, f)
        if 0 < g.degree < f.degree:
            break
    return _equal_degree(g.monic(), d, rng) + _equal_degree((f // g).monic(), d, rng)


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
    cp = mat_charpoly(y.matrix)
    if mod_gcd(cp, cp.derivative()).degree != 0:
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
    return g2 == g1.frobenius_coeffs().dual(lam) and g1 != g2
