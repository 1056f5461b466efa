"""The polynomial kernels against sympy on seeded random polynomials.

Covers exact division, the primitive gcd, d-th roots, the power structure,
factorisation over Z, and factorisation and the Rabin irreducibility test
over GF(p) in intpoly, the
Sturm count of roots in (-2 sqrt q, 2 sqrt q) and the factorisation of
Weil polynomials through their real transform in weil, Berkowitz's
characteristic polynomial in groups, and the minimal polynomial over GF(p)
in finfield.
"""

import random
from math import isqrt

import pytest

from frobsplit import intpoly
from frobsplit.finfield import make_field, minimal_polynomial
from frobsplit.intpoly import (
    IntPoly,
    dth_root,
    factor_mod,
    factor_over_Z,
    int_poly_gcd,
    is_irreducible_mod,
    max_power_structure,
    try_divide,
)
from frobsplit.groups import (
    GroupDescriptor,
    _natural_matrix,
    build_anisotropic_torus,
    contains,
    enumerate_group,
    mat_charpoly,
)
from frobsplit.weil import analyze, weil_validate
from modpoly_split import ModPoly, frobenius_coeffs
from oracles import roots_in_open_interval
from zassenhaus_oracles import random_real_factor, swinnerton_dyer, weil_from_real

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
P = IntPoly.make


def to_sympy(f: IntPoly, domain="QQ"):
    return sympy.Poly(list(reversed(f.coeffs)) or [0], X, domain=domain)


def from_sympy(g) -> IntPoly:
    assert all(c.q == 1 for c in g.all_coeffs())
    return P(int(c) for c in reversed(g.all_coeffs()))


def random_poly(rng, deg, bound, monic=False):
    lead = 1 if monic else rng.choice([c for c in range(-bound, bound + 1) if c])
    return P([rng.randint(-bound, bound) for _ in range(deg)] + [lead])


def test_try_divide_against_sympy_div():
    rng = random.Random(61)
    exact = 0
    for _ in range(300):
        g = random_poly(rng, rng.randint(0, 4), 6, monic=rng.random() < 0.3)
        h = random_poly(rng, rng.randint(0, 4), 6)
        for f in (g * h, g * h + P([rng.randint(-2, 2)]), random_poly(rng, rng.randint(0, 7), 9), g * h.scale(3)):
            q, r = to_sympy(f).div(to_sympy(g))
            integral = r.is_zero and all(c.q == 1 for c in q.all_coeffs())
            expected = from_sympy(q) if integral else None
            assert try_divide(f, g) == expected, (f, g)
            exact += integral
    assert exact > 300


def test_int_poly_gcd_against_sympy_gcd():
    rng = random.Random(62)
    nontrivial = 0
    for _ in range(300):
        c = random_poly(rng, rng.randint(0, 3), 5)
        a = random_poly(rng, rng.randint(0, 4), 5) * c
        b = random_poly(rng, rng.randint(0, 4), 5) * c
        if rng.random() < 0.2:
            b = random_poly(rng, rng.randint(0, 5), 5)
        _, g = to_sympy(a, "ZZ").gcd(to_sympy(b, "ZZ")).primitive()
        expected = from_sympy(g)
        if expected.lc() < 0:
            expected = -expected
        assert int_poly_gcd(a, b) == expected, (a, b)
        nontrivial += expected.degree >= 1
    assert nontrivial > 150


def power_structure_by_sympy(f: IntPoly):
    """(g, d) from sympy's factorisation: f is a d-th power iff d divides every
    multiplicity, so the largest d is their gcd."""
    _, factors = to_sympy(f, "ZZ").factor_list()
    d = 0
    for _, e in factors:
        d = sympy.igcd(d, e)
    root = sympy.Poly(1, X, domain="ZZ")
    for g, e in factors:
        root *= g ** (e // d)
    return from_sympy(root), int(d)


def test_dth_root_and_power_structure_against_sympy_factor_list():
    rng = random.Random(63)
    for _ in range(120):
        g = random_poly(rng, rng.randint(1, 4), 5, monic=True)
        d = rng.randint(2, 4)
        power = g**d
        near = power + P([0] * rng.randrange(power.degree) + [rng.choice([-1, 1])])
        for f in (power, near):
            root, e = power_structure_by_sympy(f)
            assert max_power_structure(f) == ((root, e) if e > 1 else (f, 1)), f
            for k in (k for k in range(2, f.degree + 1) if f.degree % k == 0):
                assert dth_root(f, k) == (root ** (e // k) if e % k == 0 else None), (f, k)
        assert dth_root(power, d) is not None


def factor_over_Z_by_sympy(f: IntPoly):
    """sympy's factor_list over ZZ, each factor with positive leading
    coefficient, ordered as factor_over_Z orders them."""
    _, factors = to_sympy(f, "ZZ").factor_list()
    out = []
    for g, e in factors:
        g = from_sympy(g)
        out.append((-g if g.lc() < 0 else g, int(e)))
    return tuple(sorted(out, key=lambda ge: (ge[0].degree, ge[0].coeffs)))


def test_factor_over_Z_against_sympy_factor_list():
    """Seeded products of small factors, some repeated, some non-monic, some
    with the factor x (constant term 0) or a negative constant term, and
    degree-16 Swinnerton-Dyer types alone and times a Weil quadratic; the
    answer is the same for prime_offset 0, 1 and 2."""
    rng = random.Random(68)
    batch = [weil_from_real(swinnerton_dyer((2, 3, 5)), q) for q in (17, 23)]
    batch.append(batch[0] * P([17, -3, 1]))
    while len(batch) < 80:
        f = P([1])
        for _ in range(rng.randint(1, 4)):
            g = random_poly(rng, rng.randint(1, 3), 9, monic=rng.random() < 0.5)
            f = f * g ** rng.choice([1, 1, 1, 2])
        if rng.random() < 0.25:
            f = f * P([0, 1])
        if f.degree <= 12:
            batch.append(f.primitive())
    seen = {"non-monic": 0, "x": 0, "negative constant": 0, "split": 0}
    for f in batch:
        expected = factor_over_Z_by_sympy(f)
        for offset in (0, 1, 2):
            assert factor_over_Z(f, prime_offset=offset) == expected, (f, offset)
        seen["non-monic"] += f.lc() > 1
        seen["x"] += f.coeffs[0] == 0
        seen["negative constant"] += f.coeffs[0] < 0
        seen["split"] += len(expected) >= 3
    assert min(seen.values()) > 10, seen
    assert [len(factor_over_Z(f)) for f in batch[:3]] == [1, 1, 2]


# irreducible over Z, with roots mod many primes: their lifted roots recombine
SPLITTING_QUADRATICS = [P([-d, 0, 1]) for d in (2, 3, 5, 6, 7)] + [P([1, 0, 1]), P([-1, 1, 1]), P([1, 1, 1])]


def root_lifting_sweep(seed, count, max_factors):
    """factor_over_Z against sympy on seeded products of factors of degree
    1-3, some repeated, each batch item times one of SPLITTING_QUADRATICS
    with probability 1/2; returns how many items had a root mod the
    auxiliary prime, and how many a factor of degree >= 2 with a root
    there (lifted roots recombined into a factor irreducible over Z)."""
    rng = random.Random(seed)
    with_roots = recombined = 0
    for _ in range(count):
        f = rng.choice(SPLITTING_QUADRATICS) if rng.random() < 0.5 else P([1])
        for _ in range(rng.randint(1, max_factors)):
            f = f * random_poly(rng, rng.randint(1, 3), 9, monic=rng.random() < 0.7) ** rng.choice([1, 1, 1, 2])
        f = f.primitive()
        if f.degree < 1:
            continue
        expected = factor_over_Z_by_sympy(f)
        for offset in (0, 1):
            assert factor_over_Z(f, prime_offset=offset) == expected, (f, offset)
        sqf = try_divide(f, int_poly_gcd(f, f.derivative())).primitive()
        p = next(intpoly._auxiliary_primes(sqf))[0] if sqf.degree >= 2 else None
        has_root = lambda g: any(g.eval(a) % p == 0 for a in range(p))  # noqa: E731
        with_roots += p is not None and has_root(sqf)
        recombined += p is not None and any(g.degree >= 2 and has_root(g) for g, _ in expected)
    return with_roots, recombined


def test_root_lifting_against_sympy_factor_list():
    """x (x - 15) (x^2 - 2) has disc divisible by 3 and 5, so its auxiliary
    prime is 7, where x^2 - 2 = (x - 3)(x - 4): the two 7-adic square roots
    of 2 are lifted by Newton's iteration and recombine over Z."""
    f = P([0, 1]) * P([-15, 1]) * P([-2, 0, 1])
    assert next(intpoly._auxiliary_primes(f))[0] == 7
    assert factor_over_Z(f) == factor_over_Z_by_sympy(f) == ((P([-15, 1]), 1), (P([0, 1]), 1), (P([-2, 0, 1]), 1))
    with_roots, recombined = root_lifting_sweep(3400, 60, 4)
    assert with_roots > 40 and recombined > 20, (with_roots, recombined)


@pytest.mark.slow
def test_root_lifting_against_sympy_factor_list_wide():
    with_roots, recombined = root_lifting_sweep(3401, 1500, 6)
    assert with_roots > 1200 and recombined > 700, (with_roots, recombined)


def roots_in_open_interval_by_sympy(f: IntPoly, q: int) -> int:
    """Distinct real roots of f in (-2 sqrt q, 2 sqrt q): count_roots on the
    closed interval when its ends are integers, else an exact comparison of
    each real root with the ends."""
    s = isqrt(q)
    g = to_sympy(f)
    if s * s == q:
        return g.count_roots(-2 * s, 2 * s) - (f.eval(-2 * s) == 0) - (f.eval(2 * s) == 0)
    end = 2 * sympy.sqrt(q)
    return sum(1 for x in set(sympy.real_roots(g)) if bool(-end < x) and bool(x < end))


def test_roots_in_open_interval_against_sympy():
    rng = random.Random(64)
    for _ in range(200):
        q = rng.choice([2, 3, 4, 5, 7, 9, 16, 25, 27])
        s = isqrt(q)
        boundary = P([-4 * q, 0, 1])  # roots +-2 sqrt q
        near = [P([-(2 * s + 1), 1]), P([2 * s + 1, 1]), P([-2 * s, 1]), P([-(4 * q + 1), 0, 1])]
        factors = {random_poly(rng, rng.randint(1, 2), 2 * q + 2, monic=True) for _ in range(rng.randint(1, 3))}
        factors |= set(rng.sample([boundary] + near, rng.randint(0, 2)))
        f = P([1])
        for h in factors:
            f = f * h
        f = try_divide(f, int_poly_gcd(f, f.derivative()))  # squarefree
        assert roots_in_open_interval(f, q) == roots_in_open_interval_by_sympy(f, q), (f, q)


@pytest.mark.slow
def test_analyze_against_sympy_factor_list():
    """analyze on seeded Weil polynomials t^g h(t + q/t), h a product of
    powers of random real factors, q prime or a prime power up to 49, or
    1009 and 10007, and g <= 8: each factor with its multiplicity times d is
    sympy's.  The sweep reaches both sides of analyze's scan gate, at most
    16 integers of [-2 sqrt q, 2 sqrt q] per degree of h."""
    rng = random.Random(72)
    qs = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 1009, 10007]
    seen = {"d > 1": 0, "boundary": 0, "degree >= 8": 0, "inside the gate": 0, "past the gate": 0}
    done = 0
    while done < 300:
        q = rng.choice(qs)
        h = P([1])
        for _ in range(rng.randint(1, 4)):
            h = h * random_real_factor(rng, q) ** rng.choice([1, 1, 2, 3])
        if h.degree > 8:
            continue
        f = weil_from_real(h, q)
        try:
            w = weil_validate(f, q)
        except ValueError:
            continue
        rep = analyze(w)
        got = tuple((c.poly, c.multiplicity * rep.d) for c in rep.factors)
        assert got == factor_over_Z_by_sympy(f), (h, q)
        done += 1
        seen["d > 1"] += rep.d > 1
        seen["boundary"] += any(c.poly.degree < 2 or c.poly.coeffs == (-q, 0, 1) for c in rep.factors)
        seen["degree >= 8"] += max(c.poly.degree for c in rep.factors) >= 8
        inside = 2 * isqrt(4 * q) + 1 <= 16 * h.degree
        seen["inside the gate"] += inside
        seen["past the gate"] += not inside
    assert min(seen.values()) > 20, seen


def factor_mod_by_sympy(f, p):
    """sympy's factor_list modulo p, each factor made monic with
    coefficients in [0, p), ordered as factor_mod orders them."""
    _, factors = sympy.Poly(list(reversed(f)), X, modulus=p).factor_list()
    out = []
    for g, e in factors:
        c = [int(a) % p for a in reversed(g.all_coeffs())]
        inv = pow(c[-1], -1, p)
        out.append((tuple(a * inv % p for a in c), e))
    return sorted(out, key=lambda ge: (len(ge[0]), ge[0]))


def test_factor_mod_against_sympy_factor_list():
    rng = random.Random(65)
    repeated = 0
    for _ in range(400):
        p = rng.choice([2, 3, 5, 7, 101])

        def rand(deg):
            return P([rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])

        kind = rng.randrange(3)
        if kind == 0:
            f = rand(rng.randint(1, 12))
        else:  # g^e times a cofactor: a repeated factor, or a p-th power where one fits
            e = p if kind == 2 and p <= 7 else rng.randint(2, 3)
            g = rand(rng.randint(1, min(2, 12 // e)))
            f = rand(rng.randint(0, 12 - e * g.degree)) * g**e
        unit, factors = factor_mod(f.coeffs, p, seed=rng.randrange(4))
        assert unit == f.lc() % p
        assert factors == factor_mod_by_sympy(f.coeffs, p), (p, f)
        repeated += any(e > 1 for _, e in factors)
    assert repeated > 100


def test_is_irreducible_mod_against_sympy():
    rng = random.Random(66)
    verdicts = {True: 0, False: 0}
    for _ in range(500):
        p = rng.choice([2, 3, 5, 7, 101])

        def rand(deg):
            return P([rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])

        kind = rng.randrange(4)
        if kind < 2:
            f = rand(rng.randint(1, 12))
        elif kind == 2:  # a product of two known factors
            g = rand(rng.randint(1, 6))
            f = g * rand(rng.randint(1, 12 - g.degree))
        else:  # a square, irreducible or not, times a unit or a cofactor
            g = rand(rng.randint(1, 6))
            f = g * g * rand(rng.randint(0, 12 - 2 * g.degree))
        expected = sympy.Poly(list(reversed(f.coeffs)), X, modulus=p).is_irreducible
        assert is_irreducible_mod(f.coeffs, p) is expected, (p, f)
        verdicts[expected] += 1
    assert min(verdicts.values()) > 50


def _off_torus(desc):
    """A fixed group element off the torus: a transvection (family C) or the
    cyclic permutation of the orthonormal basis (family A)."""
    field, n = desc.matrix_field, desc.matrix_dim
    one, zero = field.one(), field.zero()
    if desc.family == "C":
        rows = [[one if j == i or (i, j) == (0, n - 1) else zero for j in range(n)] for i in range(n)]
    else:
        rows = [[one if j == (i + 1) % n else zero for j in range(n)] for i in range(n)]
    x = contains(desc, tuple(map(tuple, rows)))
    assert x is not None
    return x


def _charpoly_elements(rng):
    """Seeded elements: a sample of three enumerated small groups, and torus
    elements of four larger ones, alone and times an element off the torus."""
    for spec in [("C", 1, 5), ("C", 1, 7), ("A", 2, 3)]:
        yield from rng.sample(enumerate_group(GroupDescriptor(*spec)), 15)
    for spec in [("C", 3, 7), ("C", 4, 3), ("A", 3, 5), ("A", 4, 3)]:
        desc = GroupDescriptor(*spec)
        torus = build_anisotropic_torus(desc)
        off = _off_torus(desc)
        for _ in range(4):
            t = torus.generators[0] ** rng.randrange(torus.order)
            for g in torus.generators[1:]:
                t = t * g ** rng.randrange(torus.order)
            yield from (t, t * off, off * t * t)


def test_mat_charpoly_against_sympy_charpoly():
    """Family C: the charpoly of the integer matrix, reduced mod ell.  Family
    A: the norm cp * cp^sigma, which is the charpoly of the natural GF(ell)
    matrix."""
    rng = random.Random(67)
    degrees = set()
    for x in _charpoly_elements(rng):
        ell = x.desc.ell
        cp = mat_charpoly(x.matrix)
        if x.desc.family == "A":
            norm = ModPoly.make(x.desc.matrix_field, cp)
            cp = (norm * frobenius_coeffs(norm)).coeffs
        got = tuple(c.lift() for c in cp)
        expected = sympy.Matrix(_natural_matrix(x.desc, x.matrix)).charpoly(X).all_coeffs()
        assert got == tuple(int(c) % ell for c in reversed(expected)), x
        degrees.add(len(got) - 1)
    assert degrees == {2, 4, 6, 8}


def test_minimal_polynomial_against_sympy_charpoly():
    """The charpoly of multiplication by x on GF(p^k), a k x k matrix over
    GF(p) whose column j is x t^j, is minpoly(x)^(k/deg) by sympy, reduced
    mod p, on seeded x in fields of at most 1000 elements."""
    rng = random.Random(71)
    fields = [(2, 1), (2, 3), (2, 4), (2, 6), (2, 9), (3, 2), (3, 4), (3, 6), (5, 3), (7, 3), (31, 2), (997, 1)]
    degrees = set()
    for p, k in fields:
        field = make_field(p, k)
        tpows = [field.from_index(p**j) for j in range(k)]
        for x in [field.zero(), field.one()] + [field.from_index(rng.randrange(field.q)) for _ in range(12)]:
            mp = minimal_polynomial(x)
            deg = len(mp) - 1
            assert k % deg == 0 and mp[-1] == 1, (x, mp)
            mult = [(x * t).coeffs for t in tpows]  # the columns
            cp = sympy.Matrix(k, k, lambda i, j: mult[j][i]).charpoly(X).as_expr()
            expected = sympy.Poly(sympy.Poly(list(reversed(mp)), X).as_expr() ** (k // deg), X, modulus=p)
            assert sympy.Poly(cp, X, modulus=p) == expected, (x, mp)
            degrees.add(deg)
    assert degrees == {1, 2, 3, 4, 6, 9}
