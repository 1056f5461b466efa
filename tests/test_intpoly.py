import random
from itertools import product

import pytest

from frobsplit import finfield, intpoly
from frobsplit.finfield import CompositeModulus, FFElement, _int_gcd, _int_mod, _int_mul_mod, make_field
from frobsplit.intpoly import (
    DegreeNotDivisible,
    IntPoly,
    NotMonic,
    ZeroPolynomial,
    dth_root,
    factor_mod,
    factor_over_Z,
    is_irreducible_mod,
    max_power_structure,
    poly_from_string,
)
from modpoly_split import ModPoly, ZeroConstantTerm, factor_mod_reference, poly_div, poly_divmod, poly_eval, poly_one
from oracles import degree_shape_mod
from zassenhaus_oracles import hensel_pair_linear, swinnerton_dyer, weil_from_real

P = IntPoly.make

# the degree-32 Swinnerton-Dyer type Weil polynomial over q = 17: the largest
# factorisation over Z that the Weil analysis meets
SD32 = weil_from_real(swinnerton_dyer((2, 3, 5, 7)), 17)


def by_degree(g):
    """factor_mod's order on monic int tuples: degree, then coefficients."""
    return len(g), g


def reassemble(unit, factors, p):
    """unit * prod g^m reduced mod p, as an ascending int tuple."""
    acc = P([unit])
    for g, m in factors:
        acc = acc * P(g) ** m
    return P(c % p for c in acc.coeffs).coeffs


def exhaustive_factor_quartic_mod(coeffs, p):
    """Oracle: factor a monic quartic over GF(p) by brute root/quadratic search,
    on ModPoly; the factors come back as sorted monic int tuples."""
    field = make_field(p, 1)
    f = ModPoly.from_ints(field, coeffs)
    found = []
    rest = f
    # strip linear factors
    changed = True
    while changed and rest.degree >= 1:
        changed = False
        for r in range(p):
            x = field.scalar(r)
            if poly_eval(rest, x).is_zero():
                lin = ModPoly.from_ints(field, [-r, 1])
                rest = poly_div(rest, lin)
                found.append(lin)
                changed = True
                break
    # split remaining quartic/quadratic into irreducible quadratics
    while rest.degree >= 2:
        hit = False
        for b in range(p):
            for c in range(p):
                quad = ModPoly.from_ints(field, [c, b, 1])
                q, r = poly_divmod(rest, quad)
                if r.is_zero():
                    found.append(quad)
                    rest = q
                    hit = True
                    break
            if hit:
                break
        if not hit:
            found.append(rest)
            rest = poly_one(field)
    if rest.degree >= 1:
        found.append(rest)
    return sorted((tuple(c.lift() for c in g.coeffs) for g in found), key=by_degree)


def test_factor_mod_reduces_its_input_mod_p():
    assert factor_mod([9, 6, 1], 3) == (1, [((0, 1), 2)])  # t^2
    assert reassemble(*factor_mod([9, 0, 6, 0, 1], 5), 5) == (4, 0, 1, 0, 1)
    assert factor_mod([1, 0, 3], 3) == (1, [])  # the degree drops to 0
    assert factor_mod([-4, 0, 7], 5) == (2, [((3, 0, 1), 1)])  # 2(t^2 - 2), 2 a non-square mod 5
    with pytest.raises(ValueError, match="degree >= 1"):
        is_irreducible_mod([1, 0, 3], 3)


def test_factor_mod_irreducible_quadratic():
    f3 = make_field(3, 1)
    # oracle: no roots in GF(3) and degree 2 means irreducible
    assert all(not poly_eval(ModPoly.from_ints(f3, [1, 0, 1]), f3.scalar(r)).is_zero() for r in range(3))
    unit, factors = factor_mod([1, 0, 1], 3)
    assert unit == 1
    assert factors == [((1, 0, 1), 1)]
    assert is_irreducible_mod([1, 0, 1], 3)


def test_factor_mod_splits_difference_of_squares():
    unit, factors = factor_mod([-1, 0, 1], 5)
    assert len(factors) == 2
    assert all(len(g) == 2 and m == 1 for g, m in factors)
    assert reassemble(unit, factors, 5) == (4, 0, 1)


def test_factor_mod_against_exhaustive_search_mod7():
    coeffs = [2, 0, 6, 0, 1]  # t^4 + 6t^2 + 2
    unit, factors = factor_mod(coeffs, 7)
    expanded = sorted((g for g, m in factors for _ in range(m)), key=by_degree)
    assert expanded == exhaustive_factor_quartic_mod(coeffs, 7)
    assert reassemble(unit, factors, 7) == tuple(coeffs)


def test_factor_mod_square_multiplicity():
    _, factors = factor_mod([1, 0, 1], 2)  # (t+1)^2 over GF(2)
    assert factors == [((1, 1), 2)]


def test_factor_mod_quartic_collapses_mod_2():
    # t^4 + 6t^2 + 9 reduces to t^4 + 1 = (t+1)^4 over GF(2)
    _, factors = factor_mod([9, 0, 6, 0, 1], 2)
    assert len(factors) == 1
    g, mult = factors[0]
    assert mult == 4 and len(g) == 2


def test_factor_over_Z_twelfth_roots_of_unity():
    f = P([-1] + [0] * 11 + [1])  # t^12 - 1
    factors = factor_over_Z(f)
    assert sorted(g.degree for g, _ in factors) == [1, 1, 2, 2, 2, 4]
    assert all(m == 1 for _, m in factors)
    acc = P([1])
    for g, m in factors:
        acc = acc * g**m
    assert acc == f


def test_factor_over_Z_moderate_coefficients():
    a = P([2500, 49, 1])
    b = P([2401, -49, 1])
    c = P([17, 0, 0, 1])
    f = a * b * c
    factors = dict(factor_over_Z(f))
    assert factors == {a: 1, b: 1, c: 1}


def test_factor_mod_extension_field():
    f9 = make_field(3, 2)
    u = f9.element([0, 1])
    # (t - u)(t - u^3) = t^2 + 1 has coefficients in GF(3) but roots in GF(9)
    f = ModPoly.make(f9, [f9.one(), f9.zero(), f9.one()])
    _, factors = factor_mod_reference(f)
    assert len(factors) == 2
    roots = sorted(((-g.coeffs[0]).index()) for g, _ in factors)
    assert roots == sorted([u.index(), (u ** 3).index()])


@pytest.mark.parametrize("p", [9, 1, 0, -3])
def test_factor_mod_rejects_a_modulus_that_is_not_prime(p):
    with pytest.raises(CompositeModulus, match=f"{p} is not prime"):
        factor_mod([1, 0, 1], p)


def test_factor_mod_deterministic_across_seeds():
    f = [3, 1, 4, 1, 5, 9, 1]
    assert factor_mod(f, 11, seed=1) == factor_mod(f, 11, seed=99)


def test_factor_mod_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        factor_mod([], 3)
    with pytest.raises(ZeroPolynomial):
        factor_mod([3, 6], 3)  # zero once reduced


def test_mod_poly_dual():
    """The twisted dual over GF(ell) that the dual-pair reference uses."""
    field = make_field(7, 1)
    c = field.scalar(3)
    assert ModPoly.from_ints(field, [2, 1]).dual(c) == ModPoly.from_ints(field, [5, 1])  # root 5 -> 3/5 = 2
    rng = random.Random(9)
    for _ in range(50):
        g = ModPoly.from_ints(field, [rng.randrange(1, 7)] + [rng.randrange(7) for _ in range(rng.randint(0, 5))] + [1])
        assert g.dual(c).dual(c) == g
    with pytest.raises(ZeroConstantTerm):
        ModPoly.from_ints(field, [0, 1]).dual(c)


def test_is_irreducible_examples():
    assert is_irreducible_mod([1, 0, 1], 3)
    assert not is_irreducible_mod([1, 0, 1], 5)  # roots +-2
    assert (2 * 2) % 5 == 4 == (-1) % 5
    assert is_irreducible_mod([1, 1, 0, 0, 1], 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_irreducible_mod_equals_factorisation(p):
    # every monic polynomial of degree 1-4 over GF(p), Ben-Or test vs factor_mod
    for deg in range(1, 5):
        for low in product(range(p), repeat=deg):
            f = low + (1,)
            _, factors = factor_mod(f, p)
            expected = factors == [(f, 1)]
            assert is_irreducible_mod(f, p) == expected, low


def irreducible_count(p: int, n: int) -> int:
    """Gauss's count of the monic irreducibles of degree n over GF(p):
    (1/n) sum_(d | n) mu(d) p^(n/d)."""

    def mu(d):
        out, r = 1, 2
        while d > 1:
            if d % r == 0:
                d //= r
                if d % r == 0:
                    return 0
                out = -out
            r += 1
        return out

    return sum(mu(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("p,top", [(2, 8), (3, 5), (5, 4), (7, 3)])
def test_is_irreducible_mod_accepts_gauss_count_in_every_degree(p, top):
    for n in range(1, top + 1):
        accepted = sum(is_irreducible_mod(low + (1,), p) for low in product(range(p), repeat=n))
        assert accepted == irreducible_count(p, n), (p, n)


def test_irreducibility_test_stops_at_the_least_factor_degree(monkeypatch):
    """h = swinnerton_dyer((2, 3, 5)) is a product of four quadratics mod 7:
    the test stops at x^(7^2), where a test that checks gcds only at j = 8/r,
    r | 8 prime, builds x^7, ..., x^(7^4) first (4 powers)."""
    powers = []
    powmod = finfield._int_powmod
    monkeypatch.setattr(finfield, "_int_powmod", lambda *args: powers.append(args) or powmod(*args))
    assert not is_irreducible_mod(swinnerton_dyer((2, 3, 5)).coeffs, 7)
    assert len(powers) == 2


def test_is_irreducible_mod_non_monic():
    assert is_irreducible_mod([3, 5], 7)
    assert is_irreducible_mod([3, 0, 3], 7)  # 3(t^2 + 1), -1 a non-square
    assert not is_irreducible_mod([1, 0, 3], 7)  # 3(t^2 + 5) = 3(t - 3)(t + 3)


def test_is_irreducible_mod_rejects_a_composite_modulus_and_zero():
    with pytest.raises(CompositeModulus, match="9 is not prime"):
        is_irreducible_mod([1, 0, 1], 9)
    with pytest.raises(ZeroPolynomial):
        is_irreducible_mod([], 3)


def test_is_irreducible_mod_runs_no_factorisation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factor_mod called")

    monkeypatch.setattr(intpoly, "factor_mod", refuse)
    assert is_irreducible_mod([2, 0, 1], 5)
    assert not is_irreducible_mod([1, 0, 1], 5)


def test_prime_field_factorisation_runs_on_int_tuples(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("FFElement.__mul__ called")

    quadratics = [P([5, -a, 1]) for a in (-4, -1, 1, 3)]  # Weil polynomials over q = 5
    weil = P([1])
    for g in quadratics:
        weil = weil * g
    monkeypatch.setattr(FFElement, "__mul__", refuse)
    assert factor_mod([4, 0, 0, 0, 1], 5)[1] == [((c, 1), 1) for c in (1, 2, 3, 4)]
    assert factor_over_Z(weil) == tuple((g, 1) for g in sorted(quadratics, key=lambda g: g.coeffs))
    monkeypatch.undo()
    # GF(p^k) with k >= 2 is left to the reference split: t^2 + 1 splits over GF(9)
    f9 = make_field(3, 2)
    _, factors = factor_mod_reference(ModPoly.from_ints(f9, [1, 0, 1]))
    assert [(g.degree, m) for g, m in factors] == [(1, 1), (1, 1)]


def mignotte_exponent(f, p):
    """The least e with p^e > 2 * (the Landau-Mignotte bound of f), as
    factor_over_Z lifts to."""
    bound = intpoly._mignotte_bound(f)
    e = 1
    while p**e <= 2 * bound:
        e += 1
    return e


def lift_target(rng, mods, p, e):
    """A monic f mod p^e with f = prod(mods) mod p: the product plus p times
    seeded noise below the leading coefficient."""
    f = (1,)
    for g in mods:
        f = _int_mul_mod(f, g, p)
    return _int_mod([c + p * rng.randrange(p**e) for c in f[:-1]] + [1], p**e)


def random_monic_mod(rng, deg, p):
    return tuple(rng.randrange(p) for _ in range(deg)) + (1,)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_quadratic_hensel_lift_equals_the_linear_lift(p):
    """Every e from 1 to the exponent the degree-32 item needs at p."""
    rng = random.Random(1600 + p)
    e_max = mignotte_exponent(SD32, p)
    assert e_max >= 29
    for e in range(1, e_max + 1):
        g = h = (0, 1)
        while _int_gcd(g, h, p) != (1,):
            g, h = random_monic_mod(rng, rng.randint(1, 6), p), random_monic_mod(rng, rng.randint(1, 6), p)
        f = lift_target(rng, [g, h], p, e)
        lifted = intpoly._hensel_pair(f, g, h, p, e)
        assert lifted == hensel_pair_linear(f, g, h, p, e), (p, e, g, h)
        lg, lh = lifted
        assert _int_mul_mod(lg, lh, p**e) == f and lg[-1] == lh[-1] == 1
        assert (_int_mod(lg, p), _int_mod(lh, p)) == (g, h)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_quadratic_hensel_tree_equals_the_linear_tree(p, monkeypatch):
    """_hensel_multi on seeded products of at least three distinct monic
    irreducibles mod p, and at p = 11 on the degree-32 item itself, whose
    reduction mod 11 is squarefree with ten factors."""
    rng = random.Random(1700 + p)
    e_max = mignotte_exponent(SD32, p)
    cases = []
    for e in [1, 2, e_max] + rng.sample(range(3, e_max), 5):
        mods = []
        while len(mods) < 3:
            mods = [g for g, _ in factor_mod(random_monic_mod(rng, rng.randint(4, 12), p), p)[1]]
        cases.append((lift_target(rng, mods, p, e), mods, e))
    if p == 11:
        unit, factors = factor_mod(SD32.coeffs, p)
        assert unit == 1 and len(factors) == 10 and all(m == 1 for _, m in factors)
        cases.append((_int_mod(SD32.coeffs, p**e_max), [g for g, _ in factors], e_max))
    quadratic = [intpoly._hensel_multi(f, mods, p, e) for f, mods, e in cases]
    monkeypatch.setattr(intpoly, "_hensel_pair", hensel_pair_linear)
    assert quadratic == [intpoly._hensel_multi(f, mods, p, e) for f, mods, e in cases]
    for (f, mods, e), lifted in zip(cases, quadratic):
        assert [_int_mod(g, p) for g in lifted] == mods
        prod_ = (1,)
        for g in lifted:
            prod_ = _int_mul_mod(prod_, g, p**e)
        assert prod_ == f


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_root_lifting_equals_the_hensel_tree_on_the_whole_factor_list(p):
    """Seeded monic f* mod p^e whose squarefree reduction mod p has roots and
    non-linear factors: _split_mod finds both, and the Newton-lifted roots
    with the Hensel-lifted cofactor are, as a set, _hensel_multi's lift of
    the whole mod-p factor list."""
    rng = random.Random(1800 + p)
    e_max = mignotte_exponent(SD32, p)
    for e in [1, 2, e_max] + rng.sample(range(3, e_max), 5):
        mods = []
        while not (any(len(g) == 2 for g in mods) and any(len(g) > 2 for g in mods)):
            mods = sorted({g for g, _ in factor_mod(random_monic_mod(rng, rng.randint(4, 12), p), p)[1]})
        f = lift_target(rng, mods, p, e)
        roots, nonlinear = intpoly._split_mod(_int_mod(f, p), p)
        assert sorted(((-a) % p, 1) for a in roots) == [g for g in mods if len(g) == 2]
        assert sorted(nonlinear) == [g for g in mods if len(g) > 2]
        lifted = intpoly._lift_factors(f, roots, nonlinear, p, e)
        assert len(lifted) == len(mods)
        assert set(lifted) == set(intpoly._hensel_multi(f, mods, p, e)), (p, e, mods)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_degree_shape_mod_equals_the_shape_of_factor_mod(p):
    """Seeded polynomials, some with repeated factors and some with a part
    that is a p-th power (its derivative is zero)."""
    rng = random.Random(1800 + p)

    def rand(deg):
        return P([rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])

    repeated = pth_power = 0
    for _ in range(120):
        kind = rng.randrange(3)
        if kind == 0:
            f = rand(rng.randint(0, 12))
        elif kind == 1:
            f = rand(rng.randint(0, 6)) * rand(rng.randint(1, 3)) ** rng.randint(2, 3)
        else:
            f = rand(rng.randint(0, 4)) * (rand(rng.randint(1, 2)) * rand(rng.randint(0, 2))) ** p
        _, factors = factor_mod(f.coeffs, p)
        assert degree_shape_mod(f.coeffs, p) == sorted((len(g) - 1, m) for g, m in factors), (p, f)
        repeated += any(m > 1 for _, m in factors)
        pth_power += any(m % p == 0 for _, m in factors)
    assert repeated > 40 and pth_power > 20
    assert degree_shape_mod([1, 0, 3], 3) == []  # the degree drops to 0
    f = (P([1, 1, 1]) ** p).coeffs  # a p-th power: the derivative is zero
    assert degree_shape_mod(f, p) == sorted((len(g) - 1, m) for g, m in factor_mod(f, p)[1])


def test_factor_over_Z_perfect_square():
    f = P([9, 0, 6, 0, 1])
    assert factor_over_Z(f) == ((P([3, 0, 1]), 2),)


def test_factor_over_Z_irreducible_quadratic():
    f = P([3, -1, 1])
    assert (-1) ** 2 - 4 * 3 == -11  # negative discriminant, no real roots
    assert factor_over_Z(f) == ((f, 1),)


def test_factor_over_Z_against_bounded_search():
    f = P([9, 0, -2, 0, 1])  # t^4 - 2t^2 + 9
    # oracle: monic quartic splits only as quadratic*quadratic or with a
    # rational root; search both exhaustively with coefficient bounds
    has_root = any(f.eval(r) == 0 for d in (1, 3, 9) for r in (d, -d))
    assert not has_root
    quad_split = None
    for a in range(-20, 21):
        for b in (-9, -3, -1, 1, 3, 9):
            g = P([b, a, 1])
            from frobsplit.intpoly import try_divide

            q = try_divide(f, g)
            if q is not None:
                quad_split = (g, q)
                break
        if quad_split:
            break
    assert quad_split is None
    assert factor_over_Z(f) == ((f, 1),)


def test_factor_over_Z_mixed_multiplicities():
    f = P([3, -1, 1]) ** 2 * P([-1, 1]) * P([1, 1]) ** 3
    factors = dict(factor_over_Z(f))
    assert factors[P([3, -1, 1])] == 2
    assert factors[P([-1, 1])] == 1
    assert factors[P([1, 1])] == 3
    acc = P([1])
    for g, m in factor_over_Z(f):
        acc = acc * g**m
    assert acc == f


def test_factor_over_Z_nonmonic_primitive():
    f = P([1, 5, 6])  # (2t+1)(3t+1)
    factors = factor_over_Z(f)
    assert set(factors) == {(P([1, 2]), 1), (P([1, 3]), 1)}


def test_factor_over_Z_prime_independence():
    rng = random.Random(2024)
    for _ in range(10):
        f = P([rng.randrange(-20, 21) for _ in range(5)] + [1])
        if f.degree < 2:
            continue
        assert factor_over_Z(f, prime_offset=0) == factor_over_Z(f, prime_offset=2)


def test_irreducible_mod_implies_irreducible_over_Z():
    rng = random.Random(555)
    found = 0
    while found < 8:
        f = P([rng.randrange(-15, 16) for _ in range(4)] + [1])
        for ell in (3, 5, 7, 11, 13):
            if f.lc() % ell and is_irreducible_mod(f.coeffs, ell):
                assert len(factor_over_Z(f)) == 1
                found += 1
                break


def test_dth_root_examples():
    assert dth_root(P([9, 0, 6, 0, 1]), 2) == P([3, 0, 1])
    assert dth_root(P([1, 0, 1]), 2) is None
    cube = P([3, -1, 1]) ** 3
    assert dth_root(cube, 3) == P([3, -1, 1])


def test_dth_root_errors():
    with pytest.raises(NotMonic):
        dth_root(P([1, 2]), 1)
    with pytest.raises(DegreeNotDivisible):
        dth_root(P([0, 0, 1]), 3)


def test_dth_root_round_trip_property():
    rng = random.Random(99)
    for _ in range(100):
        deg = rng.randrange(1, 7)
        d = rng.choice([2, 3, 4])
        g = P([rng.randrange(-50, 51) for _ in range(deg)] + [1])
        assert dth_root(g**d, d) == g


def test_max_power_structure():
    assert max_power_structure(P([3, -1, 1])) == (P([3, -1, 1]), 1)
    assert max_power_structure(P([9, 0, 6, 0, 1])) == (P([3, 0, 1]), 2)
    f = P([5, 0, 1]) ** 4
    assert max_power_structure(f) == (P([5, 0, 1]), 4)
    # (t+1)^4 should report d=4, not stop at d=2
    assert max_power_structure(P([1, 1]) ** 4) == (P([1, 1]), 4)


def test_poly_from_string():
    assert poly_from_string("9,0,6,0,1") == P([9, 0, 6, 0, 1])
    assert str(P([9, 0, 6, 0, 1])) == "9,0,6,0,1"
