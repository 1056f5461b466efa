import random
from itertools import product

import pytest

from frobsplit import intpoly
from frobsplit.finfield import FFElement, make_field
from frobsplit.intpoly import (
    DegreeNotDivisible,
    IntPoly,
    ModPoly,
    NotMonic,
    ZeroPolynomial,
    dth_root,
    factor_mod,
    factor_over_Z,
    is_irreducible_mod,
    max_power_structure,
    poly_from_string,
    reduce_mod,
)
from modpoly_split import factor_mod_reference, sort_key

P = IntPoly.make


def reassemble(unit, factors):
    field = factors[0][0].field
    acc = ModPoly.make(field, [unit])
    for g, m in factors:
        for _ in range(m):
            acc = acc * g
    return acc


def exhaustive_factor_quartic_mod(coeffs, p):
    """Oracle: factor a monic quartic over GF(p) by brute root/quadratic search."""
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
            if rest.eval(x).is_zero():
                lin = ModPoly.from_ints(field, [-r, 1])
                rest = rest // lin
                found.append(lin)
                changed = True
                break
    # split remaining quartic/quadratic into irreducible quadratics
    while rest.degree >= 2:
        hit = False
        for b in range(p):
            for c in range(p):
                quad = ModPoly.from_ints(field, [c, b, 1])
                q, r = divmod(rest, quad)
                if r.is_zero():
                    found.append(quad)
                    rest = q
                    hit = True
                    break
            if hit:
                break
        if not hit:
            found.append(rest)
            rest = ModPoly.one(field)
    if rest.degree >= 1:
        found.append(rest)
    return sorted(sort_key(g) for g in found)


def test_reduce_mod_examples():
    assert str(reduce_mod(P([9, 6, 1]), 3)) == "0,0,1"
    f = reduce_mod(P([9, 0, 6, 0, 1]), 5)
    assert [c.lift() for c in f.coeffs] == [4, 0, 1, 0, 1]
    assert reduce_mod(P([1, 0, 3]), 3).degree == 0


def test_reduce_mod_is_multiplicative():
    rng = random.Random(7)
    for _ in range(40):
        ell = rng.choice([3, 5, 7])
        f = P([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 6))])
        g = P([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 6))])
        assert reduce_mod(f * g, ell) == reduce_mod(f, ell) * reduce_mod(g, ell)


def test_factor_mod_irreducible_quadratic():
    f3 = make_field(3, 1)
    f = ModPoly.from_ints(f3, [1, 0, 1])
    # oracle: no roots in GF(3) and degree 2 means irreducible
    assert all(not f.eval(f3.scalar(r)).is_zero() for r in range(3))
    unit, factors = factor_mod(f)
    assert unit == f3.one()
    assert len(factors) == 1 and factors[0][1] == 1
    assert is_irreducible_mod(f)


def test_factor_mod_splits_difference_of_squares():
    f5 = make_field(5, 1)
    f = ModPoly.from_ints(f5, [-1, 0, 1])
    _, factors = factor_mod(f)
    assert len(factors) == 2
    assert all(g.degree == 1 and m == 1 for g, m in factors)
    assert reassemble(f5.one(), factors) == f


def test_factor_mod_against_exhaustive_search_mod7():
    coeffs = [2, 0, 6, 0, 1]  # t^4 + 6t^2 + 2
    f7 = make_field(7, 1)
    f = ModPoly.from_ints(f7, coeffs)
    _, factors = factor_mod(f)
    expanded = sorted(sort_key(g) for g, m in factors for _ in range(m))
    assert expanded == exhaustive_factor_quartic_mod(coeffs, 7)
    assert reassemble(f7.one(), factors) == f


def test_factor_mod_square_multiplicity():
    f2 = make_field(2, 1)
    f = ModPoly.from_ints(f2, [1, 0, 1])  # (t+1)^2 over GF(2)
    _, factors = factor_mod(f)
    assert len(factors) == 1 and factors[0][1] == 2


def test_factor_mod_quartic_collapses_mod_2():
    # t^4 + 6t^2 + 9 reduces to t^4 + 1 = (t+1)^4 over GF(2)
    f2 = make_field(2, 1)
    f = ModPoly.from_ints(f2, [9, 0, 6, 0, 1])
    _, factors = factor_mod(f)
    assert len(factors) == 1
    g, mult = factors[0]
    assert mult == 4 and g.degree == 1


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


def test_factor_mod_rejects_extension_field():
    f9 = make_field(3, 2)
    with pytest.raises(ValueError, match=r"prime field, not GF\(3\^2\)"):
        factor_mod(ModPoly.from_ints(f9, [1, 0, 1]))


def test_factor_mod_deterministic_across_seeds():
    f11 = make_field(11, 1)
    f = ModPoly.from_ints(f11, [3, 1, 4, 1, 5, 9, 1])
    assert factor_mod(f, seed=1) == factor_mod(f, seed=99)


def test_factor_mod_rejects_zero():
    f3 = make_field(3, 1)
    with pytest.raises(ZeroPolynomial):
        factor_mod(ModPoly.make(f3, []))


def test_mod_poly_dual():
    field = make_field(7, 1)
    c = field.scalar(3)
    assert ModPoly.from_ints(field, [2, 1]).dual(c) == ModPoly.from_ints(field, [5, 1])  # root 5 -> 3/5 = 2
    rng = random.Random(9)
    for _ in range(50):
        g = ModPoly.from_ints(field, [rng.randrange(1, 7)] + [rng.randrange(7) for _ in range(rng.randint(0, 5))] + [1])
        assert g.dual(c).dual(c) == g
    with pytest.raises(intpoly.ZeroConstantTerm):
        ModPoly.from_ints(field, [0, 1]).dual(c)


def test_is_irreducible_examples():
    f3 = make_field(3, 1)
    f5 = make_field(5, 1)
    f2 = make_field(2, 1)
    assert is_irreducible_mod(ModPoly.from_ints(f3, [1, 0, 1]))
    assert not is_irreducible_mod(ModPoly.from_ints(f5, [1, 0, 1]))  # roots +-2
    assert (2 * 2) % 5 == 4 == (-1) % 5
    assert is_irreducible_mod(ModPoly.from_ints(f2, [1, 1, 0, 0, 1]))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_irreducible_mod_equals_factorisation(p):
    # every monic polynomial of degree 1-4 over GF(p), Rabin test vs factor_mod
    field = make_field(p, 1)
    for deg in range(1, 5):
        for low in product(range(p), repeat=deg):
            f = ModPoly.from_ints(field, low + (1,))
            _, factors = factor_mod(f)
            expected = len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree == f.degree
            assert is_irreducible_mod(f) == expected, low


def test_is_irreducible_mod_non_monic():
    f7 = make_field(7, 1)
    assert is_irreducible_mod(ModPoly.from_ints(f7, [3, 5]))
    assert is_irreducible_mod(ModPoly.from_ints(f7, [3, 0, 3]))  # 3(t^2 + 1), -1 a non-square
    assert not is_irreducible_mod(ModPoly.from_ints(f7, [1, 0, 3]))  # 3(t^2 + 5) = 3(t - 3)(t + 3)


def test_is_irreducible_mod_rejects_extension_field_and_zero():
    f9 = make_field(3, 2)
    with pytest.raises(ValueError, match=r"prime field, not GF\(3\^2\)"):
        is_irreducible_mod(ModPoly.from_ints(f9, [1, 0, 1]))
    with pytest.raises(ZeroPolynomial):
        is_irreducible_mod(ModPoly.make(make_field(3, 1), []))


def test_is_irreducible_mod_runs_no_factorisation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factor_mod called")

    monkeypatch.setattr(intpoly, "factor_mod", refuse)
    f5 = make_field(5, 1)
    assert is_irreducible_mod(ModPoly.from_ints(f5, [2, 0, 1]))
    assert not is_irreducible_mod(ModPoly.from_ints(f5, [1, 0, 1]))


def test_prime_field_factorisation_runs_on_int_tuples(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("FFElement.__mul__ called")

    quadratics = [P([5, -a, 1]) for a in (-4, -1, 1, 3)]  # Weil polynomials over q = 5
    weil = P([1])
    for g in quadratics:
        weil = weil * g
    f5 = make_field(5, 1)
    monkeypatch.setattr(FFElement, "__mul__", refuse)
    assert factor_mod(ModPoly.from_ints(f5, [4, 0, 0, 0, 1]))[1] == [
        (ModPoly.from_ints(f5, [c, 1]), 1) for c in (1, 2, 3, 4)
    ]
    assert factor_over_Z(weil) == tuple((g, 1) for g in sorted(quadratics, key=lambda g: g.coeffs))
    monkeypatch.undo()
    # GF(p^k) with k >= 2 is left to the reference split: t^2 + 1 splits over GF(9)
    f9 = make_field(3, 2)
    _, factors = factor_mod_reference(ModPoly.from_ints(f9, [1, 0, 1]))
    assert [(g.degree, m) for g, m in factors] == [(1, 1), (1, 1)]


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
            g = reduce_mod(f, ell)
            if g.degree == f.degree and is_irreducible_mod(g):
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
