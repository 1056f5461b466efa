from itertools import product

import pytest

from frobsplit.finfield import (
    IS_PRIME_LIMIT,
    CompositeModulus,
    DivisionByZero,
    FieldMismatch,
    FiniteField,
    Overflow,
    _int_is_irreducible,
    frobenius_orbit,
    is_prime,
    make_field,
    minimal_polynomial,
    subfield_degree,
)


def brute_force_irreducible_quadratics(p):
    """All monic irreducible quadratics over GF(p), found by root search."""
    out = []
    for b in range(p):
        for c in range(p):
            if all((x * x + b * x + c) % p for x in range(p)):
                out.append((c, b, 1))
    return out


def test_prime_field_modulus():
    f = make_field(3, 1)
    assert f.modulus == (0, 1)
    assert f.q == 3


def test_canonical_modulus_f9_is_least_irreducible():
    quads = brute_force_irreducible_quadratics(3)
    assert len(quads) == 3
    assert min(quads) == (1, 0, 1)  # t^2 + 1
    assert make_field(3, 2).modulus == (1, 0, 1)


def test_canonical_modulus_f16_gcd_check():
    f = make_field(2, 4)
    mod = f.modulus
    assert len(mod) == 5 and mod[-1] == 1
    # exhaustive check: no element of GF(16) built on this modulus has a
    # factorisation witness, i.e. t^16 - t kills every element and the
    # modulus has no roots in GF(2) or GF(4)-patterns of low degree
    for x in f.elements():
        assert x ** 16 == x
    # no linear factor over GF(2)
    for r in (0, 1):
        assert sum(c * r**i for i, c in enumerate(mod)) % 2 != 0
    # irreducible means the generator has full degree
    t = f.element([0, 1])
    assert subfield_degree(t) == 4


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rabin_test_on_the_int_kernel(p):
    # degree 1: x is reduced mod f before it is compared with x^p mod f
    assert all(_int_is_irreducible((c, 1), p) for c in range(p))
    quads = {f for f in product(range(p), range(p), [1]) if _int_is_irreducible(f, p)}
    assert quads == set(brute_force_irreducible_quadratics(p))


@pytest.mark.parametrize(
    "p,k,modulus",
    [
        (5, 6, (1, 0, 0, 0, 1, 1, 1)),
        (7, 4, (1, 0, 0, 1, 1)),
        (13, 4, (1, 0, 0, 1, 1)),
        (31, 4, (1, 0, 0, 1, 1)),
        (1009, 2, (1, 9, 1)),
    ],
)
def test_canonical_modulus_pinned(p, k, modulus):
    # values from the search that also scanned every zero constant term
    assert make_field(p, k).modulus == modulus


def test_make_field_is_deterministic():
    assert make_field(5, 3).modulus == make_field(5, 3).modulus
    assert make_field(5, 3) is make_field(5, 3)


def test_make_field_rejects_composite_and_overflow():
    with pytest.raises(CompositeModulus):
        make_field(6, 1)
    with pytest.raises(Overflow):
        make_field(2, 64)


def test_field_laws_small_fields():
    for p, k in [(3, 2), (2, 4), (5, 1)]:
        f = make_field(p, k)
        xs = list(f.elements())
        one = f.one()
        for x in xs:
            if not x.is_zero():
                assert x * x.inverse() == one
                assert x ** (f.q - 1) == one


def test_u_squared_is_minus_one_in_f9():
    f9 = make_field(3, 2)
    u = f9.element([0, 1])
    assert u * u == f9.scalar(-1) == f9.scalar(2)


def test_division_by_zero_and_mismatch():
    f9 = make_field(3, 2)
    f3 = make_field(3, 1)
    u = f9.element([0, 1])
    with pytest.raises(DivisionByZero):
        u / f9.zero()
    with pytest.raises(FieldMismatch):
        u + f3.one()  # type: ignore[operator]
    # a field object equal in value to the cached one still mixes with it
    copy = FiniteField(3, 2, f9.modulus)
    assert copy is not f9
    assert u * copy.element([0, 1]) == u * u
    with pytest.raises(FieldMismatch):
        u * FiniteField(3, 2, (2, 1, 1)).element([0, 1])  # another GF(9)


def test_frobenius_orbit_examples():
    f9 = make_field(3, 2)
    for c in range(3):
        assert frobenius_orbit(f9.scalar(c)) == [f9.scalar(c)]
    u = f9.element([0, 1])
    assert frobenius_orbit(u) == [u, u ** 3]
    assert u ** 3 == f9.element([0, 2])  # u^3 = -u since u^2 = -1


@pytest.mark.parametrize("ell", [2, 3])
def test_generator_orbit_length_four(ell):
    f = make_field(ell, 4)
    # brute force: find a multiplicative generator, check orbit length 4
    order = f.q - 1
    for x in f.elements():
        if x.is_zero():
            continue
        if all(x ** (order // r) != f.one() for r in {2, 3, 5, 7, 11, 13} if order % r == 0):
            assert len(frobenius_orbit(x)) == 4
            break
    else:
        pytest.fail("no generator found")


def test_minimal_polynomial_examples():
    f9 = make_field(3, 2)
    assert minimal_polynomial(f9.zero()) == (0, 1)
    u = f9.element([0, 1])
    assert minimal_polynomial(u) == (1, 0, 1)  # its own modulus t^2+1
    # any generator of GF(8)* has an irreducible cubic minimal polynomial,
    # verified by substitution
    f8 = make_field(2, 3)
    for x in f8.elements():
        if x.is_zero() or x == f8.one():
            continue
        if len(frobenius_orbit(x)) == 3:
            m = minimal_polynomial(x)
            assert len(m) == 4 and m[-1] == 1
            acc = f8.zero()
            for i, c in enumerate(m):
                acc = acc + f8.scalar(c) * x**i
            assert acc.is_zero()
            break


def test_minimal_polynomial_evaluates_to_zero_everywhere():
    for p, k in [(3, 2), (2, 4), (5, 2)]:
        f = make_field(p, k)
        for x in f.elements():
            m = minimal_polynomial(x)
            assert len(m) - 1 == len(frobenius_orbit(x))
            acc = f.zero()
            for i, c in enumerate(m):
                acc = acc + f.scalar(c) * x**i
            assert acc.is_zero()


def test_subfield_degree_examples():
    f9 = make_field(3, 2)
    assert subfield_degree(f9.one()) == 1
    u = f9.element([0, 1])
    assert subfield_degree(u) == 2
    f81 = make_field(3, 4)
    small = [x for x in f81.elements() if not x.is_zero() and subfield_degree(x) <= 2]
    assert len(small) == 8  # GF(9)* inside GF(81)*


def test_subfield_counts_by_divisor():
    for p, k in [(2, 4), (3, 2), (2, 6)]:
        f = make_field(p, k)
        for d in range(1, k + 1):
            if k % d:
                continue
            count = sum(1 for x in f.elements() if subfield_degree(x) in _divisors(d))
            assert count == p**d


def _divisors(d):
    return {e for e in range(1, d + 1) if d % e == 0}


def test_is_prime_on_the_least_strong_pseudoprimes():
    # the least strong pseudoprime to the twelve prime bases up to 37, and to
    # the thirteen up to 41; is_prime is exact below the second
    psi12, psi13 = 318665857834031151167461, IS_PRIME_LIMIT
    assert psi12 == 399165290221 * 798330580441 and not is_prime(psi12)
    assert psi13 == 1287836182261 * 2575672364521
    assert is_prime(2**61 - 1) and is_prime(1000000007) and not is_prime(998244353 * 1000000007)


def test_is_prime_equals_trial_division_below_ten_thousand():
    assert [n for n in range(10**4) if is_prime(n)] == [
        n for n in range(2, 10**4) if all(n % d for d in range(2, int(n**0.5) + 1))
    ]
