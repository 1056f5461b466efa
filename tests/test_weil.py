import collections
import itertools
import random
import sys
import time
from fractions import Fraction
from math import comb, isqrt

import pytest

from frobsplit import intpoly, weil
from frobsplit.cli import _default_aux_primes
from frobsplit.finfield import IS_PRIME_LIMIT, is_prime, make_field
from frobsplit.intpoly import IntPoly, NotMonic, factor_mod, factor_over_Z
from frobsplit.weil import (
    BadAuxPrime,
    Certificate,
    CMSignature,
    InconsistentSignature,
    OddDegree,
    RootBoundViolation,
    SymmetryViolation,
    WeilPoly,
    _is_binomial_pair,
    _prime_power,
    analyze,
    non_special,
    ordinary_test,
    real_weil_transform,
    simplicity_certificate,
    weil_validate,
)
from curves import frobenius_polynomial, is_good_prime
from modpoly_split import ModPoly, ZeroConstantTerm
from oracles import (
    NonIntegralDual,
    analyze_factors_by_zassenhaus,
    degree_shape_mod,
    dual_polynomial,
    dual_rational,
    simplicity_certificate_by_shape,
    weil_validate_by_squarefree_gcd,
)
from zassenhaus_oracles import random_real_factor, swinnerton_dyer, weil_from_real

P = IntPoly.make


def test_validate_accepts_ordinary_quadratic():
    w = weil_validate(P([3, -1, 1]), 3)
    assert (-1) ** 2 - 4 * 3 < 0  # complex roots of absolute value sqrt(3)
    assert (w.p, w.a, w.g) == (3, 1, 1)


def test_validate_rejects_out_of_bound_real_roots():
    with pytest.raises(RootBoundViolation):
        weil_validate(P([3, -5, 1]), 3)  # root near 5 exceeds 2*sqrt(3)


def test_validate_accepts_repeated_complex_roots():
    weil_validate(P([9, 0, 6, 0, 1]), 3)  # (t^2+3)^2


def test_validate_accepts_boundary_real_roots():
    weil_validate(P([-3, 0, 1]) ** 2, 3)  # roots +-sqrt(3), each doubled
    weil_validate(P([-2, 1]) ** 2 * P([-2, 1]) ** 2, 4)  # (t-2)^4 over q=4
    # boundary pair mixed with an interior complex pair over q = 4
    weil_validate(P([-2, 1]) ** 2 * P([2, 1]) ** 2 * P([4, 3, 1]), 4)


def test_validate_never_crashes_on_random_monic_even_inputs():
    from frobsplit.weil import NotMonic, OddDegree

    rng = random.Random(314159)
    accepted = 0
    for _ in range(300):
        q = rng.choice([2, 3, 4, 5, 9])
        deg = rng.choice([2, 4, 6])
        coeffs = [rng.randrange(-3 * q, 3 * q + 1) for _ in range(deg)] + [1]
        f = P(coeffs)
        try:
            w = weil_validate(f, q)
        except (NotMonic, OddDegree, SymmetryViolation, RootBoundViolation):
            continue
        accepted += 1
        # accepted polynomials really satisfy the coefficient symmetry
        g = w.g
        for i in range(g + 1):
            assert f.coeffs[i] == q ** (g - i) * f.coeffs[2 * g - i]
    assert accepted > 0


def _outcome(validate, f: IntPoly, q: int):
    try:
        return validate(f, q)
    except ValueError as exc:
        return type(exc), str(exc)


def _differential_case(rng):
    """A seeded product of powers of Weil quadratics t^2 - a t + q, with a up
    to 3 past 2 sqrt q on either side (a = +-2s gives the boundary piece
    (t -+ s)^2 when q = s^2; a past the bound gives real roots off the
    circle), sometimes with a boundary piece t -+ s or t^2 - q to the power
    1, 2 or 4, or a factor over a real quadratic with any discriminant."""
    q = rng.choice([2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 49])
    s, amax = isqrt(q), isqrt(4 * q)
    pieces = [P([q, -rng.randint(-amax - 3, amax + 3), 1]) for _ in range(rng.randint(1, 3))]
    f = P([1])
    for g in pieces:
        f = f * g ** rng.randint(1, 3)
    if rng.random() < 0.5:
        boundary = [P([-s, 1]), P([s, 1])] if s * s == q else [P([-q, 0, 1])]
        f = f * rng.choice(boundary) ** rng.choice([1, 2, 4])
    if rng.random() < 0.3:
        f = f * weil_from_real(P([rng.randint(-3 * q, 3 * q), rng.randint(-amax - 2, amax + 2), 1]), q)
    return f, q


def _validate_like_the_squarefree_gcd_oracle(rng, cases):
    kinds = collections.Counter()
    for _ in range(cases):
        f, q = _differential_case(rng)
        got = _outcome(weil_validate, f, q)
        assert got == _outcome(weil_validate_by_squarefree_gcd, f, q), (f, q)
        if isinstance(got, tuple):
            kinds[got[0].__name__] += 1
        else:
            a, b = weil._eval_at_2sqrtq(got.h, q, +1)  # h(2 sqrt q) h(-2 sqrt q) = a^2 - q b^2
            kinds["accepted" if a * a - q * b * b else "accepted on the boundary"] += 1
    return kinds


KINDS = {"accepted", "accepted on the boundary", "RootBoundViolation", "SymmetryViolation", "OddDegree"}


def test_validate_equals_the_squarefree_gcd_oracle():
    kinds = _validate_like_the_squarefree_gcd_oracle(random.Random(3501), 1000)
    assert set(kinds) == KINDS, kinds


@pytest.mark.slow
def test_validate_equals_the_squarefree_gcd_oracle_on_a_wide_sweep():
    kinds = _validate_like_the_squarefree_gcd_oracle(random.Random(3502), 20000)
    assert set(kinds) == KINDS, kinds


def test_validate_and_analyze_run_one_remainder_sequence_and_no_factor_over_Z(monkeypatch):
    """A seeded product of four Weil quadratics over q = 13, through
    weil_validate and analyze.  h is a product of four linear factors y - a
    with |a| <= 2 sqrt(13), so analyze's Hasse-interval scan divides out all
    of them and factor_over_Z never runs: the Sturm chain of weil_validate
    is the one remainder sequence.  Through factor_over_Z the same input
    ran a second sequence (the squarefree gcd), made one try_divide (the
    squarefree quotient), and its prime screen walked 3, 5, 7 and 11 before
    it used 13."""
    counts = collections.Counter()

    def count(module, name, key, callers=None):
        original = getattr(module, name)

        def counted(*args):
            if callers is None or sys._getframe(1).f_code.co_name in callers:
                counts[key] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    count(weil, "_sturm_chain", "sequences")
    count(intpoly, "int_poly_gcd", "sequences")
    count(intpoly, "try_divide", "factor_over_Z divisions", {"factor_over_Z"})
    count(intpoly, "_int_gcd", "screen gcds", {"_auxiliary_primes", "_split_mod"})
    count(weil, "factor_over_Z", "factor_over_Z calls")
    q = 13
    f = P([1])
    for a in random.Random(1).sample(range(-7, 8), 4):
        f = f * P([q, -a, 1])
    rep = analyze(weil_validate(f, q), aux_primes=_default_aux_primes(q))
    assert rep.d == 1 and len(rep.factors) == 4
    assert counts == {"sequences": 1}
    assert not hasattr(weil, "int_poly_gcd")
    assert next(intpoly._auxiliary_primes(rep.weil.h))[0] == 13


def test_validate_symmetry_and_shape_errors():
    with pytest.raises(SymmetryViolation):
        weil_validate(P([-3, 0, 1]), 3)  # constant must be +q^g
    with pytest.raises(OddDegree):
        weil_validate(P([1, 1]), 3)
    with pytest.raises(NotMonic):
        weil_validate(P([3, 0, 2]), 3)
    with pytest.raises(ValueError):
        weil_validate(P([6, 0, 1]), 6)  # q must be a prime power


def test_validate_symmetry_catches_middle_indices():
    # degree 4 with a_1 != q * a_3
    with pytest.raises(SymmetryViolation) as exc:
        weil_validate(P([9, 1, 0, 2, 1]), 3)
    assert exc.value.index == 1


def test_real_weil_transform_examples():
    assert real_weil_transform(P([3, -1, 1]), 3) == P([-1, 1])
    assert real_weil_transform(P([9, 0, 6, 0, 1]), 3) == P([0, 0, 1])
    assert real_weil_transform(P([7, 0, 1]), 7) == P([0, 1])
    rng = random.Random(2207)
    for _ in range(100):
        q = rng.choice([2, 3, 4, 5, 9, 27])
        h = P([rng.randint(-50, 50) for _ in range(rng.randint(1, 10))] + [1])
        assert real_weil_transform(weil_from_real(h, q), q) == h, (h, q)


def test_ordinary_test_examples():
    assert ordinary_test(weil_validate(P([3, -1, 1]), 3))
    assert not ordinary_test(weil_validate(P([9, 0, 6, 0, 1]), 3))
    assert not ordinary_test(weil_validate(P([3, 0, 1]), 3))


def test_dual_polynomial_examples():
    assert dual_polynomial(P([-1, 1]), 3) == P([-3, 1])
    assert dual_polynomial(P([3, -1, 1]), 3) == P([3, -1, 1])  # self-dual
    assert dual_polynomial(P([5, -2, 1]), 5) == P([5, -2, 1])
    with pytest.raises(ZeroConstantTerm):
        dual_polynomial(P([0, 1]), 3)
    with pytest.raises(NonIntegralDual):
        dual_polynomial(P([2, 0, 1]), 3)  # roots +-i*sqrt(2), dual not integral


def test_dual_rational_is_an_involution():
    rng = random.Random(4096)
    for _ in range(100):
        q = rng.choice([2, 3, 5, 7, 9])
        coeffs = [rng.randrange(-30, 31) for _ in range(3)] + [1]
        if coeffs[0] == 0:
            coeffs[0] = 1
        once = dual_rational(coeffs, q)
        twice = dual_rational(once, q)
        assert twice == tuple(Fraction(c) for c in coeffs)


def test_dual_rational_reduces_to_the_dual_over_gf_ell():
    """The certificate reduces the rational dual mod ell; it equals the dual
    taken over GF(ell) whenever g(0) is a unit mod ell."""
    rng = random.Random(4097)
    for _ in range(100):
        ell = rng.choice([5, 7, 11])
        q = rng.choice([c for c in (2, 3, 4, 9, 25) if c % ell])
        g = [rng.randrange(1, ell)] + [rng.randrange(ell) for _ in range(rng.randint(0, 4))] + [1]
        field = make_field(ell, 1)
        expected = ModPoly.from_ints(field, g).dual(field.scalar(q))
        got = tuple(c.numerator * pow(c.denominator, -1, ell) % ell for c in dual_rational(g, q))
        assert got == tuple(c.lift() for c in expected.coeffs), (g, q, ell)


def test_validate_and_analyze_build_the_real_transform_once(monkeypatch):
    """weil_validate keeps h on the WeilPoly; analyze and every certificate
    read it there instead of rebuilding it from f."""
    calls = []

    def counted(f, q):
        calls.append((f, q))
        return real_weil_transform(f, q)

    monkeypatch.setattr(weil, "real_weil_transform", counted)
    f = P([25, 5, 3, 1, 1])
    w = weil_validate(f, 5)
    aux = _default_aux_primes(5)
    rep = analyze(w, aux_primes=aux)
    assert len(aux) == 5 and len(rep.certificates) > len(aux)
    assert w.h == real_weil_transform(f, 5) and calls == [(f, 5)]


def test_analyze_square_prime_field():
    w = weil_validate(P([9, 0, 6, 0, 1]), 3)
    rep = analyze(w, aux_primes=(2, 5, 7))
    assert rep.d == 2
    assert rep.root == P([3, 0, 1])
    assert rep.factors[0].poly == P([3, 0, 1]) and rep.factors[0].multiplicity == 1
    assert rep.prime_field
    assert (rep.factors[0].e, rep.factors[0].d_y) == (2, 1)
    assert rep.isogeny_shape == "Y^2"
    assert rep.conclusion is Certificate.SELF_PRODUCT
    # every consulted auxiliary prime is inconclusive: f is a square mod all
    assert all(
        rec.status is Certificate.UNKNOWN for rec in rep.certificates if rec.ell is not None
    )


def test_analyze_simple_ordinary():
    w = weil_validate(P([3, -1, 1]), 3)
    rep = analyze(w, aux_primes=(5, 7))
    assert rep.d == 1 and rep.root == w.f
    assert rep.factors[0].d_y == 1 and rep.factors[0].e == 1
    assert rep.conclusion is Certificate.SIMPLE
    assert "commutative" in rep.endomorphism_note


def test_analyze_two_factor_split_with_duality():
    f = P([3, -1, 1]) * P([3, 1, 1])
    w = weil_validate(f, 3)
    rep = analyze(w, aux_primes=())
    assert rep.d == 1
    assert len(rep.factors) == 2
    assert all(c.e == 1 and c.d_y == 1 for c in rep.factors)
    # both quadratics are t^2 -+ t + q: fixed points of the duality
    assert rep.self_dual == (0, 1)
    assert rep.isogeny_shape == "Y x Y"


def test_analyze_unresolved_constraints_over_extension_field():
    # q = 9 and a non-ordinary square: neither shortcut applies
    f = P([9, 0, 1]) ** 2  # (t^2+9)^2 over q=9
    w = weil_validate(f, 9)
    assert (w.p, w.a) == (3, 2)
    rep = analyze(w)
    assert rep.d == 2 and not rep.prime_field and not rep.ordinary
    c = rep.factors[0]
    assert c.e is None and c.d_y is None
    assert (2, 1) in c.candidates and (1, 2) in c.candidates
    assert "unresolved" in rep.endomorphism_note


def test_simplicity_certificate_examples():
    w = weil_validate(P([3, -1, 1]), 3)
    assert simplicity_certificate(w, 5) is Certificate.UNKNOWN
    assert simplicity_certificate(w, 7) is Certificate.SIMPLE
    w2 = weil_validate(P([3, 0, 1]), 3)
    assert simplicity_certificate(w2, 5) is Certificate.SIMPLE  # -3 nonsquare mod 5
    assert pow(2, 2, 5) != 5 - 3 and pow(1, 2, 5) != 5 - 3
    w4 = weil_validate(P([9, 0, 6, 0, 1]), 3)
    for ell in (2, 5, 7, 11, 13):
        assert simplicity_certificate(w4, ell) is Certificate.UNKNOWN
    with pytest.raises(BadAuxPrime):
        simplicity_certificate(w, 3)
    with pytest.raises(BadAuxPrime):
        simplicity_certificate(w, 4)


def test_simplicity_certificate_dual_pair_pattern():
    # frozen search result: irreducible quartic over q=3 whose mod-7
    # reduction splits into two dual-exchanged irreducible quadratics
    f = P([9, -6, 1, -2, 1])
    w = weil_validate(f, 3)
    assert len(factor_over_Z(f)) == 1
    _, factors = factor_mod(f.coeffs, 7)
    assert len(factors) == 2
    (g1, m1), (g2, m2) = factors
    assert m1 == m2 == 1 and len(g1) == len(g2) == 3
    # the dual over Q reduced mod 7: its denominator is g1(0), a unit mod 7
    dual = dual_rational(g1, 3)
    assert tuple(c.numerator * pow(c.denominator, -1, 7) % 7 for c in dual) == g2 and g1 != g2
    assert simplicity_certificate(w, 7) is Certificate.SIMPLE


def certificate_by_factor_mod(w, ell):
    """The certificate from the complete factorisation of f mod ell, with no
    reading of the degree shape."""
    _, factors = factor_mod(w.f.coeffs, ell)
    if len(factors) == 1 and factors[0][1] == 1:
        return Certificate.SIMPLE
    if len(factors) == 2:
        (g1, m1), (g2, m2) = factors
        if m1 == m2 == 1 and len(g1) == len(g2) and len(g1) % 2 == 1 and g1 != g2:
            dual = tuple(c.numerator * pow(c.denominator, -1, ell) % ell for c in dual_rational(g1, w.q))
            if dual == g2:
                return Certificate.SIMPLE
    return Certificate.UNKNOWN


def seeded_weil_batch(rng):
    """Products and powers of Weil quadratics, validated random quartics
    alone and times a quadratic, two degree-16 Swinnerton-Dyer types and a
    frozen dual-pair quartic, as WeilPoly."""
    batch = [weil_validate(P([9, -6, 1, -2, 1]), 3)]
    batch += [weil_validate(weil_from_real(swinnerton_dyer((2, 3, 5)), q), q) for q in (17, 19)]
    while len(batch) < 120:
        q = rng.choice([3, 5, 7, 11, 13])
        quads = [P([q, -a, 1]) for a in range(-isqrt(4 * q - 1), isqrt(4 * q - 1) + 1)]
        a, b = rng.randrange(-2 * q, 2 * q + 1), rng.randrange(-3 * q, 3 * q + 1)
        quartic = P([q * q, q * a, b, a, 1])
        kind = rng.randrange(3)
        if kind == 0:
            f = P([1])
            for g in rng.sample(quads, rng.randint(1, 4)):
                f = f * g
            f = f ** rng.choice([1, 1, 2])
        else:
            f = quartic * (rng.choice(quads) if kind == 2 else P([1]))
        try:
            batch.append(weil_validate(f, q))
        except ValueError:
            continue
    return batch


def test_simplicity_certificate_equals_the_factor_mod_reference():
    rng = random.Random(1616)
    dual_pairs = simple = 0
    for w in seeded_weil_batch(rng):
        for ell in (ell for ell in range(2, 24) if is_prime(ell) and w.q % ell):
            got = simplicity_certificate(w, ell)
            assert got is certificate_by_factor_mod(w, ell), (w.f, w.q, ell)
            simple += got is Certificate.SIMPLE
            dual_pairs += got is Certificate.SIMPLE and len(factor_mod(w.f.coeffs, ell)[1]) == 2
    assert simple > 100 and dual_pairs > 20


def test_swinnerton_dyer_certificate_runs_no_equal_degree_split(monkeypatch):
    """Every factor of this degree-16 polynomial mod a prime has degree at
    most 4, so its real transform h is reducible mod every prime and one
    Rabin test on h decides each certificate."""

    def refuse(*args, **kwargs):
        raise AssertionError("equal-degree split")

    w = weil_validate(weil_from_real(swinnerton_dyer((2, 3, 5)), 17), 17)
    monkeypatch.setattr(intpoly, "_int_equal_degree", refuse)
    for ell in (2, 3, 5, 7, 11, 13, 19, 23):
        assert simplicity_certificate(w, ell) is Certificate.UNKNOWN


def test_a_product_of_weil_quadratics_runs_no_hensel_step_and_no_equal_degree_split(monkeypatch):
    """h is a product of four linear factors y - a with |a| <= 2 sqrt(q), so
    analyze's Hasse-interval scan divides all of them out and factor_over_Z
    is never called.  Through the Hensel tree these eight items made 24
    _hensel_pair and 56 _int_equal_degree calls; through factor_over_Z with
    Newton's iteration, none."""
    calls = {"_hensel_pair": 0, "_int_equal_degree": 0, "factor_over_Z": 0}
    for name in calls:
        module = weil if name == "factor_over_Z" else intpoly

        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    rng = random.Random(34)
    for q in (5, 7, 11, 13, 17, 19, 23, 29):
        amax = isqrt(4 * q - 1)
        quadratics = [P([q, -a, 1]) for a in rng.sample(range(-amax, amax + 1), 4)]
        f = quadratics[0] * quadratics[1] * quadratics[2] * quadratics[3]
        rep = analyze(weil_validate(f, q), aux_primes=_default_aux_primes(q))
        assert sorted(c.poly.coeffs for c in rep.factors) == sorted(g.coeffs for g in quadratics), (f, q)
    assert calls == {"_hensel_pair": 0, "_int_equal_degree": 0, "factor_over_Z": 0}


# q on both sides of analyze's scan gate: 2 isqrt(4q) + 1 integers in the
# Hasse interval against 16 per degree of h (1009 is inside from degree 8)
GATE_QS = (5, 13, 31, 32, 1009, 10007, 2**31 - 1, 3**40)


def _inside_the_gate(h: IntPoly, q: int) -> bool:
    return 2 * isqrt(4 * q) + 1 <= 16 * h.degree


def _linear_factors(rng, q: int, k: int) -> IntPoly:
    """prod (y - a) over k distinct a in the Hasse interval."""
    amax = isqrt(4 * q)
    h = P([1])
    for a in rng.sample(range(-amax, amax + 1), k):
        h = h * P([-a, 1])
    return h


def _analyze_oracle_batch(rng):
    """[(kind, WeilPoly)]: products and powers of Weil quadratics, the
    boundary factors y -+ 2s, the factor y (a = 0), linear factors times
    random real factors, and Swinnerton-Dyer types times linear factors."""
    batch = []

    def add(kind, h, q):
        batch.append((kind, weil_validate(weil_from_real(h, q), q)))

    for q in GATE_QS:
        for k, d in ((2, 1), (4, 1), (8, 1), (2, 2), (4, 2), (1, 3)):
            add("quadratics", _linear_factors(rng, q, k) ** d, q)
        add("a = 0", P([0, 1]) ** rng.randint(1, 3) * _linear_factors(rng, q, rng.randint(0, 3)), q)
    for q in (4, 9, 25, 49):
        s = isqrt(q)
        for _ in range(3):
            h = P([-2 * s, 1]) ** rng.randint(0, 2) * P([2 * s, 1]) ** rng.randint(1, 2)
            add("boundary", h * _linear_factors(rng, q, rng.randint(0, 3)), q)
    for q in GATE_QS + (4, 9, 25, 49):
        done = 0
        while done < 3:
            h = _linear_factors(rng, q, rng.randint(1, 3))
            for _ in range(rng.randint(1, 2)):
                h = h * random_real_factor(rng, q)
            if h.degree > 8 or all(k.degree == 1 for k, _ in factor_over_Z(h)):
                continue
            try:
                add("real factors", h, q)
                done += 1
            except RootBoundViolation:
                pass
    for primes, q in itertools.product(((2, 3), (2, 3, 5)), (17, 31, 1009, 2**31 - 1)):
        add("swinnerton-dyer", swinnerton_dyer(primes) * _linear_factors(rng, q, rng.randint(0, 2)), q)
    return batch


def test_analyze_factors_equal_the_zassenhaus_oracle():
    """analyze divides out the integer roots of h by a scan of the Hasse
    interval before factor_over_Z sees the rest; its factors, each
    multiplicity times d, are those of factor_over_Z on the whole h."""
    seen = collections.Counter()
    for kind, w in _analyze_oracle_batch(random.Random(38)):
        rep = analyze(w)
        got = tuple((c.poly, c.multiplicity * rep.d) for c in rep.factors)
        assert got == analyze_factors_by_zassenhaus(w), (kind, w.h, w.q)
        seen[kind] += 1
        seen["inside the gate" if _inside_the_gate(w.h, w.q) else "past the gate"] += 1
        seen["d > 1"] += rep.d > 1
    assert min(seen.values()) >= 8 and len(seen) == 8, seen


def test_analyze_scans_the_hasse_interval_only_inside_the_gate(monkeypatch):
    """The scan evaluates the rest of h at the 2 isqrt(4q) + 1 integers of
    [-2 sqrt q, 2 sqrt q], stopping once the rest is constant, and runs only
    when they are at most 16 per degree of h.  At q = 1009 there are 127: a
    split h of degree 8 is inside the gate and never reaches factor_over_Z;
    one of degree 7 is past it, so analyze evaluates nothing and
    factor_over_Z finds every root.  A root-free h inside the gate is
    evaluated at every integer of the interval."""
    calls = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    count(IntPoly, "eval")
    count(weil, "factor_over_Z")
    rng = random.Random(3801)
    cases = [(_linear_factors(rng, 1009, 8), 1009), (_linear_factors(rng, 1009, 7), 1009)]
    cases += [(_linear_factors(rng, q, 4) ** 2, q) for q in (10007, 2**31 - 1, 3**40)]
    cases += [(swinnerton_dyer((2, 3, 5)), 17)]
    seen = []
    for h, q in cases:
        w = weil_validate(weil_from_real(h, q), q)
        calls.clear()
        rep = analyze(w)
        seen.append((h.degree, _inside_the_gate(h, q), calls["eval"], calls["factor_over_Z"]))
        assert tuple((c.poly, c.multiplicity * rep.d) for c in rep.factors) == analyze_factors_by_zassenhaus(w)
    split_scan = seen[0][2]
    assert 8 <= split_scan <= 127
    assert seen == [(8, True, split_scan, 0), (7, False, 0, 1)] + [(8, False, 0, 1)] * 3 + [(8, True, 17, 1)]


def _weil_poly(h: IntPoly, q: int) -> WeilPoly:
    """t^g h(t + q/t) as a WeilPoly, unvalidated: the closed form holds for
    any monic h, so the sweeps reach shapes that validated inputs rarely show."""
    return WeilPoly(weil_from_real(h, q), q, *_prime_power(q), h)


def _sweep_closed_form_against_the_shape_oracle(hs, qs, ells):
    """Assert simplicity_certificate equals the degree-shape oracle on every
    (h, q, ell) key; return the SIMPLE branches seen, as (ell == 2, shape of
    f mod ell is irreducible)."""
    branches = set()
    for h in hs:
        for q in qs:
            w = _weil_poly(h, q)
            for ell in ells:
                if q % ell == 0:
                    continue
                got = simplicity_certificate(w, ell)
                assert got is simplicity_certificate_by_shape(w, ell), (h, q, ell)
                if got is Certificate.SIMPLE:
                    branches.add((ell == 2, degree_shape_mod(w.f.coeffs, ell) == [(w.f.degree, 1)]))
    return branches


def _small_real_transforms(bound, max_degree):
    return [
        P(list(low) + [1])
        for g in range(1, max_degree + 1)
        for low in itertools.product(range(-bound, bound + 1), repeat=g)
    ]


def _seeded_real_transforms(rng, count, bound):
    return [P([rng.randint(-bound, bound) for _ in range(rng.randint(4, 7))] + [1]) for _ in range(count)]


SWEEP_QS = (3, 4, 5, 9, 25)


def test_closed_form_certificate_equals_the_shape_oracle():
    """Every monic h of degree <= 3 with coefficients in [-3, 3] and a seeded
    batch of degree 4-7, at every prime ell <= 13 not dividing q.  The keys
    include ell = 2 with h_0 even, g = 1, and h = y^2 - 4q, whose f is the
    square (t^2 - q)^2.  No h of degree <= 3 gives a dual pair mod 2, which
    needs g even and h_1 even; y^4 + y^3 + 1 is the least one that does."""
    hs = _small_real_transforms(3, 3) + _seeded_real_transforms(random.Random(2301), 40, 9)
    hs += [P([-4 * q, 0, 1]) for q in SWEEP_QS] + [P([1, 0, 0, 1, 1])]
    branches = _sweep_closed_form_against_the_shape_oracle(hs, SWEEP_QS, (2, 3, 5, 7, 11, 13))
    # both SIMPLE branches, the irreducible f and the dual pair, at ell = 2 and at odd ell
    assert branches == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.slow
def test_closed_form_certificate_equals_the_shape_oracle_on_a_wide_sweep():
    hs = _small_real_transforms(4, 3) + _seeded_real_transforms(random.Random(2302), 300, 30)
    qs = SWEEP_QS + (2, 7, 8, 11, 16, 27, 49, 121, 1009)
    ells = tuple(ell for ell in range(2, 38) if is_prime(ell))
    branches = _sweep_closed_form_against_the_shape_oracle(hs, qs, ells)
    assert branches == {(True, True), (True, False), (False, True), (False, False)}


def test_closed_form_certificate_edge_cases():
    # g = 1: f = t^2 - a t + q is irreducible mod ell iff a^2 - 4q is a nonsquare
    w = _weil_poly(P([-1, 1]), 3)  # f = t^2 - t + 3, discriminant -11
    assert [simplicity_certificate(w, ell) for ell in (2, 5, 7, 11)] == [
        Certificate.SIMPLE,  # t^2 + t + 1 is irreducible mod 2
        Certificate.UNKNOWN,  # -11 = 4 = 2^2 mod 5
        Certificate.SIMPLE,  # -11 = 3 is a nonsquare mod 7
        Certificate.UNKNOWN,  # -11 = 0 mod 11: a repeated root
    ]
    # ell = 2 with h_0 even: beta = 0 mod 2 and f = (t + 1)^(2g) mod 2
    assert simplicity_certificate(_weil_poly(P([0, 1]), 3), 2) is Certificate.UNKNOWN
    assert simplicity_certificate(_weil_poly(P([2, 0, 1]), 5), 2) is Certificate.UNKNOWN
    # h = y^2 - 4q: the norm A^2 - q B^2 is 0, and f = (t^2 - q)^2
    for q in (3, 5, 7):
        w = _weil_poly(P([-4 * q, 0, 1]), q)
        assert w.f == P([-q, 0, 1]) ** 2
        for ell in (ell for ell in (2, 3, 5, 7, 11, 13) if q % ell):
            assert simplicity_certificate(w, ell) is Certificate.UNKNOWN


def test_reducible_weil_polynomials_have_no_certificate():
    """Every factor over Z of a validated f is self-dual, so f mod ell is a
    product of self-dual pieces: neither irreducible nor a dual pair.  The
    skip in analyze rests on this."""
    reducible = 0
    for w in seeded_weil_batch(random.Random(1616)):
        factors = factor_over_Z(w.f)
        if len(factors) == 1 and factors[0][1] == 1:
            continue
        reducible += 1
        for ell in (ell for ell in range(2, 24) if is_prime(ell) and w.q % ell):
            assert simplicity_certificate_by_shape(w, ell) is Certificate.UNKNOWN, (w.f, w.q, ell)
    assert reducible > 50


def test_analyze_runs_no_certificate_on_a_reducible_f(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simplicity_certificate called")

    monkeypatch.setattr(weil, "simplicity_certificate", refuse)
    w = weil_validate(P([9, 0, 6, 0, 1]), 3)  # (t^2 + 3)^2
    rep = analyze(w, aux_primes=(2, 5, 7))
    assert [(r.ell, r.status, r.detail) for r in rep.certificates if r.ell is not None] == [
        (ell, Certificate.UNKNOWN, f"f mod {ell}") for ell in (2, 5, 7)
    ]
    # the auxiliary primes are still checked, in order
    for bad in ((5, 4), (5, 3)):
        with pytest.raises(BadAuxPrime):
            analyze(w, aux_primes=bad)


def test_certificate_runs_no_factorisation_mod_ell(monkeypatch):
    """The closed form answers with one Rabin test on h and one Legendre
    symbol: no distinct-degree or equal-degree split, and no factor_mod."""
    items = [
        (weil_validate(weil_from_real(swinnerton_dyer((2, 3, 5)), 17), 17), (2, 3, 5, 7, 11)),
        (weil_validate(weil_from_real(swinnerton_dyer((2, 3, 5, 7)), 17), 17), (2, 3, 5, 7, 11)),
        (weil_validate(P([9, -6, 1, -2, 1]), 3), (2, 5, 7)),
    ]
    expected = [[simplicity_certificate_by_shape(w, ell) for ell in ells] for w, ells in items]
    assert Certificate.SIMPLE in expected[2]

    def refuse(*args, **kwargs):
        raise AssertionError("factorisation mod ell")

    for name in ("_int_distinct_degree", "_int_equal_degree", "factor_mod"):
        monkeypatch.setattr(intpoly, name, refuse)
    assert [[simplicity_certificate(w, ell) for ell in ells] for w, ells in items] == expected


def test_certificate_never_fires_on_power_structures():
    rng = random.Random(8)
    for _ in range(25):
        q = rng.choice([3, 5, 7])
        a = rng.choice([x for x in range(-3, 4) if x % q != 0 and x * x < 4 * q])
        g = P([q, -a, 1])
        d = rng.choice([2, 3])
        w = weil_validate(g**d, q)
        for ell in (2, 11, 13):
            if q % ell == 0:
                continue
            assert simplicity_certificate(w, ell) is not Certificate.SIMPLE


def test_certificate_simple_implies_irreducible_over_Z():
    rng = random.Random(21)
    for _ in range(30):
        q = rng.choice([3, 5])
        coeffs = [q * q, q * rng.randrange(-2, 3), rng.randrange(-6, 7), rng.randrange(-2, 3), 1]
        coeffs[1] = q * coeffs[3]
        f = P(coeffs)
        try:
            w = weil_validate(f, q)
        except Exception:
            continue
        for ell in (2, 7, 11):
            if simplicity_certificate(w, ell) is Certificate.SIMPLE:
                assert len(factor_over_Z(f)) == 1 and factor_over_Z(f)[0][1] == 1
                break


def test_analyze_recovers_powers_of_ordinary_quadratics():
    rng = random.Random(777)
    for _ in range(50):
        q = rng.choice([3, 5, 7, 11, 13])
        candidates = [x for x in range(-6, 7) if x % q != 0 and x * x < 4 * q]
        a = rng.choice(candidates)
        g = P([q, -a, 1])
        d = rng.choice([2, 3])
        w = weil_validate(g**d, q)
        rep = analyze(w)
        assert (rep.root, rep.d) == (g, d)


def cyclotomic(n: int) -> IntPoly:
    """Phi_n, by dividing t^n - 1 by Phi_d for the proper divisors d of n."""
    f = P([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            f = intpoly.try_divide(f, cyclotomic(d))
    return f


def scaled_cyclotomic(n: int, s: int) -> IntPoly:
    """s^phi(n) Phi_n(t/s): its roots s*zeta have absolute value sqrt(s^2),
    and its real transform is the scaled real-cyclotomic s^(phi/2) Psi_n(y/s)."""
    c = cyclotomic(n).coeffs
    return P(x * s ** (len(c) - 1 - j) for j, x in enumerate(c))


def analyze_batch(rng):
    """Validated Weil polynomials shaped like the benchmark batch (products of
    2-6 distinct Weil quadratics, powers g^d, degree-16 and 32 Swinnerton-Dyer
    types), the boundary factors t -+ s and t^2 - q, and scaled cyclotomics."""
    sd = [((2, 3, 5), 17), ((2, 3, 5), 19), ((2, 3, 5, 7), 17)]
    fs = [(weil_from_real(swinnerton_dyer(primes), q), q) for primes, q in sd]
    fs += [
        (P([-3, 1]) ** 2 * P([9, 1, 1]), 9),
        (P([3, 1]) ** 4, 9),
        (P([-2, 1]) ** 2 * P([2, 1]) ** 2, 4),
        (P([-3, 0, 1]) ** 2, 3),
        (P([-2, 0, 1]) ** 2 * P([2, 0, 1]), 2),
    ]
    for n in (3, 4, 5, 7, 8, 9, 12, 15, 16, 20):
        s = rng.choice([2, 3, 5])
        f = scaled_cyclotomic(n, s) ** rng.choice([1, 1, 2])
        fs.append((f * rng.choice([P([1]), P([-s, 1]) ** 2, P([s * s, s, 1])]), s * s))
    for _ in range(60):
        q = rng.choice([5, 7, 9, 11, 13, 17, 25, 31])
        amax = isqrt(4 * q - 1)
        quads = [P([q, -a, 1]) for a in rng.sample(range(-amax, amax + 1), rng.randint(2, 6))]
        if rng.random() < 0.2:
            quads, d = quads[: rng.randint(1, 2)], rng.choice([2, 3])
        else:
            d = 1
        f = P([1])
        for g in quads:
            f = f * g
        fs.append((f**d, q))
    return [weil_validate(f, q) for f, q in fs]


def test_analyze_equals_the_power_structure_then_factor_over_Z():
    """The factors read off the real transform h are those of the d-th root
    of f found by max_power_structure, and every one of them is self-dual."""
    seen_d = set()
    for w in analyze_batch(random.Random(2208)):
        root, d = intpoly.max_power_structure(w.f)
        rep = analyze(w)
        assert (rep.d, rep.root) == (d, root), (w.f, w.q)
        assert tuple((c.poly, c.multiplicity) for c in rep.factors) == factor_over_Z(root), (w.f, w.q)
        assert rep.dual_pairs == () and rep.self_dual == tuple(range(len(rep.factors)))
        assert all(dual_polynomial(c.poly, w.q) == c.poly for c in rep.factors)
        seen_d.add(d)
    assert seen_d == {1, 2, 3, 4}


def test_analyze_trial_divides_little_on_the_degree_32_swinnerton_dyer_item(monkeypatch):
    """Factoring the real transform h, not f, keeps the recombination's
    trial divisions few: 240 when f itself was factored."""
    w = weil_validate(weil_from_real(swinnerton_dyer((2, 3, 5, 7)), 17), 17)
    calls = []
    original = intpoly.try_divide

    def counted(f, g):
        calls.append(g)
        return original(f, g)

    monkeypatch.setattr(intpoly, "try_divide", counted)
    rep = analyze(w, aux_primes=(2, 3, 5, 7, 11))
    assert rep.d == 1 and len(rep.factors) == 1 and rep.factors[0].poly == w.f
    assert 0 < len(calls) <= 24


def test_non_special_examples():
    assert "i" in non_special(CMSignature(5, ((2, 3),)))
    assert "i" in non_special(CMSignature(4, ((2, 2),)))
    assert "ii" in non_special(CMSignature(6, ((1, 5),)))
    assert non_special(CMSignature(6, ((3, 3),))) == ()


def test_non_special_prime_rank_always_certified():
    rng = random.Random(5150)
    for r in (2, 3, 5, 7):
        for _ in range(5):
            a = rng.randrange(0, r + 1)
            sig = CMSignature(r, ((a, r - a),))
            assert "i" in non_special(sig)


def test_non_special_condition_iii():
    # r = 8, values 1 and 3 are both <= r/2 and coprime to 8
    sig = CMSignature(8, ((1, 7), (3, 5)))
    conds = non_special(sig)
    assert "iii" in conds and "ii" in conds


def test_non_special_condition_iv_binomial_exclusion():
    # (2, 3): gcd 1; neither (2,3) nor (3,2) should escape... C(3,1)=3, C(3,2)=3
    # (2,3) is NOT of the form (C(i,j-1), C(i,j)): check by the search itself
    sig = CMSignature(5, ((2, 3),))
    assert "iv" in non_special(sig)
    # (1, 5) = (C(5,0), C(5,1)) and (5, 1) = (C(5,4), C(5,5)): excluded both ways
    sig2 = CMSignature(6, ((1, 5),))
    assert "iv" not in non_special(sig2)


def test_binomial_pair_walk_equals_the_search_over_every_row_and_column():
    """The old definition tried every (i, j) with i <= max(a, b, 1) + 1; its
    answer for all a, b <= 60 is read off one pass over those rows, keeping
    the first row of each pair."""
    first_row = {}
    for i in range(62):
        for j in range(1, i + 2):
            first_row.setdefault((comb(i, j - 1), comb(i, j)), i)
    for a in range(61):
        for b in range(61):
            assert _is_binomial_pair(a, b) == (first_row.get((a, b), 99) <= max(a, b, 1) + 1), (a, b)


def test_condition_iv_answers_at_rank_ten_thousand():
    started = time.perf_counter()
    assert non_special(CMSignature(10**4, ((4999, 5001),))) == ("iv",)
    assert time.perf_counter() - started < 0.1


def test_signature_validation():
    with pytest.raises(InconsistentSignature):
        CMSignature(6, ((1, 4),))
    with pytest.raises(InconsistentSignature):
        CMSignature(3, ((-1, 4),))


def _prime_power_by_trial_division(q):
    """(p, a) with q = p^a, or None, by trial division."""
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    a = 0
    while q % p == 0:
        q //= p
        a += 1
    return (p, a) if q == 1 else None


def test_prime_power_equals_trial_division_up_to_ten_to_the_five():
    for q in range(2, 10**5 + 1):
        try:
            got = _prime_power(q)
        except ValueError:
            got = None
        assert got == _prime_power_by_trial_division(q), q


def test_prime_power_is_immediate_on_large_q():
    assert _prime_power(998244353**3) == (998244353, 3)
    assert _prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert _prime_power(2**100) == (2, 100)
    for q in (998244353 * 1000000007, 10**30, 1):
        with pytest.raises(ValueError, match="prime power"):
            _prime_power(q)
    # bases at or above the exact range of is_prime are refused, not guessed
    for q in (IS_PRIME_LIMIT, (2**89 - 1) ** 2, 998244353**2 * 1000000007):
        with pytest.raises(ValueError, match="IS_PRIME_LIMIT"):
            _prime_power(q)


# -- known-answer Jacobians: y^2 = f(x), deg f = 5, by point counts -----------

X5_PLUS_1 = [1, 0, 0, 0, 0, 1]
X5_PLUS_X_PLUS_1 = [1, 1, 0, 0, 0, 1]


def _assert_known_answer_jacobians(bound):
    """y^2 = x^5 + 1 has CM by Q(zeta_5): at a good prime p its Jacobian is
    ordinary and simple when p = 1 (mod 5), has f = t^4 + p^2, irreducible,
    when p = 2 or 3, and has f = (t^2 + p)^2 when p = 4 (mod 5).  At every
    auxiliary prime the closed form equals the shape oracle, and
    weil_validate accepts the counts of y^2 = x^5 + x + 1 as well."""
    seen = set()
    for p in (p for p in range(3, bound) if is_prime(p)):
        for curve in (X5_PLUS_1, X5_PLUS_X_PLUS_1):
            if not is_good_prime(curve, p):
                continue
            w = weil_validate(frobenius_polynomial(curve, p), p)
            aux = _default_aux_primes(p)
            for ell in aux:
                assert simplicity_certificate(w, ell) is simplicity_certificate_by_shape(w, ell), (curve, p, ell)
            if curve is X5_PLUS_1:
                expected = Certificate.SELF_PRODUCT if p % 5 == 4 else Certificate.SIMPLE
                assert analyze(w, aux).conclusion is expected, p
                seen.add(p % 5)
    assert seen == {1, 2, 3, 4}


def _listed_point_counts(curve, p):
    """(N_1, N_2) of y^2 = curve(x): every affine solution (x, y) over GF(p)
    and over GF(p^2) listed, plus the one point at infinity."""
    n = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)

    def mul(x, y):  # in GF(p)[u]/(u^2 - n), x = (a, b) meaning a + b u
        return (x[0] * y[0] + n * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p

    def value(x):
        out = (0, 0)
        for c in reversed(curve):
            out = mul(out, x)
            out = ((out[0] + c) % p, out[1])
        return out

    counts = []
    for field in ([(a, 0) for a in range(p)], [(a, b) for a in range(p) for b in range(p)]):
        squares = [mul(y, y) for y in field]
        counts.append(1 + sum(squares.count(value(x)) for x in field))
    return tuple(counts)


def test_point_counts_equal_a_listed_count():
    checked = 0
    for p in (3, 7, 11, 13):
        for curve in (X5_PLUS_1, X5_PLUS_X_PLUS_1):
            if not is_good_prime(curve, p):
                continue
            n1, n2 = _listed_point_counts(curve, p)
            s1, s2 = p + 1 - n1, p * p + 1 - n2
            assert frobenius_polynomial(curve, p) == P([p * p, -p * s1, (s1 * s1 - s2) // 2, -s1, 1]), (curve, p)
            checked += 1
    assert checked == 6


def test_known_answer_jacobians():
    _assert_known_answer_jacobians(100)


@pytest.mark.slow
def test_known_answer_jacobians_to_500():
    _assert_known_answer_jacobians(500)
