"""Acceptance criteria, one test per criterion.

Each test prints a PASS line once its assertions (exact values, stated
tolerances, runtime budgets) all hold; run with -s or read the captured
output to see the checklist.
"""

import random
import time
from fractions import Fraction

from frobsplit.density import (
    GaloisModel,
    chebotarev_simulate,
    cm_subfield_fraction,
    density_product,
    goursat_verify,
    random_generator_tuples,
)
from frobsplit.groups import (
    GroupDescriptor,
    build_anisotropic_torus,
    classify_element,
    classify_element_oracle,
    enumerate_group,
    group_order,
    normalizer_census,
    regular_torus_count,
    torus_census,
)
from frobsplit.intpoly import IntPoly, dth_root
from frobsplit.weil import (
    Certificate,
    CMSignature,
    analyze,
    non_special,
    simplicity_certificate,
    weil_validate,
)
from oracles import cm_subfield_fraction_exhaustive, dual_rational

P = IntPoly.make


def _ok(num, text, started=None):
    stamp = f" [{time.perf_counter() - started:.2f}s]" if started is not None else ""
    print(f"ACCEPTANCE {num}: PASS - {text}{stamp}")


def _oracle_count(desc, part="full", m=1):
    return sum(1 for x in enumerate_group(desc, part) if classify_element_oracle(x, m))


def test_criterion_1_gl2_f3_classification():
    started = time.perf_counter()
    desc = GroupDescriptor("C", 1, 3)
    count = _oracle_count(desc)
    assert count == 18 and group_order(desc) == 48
    nc = normalizer_census(desc)
    assert (group_order(desc) // nc.normalizer_order) * regular_torus_count(desc) == 18
    assert (48 // 16) * 6 == 18
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _ok(1, "GL2(F3): |J| = 18/48 and (|G|/|N|)*|T*| = (48/16)*6 = 18", started)


def test_criterion_2_gl2_f5_and_sl2_f3():
    started = time.perf_counter()
    c5 = GroupDescriptor("C", 1, 5)
    count5 = _oracle_count(c5)
    assert count5 == 200 and group_order(c5) == 480
    assert Fraction(count5, 480) == Fraction(5, 12)
    c3 = GroupDescriptor("C", 1, 3)
    count_der = _oracle_count(c3, part="derived")
    assert count_der == 6 and group_order(c3, "derived") == 24
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _ok(2, "GL2(F5): |J| = 200/480 = 5/12; SL2(F3): 6 of 24", started)


def test_criterion_3_fast_path_equals_oracle_everywhere():
    started = time.perf_counter()
    matrix = [
        GroupDescriptor("C", 1, 3),
        GroupDescriptor("C", 1, 5),
        GroupDescriptor("C", 1, 7),
        GroupDescriptor("A", 2, 3),
    ]
    checked = 0
    for desc in matrix:
        for x in enumerate_group(desc):
            assert classify_element(x, 1) == classify_element_oracle(x, 1)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _ok(3, f"fast path == centralizer oracle on all {checked} elements", started)


def test_criterion_4_intro_subfield_densities():
    started = time.perf_counter()
    f2 = cm_subfield_fraction(4, 2)
    f3 = cm_subfield_fraction(4, 3)
    assert f2 == Fraction(1, 5) == cm_subfield_fraction_exhaustive(4, 2)
    assert f3 == Fraction(1, 10) == cm_subfield_fraction_exhaustive(4, 3)
    assert f2 * f3 == Fraction(1, 50)
    constant = max(f2, f3)
    assert constant == Fraction(1, 5) and f2 * f3 <= constant**2 and constant < 1
    _ok(4, "subfield fractions 1/5 and 1/10, product 1/50, bound C^r with C = 1/5", started)


def test_criterion_5_census_polynomials_interpolate():
    started = time.perf_counter()
    primes = [3, 5, 7, 11]
    censuses = [torus_census(GroupDescriptor("C", 1, p), 1) for p in primes]

    def predict(xs, ys, x):
        total = Fraction(0)
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            term = Fraction(yi)
            for j, xj in enumerate(xs):
                if i != j:
                    term *= Fraction(x - xj, xi - xj)
            total += term
        return total

    orders = [c.torus_order for c in censuses]
    regs = [c.regular_count for c in censuses]
    assert predict(primes[:3], orders[:3], 11) == orders[3]
    assert predict(primes[:3], regs[:3], 11) == regs[3]
    assert orders == [p * p - 1 for p in primes]
    assert regs == [p * p - p for p in primes]
    _ok(5, "torus order and regular count interpolate degree-2 polynomials in ell", started)


def test_criterion_6_power_map_fiber_bound():
    started = time.perf_counter()
    primes = [5, 7, 11]
    censuses = {p: torus_census(GroupDescriptor("C", 1, p), 1) for p in primes}
    b_hat = max(c.b_estimate for c in censuses.values())
    assert b_hat == Fraction(11, 12)
    for p in primes:
        order = censuses[p].torus_order
        for m in (1, 2, 3):
            reg_m = regular_torus_count(GroupDescriptor("C", 1, p), m)
            assert Fraction(reg_m, order) >= 1 - Fraction(m) * b_hat / p, (p, m)
    _ok(6, "|T*_m|/|T| >= 1 - m*b/ell for m in {1,2,3}, ell in {5,7,11}, b = 11/12", started)


def test_criterion_7_simulation_within_4_sigma_and_reproducible():
    started = time.perf_counter()
    model = GaloisModel.uniform("C", 1, [3, 5])
    res = chebotarev_simulate(model, 100_000, seed=20260809)
    assert res.expected == Fraction(35, 96)
    assert res.z_score is not None and abs(res.z_score) < 4.0
    res2 = chebotarev_simulate(model, 100_000, seed=20260809)
    assert res == res2
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _ok(7, f"10^5 samples: z = {res.z_score:+.2f} (|z| < 4), bit-identical replay", started)


def test_criterion_8_goursat_random_generators_and_diagonal():
    started = time.perf_counter()
    f5 = GroupDescriptor("C", 1, 5)
    f7 = GroupDescriptor("C", 1, 7)
    rng = random.Random(20260809)
    for trial in range(20):
        gens, _ = random_generator_tuples([f5, f7], rng, count=2)
        rep = goursat_verify([f5, f7], gens)
        assert all(rep.projections_surjective)
        assert rep.full_product, f"trial {trial} generated a proper subgroup"
        assert rep.in_hypothesis
    # the diagonal with the same prime twice: flagged, not a failure
    group5 = enumerate_group(f5, "derived")
    diag = None
    while diag is None:
        picks = [rng.choice(group5) for _ in range(2)]
        pairs = [(g, g) for g in picks]
        candidate = goursat_verify([f5, f5], pairs)
        if all(candidate.projections_surjective):
            diag = candidate
    assert not diag.in_hypothesis and not diag.full_product
    assert diag.closure_order == 120
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _ok(8, "20 surjective generator sets span SL2(F5) x SL2(F7); diagonal flagged", started)


def test_criterion_9_weil_analyzer():
    started = time.perf_counter()
    w_square = weil_validate(P([9, 0, 6, 0, 1]), 3)
    rep = analyze(w_square, aux_primes=(2, 5, 7))
    assert rep.d == 2 and rep.root == P([3, 0, 1])
    assert rep.prime_field
    assert rep.factors[0].e == 2 and rep.factors[0].d_y == 1
    assert rep.isogeny_shape == "Y^2"

    w_simple = weil_validate(P([3, -1, 1]), 3)
    rep2 = analyze(w_simple, aux_primes=(5, 7))
    assert rep2.d == 1 and rep2.conclusion is Certificate.SIMPLE
    assert rep2.factors[0].d_y == 1

    assert simplicity_certificate(w_simple, 7) is Certificate.SIMPLE
    assert simplicity_certificate(w_simple, 5) is Certificate.UNKNOWN
    _ok(9, "analyze resolves X ~ Y^2 over the prime field; certificates at 5/7 as pinned", started)


def test_criterion_10_round_trips():
    started = time.perf_counter()
    rng = random.Random(1009)
    for _ in range(100):
        deg = rng.randrange(1, 5)
        d = rng.choice([2, 3, 4])
        g = P([rng.randrange(-50, 51) for _ in range(deg)] + [1])
        assert dth_root(g**d, d) == g
    for _ in range(100):
        q = rng.choice([2, 3, 5, 7])
        coeffs = [rng.randrange(-30, 31) for _ in range(3)] + [1]
        if coeffs[0] == 0:
            coeffs[0] = 1
        assert dual_rational(dual_rational(coeffs, q), q) == tuple(
            Fraction(c) for c in coeffs
        )
    import pytest

    from frobsplit.weil import RootBoundViolation

    with pytest.raises(RootBoundViolation):
        weil_validate(P([3, -5, 1]), 3)
    weil_validate(P([3, -1, 1]), 3)
    _ok(10, "dth_root and dual round-trip on 100 random cases; validator accepts/rejects as pinned", started)


def test_criterion_11_non_special_checklist():
    started = time.perf_counter()
    rng = random.Random(77)
    for r in (2, 3, 5, 7):
        for _ in range(10):
            a = rng.randrange(0, r + 1)
            assert "i" in non_special(CMSignature(r, ((a, r - a),)))
    assert "ii" in non_special(CMSignature(6, ((1, 5),)))
    assert non_special(CMSignature(6, ((3, 3),))) == ()
    _ok(11, "condition (i) at prime ranks; (1,5) by (ii); (3,3) uncertified", started)
