import random
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import pytest

from frobsplit.finfield import FieldMismatch, is_prime, make_field, minimal_polynomial
from frobsplit.groups import (
    MAX_TORUS_SIZE,
    AnisotropicTorus,
    BudgetExceeded,
    DimensionMismatch,
    GroupDescriptor,
    GroupElement,
    NormalizerCensus,
    _anti_fixed_element,
    _count_avoiding,
    _independent_vectors,
    _lattice,
    _meet,
    _multiplicative_generator,
    _packed_group,
    _subfield_quadratic_image,
    _symplectic_change_of_basis,
    _torus_part,
    build_anisotropic_torus,
    classify_element,
    classify_element_oracle,
    contains,
    enumerate_group,
    enumerate_group_packed,
    exhaustive_classification,
    group_order,
    identity_element,
    mat_det,
    mat_identity,
    mat_inverse,
    mat_mul,
    normalizer_census,
    normalizer_census_oracle,
    pack_matrix,
    regular_torus_count,
    regular_torus_count_oracle,
    torus_census,
    torus_element_matrices,
    torus_order,
    unpack_matrix,
)
from modpoly_split import classify_dual_pair_reference

C3 = GroupDescriptor("C", 1, 3)
C5 = GroupDescriptor("C", 1, 5)
C7 = GroupDescriptor("C", 1, 7)
A2 = GroupDescriptor("A", 2, 3)


def test_descriptor_validation_and_flags():
    with pytest.raises(ValueError):
        GroupDescriptor("Q", 1, 3)
    with pytest.raises(ValueError):
        GroupDescriptor("C", 1, 4)
    assert C3.exceptional_field  # GF(3) is one of the small exceptions
    assert A2.exceptional_field  # base pair (GF(3), GF(9))
    assert not C5.exceptional_field


def test_group_order_formula_vs_enumeration():
    assert group_order(C3) == 48 == len(enumerate_group_packed(C3))
    assert group_order(C5) == 480 == len(enumerate_group_packed(C5))
    assert group_order(A2, "unitary") == 96 == len(enumerate_group_packed(A2, "unitary"))
    assert group_order(A2) == 192 == len(enumerate_group_packed(A2))
    assert group_order(C3, "derived") == 24 == len(enumerate_group_packed(C3, "derived"))
    assert group_order(A2, "derived") == 24 == len(enumerate_group_packed(A2, "derived"))


def test_contains_identity_and_diagonal():
    e = identity_element(C5)
    assert contains(C5, e.matrix).similitude == 1
    f5 = make_field(5, 1)
    a = f5.scalar(2)
    diag = ((a, f5.zero()), (f5.zero(), a.inverse()))
    elt = contains(C5, diag)
    assert elt is not None and elt.similitude == 1


def test_contains_rejects_perturbed_symplectic_4x4():
    desc = GroupDescriptor("C", 2, 3)
    torus = build_anisotropic_torus(desc)
    good = torus.generator.matrix
    assert contains(desc, good) is not None
    f3 = make_field(3, 1)
    rng = random.Random(11)
    rejected = 0
    for _ in range(20):
        i, j = rng.randrange(4), rng.randrange(4)
        bumped = [list(row) for row in good]
        bumped[i][j] = bumped[i][j] + f3.one()
        if contains(desc, tuple(tuple(r) for r in bumped)) is None:
            rejected += 1
    assert rejected >= 18  # perturbations essentially never stay similitudes


def test_contains_errors():
    f3 = make_field(3, 1)
    with pytest.raises(DimensionMismatch):
        contains(C3, ((f3.one(),),))
    f9 = make_field(3, 2)
    wrong = ((f9.one(), f9.zero()), (f9.zero(), f9.one()))
    with pytest.raises(FieldMismatch):
        contains(C3, wrong)


def test_torus_c_r1_orders_and_generator():
    torus = build_anisotropic_torus(C3)
    assert torus.order == 8 == torus_order(C3)
    # cyclic: the generator has full multiplicative order
    seen = set()
    g = identity_element(C3)
    for _ in range(torus.order):
        seen.add(pack_matrix(g.matrix))
        g = g * torus.generator
    assert len(seen) == 8 and pack_matrix(g.matrix) in seen
    assert build_anisotropic_torus(C5).order == 24


def test_torus_elements_are_distinct_commuting_similitudes():
    for desc in (C3, C5, A2):
        els = torus_element_matrices(desc)
        assert len({pack_matrix(e.matrix) for e in els}) == torus_order(desc)
        gens = build_anisotropic_torus(desc).generators
        for e in els[:10]:
            for g in gens:
                assert (e * g).matrix == (g * e).matrix
            assert contains(desc, e.matrix) is not None


def test_norm_one_subtorus_order():
    # the derived-subgroup slice of the C r=1 l=3 torus is the norm kernel
    census = torus_census(C3)
    assert census.subgroup_orders["derived"] == 4


def test_torus_generator_centralizer_is_the_torus():
    """Maximality certificate: the generator's centralizer has exactly the
    torus order, checked against full enumeration."""
    for desc in (C3, C5, A2):
        assert classify_element_oracle(build_anisotropic_torus(desc).generator, 1)


def test_census_values_c_r1():
    c = torus_census(C3, 1)
    assert (c.torus_order, c.regular_count, c.normalizer_order, c.weyl_order) == (8, 6, 16, 2)
    c5 = torus_census(C5, 1)
    assert (c5.torus_order, c5.regular_count) == (24, 20)
    assert (c5.normalizer_order, c5.weyl_order) == (48, 2)
    c52 = torus_census(C5, 2)
    assert c52.regular_count == 16  # brute-force over the 24 torus elements
    assert c52.regular_count_base == 20
    assert c5.b_estimate == Fraction(5, 6)


def test_census_m_fiber_bound():
    # x -> x^m has fibers of size at most gcd(m, |T|) on a cyclic torus and
    # gcd(m, ell^r - 1) gcd(m, ell - 1) on the dual-pair torus
    for desc in (C3, C5, A2):
        q = desc.ell
        base = regular_torus_count(desc, 1)
        for m in (2, 3, 4):
            if desc.family == "A" and desc.r % 2 == 0:
                fiber = gcd(m, q**desc.r - 1) * gcd(m, q - 1)
            else:
                fiber = gcd(m, torus_order(desc))
            assert regular_torus_count(desc, m) <= base * fiber


def test_classify_examples():
    assert not classify_element(identity_element(C3), 1)
    torus = build_anisotropic_torus(C3)
    assert classify_element(torus.generator, 1)
    count, total = exhaustive_classification(C3, 1)
    assert (count, total) == (18, 48)


def test_classify_counts_are_class_functions_producing_18():
    # 3 irreducible monic quadratics over GF(3), each with 6 matrices
    f3 = make_field(3, 1)
    irreducible = 0
    for b in range(3):
        for c in range(3):
            if all((x * x + b * x + c) % 3 for x in range(3)):
                irreducible += 1
    assert irreducible == 3
    assert 3 * (48 // 8) == 18


@pytest.mark.parametrize("desc,m", [(C3, 1), (C3, 2), (A2, 1), (A2, 2), (C5, 1)])
def test_fast_path_agrees_with_oracle(desc, m):
    for elt in enumerate_group(desc):
        assert classify_element(elt, m) == classify_element_oracle(elt, m)


def test_fast_path_agrees_with_oracle_odd_unitary_rank():
    # GU_3 over GF(4): the odd-rank unitary fast path at a rank where the
    # norm polynomial really is a product of two conjugate cubics
    desc = GroupDescriptor("A", 3, 2)
    assert group_order(desc) == 648
    for elt in enumerate_group(desc):
        assert classify_element(elt, 1) == classify_element_oracle(elt, 1)
    count, total = exhaustive_classification(desc)
    nc = normalizer_census(desc)
    assert (count, total) == (144, 648)
    assert nc.weyl_order == 3
    assert (total // nc.normalizer_order) * regular_torus_count(desc) == count


def _mixed_dual_pair_elements(desc, count, seed):
    """Seeded elements of an even-rank unitary group: torus elements times,
    or conjugated by, monomial unitaries (a permutation matrix with entries
    of norm one)."""
    rng = random.Random(seed)
    field = desc.matrix_field
    r = desc.r
    torus = torus_element_matrices(desc)
    norm_one = [u for u in field.elements() if not u.is_zero() and u ** (desc.ell + 1) == field.one()]
    out = []
    for _ in range(count):
        perm = rng.sample(range(r), r)
        mono = contains(
            desc, tuple(tuple(rng.choice(norm_one) if j == perm[i] else field.zero() for j in range(r)) for i in range(r))
        )
        t = rng.choice(torus)
        out.append(t * mono if rng.random() < 0.5 else mono * t * mono.inverse())
    return out


def _assert_dual_pair_classification_equals_the_reference(elements, ms):
    answers = []
    for elt in elements:
        for m in ms:
            answer = classify_element(elt, m)
            assert answer == classify_dual_pair_reference(elt, m), (elt, m)
            answers.append(answer)
    assert any(answers) and not all(answers)


def test_dual_pair_classification_equals_the_reference_on_gu2_f3():
    _assert_dual_pair_classification_equals_the_reference(enumerate_group(A2), (1, 2, 3))


def test_dual_pair_classification_equals_the_reference_on_mixed_gu4_f3():
    desc = GroupDescriptor("A", 4, 3)
    _assert_dual_pair_classification_equals_the_reference(_mixed_dual_pair_elements(desc, 100, seed=4), (1, 2))


def test_dual_pair_classification_needs_every_root_in_the_degree_s_field():
    # diag(x4, x6) in GU_10(F_2), x4 and x6 regular anisotropic: a dual pair
    # of quadratics and one of cubics over GF(4).  No root lies in GF(4), and
    # the twisted dual fixes no factor, so only h_5 = x rejects it.
    x4, x6 = (
        next(t for t in torus_element_matrices(GroupDescriptor("A", r, 2)) if classify_element(t))
        for r in (4, 6)
    )
    desc = GroupDescriptor("A", 10, 2)
    zero = desc.matrix_field.zero()
    x = contains(
        desc,
        tuple(
            tuple(
                x4.matrix[i][j] if i < 4 and j < 4 else (x6.matrix[i - 4][j - 4] if i >= 4 and j >= 4 else zero)
                for j in range(10)
            )
            for i in range(10)
        ),
    )
    assert not classify_element(x) and not classify_dual_pair_reference(x)


@pytest.mark.slow
def test_dual_pair_classification_equals_the_reference_on_gu2_f5():
    desc = GroupDescriptor("A", 2, 5)
    _assert_dual_pair_classification_equals_the_reference(enumerate_group(desc), (1, 2, 3))


@pytest.mark.slow
@pytest.mark.parametrize("ell", [3, 5])
def test_dual_pair_classification_equals_the_reference_on_600_gu4_elements(ell):
    desc = GroupDescriptor("A", 4, ell)
    _assert_dual_pair_classification_equals_the_reference(_mixed_dual_pair_elements(desc, 600, seed=ell), (1, 2))


def test_torus_generator_similitude_generates_the_scalars():
    for desc in (C3, C5, C7, A2):
        torus = build_anisotropic_torus(desc)
        sim = torus.generators[-1].similitude if desc.family == "A" and desc.r % 2 == 0 else torus.generator.similitude
        order = 1
        value = sim
        while value != 1:
            value = value * sim % desc.ell
            order += 1
        assert order == desc.ell - 1


def test_conjugation_invariance():
    rng = random.Random(31337)
    for desc in (C3, C5, A2):
        group = enumerate_group(desc)
        for _ in range(25):
            x = rng.choice(group)
            g = rng.choice(group)
            conj = g * x * g.inverse()
            for m in (1, 2):
                assert classify_element(x, m) == classify_element(conj, m)


@pytest.mark.parametrize("desc", [C3, C5, A2])
@pytest.mark.parametrize("m", [1, 2])
def test_count_identity(desc, m):
    """|J_{l,m}| = (|G|/|N|) * |T*_{l,m}| exactly."""
    count, total = exhaustive_classification(desc, m)
    nc = normalizer_census(desc)
    expected = (group_order(desc) // nc.normalizer_order) * regular_torus_count(desc, m)
    assert count == expected
    assert total == group_order(desc)


@pytest.mark.parametrize(
    "desc",
    [
        GroupDescriptor(family, r, ell)
        for family, r, ell in [
            ("C", 1, 2),
            ("C", 1, 3),
            ("C", 1, 5),
            ("C", 1, 7),
            ("C", 2, 2),
            ("A", 1, 2),
            ("A", 1, 3),
            ("A", 1, 5),
            ("A", 2, 3),
            ("A", 2, 5),
            ("A", 3, 2),
        ]
    ],
    ids=repr,
)
def test_normalizer_closed_form_equals_oracle(desc):
    """|W| = 2r (family C) or r (family A) and |N| = |W| |T|, against the
    enumerated normalizer."""
    assert normalizer_census(desc) == normalizer_census_oracle(desc)


def test_normalizer_oracle_on_the_central_torus_of_gu2_f2():
    """GU_2 over GF(4) is the one group here whose torus has no regular
    element: T(F_2) is the centre, of order 3.  Its finite normalizer is all
    of G, while the closed form counts the normalizer of the algebraic
    torus; the count identity reads 0 = 0 with either."""
    desc = GroupDescriptor("A", 2, 2)
    assert regular_torus_count(desc) == 0
    assert exhaustive_classification(desc) == (0, group_order(desc)) == (0, 18)
    assert normalizer_census(desc) == NormalizerCensus(6, 2)
    assert normalizer_census_oracle(desc) == NormalizerCensus(18, 6)


def test_normalizer_closed_form_out_of_enumeration_budget():
    big = GroupDescriptor("C", 1, 101)
    nc = normalizer_census(big)
    assert nc.weyl_order == 2
    assert nc.normalizer_order == 2 * torus_order(big)
    with pytest.raises(BudgetExceeded):
        normalizer_census_oracle(big)


def test_enumeration_budget_checked_before_packed_tables():
    misses = _packed_group.cache_info().misses
    with pytest.raises(BudgetExceeded):
        enumerate_group_packed(GroupDescriptor("C", 1, 1009), "derived")
    assert _packed_group.cache_info().misses == misses


def test_budget_exceeded_paths():
    sp4 = GroupDescriptor("C", 2, 5)  # matrix space 5^16 is far over the cap
    with pytest.raises(BudgetExceeded):
        enumerate_group_packed(sp4)
    huge_torus = GroupDescriptor("C", 9, 11)
    # the census is a closed form and answers; building the matrix torus,
    # which scans GF(11^18), is what stays capped
    census = torus_census(huge_torus)
    assert census.torus_order == torus_order(huge_torus) > MAX_TORUS_SIZE
    assert 0 < census.regular_count < census.torus_order
    with pytest.raises(BudgetExceeded, match="MAX_TORUS_SIZE"):
        build_anisotropic_torus(huge_torus)
    with pytest.raises(BudgetExceeded):
        torus_element_matrices(huge_torus)


def test_interpolation_of_torus_polynomials():
    """Torus order and regular count at C r=1 fit degree-2 polynomials in
    ell: interpolating three primes predicts the fourth exactly."""
    primes = [3, 5, 7, 11]
    orders = []
    regulars = []
    for p in primes:
        c = torus_census(GroupDescriptor("C", 1, p), 1)
        orders.append(c.torus_order)
        regulars.append(c.regular_count)

    def lagrange_predict(xs, ys, x):
        total = Fraction(0)
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            term = Fraction(yi)
            for j, xj in enumerate(xs):
                if i != j:
                    term *= Fraction(x - xj, xi - xj)
            total += term
        return total

    assert lagrange_predict(primes[:3], orders[:3], 11) == orders[3]
    assert lagrange_predict(primes[:3], regulars[:3], 11) == regulars[3]


@pytest.mark.parametrize(
    "desc",
    [
        C3,
        C5,
        A2,
        GroupDescriptor("C", 2, 3),
        GroupDescriptor("A", 1, 5),
        GroupDescriptor("A", 3, 2),
    ],
)
def test_exponent_model_matches_matrix_model(desc):
    """The exponent classes of each part agree element by element with the
    matrix torus (enumerated in the order of the exponents (i, w)), and the
    closed-form counts agree with the matrices."""
    q = desc.ell
    matrices = torus_element_matrices(desc)
    one = desc.matrix_field.one()
    dual_pair = desc.family == "A" and desc.r % 2 == 0
    census = torus_census(desc)
    parts = ["full", "derived"] + (["unitary"] if desc.family == "A" else [])
    for part in parts:
        _, _, (a, b, d) = _torus_part(desc, part)
        members = 0
        for k, elt in enumerate(matrices):
            i, w = divmod(k, q - 1) if dual_pair else (k, 0)
            if part == "full":
                in_part_matrix = True
            elif part == "unitary":
                in_part_matrix = elt.similitude == 1
            elif desc.family == "C":
                in_part_matrix = elt.similitude == 1
            else:
                in_part_matrix = elt.similitude == 1 and mat_det(elt.matrix) == one
            assert (w % a == 0 and i % d == w // a * b % d) == in_part_matrix, (k, part)
            members += in_part_matrix
        assert census.subgroup_orders[part] == members
        assert regular_torus_count(desc, 1, part) == regular_torus_count_oracle(desc, 1, part)


@pytest.mark.parametrize(
    "desc",
    [
        GroupDescriptor(family, r, ell)
        for family, r, ells in [
            ("C", 1, (2, 3, 5, 7)),
            ("C", 2, (2, 3)),
            ("C", 3, (2,)),
            ("A", 1, (2, 3, 5)),
            ("A", 2, (2, 3, 5)),
            ("A", 3, (2,)),
            ("A", 4, (2,)),
        ]
        for ell in ells
    ],
    ids=repr,
)
def test_regular_torus_count_equals_oracle(desc):
    """The closed form against classifying every matrix of the torus."""
    parts = ["full", "derived"] + (["unitary"] if desc.family == "A" else [])
    for part in parts:
        for m in (1, 2, 3):
            assert regular_torus_count(desc, m, part) == regular_torus_count_oracle(desc, m, part), (part, m)


@pytest.mark.parametrize("ell", [1009, 10007])
def test_regular_count_c_r1_is_ell_squared_minus_ell(ell):
    """For GSp_2 the torus is all of GF(ell^2)*, and its irregular elements
    are the ell - 1 scalars GF(ell)*."""
    desc = GroupDescriptor("C", 1, ell)
    assert regular_torus_count(desc) == ell * ell - ell
    assert torus_census(desc).regular_count == ell * ell - ell


def test_regular_count_where_the_subsets_explode():
    # GU_10 over GF(4): 25 coincidence congruences and one subfield one,
    # 2^26 subsets; 990 is the value of the former exponent-by-exponent walk
    assert regular_torus_count(GroupDescriptor("A", 10, 2)) == 990


def _lattice_set(lat, k, n):
    a, b, d = lat
    return {(w, i) for w in range(k) for i in range(n) if w % a == 0 and i % d == w // a * b % d}


def _random_subgroup_congruences(rng, k, n, count):
    """(alpha, beta) pairs with beta a multiple of n/k, so beta*w is well
    defined for w mod k."""
    return [(rng.randrange(n), n // k * rng.randrange(k)) for _ in range(count)]


@pytest.mark.parametrize("seed", range(6))
def test_lattice_helpers_match_enumeration(seed):
    """_lattice, _meet and _count_avoiding against brute force on small
    Z/k x Z/n with k | n."""
    rng = random.Random(seed)
    for _ in range(8):
        k = rng.choice([1, 2, 3, 4, 6])
        n = k * rng.randint(1, 24 // k + 2)
        congruences = _random_subgroup_congruences(rng, k, n, rng.randint(1, 4))
        sets = []
        for alpha, beta in congruences:
            lat = _lattice(alpha, beta, n)
            solutions = {(w, i) for w in range(k) for i in range(n) if (alpha * i - beta * w) % n == 0}
            assert _lattice_set(lat, k, n) == solutions, (k, n, alpha, beta, lat)
            sets.append((lat, solutions))
        for (x, sx), (y, sy) in product(sets, repeat=2):
            assert _lattice_set(_meet(x, y), k, n) == sx & sy, (k, n, x, y)
        base = _lattice(*_random_subgroup_congruences(rng, k, n, 1)[0], n)
        direct = _lattice_set(base, k, n).difference(*(sx for _, sx in sets))
        assert _count_avoiding(k, n, base, [lat for lat, _ in sets]) == len(direct)


@pytest.mark.parametrize("ell", [3, 5, 1009, 10007, 1000003])
def test_gu2_closed_forms(ell):
    """GU_2's dual-pair torus at any ell: (ell^2 - 1)(ell - 2) regular
    elements in all, (ell + 1)(ell - 2) of similitude 1, ell - 3 in SU_2."""
    desc = GroupDescriptor("A", 2, ell)
    assert regular_torus_count(desc) == (ell * ell - 1) * (ell - 2)
    assert regular_torus_count(desc, 1, "unitary") == (ell + 1) * (ell - 2)
    assert regular_torus_count(desc, 1, "derived") == ell - 3


def test_unknown_part_is_rejected():
    with pytest.raises(ValueError):
        regular_torus_count(C3, 1, "unitary")
    with pytest.raises(ValueError):
        regular_torus_count_oracle(C3, 1, "unitary")


def test_packed_round_trip():
    for desc in (C3, A2):
        torus = build_anisotropic_torus(desc)
        m = torus.generator.matrix
        assert unpack_matrix(desc, pack_matrix(m)) == m


def test_element_power_and_inverse():
    torus = build_anisotropic_torus(C5)
    g = torus.generator
    assert (g**3).matrix == (g * g * g).matrix
    assert (g * g.inverse()).matrix == identity_element(C5).matrix
    assert (g**-2).matrix == (g.inverse() * g.inverse()).matrix


def _leibniz_det(a):
    field = a[0][0].field
    n = len(a)
    total = field.zero()
    for perm in permutations(range(n)):
        term = field.one()
        for i, j in enumerate(perm):
            term = term * a[i][j]
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total + (-term if inversions % 2 else term)
    return total


def _check_det_and_inverse(a):
    det = mat_det(a)
    assert det == _leibniz_det(a)
    if det.is_zero():
        with pytest.raises(ValueError):
            mat_inverse(a)
        return
    inv = mat_inverse(a)
    one = mat_identity(a[0][0].field, len(a))
    assert mat_mul(a, inv) == one and mat_mul(inv, a) == one


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2)])
def test_det_and_inverse_on_every_2x2_matrix(p, k):
    field = make_field(p, k)
    els = list(field.elements())
    singular = 0
    for a, b, c, d in product(els, repeat=4):
        _check_det_and_inverse(((a, b), (c, d)))
        singular += (a * d - b * c).is_zero()
    q = field.q
    assert singular == q**4 - (q * q - 1) * (q * q - q)  # |M_2| - |GL_2|


@pytest.mark.parametrize("p,k", [(5, 1), (3, 2)])
def test_det_and_inverse_on_random_4x4_matrices(p, k):
    field = make_field(p, k)
    rng = random.Random(p * 10 + k)
    for _ in range(25):
        a = tuple(tuple(field.from_index(rng.randrange(field.q)) for _ in range(4)) for _ in range(4))
        _check_det_and_inverse(a)
    # a rank-3 matrix: the last row is the sum of the others
    rows = [[field.from_index(rng.randrange(field.q)) for _ in range(4)] for _ in range(3)]
    rows.append([x + y + z for x, y, z in zip(*rows)])
    _check_det_and_inverse(tuple(tuple(row) for row in rows))


def _span(vectors, field):
    zero = tuple(field.zero() for _ in range(3))
    out = {zero}
    for v in vectors:
        out = {tuple(x + c * y for x, y in zip(u, v)) for u in out for c in field.elements()}
    return out


@pytest.mark.parametrize("p,k", [(3, 1), (2, 2)])
def test_independent_vectors_is_the_greedy_subset(p, k):
    field = make_field(p, k)
    rng = random.Random(p + k)
    for _ in range(40):
        vectors = [
            tuple(field.from_index(rng.randrange(field.q)) for _ in range(3)) for _ in range(rng.randrange(1, 6))
        ]
        keep = _independent_vectors(vectors)
        # v_i is kept exactly when it lies outside the span of the earlier vectors
        expected = [v for i, v in enumerate(vectors) if v not in _span(vectors[:i], field)]
        assert keep == expected
        span = _span(keep, field)
        assert len(span) == field.q ** len(keep) and span == _span(vectors, field)
    assert _independent_vectors([]) == []


def test_symplectic_change_of_basis_stops_on_a_non_alternating_gram_matrix():
    field = make_field(3, 1)
    one, zero = field.one(), field.zero()
    # on the first two the pairing loop never shrinks its spanning set, so
    # without the check it runs without end; the last is alternating but
    # degenerate
    for rows in ([[1, 1], [1, 1]], [[1, 2], [0, 1]], [[0, 0], [0, 0]]):
        gram = [[field.scalar(c) for c in row] for row in rows]
        with pytest.raises(AssertionError, match="alternating|degenerate"):
            _symplectic_change_of_basis(gram, field)
    p_mat = _symplectic_change_of_basis([[zero, one], [-one, zero]], field)
    assert p_mat == ((one, zero), (zero, one))


def _anti_fixed_scan(big, e):
    """The definitional answer: the first nonzero x in index order with x^e = -x."""
    return next(x for x in big.elements() if not x.is_zero() and x**e == -x)


def test_anti_fixed_element_equals_the_scan():
    cases = [(ell, r) for r in range(1, 9) for ell in range(2, 320) if is_prime(ell) and ell ** (2 * r) <= 10**5]
    assert len(cases) == 82
    for ell, r in cases:
        big = make_field(ell, 2 * r)
        c = _anti_fixed_element(big, ell**r)
        assert c == _anti_fixed_scan(big, ell**r), (ell, r)


def _subfield_quadratic_scan(big, small):
    """The definitional answer: zeta, w and the first element of `small` in
    index order at which the minimal polynomial of w vanishes."""
    zeta = _multiplicative_generator(big)
    w = zeta ** ((big.q - 1) // (small.q - 1))
    mp = minimal_polynomial(w)
    for cand in small.elements():
        acc = small.zero()
        for i, c in enumerate(mp):
            acc = acc + small.scalar(c) * cand**i
        if acc.is_zero():
            return zeta, w, cand
    raise AssertionError("no root of the subfield polynomial found")


def test_subfield_quadratic_image_equals_the_scan():
    cases = [(ell, k) for k in range(2, 18, 2) for ell in range(2, 320) if is_prime(ell) and ell**k <= 10**5]
    cases += [(1009, 2), (10007, 2), (101, 4), (31, 6)]
    assert len(cases) == 86
    for ell, k in cases:
        big, small = make_field(ell, k), make_field(ell, 2)
        assert _subfield_quadratic_image(big, small) == _subfield_quadratic_scan(big, small), (ell, k)


@pytest.mark.parametrize("p,k", [(7, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (2, 6)])
def test_multiplicative_generator_is_the_least_index_generator(p, k):
    field = make_field(p, k)

    def order(x):
        y, n = x, 1
        while y != field.one():
            y, n = y * x, n + 1
        return n

    first = next(x for x in field.elements() if not x.is_zero() and order(x) == field.q - 1)
    assert _multiplicative_generator(field) == first


# generator matrices (packed, row by row) and similitudes of the torus,
# recorded before the change of basis moved onto the one row reduction
PINNED_TORI = [
    (("C", 1, 3), ((1, 1, 2, 1),), (2,)),
    (("C", 1, 1009), ((10, 249, 466, 1),), (11,)),
    (("C", 2, 13), ((8, 9, 0, 4, 4, 9, 12, 8, 5, 0, 12, 2, 4, 2, 8, 9),), (11,)),
    (("C", 3, 5), ((4, 1, 1, 0, 4, 0, 3, 0, 4, 0, 4, 4, 4, 4, 0, 4, 4, 2, 4, 1, 4, 2, 1, 4, 0, 3, 4, 3, 3, 4, 4, 3, 4, 1, 1, 3),), (2,)),
    (("A", 1, 3), ((4,),), (2,)),
    (("A", 2, 7), ((18, 43, 3, 18), (2, 38, 39, 2)), (1, 3)),
    (("A", 3, 3), ((3, 5, 8, 7, 8, 2, 7, 3, 7),), (2,)),
    (("A", 4, 3), ((3, 2, 2, 3, 3, 3, 1, 2, 6, 2, 1, 3, 3, 6, 1, 1), (0, 7, 0, 0, 8, 0, 0, 0, 0, 0, 0, 7, 0, 0, 8, 0)), (1, 2)),
]


@pytest.mark.parametrize("key,matrices,similitudes", PINNED_TORI)
def test_torus_generators_pinned(key, matrices, similitudes):
    torus = build_anisotropic_torus(GroupDescriptor(*key))
    assert tuple(pack_matrix(g.matrix) for g in torus.generators) == matrices
    assert tuple(g.similitude for g in torus.generators) == similitudes
