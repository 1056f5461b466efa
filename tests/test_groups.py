import random
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import pytest

from frobsplit import groups, intpoly
from frobsplit.finfield import (
    IS_PRIME_LIMIT,
    FFElement,
    FieldMismatch,
    is_prime,
    make_field,
    minimal_polynomial,
    power,
    prime_divisors,
)
from frobsplit.groups import (
    MAX_GROUP_SIZE,
    AnisotropicTorus,
    BudgetExceeded,
    DimensionMismatch,
    GroupDescriptor,
    GroupElement,
    NormalizerCensus,
    _anti_fixed_element,
    _ENUM_CACHE,
    _commutant_forms,
    _count_avoiding,
    _hermitian_change_of_basis,
    _hermitian_scale,
    _imat_forward,
    _imat_inverse,
    _lattice,
    _meet,
    _mulclose,
    _multiplicative_generator,
    _natural_form,
    _natural_matrix,
    _PackedField,
    _packed_group,
    _part_generators,
    _subfield_quadratic_image,
    _symplectic_change_of_basis,
    _torus_part,
    build_anisotropic_torus,
    classify_element,
    classify_element_oracle,
    contains,
    enumerate_group,
    enumerate_group_packed,
    group_order,
    identity_element,
    mat_conj_transpose,
    mat_det,
    mat_identity,
    normalizer_census,
    pack_matrix,
    regular_torus_count,
    standard_gram,
    torus_census,
    torus_order,
    unpack_matrix,
)
from modpoly_split import classify_charpoly_reference, classify_dual_pair_reference
from oracles import (
    contains_by_gram,
    exhaustive_classification,
    hermitian_scales_by_scan,
    mat_inverse,
    mat_mul,
    normalizer_census_oracle,
    regular_torus_count_oracle,
    symplectic_change_of_basis_by_field_elements,
    torus_element_matrices,
)

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


def _listable_parts(max_order=MAX_GROUP_SIZE):
    """Every (descriptor, part) of order at most max_order whose group and
    packed field tables fit MAX_GROUP_SIZE.  r <= 2 (family C), r <= 4
    (family A) and ell < 100 bound them all: the largest are SL_2(F_97),
    GSp_4(F_3), SU_3(F_5) and GU_4(F_2)."""
    for family, ranks in (("C", range(1, 3)), ("A", range(1, 5))):
        parts = ("full", "derived", "unitary")[: 3 if family == "A" else 2]
        for r in ranks:
            for ell in filter(is_prime, range(2, 100)):
                desc = GroupDescriptor(family, r, ell)
                for part in parts:
                    order = group_order(desc, part)
                    if order <= max_order and max(order, desc.matrix_field.q**2) <= MAX_GROUP_SIZE:
                        yield desc, part


def _assert_lists_the_part(desc, part):
    """The listing is sorted, has the part's order, and each generator lies
    in the part and is not the identity: multiplier 1 below 'full' (and
    determinant 1 in SU), and in 'full' multipliers that generate GF(ell)*.
    The multiplier read off one entry is the similitude of every listed
    element."""
    ell, one = desc.ell, desc.matrix_field.one()
    listing = enumerate_group_packed(desc, part)
    assert listing == sorted(set(listing)) and len(listing) == group_order(desc, part)
    pg = _packed_group(desc)
    assert all(pg.multiplier(m) == pg.similitude(m) for m in listing), (desc, part)
    multipliers = []
    for g in _part_generators(desc, part):
        x = contains(desc, g)
        assert x is not None and (part == "full" or x.similitude == 1), (desc, part)
        assert part != "derived" or mat_det(g) == one, (desc, part)
        assert pack_matrix(g) != pg.identity, (desc, part)
        multipliers.append(x.similitude)
    if part == "full":
        assert len(_mulclose(multipliers, lambda a: lambda b: a * b % ell, ell)) == ell - 1
    _ENUM_CACHE.pop((desc, part))  # the sweep would hold every listing


def test_every_part_up_to_order_30000_is_the_closure_of_its_generators():
    pairs = list(_listable_parts(3 * 10**4))
    assert len(pairs) == 78
    for desc, part in pairs:
        _assert_lists_the_part(desc, part)


@pytest.mark.slow
def test_every_listable_part_is_the_closure_of_its_generators():
    pairs = list(_listable_parts())
    assert len(pairs) == 111
    for desc, part in pairs:
        _assert_lists_the_part(desc, part)


def test_a_root_element_basis_of_one_value_generates_too_little():
    """Both GF(ell)-basis values of GF(ell^2) are needed: with a = 1 alone
    SU_3(F_3) closes to 12 of 6048 elements and SU_4(F_2) to 720 of 25920."""
    for spec, closed in ((("A", 3, 3), 12), (("A", 4, 2), 720)):
        desc = GroupDescriptor(*spec)
        field, n = desc.matrix_field, desc.matrix_dim
        antidiagonal = tuple(tuple(field.scalar(int(i + j == n - 1)) for j in range(n)) for i in range(n))
        p_mat = _hermitian_change_of_basis(antidiagonal, field)
        # back in the antidiagonal basis, the a = 1 roots (and theta = 1 over GF(4)) have prime-field entries
        ones = [
            pack_matrix(g)
            for g in _part_generators(desc, "derived")
            if all(x.in_prime_field() for row in mat_mul(mat_mul(p_mat, g), mat_inverse(p_mat)) for x in row)
        ]
        assert 0 < len(ones) < len(_part_generators(desc, "derived"))
        pg = _packed_group(desc)
        assert len(_mulclose(ones, pg.left, group_order(desc, "derived"))) == closed


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


@pytest.mark.parametrize("ell", [2, 3, 5, 1009])
def test_natural_form_is_the_trace_form_or_the_gram_matrix(ell):
    """Family A's int form at (2i + a, 2j + b) is Tr(e_a^ell e_b) for the
    basis e = (1, t) when i = j, and 0 otherwise; Tr(z) = z + z^ell.
    Family C's is the standard Gram matrix, lifted to ints."""
    desc = GroupDescriptor("A", 2, ell)
    field = desc.matrix_field
    basis = (field.one(), field.element([0, 1]))
    for row_index, row in enumerate(_natural_form(desc)):
        i, a = divmod(row_index, 2)
        for col_index, b_ij in enumerate(row):
            j, b = divmod(col_index, 2)
            z = basis[a].frobenius() * basis[b]
            assert b_ij == ((z + z.frobenius()).lift() if i == j else 0)
    symplectic = GroupDescriptor("C", 2, ell)
    assert _natural_form(symplectic) == tuple(tuple(x.lift() for x in row) for row in standard_gram(symplectic))


def _membership_cases(desc, members, rng, randoms):
    """Each member, a member with one entry bumped by a random nonzero
    element, a member times a random nonzero scalar of the matrix field, and
    `randoms` matrices with uniform entries."""
    field, n = desc.matrix_field, desc.matrix_dim
    nonzero = lambda: field.from_index(rng.randrange(1, field.q))  # noqa: E731
    for m in members:
        yield m
        bumped = [list(row) for row in m]
        i, j = rng.randrange(n), rng.randrange(n)
        bumped[i][j] = bumped[i][j] + nonzero()
        yield tuple(map(tuple, bumped))
        c = nonzero()
        yield tuple(tuple(c * x for x in row) for row in m)
    for _ in range(randoms):
        yield tuple(tuple(field.from_index(rng.randrange(field.q)) for _ in range(n)) for _ in range(n))


def _assert_contains_equals_the_gram_definition(desc, members, rng, randoms):
    verdicts = set()
    for m in _membership_cases(desc, members, rng, randoms):
        got = contains(desc, m)
        assert got == contains_by_gram(desc, m), (desc, m)
        verdicts.add(got is not None)
    return verdicts


@pytest.mark.parametrize(
    "spec",
    [("C", 1, 2), ("C", 1, 3), ("C", 1, 5), ("C", 2, 2), ("C", 2, 3)]
    + [("A", 1, 2), ("A", 1, 3), ("A", 1, 5), ("A", 2, 2), ("A", 2, 3), ("A", 3, 2)],
    ids=lambda s: "".join(map(str, s)),
)
def test_contains_equals_the_gram_definition_on_small_groups(spec):
    """The int test of contains (family A: the trace form) against
    ct(M) J M = lam J over field elements, lam in GF(ell)*, on every element
    of the listed group (of GSp_4(F_3), 500 seeded words in its generators),
    each bumped and scaled, and 200 uniform matrices.  GU over GF(4) is the
    case where the trace form has a zero diagonal."""
    desc = GroupDescriptor(*spec)
    rng = random.Random(repr(spec))
    if group_order(desc) <= 1000:
        members = [unpack_matrix(desc, m) for m in enumerate_group_packed(desc)]
    else:
        members = [x.matrix for x in _random_words(desc, 500, rng)]
    assert all(contains(desc, m) is not None for m in members)
    verdicts = _assert_contains_equals_the_gram_definition(desc, members, rng, 200)
    assert verdicts == {False, True}


@pytest.mark.parametrize(
    "spec",
    [("C", 4, 10357), ("A", 4, 10007), ("A", 3, 1009), ("C", 9, 11), ("A", 6, 101), ("A", 5, 31)],
    ids=lambda s: "".join(map(str, s)),
)
def test_contains_equals_the_gram_definition_on_paper_scale_torus_generators(spec):
    desc = GroupDescriptor(*spec)
    members = [g.matrix for g in build_anisotropic_torus(desc).generators]
    verdicts = _assert_contains_equals_the_gram_definition(desc, members, random.Random(5), 3)
    assert verdicts == {False, True}


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


def _block_diagonal(desc, blocks):
    zero = desc.matrix_field.zero()
    rows = []
    offset = 0
    for b in blocks:
        k = len(b)
        for row in b:
            rows.append((zero,) * offset + tuple(row) + (zero,) * (desc.matrix_dim - offset - k))
        offset += k
    return contains(desc, tuple(rows))


def test_dual_pair_classification_needs_every_root_in_the_degree_s_field():
    # diag(x4, x6) in GU_10(F_2), x4 and x6 regular anisotropic: a dual pair
    # of quadratics and one of cubics over GF(4).  No root lies in GF(4), and
    # the twisted dual fixes no factor: what rules it out is only that its
    # roots lie outside GF(4^5).
    x4, x6 = (
        next(t for t in torus_element_matrices(GroupDescriptor("A", r, 2)) if classify_element(t))
        for r in (4, 6)
    )
    x = _block_diagonal(GroupDescriptor("A", 10, 2), [x4.matrix, x6.matrix])
    assert not classify_element(x) and not classify_dual_pair_reference(x)


def test_dual_pair_classification_rejects_two_self_dual_cubics():
    # diag(x, y) in GU_6(F_2), x and y regular anisotropic in GU_3(F_2): two
    # cubics over GF(4), each fixed by beta -> lam / beta^ell, which acts on
    # its roots as beta -> beta^(4^2).  Only the twist factor j = 2 rejects it.
    x, y = [t for t in torus_element_matrices(GroupDescriptor("A", 3, 2)) if classify_element(t)][:2]
    z = _block_diagonal(GroupDescriptor("A", 6, 2), [x.matrix, y.matrix])
    assert not classify_element(z) and not classify_dual_pair_reference(z)


def test_dual_pair_classification_equals_the_reference_on_gu6_f2():
    # s = 3: the one twist factor is j = 2, and the block-diagonal pairs of
    # self-dual cubics are rejected by it alone
    desc = GroupDescriptor("A", 6, 2)
    x3 = [t for t in torus_element_matrices(GroupDescriptor("A", 3, 2)) if classify_element(t)]
    pairs = [_block_diagonal(desc, [x.matrix, y.matrix]) for x, y in zip(x3, x3[1:] + x3[:1])]
    elements = _mixed_dual_pair_elements(desc, 12, seed=6) + pairs
    _assert_dual_pair_classification_equals_the_reference(elements, (1, 2))
    assert not any(classify_element(z) for z in pairs)


def _reference(x, m):
    """The charpoly classification that classify_element replaced."""
    desc = x.desc
    if desc.family == "A" and desc.r % 2 == 0:
        return classify_dual_pair_reference(x, m)
    return classify_charpoly_reference(x, m)


def _non_torus_elements(desc):
    """Two fixed elements off the torus: a transvection (family C) or a
    unitary reflection (family A, r >= 3 when ell = 2), and a Weyl-type
    monomial element."""
    field = desc.matrix_field
    n = desc.matrix_dim
    zero, one = field.zero(), field.one()
    eye = [[one if i == j else zero for j in range(n)] for i in range(n)]
    if desc.family == "C":
        block = [row[:] for row in eye]
        block[0][n - 1] = one
        weyl = [row[:] for row in eye]
        weyl[0][0] = weyl[n - 1][n - 1] = zero
        weyl[n - 1][0], weyl[0][n - 1] = one, -one
    else:
        # I - (1 - z) v v* / (v* v) with v the sum of the first k basis
        # vectors (v* v = k nonzero) and z != 1 of norm one
        k = 3 if desc.ell == 2 else 2
        z = next(u for u in field.elements() if u != one and not u.is_zero() and u ** (desc.ell + 1) == one)
        c = (one - z) / field.scalar(k)
        block = [[eye[i][j] - c if i < k and j < k else eye[i][j] for j in range(n)] for i in range(n)]
        weyl = [[one if j == (i + 1) % n else zero for j in range(n)] for i in range(n)]
    out = [contains(desc, tuple(map(tuple, mat))) for mat in (block, weyl)]
    assert None not in out
    return out


def _seeded_torus_elements(desc, count, seed):
    rng = random.Random(seed)
    torus = build_anisotropic_torus(desc)
    out = []
    for _ in range(count):
        x = identity_element(desc)
        for g in torus.generators:
            x = x * g ** rng.randrange(torus.order)
        out.append(x)
    return out


def _assert_classification_equals_the_references(desc, count, seed):
    answers = []
    fixed = _non_torus_elements(desc)
    for t in _seeded_torus_elements(desc, count, seed):
        for x in [t] + [t * g for g in fixed]:
            for m in (1, 2, 3):
                answer = classify_element(x, m)
                assert answer == _reference(x, m), (x, m)
                answers.append(answer)
    assert any(answers) and not all(answers)


REFERENCE_GROUPS = [
    GroupDescriptor(*spec) for spec in [("C", 3, 31), ("C", 4, 3), ("A", 5, 2), ("A", 4, 11), ("A", 6, 3)]
]


@pytest.mark.parametrize("desc", REFERENCE_GROUPS, ids=repr)
def test_classification_equals_the_charpoly_references(desc):
    """The matrix test against the charpoly routes it replaced: Rabin's
    test on the norm of the charpoly (family C, odd-rank A) and the
    dual-pair factorisation over GF(ell^2) (even-rank A), on a torus
    element alone and times two fixed elements off the torus."""
    _assert_classification_equals_the_references(desc, 1, seed=1)


@pytest.mark.slow
@pytest.mark.parametrize("desc", REFERENCE_GROUPS, ids=repr)
def test_classification_equals_the_charpoly_references_wide(desc):
    _assert_classification_equals_the_references(desc, 12, seed=2)


@pytest.mark.parametrize(
    "desc",
    [GroupDescriptor(f, r, ell) for f, r in (("C", 2), ("A", 3)) for ell in (101, 1009, 10007)]
    + [GroupDescriptor("A", r, ell) for r, ell in ((2, 10007), (4, 1009), (6, 11))],
    ids=repr,
)
def test_classification_equals_the_charpoly_references_on_random_words(desc):
    """The charpoly references at primes no listing reaches, on seeded
    random words of 24 generators of the full group.  The dual-pair torus
    is checked at s = 1, 2 and 3; at s = 3 (GU_6) the twist factor decides."""
    rng = random.Random(desc.ell)
    gens = [contains(desc, g) for g in _part_generators(desc, "full")]
    answers = []
    for _ in range(12):
        x = identity_element(desc)
        for _ in range(24):
            x = x * rng.choice(gens)
        for m in (1, 2):
            answer = classify_element(x, m)
            assert answer == _reference(x, m), (x, m)
            answers.append(answer)
    assert any(answers) and not all(answers)


def test_classification_stops_at_the_first_singular_factor(monkeypatch):
    """GSp_4(F_1009) has D = 4 and one factor, F_2 - y.  The Frobenius
    powers F_i = y^(ell^i) are built one at a time, so an element with every
    eigenvalue in GF(ell^2) stops after F_2, while a regular anisotropic
    torus element builds F_1, ..., F_4."""
    desc = GroupDescriptor("C", 2, 1009)
    ell = desc.ell
    gen = build_anisotropic_torus(desc).generator
    cases = [(identity_element(desc), False, 2), (gen ** (ell**2 + 1), False, 2), (gen, True, 4)]
    frobenius_powers = []

    def counting_power(x, e, mul, one):
        if e == ell:
            frobenius_powers.append(x)
        return power(x, e, mul, one)

    monkeypatch.setattr(groups, "power", counting_power)
    for x, expected, built in cases:
        frobenius_powers.clear()
        assert classify_element(x) == expected
        assert len(frobenius_powers) == built


def test_classification_runs_on_ints_alone(monkeypatch):
    """No field-element arithmetic and no polynomial irreducibility test:
    classify_element reads the answer off an integer matrix."""
    cases = []
    for spec in [("C", 2, 2), ("A", 3, 2), ("A", 4, 3)]:
        desc = GroupDescriptor(*spec)
        elements = _seeded_torus_elements(desc, 2, seed=7)
        elements += [t * g for t in elements for g in _non_torus_elements(desc)]
        cases += [(x, m, _reference(x, m)) for x in elements for m in (1, 2)]
    assert {expected for _, _, expected in cases} == {False, True}

    def forbidden(*args):
        raise AssertionError("classification used field or polynomial arithmetic")

    monkeypatch.setattr(FFElement, "__mul__", forbidden)
    monkeypatch.setattr(FFElement, "__add__", forbidden)
    monkeypatch.setattr(intpoly, "is_irreducible_mod", forbidden)
    for x, m, expected in cases:
        assert classify_element(x, m) == expected, (x, m)


@pytest.mark.parametrize("m", [0, -1])
def test_classification_needs_a_positive_power(m):
    x = build_anisotropic_torus(C3).generator
    with pytest.raises(ValueError, match="m must be at least 1"):
        classify_element(x, m)
    with pytest.raises(ValueError, match="m must be at least 1"):
        classify_element_oracle(x, m)


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
    """Every enumerating entry point raises before it builds the q^2-entry
    packed tables of a field: GSp_2(F_1009) is far over the order cap, and
    for GU_1(F_41) the group (1680) is small but the tables (41^4 entries
    each) are over MAX_GROUP_SIZE."""
    calls = [
        lambda desc: enumerate_group_packed(desc, "derived"),
        enumerate_group,
        lambda desc: classify_element_oracle(identity_element(desc)),
        normalizer_census_oracle,
        exhaustive_classification,
    ]
    for desc in (GroupDescriptor("C", 1, 1009), GroupDescriptor("A", 1, 41)):
        for call in calls:
            misses = _packed_group.cache_info().misses
            with pytest.raises(BudgetExceeded):
                call(desc)
            assert _packed_group.cache_info().misses == misses
    assert group_order(desc, "full") <= MAX_GROUP_SIZE < desc.matrix_field.q**2


def test_budget_exceeded_paths():
    sp4 = GroupDescriptor("C", 2, 5)  # order 4 * 9,360,000 is over MAX_GROUP_SIZE
    with pytest.raises(BudgetExceeded):
        enumerate_group_packed(sp4)
    huge_torus = GroupDescriptor("C", 9, 11)
    # the census is a closed form and the matrix torus has no cap: both
    # answer, and only listing the torus's 2.4*10^10 elements stays capped
    census = torus_census(huge_torus)
    assert census.torus_order == torus_order(huge_torus) > 10**10
    assert 0 < census.regular_count < census.torus_order
    torus = build_anisotropic_torus(huge_torus)
    assert contains(huge_torus, torus.generator.matrix) == torus.generator
    with pytest.raises(BudgetExceeded, match="MAX_GROUP_SIZE"):
        torus_element_matrices(huge_torus)


# paper-scale descriptors whose tori have more than 10^7 elements
PAPER_SCALE_TORI = [
    GroupDescriptor(*key)
    for key in [
        ("C", 3, 101),
        ("A", 3, 101),
        ("A", 4, 101),
        ("A", 1, 10007),
        ("C", 3, 10007),
        ("C", 4, 1009),
        ("C", 2, 10**6 + 3),
        ("A", 3, 10007),
        ("A", 4, 10007),
        ("C", 4, 10357),
    ]
]


@pytest.mark.parametrize("desc", PAPER_SCALE_TORI, ids=repr)
def test_paper_scale_tori_build_with_generators_in_the_group(desc):
    torus = build_anisotropic_torus(desc)
    assert torus.order == torus_order(desc) > 10**7
    for g in torus.generators:
        assert contains(desc, g.matrix) == g


def test_the_torus_build_refuses_only_at_the_is_prime_limit():
    """GSp_8(F_(10^7+19)) needs the primes of Phi_8(ell) = ell^4 + 1, whose
    cofactor 1.2*10^25 left by trial division is past IS_PRIME_LIMIT."""
    with pytest.raises(BudgetExceeded, match="IS_PRIME_LIMIT") as refusal:
        build_anisotropic_torus(GroupDescriptor("C", 4, 10**7 + 19))
    assert str(IS_PRIME_LIMIT) in str(refusal.value)


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


def _dual_pair_count_with_every_coincidence(desc, m, part):
    """regular_torus_count on the dual-pair torus with all s^2 eigenvalue
    coincidences m (ell^(2u) + ell^(2v+1)) i = m w n/(ell - 1) (mod n),
    0 <= u, v < s, in place of the one twist lattice."""
    q, s = desc.ell, desc.r // 2
    k, n, base = _torus_part(desc, part)
    subfields = [_lattice(m * (q ** (2 * s // p) - 1), 0, n) for p in prime_divisors(s)]
    beta = m * n // k
    coincidences = [_lattice(m * (q ** (2 * u) + q ** (2 * v + 1)), beta, n) for u in range(s) for v in range(s)]
    return _count_avoiding(k, n, base, subfields + coincidences)


def test_dual_pair_count_needs_only_the_twist_lattice():
    ells = [p for p in range(2, 32) if is_prime(p)] + [101, 1009]
    keys = 0
    for r in range(2, 13, 2):
        for ell in ells:
            if ell**r > 10**40:
                continue
            desc = GroupDescriptor("A", r, ell)
            for m in (1, 2, 3, 4, 6):
                for part in ("full", "derived", "unitary"):
                    expected = _dual_pair_count_with_every_coincidence(desc, m, part)
                    assert regular_torus_count(desc, m, part) == expected, (desc, m, part)
                    keys += 1
    assert keys == 1170


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


def _packed_field_tables_by_elements(field):
    """The sum, product, inverse, negation and Frobenius tables of a field by
    FFElement arithmetic on each pair of indices: the oracle for _PackedField."""
    els = list(field.elements())
    q = field.q
    return (
        [[(els[a] + els[b]).index() for b in range(q)] for a in range(q)],
        [[(els[a] * els[b]).index() for b in range(q)] for a in range(q)],
        [0] + [els[a].inverse().index() for a in range(1, q)],
        [(-els[a]).index() for a in range(q)],
        [els[a].frobenius().index() for a in range(q)],
    )


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (19, 2), (7, 3)])
def test_packed_field_tables_equal_the_element_arithmetic(p, k):
    field = make_field(p, k)
    pf = _PackedField(field)
    assert (pf.add, pf.mul, pf.inv, pf.neg, pf.conj) == _packed_field_tables_by_elements(field)


def _form_value(pf, form, g):
    acc = 0
    for k, row in form:
        acc = pf.add[acc][row[g[k]]]
    return acc


@pytest.mark.parametrize("spec,count", [(("A", 2, 3), None), (("C", 2, 2), 40)], ids=repr)
def test_commutant_forms_vanish_iff_the_products_commute(spec, count):
    """Every pair (g, y) of GU_2(F_3), and the seeded y of GSp_4(F_2)
    against every g: the forms of y all vanish at g iff g y = y g."""
    desc = GroupDescriptor(*spec)
    pg = _packed_group(desc)
    elements = enumerate_group_packed(desc)
    ys = elements if count is None else random.Random(11).sample(elements, count)
    outcomes = set()
    for y in ys:
        forms = _commutant_forms(pg, y)
        assert all(forms)
        for g in elements:
            commute = pg.mm(g, y) == pg.mm(y, g)
            assert all(_form_value(pg.pf, form, g) == 0 for form in forms) == commute, (g, y)
            outcomes.add(commute)
    assert outcomes == {False, True}


def _random_words(desc, count, rng):
    """count seeded words of 8 generators of the full group."""
    gens = [contains(desc, g) for g in _part_generators(desc, "full")]
    words = []
    for _ in range(count):
        x = identity_element(desc)
        for _ in range(8):
            x = x * rng.choice(gens)
        words.append(x)
    return words


@pytest.mark.parametrize("p,rank", [(2, 2), (3, 3), (101, 4), (10007, 3)])
def test_imat_inverse_equals_mat_inverse(p, rank):
    """_imat_inverse, and the singularity that _imat_forward finds, against
    the field-element inverse.  Natural matrices of seeded GU_rank elements
    (2 rank <= 8), uniform matrices of size 1..8, and singular ones: a row
    that is a combination of the others, shuffled into place."""
    rng = random.Random(p)
    field = make_field(p, 1)
    invertible = [_natural_matrix(x.desc, x.matrix) for x in _random_words(GroupDescriptor("A", rank, p), 6, rng)]
    uniform = [tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)) for n in range(1, 9) for _ in range(5)]
    singular = [((0,),)]
    for n in range(2, 9):
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n - 1)]
        coefs = [rng.randrange(p) for _ in rows]
        rows.append([sum(c * row[j] for c, row in zip(coefs, rows)) % p for j in range(n)])
        rng.shuffle(rows)
        singular.append(tuple(map(tuple, rows)))
    counts = {True: 0, False: 0}
    for a in invertible + uniform + singular:
        fa = tuple(tuple(field.scalar(v) for v in row) for row in a)
        inv = _imat_inverse(a, p)
        assert (_imat_forward(a, p) is None) == (inv is None), a
        if mat_det(fa).is_zero():
            assert inv is None, a
        else:
            assert inv == tuple(tuple(c.lift() for c in row) for row in mat_inverse(fa)), a
        counts[inv is not None] += 1
    assert all(_imat_inverse(a, p) is not None for a in invertible)
    assert all(_imat_inverse(a, p) is None for a in singular)
    assert min(counts.values()) >= 8


@pytest.mark.parametrize(
    "desc,part",
    [(C5, "full"), (A2, "full"), (GroupDescriptor("C", 2, 2), "derived"), (GroupDescriptor("A", 3, 3), "derived")],
    ids=repr,
)
def test_packed_inverse_is_the_two_sided_inverse(desc, part):
    pg = _packed_group(desc)
    elements = enumerate_group_packed(desc, part)
    sample = elements if len(elements) <= 2000 else random.Random(7).sample(elements, 2000)
    for a in sample:
        b = pg.inverse(a)
        assert pg.mm(a, b) == pg.mm(b, a) == pg.identity
    assert {pg.similitude(a) for a in sample} == ({1} if part == "derived" else set(range(1, desc.ell)))


def test_packed_inverse_rejects_a_matrix_outside_the_group():
    pg = _packed_group(C5)
    with pytest.raises(ValueError, match="outside the group"):
        pg.inverse((1, 1, 0, 0))


@pytest.mark.parametrize(
    "desc",
    [GroupDescriptor("C", 2, 2), GroupDescriptor("A", 3, 2), A2, GroupDescriptor("C", 1, 31)],
    ids=repr,
)
def test_left_multiplier_is_the_packed_product(desc):
    """left(g)(b) == mm(g, b) over GF(2), GF(4), GF(9) and F_31, with g and
    b each the identity, a generator of the full group (the GSp root
    elements have rows of one or two nonzero entries) or a dense matrix."""
    pg = _packed_group(desc)
    rng = random.Random(20)
    dense = [tuple(rng.randrange(pg.pf.q) for _ in range(pg.n**2)) for _ in range(12)]
    roots = [pack_matrix(g) for g in _part_generators(desc, "full")]
    for g in [pg.identity] + roots + dense:
        times = pg.left(g)
        for b in [pg.identity] + roots + dense:
            assert times(b) == pg.mm(g, b), (desc, g, b)


@pytest.mark.parametrize("desc", [C5, A2], ids=repr)
def test_unpack_matrix_equals_the_from_index_construction(desc):
    field, n = desc.matrix_field, desc.matrix_dim
    for m in enumerate_group_packed(desc):
        by_index = tuple(tuple(field.from_index(m[i * n + j]) for j in range(n)) for i in range(n))
        assert unpack_matrix(desc, m) == by_index


def test_element_power_and_inverse():
    torus = build_anisotropic_torus(C5)
    g = torus.generator
    assert (g**3).matrix == (g * g * g).matrix
    assert (g * g.inverse()).matrix == identity_element(C5).matrix
    assert (g**-2).matrix == (g.inverse() * g.inverse()).matrix


@pytest.mark.parametrize("spec", [("C", 2, 7), ("A", 3, 5), ("A", 2, 2)], ids=lambda s: "".join(map(str, s)))
def test_group_law_equals_the_field_element_products(spec):
    """The product and inverse of GroupElement, on natural int matrices,
    against mat_mul and mat_inverse over field elements on seeded words."""
    rng = random.Random(repr(spec))
    words = _random_words(GroupDescriptor(*spec), 10, rng)
    for x, y in zip(words, words[1:]):
        assert (x * y).matrix == mat_mul(x.matrix, y.matrix)
        assert x.inverse().matrix == mat_inverse(x.matrix)


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


def _random_gram(field, n, rng, mirror):
    """A seeded nondegenerate n x n Gram matrix, random above the diagonal:
    mirror(x) is the entry below it opposite x, mirror(None) a diagonal one."""
    while True:
        g = [[None] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = mirror(None)
            for j in range(i + 1, n):
                g[i][j] = field.from_index(rng.randrange(field.q))
                g[j][i] = mirror(g[i][j])
        gram = tuple(map(tuple, g))
        if not mat_det(gram).is_zero():
            return gram


def _lift(matrix):
    """A matrix over GF(p) as ints."""
    return tuple(tuple(x.lift() for x in row) for row in matrix)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_symplectic_change_of_basis_on_random_alternating_forms(p):
    field = make_field(p)
    rng = random.Random(p)
    for n in range(2, 11, 2):
        standard = standard_gram(GroupDescriptor("C", n // 2, p))
        for _ in range(4):
            gram = _random_gram(field, n, rng, lambda above: field.zero() if above is None else -above)
            p_mat = tuple(tuple(map(field.scalar, row)) for row in _symplectic_change_of_basis(_lift(gram), p))
            assert mat_mul(mat_mul(tuple(zip(*p_mat)), gram), p_mat) == standard, (n, gram)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_symplectic_change_of_basis_on_ints_equals_the_field_element_loop(p):
    """The int loop makes the field-element loop's choices: the same P."""
    field = make_field(p)
    rng = random.Random(100 + p)
    for n in range(2, 11, 2):
        for _ in range(4):
            gram = _random_gram(field, n, rng, lambda above: field.zero() if above is None else -above)
            reference = symplectic_change_of_basis_by_field_elements(gram, field)
            assert _symplectic_change_of_basis(_lift(gram), p) == _lift(reference), (n, gram)


def _hyperbolic_gram(field, n, rng):
    """A sum of hyperbolic planes on a random pairing of the basis, each
    pair with a random nonzero entry: every basis vector is isotropic and
    pairs with one partner, so each plane takes a mixing step."""
    order = list(range(n))
    rng.shuffle(order)
    g = [[field.zero()] * n for _ in range(n)]
    for i, j in zip(order[::2], order[1::2]):
        g[i][j] = field.from_index(rng.randrange(1, field.q))
        g[j][i] = g[i][j].frobenius()
    return tuple(map(tuple, g))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hermitian_change_of_basis_on_random_hermitian_forms(p):
    field = make_field(p, 2)
    rng = random.Random(p)
    hermitian = lambda above: field.scalar(rng.randrange(p)) if above is None else above.frobenius()  # noqa: E731
    isotropic = lambda above: field.zero() if above is None else above.frobenius()  # noqa: E731
    for n in range(1, 7):
        grams = [_random_gram(field, n, rng, hermitian) for _ in range(3)]
        if n > 1:
            grams.append(_random_gram(field, n, rng, isotropic))
        if n % 2 == 0:
            grams += [_hyperbolic_gram(field, n, rng) for _ in range(2)]
        for gram in grams:
            p_mat = _hermitian_change_of_basis(gram, field)
            assert mat_mul(mat_mul(mat_conj_transpose(p_mat), gram), p_mat) == mat_identity(field, n), (n, gram)


def test_symplectic_change_of_basis_stops_on_a_non_alternating_gram_matrix():
    # the first three are not alternating (the third is symmetric with a zero
    # diagonal); the last is alternating but degenerate
    for rows, error in (
        ([[1, 1], [1, 1]], "alternating"),
        ([[1, 2], [0, 1]], "alternating"),
        ([[0, 1], [1, 0]], "alternating"),
        ([[0, 0], [0, 0]], "degenerate"),
    ):
        with pytest.raises(AssertionError, match=error):
            _symplectic_change_of_basis(rows, 3)
    p_mat = _symplectic_change_of_basis([[0, 1], [-1, 0]], 3)
    assert p_mat == ((1, 0), (0, 1))


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


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 101, 1009])
def test_hermitian_scale_equals_the_scan(ell):
    field = make_field(ell, 2)
    scales = hermitian_scales_by_scan(field)
    assert sorted(scales) == list(range(1, ell))
    for c in range(1, ell):
        assert _hermitian_scale(field, field.scalar(c)) == scales[c], (ell, c)


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
