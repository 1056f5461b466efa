import random
from fractions import Fraction
from math import prod, sqrt

import pytest

from frobsplit.cli import execute, parse
from frobsplit.density import (
    GaloisModel,
    ModelEntry,
    _chain_orbits,
    chebotarev_simulate,
    cm_subfield_fraction,
    density_product,
    goursat_verify,
    irregular_fraction,
    random_generator_tuples,
    regular_fraction,
)
from frobsplit.finfield import make_field
from frobsplit.groups import (
    MAX_GROUP_SIZE,
    BudgetExceeded,
    GroupDescriptor,
    GroupElement,
    _field_matrix,
    _mulclose,
    _natural_matrix,
    _packed_group,
    _uniform_derived,
    classify_element,
    contains,
    enumerate_group,
    group_order,
    identity_element,
    mat_det,
    pack_matrix,
)
from oracles import cm_subfield_fraction_exhaustive, exhaustive_classification, goursat_report_by_product_chain

C_AT = lambda ell: GroupDescriptor("C", 1, ell)  # noqa: E731
A_AT = lambda r, ell: GroupDescriptor("A", r, ell)  # noqa: E731


def _product_closure_order(factors, gens):
    """The order of the subgroup the tuples generate in the product of the
    derived groups, by closing them under the componentwise product: the
    oracle for the projection chain of goursat_verify."""
    pgs = [_packed_group(d) for d in factors]

    def left(a):
        return lambda b: tuple(pg.mm(x, y) for pg, x, y in zip(pgs, a, b))

    tuples = [tuple(pack_matrix(g.matrix) for g in gen) for gen in gens]
    return len(_mulclose(tuples, left, prod(group_order(d, "derived") for d in factors)))


def _verified(factors, gens):
    rep = goursat_verify(factors, gens)
    assert rep.closure_order == _product_closure_order(factors, gens)
    return rep


def test_irregular_fraction_examples():
    assert irregular_fraction(C_AT(3), 1, "full") == Fraction(5, 8)
    assert irregular_fraction(C_AT(5), 1, "full") == Fraction(7, 12)
    assert irregular_fraction(C_AT(3), 1, "der") == Fraction(3, 4)


def test_fraction_matches_exhaustive_classification():
    for desc, squeeze, part in [
        (C_AT(3), "full", "full"),
        (C_AT(3), "der", "derived"),
        (C_AT(5), "full", "full"),
        (GroupDescriptor("A", 2, 3), "full", "full"),
        (GroupDescriptor("A", 2, 3), "der", "derived"),
    ]:
        for m in (1, 2):
            count, total = exhaustive_classification(desc, m, part)
            assert regular_fraction(desc, m, squeeze) == Fraction(count, total)
            assert irregular_fraction(desc, m, squeeze) == 1 - Fraction(count, total)


def test_density_product_examples():
    single = density_product(GaloisModel.uniform("C", 1, [3]))
    assert single.product == Fraction(5, 8)
    pair = density_product(GaloisModel.uniform("C", 1, [3, 5]))
    assert pair.product == Fraction(5, 8) * Fraction(7, 12) == Fraction(35, 96)
    assert pair.complement == 1 - Fraction(35, 96)
    empty = density_product(GaloisModel((), 1))
    assert empty.product == 1 and empty.bound == 1


def test_density_product_bound_and_monotonicity():
    two = density_product(GaloisModel.uniform("C", 1, [3, 5]))
    three = density_product(GaloisModel.uniform("C", 1, [3, 5, 7]))
    assert three.product < two.product
    assert two.product <= two.bound == Fraction(5, 8) ** 2
    assert all(0 <= f <= 1 for _, f, _ in three.per_ell)


def test_density_product_equals_product_of_singles():
    singles = [
        density_product(GaloisModel.uniform("C", 1, [p])).product for p in (3, 5, 7)
    ]
    combined = density_product(GaloisModel.uniform("C", 1, [3, 5, 7]))
    acc = Fraction(1)
    for s in singles:
        acc *= s
    assert combined.product == acc


def test_residue_degree_one_scaling():
    rep = density_product(GaloisModel.uniform("C", 1, [3, 5], m=2))
    assert rep.residue_degree_one_bound == rep.complement / 2


def test_model_validation():
    with pytest.raises(ValueError):
        GaloisModel.uniform("C", 1, [3, 3])
    with pytest.raises(ValueError):
        GaloisModel.uniform("C", 1, [3], m=0)
    with pytest.raises(ValueError):
        ModelEntry(C_AT(3), "mid")


def test_cm_subfield_fraction_examples():
    assert cm_subfield_fraction(4, 2) == Fraction(3, 15) == Fraction(1, 5)
    assert cm_subfield_fraction(4, 3) == Fraction(8, 80) == Fraction(1, 10)
    assert cm_subfield_fraction(2, 5) == Fraction(4, 24) == Fraction(1, 6)


@pytest.mark.parametrize(
    "two_g,ell", [(2, 3), (2, 5), (4, 2), (4, 3), (6, 2), (6, 3), (8, 2), (12, 2)]
)
def test_cm_subfield_inclusion_exclusion_vs_exhaustive(two_g, ell):
    assert cm_subfield_fraction(two_g, ell) == cm_subfield_fraction_exhaustive(two_g, ell)


def test_cm_subfield_fraction_validation():
    with pytest.raises(ValueError):
        cm_subfield_fraction(3, 5)


def test_simulation_reproducible_and_within_tolerance():
    model = GaloisModel.uniform("C", 1, [3, 5])
    res = chebotarev_simulate(model, 20000, seed=424242)
    again = chebotarev_simulate(model, 20000, seed=424242)
    assert res == again
    assert res.expected == Fraction(35, 96)
    assert res.z_score is not None and abs(res.z_score) < 4


def test_simulation_degenerate_sizes():
    model = GaloisModel.uniform("C", 1, [3])
    with pytest.raises(ValueError):
        chebotarev_simulate(model, 0, seed=1)
    one = chebotarev_simulate(model, 1, seed=1)
    assert one.hits in (0, 1)
    assert one.stream_layout[0][0] == 2177342782468422676  # the README simulate example's stream seed


def _randrange_layout(probs, samples, seed):
    """The stream layout drawn with rng.randrange: the oracle for the
    getrandbits sampler of chebotarev_simulate, one draw per prime, from
    one stream seeded with (seed ^ 0x9E3779B97F4A7C15) mod 2^63."""
    stream_seed = (seed ^ 0x9E3779B97F4A7C15) % 2**63
    rng = random.Random(stream_seed)
    hits = sum(all([rng.randrange(p.denominator) < p.numerator for p in probs]) for _ in range(samples))
    return ((stream_seed, samples, hits),)


# denominators 1, powers of two, 2^k + 1, and one beyond a machine word
_PROBS = [
    Fraction(0),
    Fraction(1),
    Fraction(1, 2),
    Fraction(3, 8),
    Fraction(1023, 1024),
    Fraction(2, 3),
    Fraction(4, 5),
    Fraction(16, 17),
    Fraction(200, 257),
    Fraction(40000, 65537),
    Fraction(10**20 + 7, 2**70 + 1),
]


@pytest.mark.parametrize("key", range(12))
def test_the_getrandbits_sampler_draws_what_randrange_draws(key, monkeypatch):
    rng = random.Random(key)
    seed, samples = rng.randrange(2**64), rng.randint(1, 10**4)
    primes = [2, 3, 5, 7][: rng.randint(1, 4)]
    probs = dict(zip(primes, (rng.choice(_PROBS) for _ in primes)))
    monkeypatch.setattr("frobsplit.density.irregular_fraction", lambda desc, m, squeeze: probs[desc.ell])
    res = chebotarev_simulate(GaloisModel.uniform("C", 1, primes), samples, seed)
    assert res.stream_layout == _randrange_layout(list(probs.values()), samples, seed)
    assert res.streams == 1 and res.hits == res.stream_layout[0][2]


def test_goursat_full_product():
    f5, f7 = C_AT(5), C_AT(7)
    rng = random.Random(99)
    gens, _ = random_generator_tuples([f5, f7], rng, count=2)
    rep = _verified([f5, f7], gens)
    assert rep.in_hypothesis
    assert all(rep.projections_surjective)
    assert rep.full_product
    assert rep.closure_order == rep.product_order == 120 * 336


def test_goursat_diagonal_flagged_out_of_hypothesis():
    f5 = C_AT(5)
    group = enumerate_group(f5, "derived")
    rng = random.Random(5)
    # diagonal subgroup: same component twice; projections surject, closure proper
    gens = None
    while gens is None:
        picks = [rng.choice(group) for _ in range(2)]
        pg = _packed_group(f5)
        if len(_mulclose([pack_matrix(p.matrix) for p in picks], pg.left, 120)) == 120:
            gens = [(p, p) for p in picks]
    rep = _verified([f5, f5], gens)
    assert not rep.in_hypothesis
    assert "repeated primes" in rep.note
    assert all(rep.projections_surjective)
    assert not rep.full_product
    assert rep.closure_order == 120


def _sl2(ell, rows):
    return GroupElement(C_AT(ell), _field_matrix(C_AT(ell), rows), 1)


UPPER, LOWER = ((1, 1), (0, 1)), ((1, 0), (1, 1))


def test_goursat_hand_built_diagonal_of_sl2_f5_squared():
    """{(g, g)} from (u, u) and (l, l): both projections surject onto
    SL_2(F_5), the closure is the diagonal of order 120, and the repeated
    prime puts it out of hypothesis without a contradiction."""
    f5 = C_AT(5)
    u, l = _sl2(5, UPPER), _sl2(5, LOWER)
    rep = _verified([f5, f5], [(u, u), (l, l)])
    assert (rep.closure_order, rep.product_order) == (120, 120 * 120)
    assert rep.projections_surjective == (True, True)
    assert not rep.full_product and not rep.in_hypothesis
    assert rep.note.startswith("repeated primes")


def _beside_sl2_f11(components):
    """The components, each beside one of seeded generators of SL_2(F_11)."""
    gens, _ = random_generator_tuples([C_AT(11)], random.Random(1), count=len(components))
    return [(c, x) for c, (x,) in zip(components, gens)]


def test_goursat_hand_built_borel_subgroups():
    """The Borel subgroup of SL_2(F_7), from diag(3, 5) and u, has order
    6 * 7 = 42; beside a unipotent component in SL_2(F_11) the closure is
    the product 42 * 11 = 462, since 11 does not divide 42.  Beside
    generators of all of SL_2(F_11) only the second projection surjects,
    the lemma is silent, and the product chain finds 42 * 1320: the
    solvable Borel subgroup and the perfect SL_2(F_11) share no nontrivial
    quotient."""
    f7, f11 = C_AT(7), C_AT(11)
    torus, u7, u11 = _sl2(7, ((3, 0), (0, 5))), _sl2(7, UPPER), _sl2(11, UPPER)
    borel = _verified([f7], [(torus,), (u7,)])
    assert (borel.closure_order, borel.product_order) == (42, 336)
    assert borel.projections_surjective == (False,) and borel.in_hypothesis
    rep = _verified([f7, f11], [(torus, u11), (u7, u11)])
    assert (rep.closure_order, rep.product_order) == (462, 336 * 1320)
    assert rep.projections_surjective == (False, False) and not rep.full_product
    mixed = _verified([f7, f11], _beside_sl2_f11([torus, u7]))
    assert (mixed.closure_order, mixed.product_order) == (42 * 1320, 336 * 1320)
    assert mixed.projections_surjective == (False, True) and mixed.in_hypothesis and not mixed.full_product


def test_goursat_single_factor_trivially_full():
    f5 = C_AT(5)
    rng = random.Random(123)
    gens, _ = random_generator_tuples([f5], rng, count=2)
    rep = _verified([f5], gens)
    assert rep.full_product and all(rep.projections_surjective)


def test_goursat_exceptional_field_flagged():
    f3, f5 = C_AT(3), C_AT(5)
    rng = random.Random(17)
    gens, _ = random_generator_tuples([f3, f5], rng, count=2)
    rep = _verified([f3, f5], gens)
    # SL2(3) is solvable: out of hypothesis regardless of the outcome
    assert not rep.in_hypothesis


def test_one_generator_tuple_is_rejected_unless_every_factor_is_trivial():
    with pytest.raises(ValueError, match="non-abelian"):
        random_generator_tuples([C_AT(5), C_AT(7)], random.Random(1), count=1)
    with pytest.raises(ValueError, match="non-abelian"):
        random_generator_tuples([GroupDescriptor("A", 1, 5), GroupDescriptor("A", 2, 3)], random.Random(1), count=1)
    su1 = [GroupDescriptor("A", 1, 5), GroupDescriptor("A", 1, 7)]
    (gens,), _ = random_generator_tuples(su1, random.Random(1), count=1)
    assert all(g.matrix == identity_element(d).matrix for g, d in zip(gens, su1))
    assert _verified(su1, [gens]).full_product


def test_goursat_rejects_an_empty_generator_list():
    with pytest.raises(ValueError, match="at least one generator tuple"):
        goursat_verify([C_AT(31), C_AT(37)], [])


def test_goursat_budget():
    # the cap is on projective points, not on orders: SL_2(F_101), of
    # order 1030200, passes it and reaches the generator check, while
    # GSp_4(F_101) acts on (101^4 - 1)/100 = 1040604 lines
    with pytest.raises(ValueError, match="need at least one generator tuple"):
        goursat_verify([C_AT(5), C_AT(101)], [])
    with pytest.raises(BudgetExceeded, match="1040604"):
        goursat_verify([C_AT(5), GroupDescriptor("C", 2, 101)], [])


def test_the_factor_cap_is_checked_before_any_group_is_listed(monkeypatch):
    def unbuilt(factors, tuples, target):
        raise AssertionError(f"a chain of {factors} built")

    monkeypatch.setattr("frobsplit.density._chain_orbits", unbuilt)
    factors = [C_AT(5), GroupDescriptor("C", 2, 101)]  # GSp_4(F_101) acts on (101^4 - 1)/100 lines
    cap = f"1040604 projective points, over the cap MAX_GROUP_SIZE = {MAX_GROUP_SIZE}"
    with pytest.raises(BudgetExceeded, match=cap):
        random_generator_tuples(factors, random.Random(1), count=2)
    with pytest.raises(BudgetExceeded, match=cap):
        goursat_verify(factors, [])


def _count_chains(monkeypatch):
    """The factor count of each _chain_orbits call, as it is made."""
    calls = []

    def counted(factors, tuples, target):
        calls.append(len(factors))
        return _chain_orbits(factors, tuples, target)

    monkeypatch.setattr("frobsplit.density._chain_orbits", counted)
    return calls


@pytest.mark.parametrize(
    "command,chains",
    [
        ("--family C --r 1 --ells 5,7 --seed 1", [1, 1]),
        ("--family C --r 2 --ells 11,13 --seed 1", [1, 1]),
        ("--family A --r 3 --ells 3 --seed 1", [1]),
        ("--family C --r 1 --ells 5 --seed 3", [1, 1]),  # one draw rejected
    ],
)
def test_an_accepted_goursat_draw_runs_one_chain(monkeypatch, command, chains):
    """An accepted in-hypothesis draw runs one chain per factor, and
    Goursat's lemma answers the product from them; a product chain on the
    draw, or any chain again on the report, would show as more calls.  One
    factor runs one chain per draw, its own chain being the product chain:
    seed 3 draws generators that the chain rejects, then ones it accepts."""
    calls = _count_chains(monkeypatch)
    report, status = execute(parse(f"goursat {command}".split()))
    assert status == 0 and report["result"]["full_product"]
    assert calls == chains


def test_a_failed_projection_adds_one_product_chain(monkeypatch):
    """In hypothesis, a projection that fails leaves the lemma silent: the
    chains of the two factors, then exactly one chain on the product."""
    f7 = C_AT(7)
    gens = _beside_sl2_f11([_sl2(7, ((3, 0), (0, 5))), _sl2(7, UPPER)])
    calls = _count_chains(monkeypatch)
    rep = goursat_verify([f7, C_AT(11)], gens)
    assert rep.in_hypothesis and rep.projections_surjective == (False, True)
    assert calls == [1, 1, 2]


def _draws_by_one_chain_per_factor(factors, rng, count):
    """The reference draw loop: uniform components, and a draw accepted
    when each factor's own chain reaches its derived order."""
    orders = [group_order(d, "derived") for d in factors]
    while True:
        tuples = [tuple(_uniform_derived(d, rng) for d in factors) for _ in range(count)]
        if all(prod(_chain_orbits([d], [(t[i],) for t in tuples], n)) == n for i, (d, n) in enumerate(zip(factors, orders))):
            return [tuple(GroupElement(d, _field_matrix(d, m), 1) for d, m in zip(factors, t)) for t in tuples]


def _natural_tuples(factors, tuples):
    return [tuple(_natural_matrix(d, g.matrix) for d, g in zip(factors, t)) for t in tuples]


@pytest.mark.parametrize(
    "factors,count",
    [
        ([C_AT(5), C_AT(7)], 2),
        ([C_AT(5), C_AT(5)], 2),  # a repeated prime
        ([A_AT(3, 3)], 2),
        ([C_AT(2), C_AT(3)], 2),  # exceptional fields
        ([A_AT(1, 5), A_AT(1, 7)], 1),  # trivial derived groups
        ([A_AT(2, 3), C_AT(3)], 2),
    ],
    ids=["C5-C7", "C5-C5", "A3_3", "C2-C3", "A1_5-A1_7", "A2_3-C3"],
)
def test_the_draws_are_those_of_one_chain_per_factor(factors, count):
    """random_generator_tuples accepts the draws the per-factor chains
    accept, leaves the generator where they leave it, and reports what
    goursat_verify and the product-chain oracle report on its tuples."""
    for seed in range(12):
        reference, rng = random.Random(seed), random.Random(seed)
        expected = _draws_by_one_chain_per_factor(factors, reference, count)
        tuples, report = random_generator_tuples(factors, rng, count)
        assert tuples == expected, seed
        assert rng.random() == reference.random(), seed
        assert report == goursat_verify(factors, tuples), seed
        assert report == goursat_report_by_product_chain(factors, _natural_tuples(factors, tuples)), seed


@pytest.mark.slow
def test_the_product_chain_oracle_agrees_on_gsp4_f31_by_gsp4_f37():
    """Seed 1 at paper scale: the lemma's full product, with no product
    chain, is what the chain on the whole product finds."""
    factors = [GroupDescriptor("C", 2, 31), GroupDescriptor("C", 2, 37)]
    tuples, report = random_generator_tuples(factors, random.Random(1), 2)
    assert report.in_hypothesis and report.full_product
    assert report == goursat_report_by_product_chain(factors, _natural_tuples(factors, tuples))


def _draw_tuples(factors, rng, count):
    """count generator tuples whose components are each a random element,
    the identity, or a copy of an earlier component over the same group,
    so that diagonals, partial diagonals and trivial components occur."""
    groups = [enumerate_group(d, "derived") for d in factors]
    out = []
    for _ in range(count):
        t = []
        for i, d in enumerate(factors):
            twins = [j for j in range(i) if factors[j] == d]
            kind = rng.randrange(6)
            if kind == 0:
                t.append(identity_element(d))
            elif kind < 3 and twins:
                t.append(t[rng.choice(twins)])
            else:
                t.append(rng.choice(groups[i]))
        out.append(tuple(t))
    return out


SWEEP_FACTORS = [
    [C_AT(5), C_AT(5)],
    [C_AT(3), C_AT(3), C_AT(3)],
    [C_AT(2), C_AT(3), C_AT(3)],
    [C_AT(2), C_AT(2), C_AT(2), C_AT(2)],
    [A_AT(1, 5), C_AT(3), A_AT(1, 7)],
    [A_AT(2, 3), C_AT(3), A_AT(2, 3)],
    [A_AT(3, 2), C_AT(2)],
    [A_AT(2, 5), C_AT(5)],
]


@pytest.mark.parametrize("seed", range(24))
def test_chain_order_equals_the_product_closure_on_a_seeded_sweep(seed):
    rng = random.Random(seed)
    factors = SWEEP_FACTORS[seed % len(SWEEP_FACTORS)]
    rep = _verified(factors, _draw_tuples(factors, rng, rng.randint(2, 3)))
    assert rep.full_product == (rep.closure_order == rep.product_order)


@pytest.mark.parametrize("seed", range(4))
def test_the_diagonal_of_a_repeated_prime_has_the_factor_order(seed):
    f5 = C_AT(5)
    rng = random.Random(seed)
    singles, _ = random_generator_tuples([f5], rng, count=2 + seed % 2)
    rep = _verified([f5, f5], [(g, g) for (g,) in singles])
    assert rep.closure_order == 120 and not rep.full_product


def test_a_partial_diagonal_has_the_order_of_its_distinct_factors():
    f5, f7 = C_AT(5), C_AT(7)
    pairs, _ = random_generator_tuples([f5, f7], random.Random(11), count=2)
    rep = _verified([f5, f5, f7], [(g, g, h) for g, h in pairs])
    assert all(rep.projections_surjective) and not rep.in_hypothesis
    assert rep.closure_order == 120 * 336


def test_goursat_rejects_foreign_generators():
    f5, f7 = C_AT(5), C_AT(7)
    rng = random.Random(3)
    gens, _ = random_generator_tuples([f5, f7], rng, count=2)
    with pytest.raises(ValueError):
        goursat_verify([f7, f5], gens)  # components in the wrong groups


def test_goursat_rejects_a_unitary_component_of_determinant_not_one():
    """diag(zeta, 1, 1) in GU_3(F_5), N(zeta) = 1 and zeta != 1, is unitary
    but not in SU_3, and goursat_verify rejects it by its determinant over
    GF(25).  Its natural matrix over GF(5) has determinant N(zeta) = 1, so
    that determinant would wrongly accept it."""
    desc = A_AT(3, 5)
    field, prime = desc.matrix_field, make_field(5)
    one, zero = field.one(), field.zero()
    zeta = next(z for z in field.elements() if z != one and z.frobenius() * z == one)
    m = tuple(tuple((zeta if i == 0 else one) if i == j else zero for j in range(3)) for i in range(3))
    unitary = contains(desc, m)
    assert unitary is not None and unitary.similitude == 1 and mat_det(m) == zeta
    natural = tuple(tuple(prime.scalar(v) for v in row) for row in _natural_matrix(desc, m))
    assert mat_det(natural) == prime.one()
    draws, _ = random_generator_tuples([desc], random.Random(7), count=2)
    with pytest.raises(ValueError, match="outside its derived group"):
        goursat_verify([desc], draws + [(unitary,)])
    assert goursat_verify([desc], draws).full_product


@pytest.mark.parametrize("desc,draws", [(C_AT(1009), 2000), (GroupDescriptor("C", 2, 11), 500)], ids=repr)
def test_uniform_draws_of_the_full_group_meet_the_closed_form(desc, draws):
    """_uniform_derived draws uniform elements of the derived group: the
    fraction that classify_element accepts is regular_fraction's for the
    derived group within 5 sigma of the binomial."""
    rng = random.Random(20260809)
    hits = sum(classify_element(contains(desc, _field_matrix(desc, _uniform_derived(desc, rng)))) for _ in range(draws))
    p = float(regular_fraction(desc, 1, "der"))
    assert abs(hits - draws * p) < 5 * sqrt(draws * p * (1 - p))


SAMPLED_GROUPS = [
    C_AT(2),
    C_AT(3),
    GroupDescriptor("C", 2, 2),
    GroupDescriptor("C", 2, 5),
    GroupDescriptor("C", 2, 10007),
    GroupDescriptor("C", 3, 7),
    A_AT(1, 2),
    A_AT(1, 5),
    A_AT(2, 2),
    A_AT(2, 3),
    A_AT(3, 5),
    A_AT(3, 1009),
    A_AT(4, 7),
]


@pytest.mark.parametrize("desc", SAMPLED_GROUPS, ids=repr)
def test_uniform_derived_draws_lie_in_the_derived_group(desc):
    """Every draw preserves the form with similitude 1 and has determinant
    1 over the matrix field, GF(ell^2) in family A."""
    rng = random.Random(desc.ell + desc.r)
    for _ in range(20):
        m = _field_matrix(desc, _uniform_derived(desc, rng))
        x = contains(desc, m)
        assert x is not None and x.similitude == 1 and mat_det(m) == desc.matrix_field.one(), m


@pytest.mark.parametrize(
    "desc",
    [
        C_AT(3),
        C_AT(5),
        A_AT(2, 3),
        pytest.param(GroupDescriptor("C", 2, 2), marks=pytest.mark.slow),
        pytest.param(A_AT(3, 2), marks=pytest.mark.slow),
    ],
    ids=repr,
)
def test_uniform_derived_draws_are_uniform_on_the_listed_group(desc):
    """20 seeded draws per element of the listed derived group reach every
    element, and their chi-square statistic against uniform, with
    df = |G| - 1, stays below df + 5 sqrt(2 df), five standard deviations
    above its mean.  A draw outside the listing fails the count."""
    counts = dict.fromkeys((_natural_matrix(desc, g.matrix) for g in enumerate_group(desc, "derived")), 0)
    expected, df = 20, len(counts) - 1
    rng = random.Random(20261020)
    for _ in range(expected * len(counts)):
        counts[_uniform_derived(desc, rng)] += 1
    assert min(counts.values()) > 0
    assert sum((c - expected) ** 2 for c in counts.values()) / expected < df + 5 * sqrt(2 * df)


@pytest.mark.parametrize(
    "desc,draws",
    [(GroupDescriptor("C", 2, 10007), 400), (GroupDescriptor("C", 3, 101), 300), (A_AT(3, 1009), 200)],
    ids=repr,
)
def test_the_regular_share_of_uniform_derived_draws_meets_the_closed_form(desc, draws):
    """At groups far too large to list, the share of draws whose m-th power
    is regular, m in {1, 2}, lies within 4 sigma of regular_fraction."""
    rng = random.Random(20261020)
    elements = [contains(desc, _field_matrix(desc, _uniform_derived(desc, rng))) for _ in range(draws)]
    for m in (1, 2):
        hits = sum(classify_element(x, m) for x in elements)
        p = float(regular_fraction(desc, m, "der"))
        assert abs(hits - draws * p) < 4 * sqrt(draws * p * (1 - p)), m


def test_density_product_unitary_family():
    model = GaloisModel(
        (ModelEntry(GroupDescriptor("A", 2, 3), "full"),), 1
    )
    rep = density_product(model)
    assert rep.product == Fraction(3, 4)  # 1 - 48/192
    assert rep.per_ell[0][2]  # exceptional field flagged


def test_fractions_bounded_and_decreasing_in_ell():
    fractions = [irregular_fraction(C_AT(p), 1, "full") for p in (3, 5, 7, 11)]
    assert all(f < 1 for f in fractions)
    assert all(a > b for a, b in zip(fractions, fractions[1:]))
