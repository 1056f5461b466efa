"""The centralizer oracle against its own reference, its span path against
the scan, and the fast path against the oracle at rank 2 and 3 over ell = 3.

classify_element_oracle finds the centralizer of y = x^m by one of two
enumerations.  When I, y, ..., y^(n-1) are independent (y cyclic), the
matrices commuting with y are the polynomials in y, so it counts the span
of those powers met with the listed group; the span path must return the
very set the scan finds, on every element of GL_2(F_5) and GU_2(F_3) and
on seeded elements of GSp_4(F_2) and GU_3(F_2), where both paths occur.
Otherwise it scans the group with the linear forms of g y - y g
(_commutant_forms), stopping at the first nonzero form, and tests
abelianness on greedy generators of the centralizer, each checked as it
joins the span.  tests/oracles.py keeps classify_element_pairwise, the
pairwise walk, as the reference of the whole oracle, and the two must agree
wherever they both run: on every element of GL_2(F_3), GU_2(F_3) and
GL_2(F_5) at m = 1, 2, 3, and behind the slow marker on the other three
certify-sweep groups whole.  Behind the slow marker too, the fast path
equals the oracle on every element of GU_3(F_3) and GSp_4(F_3) at m = 1
and 2.
"""

import random

import pytest

import oracles
from frobsplit import groups
from frobsplit.finfield import power
from frobsplit.groups import (
    GroupDescriptor,
    _commutant_forms,
    _cyclic_powers,
    _group_set,
    _packed_field,
    _packed_group,
    _pmat_commute,
    _pmat_mul,
    _span,
    build_anisotropic_torus,
    classify_element,
    classify_element_oracle,
    contains,
    enumerate_group,
    enumerate_group_packed,
    pack_matrix,
    unpack_matrix,
)
from oracles import classify_element_pairwise


def _sample(desc, count, seed):
    """count seeded elements of the full group, in listing order."""
    packed = enumerate_group_packed(desc)
    picks = sorted(random.Random(seed).sample(range(len(packed)), count))
    return [contains(desc, unpack_matrix(desc, packed[i])) for i in picks]


def _assert_oracle_equals_the_pairwise_walk_on_every_element(spec):
    answers = set()
    for x in enumerate_group(GroupDescriptor(*spec)):
        for m in (1, 2, 3):
            answer = classify_element_oracle(x, m)
            assert answer == classify_element_pairwise(x, m), (x, m)
            answers.add(answer)
    assert answers == {False, True}


@pytest.mark.parametrize("spec", [("C", 1, 3), ("A", 2, 3), ("C", 1, 5)])
def test_oracle_equals_the_pairwise_walk_on_every_element(spec):
    _assert_oracle_equals_the_pairwise_walk_on_every_element(spec)


@pytest.mark.slow
@pytest.mark.parametrize("spec", [("C", 1, 7), ("C", 2, 2), ("A", 3, 2)])
def test_oracle_equals_the_pairwise_walk_on_every_element_wide(spec):
    """GSp_2(F_7), GSp_4(F_2) and GU_3(F_2), the rest of the certify-sweep
    groups, whole."""
    _assert_oracle_equals_the_pairwise_walk_on_every_element(spec)


@pytest.mark.parametrize("spec,seed", [(("C", 2, 2), 1), (("A", 3, 2), 2)])
def test_oracle_equals_the_pairwise_walk_on_a_sample(spec, seed):
    desc = GroupDescriptor(*spec)
    answers = set()
    for x in _sample(desc, 40, seed) + [build_anisotropic_torus(desc).generator]:
        for m in (1, 2):
            answer = classify_element_oracle(x, m)
            assert answer == classify_element_pairwise(x, m), (x, m)
            answers.add(answer)
    assert answers == {False, True}


def _commutes_by_forms(forms, add, g) -> bool:
    """Every linear form of _commutant_forms vanishes at g: g y = y g."""
    for form in forms:
        acc = 0
        for k, row in form:
            acc = add[acc][row[g[k]]]
        if acc:
            return False
    return True


@pytest.mark.parametrize("spec,count", [(("C", 1, 5), None), (("A", 2, 3), None), (("C", 2, 2), 40), (("A", 3, 2), 40)])
def test_span_path_returns_the_centralizer_the_scan_finds(spec, count):
    """For each cyclic y = x^m, m = 1, 2, the q^n combinations of I, y,
    ..., y^(n-1) are distinct, and those in the group are exactly the
    listed g with g y = y g.  The samples of GSp_4(F_2) and GU_3(F_2) reach
    both paths."""
    desc = GroupDescriptor(*spec)
    pg = _packed_group(desc)
    n, q, add = pg.n, pg.pf.q, pg.pf.add
    packed = enumerate_group_packed(desc)
    elements = enumerate_group(desc) if count is None else _sample(desc, count, seed=6)
    paths = set()
    for x in elements:
        for m in (1, 2):
            y = power(pack_matrix(x.matrix), m, pg.mm, pg.identity)
            powers = _cyclic_powers(pg, y)
            paths.add(powers is not None)
            if powers is None:
                continue
            span = set(_span(pg.pf, powers))
            assert len(span) == q**n, (x, m)
            forms = _commutant_forms(pg, y)
            assert span & _group_set(desc) == {g for g in packed if _commutes_by_forms(forms, add, g)}, (x, m)
    assert True in paths
    if count is not None:
        assert paths == {False, True}


@pytest.mark.parametrize("spec,count", [(("A", 2, 3), None), (("C", 2, 2), 40)])
def test_abelian_test_equals_the_pairwise_walk_at_every_centralizer_order(spec, count, monkeypatch):
    """In GL_2(F_7), GU_2(F_3), GU_2(F_5), GSp_4(F_2) and GU_3(F_2) every
    centralizer of the torus order is abelian, so there the abelian test
    never decides an answer.  With the target set to |C(y)| it decides
    every one: both oracles then answer whether C(y) is abelian."""
    desc = GroupDescriptor(*spec)
    elements = enumerate_group(desc) if count is None else _sample(desc, count, seed=5)
    mm = _packed_group(desc).mm
    packed = enumerate_group_packed(desc)
    answers = set()
    for x in elements:
        y = pack_matrix(x.matrix)
        size = sum(mm(g, y) == mm(y, g) for g in packed)
        for module in (groups, oracles):
            monkeypatch.setattr(module, "torus_order", lambda desc: size)
        answer = classify_element_oracle(x)
        assert answer == classify_element_pairwise(x), x
        answers.add(answer)
    assert answers == {False, True}


def _assert_commute_is_the_product_test(n, pf, pairs):
    commute, mm = _pmat_commute(pf, n), _pmat_mul(pf, n)
    outcomes = set()
    for a, b in pairs:
        expected = mm(a, b) == mm(b, a)
        assert commute(a, b) == expected, (a, b)
        outcomes.add(expected)
    return outcomes


def test_commute_is_the_product_test_on_every_pair_of_gl2_f3():
    desc = GroupDescriptor("C", 1, 3)
    elements = enumerate_group_packed(desc)
    assert len(elements) == 48
    pairs = [(a, b) for a in elements for b in elements]
    outcomes = _assert_commute_is_the_product_test(2, _packed_group(desc).pf, pairs)
    assert outcomes == {False, True}


def _last_row_pairs(n, q, rng, count):
    """(a, b) that differ only in the last cell, with a zero in its last
    column above the diagonal and in its last row except a[n-1][n-2] != 0
    and the diagonal.  Then ab - ba = c (a E - E a) for E = E_(n-1, n-1) and
    c = b_(n-1, n-1) - a_(n-1, n-1), which is nonzero at (n-1, n-2) alone:
    the latest cell where two products can first differ, as ab - ba has
    trace 0."""
    pairs = []
    for _ in range(count):
        a = [rng.randrange(q) for _ in range(n * n)]
        for i in range(n - 1):
            a[i * n + n - 1] = a[(n - 1) * n + i] = 0
        a[n * n - 2] = rng.randrange(1, q)
        b = a[:-1] + [(a[-1] + rng.randrange(1, q)) % q]
        pairs.append((tuple(a), tuple(b)))
    return pairs


def _torus_power_pairs(desc, rng, count):
    """Commuting pairs: two powers of the torus generator, packed."""
    pg = _packed_group(desc)
    torus = build_anisotropic_torus(desc)
    gen = pack_matrix(torus.generator.matrix)
    order = torus.order
    powers = [power(gen, rng.randrange(order), pg.mm, pg.identity) for _ in range(2 * count)]
    return list(zip(powers[::2], powers[1::2]))


@pytest.mark.parametrize("spec", [("A", 3, 2), ("A", 2, 3), ("A", 3, 3)], ids=repr)
def test_commute_is_the_product_test_on_seeded_pairs(spec):
    """Over GF(4) and GF(9): random pairs, commuting powers of a torus
    generator, and pairs whose products differ only at (n-1, n-2)."""
    desc = GroupDescriptor(*spec)
    n, q = desc.matrix_dim, desc.matrix_field.q
    pf = _packed_field(desc.matrix_field)
    rng = random.Random(q * n)
    randoms = [tuple(rng.randrange(q) for _ in range(n * n)) for _ in range(400)]
    _assert_commute_is_the_product_test(n, pf, zip(randoms[::2], randoms[1::2]))
    assert _assert_commute_is_the_product_test(n, pf, _torus_power_pairs(desc, rng, 100)) == {True}
    assert _assert_commute_is_the_product_test(n, pf, _last_row_pairs(n, q, rng, 100)) == {False}


def _assert_fast_path_equals_the_oracle(desc, count, seed):
    elements = _sample(desc, count - 1, seed) + [build_anisotropic_torus(desc).generator]
    answers = set()
    for x in elements:
        for m in (1, 2):
            answer = classify_element(x, m)
            assert answer == classify_element_oracle(x, m), (x, m)
            answers.add(answer)
    assert answers == {False, True}


def test_fast_path_equals_the_oracle_on_gu3_f3():
    """Rank 3 over ell = 3: 11 seeded elements of GU_3(F_3) (order 48,384)
    and the torus generator, at m = 1 and 2."""
    _assert_fast_path_equals_the_oracle(GroupDescriptor("A", 3, 3), 12, seed=3)


@pytest.mark.slow
def test_fast_path_equals_the_oracle_on_gsp4_f3():
    """Rank 2 over ell = 3: 49 seeded elements of GSp_4(F_3) (order
    103,680) and the torus generator, at m = 1 and 2."""
    _assert_fast_path_equals_the_oracle(GroupDescriptor("C", 2, 3), 50, seed=4)


@pytest.mark.slow
@pytest.mark.parametrize(
    "spec,m,scanned",
    [(("A", 3, 3), 1, 1968), (("A", 3, 3), 2, 21120), (("C", 2, 3), 1, 6984), (("C", 2, 3), 2, 62784)],
    ids=["GU3(F3)-m1", "GU3(F3)-m2", "GSp4(F3)-m1", "GSp4(F3)-m2"],
)
def test_fast_path_equals_the_oracle_on_every_element_at_rank_2_and_3(spec, m, scanned):
    """GU_3(F_3) (order 48,384) and GSp_4(F_3) (order 103,680) whole, at
    m = 1 and 2.  scanned counts the elements whose y = x^m is not cyclic
    and so goes through the scan; the rest take the span path."""
    desc = GroupDescriptor(*spec)
    pg = _packed_group(desc)
    answers, count = set(), 0
    for x in enumerate_group(desc):
        answer = classify_element(x, m)
        assert answer == classify_element_oracle(x, m), (x, m)
        answers.add(answer)
        count += _cyclic_powers(pg, power(pack_matrix(x.matrix), m, pg.mm, pg.identity)) is None
    assert answers == {False, True}
    assert count == scanned
