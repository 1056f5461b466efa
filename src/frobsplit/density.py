"""Exact density computations and their statistical consistency checks.

The central quantity is the fraction of elements of a similitude group (or
of its derived subgroup) whose m-th power fails to be regular with maximally
anisotropic centralizer.  Products of these fractions over a set of primes
bound the density of primes where every residual Frobenius image fails the
regularity test; the complement is the lower bound for the density of primes
certified by at least one good prime.

Everything exact is a Fraction.  The Chebotarev side is simulated at the
level of independent per-prime Bernoulli indicators with the exact
fractions as probabilities (the product hypothesis makes the indicators
independent), so the simulation is a pure statistical consistency check of
the product formula, reproducible from its seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod, sqrt

from .finfield import CompositeModulus, Record, is_prime, make_field, prime_divisors, subfield_degree
from .groups import (
    BudgetExceeded,
    GroupDescriptor,
    GroupElement,
    _count_avoiding,
    _lattice,
    _mulclose,
    _packed_group,
    enumerate_group_packed,
    group_order,
    normalizer_census,
    pack_matrix,
    regular_torus_count,
    unpack_matrix,
)

MAX_FACTOR_ORDER = 10**5

_SQUEEZE_PARTS = {"der": "derived", "full": "full"}


class GoursatContradiction(AssertionError):
    """Surjective projections generated a proper subgroup in-hypothesis;
    that contradicts distinctness of the simple quotients and means the
    implementation (not the input) is wrong."""


def regular_fraction(desc: GroupDescriptor, m: int = 1, squeeze: str = "full") -> Fraction:
    """|J_{l,m}(H)| / |H| via the count identity (|G|/|N|) * |T*_m ∩ H|."""
    if squeeze not in _SQUEEZE_PARTS:
        raise ValueError(f"squeeze must be 'der' or 'full', got {squeeze!r}")
    part = _SQUEEZE_PARTS[squeeze]
    nc = normalizer_census(desc)
    tori = group_order(desc) // nc.normalizer_order
    j_count = tori * regular_torus_count(desc, m, part)
    return Fraction(j_count, group_order(desc, part))


def irregular_fraction(desc: GroupDescriptor, m: int = 1, squeeze: str = "full") -> Fraction:
    """|I_{l,m}(H)| / |H|, the complement of the regular fraction."""
    return 1 - regular_fraction(desc, m, squeeze)


class ModelEntry(Record):
    __slots__ = ("desc", "squeeze")

    def __init__(self, desc: GroupDescriptor, squeeze: str = "full"):
        if squeeze not in _SQUEEZE_PARTS:
            raise ValueError(f"squeeze must be 'der' or 'full', got {squeeze!r}")
        self._assign(desc, squeeze)


class GaloisModel(Record):
    """A finite set of primes with one group model per prime, plus the
    power level m (the degree of the auxiliary extension)."""

    __slots__ = ("entries", "m")

    def __init__(self, entries: tuple, m: int = 1):
        ells = [e.desc.ell for e in entries]
        if len(set(ells)) != len(ells):
            raise ValueError("primes in a model must be distinct")
        if m < 1:
            raise ValueError("m must be at least 1")
        self._assign(entries, m)

    @staticmethod
    def uniform(family: str, r: int, primes, m: int = 1, squeeze: str = "full") -> "GaloisModel":
        return GaloisModel(
            tuple(ModelEntry(GroupDescriptor(family, r, ell), squeeze) for ell in primes),
            m,
        )


class DensityReport(Record):
    """Exact per-prime fractions and their product, with the C^|A| bound.

    per_ell holds (ell, irregular Fraction, exceptional flag) per prime;
    bound is C^|A| with C the worst per-prime fraction; complement is the
    lower bound for the certified density, and residue_degree_one_bound the
    complement scaled by 1/m (a model convention).
    """

    __slots__ = ("per_ell", "product", "bound", "complement", "residue_degree_one_bound", "m")

    def __init__(
        self,
        per_ell: tuple,
        product: Fraction,
        bound: Fraction,
        complement: Fraction,
        residue_degree_one_bound: Fraction,
        m: int,
    ):
        self._assign(per_ell, product, bound, complement, residue_degree_one_bound, m)


def density_product(model: GaloisModel) -> DensityReport:
    """Exact product of the per-prime irregular fractions.

    The residue_degree_one_bound field carries the conventional 1/m scaling
    of the complement used when only residue-degree-one primes are counted;
    it is a reporting convention, not a computed density.
    """
    per = []
    for entry in model.entries:
        frac = irregular_fraction(entry.desc, model.m, entry.squeeze)
        per.append((entry.desc.ell, frac, entry.desc.exceptional_field))
    prod = Fraction(1)
    for _, frac, _ in per:
        prod *= frac
    worst = max((frac for _, frac, _ in per), default=Fraction(1))
    bound = worst ** len(per)
    complement = 1 - prod
    return DensityReport(
        per_ell=tuple(per),
        product=prod,
        bound=bound,
        complement=complement,
        residue_degree_one_bound=complement / model.m,
        m=model.m,
    )


def cm_subfield_fraction(two_g: int, ell: int) -> Fraction:
    """Fraction of units of GF(ell^2g) lying in a proper subfield.

    Inclusion-exclusion over the maximal proper subfields GF(ell^(2g/p)).
    """
    if two_g < 2 or two_g % 2 != 0:
        raise ValueError("the extension degree must be an even number >= 2")
    if not is_prime(ell):
        raise CompositeModulus(f"{ell} is not prime")
    n = ell**two_g - 1
    subfields = [_lattice(ell ** (two_g // p) - 1, 0, n) for p in prime_divisors(two_g)]
    return Fraction(n - _count_avoiding(1, n, (1, 0, 1), subfields), n)


def cm_subfield_fraction_exhaustive(two_g: int, ell: int) -> Fraction:
    """The same fraction by per-element subfield-degree counting."""
    if ell**two_g > 10**6:
        raise BudgetExceeded("field too large for exhaustive subfield counting")
    field = make_field(ell, two_g)
    hits = sum(
        1 for x in field.elements() if not x.is_zero() and subfield_degree(x) < two_g
    )
    return Fraction(hits, field.q - 1)


# ---------------------------------------------------------------------------
# simulation


class SimulationResult(Record):
    """hits counts the samples landing in the irregular class at every
    prime; stream_layout holds (stream_seed, samples, hits) per stream, for
    replay."""

    __slots__ = ("samples", "hits", "empirical", "expected", "z_score", "seed", "streams", "stream_layout")

    def __init__(
        self,
        samples: int,
        hits: int,
        empirical: Fraction,
        expected: Fraction,
        z_score: float | None,
        seed: int,
        streams: int,
        stream_layout: tuple,
    ):
        self._assign(samples, hits, empirical, expected, z_score, seed, streams, stream_layout)


def _stream_seed(seed: int, index: int) -> int:
    return (seed ^ ((index + 1) * 0x9E3779B97F4A7C15)) % 2**63


def chebotarev_simulate(
    model: GaloisModel, samples: int, seed: int, streams: int = 1
) -> SimulationResult:
    """Seeded Bernoulli simulation of the product density.

    Each sample draws one exact Bernoulli indicator per prime (probability =
    the exact irregular fraction) and scores a hit when every indicator
    fires.  Streams split the sample count and merge hit counts by addition;
    fixed (seed, samples, streams) reproduces the result bit for bit.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if streams < 1 or streams > samples:
        raise ValueError("stream count must be in [1, samples]")
    probs = [
        irregular_fraction(e.desc, model.m, e.squeeze) for e in model.entries
    ]
    # r < den uniform is CPython's randrange(den) (Random._randbelow_with_getrandbits):
    # den.bit_length() random bits, redrawn while r >= den; so a seed gives the same draws
    draws = [(p.numerator, p.denominator, p.denominator.bit_length()) for p in probs]
    layout = []
    total_hits = 0
    base, extra = divmod(samples, streams)
    for i in range(streams):
        n_i = base + (1 if i < extra else 0)
        s_i = _stream_seed(seed, i)
        getrandbits = random.Random(s_i).getrandbits
        hits = 0
        for _ in range(n_i):
            ok = True
            for num, den, k in draws:  # one draw per prime, none skipped
                r = getrandbits(k)
                while r >= den:
                    r = getrandbits(k)
                if r >= num:
                    ok = False
            if ok:
                hits += 1
        layout.append((s_i, n_i, hits))
        total_hits += hits
    expected = Fraction(1)
    for p in probs:
        expected *= p
    z = None
    if 0 < expected < 1:
        mean = float(expected)
        z = (total_hits - samples * mean) / sqrt(samples * mean * (1 - mean))
    return SimulationResult(
        samples=samples,
        hits=total_hits,
        empirical=Fraction(total_hits, samples),
        expected=expected,
        z_score=z,
        seed=seed,
        streams=streams,
        stream_layout=tuple(layout),
    )


# ---------------------------------------------------------------------------
# product surjectivity


class GoursatReport(Record):
    __slots__ = (
        "factor_orders",
        "projections_surjective",
        "closure_order",
        "product_order",
        "full_product",
        "in_hypothesis",
        "note",
    )

    def __init__(
        self,
        factor_orders: tuple,
        projections_surjective: tuple,
        closure_order: int,
        product_order: int,
        full_product: bool,
        in_hypothesis: bool,
        note: str,
    ):
        self._assign(
            factor_orders, projections_surjective, closure_order, product_order, full_product, in_hypothesis, note
        )


def _surjections(tuples, groups_packed, pgs):
    """Per factor, lazily, whether the tuples' components generate it."""
    return (
        len(_mulclose([t[i] for t in tuples], pg.left, len(grp))) == len(grp)
        for i, (grp, pg) in enumerate(zip(groups_packed, pgs))
    )


def _hypothesis_note(factors) -> str:
    ells = [d.ell for d in factors]
    if len(set(ells)) != len(ells):
        return "repeated primes: adjoint quotients are not distinct"
    for d in factors:
        if d.exceptional_field:
            return f"{d} lies over an exceptional small field"
        if d.family == "A" and d.r < 2:
            return f"{d} has rank < 2 and no nonabelian simple quotient"
    return ""


def _factor_orders(factors) -> list:
    """The derived-group orders of the factors, each checked against
    MAX_FACTOR_ORDER before anything is listed."""
    orders = [group_order(d, "derived") for d in factors]
    for d, o in zip(factors, orders):
        if o > MAX_FACTOR_ORDER:
            raise BudgetExceeded(
                f"factor {d} has derived order {o} over the cap MAX_FACTOR_ORDER = {MAX_FACTOR_ORDER}"
            )
    return orders


def _chain_orbits(tuples, pgs, orders):
    """The orbits of a Schreier-Sims chain (Sims 1970; Seress 2003, ch. 4)
    of the group the tuples generate in the product of the factor groups,
    along the chain of projections: their sizes multiply to its order.

    Level k holds the generated elements trivial on factors 0..k-1, stored
    as their components k..; its orbit is their image in factor k, a dict
    from each point to its parent and generator in the search tree (a
    Schreier vector, Seress 2003, 4.1).  The tree path of a point gives its
    transversal element and the inverse when a pair or a sift first needs
    them.  The pairs (orbit point, generator) of level k give its Schreier
    generators, which generate level k + 1; one that does not sift through
    the levels below joins their generators, down to the level where the
    sift stopped (SCHREIERSIMS in Holt, Eick and O'Brien 2005, 4.4).
    Deeper generators are trivial on factor k, so level k's orbit moves
    under its own generators alone; its Schreier pairs take them all.  Once
    the orbits below level k fill their factors every element trivial on
    factors 0..k sifts, so level k tests no more pairs."""
    n = len(pgs)
    tails = [[pg.mm for pg in pgs[k:]] for k in range(n + 1)]
    ident = tuple(pg.identity for pg in pgs)

    def mul(a, b, k):  # the product of two elements given by components k..
        return tuple(mm(x, y) for mm, x, y in zip(tails[k], a, b))

    orbits = [{ident[k]: None} for k in range(n)]  # point -> (parent, own generator)
    known = [{ident[k]: (ident[k:], ident[k:])} for k in range(n)]  # point -> (u, u^-1)
    own = [[] for _ in range(n)]  # (generator, inverse) moving factor k
    gens = [[] for _ in range(n)]  # every generator of level k, from component k
    done = [[] for _ in range(n)]  # per generator of level k: orbit points paired

    def transversal(k, y):
        """(u, u^-1) with u in level k and component y, along the orbit's
        tree of parents, kept once built."""
        path = []
        while y not in known[k]:
            path.append(y)
            y = orbits[k][y][0]
        u, ui = known[k][y]
        for y in reversed(path):
            s, si = own[k][orbits[k][y][1]]
            u, ui = mul(u, s, k), mul(si, ui, k)
            known[k][y] = (u, ui)
        return u, ui

    def add(g, first, k):
        """g, trivial on factors < k, joins levels first..k and moves factor k."""
        for level in range(first, k + 1):
            gens[level].append(ident[level:k] + g)
            done[level].append(0)
        own[k].append((g, tuple(pg.inverse(x) for pg, x in zip(pgs[k:], g))))
        orbit, mm = orbits[k], tails[k][0]
        frontier, fresh = list(orbit), len(own[k]) - 1  # old points need only the new generator
        while frontier:
            new = []
            for x in frontier:
                for index in range(fresh, len(own[k])):
                    y = mm(x, own[k][index][0][0])
                    if y not in orbit:
                        orbit[y] = (x, index)
                        new.append(y)
            frontier, fresh = new, 0

    def sift(h, k):
        """Strip h, given by components k.., down the levels; the level
        where it leaves an orbit with its residue, or None at the identity."""
        while k < n:
            if h[0] not in orbits[k]:
                return k, h
            h = mul(h[1:], transversal(k, h[0])[1][1:], k + 1)
            k += 1
        return None

    def residue(i):
        """The first untested pair of level i whose Schreier generator does
        not sift, as sift reports it; None once every pair sifts."""
        points, mm = list(orbits[i]), tails[i][0]
        for g, s in enumerate(gens[i]):
            while done[i][g] < len(points):
                x = points[done[i][g]]
                done[i][g] += 1
                u, vi = transversal(i, x)[0], transversal(i, mm(x, s[0]))[1]  # u s v^-1 is 1 on factor i
                stripped = sift(mul(mul(u[1:], s[1:], i + 1), vi[1:], i + 1), i + 1)
                if stripped is not None:
                    return stripped
        return None

    for t in tuples:
        k = next((k for k in range(n) if t[k] != ident[k]), n)
        if k < n:
            add(t[k:], 0, k)
    i = n - 1
    while i >= 0:
        full_below = all(len(orbits[j]) == orders[j] for j in range(i + 1, n))
        stripped = None if full_below else residue(i)
        if stripped is None:
            i -= 1
        else:
            k, h = stripped
            add(h, i + 1, k)
            i = k
    return [len(orbit) for orbit in orbits]


def goursat_verify(factors, generators) -> GoursatReport:
    """Check whether generator tuples span the full product of derived groups.

    factors: GroupDescriptors (their derived subgroups are the factor
    groups); generators: tuples of GroupElements, one per factor.  Reports
    per-factor surjectivity of the projections and whether the generated
    subgroup is the whole product, whose order is read off the projection
    chain (_chain_orbits) in work about the sum, not the product, of the
    factor orders.  When the distinct-simple-quotient hypothesis holds,
    surjective projections with a proper closure are an implementation
    contradiction and raise.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    orders = _factor_orders(factors)
    product_order = prod(orders)
    if not generators:
        raise ValueError("need at least one generator tuple")

    groups_packed = [frozenset(enumerate_group_packed(d, "derived")) for d in factors]
    pgs = [_packed_group(d) for d in factors]
    tuples = []
    for gen in generators:
        if len(gen) != len(factors):
            raise ValueError("generator tuple length must match the factor count")
        packed = tuple(pack_matrix(g.matrix) for g in gen)
        for comp, grp in zip(packed, groups_packed):
            if comp not in grp:
                raise ValueError("generator component outside its derived group")
        tuples.append(packed)

    surjective = list(_surjections(tuples, groups_packed, pgs))
    closure_order = prod(_chain_orbits(tuples, pgs, orders))
    full = closure_order == product_order
    note = _hypothesis_note(factors)
    in_hyp = note == ""
    if in_hyp and all(surjective) and not full:
        raise GoursatContradiction(
            f"projections surject but the closure has order {closure_order} < {product_order}"
        )
    return GoursatReport(
        factor_orders=tuple(orders),
        projections_surjective=tuple(surjective),
        closure_order=closure_order,
        product_order=product_order,
        full_product=full,
        in_hypothesis=in_hyp,
        note=note or "distinct nonabelian simple quotients",
    )


def random_generator_tuples(factors, rng: random.Random, count: int = 2, max_tries: int = 200):
    """Draw `count` random generator tuples, retrying until every projection
    is surjective; returns GroupElement tuples.  Every nontrivial derived
    group here (Sp_2r, and SU_r with r >= 2) is non-abelian, so a single
    tuple can only generate trivial factors."""
    if count < 1:
        raise ValueError("need at least one generator tuple")
    factors = list(factors)
    if count == 1 and any(group_order(d, "derived") > 1 for d in factors):
        raise ValueError("one element never generates a non-abelian derived group: draw at least 2 tuples")
    _factor_orders(factors)
    groups_packed = [enumerate_group_packed(d, "derived") for d in factors]
    pgs = [_packed_group(d) for d in factors]
    for _ in range(max_tries):
        tuples = [
            tuple(rng.choice(grp) for grp in groups_packed) for _ in range(count)
        ]
        if all(_surjections(tuples, groups_packed, pgs)):
            out = []
            for t in tuples:
                elems = []
                for d, comp, pg in zip(factors, t, pgs):
                    elems.append(GroupElement(d, unpack_matrix(d, comp), pg.multiplier(comp)))
                out.append(tuple(elems))
            return out
    raise BudgetExceeded(
        f"no {count} generator tuples with surjective projections within the retry cap of {max_tries} draws"
    )
