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

import operator
import random
from fractions import Fraction
from functools import partial
from math import prod, sqrt

from .finfield import CompositeModulus, Record, is_prime, prime_divisors
from .groups import (
    MAX_GROUP_SIZE,
    BudgetExceeded,
    GroupDescriptor,
    GroupElement,
    _count_avoiding,
    _field_matrix,
    _imat_identity,
    _imat_inverse,
    _imat_mul,
    _lattice,
    _natural_matrix,
    _uniform_derived,
    contains,
    group_order,
    mat_det,
    normalizer_census,
    regular_torus_count,
)

_SQUEEZE_PARTS = {"der": "derived", "full": "full"}
MAX_GENERATOR_DRAWS = 200  # random_generator_tuples' retry cap


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
        super().__init__(desc, squeeze)


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
        super().__init__(entries, m)

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


def product_and_bound(fractions) -> tuple:
    """The per-prime fractions' product and C^|A| bound, C the worst of them."""
    return prod(fractions, start=Fraction(1)), max(fractions, default=Fraction(1)) ** len(fractions)


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
    product, bound = product_and_bound([frac for _, frac, _ in per])
    complement = 1 - product
    return DensityReport(
        per_ell=tuple(per),
        product=product,
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


# ---------------------------------------------------------------------------
# simulation


class SimulationResult(Record):
    """hits counts the samples landing in the irregular class at every
    prime; the draws come from one stream, so streams is 1 and stream_layout
    the one row (stream_seed, samples, hits), for replay."""

    __slots__ = ("samples", "hits", "empirical", "expected", "z_score", "seed", "streams", "stream_layout")


def chebotarev_simulate(model: GaloisModel, samples: int, seed: int) -> SimulationResult:
    """Seeded Bernoulli simulation of the product density.

    Each sample draws one exact Bernoulli indicator per prime (probability =
    the exact irregular fraction of density_product) and scores a hit when
    every indicator fires.  The draws come from one random.Random seeded
    with (seed ^ 0x9E3779B97F4A7C15) mod 2^63, so a fixed (seed, samples)
    reproduces the result bit for bit.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    report = density_product(model)
    # r < den uniform is CPython's randrange(den) (Random._randbelow_with_getrandbits):
    # den.bit_length() random bits, redrawn while r >= den; so a seed gives the same draws
    draws = [(p.numerator, p.denominator, p.denominator.bit_length()) for _, p, _ in report.per_ell]
    stream_seed = (seed ^ 0x9E3779B97F4A7C15) % 2**63
    getrandbits = random.Random(stream_seed).getrandbits
    hits = 0
    for _ in range(samples):
        ok = True
        for num, den, k in draws:  # one draw per prime, none skipped
            r = getrandbits(k)
            while r >= den:
                r = getrandbits(k)
            if r >= num:
                ok = False
        if ok:
            hits += 1
    z = None
    if 0 < report.product < 1:
        mean = float(report.product)
        z = (hits - samples * mean) / sqrt(samples * mean * (1 - mean))
    return SimulationResult(
        samples=samples,
        hits=hits,
        empirical=Fraction(hits, samples),
        expected=report.product,
        z_score=z,
        seed=seed,
        streams=1,
        stream_layout=((stream_seed, samples, hits),),
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


def _check_points(factors) -> None:
    """Each factor's projective points, which bound its orbits, against MAX_GROUP_SIZE."""
    for d in factors:
        points = (d.ell ** (2 * d.r) - 1) // (d.ell - 1)
        if points > MAX_GROUP_SIZE:
            raise BudgetExceeded(
                f"factor {d} acts on {points} projective points, over the cap MAX_GROUP_SIZE = {MAX_GROUP_SIZE}"
            )


def _chain_orbits(factors, tuples, target: int):
    """The orbit sizes of a stabilizer chain (Sims 1970; Seress 2003, ch. 4)
    of the group the tuples generate in the product of the factor groups,
    which multiply to its order.

    Elements are tuples of _natural_matrix matrices acting on row vectors
    from the right.  Per factor, the base is a projective frame, the lines
    of e_1..e_N and of their sum, which only the scalars fix pointwise,
    then the vector e_1.  Level k holds the elements fixing base points
    0..k-1; its orbit maps each point to its parent and generator in the
    search tree (a Schreier vector, Seress 2003, 4.1), whose paths give the
    transversal elements.  A Schreier generator of level k that does not
    sift through the levels below joins their generators, down to where
    the sift stopped (Holt, Eick and O'Brien 2005, 4.4).  It joins only
    lower levels, so a level is final once the levels above it are
    complete: the levels are completed from the top, each pair tested
    once.  The product of the orbit sizes bounds the order from below at
    every step, so the run stops once it reaches target, a known multiple
    of the order."""
    primes = [d.ell for d in factors]
    muls = [partial(_imat_mul, p=p) for p in primes]
    ident = tuple(_imat_identity(2 * d.r) for d in factors)
    base = []  # (factor, point, whether the point is a line)
    for f, eye in enumerate(ident):
        base += [(f, e, True) for e in eye] + [(f, (1,) * len(eye), True), (f, eye[0], False)]
    n = len(base)

    def mul(a, b):  # the levels below a factor's base are the identity on it
        return tuple(x if y == e else y if x == e else m(x, y) for x, y, m, e in zip(a, b, muls, ident))

    def inverse(g):
        return tuple(x if x == e else _imat_inverse(x, p) for x, p, e in zip(g, primes, ident))

    def act(k, x, g):
        """x g on the factor of base point k, scaled to lead with 1 if that point is a line."""
        f, _, line = base[k]
        p = primes[f]
        y = [sum(map(operator.mul, x, col)) % p for col in zip(*g[f])]
        if line:
            lead = pow(next(filter(None, y)), -1, p)
            y = [c * lead % p for c in y]
        return tuple(y)

    orbits = [{v: None} for _, v, _ in base]  # point -> (parent, index of its generator)
    known = [{v: (ident, ident)} for _, v, _ in base]  # point -> (u, u^-1)
    gens = [[] for _ in range(n)]  # (s, s^-1) per generator of level k

    def transversal(k, y):
        """(u, u^-1), u in level k moving base point k to y, along the tree; kept once built."""
        path = []
        while y not in known[k]:
            path.append(y)
            y = orbits[k][y][0]
        u, ui = known[k][y]
        for y in reversed(path):
            s, si = gens[k][orbits[k][y][1]]
            u, ui = mul(u, s), mul(si, ui)
            known[k][y] = (u, ui)
        return u, ui

    def add(g, first, k):
        """g, fixing base points < k, joins levels first..k."""
        pair = (g, inverse(g))
        for level in range(first, k + 1):
            gens[level].append(pair)
            orbit, last = orbits[level], len(gens[level]) - 1
            queue, old = list(orbit), len(orbit)
            for j, x in enumerate(queue):  # old points need only the new generator
                for index in range(last if j < old else 0, last + 1):
                    y = act(level, x, gens[level][index][0])
                    if y not in orbit:
                        orbit[y] = (x, index)
                        queue.append(y)

    def sift(h, k):
        """Strip h, which fixes base points < k, down the levels; add what is left where it leaves an orbit."""
        for level in range(k, n):
            y = act(level, base[level][1], h)
            if y not in orbits[level]:
                add(h, k, level)
                return
            h = mul(h, transversal(level, y)[1])

    for t in tuples:
        sift(t, 0)
    for i, x, s in ((i, x, s) for i in range(n) for x in orbits[i] for s, _ in gens[i]):
        if prod(map(len, orbits)) >= target:
            break
        u, vi = transversal(i, x)[0], transversal(i, act(i, x, s))[1]
        sift(mul(mul(u, s), vi), i + 1)  # u s v^-1 fixes base points 0..i
    return [len(orbit) for orbit in orbits]


def _derived_chain(d: GroupDescriptor, matrices) -> bool:
    """Whether the natural matrices generate the derived group of d."""
    order = group_order(d, "derived")
    return prod(_chain_orbits([d], [(m,) for m in matrices], order)) == order


def goursat_verify(factors, generators) -> GoursatReport:
    """Check whether generator tuples span the full product of derived groups.

    factors: GroupDescriptors (their derived subgroups are the factor
    groups); generators: tuples of GroupElements, one per factor, each of
    similitude 1 and determinant 1.  The order of the subgroup they
    generate is read off one stabilizer chain on the natural action
    (_chain_orbits), whose orbits are bounded by the projective points of
    the factors, not by their orders.  A full closure makes every
    projection surjective; only a proper one runs a chain per factor.
    When the distinct-simple-quotient hypothesis holds, surjective
    projections with a proper closure are an implementation contradiction
    and raise.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    _check_points(factors)
    if not generators:
        raise ValueError("need at least one generator tuple")
    orders = [group_order(d, "derived") for d in factors]
    product_order = prod(orders)
    tuples = []
    for gen in generators:
        if len(gen) != len(factors):
            raise ValueError("generator tuple length must match the factor count")
        members = [contains(d, g.matrix) for d, g in zip(factors, gen)]
        if any(m is None or m.similitude != 1 or mat_det(m.matrix) != m.desc.matrix_field.one() for m in members):
            raise ValueError("generator component outside its derived group")
        tuples.append(tuple(_natural_matrix(m.desc, m.matrix) for m in members))

    closure_order = prod(_chain_orbits(factors, tuples, product_order))
    full = closure_order == product_order
    surjective = [full or _derived_chain(d, [t[i] for t in tuples]) for i, d in enumerate(factors)]
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


def random_generator_tuples(factors, rng: random.Random, count: int = 2):
    """Draw `count` random generator tuples, retrying until every projection
    is surjective; returns GroupElement tuples.  Each component is uniform
    in its derived group (groups._uniform_derived); the chains only test
    surjectivity.  Every nontrivial derived group here (Sp_2r, and SU_r
    with r >= 2) is non-abelian, so a single tuple can only generate
    trivial factors."""
    if count < 1:
        raise ValueError("need at least one generator tuple")
    factors = list(factors)
    if count == 1 and any(group_order(d, "derived") > 1 for d in factors):
        raise ValueError("one element never generates a non-abelian derived group: draw at least 2 tuples")
    _check_points(factors)
    for _ in range(MAX_GENERATOR_DRAWS):
        tuples = [tuple(_uniform_derived(d, rng) for d in factors) for _ in range(count)]
        if all(_derived_chain(d, [t[i] for t in tuples]) for i, d in enumerate(factors)):
            return [tuple(GroupElement(d, _field_matrix(d, m), 1) for d, m in zip(factors, t)) for t in tuples]
    raise BudgetExceeded(
        f"no {count} generator tuples with surjective projections within the retry cap of {MAX_GENERATOR_DRAWS} draws"
    )
