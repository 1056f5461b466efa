"""Symplectic and unitary similitude groups over small finite fields.

Family C is GSp_{2r}(GF(ell)) acting on a 2r-dimensional space with the
antidiagonal(1..1,-1..-1) symplectic Gram matrix.  Family A is the unitary
similitude group of the identity Hermitian form on GF(ell^2)^r, with
conjugation x -> x^ell; its natural GF(ell)-dimension is also 2r.

Each family carries an explicit maximally anisotropic maximal torus built by
embedding a field multiplication action and changing basis so the standard
form is preserved on the nose:

* family C and family A with r odd: the subgroup of GF(ell^(2r))* whose
  norm down the degree-2 step lands in the prime field, acting by
  multiplication in the regular representation (cyclic of order
  (ell^r + 1)(ell - 1));
* family A with r even: the dual-pair torus preserving a decomposition into
  two maximal isotropic subspaces in duality, one block acting through
  GF(ell^r)* and the other through the similitude-twisted inverse conjugate
  (order (ell^r - 1)(ell - 1), generated by two elements).

The normalizer census is a closed form: |W| = |N(T)/T| is 2r in family C
and r in family A at every ell.  A regular t in T has C_G(t) = T, so W
acts simply on the G-conjugates of t inside T; by Lang's theorem these are
the elements of T with the characteristic polynomial of t, which are its
Galois conjugates (2r over GF(ell), r over GF(ell^2), or s conjugates times
the block swap for the dual-pair torus of rank 2s).  Enumeration of N(T)
is kept only as normalizer_census_oracle, the test oracle that certifies
the closed form on small groups.

The regular torus count |T*_m| is a closed form too.  Index the norm-line
torus by i mod N = |T|, x = zeta^((ell^r - 1)/(ell - 1) i), and the dual-pair
torus of rank 2s by (w, i), w mod ell - 1 and i mod n = ell^r - 1.  Every
exponent set counted is then a subgroup of Z/k x Z/n, with k = ell - 1 for
the dual-pair torus and k = 1, n = N otherwise.  The parts of T (similitude
1, determinant 1) are subgroups, and x^m is irregular iff its exponent
solves one of these homogeneous congruences alpha i = beta w (mod n), whose
solutions form a subgroup: x^m lies in GF(ell^(2r/p)), p | 2r:
m (ell^(2r/p) - 1) i = 0 (mod N); the block gamma^(mi) lies in
GF(ell^(2s/p)), p | s: m (ell^(2s/p) - 1) i = 0 (mod n); two block
eigenvalues coincide: m (ell^(2u) + ell^(2v+1)) i = m w n/(ell - 1) (mod n)
for some 0 <= u, v < s, well defined for w mod ell - 1.  Each subgroup is
kept as its lattice in Z^2 in Hermite normal form (a, b, d): w = 0 (mod a)
and i = (w/a) b (mod d), of size (k/a)(n/d).  Lattices meet in lattices, so
regular_torus_count is one inclusion-exclusion, with no cap and no loop over
w; regular_torus_count_oracle, which classifies every matrix of the torus,
certifies it on small tori.  The one torus cap, MAX_TORUS_SIZE, guards
building the matrix torus: the search for a generator of GF(ell^(2r))* and
factoring ell^(2r) - 1 for it.  The root that embeds the quadratic subfield
is solved over GF(ell) by the quadratic formula, with the square root read
off factor_mod.

All linear algebra over field elements (determinant, inverse, independent
subsets, the change of basis to the standard form, the anti-fixed element of
the symplectic torus) reads its answer off _echelon, the one row reduction.
The packed layer keeps only multiplication, conjugate transpose, powers and
the similitude test, which the enumeration scan and the oracles run.

Classification of a group element x at level m asks whether x^m is regular
with maximally anisotropic connected centralizer.  The fast path reads this
off the characteristic polynomial; the definitional oracle enumerates the
centralizer and is used to certify the fast path wherever enumeration fits
the budget.  The fast path factors nothing over GF(ell^2): the dual-pair
torus is recognised by Frobenius powers and gcds, and the other tori by the
Rabin test over GF(ell).  Exact operations never fall back to sampling:
over-budget requests raise BudgetExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from .finfield import (
    FFElement,
    FieldMismatch,
    FiniteField,
    is_prime,
    make_field,
    minimal_polynomial,
    prime_divisors,
)
from .intpoly import ModPoly, factor_mod, is_irreducible_mod, mod_gcd

MAX_GROUP_SIZE = 10**6
MAX_MATRIX_SPACE = 2 * 10**7
MAX_TORUS_SIZE = 10**7

_EXCEPTIONAL_PRIMES = (2, 3)  # base or quadratic extension lands in F2/F4/F3/F9


class BudgetExceeded(RuntimeError):
    """An exact enumeration would exceed its hard cap."""


class DimensionMismatch(ValueError):
    """Matrix dimensions do not match the group descriptor."""


@dataclass(frozen=True)
class GroupDescriptor:
    """Which finite similitude group a computation lives in.

    family 'C': GSp_{2r} over GF(ell); family 'A': unitary similitudes of
    rank r over GF(ell^2).
    """

    family: str
    r: int
    ell: int

    def __post_init__(self):
        if self.family not in ("A", "C"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.r < 1:
            raise ValueError("rank must be at least 1")
        if not is_prime(self.ell):
            raise ValueError(f"{self.ell} is not prime")

    @property
    def matrix_field(self) -> FiniteField:
        return make_field(self.ell, 2 if self.family == "A" else 1)

    @property
    def matrix_dim(self) -> int:
        return self.r if self.family == "A" else 2 * self.r

    @property
    def exceptional_field(self) -> bool:
        """Base field hits one of the small exceptional cases; flagged only."""
        return self.ell in _EXCEPTIONAL_PRIMES

    def __repr__(self):
        name = "GSp" if self.family == "C" else "GU"
        dim = 2 * self.r if self.family == "C" else self.r
        return f"{name}_{dim}(ell={self.ell})"


def group_order(desc: GroupDescriptor, part: str = "full") -> int:
    """Order of the group or one of its distinguished subgroups.

    part: 'full' similitude group, 'derived' (Sp / SU), and for family A
    also 'unitary' (similitude-1 isometries).
    """
    q, r = desc.ell, desc.r
    if desc.family == "C":
        sp = q ** (r * r)
        for i in range(1, r + 1):
            sp *= q ** (2 * i) - 1
        if part == "derived":
            return sp
        if part == "full":
            return sp * (q - 1)
        raise ValueError(f"family C has no part {part!r}")
    u = q ** (r * (r - 1) // 2)
    for i in range(1, r + 1):
        u *= q**i - (-1) ** i
    if part == "unitary":
        return u
    if part == "derived":
        return u // (q + 1)
    if part == "full":
        return u * (q - 1)
    raise ValueError(f"unknown part {part!r}")


def torus_order(desc: GroupDescriptor) -> int:
    q, r = desc.ell, desc.r
    if desc.family == "A" and r % 2 == 0:
        return (q**r - 1) * (q - 1)
    return (q**r + 1) * (q - 1)


# ---------------------------------------------------------------------------
# generic matrices of field elements


def mat_identity(field: FiniteField, n: int):
    return tuple(
        tuple(field.one() if i == j else field.zero() for j in range(n)) for i in range(n)
    )


def mat_mul(a, b):
    n = len(a)
    m = len(b[0])
    k = len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_conj_transpose(a, conjugate: bool):
    n, m = len(a), len(a[0])
    if conjugate:
        return tuple(tuple(a[j][i].frobenius() for j in range(n)) for i in range(m))
    return tuple(tuple(a[j][i] for j in range(n)) for i in range(m))


def _echelon(rows):
    """Gauss-Jordan elimination, the one row reduction in this module:
    (reduced rows, pivot columns, det), det being the determinant of the
    leading square block (zero when that block is singular)."""
    work = [list(row) for row in rows]
    n = len(work)
    det = work[0][0].field.one()
    pivots = []
    for col in range(len(work[0])):
        top = len(pivots)
        if top == n:
            break
        pivot = next((i for i in range(top, n) if not work[i][col].is_zero()), None)
        if pivot is None:
            continue
        if pivot != top:
            work[top], work[pivot] = work[pivot], work[top]
            det = -det
        lead = work[top][col]
        det = det * lead
        inv = lead.inverse()
        work[top] = [inv * x for x in work[top]]
        for i in range(n):
            c = work[i][col]
            if i != top and not c.is_zero():
                work[i] = [x - c * y for x, y in zip(work[i], work[top])]
        pivots.append(col)
    if pivots[:n] != list(range(n)):
        det = det.field.zero()
    return work, pivots, det


def mat_det(a):
    return _echelon(a)[2]


def mat_inverse(a):
    n = len(a)
    field = a[0][0].field
    work, _, det = _echelon(
        [list(row) + [field.one() if i == j else field.zero() for j in range(n)] for i, row in enumerate(a)]
    )
    if det.is_zero():
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in work)


def mat_charpoly(a) -> ModPoly:
    """det(t*I - a) by cofactor expansion; fine for the small ranks here."""
    field = a[0][0].field
    n = len(a)
    entries = [
        [
            ModPoly.make(field, [-a[i][j], field.one()] if i == j else [-a[i][j]])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return _poly_det(entries, field)


def _poly_det(rows, field) -> ModPoly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = ModPoly.make(field, [])
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _poly_det(minor, field)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def standard_gram(desc: GroupDescriptor):
    field = desc.matrix_field
    n = desc.matrix_dim
    if desc.family == "A":
        return mat_identity(field, n)
    one, mone, zero = field.one(), field.scalar(-1), field.zero()
    return tuple(
        tuple(
            (one if i < desc.r else mone) if j == n - 1 - i else zero for j in range(n)
        )
        for i in range(n)
    )


@dataclass(frozen=True)
class GroupElement:
    """A similitude with its multiplier (an integer mod ell)."""

    desc: GroupDescriptor
    matrix: tuple
    similitude: int

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if other.desc != self.desc:
            raise ValueError("elements of different groups")
        return GroupElement(
            self.desc,
            mat_mul(self.matrix, other.matrix),
            self.similitude * other.similitude % self.desc.ell,
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(
            self.desc,
            mat_inverse(self.matrix),
            pow(self.similitude, -1, self.desc.ell),
        )

    def __pow__(self, e: int) -> "GroupElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = identity_element(self.desc)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


def identity_element(desc: GroupDescriptor) -> GroupElement:
    return GroupElement(desc, mat_identity(desc.matrix_field, desc.matrix_dim), 1)


def contains(desc: GroupDescriptor, matrix) -> GroupElement | None:
    """The element with its similitude factor, or None if the form breaks."""
    n = desc.matrix_dim
    field = desc.matrix_field
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise DimensionMismatch(f"expected a {n}x{n} matrix")
    for row in matrix:
        for x in row:
            if not isinstance(x, FFElement) or x.field != field:
                raise FieldMismatch(f"entries must lie in {field}")
    gram = standard_gram(desc)
    s = mat_mul(mat_mul(mat_conj_transpose(matrix, desc.family == "A"), gram), matrix)
    # the standard grams have a nonzero entry in row 0
    j0 = next(j for j in range(n) if not gram[0][j].is_zero())
    lam = s[0][j0] / gram[0][j0]
    if lam.is_zero() or not lam.in_prime_field():
        return None
    for i in range(n):
        for j in range(n):
            if s[i][j] != lam * gram[i][j]:
                return None
    return GroupElement(desc, tuple(tuple(row) for row in matrix), lam.lift())


# ---------------------------------------------------------------------------
# matrix model of the torus


def _multiplicative_generator(field: FiniteField) -> FFElement:
    """Least-index generator of the multiplicative group; deterministic.
    For k >= 2 the search starts at index p: the elements below it lie in
    GF(p)*, which generates nothing larger."""
    n = field.q - 1
    divisors = prime_divisors(n)
    for i in range(field.p if field.k > 1 else 1, field.q):
        x = field.from_index(i)
        if all(x ** (n // p) != field.one() for p in divisors):
            return x
    raise AssertionError("no multiplicative generator found")


def _subfield_quadratic_image(big: FiniteField, element_maps_to: FiniteField):
    """Canonical copy of GF(ell^2) inside `big`, with the map to the
    standalone field: returns (zeta, w, w_std) where zeta generates big*,
    w generates the subfield and w_std is its image, the least-index root
    of w's minimal polynomial in `element_maps_to`."""
    zeta = _multiplicative_generator(big)
    w = zeta ** ((big.q - 1) // (element_maps_to.q - 1))
    p = big.p
    if p == 2:
        # GF(4) has one irreducible quadratic, so w and t share it; t < t + 1
        return zeta, w, element_maps_to.element([0, 1])
    # the roots of x^2 + m1 x + m0 in GF(p)[t]/(t^2 + a1 t + a0) are a + b t
    # with b^2 = (m1^2 - 4 m0) / (a1^2 - 4 a0) and 2a = a1 b - m1
    m0, m1, _ = minimal_polynomial(w)
    a0, a1, _ = element_maps_to.modulus
    b2 = (m1 * m1 - 4 * m0) * pow(a1 * a1 - 4 * a0, -1, p)
    _, factors = factor_mod(ModPoly.from_ints(make_field(p, 1), [-b2, 0, 1]))
    roots = []
    for g, _ in factors:
        b = -g.coeffs[0].lift()
        roots.append(element_maps_to.element([(a1 * b - m1) * ((p + 1) // 2), b]))
    return zeta, w, min(roots, key=FFElement.index)


def _power_traces(big: FiniteField):
    """Tr(t^i) down to GF(p) for i < k: the power sums of the roots of the
    modulus, by Newton's identities.  Tr(x) is then sum x_i Tr(t^i)."""
    k, p, a = big.k, big.p, big.modulus
    s = [k % p]
    for j in range(1, k):
        s.append(-(j * a[k - j] + sum(a[k - i] * s[j - i] for i in range(1, j))) % p)
    return s


def _k_basis(big: FiniteField, w: FFElement):
    """The powers t^i, i < dim/2, and the inverse over GF(ell) of the basis
    {t^i} + {w*t^i} of `big`, lifted to ints; its rows give the coordinates
    in that basis."""
    prime = make_field(big.p, 1)
    tpows = [big.element([0] * i + [1]) for i in range(big.k // 2)]
    basis = tpows + [w * t for t in tpows]
    binv = mat_inverse(tuple(tuple(prime.scalar(b.coeffs[i]) for b in basis) for i in range(big.k)))
    return tpows, [[c.lift() for c in row] for row in binv]


def _k_coords(binv, x: FFElement):
    """The GF(ell) coordinates of x in the basis of _k_basis, as ints."""
    return [sum(a * b for a, b in zip(row, x.coeffs)) % x.field.p for row in binv]


def _k_linear_matrix(small: FiniteField, w_std: FFElement, tpows, binv, x: FFElement):
    """Matrix of multiplication by x on the big field viewed over its degree-2
    subfield, in the basis of _k_basis, with entries mapped into `small`."""
    half = len(tpows)
    out = [[None] * half for _ in range(half)]
    for j in range(half):
        coords = _k_coords(binv, x * tpows[j])
        for i in range(half):
            out[i][j] = small.scalar(coords[i]) + small.scalar(coords[half + i]) * w_std
    return tuple(tuple(row) for row in out)


def _symplectic_change_of_basis(gram, field):
    """P with P^T * gram * P equal to the standard antidiagonal form."""
    n = len(gram)
    r = n // 2
    basis = [tuple(field.one() if i == j else field.zero() for i in range(n)) for j in range(n)]
    pairs = []
    remaining = list(basis)

    def form(u, v):
        acc = field.zero()
        for i in range(n):
            if u[i].is_zero():
                continue
            for j in range(n):
                acc = acc + u[i] * gram[i][j] * v[j]
        return acc

    while remaining:
        u = remaining[0]
        # on a non-alternating form the projection need not shrink
        # `remaining`, so stop instead of looping without end
        if len(pairs) == r or not form(u, u).is_zero():
            raise AssertionError("the Gram matrix is not alternating")
        v = next((x for x in remaining[1:] if not form(u, x).is_zero()), None)
        if v is None:
            raise AssertionError("the Gram matrix is degenerate")
        v = tuple(c / form(u, v) for c in v)
        pairs.append((u, v))
        nxt = []
        for x in remaining:
            a, b = form(x, v), form(x, u)
            y = tuple(xi - a * ui + b * vi for xi, ui, vi in zip(x, u, v))
            if any(not c.is_zero() for c in y):
                nxt.append(y)
        # keep only an independent spanning set of the orthogonal complement
        remaining = _independent_vectors(nxt)
    cols = [p[0] for p in pairs] + [p[1] for p in reversed(pairs)]
    assert len(pairs) == r
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def _independent_vectors(vectors):
    """The greedy maximal linearly independent subset: the pivot columns of
    the matrix whose columns are the vectors."""
    if not vectors:
        return []
    _, pivots, _ = _echelon(list(zip(*vectors)))
    return [vectors[j] for j in pivots]


def _hermitian_change_of_basis(gram, field):
    """P with conj(P)^T * gram * P equal to the identity."""
    n = len(gram)

    def form(u, v):
        acc = field.zero()
        for i in range(n):
            if u[i].is_zero():
                continue
            ui = u[i].frobenius()
            for j in range(n):
                acc = acc + ui * gram[i][j] * v[j]
        return acc

    basis = [tuple(field.one() if i == j else field.zero() for i in range(n)) for j in range(n)]
    ortho = []
    remaining = list(basis)
    while remaining:
        u = next((x for x in remaining if not form(x, x).is_zero()), None)
        if u is None:
            # isotropic throughout: mix two vectors pairing nontrivially
            a = remaining[0]
            b = next(x for x in remaining[1:] if not form(a, x).is_zero())
            u = None
            for t in field.elements():
                cand = tuple(ai + t * bi for ai, bi in zip(a, b))
                if not form(cand, cand).is_zero():
                    u = cand
                    break
            assert u is not None
        norm = form(u, u)
        scale = next(s for s in field.elements() if not s.is_zero() and s.frobenius() * s * norm == field.one())
        u = tuple(scale * c for c in u)
        ortho.append(u)
        nxt = []
        for x in remaining:
            a = form(u, x)
            y = tuple(xi - a * ui for xi, ui in zip(x, u))
            if any(not c.is_zero() for c in y):
                nxt.append(y)
        remaining = _independent_vectors(nxt)
    assert len(ortho) == n
    return tuple(tuple(ortho[j][i] for j in range(n)) for i in range(n))


def _anti_fixed_element(big: FiniteField, e: int) -> FFElement:
    """The least-index c != 0 in `big` with c^e = -c, for e a power of p.

    These c are the kernel of the GF(p)-linear map x -> x^e + x, whose
    column j is (t^e)^j + t^j.  A nonzero kernel vector with the lowest top
    coordinate is unique up to scale (two would differ by one with a lower
    top), and the least index is that vector with top coordinate 1: the last
    echelon row of a kernel basis written with its coordinates reversed."""
    prime = make_field(big.p, 1)
    k = big.k
    s = big.element([0, 1]) ** e
    cols = [s**j + big.element([0] * j + [1]) for j in range(k)]
    rows, pivots, _ = _echelon([[prime.scalar(c.coeffs[i]) for c in cols] for i in range(k)])
    kernel = []
    for f in range(k):
        if f in pivots:
            continue
        v = [prime.one() if i == f else prime.zero() for i in range(k)]
        for row, col in zip(rows, pivots):
            v[col] = -row[f]
        kernel.append(v[::-1])
    least = _echelon(kernel)[0][len(kernel) - 1]
    return big.element([x.lift() for x in reversed(least)])


@dataclass(frozen=True)
class AnisotropicTorus:
    """Matrix model of the maximally anisotropic maximal torus.

    generators[0] is the multiplication-by-primitive-element generator; the
    dual-pair torus (family A, even rank) is not cyclic and carries a second,
    similitude-direction generator, so the subgroup generated by all listed
    generators is the torus.
    """

    desc: GroupDescriptor
    generators: tuple
    order: int
    embedding_field: FiniteField

    @property
    def generator(self) -> GroupElement:
        return self.generators[0]


@lru_cache(maxsize=None)
def build_anisotropic_torus(desc: GroupDescriptor) -> AnisotropicTorus:
    """The matrix torus; its construction searches GF(ell^(2r)) for a
    generator, so the torus order is checked against MAX_TORUS_SIZE before
    anything is built."""
    order = torus_order(desc)
    if order > MAX_TORUS_SIZE:
        raise BudgetExceeded(f"torus of order {order} exceeds MAX_TORUS_SIZE = {MAX_TORUS_SIZE}")
    q, r = desc.ell, desc.r
    field = desc.matrix_field
    if desc.family == "C":
        big = make_field(q, 2 * r)
        zeta = _multiplicative_generator(big)
        gen = zeta ** ((q**r - 1) // (q - 1))
        # alternating trace form Tr(c * x * y^sigma) with c anti-fixed by sigma
        sigma_pow = q**r
        c = _anti_fixed_element(big, sigma_pow)
        n = 2 * r
        tpows = [big.element([0] * i + [1]) for i in range(n)]
        conj = [t**sigma_pow for t in tpows]
        traces = _power_traces(big)
        gram = tuple(
            tuple(
                field.scalar(sum(a * b for a, b in zip((c * tpows[i] * y).coeffs, traces)))
                for y in conj
            )
            for i in range(n)
        )
        mult = tuple(
            tuple(field.scalar((gen * tpows[j]).coeffs[i]) for j in range(n))
            for i in range(n)
        )
        p_mat = _symplectic_change_of_basis(gram, field)
        std = mat_mul(mat_mul(mat_inverse(p_mat), mult), p_mat)
        elt = contains(desc, std)
        assert elt is not None, "torus generator must preserve the standard form"
        return AnisotropicTorus(desc, (elt,), order, big)

    if r % 2 == 1:
        big = make_field(q, 2 * r)
        zeta, w, w_std = _subfield_quadratic_image(big, field)
        gen = zeta ** ((q**r - 1) // (q - 1))
        half = r
        tpows, binv = _k_basis(big, w)
        sigma_pow = q**r

        def k_trace(x):
            # trace from the big field to the quadratic subfield
            acc = big.zero()
            y = x
            for _ in range(r):
                acc = acc + y
                y = y ** (q * q)
            return acc

        def to_std(x):
            # x = a + b*w in the quadratic subfield: coordinates (a, 0.., b, 0..)
            coords = _k_coords(binv, x)
            a, b = coords[0], coords[half]
            coords[0] = coords[half] = 0
            assert not any(coords), "element does not lie in the quadratic subfield"
            return field.scalar(a) + field.scalar(b) * w_std

        gram = tuple(
            tuple(to_std(k_trace(tpows[i] ** sigma_pow * tpows[j])) for j in range(half))
            for i in range(half)
        )
        mult = _k_linear_matrix(field, w_std, tpows, binv, gen)
        p_mat = _hermitian_change_of_basis(gram, field)
        std = mat_mul(mat_mul(mat_inverse(p_mat), mult), p_mat)
        elt = contains(desc, std)
        assert elt is not None, "torus generator must preserve the standard form"
        return AnisotropicTorus(desc, (elt,), order, big)

    # family A, r even: dual-pair torus on two isotropic blocks
    s = r // 2
    big = make_field(q, r)
    if r == 2:
        gamma_std = _multiplicative_generator(field)
        a_block = ((gamma_std,),)
    else:
        gamma, w, w_std = _subfield_quadratic_image(big, field)
        a_block = _k_linear_matrix(field, w_std, *_k_basis(big, w), gamma)
    dual = mat_inverse(mat_conj_transpose(a_block, True))
    zero = field.zero()
    gen1 = tuple(
        tuple(
            a_block[i][j] if i < s and j < s else (dual[i - s][j - s] if i >= s and j >= s else zero)
            for j in range(r)
        )
        for i in range(r)
    )
    lam0 = field.scalar(_multiplicative_generator(make_field(q, 1)).lift())
    gen2 = tuple(
        tuple(
            (field.one() if i < s else lam0) if i == j else zero for j in range(r)
        )
        for i in range(r)
    )
    hyper = tuple(
        tuple(field.one() if abs(i - j) == s else zero for j in range(r)) for i in range(r)
    )
    p_mat = _hermitian_change_of_basis(hyper, field)
    inv_p = mat_inverse(p_mat)
    elts = []
    for g in (gen1, gen2):
        std = mat_mul(mat_mul(inv_p, g), p_mat)
        elt = contains(desc, std)
        assert elt is not None, "torus generator must preserve the standard form"
        elts.append(elt)
    return AnisotropicTorus(desc, tuple(elts), order, big)


def torus_element_matrices(desc: GroupDescriptor):
    """All torus elements g1^i g2^w as GroupElements, in the order of the
    exponents (i, w); the construction is budget-capped."""
    torus = build_anisotropic_torus(desc)
    q = desc.ell
    orders = (torus.order,) if len(torus.generators) == 1 else (torus.order // (q - 1), q - 1)
    out = [identity_element(desc)]
    for g, k in zip(torus.generators, orders):
        powers = []
        for x in out:
            for _ in range(k):
                powers.append(x)
                x = x * g
        out = powers
    return out


# ---------------------------------------------------------------------------
# packed fast layer


class _PackedField:
    """Index-coded field arithmetic with dense lookup tables."""

    def __init__(self, field: FiniteField):
        self.q = field.q
        self.p = field.p
        els = list(field.elements())
        q = field.q
        self.add = [[(els[a] + els[b]).index() for b in range(q)] for a in range(q)]
        self.mul = [[(els[a] * els[b]).index() for b in range(q)] for a in range(q)]
        self.inv = [0] + [(els[a].inverse()).index() for a in range(1, q)]
        self.conj = [(els[a] ** field.p).index() for a in range(q)]


@lru_cache(maxsize=None)
def _packed_field(field: FiniteField) -> _PackedField:
    return _PackedField(field)


def pack_matrix(matrix) -> tuple:
    return tuple(x.index() for row in matrix for x in row)


def unpack_matrix(desc: GroupDescriptor, packed) -> tuple:
    n = desc.matrix_dim
    field = desc.matrix_field
    return tuple(
        tuple(field.from_index(packed[i * n + j]) for j in range(n)) for i in range(n)
    )


def _pmat_mul(pf: _PackedField, n: int):
    add, mul = pf.add, pf.mul

    def mm(a, b):
        out = []
        for i in range(n):
            base = i * n
            for j in range(n):
                acc = 0
                for k in range(n):
                    acc = add[acc][mul[a[base + k]][b[k * n + j]]]
                out.append(acc)
        return tuple(out)

    return mm


def _pmat_conj_transpose(pf: _PackedField, n: int, conjugate: bool):
    conj = pf.conj

    def ct(a):
        if conjugate:
            return tuple(conj[a[j * n + i]] for i in range(n) for j in range(n))
        return tuple(a[j * n + i] for i in range(n) for j in range(n))

    return ct


class _PackedGroup:
    """Per-descriptor packed matrix toolkit."""

    def __init__(self, desc: GroupDescriptor):
        self.desc = desc
        self.n = desc.matrix_dim
        self.pf = _packed_field(desc.matrix_field)
        self.mm = _pmat_mul(self.pf, self.n)
        self.ct = _pmat_conj_transpose(self.pf, self.n, desc.family == "A")
        self.gram = pack_matrix(standard_gram(desc))
        self.identity = pack_matrix(mat_identity(desc.matrix_field, self.n))
        n = self.n
        self._gram_anchor = next(j for j in range(n) if self.gram[j])

    def similitude(self, a) -> int | None:
        """Prime-field similitude index, or None if a is not in the group."""
        s = self.mm(self.mm(self.ct(a), self.gram), a)
        pf = self.pf
        j0 = self._gram_anchor
        lam = pf.mul[s[j0]][pf.inv[self.gram[j0]]]
        if lam == 0 or lam >= pf.p:
            return None
        for x, g in zip(s, self.gram):
            if x != pf.mul[lam][g]:
                return None
        return lam

    def power(self, a, e: int):
        result = self.identity
        base = a
        while e:
            if e & 1:
                result = self.mm(result, base)
            base = self.mm(base, base)
            e >>= 1
        return result


@lru_cache(maxsize=None)
def _packed_group(desc: GroupDescriptor) -> _PackedGroup:
    return _PackedGroup(desc)


_ENUM_CACHE: dict = {}


def enumerate_group_packed(desc: GroupDescriptor, part: str = "full"):
    """All packed matrices of the requested subgroup, budget-capped."""
    key = (desc, part)
    if key in _ENUM_CACHE:
        return _ENUM_CACHE[key]
    space = desc.matrix_field.q ** desc.matrix_dim**2
    if space > MAX_MATRIX_SPACE:
        raise BudgetExceeded(f"matrix space of size {space} exceeds the scan cap")
    expected = group_order(desc, part)
    if expected > MAX_GROUP_SIZE:
        raise BudgetExceeded(f"group of order {expected} exceeds the enumeration cap")
    pg = _packed_group(desc)
    out = []
    unitary = part in ("unitary", "derived")
    # multiplier 1 already makes a symplectic matrix special; SU needs det 1
    special = part == "derived" and desc.family == "A"
    one = desc.matrix_field.one()
    for mat in product(range(pg.pf.q), repeat=pg.n * pg.n):
        lam = pg.similitude(mat)
        if lam is None:
            continue
        if unitary and lam != 1:
            continue
        if special and mat_det(unpack_matrix(desc, mat)) != one:
            continue
        out.append(mat)
    assert len(out) == expected, f"enumeration found {len(out)}, formula says {expected}"
    _ENUM_CACHE[key] = out
    return out


def enumerate_group(desc: GroupDescriptor, part: str = "full"):
    """All GroupElements of the requested subgroup (budget-capped)."""
    pg = _packed_group(desc)
    out = []
    for m in enumerate_group_packed(desc, part):
        lam = pg.similitude(m)
        out.append(GroupElement(desc, unpack_matrix(desc, m), lam))
    return out


# ---------------------------------------------------------------------------
# classification


def _charpoly_natural(x: GroupElement) -> ModPoly:
    """Characteristic polynomial on the natural 2r-dimensional prime-field
    space (for family A this is the norm of the GF(ell^2) charpoly)."""
    desc = x.desc
    prime = make_field(desc.ell, 1)
    cp = mat_charpoly(x.matrix)
    if desc.family == "C":
        return ModPoly.from_ints(prime, [c.lift() for c in cp.coeffs])
    full = cp * cp.frobenius_coeffs()
    return ModPoly.from_ints(prime, [c.lift() for c in full.coeffs])


def classify_element(x: GroupElement, m: int = 1) -> bool:
    """True iff x^m is regular with maximally anisotropic connected
    centralizer (fast path, read off characteristic polynomials)."""
    y = x**m
    desc = x.desc
    if desc.family == "C" or desc.r % 2 == 1:
        return is_irreducible_mod(_charpoly_natural(y))
    cp = mat_charpoly(y.matrix)
    if mod_gcd(cp, cp.derivative()).degree != 0:
        return False
    # x^m is regular anisotropic iff the squarefree cp is two irreducible
    # factors of degree s over GF(q), q = ell^2, that the unitary Frobenius
    # beta -> lam / beta^ell swaps.  With h_j = x^(q^j) mod cp: all roots lie
    # in GF(q^s) iff h_s = x, none in a proper subfield iff h_(s/p) - x is
    # prime to cp for each prime p | s, and the Frobenius fixes a factor iff
    # some root has beta^(q^j) = lam / beta^ell, j < s.
    field = desc.matrix_field
    s = desc.r // 2
    x = ModPoly.x(field)
    h = [x]
    for _ in range(s):
        h.append(h[-1].powmod(field.q, cp))
    if h[s] != x or any(mod_gcd(cp, h[s // p] - x).degree for p in prime_divisors(s)):
        return False
    lam = ModPoly.from_ints(field, [y.similitude])
    x_ell = x.powmod(desc.ell, cp)
    return all(mod_gcd(cp, (hj * x_ell) % cp - lam).degree == 0 for hj in h[:s])


def classify_element_oracle(x: GroupElement, m: int = 1) -> bool:
    """Definitional answer: enumerate the centralizer of x^m in the full
    group and test that it is abelian of the anisotropic-torus order."""
    desc = x.desc
    pg = _packed_group(desc)
    elements = enumerate_group_packed(desc, "full")
    y = pg.power(pack_matrix(x.matrix), m)
    target = torus_order(desc)
    mm = pg.mm
    cent = []
    for g in elements:
        if mm(g, y) == mm(y, g):
            cent.append(g)
            if len(cent) > target:
                return False
    if len(cent) != target:
        return False
    for i, a in enumerate(cent):
        for b in cent[i + 1 :]:
            if mm(a, b) != mm(b, a):
                return False
    return True


def normalizer_census_oracle(desc: GroupDescriptor) -> NormalizerCensus:
    """Definitional answer: count the elements of the enumerated full group
    that conjugate every torus generator back into the torus.  A test
    oracle for normalizer_census, budget-capped like the enumeration."""
    pg = _packed_group(desc)
    elements = enumerate_group_packed(desc, "full")
    torus = build_anisotropic_torus(desc)
    tset = frozenset(pack_matrix(t.matrix) for t in torus_element_matrices(desc))
    gens = [pack_matrix(g.matrix) for g in torus.generators]
    mm, ct, mul, inv = pg.mm, pg.ct, pg.pf.mul, pg.pf.inv
    # ct(g) J g = lam J, so g^-1 = (lam^-1 J^-1) ct(g) J
    jinv = pack_matrix(mat_inverse(standard_gram(desc)))
    scaled = {lam: tuple(mul[inv[lam]][x] for x in jinv) for lam in range(1, pg.pf.p)}
    count = 0
    for g in elements:
        gi = mm(mm(scaled[pg.similitude(g)], ct(g)), pg.gram)
        if all(mm(mm(g, t), gi) in tset for t in gens):
            count += 1
    return NormalizerCensus(count, count // torus.order)


def regular_torus_count_oracle(desc: GroupDescriptor, m: int = 1, part: str = "full") -> int:
    """Definitional answer: classify every element of the matrix torus, with
    part membership read off the similitude (and, for SU, the determinant).
    A test oracle for regular_torus_count, budget-capped like the torus."""
    if part not in ("full", "derived", "unitary") or part == "unitary" and desc.family == "C":
        raise ValueError(f"unknown part {part!r}")
    one = desc.matrix_field.one()
    count = 0
    for t in torus_element_matrices(desc):
        if part != "full" and t.similitude != 1:
            continue
        if part == "derived" and desc.family == "A" and mat_det(t.matrix) != one:
            continue
        count += classify_element(t, m)
    return count


def exhaustive_classification(desc: GroupDescriptor, m: int = 1, part: str = "full"):
    """(count in the regular-anisotropic class, subgroup order) by direct
    classification of every element; the independent check on the census
    count identity."""
    pg = _packed_group(desc)
    count = 0
    elements = enumerate_group_packed(desc, part)
    for mat in elements:
        lam = pg.similitude(mat)
        elt = GroupElement(desc, unpack_matrix(desc, mat), lam)
        if classify_element(elt, m):
            count += 1
    return count, len(elements)


# ---------------------------------------------------------------------------
# censuses


@dataclass(frozen=True)
class NormalizerCensus:
    normalizer_order: int
    weyl_order: int


def normalizer_census(desc: GroupDescriptor) -> NormalizerCensus:
    """|N(T)| = |W| * |T| with the closed form |W| = 2r (family C) or r
    (family A).

    Take a regular t in T, so C_G(t) = T.  Then g T g^-1 = T exactly when
    g t g^-1 lies in T, and n -> n t n^-1 is a bijection from N(T)/T onto
    the G-conjugates of t inside T.  By Lang's theorem (the centralizer T is
    connected) these are the elements of T with the characteristic
    polynomial of t, i.e. its Galois conjugates, and there are |W| of them
    at every ell:

    * the norm-line torus of GSp_{2r}: 2r conjugates over GF(ell);
    * GU_r with r odd: r conjugates over GF(ell^2);
    * the dual-pair torus of GU_r, r = 2s: s conjugates times the block
      swap, 2s = r in all.

    N(T) here is the normalizer of the algebraic torus, which is what the
    count identity |J| = (|G|/|N|) |T*| needs.  It agrees with the normalizer
    of the finite group T(F_ell) (normalizer_census_oracle) whenever T(F_ell)
    holds a regular element.  The one torus here without one is GU_2 over
    GF(4), where T(F_2) is the centre of order 3: there the oracle finds all
    of G, and the count identity holds either way since T* is empty.
    """
    w = 2 * desc.r if desc.family == "C" else desc.r
    return NormalizerCensus(w * torus_order(desc), w)


@dataclass(frozen=True)
class TorusCensus:
    """Exact torus counts at one prime."""

    desc: GroupDescriptor
    m: int
    torus_order: int
    regular_count: int  # elements whose m-th power is regular
    regular_count_base: int  # the m = 1 count
    b_estimate: Fraction  # ell * (1 - regular_base/torus_order)
    subgroup_orders: dict
    normalizer_order: int
    weyl_order: int
    exceptional_field: bool


def _lattice(alpha: int, beta: int, n: int):
    """The solutions (w, i) of alpha*i = beta*w (mod n) in Hermite normal
    form (a, b, d): w = 0 (mod a) and i = (w/a)*b (mod d)."""
    g = gcd(alpha, n)
    h = gcd(g, beta)
    d = n // g
    return g // h, beta // h * pow(alpha // g, -1, d) % d, d


def _meet(x, y):
    """The intersection of two lattices (a, b, d): w runs over the multiples
    of lcm(a1, a2) at the first step t where the two i-classes agree mod
    gcd(d1, d2), and there the classes are joined by CRT."""
    (a1, b1, d1), (a2, b2, d2) = x, y
    a = a1 * a2 // gcd(a1, a2)
    g = gcd(d1, d2)
    c1, c2 = a // a1 * b1, a // a2 * b2
    t = g // gcd(g, c2 - c1)
    c1, c2, k = t * c1, t * c2, d2 // g
    u = (c2 - c1) // g * pow(d1 // g, -1, k) % k
    return a * t, (c1 + d1 * u) % (d1 * k), d1 * k


def _count_avoiding(k: int, n: int, base, bad) -> int:
    """How many (w, i) in Z/k x Z/n lie in the lattice `base` and in none of
    the lattices `bad` (all contain k Z x n Z), by inclusion-exclusion with
    equal intersections merged into one term: the work is bounded by the
    number of distinct lattices, not by the 2^len(bad) subsets."""
    terms = {base: 1}
    for lat in set(bad):
        step = {}
        for term, coef in terms.items():
            meet = _meet(term, lat)
            step[meet] = step.get(meet, 0) - coef
        for term, coef in step.items():
            terms[term] = terms.get(term, 0) + coef
        terms = {term: coef for term, coef in terms.items() if coef}
    return sum(coef * (k // a) * (n // d) for (a, _, d), coef in terms.items())


def _torus_part(desc: GroupDescriptor, part: str):
    """T ∩ part as (k, n, base): the exponents (w, i) in Z/k x Z/n that lie
    in the lattice base (see the module docstring)."""
    q, r = desc.ell, desc.r
    if desc.family == "A" and r % 2 == 0:
        k, n = q - 1, q**r - 1
        shapes = {"full": (1, 0, 1), "unitary": (k, 0, 1), "derived": (k, 0, q + 1)}
    elif desc.family == "A":
        k, n = 1, torus_order(desc)
        shapes = {"full": (1, 0, 1), "unitary": (1, 0, q - 1), "derived": (1, 0, q * q - 1)}
    else:
        k, n = 1, torus_order(desc)
        shapes = {"full": (1, 0, 1), "derived": (1, 0, q - 1)}
    if part not in shapes:
        raise ValueError(f"unknown part {part!r}")
    return k, n, shapes[part]


def regular_torus_count(desc: GroupDescriptor, m: int = 1, part: str = "full") -> int:
    """|{x in T ∩ part : x^m regular}|: the exponents that avoid every
    subfield and eigenvalue-coincidence lattice of the module docstring."""
    q, r = desc.ell, desc.r
    k, n, base = _torus_part(desc, part)
    s = r // 2 if desc.family == "A" and r % 2 == 0 else 0  # 0: norm-line torus
    degrees = [2 * s // p for p in prime_divisors(s)] if s else [2 * r // p for p in prime_divisors(2 * r)]
    subfields = [_lattice(m * (q**d - 1), 0, n) for d in degrees]
    beta = m * n // k  # m n/(ell - 1), the coincidences' coefficient of w
    coincidences = [_lattice(m * (q ** (2 * u) + q ** (2 * v + 1)), beta, n) for u in range(s) for v in range(s)]
    return _count_avoiding(k, n, base, subfields + coincidences)


def torus_census(desc: GroupDescriptor, m: int = 1) -> TorusCensus:
    if m < 1:
        raise ValueError("m must be at least 1")
    order = torus_order(desc)
    reg_m = regular_torus_count(desc, m)
    reg_1 = reg_m if m == 1 else regular_torus_count(desc, 1)
    sub = {}
    for part in ["full", "derived"] + (["unitary"] if desc.family == "A" else []):
        k, n, (a, _, d) = _torus_part(desc, part)
        sub[part] = k // a * (n // d)
    nc = normalizer_census(desc)
    return TorusCensus(
        desc=desc,
        m=m,
        torus_order=order,
        regular_count=reg_m,
        regular_count_base=reg_1,
        b_estimate=desc.ell * (1 - Fraction(reg_1, order)),
        subgroup_orders=sub,
        normalizer_order=nc.normalizer_order,
        weyl_order=nc.weyl_order,
        exceptional_field=desc.exceptional_field,
    )
