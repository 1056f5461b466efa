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
is kept only as a test oracle (normalizer_census_oracle, in the tests) that
certifies the closed form on small groups.

The regular torus count |T*_m| is a closed form too.  Index the norm-line
torus by i mod N = |T|, x = zeta^((ell^r - 1)/(ell - 1) i), and the dual-pair
torus of rank 2s by (w, i), w mod ell - 1 and i mod n = ell^r - 1.  Every
exponent set counted is then a subgroup of Z/k x Z/n, with k = ell - 1 for
the dual-pair torus and k = 1, n = N otherwise.  The parts of T (similitude
1, determinant 1) are subgroups, and x^m is irregular iff its exponent
solves one of these homogeneous congruences alpha i = beta w (mod n), whose
solutions form a subgroup: x^m lies in GF(ell^(2r/p)), p | 2r:
m (ell^(2r/p) - 1) i = 0 (mod N); the block gamma^(mi) lies in
GF(ell^(2s/p)), p | s: m (ell^(2s/p) - 1) i = 0 (mod n); the twist j of
_twists(s) (classify_element): m (ell^(2j) + ell) i = m w n/(ell - 1)
(mod n), well defined for w mod ell - 1.  Every other coincidence of two
block eigenvalues lies in a subfield lattice.  Each subgroup is kept as
its lattice in Z^2 in Hermite normal form (a, b, d): w = 0 (mod a)
and i = (w/a) b (mod d), of size (k/a)(n/d).  Lattices meet in lattices, so
regular_torus_count is one inclusion-exclusion, with no cap and no loop over
w; a test oracle that classifies every matrix of the torus
(regular_torus_count_oracle, in the tests) certifies it on small tori.
Building the matrix torus has no cap: it refuses only when a cyclotomic
cofactor of ell^N - 1, factored for the generator search of GF(ell^N)*
(N = 2r, or r for the dual-pair torus), reaches IS_PRIME_LIMIT
(finfield.prime_divisors).
The root that embeds the quadratic subfield is solved over GF(ell) by the
quadratic formula, with the square root read off the int factors of
t^2 - b^2 that factor_mod returns, and so is the scale that gives a
Hermitian basis vector norm 1 (_hermitian_scale).

Outside the packed layer of the listing below, every matrix product and
inverse runs on natural matrices: a matrix's action on the 2r-dimensional
GF(ell)-space as ints mod ell (_natural_matrix, and _field_matrix back),
multiplied by _imat_mul.  Their one row reduction is _imat_forward,
forward elimination that stops at the first missing pivot: the
classification's invertibility test, and, with back substitution on
[a | I], _imat_inverse.  The group law, the conjugations into the standard
form (_conjugates), contains, which tests an int form, and the symplectic
Gram-Schmidt run there; the changes of basis also draw uniform elements of
the derived group (_uniform_derived).  Over field elements remain the
Hermitian Gram-Schmidt and _echelon, which gives the anti-fixed element of
the symplectic torus and the determinant.
The determinant cannot come from the natural matrix: in family A that
determinant is the norm of det M, 1 for every unitary M.
The packed layer keeps only multiplication, the commutation test,
conjugate transpose, the similitude test and the inverse it gives, which
the enumeration and the oracles run, plus two shortcuts for the listing.
left(g), the map b -> g b, finds the nonzero entries of g once, so a
closure product by a root element of GSp, one or two nonzero entries a
row, costs about n^2 table lookups and not n^3.  multiplier(a)
reads the similitude of a known member off one entry of ct(a) J a, summed
over the n nonzero entries of J, where the similitude test forms the
product and checks every entry.  The field tables are built on integers, sums digit by
digit and products through one table of logarithms, and unpacking indexes
one shared tuple of the field's elements.  A group is listed as the closure
of its simple root elements (_part_generators) under _mulclose, the listing's
closure loop, which multiplies through left.

Classification of a group element x at level m asks whether x^m is regular
with maximally anisotropic connected centralizer.  The fast path is one
Frobenius-power test for all three tori: Rabin's test read on the matrix of
x^m over GF(ell), with the entries of GF(ell^2) written as 2x2 blocks, in
integer arithmetic alone.  It builds no characteristic polynomial and runs
no polynomial Euclid; the tori differ only in the degree D, the primes and
the twist factors it tests.  It builds the Frobenius powers one at a time
and stops at the first factor that forward elimination mod ell finds
singular.  The definitional oracle finds the centralizer of y = x^m
in the listed full group by one of two enumerations.  When y is cyclic (I,
y, ..., y^(n-1) independent, one elimination on the packed tables), the
matrices commuting with y are the polynomials in y (Horn-Johnson, Matrix
Analysis, Thm 3.2.4.2), so the centralizer is the span GF(q)[y] met with the
group: q^n candidates, each looked up in the group's set, and abelian
because GF(q)[y] is commutative.  Otherwise (the scalars, and y with a
repeated eigenvalue block) it scans the listing: the cells of g y - y g are
linear forms in the entries of g, built once per y (_commutant_forms), and
the scan of g stops at the first form that is nonzero; it then tests that
the centralizer is abelian on greedy generators, each checked against those
before it as it joins, with the span grown coset by coset.  The oracle
certifies the fast path wherever enumeration fits the budget.  Exact
operations never fall back to sampling: over-budget requests raise
BudgetExceeded, before any table of the field is built: the group order and
the q^2 entries of each packed field table against MAX_GROUP_SIZE.
mat_charpoly, Berkowitz's division-free recursion on field elements, is kept
for the charpoly references of the tests; no production path builds a
characteristic polynomial.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from .finfield import (
    BudgetExceeded,
    FFElement,
    FieldMismatch,
    FiniteField,
    Record,
    is_prime,
    make_field,
    minimal_polynomial,
    power,
    prime_divisors,
)
from .intpoly import factor_mod

MAX_GROUP_SIZE = 10**6

_EXCEPTIONAL_PRIMES = (2, 3)  # base or quadratic extension lands in F2/F4/F3/F9


class DimensionMismatch(ValueError):
    """Matrix dimensions do not match the group descriptor."""


class GroupDescriptor(Record):
    """Which finite similitude group a computation lives in.

    family 'C': GSp_{2r} over GF(ell); family 'A': unitary similitudes of
    rank r over GF(ell^2).
    """

    __slots__ = ("family", "r", "ell")

    def __init__(self, family: str, r: int, ell: int):
        if family not in ("A", "C"):
            raise ValueError(f"unknown family {family!r}")
        if r < 1:
            raise ValueError("rank must be at least 1")
        if not is_prime(ell):
            raise ValueError(f"{ell} is not prime")
        super().__init__(family, r, ell)

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


def mat_conj_transpose(a):
    n, m = len(a), len(a[0])
    return tuple(tuple(a[j][i].frobenius() for j in range(n)) for i in range(m))


def _echelon(rows):
    """Gauss-Jordan elimination, the one row reduction over field elements:
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


def mat_charpoly(a) -> tuple:
    """det(t*I - a), ascending, by Berkowitz's division-free recursion
    (Berkowitz 1984): the charpoly of each leading principal block comes
    from the last one through a Toeplitz matrix whose first column is
    (1, -a_kk, -R C, -R A C, -R A^2 C, ...), for the block A above it, its
    row R and its column C.  No production path calls it (classify_element
    tests the matrix itself); the test references build on it."""
    field = a[0][0].field
    zero, one = field.zero(), field.one()
    cp = [one]  # descending coefficients of the charpoly of the leading block
    for k in range(len(a)):
        col = [a[i][k] for i in range(k)]
        first = [one, -a[k][k]]
        for _ in range(k):
            first.append(-sum((a[k][i] * c for i, c in enumerate(col)), zero))
            col = [sum((a[i][j] * c for j, c in enumerate(col)), zero) for i in range(k)]
        cp = [sum((first[j - i] * c for i, c in enumerate(cp[: j + 1])), zero) for j in range(k + 2)]
    return tuple(reversed(cp))


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


# ---------------------------------------------------------------------------
# natural int matrices mod ell: the one layer of products and inverses


def _natural_matrix(desc: GroupDescriptor, matrix) -> tuple:
    """A matrix over the matrix field of desc on its natural GF(ell)-space,
    as ints mod ell.  In family A the entry a + b t of GF(ell^2),
    t^2 + A1 t + A0 = 0, acts on the basis (1, t) by the block
    [[a, -A0 b], [b, a - A1 b]]."""
    if desc.family == "C":
        return tuple(tuple(e.coeffs[0] for e in row) for row in matrix)
    ell = desc.ell
    a0, a1, _ = desc.matrix_field.modulus
    out = []
    for row in matrix:
        pairs = [e.coeffs for e in row]
        out.append(tuple(v for a, b in pairs for v in (a, -a0 * b % ell)))
        out.append(tuple(v for a, b in pairs for v in (b, (a - a1 * b) % ell)))
    return tuple(out)


def _field_matrix(desc: GroupDescriptor, nat) -> tuple:
    """The matrix whose _natural_matrix is nat, each entry read off the first column of its block."""
    element, k, n = desc.matrix_field.element, desc.matrix_field.k, len(nat)
    return tuple(tuple(element([nat[i + c][j] for c in range(k)]) for j in range(0, n, k)) for i in range(0, n, k))


@lru_cache(maxsize=None)
def _imat_identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _imat_mul(a, b, p: int) -> tuple:
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(operator.mul, row, col)) % p for col in cols]) for row in a])


def _imat_sub(a, b, p: int) -> tuple:
    return tuple(tuple((u - v) % p for u, v in zip(ra, rb)) for ra, rb in zip(a, b))


def _imat_forward(rows, p: int) -> list | None:
    """Forward elimination mod the prime p, the one int row reduction in this
    module: the rows, reduced so that the leading square block is upper
    triangular with unit diagonal, or None at the first column of that block
    with no pivot, that is when the block is singular mod p."""
    n = len(rows)
    work = [[v % p for v in row] for row in rows]
    for col in range(n):
        for pivot in range(col, n):
            if work[pivot][col]:
                break
        else:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = pow(work[col][col], -1, p)
        top = work[col] = [v * inv % p for v in work[col]]
        for i in range(col + 1, n):
            c = work[i][col]
            if c:
                work[i] = [(v - c * t) % p for v, t in zip(work[i], top)]
    return work


def _imat_inverse(a, p: int) -> tuple | None:
    """The inverse of the square int matrix a mod the prime p: _imat_forward
    on [a | I], then back substitution; None when a is singular mod p."""
    n = len(a)
    work = _imat_forward([tuple(row) + e for row, e in zip(a, _imat_identity(n))], p)
    if work is None:
        return None
    for col in range(n - 1, 0, -1):
        for i in range(col):
            c = work[i][col]
            if c:
                work[i] = [(v - c * t) % p for v, t in zip(work[i], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def _field_inverse(desc: GroupDescriptor, matrix) -> tuple:
    """The inverse of an invertible matrix over the matrix field of desc."""
    return _field_matrix(desc, _imat_inverse(_natural_matrix(desc, matrix), desc.ell))


def _conjugates(desc: GroupDescriptor, p_mat, matrices) -> list:
    """p_mat^-1 g p_mat for each matrix g over the matrix field of desc."""
    ell = desc.ell
    p_nat = _natural_matrix(desc, p_mat)
    inv_p = _imat_inverse(p_nat, ell)
    return [_field_matrix(desc, _imat_mul(_imat_mul(inv_p, _natural_matrix(desc, g), ell), p_nat, ell)) for g in matrices]


@lru_cache(maxsize=None)
def _natural_form(desc: GroupDescriptor) -> tuple:
    """The int Gram matrix B of contains: family C's standard Gram matrix;
    in family A the trace form Tr H(x, y) of H(x, y) = sum x_i^ell y_i,
    block diagonal with the Gram matrix [[2, -A1], [-A1, 2 A0]] of
    (u, v) -> Tr(u^ell v) on the basis (1, t), t^2 + A1 t + A0 = 0."""
    if desc.family == "C":
        return _natural_matrix(desc, standard_gram(desc))
    a0, a1, _ = desc.matrix_field.modulus
    block, n = ((2, -a1), (-a1, 2 * a0)), desc.matrix_dim * 2
    return tuple(tuple(block[i % 2][j % 2] % desc.ell if i // 2 == j // 2 else 0 for j in range(n)) for i in range(n))


class GroupElement(Record):
    """A similitude with its multiplier (an integer mod ell)."""

    __slots__ = ("desc", "matrix", "similitude")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if other.desc != self.desc:
            raise ValueError("elements of different groups")
        desc = self.desc
        nat = _imat_mul(_natural_matrix(desc, self.matrix), _natural_matrix(desc, other.matrix), desc.ell)
        return GroupElement(desc, _field_matrix(desc, nat), self.similitude * other.similitude % desc.ell)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.desc, _field_inverse(self.desc, self.matrix), pow(self.similitude, -1, self.desc.ell))

    def __pow__(self, e: int) -> "GroupElement":
        base = self.inverse() if e < 0 else self
        return power(base, abs(e), operator.mul, identity_element(self.desc))


def identity_element(desc: GroupDescriptor) -> GroupElement:
    return GroupElement(desc, mat_identity(desc.matrix_field, desc.matrix_dim), 1)


def contains(desc: GroupDescriptor, matrix) -> GroupElement | None:
    """The element with its similitude factor, or None if the form breaks:
    M^T B M = lam B mod ell, lam != 0, for the natural int matrix M and the
    int form B of _natural_form.  In family C that is the definition.  In
    family A it is ct(M) J M = lam J, lam in GF(ell)*, read through the
    trace: M scales H by lam iff it scales Tr(c H(x, y)) = Tr H(x, c y) by
    lam for every c in GF(ell^2), the trace form being nondegenerate; and a
    multiplier lies in GF(ell) anyway, ct(M) J M being Hermitian."""
    n = desc.matrix_dim
    field = desc.matrix_field
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise DimensionMismatch(f"expected a {n}x{n} matrix")
    for row in matrix:
        for x in row:
            if not isinstance(x, FFElement) or x.field != field:
                raise FieldMismatch(f"entries must lie in {field}")
    ell, form = desc.ell, _natural_form(desc)
    nat = _natural_matrix(desc, matrix)
    s = _imat_mul(tuple(zip(*nat)), _imat_mul(form, nat, ell), ell)
    # the forms have a nonzero entry in row 0
    j0 = next(j for j, b in enumerate(form[0]) if b)
    lam = s[0][j0] * pow(form[0][j0], -1, ell) % ell
    if lam == 0 or s != tuple(tuple(lam * b % ell for b in row) for row in form):
        return None
    return GroupElement(desc, tuple(tuple(row) for row in matrix), lam)


# ---------------------------------------------------------------------------
# matrix model of the torus


def _multiplicative_generator(field: FiniteField) -> FFElement:
    """Least-index generator of the multiplicative group; deterministic.
    For k >= 2 the search starts at index p: the elements below it lie in
    GF(p)*, which generates nothing larger.  p^k - 1 is factored as the
    product of the cyclotomic values Phi_d(p), d | k, each far smaller."""
    p, n = field.p, field.q - 1
    phi = {}
    for d in range(1, field.k + 1):
        if field.k % d == 0:
            phi[d] = (p**d - 1) // prod(v for e, v in phi.items() if d % e == 0)
    divisors = sorted({prime for v in phi.values() for prime in prime_divisors(v)})
    for i in range(p if field.k > 1 else 1, field.q):
        x = field.from_index(i)
        if all(x ** (n // prime) != field.one() for prime in divisors):
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
    _, factors = factor_mod((-b2, 0, 1), p)
    roots = []
    for g, _ in factors:
        b = -g[0]
        roots.append(element_maps_to.element([(a1 * b - m1) * ((p + 1) // 2), b]))
    return zeta, w, min(roots, key=FFElement.index)


def _trace(x: FFElement, j: int, count: int) -> FFElement:
    """x + x^(p^j) + ... + x^(p^(j (count - 1))): for x in GF(p^(j count)),
    its trace down to GF(p^j), on the field's cached Frobenius."""
    acc = x
    for _ in range(count - 1):
        x = x.frobenius(j)
        acc = acc + x
    return acc


def _k_basis(big: FiniteField, w: FFElement):
    """The powers t^i, i < dim/2, and the inverse mod ell of the basis
    {t^i} + {w*t^i} of `big`; its rows give the coordinates in that basis."""
    tpows = [big.element([0] * i + [1]) for i in range(big.k // 2)]
    basis = tpows + [w * t for t in tpows]
    return tpows, _imat_inverse(tuple(tuple(b.coeffs[i] for b in basis) for i in range(big.k)), big.p)


def _k_coords(binv, x: FFElement):
    """The GF(ell) coordinates of x in the basis of _k_basis, as ints."""
    return [sum(a * b for a, b in zip(row, x.coeffs)) % x.field.p for row in binv]


def _k_linear_matrix(small: FiniteField, w_std: FFElement, tpows, binv, x: FFElement):
    """Matrix of multiplication by x on the big field viewed over its degree-2
    subfield, in the basis of _k_basis, with entries mapped into `small`."""
    half = len(tpows)
    cols = [_k_coords(binv, x * t) for t in tpows]
    return tuple(tuple(small.scalar(c[i]) + small.scalar(c[half + i]) * w_std for c in cols) for i in range(half))


def _covector(gram, u):
    """The row conj(u)^T gram of the Hermitian form: the form (u, x) is its
    dot product with x."""
    acc = [g.field.zero() for g in gram[0]]
    for ui, row in zip(u, gram):
        if not ui.is_zero():
            ui = ui.frobenius()
            acc = [a + ui * g for a, g in zip(acc, row)]
    return acc


def _dot(c, x):
    """The dot product of two rows of field elements, or of ints."""
    return sum(map(operator.mul, c[1:], x[1:]), c[0] * x[0])


def _symplectic_change_of_basis(gram, p: int):
    """P with P^T * gram * P the standard antidiagonal form, all ints mod the prime p.

    `remaining` is a basis of the complement of the pairs so far.  Each step
    pairs its first u with the first w of (u, w) != 0, v = w / (u, w), and
    projects along <u, v> = <u, w>: the other projections stay independent,
    so dropping u and w keeps `remaining` a basis with no re-reduction."""
    n = len(gram)
    if any((gram[i][j] + gram[j][i] if i != j else gram[i][i]) % p for i in range(n) for j in range(i + 1)):
        raise AssertionError("the Gram matrix is not alternating")
    remaining, pairs = list(_imat_identity(n)), []
    while remaining:
        u = remaining[0]
        (cu,) = _imat_mul((u,), gram, p)
        w = next((x for x in remaining[1:] if _dot(cu, x) % p), None)
        if w is None:
            raise AssertionError("the Gram matrix is degenerate")
        scale = pow(_dot(cu, w), -1, p)
        v = tuple(scale * c % p for c in w)
        (cv,) = _imat_mul((v,), gram, p)
        pairs.append((u, v))
        # x - (x, v) u + (x, u) v, as (x, y) = -(y, x) on an alternating form
        remaining = [
            tuple((xi + a * ui - b * vi) % p for xi, ui, vi in zip(x, u, v))
            for x in remaining[1:] if x is not w for a, b in [(_dot(cv, x), _dot(cu, x))]
        ]
    return tuple(zip(*([u for u, _ in pairs] + [v for _, v in reversed(pairs)])))


def _hermitian_scale(field: FiniteField, norm: FFElement) -> FFElement:
    """The least-index s with N(s) norm = 1, N(s) = s^(ell + 1), for norm in
    GF(ell)*.  With t^2 + a1 t + a0 = 0, s = a + b t has N(s) = a^2 - a1 a b
    + a0 b^2, so s is the least root a of a^2 - a1 b a + a0 b^2 - 1/norm at
    the least b where that has one, the roots read off factor_mod."""
    p = field.p
    a0, a1, _ = field.modulus
    c = pow(norm.lift(), -1, p)
    for b in range(p):
        _, factors = factor_mod((a0 * b * b - c, -a1 * b, 1), p)
        roots = [-g[0] % p for g, _ in factors if len(g) == 2]
        if roots:
            return field.element([min(roots), b])
    raise AssertionError("the norm map is onto GF(ell)*")


def _hermitian_change_of_basis(gram, field):
    """P with conj(P)^T * gram * P equal to the identity.

    `remaining` is a basis of the complement of the vectors so far.  A step
    takes its first anisotropic vector, or, if all are isotropic, a + t b
    for its first a, the first b with (a, b) != 0 and the least t that
    works; it scales this u to norm 1 and projects along <u>.  The
    projections stay a basis once the vector u came from is dropped, or b,
    whose projection is a multiple of a's: no re-reduction."""
    norm = lambda x: _dot(_covector(gram, x), x)  # noqa: E731
    remaining, ortho = list(mat_identity(field, len(gram))), []
    while remaining:
        u = drop = next((x for x in remaining if not norm(x).is_zero()), None)
        if u is None:
            a = remaining[0]
            ca = _covector(gram, a)
            drop = next(x for x in remaining[1:] if not _dot(ca, x).is_zero())
            mixes = (tuple(ai + t * bi for ai, bi in zip(a, drop)) for t in field.elements())
            u = next(x for x in mixes if not norm(x).is_zero())
        scale = _hermitian_scale(field, norm(u))
        u = tuple(scale * c for c in u)
        cu = _covector(gram, u)
        ortho.append(u)
        remaining = [tuple(xi - c * ui for xi, ui in zip(x, u)) for x in remaining if x is not drop for c in [_dot(cu, x)]]
    return tuple(zip(*ortho))


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


class AnisotropicTorus(Record):
    """Matrix model of the maximally anisotropic maximal torus.

    generators[0] is the multiplication-by-primitive-element generator; the
    dual-pair torus (family A, even rank) is not cyclic and carries a second,
    similitude-direction generator, so the subgroup generated by all listed
    generators is the torus.
    """

    __slots__ = ("desc", "generators", "order")

    @property
    def generator(self) -> GroupElement:
        return self.generators[0]


def _torus_in_standard_form(desc: GroupDescriptor, p_mat, generators):
    """The torus of the generator matrices, conjugated by p_mat into the
    standard form, which each must then preserve."""
    elts = tuple(contains(desc, g) for g in _conjugates(desc, p_mat, generators))
    assert all(elts), "torus generator must preserve the standard form"
    return AnisotropicTorus(desc, elts, torus_order(desc))


@lru_cache(maxsize=None)
def build_anisotropic_torus(desc: GroupDescriptor) -> AnisotropicTorus:
    """The matrix torus.  Its one refusal is the generator search's: a
    cofactor of ell^N - 1 at or above IS_PRIME_LIMIT raises BudgetExceeded
    (_multiplicative_generator)."""
    q, r = desc.ell, desc.r
    field = desc.matrix_field
    if desc.family == "C":
        big = make_field(q, 2 * r)
        zeta = _multiplicative_generator(big)
        gen = zeta ** ((q**r - 1) // (q - 1))
        # alternating trace form Tr(c * x * y^sigma) with c anti-fixed by sigma
        c = _anti_fixed_element(big, q**r)
        n = 2 * r
        tpows = [big.element([0] * i + [1]) for i in range(n)]
        conj = [t.frobenius(r) for t in tpows]
        traces = [_trace(t, 1, n).lift() for t in tpows]  # Tr is linear: Tr(x) = sum x_i Tr(t^i)
        gram = tuple(tuple(sum(map(operator.mul, (c * t * y).coeffs, traces)) % q for y in conj) for t in tpows)
        mult = tuple(zip(*[(gen * t).coeffs for t in tpows]))
        return _torus_in_standard_form(desc, _field_matrix(desc, _symplectic_change_of_basis(gram, q)), [_field_matrix(desc, mult)])

    if r % 2 == 1:
        big = make_field(q, 2 * r)
        zeta, w, w_std = _subfield_quadratic_image(big, field)
        gen = zeta ** ((q**r - 1) // (q - 1))
        half = r
        tpows, binv = _k_basis(big, w)

        def to_std(x):
            # x = a + b*w in the quadratic subfield: coordinates (a, 0.., b, 0..)
            coords = _k_coords(binv, x)
            a, b = coords[0], coords[half]
            coords[0] = coords[half] = 0
            assert not any(coords), "element does not lie in the quadratic subfield"
            return field.scalar(a) + field.scalar(b) * w_std

        gram = tuple(
            tuple(to_std(_trace(tpows[i].frobenius(r) * tpows[j], 2, r)) for j in range(half))
            for i in range(half)
        )
        mult = _k_linear_matrix(field, w_std, tpows, binv, gen)
        return _torus_in_standard_form(desc, _hermitian_change_of_basis(gram, field), [mult])

    # family A, r even: dual-pair torus on two isotropic blocks
    s = r // 2
    big = make_field(q, r)
    gamma, w, w_std = _subfield_quadratic_image(big, field)
    a_block = _k_linear_matrix(field, w_std, *_k_basis(big, w), gamma)
    dual = mat_conj_transpose(_field_inverse(desc, a_block))
    zero = field.zero()
    gen1 = tuple(row + (zero,) * s for row in a_block) + tuple((zero,) * s + row for row in dual)
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
    return _torus_in_standard_form(desc, _hermitian_change_of_basis(hyper, field), [gen1, gen2])


def _uniform_derived(desc: GroupDescriptor, rng) -> tuple:
    """A uniform element of Sp_2r(GF(ell)) or SU_r(GF(ell^2)) as a natural
    int matrix: M = R P, R uniform invertible and P the change of basis of
    its Gram matrix ct(R) J R, which g R shares for every isometry g.  So
    the law of M is invariant under left multiplication by the isometries,
    and M is uniform among them.  In family A, det M has norm 1: scaling
    M's first column by det(M)^-1, a mat_det over GF(ell^2) (the natural
    matrix's is N(det M) = 1), maps each coset of SU onto SU one to one."""
    field, n, ell = desc.matrix_field, desc.matrix_dim, desc.ell
    nat = None
    while nat is None or _imat_forward(nat, ell) is None:
        r = tuple(tuple(field.from_index(rng.randrange(field.q)) for _ in range(n)) for _ in range(n))
        nat = _natural_matrix(desc, r)
    if desc.family == "C":
        gram = _imat_mul(_imat_mul(tuple(zip(*nat)), _natural_form(desc), ell), nat, ell)
        return _imat_mul(nat, _symplectic_change_of_basis(gram, ell), ell)
    gram = _field_matrix(desc, _imat_mul(_natural_matrix(desc, mat_conj_transpose(r)), nat, ell))
    m = _field_matrix(desc, _imat_mul(nat, _natural_matrix(desc, _hermitian_change_of_basis(gram, field)), ell))
    scale = mat_det(m).inverse()
    return _natural_matrix(desc, tuple((row[0] * scale,) + row[1:] for row in m))


# ---------------------------------------------------------------------------
# packed fast layer


class _PackedField:
    """Index-coded field arithmetic with dense lookup tables, built on ints.
    The element c0 + c1 t + ... has index c0 + c1 p + ... (from_index), so
    a sum adds the base-p digits mod p, and a product of units adds their
    logarithms to the base of _multiplicative_generator.  elements holds
    the FFElement of each index, for unpack_matrix."""

    def __init__(self, field: FiniteField):
        p, q = field.p, field.q
        self.q = q
        self.p = p
        add = [[(a + b) % p for b in range(p)] for a in range(p)]
        for size in (p**i for i in range(1, field.k)):
            # index = low + size * top: add the low digits and the top digit apart
            add = [
                [lo + hi for hi in top for lo in low]
                for top in ([size * ((a + b) % p) for b in range(p)] for a in range(p))
                for low in add
            ]
        self.add = add
        exp, x, g = [], field.one(), _multiplicative_generator(field)
        for _ in range(q - 1):
            exp.append(x.index())
            x = x * g
        log = [0] * q
        for i, a in enumerate(exp):
            log[a] = i
        logs, exp2 = log[1:], exp + exp
        self.mul = [[0] * q] + [[0] + [exp2[la + lb] for lb in logs] for la in logs]
        self.inv = [0] + [exp[-la % (q - 1)] for la in logs]
        self.neg = [row[p - 1] for row in self.mul]  # p - 1 is the index of -1
        self.conj = [0] + [exp[la * p % (q - 1)] for la in logs]
        self.elements = tuple(field.elements())  # immutable, so every unpacked matrix shares them


@lru_cache(maxsize=None)
def _packed_field(field: FiniteField) -> _PackedField:
    return _PackedField(field)


def pack_matrix(matrix) -> tuple:
    return tuple(x.index() for row in matrix for x in row)


def unpack_matrix(desc: GroupDescriptor, packed) -> tuple:
    n = desc.matrix_dim
    element = _packed_field(desc.matrix_field).elements.__getitem__
    return tuple(tuple(map(element, packed[i : i + n])) for i in range(0, n * n, n))


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


def _pmat_commute(pf: _PackedField, n: int):
    """commute(a, b) is ab == ba, compared cell by cell: False at the first
    (i, j) where (ab)_ij and (ba)_ij differ, without the rest of either
    product."""
    add, mul = pf.add, pf.mul
    # row-major, each cell (i, j) as the index pairs (ik, kj) of its sum
    cells = [tuple((i * n + k, k * n + j) for k in range(n)) for i in range(n) for j in range(n)]

    def commute(a, b):
        for cell in cells:
            ab = ba = 0
            for ik, kj in cell:
                ab = add[ab][mul[a[ik]][b[kj]]]
                ba = add[ba][mul[b[ik]][a[kj]]]
            if ab != ba:
                return False
        return True

    return commute


def _commutant_forms(pg: "_PackedGroup", y) -> list:
    """The cells of g y - y g as linear forms in the entries of g, for the
    oracle's scan: cell (i, j) is sum_k g_ik y_kj - sum_k y_ik g_kj, whose
    two g_ij terms merge into one with coefficient y_jj - y_ii.  A form is
    its nonzero terms, each (index of the entry of g, product row of its
    coefficient), and the zero forms are left out: they all vanish at g iff
    g y = y g."""
    n, add, mul, neg = pg.n, pg.pf.add, pg.pf.mul, pg.pf.neg
    forms = []
    for i in range(n):
        for j in range(n):
            coef = {i * n + k: y[k * n + j] for k in range(n)}
            for k in range(n):
                coef[k * n + j] = add[coef.get(k * n + j, 0)][neg[y[i * n + k]]]
            form = tuple((a, mul[c]) for a, c in coef.items() if c)
            if form:
                forms.append(form)
    return forms


def _pmat_conj_transpose(pf: _PackedField, n: int, conjugate: bool):
    conj = pf.conj

    def ct(a):
        if conjugate:
            return tuple(conj[a[j * n + i]] for i in range(n) for j in range(n))
        return tuple(a[j * n + i] for i in range(n) for j in range(n))

    return ct


def _gram_terms(pf: _PackedField, n: int, gram, j0: int):
    """The terms of (ct(a) J a)_(0, j0) / J_(0, j0), one per nonzero J_kl:
    the indices k0 and l j0 of a, and the product row of J_kl / J_(0, j0)."""
    scale = pf.mul[pf.inv[gram[j0]]]
    return tuple(
        (k * n, l * n + j0, pf.mul[scale[gram[k * n + l]]]) for k in range(n) for l in range(n) if gram[k * n + l]
    )


class _PackedGroup:
    """Per-descriptor packed matrix toolkit."""

    def __init__(self, desc: GroupDescriptor):
        self.desc = desc
        self.n = desc.matrix_dim
        self.pf = _packed_field(desc.matrix_field)
        self.mm = _pmat_mul(self.pf, self.n)
        self.commute = _pmat_commute(self.pf, self.n)
        self.ct = _pmat_conj_transpose(self.pf, self.n, desc.family == "A")
        gram = standard_gram(desc)
        self.gram = pack_matrix(gram)
        self.jinv = pack_matrix(_field_inverse(desc, gram))
        self.identity = pack_matrix(mat_identity(desc.matrix_field, self.n))
        self._gram_anchor = next(j for j in range(self.n) if self.gram[j])
        self._gram_terms = _gram_terms(self.pf, self.n, self.gram, self._gram_anchor)
        self._conj = self.pf.conj if desc.family == "A" else range(self.pf.q)

    def left(self, g):
        """b -> g b, with the nonzero entries of g, their indices in b and
        their rows of the product table found once per g.  A root element
        of GSp has one or two nonzero entries a row, so a product by it
        costs about n^2 lookups, not n^3; a dense g still saves the index
        arithmetic of mm."""
        n, add, mul = self.n, self.pf.add, self.pf.mul
        # cell (i, j) of g b: the pairs (index of b_kj, row of g_ik) over the nonzero g_ik
        cells = [
            tuple((k * n + j, mul[g[i + k]]) for k in range(n) if g[i + k])
            for i in range(0, n * n, n)
            for j in range(n)
        ]

        def times(b):
            out = []
            for cell in cells:
                acc = 0
                for kj, row in cell:
                    acc = add[acc][row[b[kj]]]
                out.append(acc)
            return tuple(out)

        return times

    def multiplier(self, a) -> int:
        """The similitude of a, which must be a member of the group: the
        anchor entry of ct(a) J a over J's anchor, summed over the nonzero
        entries of J alone, with no product formed and nothing checked."""
        add, mul, conj = self.pf.add, self.pf.mul, self._conj
        lam = 0
        for k0, lj, row in self._gram_terms:
            lam = add[lam][mul[conj[a[k0]]][row[a[lj]]]]
        return lam

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

    def inverse(self, a):
        """a^-1 = (lam^-1 J^-1) ct(a) J, from ct(a) J a = lam J."""
        lam = self.similitude(a)
        if lam is None:
            raise ValueError("matrix outside the group")
        scale = self.pf.mul[self.pf.inv[lam]]
        return self.mm(self.mm(tuple(scale[x] for x in self.jinv), self.ct(a)), self.gram)


@lru_cache(maxsize=None)
def _packed_group(desc: GroupDescriptor) -> _PackedGroup:
    return _PackedGroup(desc)


@lru_cache(maxsize=None)
def _group_set(desc: GroupDescriptor) -> frozenset:
    """The packed full group as a set, for the oracle's membership test;
    built on the oracle's first call, not with the listing."""
    return frozenset(enumerate_group_packed(desc, "full"))


_ENUM_CACHE: dict = {}


def _mulclose(generators, left, cap: int):
    """The closure of the generators under multiplication, which for
    elements of a finite group is the subgroup they generate; BudgetExceeded
    past cap.  left(g) is the map b -> g b, built once per generator."""
    els = set(generators)
    frontier = list(els)
    lefts = [left(g) for g in generators]
    while frontier:
        new = []
        for times in lefts:
            for b in frontier:
                c = times(b)
                if c not in els:
                    els.add(c)
                    new.append(c)
                    if len(els) > cap:
                        raise BudgetExceeded("closure exceeded the enumeration cap")
        frontier = new
    return els


def _part_generators(desc: GroupDescriptor, part: str):
    """Matrices generating the part.  The simple root elements and their
    transposes generate the derived group (Steinberg; Taylor for the
    unitary forms): in the basis where the form is antidiagonal, a at E_ij
    and -a^sigma at its mirror, for a in the GF(ell)-basis of the matrix
    field; the middle root of odd n adds b with b + b^ell = -N(a), and the
    long root of even n is 1 on GSp and theta, theta^ell = -theta != 0, on
    GU.  'unitary' adds a diagonal of determinant gamma^(ell - 1), which
    generates the norm-1 group, and 'full' a similitude whose multiplier
    generates GF(ell)*, unless that is trivial.  No generator is the
    identity."""
    field, n, ell = desc.matrix_field, desc.matrix_dim, desc.ell
    s, one, zero, unitary = n // 2, field.one(), field.zero(), desc.family == "A"

    def elementary(*entries, diagonal=(one,) * n):
        m = [[diagonal[i] if i == j else zero for j in range(n)] for i in range(n)]
        for i, j, a in entries:
            m[i][j] = a
        return tuple(tuple(row) for row in m)

    basis = [field.from_index(ell**i) for i in range(field.k)]  # 1, and t in GF(ell^2)
    roots = [elementary((i, i + 1, a), (n - 2 - i, n - 1 - i, -a.frobenius())) for a in basis for i in range(s - 1)]
    if n % 2 == 0:
        roots.append(elementary((s - 1, s, basis[-1] - basis[-1].frobenius() if unitary else one)))
    elif s:  # b = -c N(a) with c + c^ell = 1
        c = next(c for c in field.elements() if c + c.frobenius() == one)
        roots += [elementary((s - 1, s, a), (s, s + 1, -a.frobenius()), (s - 1, s + 1, -c * a * a.frobenius())) for a in basis]
    roots += [tuple(zip(*g)) for g in roots]
    gamma = _multiplicative_generator(field)
    if not unitary:
        # over GF(2) gamma is 1 and GSp is Sp: that diagonal would be the identity
        full = part == "full" and gamma != one
        return roots + ([elementary(diagonal=(one,) * s + (gamma,) * s)] if full else [])
    p_mat = _hermitian_change_of_basis(elementary(*[(i, n - 1 - i, one) for i in range(n)], diagonal=(zero,) * n), field)
    gens = _conjugates(desc, p_mat, roots)
    if part != "derived":
        gens.append(elementary(diagonal=(gamma ** (ell - 1),) + (one,) * (n - 1)))
    if part == "full":
        gens.append(elementary(diagonal=(gamma,) * n))
    return gens


def enumerate_group_packed(desc: GroupDescriptor, part: str = "full"):
    """All packed matrices of the requested subgroup, in ascending order of
    their entries, budget-capped: the closure of _part_generators.  Each
    generator lies in the part, so the closure is a subgroup of it, and the
    closure has the part's order."""
    key = (desc, part)
    if key in _ENUM_CACHE:
        return _ENUM_CACHE[key]
    expected = group_order(desc, part)
    if expected > MAX_GROUP_SIZE:
        raise BudgetExceeded(f"group of order {expected} exceeds the enumeration cap")
    tables = desc.matrix_field.q ** 2  # entries of each packed field table
    if tables > MAX_GROUP_SIZE:
        raise BudgetExceeded(f"packed field tables of {tables} entries exceed MAX_GROUP_SIZE = {MAX_GROUP_SIZE}")
    pg = _packed_group(desc)
    gens = []
    for g in _part_generators(desc, part):
        lam = pg.similitude(pack_matrix(g))
        assert lam is not None and (part == "full" or lam == 1), f"generator outside the {part} group"
        assert part != "derived" or mat_det(g) == desc.matrix_field.one(), "derived generator of det != 1"
        gens.append(pack_matrix(g))
    out = sorted(_mulclose(gens or [pg.identity], pg.left, expected))
    assert len(out) == expected, f"enumeration found {len(out)}, formula says {expected}"
    _ENUM_CACHE[key] = out
    return out


def enumerate_group(desc: GroupDescriptor, part: str = "full"):
    """All GroupElements of the requested subgroup (budget-capped)."""
    elements = enumerate_group_packed(desc, part)
    multiplier = _packed_group(desc).multiplier
    return [GroupElement(desc, unpack_matrix(desc, m), multiplier(m)) for m in elements]


# ---------------------------------------------------------------------------
# classification


def _twists(s: int) -> list:
    """The j with 2j = 1 (mod s) for s > 0, none for s = 0 (see
    classify_element): at most one, (s + 1)/2 mod s, for odd s."""
    return [(s + 1) // 2 % s] if s % 2 else []


def classify_element(x: GroupElement, m: int = 1) -> bool:
    """True iff x^m is regular with maximally anisotropic connected
    centralizer: Rabin's test read on the matrix, with no characteristic
    polynomial.

    y = x^m acts on the natural GF(ell)-space; F_0 = y, F_(i+1) = F_i^ell,
    and D = r on the dual-pair torus (family A, r = 2s), D = 2r otherwise.
    F_D = y says that y is semisimple with every eigenvalue beta in
    GF(ell^D).  P, the product of F_(D/p) - y over the primes p | D (p | s on
    the dual-pair torus) and of F_(2j) F_1 - lam I for j in _twists(s) (lam
    the similitude of y), is then a polynomial in a semisimple matrix, whose
    eigenvalues are its values at the beta.  P is invertible iff each factor
    is, and forward elimination mod ell of the factor alone (_imat_forward)
    decides that, stopping at its first missing pivot; neither P nor a power of it is formed.  P invertible says no beta
    lies in a proper subfield: on the norm-line tori the characteristic polynomial is
    irreducible (Rabin's test), and on the dual-pair torus it is two
    factors of degree s over GF(ell^2).  The unitary Frobenius beta ->
    lam / beta^ell maps them onto themselves, and its square is beta ->
    beta^(ell^2); so it fixes a factor only by acting on it as beta ->
    beta^(ell^(2j)) with 2j = 1 (mod s), which the twist factor rules out.
    A repeated factor would be fixed, so squarefreeness needs no test.

    The answer is the conjunction of these tests, so they run in the order
    that stops soonest: F_1, ..., F_D are built one at a time and each
    F_(D/p) - y is tested as soon as F_(D/p) exists, the first singular one
    answering False; then F_D = y; then the twist factor.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    desc = x.desc
    ell = desc.ell
    x_nat = _natural_matrix(desc, x.matrix)
    eye = _imat_identity(len(x_nat))
    mul = lambda a, b: _imat_mul(a, b, ell)  # noqa: E731
    y = power(x_nat, m, mul, eye)
    lam = pow(x.similitude, m, ell)
    s = desc.r // 2 if desc.family == "A" and desc.r % 2 == 0 else 0  # 0: norm-line torus
    d = 2 * s or 2 * desc.r
    tested = {d // p for p in prime_divisors(s or d)}
    frob = [y]
    for i in range(1, d + 1):
        frob.append(power(frob[-1], ell, mul, eye))
        if i in tested and _imat_forward(_imat_sub(frob[i], y, ell), ell) is None:
            return False
    if frob[d] != y:
        return False
    lam_eye = tuple(tuple(lam * v for v in row) for row in eye)
    twists = [_imat_sub(mul(frob[2 * j], frob[1]), lam_eye, ell) for j in _twists(s)]
    return all(_imat_forward(f, ell) is not None for f in twists)


def _cyclic_powers(pg: _PackedGroup, y) -> list | None:
    """[I, y, ..., y^(n-1)] when they are linearly independent over the
    matrix field, that is when y is cyclic (nonderogatory); else None.  One
    forward elimination on the packed tables: each power is reduced by the
    rows kept so far, each scaled to 1 at its pivot, and a power that
    reduces to zero makes them dependent."""
    add, mul, inv, neg, getitem = pg.pf.add, pg.pf.mul, pg.pf.inv, pg.pf.neg, operator.getitem
    powers, rows = [pg.identity], []
    for k in range(pg.n):
        if k:
            powers.append(pg.mm(powers[-1], y))
        v = powers[-1]
        for col, row in rows:
            if v[col]:  # v - v[col] row
                v = tuple(map(getitem, map(add.__getitem__, v), map(mul[neg[v[col]]].__getitem__, row)))
        col = next((i for i, a in enumerate(v) if a), None)
        if col is None:
            return None
        rows.append((col, tuple(map(mul[inv[v[col]]].__getitem__, v))))
    return powers


def _span(pf: _PackedField, vectors) -> list:
    """Every linear combination of the vectors over the field, q^len of
    them, each once when the vectors are independent.  The span grows one
    vector b at a time: each v already in it adds v + c b for every c != 0,
    read off the sum-table rows of v."""
    add, getitem = pf.add, operator.getitem
    span = [(0,) * len(vectors[0])]
    for b in vectors:
        multiples = [tuple(map(row.__getitem__, b)) for row in pf.mul[1:]]
        sums = [list(map(add.__getitem__, v)) for v in span]
        span += [tuple(map(getitem, rows, cb)) for rows in sums for cb in multiples]
    return span


def classify_element_oracle(x: GroupElement, m: int = 1) -> bool:
    """Definitional answer: the centralizer C of y = x^m in the full group
    is abelian of the anisotropic-torus order.  It is found by one of two
    enumerations.

    When y is cyclic (I, y, ..., y^(n-1) independent, _cyclic_powers), the
    matrices commuting with y are exactly the polynomials in y, the span
    GF(q)[y] of those powers (Horn-Johnson, Matrix Analysis, Thm 3.2.4.2).
    C is then GF(q)[y] meet G, counted over the q^n elements of the span by
    membership in the listed group, and it is abelian because GF(q)[y] is
    commutative: the answer is |C| = |T|.

    Otherwise the listed group is scanned.  The scan reads g y - y g as the
    linear forms of _commutant_forms, built once, and leaves g at the first
    form that is nonzero.  C is abelian iff a generating set of it commutes
    pairwise.  The generators are taken greedily, each element c of C not
    yet in the span H of those before it, and c is tested against each of
    them as it joins; then c commutes with H, so <H, c> is the union of the
    cosets c^i H, and the span grows by c-multiples of the cosets until one
    lands back in H."""
    if m < 1:
        raise ValueError("m must be at least 1")
    desc = x.desc
    elements = enumerate_group_packed(desc, "full")
    pg = _packed_group(desc)
    y = power(pack_matrix(x.matrix), m, pg.mm, pg.identity)
    target = torus_order(desc)
    powers = _cyclic_powers(pg, y)
    if powers is not None:
        members = _group_set(desc)
        return sum(v in members for v in _span(pg.pf, powers)) == target
    add, forms = pg.pf.add, _commutant_forms(pg, y)
    cent = []
    for g in elements:
        for form in forms:
            acc = 0
            for k, row in form:
                acc = add[acc][row[g[k]]]
            if acc:
                break
        else:
            cent.append(g)
            if len(cent) > target:
                return False
    if len(cent) != target:
        return False
    gens, span = [], {pg.identity}
    for c in cent:
        if c in span:
            continue
        if not all(pg.commute(c, a) for a in gens):
            return False
        gens.append(c)
        times, coset = pg.left(c), list(span)
        while (coset := [times(h) for h in coset])[0] not in span:
            span.update(coset)
    return True


# ---------------------------------------------------------------------------
# censuses


class NormalizerCensus(Record):
    __slots__ = ("normalizer_order", "weyl_order")


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
    of the finite group T(F_ell) (the tests' oracle) whenever T(F_ell)
    holds a regular element.  The one torus here without one is GU_2 over
    GF(4), where T(F_2) is the centre of order 3: there the oracle finds all
    of G, and the count identity holds either way since T* is empty.
    """
    w = 2 * desc.r if desc.family == "C" else desc.r
    return NormalizerCensus(w * torus_order(desc), w)


class TorusCensus(Record):
    """Exact torus counts at one prime: regular_count counts the elements
    whose m-th power is regular, regular_count_base is the m = 1 count, and
    b_estimate is ell * (1 - regular_count_base / torus_order)."""

    __slots__ = (
        "desc",
        "m",
        "torus_order",
        "regular_count",
        "regular_count_base",
        "b_estimate",
        "subgroup_orders",
        "normalizer_order",
        "weyl_order",
        "exceptional_field",
    )


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
    subfield and twist lattice of the module docstring."""
    q, r = desc.ell, desc.r
    k, n, base = _torus_part(desc, part)
    s = r // 2 if desc.family == "A" and r % 2 == 0 else 0  # 0: norm-line torus
    degrees = [2 * s // p for p in prime_divisors(s)] if s else [2 * r // p for p in prime_divisors(2 * r)]
    subfields = [_lattice(m * (q**d - 1), 0, n) for d in degrees]
    beta = m * n // k  # m n/(ell - 1), the twist's coefficient of w
    twists = [_lattice(m * (q ** (2 * j) + q), beta, n) for j in _twists(s)]
    return _count_avoiding(k, n, base, subfields + twists)


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
