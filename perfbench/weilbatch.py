"""weil-batch: warm library traffic through ``weil_validate`` and ``analyze``.

Each item is one Weil polynomial over a prime q, built so that its
factorisation over Z and its power exponent d are known from the
construction:

* products of k distinct Weil quadratics t^2 - a t + q, |a| < 2 sqrt(q)
  (negative discriminant, so each is irreducible);
* powers g^d of such products;
* Swinnerton-Dyer type t^g h(t + q/t), h the minimal polynomial of a sum of
  square roots of primes, irreducible of degree 16 and 32.  Every factor of
  these modulo a prime has degree at most 4, the worst case for the
  Zassenhaus recombination.

The seed draws the coefficients a of the quadratics and the order of the
items; the shape of every item (k, d and q) is fixed, and so are the
Swinnerton-Dyer items, so that the cost of a pass varies little between
seeds (the Zassenhaus cost depends strongly on q).  The construction is checked
against sympy's ``factor_list`` in a separate process before timing.
"""

from __future__ import annotations

import json
import random
import sys

from common import OUT, run_child

# (k quadratics, d, q) per item; the seed draws the a's.  Sixteen of the 40
# items are k = 4 products, so the median item falls inside one kind of item.
PRODUCTS = (
    [(2, 1, q) for q in (5, 11, 17)]
    + [(3, 1, q) for q in (7, 13, 19)]
    + [(4, 1, q) for q in (5, 7, 11, 13, 17, 19, 23, 29, 31, 5, 7, 11, 13, 17, 19, 23)]
    + [(5, 1, q) for q in (23, 29, 31)]
    + [(6, 1, q) for q in (11, 23, 31)]
)
POWERS = ((1, 2, 7), (1, 3, 13), (2, 2, 17), (2, 3, 5), (1, 2, 29), (2, 2, 31))
SWINNERTON_DYER = (
    ((2, 3, 5), 17),
    ((2, 3, 5), 19),
    ((2, 3, 5), 23),
    ((2, 3, 5), 29),
    ((2, 3, 5), 31),
    ((2, 3, 5, 7), 17),
)

# Timed passes per run (a pass is about 4 s), and set-up probes spread over them.
PASSES = 5
SETUP_PROBES = 10
SETUP_CODE = "import frobsplit.cli"


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pow(a, e):
    out = [1]
    for _ in range(e):
        out = _mul(out, a)
    return out


def _shift_by_sqrt(h, p):
    """h(x - sqrt p) * h(x + sqrt p) as an integer polynomial."""
    # h(x + s) = A(x) + s B(x) with s^2 = p; the product is A^2 - p B^2.
    even, odd = [0] * len(h), [0] * len(h)
    for j, c in enumerate(h):
        for i in range(j + 1):  # binomial expansion of (x + s)^j
            coeff = c * _binom(j, i)
            k = j - i  # power of s
            target = even if k % 2 == 0 else odd
            target[i] += coeff * p ** (k // 2)
    a2, b2 = _mul(even, even), _mul(odd, odd)
    return [x - p * y for x, y in zip(a2, b2)]


def _binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def swinnerton_dyer(primes):
    """Minimal polynomial of sum(sqrt p), ascending coefficients."""
    h = [0, 1]
    for p in primes:
        h = _shift_by_sqrt(h, p)
    return h


def weil_from_real(h, q):
    """t^g h(t + q/t) for h of degree g."""
    g = len(h) - 1
    out = [0] * (2 * g + 1)
    base = [1]
    for j in range(g + 1):
        for i, c in enumerate(base):
            out[i + g - j] += h[j] * c
        base = _mul(base, [q, 0, 1])
    return out


def _quadratics(rng, q, k):
    amax = 0
    while (amax + 1) ** 2 < 4 * q:
        amax += 1
    return [[q, -a, 1] for a in rng.sample(range(-amax, amax + 1), k)]


def build_batch(seed: int):
    """[(q, coefficients, irreducible factors, d)] with f = (prod factors)^d."""
    rng = random.Random(seed)
    batch = [(q, _quadratics(rng, q, k), d) for k, d, q in PRODUCTS + list(POWERS)]
    batch += [(q, [weil_from_real(swinnerton_dyer(primes), q)], 1) for primes, q in SWINNERTON_DYER]
    rng.shuffle(batch)
    out = []
    for q, factors, d in batch:
        root = [1]
        for g in factors:
            root = _mul(root, g)
        out.append((q, _pow(root, d), sorted(factors), d))
    return out


def program_setup():
    """Nothing beyond SETUP_CODE's import, which run.py has done."""
    return None


class WeilBatch:
    cold = False

    def __init__(self, seed: int, state):
        from frobsplit import intpoly, weil
        from frobsplit.cli import _default_aux_primes

        self.intpoly, self.weil, self.aux_primes = intpoly, weil, _default_aux_primes
        self.items = build_batch(seed)
        self._sympy_cross_check()

    def _sympy_cross_check(self) -> None:
        OUT.mkdir(exist_ok=True)
        path = OUT / "weil_batch.json"
        path.write_text(json.dumps([f for _, f, _, _ in self.items]))
        done = run_child([sys.executable, "perfbench/sympy_factor.py", str(path)])
        if done.status != 0:
            raise SystemExit(f"perfbench: sympy reference failed:\n{done.stderr}")
        for (q, f, factors, d), got in zip(self.items, json.loads(done.stdout)):
            expected = sorted([g, d] for g in factors)
            if sorted(got) != expected:
                raise SystemExit(f"perfbench: construction of {f} over q={q} disagrees with sympy")

    def timed_passes(self, item) -> int:
        return PASSES

    def run(self, item, traced: bool):
        q, f, _, _ = item
        w = self.weil.weil_validate(self.intpoly.IntPoly.make(f), q)
        rep = self.weil.analyze(w, aux_primes=self.aux_primes(q))
        factors = sorted((list(c.poly.coeffs), c.multiplicity) for c in rep.factors)
        return (rep.d, factors, rep.isogeny_shape), None, 0, ()

    def check(self, item, output) -> str:
        _, _, factors, d = item
        got_d, got_factors, shape = output
        if got_d != d or got_factors != [(g, 1) for g in factors]:
            return "wrong: factorisation or power differs from the construction"
        part = "Y" if d == 1 else f"Y^{d}"
        if shape != " x ".join([part] * len(factors)):
            return f"wrong: isogeny shape {shape!r}"
        return "ok"

    def final_checks(self):
        return []


WORKLOAD = WeilBatch
