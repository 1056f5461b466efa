"""The CLI contract as a property: every argv that parses ends with exit
0, 2, 3 or 4 and a JSON report on stdout, never a traceback.

Hypothesis draws argv for every subcommand with bounded sizes: r <= 2, ell
from the small primes and a few non-primes and negatives, --samples <= 1000,
and Weil polynomials that are random or products of Weil quadratics.  Each
valid value is drawn three times as often as each invalid one, so most argv
get past the first domain check.  Flags are written --flag=value, so a
negative value parses as a value.  The search is derandomized, so every
run draws the same argv.
"""

import contextlib
import io
import json
from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from frobsplit.cli import main

PRIMES = [2, 3, 5, 7]
NOT_PRIMES = [0, 1, 4, 9, -3]


def _mostly(valid, invalid):
    """Each value of valid three times as likely as each value of invalid."""
    return st.sampled_from(3 * list(valid) + list(invalid))


family = st.sampled_from(["A", "C"])
rank = _mostly([1, 2], [0, -1])
level = _mostly([1, 2, 3], [0, -1])
squeeze = st.sampled_from(["der", "full"])
seed = st.integers(0, 3)
ell = _mostly(PRIMES, NOT_PRIMES)
ells = st.lists(ell, min_size=1, max_size=2).map(lambda xs: ",".join(map(str, xs)))


def _flags(**values):
    return [f"--{name.replace('_', '-')}={value}" for name, value in values.items() if value is not None]


@st.composite
def torus(draw):
    return ["torus"] + _flags(family=draw(family), r=draw(rank), ell=draw(ell), m=draw(level))


@st.composite
def density(draw):
    return ["density"] + _flags(family=draw(family), r=draw(rank), ells=draw(ells), m=draw(level), squeeze=draw(squeeze))


@st.composite
def cm_fraction(draw):
    degree = draw(_mostly([2, 4, 6, 8], [-2, 0, 3]))
    return ["cm-fraction"] + _flags(degree=degree, ell=draw(st.none() | ell), ells=draw(st.none() | ells))


@st.composite
def simulate(draw):
    return ["simulate"] + _flags(
        family=draw(family),
        r=draw(rank),
        ells=draw(ells),
        m=draw(level),
        squeeze=draw(squeeze),
        samples=draw(st.integers(1, 1000) | st.integers(-1, 0)),
        seed=draw(seed),
    )


@st.composite
def goursat(draw):
    return ["goursat"] + _flags(
        family=draw(family),
        r=draw(rank),
        ells=draw(ells),
        samples=draw(_mostly([1, 2, 3], [0, -1])),
        seed=draw(seed),
    )


@st.composite
def weil(draw):
    q = draw(_mostly([2, 3, 4, 5, 8, 9, 25], [-2, 0, 1, 6]))
    if q > 0 and draw(_mostly([True], [False])):
        poly = [1]  # a product of Weil quadratics t^2 - a t + q, |a| <= 2 sqrt q
        for _ in range(draw(st.integers(1, 3))):
            a = draw(st.integers(-isqrt(4 * q), isqrt(4 * q)))
            poly = [x - a * y + q * z for x, y, z in zip([0, 0] + poly, [0] + poly + [0], poly + [0, 0])]
    else:
        poly = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=7))
    return ["weil"] + _flags(q=q, poly=",".join(map(str, poly)), ells=draw(st.none() | ells))


@st.composite
def nonspecial(draw):
    r = draw(_mostly(range(1, 7), [0, -1]))
    pair = st.integers(0, max(r, 0)).map(lambda a: (a, r - a))  # sums to r
    pairs = draw(st.lists(pair | st.tuples(st.integers(-1, 6), st.integers(-1, 6)), min_size=1, max_size=3))
    return ["nonspecial"] + _flags(r=r, sig=",".join(f"{a}:{b}" for a, b in pairs))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=st.one_of(torus(), density(), cm_fraction(), simulate(), goursat(), weil(), nonspecial()))
def test_every_parsed_argv_exits_with_a_status_and_a_json_report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    assert status in (0, 2, 3, 4), argv
    report = json.loads(out.getvalue())
    assert report["command"]["subcommand"] == argv[0]
    assert ("result" in report) == (status == 0), argv
