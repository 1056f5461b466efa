"""Batch command-line front end.

Every subcommand resolves its full parameter set, runs one computation, and
emits a machine-readable report (JSON by default, CSV on request) with the
resolved command echoed so any run can be replayed.  Exact rationals are
serialized as {"num": ..., "den": ...} decimal strings; the only floating
point numbers in payloads are simulation z-scores.

Exit codes: 0 success, 2 usage error (or an unwritable --output path), 3
budget exceeded (an enumeration cap, or IS_PRIME_LIMIT in the torus
build), 4 domain rejection (diagnostics in the payload; a prime argument
at or above IS_PRIME_LIMIT is one).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .density import (
    GaloisModel,
    chebotarev_simulate,
    cm_subfield_fraction,
    density_product,
    product_and_bound,
    random_generator_tuples,
)
from .groups import BudgetExceeded, GroupDescriptor, build_anisotropic_torus, torus_census
from .intpoly import poly_from_string
from .weil import CMSignature, analyze, non_special, weil_validate

SCHEMA = "frobsplit/2"


def _frac(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _ells(csv_text: str):
    """The primes an --ells list names; a list naming none is rejected."""
    ells = [int(tok.strip()) for tok in csv_text.split(",") if tok.strip()]
    if not ells:
        raise ValueError("--ells names no prime")
    return ells


def _pairs(text: str):
    out = []
    for tok in text.split(","):
        a, sep, b = tok.strip().partition(":")
        if not sep or not a or not b:
            raise ValueError(f"signature pair {tok!r} is not of the form a:b")
        out.append((int(a), int(b)))
    return tuple(out)


def _serialize_matrix(elt):
    return [[list(x.coeffs) for x in row] for row in elt.matrix]


def parse(argv) -> argparse.Namespace:
    """Parse tokens into a command; argparse exits 2 on usage errors."""
    top = argparse.ArgumentParser(prog="frobsplit", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    subs = top.add_subparsers(dest="subcommand", required=True)

    def common(p, *, seed_required=False):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", help="write the report to this path instead of stdout")
        if seed_required:
            p.add_argument("--seed", type=int, required=True)

    def group_flags(p):
        p.add_argument("--family", choices=["A", "C"], required=True)
        p.add_argument("--r", type=int, required=True)

    p = subs.add_parser("torus", help="anisotropic torus census at one prime")
    group_flags(p)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    common(p)

    p = subs.add_parser("density", help="exact per-prime fractions and product")
    group_flags(p)
    p.add_argument("--ells", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--squeeze", choices=["der", "full"], default="full")
    common(p)

    p = subs.add_parser("cm-fraction", help="proper-subfield unit fraction")
    p.add_argument("--degree", type=int, required=True, help="the even extension degree")
    p.add_argument("--ell", type=int)
    p.add_argument("--ells")
    common(p)

    p = subs.add_parser("simulate", help="seeded Bernoulli consistency check")
    group_flags(p)
    p.add_argument("--ells", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--squeeze", choices=["der", "full"], default="full")
    p.add_argument("--samples", type=int, required=True)
    common(p, seed_required=True)

    p = subs.add_parser("goursat", help="product-surjectivity verifier")
    group_flags(p)
    p.add_argument("--ells", required=True)
    p.add_argument("--samples", type=int, default=2, help="generator tuples to draw")
    common(p, seed_required=True)

    p = subs.add_parser("weil", help="Frobenius polynomial splitting report")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--poly", required=True, help="ascending comma-separated coefficients")
    p.add_argument("--ells", help="auxiliary primes for certificates")
    common(p)

    p = subs.add_parser("nonspecial", help="CM signature checklist")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--sig", required=True, help="pairs a:b, comma separated")
    common(p)

    return top.parse_args(argv)


def _echo(ns: argparse.Namespace) -> dict:
    skip = {"format", "output"}
    return {k: v for k, v in sorted(vars(ns).items()) if k not in skip and v is not None}


def _run_torus(ns):
    desc = GroupDescriptor(ns.family, ns.r, ns.ell)
    census = torus_census(desc, ns.m)
    torus = build_anisotropic_torus(desc)
    return {
        "torus_order": str(census.torus_order),
        "regular_count": str(census.regular_count),
        "regular_count_base": str(census.regular_count_base),
        "b_estimate": _frac(census.b_estimate),
        "subgroup_orders": {k: str(v) for k, v in sorted(census.subgroup_orders.items())},
        "normalizer_order": str(census.normalizer_order),
        "weyl_order": str(census.weyl_order),
        "exceptional_field": census.exceptional_field,
        "generators": [_serialize_matrix(g) for g in torus.generators],
        "generator_similitudes": [g.similitude for g in torus.generators],
    }


def _model(ns) -> GaloisModel:
    return GaloisModel.uniform(ns.family, ns.r, _ells(ns.ells), ns.m, ns.squeeze)


def _run_density(ns):
    rep = density_product(_model(ns))
    return {
        "per_ell": [
            {"ell": ell, "fraction": _frac(f), "exceptional_field": flag}
            for ell, f, flag in rep.per_ell
        ],
        "product": _frac(rep.product),
        "bound": _frac(rep.bound),
        "complement": _frac(rep.complement),
        "residue_degree_one_bound": _frac(rep.residue_degree_one_bound),
        "m": rep.m,
        "squeeze": ns.squeeze,
    }


def _run_cm_fraction(ns):
    ells = []
    if ns.ell is not None:
        ells.append(ns.ell)
    if ns.ells is not None:
        ells.extend(_ells(ns.ells))
    if not ells:
        raise ValueError("cm-fraction needs --ell or --ells")
    if len(set(ells)) != len(ells):
        raise ValueError("primes in a model must be distinct")
    fractions = [cm_subfield_fraction(ns.degree, ell) for ell in ells]
    product, bound = product_and_bound(fractions)
    return {
        "degree": ns.degree,
        "per_ell": [{"ell": ell, "fraction": _frac(f)} for ell, f in zip(ells, fractions)],
        "product": _frac(product),
        "bound": _frac(bound),
    }


def _run_simulate(ns):
    res = chebotarev_simulate(_model(ns), ns.samples, ns.seed)
    return {
        "samples": res.samples,
        "hits": res.hits,
        "empirical": _frac(res.empirical),
        "expected": _frac(res.expected),
        "z_score": res.z_score,
        "seed": res.seed,
        "streams": res.streams,
        "stream_layout": [list(t) for t in res.stream_layout],
    }


def _run_goursat(ns):
    factors = [GroupDescriptor(ns.family, ns.r, ell) for ell in _ells(ns.ells)]
    _, rep = random_generator_tuples(factors, random.Random(ns.seed), count=ns.samples)
    return {
        "factor_orders": [str(o) for o in rep.factor_orders],
        "projections_surjective": list(rep.projections_surjective),
        "closure_order": str(rep.closure_order),
        "product_order": str(rep.product_order),
        "full_product": rep.full_product,
        "in_hypothesis": rep.in_hypothesis,
        "note": rep.note,
        "generator_tuples": ns.samples,
    }


def _default_aux_primes(q: int):
    return [ell for ell in (2, 3, 5, 7, 11, 13) if q % ell != 0][:5]


def _run_weil(ns):
    f = poly_from_string(ns.poly)
    w = weil_validate(f, ns.q)
    aux = _ells(ns.ells) if ns.ells is not None else _default_aux_primes(ns.q)
    rep = analyze(w, aux_primes=aux)
    return {
        "q": ns.q,
        "poly": str(f),
        "degree": f.degree,
        "ordinary": rep.ordinary,
        "prime_field": rep.prime_field,
        "d": rep.d,
        "root": str(rep.root),
        "factors": [
            {
                "poly": str(c.poly),
                "multiplicity": c.multiplicity,
                "e": c.e,
                "d_y": c.d_y,
                "resolved_by": c.resolved_by,
                "candidates": [list(t) for t in c.candidates],
            }
            for c in rep.factors
        ],
        "dual_pairs": [list(t) for t in rep.dual_pairs],
        "self_dual": list(rep.self_dual),
        "certificates": [
            {"ell": rec.ell, "status": rec.status.value, "detail": rec.detail}
            for rec in rep.certificates
        ],
        "conclusion": rep.conclusion.value,
        "isogeny_shape": rep.isogeny_shape,
        "endomorphism_note": rep.endomorphism_note,
        "aux_primes": aux,
    }


def _run_nonspecial(ns):
    sig = CMSignature(ns.r, _pairs(ns.sig))
    conds = non_special(sig)
    return {
        "r": ns.r,
        "pairs": [list(p) for p in sig.pairs],
        "satisfied": list(conds),
        "certified": bool(conds),
    }


_RUNNERS = {
    "torus": _run_torus,
    "density": _run_density,
    "cm-fraction": _run_cm_fraction,
    "simulate": _run_simulate,
    "goursat": _run_goursat,
    "weil": _run_weil,
    "nonspecial": _run_nonspecial,
}


def execute(ns: argparse.Namespace):
    """(report dict, exit status); never a bare crash on a valid parse."""
    started = time.perf_counter()
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": _echo(ns),
    }
    try:
        report["result"] = _RUNNERS[ns.subcommand](ns)
        status = 0
    except BudgetExceeded as exc:
        report["error"] = {"type": "BudgetExceeded", "message": str(exc)}
        status = 3
    except ValueError as exc:  # every domain rejection subclasses ValueError
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        status = 4
    report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return report, status


def flatten(payload, prefix=""):
    """Dotted-path (key, value) rows shared by the CSV rendering."""
    rows = []
    if isinstance(payload, dict):
        for k, v in payload.items():
            rows.extend(flatten(v, f"{prefix}{k}."))
    elif isinstance(payload, (list, tuple)):
        for i, v in enumerate(payload):
            rows.extend(flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], "" if payload is None else str(payload)))
    return rows


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["field", "value"])
    for key, value in flatten(report):
        writer.writerow([key, value])
    return buf.getvalue()


def main(argv=None) -> int:
    ns = parse(sys.argv[1:] if argv is None else argv)
    try:  # opened before the run, so an unwritable path costs no computation
        out = open(ns.output, "w") if ns.output else sys.stdout
    except OSError as exc:
        sys.stderr.write(f"frobsplit: error: cannot write --output {ns.output}: {exc.strerror}\n")
        return 2
    report, status = execute(ns)
    text = render(report, ns.format)
    out.write(text + ("\n" if not text.endswith("\n") else ""))
    if out is not sys.stdout:
        out.close()
    return status


if __name__ == "__main__":
    raise SystemExit(main())
