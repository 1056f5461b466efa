"""Independent factorisation reference: ``python3 perfbench/sympy_factor.py BATCH``.

BATCH is a JSON list of ascending integer coefficient lists.  Prints, for
each, sympy's factorisation over Z as [[ascending factor coefficients,
multiplicity], ...].  Exits non-zero when sympy is missing: the benchmark
never runs without this check.
"""

import json
import sys


def main() -> int:
    import sympy

    x = sympy.Symbol("x")
    out = []
    for coeffs in json.load(open(sys.argv[1])):
        content, factors = sympy.Poly(list(reversed(coeffs)), x).factor_list()
        if content != 1:
            raise SystemExit(f"unexpected content {content} for {coeffs}")
        out.append([[[int(c) for c in reversed(g.all_coeffs())], m] for g, m in factors])
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
