"""certify-sweep: warm library traffic that certifies the classification fast
path against the centralizer oracle.

Set-up enumerates six small similitude groups once.  Each item is one group
element and one power m: ``classify_element`` and ``classify_element_oracle``
both run on it.  The sample is drawn from the seed, per (group, m), after
sorting each group by its matrix entries, so it does not depend on the order
in which the program enumerates.
"""

from __future__ import annotations

import random

# (family, r, ell) and the group order from the textbook formula:
# |GL_2(F_l)| = l(l-1)^2(l+1), |GU_2(F_3)| = 2|U_2(3)|, |Sp_4(F_2)| = 720,
# |U_3(2)| = 648.
GROUPS = (
    (("C", 1, 3), 48),
    (("C", 1, 5), 480),
    (("C", 1, 7), 2016),
    (("A", 2, 3), 192),
    (("C", 2, 2), 720),
    (("A", 3, 2), 648),
)
POWERS = (1, 2)
SAMPLE = 60  # elements per (group, m); smaller groups are taken whole

# Timed passes per run (a pass is about 3.5 s), and set-up probes spread over
# them (a probe is about 5 s, so there are only three).
PASSES = 4
SETUP_PROBES = 3
SETUP_CODE = f"""
import frobsplit.cli
from frobsplit import groups
for spec in {[spec for spec, _ in GROUPS]!r}:
    groups.enumerate_group(groups.GroupDescriptor(*spec))
"""

# Regular-anisotropic counts over the whole of GL_2(F_l): the nonsplit tori
# number l(l-1)/2 and each holds l(l-1) elements off the centre (m = 1) and
# (l-1)^2 elements whose square leaves F_l (m = 2).  18/48 and 200/480 are
# the paper's GL2(F3) and GL2(F5) values.
KNOWN_TOTALS = {
    (("C", 1, 3), 1): 18,
    (("C", 1, 3), 2): 12,
    (("C", 1, 5), 1): 200,
    (("C", 1, 5), 2): 160,
}


def program_setup():
    """What a library user pays before the first classification (the work
    of SETUP_CODE, keeping the groups)."""
    from frobsplit import groups

    return [groups.enumerate_group(groups.GroupDescriptor(*spec)) for spec, _ in GROUPS]


def _entries(x):
    return tuple(e.index() for row in x.matrix for e in row)


def _gl2_regular(entries, ell: int, m: int) -> bool:
    """x^m has an irreducible characteristic polynomial over F_l (l odd):
    its discriminant tr^2 - 4 det is a non-square.  Plain integers."""
    a, b, c, d = entries
    ra, rb, rc, rd = 1, 0, 0, 1
    for _ in range(m):
        ra, rb, rc, rd = (ra * a + rb * c) % ell, (ra * b + rb * d) % ell, (rc * a + rd * c) % ell, (rc * b + rd * d) % ell
    disc = ((ra + rd) ** 2 - 4 * (ra * rd - rb * rc)) % ell
    return pow(disc, (ell - 1) // 2, ell) == ell - 1


class CertifySweep:
    cold = False

    def __init__(self, seed: int, state):
        from frobsplit import groups

        self.groups = groups
        rng = random.Random(seed)
        self.elements = [sorted(els, key=_entries) for els in state]
        self.items = []
        self.reference = {}
        for gi, (spec, _) in enumerate(GROUPS):
            size = len(self.elements[gi])
            for m in POWERS:
                picks = range(size) if size <= SAMPLE else sorted(rng.sample(range(size), SAMPLE))
                for i in picks:
                    item = (gi, i, m)
                    self.items.append(item)
                    if spec[0] == "C" and spec[1] == 1 and spec[2] > 2:
                        self.reference[item] = _gl2_regular(_entries(self.elements[gi][i]), spec[2], m)
        rng.shuffle(self.items)

    def timed_passes(self, item) -> int:
        return PASSES

    def run(self, item, traced: bool):
        gi, i, m = item
        x = self.elements[gi][i]
        return (self.groups.classify_element(x, m), self.groups.classify_element_oracle(x, m)), None, 0, ()

    def check(self, item, output) -> str:
        fast, oracle = output
        if fast != oracle:
            return "wrong: fast path disagrees with the oracle"
        if item in self.reference and fast != self.reference[item]:
            return "wrong: disagrees with the GL2 discriminant test"
        return "ok"

    def final_checks(self):
        """Group orders and whole-group totals against the known values."""
        errors = []
        for gi, (spec, order) in enumerate(GROUPS):
            if len(self.elements[gi]) != order:
                errors.append(f"{spec}: enumerated {len(self.elements[gi])} elements, expected {order}")
        for (spec, m), expected in KNOWN_TOTALS.items():
            gi = [s for s, _ in GROUPS].index(spec)
            got = sum(self.groups.classify_element(x, m) for x in self.elements[gi])
            if got != expected:
                errors.append(f"{spec} m={m}: {got} regular anisotropic, expected {expected}")
        return errors


WORKLOAD = CertifySweep
