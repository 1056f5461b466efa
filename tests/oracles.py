"""Definitional oracles for the tests, kept beside the production paths
they certify.

classify_element_pairwise is the centralizer walk classify_element_oracle
ran before it stopped each commutation test at the first differing entry
and tested abelianness on generators: two full products per group element
for g y == y g, and two more for each pair of the centralizer.  It is the
reference for that oracle.
"""

from frobsplit.finfield import power
from frobsplit.groups import GroupElement, _packed_group, enumerate_group_packed, pack_matrix, torus_order


def classify_element_pairwise(x: GroupElement, m: int = 1) -> bool:
    """Definitional answer: enumerate the centralizer of x^m in the full
    group and test that it is abelian of the anisotropic-torus order."""
    if m < 1:
        raise ValueError("m must be at least 1")
    desc = x.desc
    elements = enumerate_group_packed(desc, "full")
    pg = _packed_group(desc)
    y = power(pack_matrix(x.matrix), m, pg.mm, pg.identity)
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
