"""Coset tables, counts and Overflow text of todd_coxeter, pinned.

HLT scans every relator from every live coset in definition order.  A
relator's cycle that is already closed gives no definition and no
coincidence when it is scanned again, so the enumeration may skip such a
scan; these pins hold the tables, the definition and coincidence counts
and the `Overflow` message to the values of scanning every one.  The
quaternion relators read the same from no other position of their cycle.
"""

import hashlib

import pytest

from nbase.errors import Overflow
from nbase.grammar import parse_element as pe
from nbase.presentations import (
    Presentation,
    symmetric_presentation,
    todd_coxeter,
    tree_presentation,
)

TREE8 = "[2,2,2,2,2,2,2,2|1,1,1,3,6,7,7]"

# name -> (presentation, order, defined, merged, sha256 of repr(rows))
PINS = {
    "S5": (symmetric_presentation(5), 120, 129, 9,
           "2df8777a9791be71e23e570521e45234298fb168715ffebc870959a1ff071bab"),
    "S6": (symmetric_presentation(6), 720, 825, 105,
           "50310730a772eebaa51f838f9c5250f2038b464172a1bf9700bfdb451e52cd8c"),
    "S7": (symmetric_presentation(7), 5040, 6411, 1371,
           "88ca826092935bcbc2345064e5cba1c1ee82272a9643e65f955fdad5558e6533"),
    # the 7-node tree of test_coset_columns.MIXED
    "tree7": (tree_presentation(pe("[2,2,2,2,2,2,2|1,1,1,1,3,5]"))[0],
              5040, 6723, 1683,
              "baf142e79204d60271de5b79d8295ad0464b16c7893fd91c901315a7285da434"),
    "tree8": (tree_presentation(pe(TREE8))[0], 40320, 55392, 15072,
              "00a844bccbd23828d55957d2774d7bf050f4e660b5e42ed0eb526f55e76de707"),
    "quaternion": (Presentation(2, ((1,) * 4, (1, 1, -2, -2), (1, 2, 1, -2))),
                   8, 10, 2,
                   "b14eff97153ef0fa97747cc80911a6396acf8e4ca320811e0bd01eb26e656748"),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_enumeration_is_pinned(name):
    pres, order, defined, merged, rows = PINS[name]
    ct = todd_coxeter(pres)
    assert ct.complete and ct.order == ct.live == order
    assert (ct.defined, ct.merged) == (defined, merged)
    assert hashlib.sha256(repr(ct.rows).encode()).hexdigest() == rows


@pytest.mark.parametrize("pres, cap, message", [
    (symmetric_presentation(7), 3000,
     "coset cap 3000 exceeded: defined 3652, live 3000, merged 652"),
    (tree_presentation(pe(TREE8))[0], 20000,
     "coset cap 20000 exceeded: defined 25376, live 20000, merged 5376"),
])
def test_overflow_message_is_pinned(pres, cap, message):
    with pytest.raises(Overflow) as exc:
        todd_coxeter(pres, max_cosets=cap)
    assert str(exc.value) == message
