"""Two presentations that reach the rare branches of ``todd_coxeter``.

Both reach, in the coincidence handling, the merge of a coset with the
inverse-column neighbour of the other, path compression in the
representative lookup, and the end of a coset's scans when that coset is
itself merged away.  The counts are pinned; the finished tables are
checked without the enumerator: every relator and its inverse close at
every coset, each generator column and its inverse column are mutually
inverse permutations of the rows, and the group the generator columns
generate (listed by ``oracle_perms``) has the enumerated order.
"""

import pytest

from nbase.presentations import Presentation, todd_coxeter
from oracle_perms import closure_order

CASES = [
    # (relators over a1..a3, (live, defined, merged))
    (((3, 1, 1, 1, -2, -1), (-3, 2, -3), (2, 2, 3, 1, 2, 3, -1)), (16, 306, 290)),
    (((-3, 1, -2, 3, 1), (3, -2, -1, 2), (3, 3, -1, -3, 1, 3), (-3,)), (1, 16, 15)),
]


def column(letter):
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


@pytest.mark.parametrize("relators, counts", CASES)
def test_counts_are_pinned(relators, counts):
    ct = todd_coxeter(Presentation(3, relators))
    assert ct.complete and (ct.live, ct.defined, ct.merged) == counts
    assert ct.order == ct.live == len(ct.rows)


@pytest.mark.parametrize("relators, counts", CASES)
def test_table_is_checked_independently(relators, counts):
    ct = todd_coxeter(Presentation(3, relators))
    rows = ct.rows
    for word in relators:
        for w in (word, tuple(-l for l in reversed(word))):
            for c in range(len(rows)):
                d = c
                for letter in w:
                    d = rows[d][column(letter)]
                assert d == c
    gens = []
    for g in range(3):
        forward = [row[2 * g] for row in rows]
        backward = [row[2 * g + 1] for row in rows]
        assert sorted(forward) == sorted(backward) == list(range(len(rows)))
        assert all(backward[forward[c]] == c for c in range(len(rows)))
        gens.append(tuple(d + 1 for d in forward))
    assert closure_order(gens, len(rows)) == counts[0]
