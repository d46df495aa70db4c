"""A coset table returned without `Overflow` is complete.

HLT fills every column of a coset as it processes it, and coincidence
handling refills the rows it touches, so the enumerator has one contract:
when it returns, every live row is filled.  This checks the contract on
seeded random presentations on 1-3 generators at cap 2000: power relators
of each generator, a product relator for each pair, sometimes a random
word, and half of them with a single-letter subgroup word.  A returned
table must be complete, `todd_coxeter`'s rows must hold no None, every
relator and its inverse must lead each coset back to itself (walked here,
not by the enumerator), and with no subgroup words `_coset_counts` must
give `todd_coxeter`'s counts.  With a subgroup word the walk reads the
internal columns of `presentations._enumerate`, whose live cosets are the
subgroup's cosets; the word must also fix coset 0, the subgroup itself.
"""

import random
from collections import Counter
from itertools import combinations

from nbase import presentations
from nbase.errors import Overflow
from nbase.presentations import Presentation, _coset_counts, todd_coxeter

CAP = 2000
CASES = 1000


def word(rng, g):
    return tuple(rng.choice((1, -1)) * rng.randint(1, g) for _ in range(rng.randint(2, 10)))


def random_case(rng):
    g = rng.randint(1, 3)
    rels = [(rng.choice((1, -1)) * l,) * rng.randint(2, 4) for l in range(1, g + 1)]
    rels += [(i, rng.choice((j, -j))) * rng.choice((2, 2, 3))
             for i, j in combinations(range(1, g + 1), 2)]
    rels += [word(rng, g) for _ in range(rng.choice((0, 0, 1)))]
    rng.shuffle(rels)
    sub = [(rng.choice((1, -1)) * rng.randint(1, g),)] if rng.random() < 0.5 else []
    return Presentation(g, rels), sub


def walk(step, a, word):
    for letter in word:
        a = step(a, letter)
    return a


def relators_close(step, cosets, relators):
    return all(walk(step, a, w) == a for a in cosets
               for r in relators for w in (r, tuple(-l for l in reversed(r))))


def test_returned_tables_are_complete():
    rng = random.Random(32)
    outcomes = Counter()
    for _ in range(CASES):
        pres, sub = random_case(rng)
        try:
            ct = _coset_counts(pres, CAP, sub)
        except Overflow:
            outcomes["overflow"] += 1
            continue
        assert ct.complete and ct.order == ct.live, pres
        if sub:
            tab, p, col = presentations._enumerate(pres, CAP, sub)[:3]
            live = [a for a in range(len(p)) if p[a] == a]
            assert len(live) == ct.live

            def step(a, letter):
                return tab[col[letter]][a]

            assert relators_close(step, live, pres.relators), (pres, sub)
            assert walk(step, 0, sub[0]) == 0, (pres, sub)
        else:
            tc = todd_coxeter(pres, CAP)
            assert tc.complete and not any(None in row for row in tc.rows), pres
            assert (tc.order, tc.live, tc.defined, tc.merged) == \
                (ct.order, ct.live, ct.defined, ct.merged), pres

            def step(a, letter):
                return tc.rows[a][2 * (abs(letter) - 1) + (letter < 0)]

            assert relators_close(step, range(tc.live), pres.relators), pres
        outcomes["subgroup" if sub else "trivial", ct.merged > 0] += 1
    # the seed reaches both kinds of table, with and without coincidences
    assert outcomes["overflow"] < CASES // 3
    assert min(outcomes[k, m] for k in ("subgroup", "trivial") for m in (False, True)) >= 100
