"""A second opinion on ``graft_at_slot`` at levels 3 and 4: a tree splice.

``graft_at_slot(u, s, v)`` appends v's factors to u, the first one into
slot s of G(u).  In child lists that is a splice: v's tree, its nodes
numbered after u's and its leaves after G(u)'s slots, hangs where u's
leaf -s was.  One ``walk`` of the spliced lists gives the element, and
the entries it reached give all four maps: u's and v's nodes their
positions, G(u)'s and G(v)'s slots their places in the total.  No
``_graft_indices``, ``_sort_sequence`` or shuffle of ``compose`` at the
graft's level is used.

The cases: every graft within ``enumerate_elements(3, 2, 2)`` and within
``(4, 2, 2)``; every fourth element of ``(3, 3, 2)`` at each of its slots,
the grafted element taken in rotation from ``(3, 2, 2)``; and the grafts
that ``randgen`` makes while it builds seeded level-3 and level-4
elements.
"""

import random

import pytest

from nbase import randgen
from nbase.elements import graft_at_slot, slots_F, total_G
from nbase.enumeration import enumerate_elements
from nbase.grammar import parse_element as pe
from nbase.trees import splice, to_tree, walk


def spliced(u, slot, v):
    """The five fields of graft_at_slot(u, slot, v), read off one walk."""
    W = total_G(u)
    children = to_tree(u) + [[c + u.m if c > 0 else c - W.m for c in row]
                             for row in to_tree(v)]
    splice(children, -slot, [u.m + 1])
    elem, reached = walk(u.factors + v.factors, children)
    return (elem,
            {t: reached[t] for t in range(1, u.m + 1)},
            {t: reached[u.m + t] for t in range(1, v.m + 1)},
            {s: reached[-s] for s in range(1, W.m + 1) if s != slot},
            {r: reached[-(W.m + r)] for r in range(1, total_G(v).m + 1)})


def by_slot_content(pool):
    """Pool members by the slot content they fill (their total's total)."""
    found = {}
    for v in pool:
        found.setdefault(total_G(total_G(v)), []).append(v)
    return found


def assert_grafts(cases):
    count = 0
    for u, slot, v in cases:
        assert tuple(graft_at_slot(u, slot, v)) == spliced(u, slot, v), (u, slot, v)
        count += 1
    return count


def every_graft(pool):
    fits = by_slot_content(pool)
    for u in pool:
        for slot, content in enumerate(slots_F(total_G(u)), start=1):
            for v in fits.get(content, ()):
                yield u, slot, v


def test_splice_reads_a_known_graft():
    # u's second factor fills slot 2 of its first; v fills slot 1, left of
    # it, so v's two factors come before u's second in the canonical order
    u = pe("[[1,1|1],[1|]|2]")
    v = pe("[[1,1|1],[1,1|1]|1]")
    g = graft_at_slot(u, 1, v)
    assert tuple(g) == spliced(u, 1, v)
    assert g.element == pe("[[1,1|1],[1,1|1],[1,1|1],[1|]|1,1,4]")
    assert (g.factor_phi, g.factor_psi) == ({1: 1, 2: 4}, {1: 2, 2: 3})
    assert (g.slot_phi, g.slot_psi) == ({2: 4}, {1: 1, 2: 2, 3: 3})


@pytest.mark.parametrize("level, count", [(3, 2124), (4, 16680)])
def test_every_graft_within_two_factors(level, count):
    assert assert_grafts(every_graft(enumerate_elements(level, 2, 2))) == count


def test_three_factor_bases_at_every_slot():
    fits = by_slot_content(enumerate_elements(3, 2, 2))
    cases, turn = [], 0
    for u in enumerate_elements(3, 3, 2)[::4]:
        for slot, content in enumerate(slots_F(total_G(u)), start=1):
            vs = fits[content]
            cases.append((u, slot, vs[turn % len(vs)]))
            turn += 1
    assert assert_grafts(cases) == len(cases) == 17_052


def test_randgen_grafts(monkeypatch):
    made = []

    def recording(u, slot, v):
        made.append((u, slot, v))
        return graft_at_slot(u, slot, v)

    monkeypatch.setattr(randgen, "graft_at_slot", recording)
    rng = random.Random(24)
    while len(made) < 600:
        randgen.random_element(3 + len(made) % 2, rng)
    assert {u.level for u, _, _ in made} == {2, 3, 4}
    assert assert_grafts(made) == len(made)
