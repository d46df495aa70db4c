"""Coset tables with one self-inverse column per involutory generator.

A generator with the relator g*g (or g^-1*g^-1) is enumerated with one
column that is its own inverse.  The public row layout is unchanged: column
2(g-1) is g and 2(g-1)+1 its inverse, both holding the same coset for an
involution.  Presentations with no square relator are enumerated exactly as
with a column and an inverse column per generator; their tables, counts and
`Overflow` message are pinned to the values of that enumeration.
"""

import hashlib
from math import factorial

import pytest

from nbase.errors import Overflow
from nbase.grammar import parse_element as pe
from nbase.presentations import (
    Presentation,
    todd_coxeter,
    tree_presentation,
)


def digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# (presentation, order, defined, merged, sha256 of repr(rows))
NO_SQUARE = {
    "(ab)^2, a^5, b^3": (
        Presentation(2, ((1, 2, 1, 2), (1,) * 5, (2,) * 3)), 60, 60, 0,
        "9a3935910c3fdf941f170abdccd6c19cf9fd6ee02b0d1c9d273767173b04a4b8"),
    "a^3, b^3, (ab^-1)^2": (
        Presentation(2, ((1,) * 3, (2,) * 3, (1, -2, 1, -2))), 12, 12, 0,
        "062613c94f30b67d20c4c990ee953776c5c8aaf8622fa815401d011ae1ef4728"),
    "Z7": (
        Presentation(1, ((1,) * 7,)), 7, 7, 0,
        "315adb6e6c7e47ea13bb553fe51b8b45a205b6848eab6c9c3ab4ed9a887b056e"),
    # quaternion group: the one pinned case with coincidences
    "a^4, a^2b^-2, abab^-1": (
        Presentation(2, ((1,) * 4, (1, 1, -2, -2), (1, 2, 1, -2))), 8, 10, 2,
        "b14eff97153ef0fa97747cc80911a6396acf8e4ca320811e0bd01eb26e656748"),
}


@pytest.mark.parametrize("name", sorted(NO_SQUARE))
def test_no_square_relator_keeps_the_two_column_enumeration(name):
    pres, order, defined, merged, rows = NO_SQUARE[name]
    ct = todd_coxeter(pres)
    assert (ct.order, ct.defined, ct.merged) == (order, defined, merged)
    assert digest(ct.rows) == rows


def test_no_square_overflow_message():
    p = Presentation(2, ((1,) * 3, (2,) * 3))
    with pytest.raises(Overflow) as exc:
        todd_coxeter(p, max_cosets=500)
    assert str(exc.value) == ("coset cap 500 exceeded: defined 500, live 500,"
                              " merged 0")


def follow(rows, coset, word):
    for letter in word:
        coset = rows[coset][2 * letter - 2 if letter > 0 else -2 * letter - 1]
    return coset


MIXED = [
    # (presentation, order)
    (Presentation(2, ((1, 1), (2,) * 3, (1, 2) * 5)), 60),
    (Presentation(2, ((1,) * 5, (2, 2), (1, 2) * 2)), 10),
    (Presentation(1, ((-1, -1),)), 2),
    # the square written with the inverse letter, words mixing both letters
    (Presentation(2, ((-1, -1), (2,) * 3, (1, -2) * 2)), 6),
    (tree_presentation(pe("[2,2,2,2,2,2,2|1,1,1,1,3,5]"))[0], 5040),
]


@pytest.mark.parametrize("pres,order", MIXED)
def test_mixed_layout_is_the_regular_action(pres, order):
    ct = todd_coxeter(pres)
    rows = ct.rows
    assert ct.complete and ct.order == ct.live == len(rows) == order
    squares = {abs(r[0]) for r in pres.relators if len(r) == 2 and r[0] == r[1]}
    assert squares
    for g in range(1, pres.generators + 1):
        c = 2 * g - 2
        image = [row[c] for row in rows]
        assert sorted(image) == list(range(order))
        assert all(rows[image[i]][c + 1] == i for i in range(order))
        if g in squares:
            assert all(row[c] == row[c + 1] for row in rows)
    for r in pres.relators:
        assert all(follow(rows, coset, r) == coset for coset in range(order))
    # transitive on as many points as the group has elements: regular
    seen = {0}
    todo = [0]
    for coset in todo:
        for d in rows[coset]:
            if d not in seen:
                seen.add(d)
                todo.append(d)
    assert len(seen) == order


def test_eight_node_tree_definition_count():
    # 104881 cosets were defined when each involution had an inverse column
    ct = todd_coxeter(tree_presentation(pe("[2,2,2,2,2,2,2,2|1,3,3,4,4,7,8]"))[0])
    assert ct.order == ct.live == factorial(8)
    assert ct.defined == 53808 <= 104881
