"""The factor-tree evaluation against the head-decomposition recursion.

``reference_walk`` evaluates an element the way the head form reads it: the
first factor and the attachments grafted into its slots, each attachment
evaluated recursively at the same level, the head one level down.  It
recurses once per head decomposition, so it serves small elements only;
``ordinals.eval_phin`` walks the tree of ``trees.to_tree`` instead.  Both
must agree on every element, with and without per-slot arguments.
"""

import random

import pytest

from nbase.elements import decompose_head, total_G
from nbase.enumeration import enumerate_elements
from nbase.ordinals import ONE, ZERO, _sum, cmp, eval_phin, from_int, hier
from nbase.ordinals import parse_ordinal as po
from nbase.randgen import random_element
from nbase.trees import to_tree


def reference_walk(z, bindings, level):
    if level == 1:
        return _sum(bindings.get(p, ONE) for p in range(1, z.arity + 1))
    hf = decompose_head(z)
    att_vals = []
    for att in hf.attachments:
        sub = {local: bindings[orig]
               for local, orig in enumerate(att.positions, start=1)
               if orig in bindings}
        value = reference_walk(att.element, sub, level)
        att_vals.append((att.slot, hier(level - 1, value)))
    if 1 in bindings:
        return _sum([bindings[1]] + [val for _slot, val in att_vals])
    return reference_walk(hf.head, dict(att_vals), level - 1)


def reference_eval(z, alphas=None):
    bindings = {}
    if alphas is not None:
        bindings = {i: a for i, a in enumerate(alphas, start=1)
                    if cmp(a, ONE) != 0}
    return reference_walk(z, bindings, z.level)


def outcome(evaluate, *args):
    """The value, or the class name of the error it raised."""
    try:
        return evaluate(*args)
    except Exception as exc:
        return type(exc).__name__


def same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return cmp(a, b) == 0


SETS = [(1, 1, 6), (2, 5, 3), (3, 3, 2), (4, 2, 2)]
# per-slot arguments; 0 makes a bound factor without children worth 0,
# which its parent's hier refuses
ARGUMENTS = [ONE, ZERO, from_int(2), po("w"), po("w+1"), po("w^(w)"),
             po("phi(2,0)")]


def seeded_elements():
    return [random_element(level, random.Random(seed))
            for level in (2, 3, 4) for seed in range(1, 51)]


def check_against_reference(elements, rng):
    checked = 0
    for z in elements:
        assert same(outcome(eval_phin, z), outcome(reference_eval, z)), z
        alphas = [rng.choice(ARGUMENTS) for _ in range(z.m)]
        assert same(outcome(eval_phin, z, alphas),
                    outcome(reference_eval, z, alphas)), (z, alphas)
        checked += 1
    return checked


@pytest.mark.parametrize("bounds", SETS, ids=str)
def test_eval_phin_matches_the_reference_on_enumerated_elements(bounds):
    elements = list(enumerate_elements(*bounds))
    assert check_against_reference(elements, random.Random(sum(bounds))) \
        == len(elements)


def test_eval_phin_matches_the_reference_on_seeded_elements():
    elements = seeded_elements()
    assert check_against_reference(elements, random.Random(13)) == 150


def test_the_comparison_sees_arguments_and_errors():
    # a free slot of a bound factor adds nothing, and a bound leaf factor
    # worth 0 is refused by its parent
    z = random_element(3, random.Random(5))
    values = {str(outcome(eval_phin, z, [a] * z.m)) for a in ARGUMENTS}
    assert len(values) >= 4 and "OutOfRange" in values


@pytest.mark.parametrize("elements", [
    lambda: list(enumerate_elements(3, 3, 2)),
    lambda: list(enumerate_elements(4, 2, 2)),
    lambda: [z for z in seeded_elements() if z.level >= 3],
], ids=["enum-3-3-2", "enum-4-2-2", "randgen-3-4"])
def test_to_tree_reads_the_head_decomposition(elements):
    for z in elements():
        children = to_tree(z)
        assert [len(entries) for entries in children] == \
            [f.m for f in z.factors]
        atts = decompose_head(z).attachments
        root = [(r, c) for r, c in enumerate(children[0], start=1) if c > 0]
        assert root == [(att.slot, att.positions[0]) for att in atts], z
        leaves = sorted(-c for entries in children for c in entries if c < 0)
        assert leaves == list(range(1, total_G(z).m + 1)), z
        # every factor but the first is grafted exactly once
        grafted = sorted(c for entries in children for c in entries if c > 0)
        assert grafted == list(range(2, z.m + 1)), z
