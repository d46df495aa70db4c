"""One reader and one writer of factor trees, at every level.

``elements._tree`` reads a graft sequence into child lists and
``elements.walk`` writes child lists back as a canonical element, trusted
with the total it builds.  ``normalize``, ``compose``, ``decompose_head``,
``from_tree`` and ``apply_one`` all go through the pair.
"""

import random
import time

import pytest

from nbase import elements
from nbase.elements import (
    POINT,
    GammaSequence,
    corolla,
    decompose_head,
    make,
    normalize,
    total_G,
)
from nbase.enumeration import enumerate_elements
from nbase.errors import LevelMismatch, MatchViolation, TrustViolation
from nbase.grammar import parse_element as pe
from nbase.morphisms import apply_one
from nbase.randgen import random_element
from nbase.trees import from_tree, to_tree, walk


def level34_elements():
    xs = list(enumerate_elements(3, 3, 2)) + list(enumerate_elements(4, 2, 2))
    for level in (3, 4):
        for seed in range(1, 31):
            rng = random.Random(seed)
            xs.append(random_element(level, rng, grafts=rng.randint(1, 4), max_arity=3))
    return xs


def test_walk_of_the_tree_gives_the_element_back_at_levels_3_and_4():
    for x in level34_elements():
        children = to_tree(x)
        got, reached = walk(x.factors, children)
        assert got is x
        nodes = list(range(1, x.m + 1))
        leaves = [-n for n in range(1, total_G(x).m + 1)]
        assert [t for t in reached if t > 0] == nodes
        assert [t for t in reached if t < 0] == leaves
        assert all(reached[t] == abs(t) for t in nodes + leaves)
        # a walk from each child of the head is that child's attachment
        hf = decompose_head(x)
        below = [(slot, t) for slot, t in enumerate(children[0], start=1) if t > 0]
        assert [a.slot for a in hf.attachments] == [slot for slot, _ in below]
        for att, (_, t) in zip(hf.attachments, below):
            elem, reached = walk(x.factors, children, t)
            assert elem is att.element
            assert tuple(u for u in reached if u > 0) == att.positions
            assert list(att.positions) == sorted(att.positions)
        assert hf.recompose() is x


def test_decompose_head_is_linear_in_the_element():
    # a 4000-prong head, each prong carrying [2,1,1|1,2]: 12,001 factors;
    # rescanning the slots before each graft took seconds here
    n = 4000
    z = make(2, [corolla(n)] + [corolla(a) for _ in range(n) for a in (2, 1, 1)],
             [i for p in range(1, n + 1) for i in (2 * p - 1, 2 * p - 1, 2 * p)])
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        hf = decompose_head(z)
        best = min(best, time.perf_counter() - start)
    assert [a.slot for a in hf.attachments] == list(range(1, n + 1))
    assert hf.attachments[-1].positions == (3 * n - 1, 3 * n, 3 * n + 1)
    assert best < 0.5


# one value of each walk-built kind, none of them built anywhere else: a
# from_tree, a one-morphism target, level-2 and level-3 attachments of
# decompose_head, and a level-3 walk from a node below the head.  A value
# that is interned already is not checked, so the arities (453-471) are
# moved by ``shift``: a test that interns the outputs leaves another's new.
def walk_outputs(shift=0):
    def lit(text, *arities):
        return pe(text % tuple(a + shift for a in arities))

    leaves = [-n for n in range(2, 454 + shift)]
    flip = lit("[%d,2|1]", 455)
    head2 = lit("[2,%d,2|1,1]", 457)
    head3 = lit("[[2,%d|1],[%d,2|1],[2,1|1]|2,3]", 463, 462)
    deep3 = lit("[[2,%d|1],[%d,2|1],[%d,2|1],[2,1|1]|2,2,3]", 471, 470, 469)
    return [
        lambda: from_tree([[2] + leaves, [-1, -454 - shift]]),
        lambda: apply_one(flip, [tuple(range(455 + shift, 0, -1)), (1, 2)]).target,
        lambda: decompose_head(head2).attachments[0].element,
        lambda: decompose_head(head3).attachments[0].element,
        lambda: walk(deep3.factors, to_tree(deep3), 3)[0],
    ]


def test_check_mode_refuses_a_wrong_walk_total(monkeypatch):
    assert elements._CHECK  # conftest.py sets NBASE_CHECK=1
    outputs = walk_outputs()
    trusted = elements._trusted
    monkeypatch.setattr(
        elements, "_trusted",
        lambda level, factors, indices, total: trusted(level, factors, indices, POINT))
    for build in outputs:
        with pytest.raises(TrustViolation):
            build()


def test_walk_outputs_are_not_validated_outside_check_mode(monkeypatch):
    outputs = walk_outputs(shift=5000)
    calls = []
    validate = elements._validate

    def counted(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(elements, "_validate", counted)
    monkeypatch.setattr(elements, "_CHECK", False)
    before = len(elements._interned)
    built = [build() for build in outputs]
    assert calls == []
    assert len(elements._interned) >= before + len(built)  # all new
    for x in built:
        assert validate(x.level, x.factors, x.indices) is total_G(x)


@pytest.mark.parametrize("factors", [
    (corolla(2), "x"),
    ("x", corolla(2)),
    (corolla(2), None),
])
def test_a_raw_sequence_of_non_elements_is_a_level_mismatch(factors):
    g = GammaSequence(2, factors, (1,))
    with pytest.raises(LevelMismatch):
        g.validate()
    with pytest.raises(LevelMismatch):
        normalize(g)


def test_a_level2_walk_needs_one_entry_per_prong():
    two = corolla(2)
    for factors, children in (([two, two], [[2], [-1, -2]]),
                              ([two, two], [[2, -3], [-1]]),
                              ([corolla(3), two], [[2, -3], [-1, -2]])):
        with pytest.raises(MatchViolation):
            walk(factors, children)
    assert walk([two, two], [[2, -3], [-1, -2]])[0] is pe("[2,2|1]")
