"""Child lists, computed once per element.

``elements._lists`` reads an element's child lists and keeps them on the
element, as tuples, from its second read on; every reader of a whole
element goes through it, and ``trees.to_tree`` hands out a fresh copy.

The sample is every element of ``enumerate_elements(2, 5, 3)`` and
``(3, 3, 2)`` and 60 seeded level-4 elements.  Each one is read a first,
second and third time through ``to_tree``, ``decompose_head`` and (at
level 2) ``apply_one`` under seeded permutations, and every read is
compared with one made from a fresh ``_tree``.  The digest of those reads
was recorded while every read still ran ``_tree``.
"""

import hashlib
import os
import random
import subprocess
import sys

import pytest

from nbase import elements
from nbase.elements import _tree, decompose_head, walk
from nbase.enumeration import enumerate_elements
from nbase.errors import TrustViolation
from nbase.grammar import format_element
from nbase.grammar import parse_element as pe
from nbase.morphisms import apply_one
from nbase.ordinals import eval_phin
from nbase.presentations import edge_structure
from nbase.randgen import random_element
from nbase.render import render
from nbase.trees import to_tree


def sample():
    return (enumerate_elements(2, 5, 3) + enumerate_elements(3, 3, 2)
            + [random_element(4, random.Random(seed)) for seed in range(1, 61)])


def permutations_of(x, seed):
    rng = random.Random(seed)
    return [tuple(rng.sample(range(1, f.arity + 1), f.arity)) for f in x.factors]


def tree_read(x, k):
    return to_tree(x)


def tree_fresh(x, k):
    return _tree(x.factors, x.indices)


def head_read(x, k):
    return decompose_head(x)


def head_fresh(x, k):
    children = _tree(x.factors, x.indices)
    attachments = []
    for slot, t in enumerate(children[0], start=1):
        if t > 0:
            elem, reached = walk(x.factors, children, t)
            attachments.append((slot, elem, tuple([u for u in reached if u > 0])))
    return x.factors[0], tuple(attachments)


def one_read(x, k):
    mor = apply_one(x, permutations_of(x, k))
    return mor.target, mor.leaf_perm, mor.node_relabel


def one_fresh(x, k):
    children = _tree(x.factors, x.indices)
    for p, entries in zip(permutations_of(x, k), children):
        entries[:] = [entries[p.index(q)] for q in range(1, len(p) + 1)]
    target, reached = walk(x.factors, children)
    leaves = len(reached) - x.m
    return (target, tuple([reached[-n] for n in range(1, leaves + 1)]),
            tuple([reached[t] for t in range(1, x.m + 1)]))


def show(value):
    if isinstance(value, elements.PlainElement):
        return format_element(value)
    if isinstance(value, (list, tuple)):
        return "(%s)" % ",".join(map(show, value))
    return repr(value)


def read_three_times(xs, forget):
    """Lines of every reader's first, second and third read of each x, each
    read checked against a fresh ``_tree``; ``forget`` drops kept lists."""
    lines = []
    for pool, read, fresh in ((xs, tree_read, tree_fresh),
                              (xs, head_read, head_fresh),
                              ([x for x in xs if x.level == 2], one_read, one_fresh)):
        forget(pool)
        for _ in range(3):
            for k, x in enumerate(pool):
                got = read(x, k)
                assert got == fresh(x, k), format_element(x)
                lines.append(show(got))
    return lines


def forget(xs):
    for x in xs:
        x._children = None


def test_every_read_matches_a_fresh_tree_and_the_recorded_digest():
    lines = read_three_times(sample(), forget)
    assert len(lines) == 3 * (2 * 26840 + 14664)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "d32dcb34508321cd4956902074c9515b725b815c42e2938f01dfe1e878730dbe")


# an element of each level
def own_elements():
    return [pe("[439,2,2|1,440]")] + [
        random_element(level, random.Random(4439), grafts=4) for level in (3, 4)]


def kept_lists(x):
    return tuple(map(tuple, _tree(x.factors, x.indices)))


def test_to_tree_hands_out_fresh_lists_that_edits_do_not_reach():
    for x in own_elements():
        forget([x])
        want = _tree(x.factors, x.indices)
        for _ in range(3):
            children = to_tree(x)
            assert children == want
            assert type(children) is list and all(type(row) is list for row in children)
            children[0][0] = 10 ** 6
            children[-1].append(-1)
            children.append([])
        assert to_tree(x) == want and x._children == kept_lists(x)


@pytest.mark.parametrize("read", [
    to_tree, decompose_head, eval_phin, render, edge_structure,
    lambda x: apply_one(x, [tuple(range(1, f.arity + 1)) for f in x.factors]),
], ids=["to_tree", "decompose_head", "eval_phin", "render", "edge_structure",
        "apply_one"])
def test_one_read_keeps_the_marker_and_two_keep_the_lists(read):
    x = pe("[2,2,2|1,3]")
    forget([x])
    read(x)
    assert x._children == ()
    for _ in range(2):
        read(x)
        assert x._children == kept_lists(x)


def test_recomposition_reads_its_pieces_through_the_kept_lists():
    head = decompose_head(pe("[2,2,2,2|1,1,4]"))
    pieces = [a.element for a in head.attachments]
    assert len(pieces) == 2
    forget(pieces)
    head.recompose()
    assert [p._children for p in pieces] == [(), ()]
    head.recompose()
    assert [p._children for p in pieces] == [kept_lists(p) for p in pieces]


def test_reads_from_the_third_on_do_not_run_the_trace(monkeypatch):
    calls = []
    tree = elements._tree

    def counted(*args):
        calls.append(1)
        return tree(*args)

    monkeypatch.setattr(elements, "_tree", counted)
    monkeypatch.setattr(elements, "_CHECK", False)
    for x in own_elements():
        forget([x])
        counts = []
        for read in (to_tree, decompose_head, to_tree, decompose_head, to_tree):
            calls.clear()
            read(x)
            counts.append(len(calls))
        assert counts == [1, 1, 0, 0, 0]


def corrupt(x):
    """Kept lists of x with the entries of its first row turned around."""
    forget([x])
    to_tree(x)
    to_tree(x)
    x._children = (x._children[0][::-1],) + x._children[1:]


def test_check_mode_refuses_corrupted_kept_lists():
    assert elements._CHECK  # conftest.py sets NBASE_CHECK=1
    for x in own_elements():
        corrupt(x)
        try:
            for read in (to_tree, decompose_head, eval_phin):
                with pytest.raises(TrustViolation):
                    read(x)
        finally:
            forget([x])


def test_check_mode_refuses_corrupted_kept_lists_under_optimize():
    code = ("import sys\n"
            "sys.path.insert(0, %r)\n"
            "from test_child_lists import corrupt, pe, to_tree\n"
            "from nbase import elements\n"
            "from nbase.errors import TrustViolation\n"
            "x = pe('[439,2,2|1,440]')\n"
            "corrupt(x)\n"
            "print(__debug__, elements._CHECK)\n"
            "try:\n"
            "    to_tree(x)\n"
            "except TrustViolation:\n"
            "    print('refused')\n") % os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, NBASE_CHECK="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "refused"]
