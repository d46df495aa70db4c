"""Planar rooted trees of elements, held as child lists.

A level-2 element is a planar tree: its factors are the internal nodes in
preorder (root first, children left to right), and factor t+1 hangs off
prong ``indices[t-1]`` of the partial tree built from the first t factors.
The tree's one in-memory form is ``to_tree(x)``: for each node, the entries
at its prongs, a node number or a negative leaf.  They are computed once per
element and kept on it as tuples (``elements._lists``, re-exported here for
the package's readers); ``to_tree`` hands out fresh lists.  Every tree edit
(one-morphisms, unit plugs, the oracle suite) rewrites such lists and reads
the result back with ``walk``; the renderers draw them.

At every level >= 2 the factors form the same kind of tree, the tree of
iterated head decompositions: a factor's children are the factors grafted
into its slots.  ``to_tree`` and ``walk`` (``elements.walk``, re-exported
here) take any level >= 2; ``from_tree`` builds level-2 trees from bare
child lists, a corolla per node, and refuses lists that are not one tree
below node 1 (``InvalidTree``); the package's own edits skip that check.
"""

from __future__ import annotations

from .elements import _lists, corolla, walk
from .errors import InvalidTree, LevelMismatch


def to_tree(x):
    """Child lists of an element of level >= 2: ``children[t - 1][r - 1]``
    is the factor grafted into slot r of factor t, or -n when that slot is
    slot n of the total.  At level 2 these are the node at prong r of node
    t, or leaf n.  They are fresh lists, free to edit, copied from the ones
    the element keeps."""
    if x.level < 2:
        raise LevelMismatch("tree view needs level >= 2")
    return [list(entries) for entries in _lists(x)]


def splice(children, entry, new):
    """Put the entries new in place of entry in its parent's list."""
    entries = next(c for c in children if entry in c)
    p = entries.index(entry)
    entries[p:p + 1] = new


def from_tree(children):
    """Canonical level-2 element of child lists read from node 1.

    Node t has arity ``len(children[t - 1])``, 0 allowed; the leaves are
    -1..-n for the largest leaf number n, and need not all be present.
    Raises InvalidTree unless the lists are lists of ints that name every
    node but 1 once, node 1 never and each leaf at most once, and every node
    is reached from 1.
    """
    if not all(isinstance(row, (list, tuple)) and all(type(c) is int for c in row)
               for row in children):
        raise InvalidTree("child lists must be lists of ints")
    entries = [c for row in children for c in row]
    leaves = {c for c in entries if c < 0}
    if (sorted([1] + [c for c in entries if c > 0]) != list(range(1, len(children) + 1))
            or len(children) - 1 + len(leaves) != len(entries)):
        raise InvalidTree("child lists must name every node but 1 exactly once,"
                          " and each leaf at most once")
    elem, reached = _below_root(children)
    if len(reached) != len(children) + len(leaves):
        raise InvalidTree("nodes %s are not reached from node 1" % sorted(
            set(range(1, len(children) + 1)) - set(reached)))
    return elem


def _below_root(children):
    """``walk`` of child lists from node 1, a corolla per node, unchecked:
    every tree edit of ``units`` and ``selftest`` reads its lists with it,
    as they are trees by construction.  Those that drop nodes leave them in
    place, named by no list, which ``from_tree`` would refuse."""
    return walk([corolla(len(row), allow_zero=True) for row in children], children)
