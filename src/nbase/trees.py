"""Planar rooted trees of level-2 elements, held as child lists.

A level-2 element is a planar tree: its factors are the internal nodes in
preorder (root first, children left to right), and factor t+1 hangs off
prong ``indices[t-1]`` of the partial tree built from the first t factors.
The tree's one in-memory form is ``to_tree(x)``: for each node, the entries
at its prongs, a node number or a negative leaf.  Every tree edit
(one-morphisms, unit plugs, the oracle suite) rewrites these lists and
reads the result back with ``walk``, one iterative preorder pass; the
renderers draw them as they are.
"""

from __future__ import annotations

from .elements import PlainElement, corolla, provenance
from .errors import LevelMismatch


def to_tree(x):
    """Child lists of a level-2 element: ``children[t - 1][p - 1]`` is the
    node at prong p of node t (nodes are factor positions), or -n when that
    prong is leaf n, slot n of the total."""
    if x.level != 2:
        raise LevelMismatch("tree view needs a level-2 element")
    parents, leaves = provenance(x)
    children = [[0] * f.arity for f in x.factors]
    for t, (s, r) in enumerate(parents, start=2):
        children[s - 1][r - 1] = t
    for n, (s, r) in enumerate(leaves, start=1):
        children[s - 1][r - 1] = -n
    return children


def splice(children, entry, new):
    """Put the entries new in place of entry in its parent's list."""
    entries = next(c for c in children if entry in c)
    p = entries.index(entry)
    entries[p:p + 1] = new


def walk(factors, children, leaves):
    """Canonical element of the tree rooted at node 1 of the child lists.

    Node t is the corolla ``factors[t - 1]``; its entries ``children[t - 1]``
    are node numbers or leaves -1..-leaves.  In preorder, each node grafts
    into the slot after the leaves passed so far.  Returns ``(element, node_relabel,
    leaf_perm)``, the new position of each node and leaf, 0 if not reached.
    """
    out = []
    indices = []
    node_relabel = [0] * len(children)
    leaf_perm = [0] * leaves
    passed = 0
    stack = [1]
    while stack:
        t = stack.pop()
        if t < 0:
            passed += 1
            leaf_perm[-t - 1] = passed
            continue
        if out:
            indices.append(passed + 1)
        out.append(factors[t - 1])
        node_relabel[t - 1] = len(out)
        stack.extend(reversed(children[t - 1]))
    return PlainElement(2, factors=out, indices=indices), node_relabel, leaf_perm


def from_tree(children):
    """Canonical level-2 element of child lists read from node 1.

    Node t has arity ``len(children[t - 1])``, 0 allowed; the leaves are
    -1..-n for the largest leaf number n, and need not all be present.
    """
    factors = [corolla(len(entries), allow_zero=True) for entries in children]
    leaves = max((-c for entries in children for c in entries), default=0)
    return walk(factors, children, leaves)[0]
