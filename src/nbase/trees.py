"""Planar rooted trees of elements, held as child lists.

A level-2 element is a planar tree: its factors are the internal nodes in
preorder (root first, children left to right), and factor t+1 hangs off
prong ``indices[t-1]`` of the partial tree built from the first t factors.
The tree's one in-memory form is ``to_tree(x)``: for each node, the entries
at its prongs, a node number or a negative leaf.  Every tree edit
(one-morphisms, unit plugs, the oracle suite) rewrites these lists and
reads the result back with ``walk``, one iterative preorder pass; the
renderers draw them as they are.

At every level >= 2 the factors form the same kind of tree, the tree of
iterated head decompositions: a factor's children are the factors grafted
into its slots.  ``to_tree`` takes any level >= 2 (the ordinal evaluation
walks it); ``walk`` and ``from_tree`` read level-2 trees only.
"""

from __future__ import annotations

from .elements import PlainElement, corolla, provenance
from .errors import LevelMismatch


def to_tree(x):
    """Child lists of an element of level >= 2: ``children[t - 1][r - 1]``
    is the factor grafted into slot r of factor t, or -n when that slot is
    slot n of the total.  At level 2 these are the node at prong r of node
    t, or leaf n."""
    if x.level < 2:
        raise LevelMismatch("tree view needs level >= 2")
    parents, leaves = provenance(x)
    children = [[0] * f.m for f in x.factors]
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
