"""Planar rooted tree view of level-2 elements, and the one walk back.

A level-2 element is a planar tree: its factors are the internal nodes in
preorder (root first, children left to right), and factor t+1 hangs off
prong ``indices[t-1]`` of the partial tree built from the first t factors.
Every tree edit (one-morphisms, unit plugs, ``from_tree``) rewrites
``child_lists(x)`` and reads the result back with ``walk``, one iterative
preorder pass.  The renderers draw the mutable ``TreeNode`` view.
"""

from __future__ import annotations

from itertools import count

from .elements import PlainElement, corolla, provenance
from .errors import LevelMismatch


class TreeNode:
    """Mutable planar tree node; children[p] is None for a free prong."""

    __slots__ = ("arity", "children", "tag")

    def __init__(self, arity, tag=None):
        self.arity = arity
        self.children = [None] * arity
        self.tag = tag

    def preorder(self):
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(c for c in reversed(node.children) if c is not None)


def child_lists(x):
    """Prong entries of a level-2 element: ``children[t - 1][p - 1]`` is the
    node at prong p of node t (nodes are factor positions), or -n when that
    prong is leaf n, slot n of the total."""
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


def to_tree(x):
    """Planar tree of a level-2 element; nodes tagged with factor positions."""
    if x.level != 2:
        raise LevelMismatch("tree view needs a level-2 element")
    nodes = [TreeNode(f.arity, t) for t, f in enumerate(x.factors, 1)]
    for node, (parent, prong) in zip(nodes[1:], provenance(x)[0]):
        nodes[parent - 1].children[prong - 1] = node
    return nodes[0]


def from_tree(root):
    """Canonical level-2 element of a planar tree (preorder factor order)."""
    nodes = list(root.preorder())
    number = {node: t for t, node in enumerate(nodes, start=1)}
    leaf = count(1)
    children = [[-next(leaf) if c is None else number[c] for c in node.children]
                for node in nodes]
    return walk([corolla(n.arity) for n in nodes], children, next(leaf) - 1)[0]
