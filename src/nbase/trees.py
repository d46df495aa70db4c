"""Planar rooted tree view of level-2 elements.

A level-2 element is a planar tree: its factors are the internal nodes in
preorder (root first, children left to right), and factor t+1 hangs off
prong ``indices[t-1]`` of the partial tree built from the first t factors.
This module converts both ways, for the renderers and the self-test's
substitution check; the morphism calculus reads ``provenance`` directly.
"""

from __future__ import annotations

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

    def leaves(self):
        """(node, prong) pairs of the free prongs, left to right."""
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, tuple):
                yield node
                continue
            for p in range(node.arity, 0, -1):
                child = node.children[p - 1]
                stack.append((node, p) if child is None else child)


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
    factors = []
    indices = []
    slots = []

    def place(node, ambient_pos):
        factors.append(corolla(node.arity))
        if ambient_pos is not None:
            indices.append(ambient_pos)
            slots[ambient_pos - 1:ambient_pos] = [(node, p) for p in range(1, node.arity + 1)]
        else:
            slots.extend((node, p) for p in range(1, node.arity + 1))
        for p, child in enumerate(node.children, start=1):
            if child is not None:
                place(child, slots.index((node, p)) + 1)

    place(root, None)
    return PlainElement(2, factors=factors, indices=indices)

