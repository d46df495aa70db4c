"""An independent check of level-2 grafting: leaf substitution on trees.

``graft_at_slot(u, s, v)`` hangs tree v at leaf s of tree u.  The oracle
builds both trees with ``oracle_trees.build_tree``, hangs v's root on the
leaf's prong and reads the result off in preorder: a node's graft index is
one more than the number of leaves passed before it.  Tags on the nodes
and leaves give the expected factor and slot maps.  Nothing here uses the
package's splice, shuffle or sort machinery.
"""

from oracle_trees import build_tree, leaves_in_order

from nbase.elements import corolla, graft_at_slot, make
from nbase.enumeration import enumerate_elements


def read_off(root):
    """(arities, indices, node position by tag, leaf position by prong key)
    of a tree, read in preorder; a free prong's key is (node tag, prong)."""
    arities, indices, node_pos, leaf_pos = [], [], {}, {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:
            leaf_pos[node] = len(leaf_pos) + 1
            continue
        if arities:
            indices.append(len(leaf_pos) + 1)
        arities.append(node["arity"])
        tag = node["tag"]
        node_pos[tag] = len(arities)
        children = node["children"]
        for p in range(len(children) - 1, -1, -1):
            stack.append((tag, p) if children[p] is None else children[p])
    return arities, indices, node_pos, leaf_pos


class Tree:
    """An element's tree, built once, with its leaves in order."""

    def __init__(self, x, prefix):
        self.m = x.m
        self.root = build_tree([f.arity for f in x.factors], list(x.indices),
                               prefix)
        self.leaves = leaves_in_order(self.root)
        self.keys = [(node["tag"], p) for node, p in self.leaves]


def oracle_graft(tu, s, tv):
    """(arities, indices, factor_phi, factor_psi, slot_phi, slot_psi)
    expected of graft_at_slot(u, s, v), by hanging v's tree on leaf s of
    u's: the result's factor arities and graft indices, then the maps."""
    node, prong = tu.leaves[s - 1]
    node["children"][prong] = tv.root
    try:
        arities, indices, node_pos, leaf_pos = read_off(tu.root)
    finally:
        node["children"][prong] = None
    factor_phi = {t: node_pos[("u", t)] for t in range(1, tu.m + 1)}
    factor_psi = {t: node_pos[("v", t)] for t in range(1, tv.m + 1)}
    slot_phi = {r: leaf_pos[key] for r, key in enumerate(tu.keys, 1) if r != s}
    slot_psi = {r: leaf_pos[key] for r, key in enumerate(tv.keys, 1)}
    return arities, indices, factor_phi, factor_psi, slot_phi, slot_psi


def observed(g):
    """The same fields of a GraftResult."""
    return ([f.arity for f in g.element.factors], list(g.element.indices),
            g.factor_phi, g.factor_psi, g.slot_phi, g.slot_psi)


def test_oracle_reads_a_known_graft():
    # leaf 2 is the first prong of the root's child: v's node comes after
    # that child in preorder, and leaf 3 moves right by v's leaf count - 1
    u = make(2, [corolla(2), corolla(2)], [2])
    v = make(2, [corolla(2)], [])
    expected = oracle_graft(Tree(u, "u"), 2, Tree(v, "v"))
    assert expected == ([2, 2, 2], [2, 2], {1: 1, 2: 2}, {1: 3},
                        {1: 1, 3: 4}, {1: 2, 2: 3})
    assert observed(graft_at_slot(u, 2, v)) == expected


def test_level2_graft_matches_leaf_substitution():
    # every u with every v; the leaf turns with v's number, so each leaf of
    # each u meets many v (the full product is 1.44 M grafts)
    us = enumerate_elements(2, 4, 3)
    vs = enumerate_elements(2, 3, 3)
    v_trees = [Tree(v, "v") for v in vs]
    cases = 0
    for u in us:
        tu = Tree(u, "u")
        for k, (v, tv) in enumerate(zip(vs, v_trees)):
            s = 1 + k % len(tu.leaves)
            assert observed(graft_at_slot(u, s, v)) == oracle_graft(tu, s, tv), \
                (u, s, v)
            cases += 1
    assert cases == len(us) * len(vs) == 1488 * 165
