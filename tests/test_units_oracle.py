"""The level-2 unit plugs against edits on independent oracle trees.

Each element of the arity->=0 enumeration is replayed into an
``oracle_trees`` tree from its arities and graft indices; the zero plug,
the eraser and plug normalization are done there by hand on the nested
dicts and read back with ``serialize``, with no use of ``nbase.elements``.
"""

from oracle_trees import build_tree, leaves_in_order, preorder, serialize

from nbase.enumeration import _enumerate
from nbase.grammar import parse_element
from nbase.trees import from_tree, to_tree
from nbase.units import ERASER, ZERO, RElement, r_compose, r_normalize

ELEMENTS = _enumerate(2, 4, 3, 0)


def _tree(x):
    return build_tree([f.arity for f in x.factors], list(x.indices), "x")


def _shape(r):
    """(arities, indices) of a unital result, or the degeneracy itself."""
    if r.tag:
        return r
    return [f.arity for f in r.plain.factors], list(r.plain.indices)


def _drop_prong(node, prong):
    del node["children"][prong]
    node["arity"] -= 1


def _prune(node):
    """Delete every child left without prongs, bottom-up; True if node is."""
    for prong in range(node["arity"] - 1, -1, -1):
        child = node["children"][prong]
        if child is not None and _prune(child):
            _drop_prong(node, prong)
    return node["arity"] == 0


def test_enumeration_size():
    assert len(ELEMENTS) == 2316


def test_r_normalize_matches_pruning():
    for x in ELEMENTS:
        root = _tree(x)
        expected = ZERO if _prune(root) else serialize(root)
        assert _shape(r_normalize(RElement(plain=x))) == expected, x


def test_zero_plug_caps_every_free_prong():
    for x in ELEMENTS:
        for p in range(1, len(leaves_in_order(_tree(x))) + 1):
            root = _tree(x)
            _drop_prong(*leaves_in_order(root)[p - 1])
            assert _shape(r_compose(x, p, ZERO)) == serialize(root), (x, p)


def test_eraser_deletes_every_arity_one_factor():
    for x in ELEMENTS:
        for i, f in enumerate(x.factors, start=1):
            if f.arity != 1:
                continue
            root = _tree(x)
            nodes = preorder(root)
            (child,) = nodes[i - 1]["children"]
            if len(nodes) == 1:
                expected = ERASER
            elif i == 1:
                expected = serialize(child)
            else:
                parent = next(n for n in nodes
                              if any(c is nodes[i - 1] for c in n["children"]))
                siblings = parent["children"]
                siblings[[c is nodes[i - 1] for c in siblings].index(True)] = child
                expected = serialize(root)
            assert _shape(r_compose(x, i, ERASER)) == expected, (x, i)


def test_from_tree_on_a_1500_node_chain():
    x = parse_element("[%s|%s]" % (",".join(["1"] * 1500), ",".join(["1"] * 1499)))
    assert from_tree(to_tree(x)) is x
